"""Numerically exact bridge machinery on the finite state ladder.

Pinning a counting process at (x, s) and (y, u) turns it into a Markov jump
process whose rate is rate(t, z) * h(t, z+1) / h(t, z), where h(t, z) is the
probability of hitting the pin from state z at time t.  This module solves the
backward system for h, the forward system for the pinned one-time marginals,
and keeps an independent second route (unconditioned forward mass times h) as
a cross-check.

Numerics.  The pinned jump rate blows up like (y - z) / (u - t) at the pin, so
a uniform mesh either goes unstable or loses the 1e-6/1e-8 accuracy this
module promises.  Two devices deal with that:

* every Runge-Kutta step removes its diagonal (the stiff part) exactly through
  a per-step integrating factor, leaving only the coupling to the next state
  to the classical RK4 stages;
* the mesh is graded toward the terminal time in the variable that actually
  measures pin pressure: the remaining integrated rate.  Each step moves at
  most STEP_BUDGET / (ladder height) in log of that variable, which for
  constant rates is exactly a geometric mesh in u - t.

Every system here is bidiagonal: a state is fed by one neighbour only (the
state above backward, the state below forward).  So every sweep takes the
states in the outer loop, and each state's whole column over the mesh is one
first-order linear recurrence in the steps, driven by the columns already
solved.  All of its terms are non-negative, so :func:`_column` solves it at
once in log space.  No value is rescaled, clamped or cut: log h is exact
(to the integrator's accuracy) wherever it is representable as a float, far
below exp(-700), and the only -inf cells are the exact zeros of the discrete
scheme next to u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BadStep, BadWindow, ConservationLoss, GridTooCoarse, ResourceCap,
                     Underflow)

# Per-step cap on (ladder depth) x (change in log remaining integrated rate);
# the pinned jump rate at depth m is ~ m * rate / remaining, so this bounds
# rate x step uniformly along the whole window.
STEP_BUDGET = 0.1
# The stored mesh extends to (coarse step) / PIN_DEPTH from the terminal time;
# closer queries use the exact 1/(u - t) pin asymptote.
PIN_DEPTH = 100.0
MAX_COARSE_STEP = 1e-2 + 1e-12
# The mesh probes the ladder-minimal rate on CHUNK probe times at a time.
CHUNK = 256
# A mesh whose two stored (nodes x ladder) float arrays would exceed this many
# bytes is refused before anything of that size is allocated.
MEMORY_CAP = 4 * 2 ** 30


@dataclass(frozen=True)
class BridgeSpec:
    """Endpoints (x, y) and time window (s, u) identifying one bridge."""

    x: int
    y: int
    s: float = 0.0
    u: float = 1.0

    def __post_init__(self):
        if int(self.x) != self.x or int(self.y) != self.y:
            raise ValueError("endpoints must be integers")
        if self.x > self.y:
            raise ValueError(f"need x <= y, got {self.x} > {self.y}")
        if not (0.0 <= self.s < self.u <= 1.0):
            raise BadWindow(f"need 0 <= s < u <= 1, got [{self.s}, {self.u}]")

    @property
    def n(self):
        """Number of jumps every bridge path makes."""
        return self.y - self.x

    @property
    def length(self):
        return self.u - self.s

    def ladder(self):
        return np.arange(self.x, self.y + 1)


def _n_cells(spec, h_step):
    """Number of uniform output cells for ``h_step``; refuses steps that do not fit."""
    if h_step <= 0:
        raise BadStep("h_step must be positive")
    if h_step >= spec.length:
        raise BadStep(f"h_step {h_step} does not fit the window of length {spec.length}")
    if h_step > MAX_COARSE_STEP:
        raise BadStep("h_step must not exceed 1e-2")
    return max(2, int(round(spec.length / h_step)))


class _Mesh:
    """Node layout shared by the backward and forward passes.

    ``fwd_bounds`` are the forward substep boundaries from s to u - dc (cell
    edges of the uniform output grid, subdivided where the pin is near).
    Storage nodes are those boundaries plus their midpoints (the first
    ``n_fwd_nodes``), then a graded extension from u - dc down to
    u - dc/PIN_DEPTH, then u itself.

    Subdivision measures closeness to the pin by the remaining integrated
    rate lam_hat(t) = integral over [t, u] of the ladder-minimal rate; each
    step moves at most STEP_BUDGET / (ladder height) in log lam_hat.  The
    pinned jump rate at depth m below the endpoint scales like
    m * rate / lam_hat, so this keeps the per-step rate-times-step product
    uniformly below STEP_BUDGET even when rates decay sharply toward u.

    The node count is known before any node is placed; a mesh whose two
    stored (nodes x ladder) arrays would exceed MEMORY_CAP raises
    :class:`~countbridge.errors.ResourceCap` with the estimate.
    """

    def __init__(self, spec, h_step, model, step_budget=None):
        self.step_budget = STEP_BUDGET if step_budget is None else float(step_budget)
        n_c = _n_cells(spec, h_step)
        self.spec = spec
        self.dc = spec.length / n_c
        self.n_cells = n_c
        edges = np.linspace(spec.s, spec.u, n_c + 1)
        self.out_times = edges

        # probe the ladder-minimal rate (CHUNK probe rows at a time) and its
        # backward cumulative integral
        probe_t = np.linspace(spec.s, spec.u, 4 * n_c + 1)
        lmin = np.concatenate([np.min(model.rate_grid(probe_t[i:i + CHUNK], spec.ladder()), axis=1)
                               for i in range(0, probe_t.size, CHUNK)])
        seg = 0.5 * (lmin[:-1] + lmin[1:]) * np.diff(probe_t)
        lam_hat = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
        # t -> log lam_hat, excluding the vanishing endpoint value
        t_tab = probe_t[:-1]
        v_tab = np.log(lam_hat[:-1])

        # cell j = [edges[j], edges[j+1]] gets n_sub[j] substeps, equal in v
        depth_scale = max(1, spec.n) / self.step_budget
        v = np.interp(edges[:n_c], t_tab, v_tab)
        v1, v2 = v[:-1], v[1:]
        n_sub = np.maximum(1, np.ceil((v1 - v2) * depth_scale).astype(int))
        n_ext = int(math.ceil(math.log(PIN_DEPTH) * depth_scale))
        n_fb = 1 + int(n_sub.sum())
        n_nodes = 2 * n_fb + n_ext
        need = 2 * n_nodes * (spec.n + 1) * 8
        if need > MEMORY_CAP:
            raise ResourceCap(
                f"bridge {spec.x}->{spec.y} needs {n_nodes} mesh nodes x {spec.n + 1} states,"
                f" about {need / 2 ** 30:.1f} GiB for log h and the bridge rates;"
                f" the cap is {MEMORY_CAP / 2 ** 30:.0f} GiB")

        # interior node i = 1..n_sub[j]-1 of cell j sits at fb-index out_fb_idx[j] + i
        out_fb_idx = np.concatenate([[0], np.cumsum(n_sub)])
        n_in = n_sub - 1
        cell = np.repeat(np.arange(n_c - 1), n_in)
        i = np.arange(cell.size) - np.repeat(np.cumsum(n_in) - n_in, n_in) + 1
        vv = v1[cell] + (v2[cell] - v1[cell]) * i / n_sub[cell]
        t_in = np.interp(-vv, -v_tab, t_tab)
        fb = np.empty(n_fb)
        fb[out_fb_idx] = edges[:n_c]
        fb[out_fb_idx[cell] + i] = np.minimum(edges[cell + 1], np.maximum(edges[cell], t_in))
        if np.any(np.diff(fb) <= 0):
            fb = np.unique(fb)
            out_fb_idx = np.searchsorted(fb, edges[:-1])
        self.fwd_bounds = fb
        self.out_fb_idx = out_fb_idx

        seg_a = np.empty(2 * fb.size - 1)
        seg_a[0::2] = fb
        seg_a[1::2] = 0.5 * (fb[:-1] + fb[1:])
        u = spec.u
        d1, d0 = self.dc, self.dc / PIN_DEPTH
        ext = [u - d1 * (d0 / d1) ** (i / n_ext) for i in range(1, n_ext + 1)]
        self.times = np.concatenate([seg_a, ext, [u]])
        self.n_fwd_nodes = seg_a.size
        # storage index of each output edge except u (edge k sits at 2 * fb-index)
        self.out_node_idx = 2 * self.out_fb_idx


def _column(step, rates, feed, prior):
    """One state's log column of a diagonal-exact RK4 sweep, over all steps at once.

    A sweep takes the ladder states in order, from the pin down (``solve_h``)
    or from the start state up (the marginal routes), and starts from 1 in
    its first state and 0 in every other.  ``step`` holds the m step lengths
    in sweep order.  ``rates`` are the state's own rates and ``feed`` those at
    which the state before it feeds it (its own rates backward, the rates of
    the state below forward; unused for the first state), each given at the
    step boundaries and midpoints interleaved: 2 m + 1 values.  ``prior`` is
    what this function returned for the state before, which carries up to
    four states.

    Each step removes its diagonal exactly.  With i_mid and i_end its
    integrals (a quadratic fit to the middle, Simpson to the end) and
    coupling rates c0, cm, ce, the staged step k1 = c0 S x,
    k2 = cm S(x + h/2 k1), k3 = cm S(x + h/2 k2), k4 = ce S(x + h k3),
    x_new = exp(-i_end) (x + h/6 (k1 + 2 k2 + 2 k3 + k4)), S reading the
    state before, expands into exp(-i_end) (x + a1 S x + ... + a4 S^4 x).
    Every a_d is a product of rates and step powers, so it is >= 0.  One
    state's column therefore obeys x[j+1] = exp(-i_end[j]) (x[j] + b[j]),
    with b = sum_d a_d S^d x known from the earlier states, and that
    recurrence is solved at once in log space: with g the running sum of
    -i_end, log x = g + logaddexp.accumulate([log seed, log b - g]).  No
    value is rescaled or clamped.  Returns the log column (m + 1 values) and
    the ``prior`` of the next state.
    """
    r0, rm, r1 = rates[:-1:2], rates[1::2], rates[2::2]
    i_mid = step * (5.0 * r0 + 8.0 * rm - r1) / 24.0
    i_end = step * (r0 + 4.0 * rm + r1) / 6.0
    g = np.concatenate([[0.0], np.cumsum(-i_end)])
    if not prior:
        return g, [(g, None, None, i_mid, i_end)]
    _, c0_1, cm_1, i_mid_1, i_end_1 = prior[0]
    c0 = feed[:-1:2]
    cm = feed[1::2] * np.exp(i_mid - i_mid_1)
    ce = feed[2::2] * np.exp(i_end - i_end_1)
    coef = [(step / 6.0) * (c0 + 4.0 * cm + ce)]
    if len(prior) > 1:
        coef.append((step ** 2 / 6.0) * (cm * c0_1 + (cm + ce) * cm_1))
    if len(prior) > 2:
        c0_2, cm_2 = prior[1][1:3]
        coef.append((step ** 3 / 12.0) * cm_1 * (cm * c0_2 + ce * cm_2))
    if len(prior) > 3:
        coef.append((step ** 4 / 24.0) * ce * cm_1 * cm_2 * prior[2][1])
    # log b at each step's start, shifted by the largest earlier value there
    # (0 where every earlier state is still exactly 0)
    before = [p[0][:-1] for p in prior]
    top = np.max(before, axis=0)
    top[top == -np.inf] = 0.0
    with np.errstate(divide="ignore"):
        log_b = top + np.log(sum(a * np.exp(x - top) for a, x in zip(coef, before)))
    log_x = g + np.logaddexp.accumulate(np.concatenate([[-np.inf], log_b - g[:-1]]))
    return log_x, [(log_x, c0, cm, i_mid, i_end)] + prior[:3]


class HField:
    """log h(t, z) on the solver mesh for one (model, bridge) pair.

    Stores ``logh`` and ``node_bridge_rates`` (the pinned jump rates), each a
    (mesh nodes x ladder) array on the node times ``times``, and the mesh they
    were solved on.  Immutable once built; safe to share across threads.
    Inside a state's terminal boundary layer the sampler uses the exact
    first-order pin asymptote k ~ (y - z)/(u - t), anchored at the latest
    mature node for that state (``anchor_idx``).
    """

    def __init__(self, model, spec, mesh, log_h, node_bridge_rates):
        self.model = model
        self.spec = spec
        self.mesh = mesh
        self.times = times = mesh.times
        self.logh = log_h
        self.node_bridge_rates = node_bridge_rates
        # Per-state asymptote anchors.  h at depth m vanishes like (u-t)^m, and
        # the backward pass resolves that layer only a few nodes away from u,
        # so queries closer than m x (finest node distance) ride the exact
        # first-order asymptote anchored at the last node before that limit.
        n = spec.n
        d_min = spec.u - times[-2]
        lims = np.searchsorted(times, spec.u - (n - np.arange(n)) * d_min, side="right")
        self.anchor_idx = np.minimum(lims, times.size - 1) - 1

    def next_jumps(self, zi, start, mass):
        """Next jump times from ladder state x + zi, by inversion of the pinned survival.

        From state z at time t, the pinned chain stays put until r with probability
        exp(-(L(r) - L(t))), where L = (integrated rate) - log h(., z) is the integrated
        pinned rate.  L is tabulated on the mesh nodes up to the state's asymptote
        anchor and follows the anchor's base * (u - t_a) / (u - t) rate past it, so a
        jump lands where L reaches L(start) + mass.  ``start`` and ``mass`` (Exp(1)
        draws) are arrays over replicas.  A state with no mesh node before its pin
        layer has no anchor and raises Underflow.
        """
        spec = self.spec
        z = spec.x + zi
        j = int(self.anchor_idx[zi])
        if j < 0:
            raise Underflow(f"no mesh node lies before the pin layer of state {z}")
        t_tab = self.times[:j + 1]
        rates = self.model.rate_grid(t_tab, [z])[:, 0]
        lam = np.concatenate([[0.0], np.cumsum(0.5 * (rates[1:] + rates[:-1]) * np.diff(t_tab))])
        big_l = lam - self.logh[:j + 1, zi]
        # past the anchor L grows like slope * log(1 / (u - t))
        ta = t_tab[-1]
        slope = self.node_bridge_rates[j, zi] * (spec.u - ta)
        start = np.asarray(start, dtype=float)
        level = np.interp(start, t_tab, big_l)
        past = start > ta
        level[past] = big_l[-1] + slope * np.log((spec.u - ta) / (spec.u - start[past]))
        target = level + mass
        past = target > big_l[-1]
        out = np.interp(target, big_l, t_tab)
        out[past] = spec.u - (spec.u - ta) * np.exp((big_l[-1] - target[past]) / slope)
        return out


def solve_h(model, spec, h_step=1e-3, step_budget=None):
    """Solve the backward pin-probability system on the ladder.

    Integrates d/dt h(t,z) = -rate(t,z) [h(t,z+1) - h(t,z)] backward from
    h(u, .) = indicator(y) with diagonally-exact RK4 steps.  The system is
    upper bidiagonal, so the states go from the pin down, one log column each
    (:func:`_column`), coupled at their own rates.  Each state's pinned jump
    rates rate(t,z) h(t,z+1) / h(t,z) are formed right after its column.
    ``step_budget`` tightens the mesh grading below the module default for
    extra accuracy.
    """
    mesh = _Mesh(spec, h_step, model, step_budget)
    times = mesh.times
    # rates at the nodes and the step midpoints interleaved, from u down
    t_rates = np.empty(2 * times.size - 1)
    t_rates[0::2] = times
    t_rates[1::2] = 0.5 * (times[:-1] + times[1:])
    t_rates = t_rates[::-1]
    step = np.diff(times)[::-1].copy()

    log_h = np.empty((times.size, spec.n + 1), order="F")
    k_nodes = np.zeros_like(log_h)
    prior = []
    for zi in range(spec.n, -1, -1):
        rates = model.rate_grid(t_rates, [spec.x + zi])[:, 0]
        col, prior = _column(step, rates, rates, prior)
        log_h[:, zi] = col[::-1]
        if zi < spec.n:
            # 0 where state zi is still exactly 0, within a few nodes of u
            with np.errstate(invalid="ignore"):
                k = rates[::-2] * np.exp(log_h[:, zi + 1] - log_h[:, zi])
            k_nodes[:, zi] = np.where(np.isfinite(k), k, 0.0)
    return HField(model, spec, mesh, log_h, k_nodes)


class MarginalTable:
    """One-time laws P(X_t = z) of a bridge on a uniform output grid."""

    def __init__(self, spec, times, probs, drift):
        self.spec = spec
        self.times = times
        self.probs = probs
        self.drift = drift

    def validate(self, drift_tol=1e-6, monotone_tol=1e-7):
        if not np.all(np.isfinite(self.probs)):
            raise ConservationLoss("table holds non-finite probabilities")
        if not self.drift <= drift_tol:
            raise ConservationLoss(
                f"mass drift {self.drift:.3e} exceeds {drift_tol:.1e}; refine the step")
        sums = self.probs.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > 1e-9:
            raise ConservationLoss("rows are not normalized")
        if not (self.probs[0, 0] == 1.0 and self.probs[-1, -1] == 1.0):
            raise ConservationLoss("endpoint rows are not pinned")
        tails = self.tail_matrix()
        worst = np.min(np.diff(tails, axis=0))
        if worst < -monotone_tol:
            raise ConservationLoss(
                f"tail monotonicity in t violated by {-worst:.3e}")
        return self

    def tail_matrix(self):
        """P(X_t >= x + i) with rows over the grid and columns i = 0..n."""
        return np.cumsum(self.probs[:, ::-1], axis=1)[:, ::-1]

    def index_of(self, t, tol=1e-9):
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > tol:
            raise ValueError(f"t={t} is not an output grid node")
        return idx


def _forward(mesh, rates):
    """Log forward mass at the output times before u: one row per time, one
    column per state, from mass 1 in state x at s.  ``rates`` yields each
    state's rates on the storage nodes from s to u - dc, bottom state first;
    each state is fed at the rates of the state below."""
    step = np.diff(mesh.fwd_bounds)
    out = np.empty((mesh.out_fb_idx.size, mesh.spec.n + 1))
    prior, feed = [], None
    for zi, r in enumerate(rates):
        log_q, prior = _column(step, r, feed, prior)
        out[:, zi] = log_q[mesh.out_fb_idx]
        feed = r
    return out


def _field(model, spec, h_step, h, step_budget):
    """The h-field for a marginal route: solved unless given, and a given one
    must belong to this model, bridge, h_step and step budget."""
    if h is None:
        return solve_h(model, spec, h_step, step_budget)
    if model is not None and h.model is not model:
        raise ValueError("h was solved for a different model")
    if h.spec != spec:
        raise ValueError("h was solved for a different bridge")
    budget = STEP_BUDGET if step_budget is None else float(step_budget)
    if _n_cells(spec, h_step) != h.mesh.n_cells or budget != h.mesh.step_budget:
        raise BadStep("marginals must use the h_step and step budget the field was solved with")
    return h


def _normalised(log_rows):
    """exp(log_rows) with each row divided by its sum, and the log row sums."""
    top = log_rows.max(axis=1, keepdims=True)
    rows = np.exp(log_rows - top)
    sums = rows.sum(axis=1, keepdims=True)
    return rows / sums, (top + np.log(sums))[:, 0]


def _pinned_table(spec, mesh, rows, drift):
    """Validated table of the normalised output rows (one per output time before u),
    with both ends set exactly to the pins."""
    probs = np.zeros((mesh.n_cells + 1, spec.n + 1))
    probs[:-1] = rows
    probs[0] = probs[-1] = 0.0
    probs[0, 0] = probs[-1, -1] = 1.0
    return MarginalTable(spec, mesh.out_times, probs, drift).validate()


def marginal_table(model, spec, h_step=1e-3, h=None, step_budget=None):
    """Bridge marginals by forward integration of the pinned dynamics.

    The forward rates come from the solved h-field at the mesh nodes, so no
    interpolation enters the stage values.  The system is linear, so the rows
    are renormalized at the output times only; the largest change in total
    mass between consecutive output rows is the drift reported on the table,
    and it must stay below 1e-6.
    """
    h = _field(model, spec, h_step, h, step_budget)
    mesh = h.mesh
    rows, log_mass = _normalised(_forward(mesh, h.node_bridge_rates[:mesh.n_fwd_nodes].T))
    drift = float(np.max(np.abs(np.expm1(np.diff(log_mass)))))
    return _pinned_table(spec, mesh, rows, drift)


def marginal_table_two_sided(model, spec, h_step=1e-3, h=None, step_budget=None):
    """Bridge marginals as (unconditioned forward mass) x h, renormalized.

    Independent of the pinned forward dynamics (no singular rates enter), so
    it cross-checks :func:`marginal_table`; the two routes agree to about the
    integrator tolerance.  Both factors stay in log space.
    """
    h = _field(model, spec, h_step, h, step_budget)
    mesh = h.mesh
    fwd_times = mesh.times[:mesh.n_fwd_nodes]
    log_p = _forward(mesh, (h.model.rate_grid(fwd_times, [z])[:, 0] for z in spec.ladder()))
    rows, _ = _normalised(log_p + h.logh[mesh.out_node_idx])
    return _pinned_table(spec, mesh, rows, 0.0)


def mean_curve(table):
    """(t, E[X_t]) rows from a marginal table; endpoints equal x and y exactly."""
    states = table.spec.ladder().astype(float)
    means = table.probs @ states
    return np.column_stack([table.times, means])


def second_differences(curve):
    """Central second differences over step^2 of a curve on a uniform grid."""
    curve = np.asarray(curve, dtype=float)
    if curve.ndim != 2 or curve.shape[0] < 3:
        raise GridTooCoarse("need at least three points for second differences")
    t = curve[:, 0]
    steps = np.diff(t)
    if np.max(np.abs(steps - steps[0])) > 1e-9 * max(abs(steps[0]), 1e-300):
        raise GridTooCoarse("second differences require a uniform grid")
    f = curve[:, 1]
    d2 = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / steps[0] ** 2
    return np.column_stack([t[1:-1], d2])
