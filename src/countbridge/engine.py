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
  a per-step integrating factor, leaving only the strictly triangular coupling
  to the classical RK4 stages;
* the mesh is graded toward the terminal time in the variable that actually
  measures pin pressure: the remaining integrated rate.  Each step moves at
  most STEP_BUDGET / (ladder height) in log of that variable, which for
  constant rates is exactly a geometric mesh in u - t.

h is stored in log space; states whose pin probability underflows even the
rescaled backward pass carry a -inf sentinel, and the marginal routes and the
sampler raise :class:`~countbridge.errors.Underflow` on a start state or a
jump that needs a value below exp(-700), rather than silently clamping.
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
LOG_FLOOR = -700.0
# Per-step coefficients (and the mesh's rate probe) are formed for CHUNK steps
# at a time, so only log h and the bridge rates are ever stored at
# (mesh nodes x ladder).
CHUNK = 512
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
    Storage nodes are those boundaries plus their midpoints, then a graded
    extension from u - dc down to u - dc/PIN_DEPTH, then u itself.

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
        # storage index of each output edge except u (edge k sits at 2 * fb-index)
        self.out_node_idx = 2 * self.out_fb_idx


def _up(w):
    """w shifted one state toward the pin: out[..., z] = w[..., z+1], 0 past the top."""
    out = np.empty_like(w)
    out[..., :-1] = w[..., 1:]
    out[..., -1] = 0.0
    return out


def _down(w):
    """w shifted one state away from the pin: out[..., z] = w[..., z-1], 0 below the bottom."""
    out = np.empty_like(w)
    out[..., 1:] = w[..., :-1]
    out[..., 0] = 0.0
    return out


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
        # first-order asymptote anchored at the latest mature node.
        n = spec.n
        d_min = spec.u - times[-2]
        self.anchor_idx = np.full(max(n, 0), -1, dtype=int)
        for zi in range(n):
            m = n - zi
            lim = spec.u - m * d_min
            j = min(int(np.searchsorted(times, lim, side="right")) - 1, times.size - 2)
            while j >= 0 and not (np.isfinite(log_h[j, zi]) and np.isfinite(log_h[j, zi + 1])):
                j -= 1
            self.anchor_idx[zi] = j

    def next_jumps(self, zi, start, mass):
        """Next jump times from ladder state x + zi, by inversion of the pinned survival.

        From state z at time t, the pinned chain stays put until r with probability
        exp(-(L(r) - L(t))), where L = (integrated rate) - log h(., z) is the integrated
        pinned rate.  L is tabulated on the mesh nodes up to the state's asymptote
        anchor and follows the anchor's base * (u - t_a) / (u - t) rate past it, so a
        jump lands where L reaches L(start) + mass.  ``start`` and ``mass`` (Exp(1)
        draws) are arrays over replicas.  The table stops at the state's first node
        with log h below LOG_FLOOR; a jump past that cut raises Underflow.
        """
        spec = self.spec
        z = spec.x + zi
        j = int(self.anchor_idx[zi])
        if j < 0:
            raise Underflow(f"pin probability underflowed for state {z}")
        col = self.logh[:j + 1, zi]
        low = np.flatnonzero(col < LOG_FLOOR)
        cut = int(low[0]) if low.size else j + 1
        if cut == 0:
            raise Underflow(f"pin probability of state {z} underflowed at t={self.times[0]}")
        t_tab = self.times[:cut]
        rates = self.model.rate_grid(t_tab, [z])[:, 0]
        lam = np.concatenate([[0.0], np.cumsum(0.5 * (rates[1:] + rates[:-1]) * np.diff(t_tab))])
        big_l = lam - col[:cut]
        # past the anchor L grows like slope * log(1 / (u - t)); slope is 0 when the
        # table is cut before the anchor, so a start past the table lands past it too
        ta = self.times[j]
        slope = self.node_bridge_rates[j, zi] * (spec.u - ta) if cut > j else 0.0
        start = np.asarray(start, dtype=float)
        level = np.interp(start, t_tab, big_l)
        past = start > t_tab[-1]
        level[past] = big_l[-1] + slope * np.log((spec.u - ta) / (spec.u - start[past]))
        target = level + mass
        past = target > big_l[-1]
        if slope <= 0.0 and np.any(past):
            raise Underflow(f"pin probability of state {z} underflowed after t={t_tab[-1]}")
        out = np.interp(target, big_l, t_tab)
        out[past] = spec.u - (spec.u - ta) * np.exp((big_l[-1] - target[past]) / slope)
        return out


def solve_h(model, spec, h_step=1e-3, step_budget=None):
    """Solve the backward pin-probability system on the ladder.

    Integrates d/dt h(t,z) = -rate(t,z) [h(t,z+1) - h(t,z)] backward from
    h(u, .) = indicator(y) with diagonally-exact RK4 steps, rescaling the
    vector each step and storing logs (states that underflow the rescaled
    pass get a -inf sentinel).  ``step_budget`` tightens the mesh grading
    below the module default for extra accuracy.
    """
    mesh = _Mesh(spec, h_step, model, step_budget)
    times = mesh.times
    ladder = spec.ladder()
    n_nodes = times.size
    width = ladder.size

    log_h = np.full((n_nodes, width), -np.inf)
    k_nodes = np.zeros((n_nodes, width))
    v = np.zeros(width)
    v[-1] = 1.0
    scale = 0.0
    log_h[-1, -1] = 0.0

    # steps run from times[j+1] down to times[j], in blocks [lo, hi) from the top
    for hi in range(n_nodes - 1, 0, -CHUNK):
        lo = max(hi - CHUNK, 0)
        rates = model.rate_grid(times[lo:hi + 1], ladder)
        rates_mid = model.rate_grid(0.5 * (times[lo:hi] + times[lo + 1:hi + 1]), ladder)

        # per-step gauge integrals (signed)
        h_signed = (times[lo:hi] - times[lo + 1:hi + 1])[:, None]
        r_hi, r_lo = rates[1:], rates[:-1]
        i_mid = h_signed * (5.0 * r_hi + 8.0 * rates_mid - r_lo) / 24.0
        i_end = h_signed * (r_hi + 4.0 * rates_mid + r_lo) / 6.0
        c_mid = rates_mid * np.exp(_up(i_mid) - i_mid)
        c_end = r_lo * np.exp(_up(i_end) - i_end)
        e_end = np.exp(i_end)

        for j in range(hi - lo - 1, -1, -1):
            h = h_signed[j, 0]
            c0, cm, ce, ee = r_hi[j], c_mid[j], c_end[j], e_end[j]
            k1 = -c0 * _up(v)
            k2 = -cm * _up(v + (0.5 * h) * k1)
            k3 = -cm * _up(v + (0.5 * h) * k2)
            k4 = -ce * _up(v + h * k3)
            v = (v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)) * ee
            np.maximum(v, 0.0, out=v)
            m = v.max()
            v /= m
            scale += math.log(m)
            with np.errstate(divide="ignore"):
                log_h[lo + j] = np.log(v) + scale

        # pinned jump rates rate(t,z) h(t,z+1) / h(t,z) on this block's nodes
        block = log_h[lo:hi + 1]
        with np.errstate(invalid="ignore"):
            diff = block[:, 1:] - block[:, :-1]
        k = rates[:, :-1] * np.exp(diff)
        k[~np.isfinite(k)] = 0.0
        k_nodes[lo:hi + 1, :-1] = k

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


def _forward_sweep(mesh, node_rates, pinned, record_slots):
    """Integrate the triangular forward system q' = shift(r q) - r q.

    ``node_rates(lo, hi)`` returns the per-state rates on seg-A storage nodes
    lo..hi-1; they are asked for one block of CHUNK steps at a time.  Pinned
    rates (zero in the top state) keep the mass on the ladder, so recorded
    rows are renormalized and the drift is reported; unconditioned rates let
    the top state leak mass off the ladder.  Returns the recorded rows,
    unnormalized.
    """
    fb = mesh.fwd_bounds
    n_steps = fb.size - 1

    rows = {}
    q = np.zeros(mesh.spec.n + 1)
    q[0] = 1.0
    rows[0] = q.copy()
    drift = 0.0
    record = dict.fromkeys(record_slots.tolist())
    for lo in range(0, n_steps, CHUNK):
        hi = min(lo + CHUNK, n_steps)
        r = node_rates(2 * lo, 2 * hi + 1)
        r0, rm, r1 = r[0:-1:2], r[1::2], r[2::2]
        h = (fb[lo + 1:hi + 1] - fb[lo:hi])[:, None]
        i_mid = h * (5.0 * r0 + 8.0 * rm - r1) / 24.0
        i_end = h * (r0 + 4.0 * rm + r1) / 6.0
        d0 = _down(r0)
        dm = _down(rm) * np.exp(i_mid - _down(i_mid))
        de = _down(r1) * np.exp(i_end - _down(i_end))
        e_end = np.exp(-i_end)

        for j in range(hi - lo):
            hj = h[j, 0]
            k1 = d0[j] * _down(q)
            k2 = dm[j] * _down(q + (0.5 * hj) * k1)
            k3 = dm[j] * _down(q + (0.5 * hj) * k2)
            k4 = de[j] * _down(q + hj * k3)
            q = (q + (hj / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)) * e_end[j]
            if lo + j + 1 in record:
                rows[lo + j + 1] = q.copy()
                if pinned:
                    drift = max(drift, abs(1.0 - q.sum()))
                    q = q / q.sum()
    return rows, drift


def _field_and_mesh(model, spec, h_step, h, step_budget):
    """The h-field for a marginal route (solved unless given) and its mesh.

    A given field must belong to this model, bridge, h_step and step budget,
    and no route can start from a state whose pin probability underflowed.
    """
    if h is None:
        h = solve_h(model, spec, h_step, step_budget)
    elif model is not None and h.model is not model:
        raise ValueError("h was solved for a different model")
    elif h.spec != spec:
        raise ValueError("h was solved for a different bridge")
    mesh = h.mesh
    budget = STEP_BUDGET if step_budget is None else float(step_budget)
    if _n_cells(spec, h_step) != mesh.n_cells or budget != mesh.step_budget:
        raise BadStep("marginals must use the h_step and step budget the field was solved with")
    if not np.isfinite(h.logh[0, 0]) or (spec.n and h.anchor_idx[0] < 0):
        raise Underflow(f"pin probability of the start state {spec.x} underflowed")
    return h, mesh


def _pinned_table(spec, mesh, rows, drift):
    """Validated table of the output rows (one per output time before u), normalised,
    with both ends set exactly to the pins."""
    probs = np.zeros((mesh.n_cells + 1, spec.n + 1))
    for slot, q in enumerate(rows):
        probs[slot] = q / q.sum()
    probs[0] = probs[-1] = 0.0
    probs[0, 0] = probs[-1, -1] = 1.0
    return MarginalTable(spec, mesh.out_times, probs, drift).validate()


def marginal_table(model, spec, h_step=1e-3, h=None, step_budget=None):
    """Bridge marginals by forward integration of the pinned dynamics.

    The forward rates come from the solved h-field at the mesh nodes, so no
    interpolation enters the stage values.  Rows are renormalized; the largest
    pre-normalization drift is reported on the table and must stay below 1e-6.
    """
    h, mesh = _field_and_mesh(model, spec, h_step, h, step_budget)
    k_nodes = h.node_bridge_rates
    rows, drift = _forward_sweep(mesh, lambda lo, hi: k_nodes[lo:hi], True, mesh.out_fb_idx)
    return _pinned_table(spec, mesh, [rows[int(i)] for i in mesh.out_fb_idx], drift)


def marginal_table_two_sided(model, spec, h_step=1e-3, h=None, step_budget=None):
    """Bridge marginals as (unconditioned forward mass) x h, renormalized.

    Independent of the pinned forward dynamics (no singular rates enter), so
    it cross-checks :func:`marginal_table`; the two routes agree to about the
    integrator tolerance.
    """
    h, mesh = _field_and_mesh(model, spec, h_step, h, step_budget)
    ladder = spec.ladder()
    rows, _ = _forward_sweep(mesh, lambda lo, hi: h.model.rate_grid(mesh.times[lo:hi], ladder),
                             False, mesh.out_fb_idx)
    qs = []
    for fb_idx, node in zip(mesh.out_fb_idx, mesh.out_node_idx):
        with np.errstate(divide="ignore", invalid="ignore"):
            logq = np.log(rows[int(fb_idx)]) + h.logh[node]
        logq[~np.isfinite(logq)] = -np.inf
        qs.append(np.exp(logq - logq.max()))
    return _pinned_table(spec, mesh, qs, 0.0)


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
