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
rescaled backward pass carry a -inf sentinel, and public queries touching a
value below exp(-700) raise :class:`~countbridge.errors.Underflow` rather
than silently clamping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadStep, BadWindow, ConservationLoss, GridTooCoarse, Underflow

# Per-step cap on (ladder depth) x (change in log remaining integrated rate);
# the pinned jump rate at depth m is ~ m * rate / remaining, so this bounds
# rate x step uniformly along the whole window.
STEP_BUDGET = 0.1
# The stored mesh extends to (coarse step) / PIN_DEPTH from the terminal time;
# closer queries use the exact 1/(u - t) pin asymptote.
PIN_DEPTH = 100.0
MAX_COARSE_STEP = 1e-2 + 1e-12
LOG_FLOOR = -700.0


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
    """

    def __init__(self, spec, h_step, model, step_budget=None):
        self.step_budget = STEP_BUDGET if step_budget is None else float(step_budget)
        if h_step <= 0:
            raise BadStep("h_step must be positive")
        if h_step >= spec.length:
            raise BadStep(f"h_step {h_step} does not fit the window of length {spec.length}")
        if h_step > MAX_COARSE_STEP:
            raise BadStep("h_step must not exceed 1e-2")
        self.spec = spec
        n_c = max(2, int(round(spec.length / h_step)))
        self.dc = spec.length / n_c
        self.n_cells = n_c
        edges = np.linspace(spec.s, spec.u, n_c + 1)
        self.out_times = edges

        # probe the ladder-minimal rate and its backward cumulative integral
        probe_t = np.linspace(spec.s, spec.u, 4 * n_c + 1)
        lmin = np.min(model.rate_grid(probe_t, spec.ladder()), axis=1)
        seg = 0.5 * (lmin[:-1] + lmin[1:]) * np.diff(probe_t)
        lam_hat = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
        # t -> log lam_hat, excluding the vanishing endpoint value
        t_tab = probe_t[:-1]
        v_tab = np.log(lam_hat[:-1])

        def v_of_t(t):
            return float(np.interp(t, t_tab, v_tab))

        def t_of_v(v):
            return float(np.interp(-v, -v_tab, t_tab))

        u = spec.u
        depth_scale = max(1, spec.n) / self.step_budget
        fwd = [spec.s]
        out_fb_idx = [0]
        for j in range(n_c - 1):
            t1, t2 = edges[j], edges[j + 1]
            v1, v2 = v_of_t(t1), v_of_t(t2)
            n_sub = max(1, int(math.ceil((v1 - v2) * depth_scale)))
            for i in range(1, n_sub):
                fwd.append(min(t2, max(t1, t_of_v(v1 + (v2 - v1) * i / n_sub))))
            fwd.append(t2)
            out_fb_idx.append(len(fwd) - 1)
        fb = np.asarray(fwd)
        if np.any(np.diff(fb) <= 0):
            fb = np.unique(fb)
            out_fb_idx = np.searchsorted(fb, edges[:-1])
        self.fwd_bounds = fb
        self.out_fb_idx = np.asarray(out_fb_idx)

        seg_a = np.empty(2 * fb.size - 1)
        seg_a[0::2] = fb
        seg_a[1::2] = 0.5 * (fb[:-1] + fb[1:])
        d1, d0 = self.dc, self.dc / PIN_DEPTH
        n_sub = int(math.ceil(math.log(PIN_DEPTH) * depth_scale))
        ext = [u - d1 * (d0 / d1) ** (i / n_sub) for i in range(1, n_sub + 1)]
        self.times = np.concatenate([seg_a, ext, [u]])
        self.seg_a_len = seg_a.size
        # storage index of each output edge except u (edge k sits at 2 * fb-index)
        self.out_node_idx = 2 * self.out_fb_idx


def _up(w):
    """w shifted one state toward the pin: out[z] = w[z+1], 0 past the top."""
    out = np.empty_like(w)
    out[:-1] = w[1:]
    out[-1] = 0.0
    return out


def _down(w):
    """w shifted one state away from the pin: out[z] = w[z-1], 0 below the bottom."""
    out = np.empty_like(w)
    out[1:] = w[:-1]
    out[0] = 0.0
    return out


class HField:
    """log h(t, z) on the solver mesh for one (model, bridge) pair.

    Immutable once built; safe to share across threads.  Off-mesh times are
    interpolated linearly in log space; times inside a state's terminal
    boundary layer use the exact first-order pin asymptote k ~ (y - z)/(u - t)
    anchored at the latest mature node for that state.
    """

    def __init__(self, model, spec, times, log_h, node_rates):
        self.model = model
        self.spec = spec
        self.times = times
        self.logh = log_h
        self._node_rates = node_rates
        with np.errstate(invalid="ignore"):
            diff = log_h[:, 1:] - log_h[:, :-1]
        k = node_rates[:, :-1] * np.exp(diff)
        k[~np.isfinite(k)] = 0.0
        self.node_bridge_rates = np.concatenate([k, np.zeros((k.shape[0], 1))], axis=1)
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

    def log_h(self, t, z):
        """Interpolated log pin probability; raises Underflow below exp(-700)."""
        val = self._log_h_raw(float(t), int(z))
        if not np.isfinite(val) or val < LOG_FLOOR:
            raise Underflow(f"log h({t}, {z}) = {val}; state effectively unreachable from the pin")
        return val

    def _log_h_raw(self, t, z):
        spec = self.spec
        if not spec.s <= t <= spec.u:
            raise BadWindow(f"t={t} outside [{spec.s}, {spec.u}]")
        if not spec.x <= z <= spec.y:
            raise BadWindow(f"state {z} off the ladder [{spec.x}, {spec.y}]")
        zi = z - spec.x
        times = self.times
        if zi < spec.n:
            j = int(self.anchor_idx[zi])
            if j < 0:
                return -math.inf
            if t > times[j]:
                if t >= spec.u:
                    return -math.inf
                m = spec.n - zi
                return float(self.logh[j, zi]) + m * math.log(
                    (spec.u - t) / (spec.u - times[j]))
        i = int(np.searchsorted(times, t, side="right")) - 1
        if i >= times.size - 1:
            return float(self.logh[-1, zi])
        g0, g1 = float(self.logh[i, zi]), float(self.logh[i + 1, zi])
        if not (math.isfinite(g0) and math.isfinite(g1)):
            return -math.inf
        w = (t - times[i]) / (times[i + 1] - times[i])
        return g0 + w * (g1 - g0)

    def bridge_rate(self, t, z):
        """Pinned jump rate rate(t,z) * h(t,z+1) / h(t,z); zero at the top state."""
        spec = self.spec
        t = float(t)
        if not spec.s <= t < spec.u:
            raise BadWindow(f"t={t} outside [{spec.s}, {spec.u})")
        z = int(z)
        if not spec.x <= z <= spec.y:
            raise BadWindow(f"state {z} off the ladder [{spec.x}, {spec.y}]")
        if z == spec.y:
            return 0.0
        zi = z - spec.x
        j = int(self.anchor_idx[zi])
        if j < 0:
            raise Underflow(f"pin probability underflowed for state {z}")
        ta = float(self.times[j])
        if t >= ta:
            base = self.node_bridge_rates[j, zi]
            if base <= 0.0:
                raise Underflow(f"pin probability underflowed for state {z} near the terminal time")
            return float(base * (spec.u - ta) / (spec.u - t))
        g0 = self._log_h_raw(t, z)
        g1 = self._log_h_raw(t, z + 1)
        if not np.isfinite(g0) or g0 < LOG_FLOOR or not np.isfinite(g1) or g1 < LOG_FLOOR:
            raise Underflow(f"log h near ({t}, {z}) fell below {LOG_FLOOR}")
        return float(self.model.rate(t, z)) * math.exp(g1 - g0)


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

    rates = model.rate_grid(times, ladder)
    mid_times = 0.5 * (times[:-1] + times[1:])
    rates_mid = model.rate_grid(mid_times, ladder)

    # per-step gauge integrals (signed; steps run from times[j+1] down to times[j])
    h_signed = (times[:-1] - times[1:])[:, None]
    r_hi, r_lo = rates[1:], rates[:-1]
    i_mid = h_signed * (5.0 * r_hi + 8.0 * rates_mid - r_lo) / 24.0
    i_end = h_signed * (r_hi + 4.0 * rates_mid + r_lo) / 6.0

    def up_cols(a):
        out = np.empty_like(a)
        out[:, :-1] = a[:, 1:]
        out[:, -1] = 0.0
        return out

    c_mid = rates_mid * np.exp(up_cols(i_mid) - i_mid)
    c_end = r_lo * np.exp(up_cols(i_end) - i_end)
    e_end = np.exp(i_end)

    log_h = np.full((n_nodes, width), -np.inf)
    v = np.zeros(width)
    v[-1] = 1.0
    scale = 0.0
    log_h[-1, -1] = 0.0

    for j in range(n_nodes - 2, -1, -1):
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
            log_h[j] = np.log(v) + scale

    return HField(model, spec, times, log_h, rates)


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

    def row(self, idx):
        return self.probs[idx]

    def index_of(self, t, tol=1e-9):
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > tol:
            raise ValueError(f"t={t} is not an output grid node")
        return idx


def _forward_sweep(mesh, node_rates, zero_top, record_slots):
    """Integrate the triangular forward system q' = shift(r q) - r q.

    ``node_rates`` holds the per-state rates on the seg-A storage nodes.  With
    ``zero_top`` the top state emits nothing (pinned dynamics); without it the
    top state leaks mass off the ladder (unconditioned dynamics).  Returns the
    recorded rows, unnormalized.
    """
    fb = mesh.fwd_bounds
    n_steps = fb.size - 1
    width = node_rates.shape[1]
    r = node_rates.copy()
    if zero_top:
        r[:, -1] = 0.0

    r0 = r[0 : 2 * n_steps : 2]
    rm = r[1 : 2 * n_steps : 2]
    r1 = r[2 : 2 * n_steps + 1 : 2]
    h = (fb[1:] - fb[:-1])[:, None]
    i_mid = h * (5.0 * r0 + 8.0 * rm - r1) / 24.0
    i_end = h * (r0 + 4.0 * rm + r1) / 6.0

    def down_cols(a):
        out = np.empty_like(a)
        out[:, 1:] = a[:, :-1]
        out[:, 0] = 0.0
        return out

    d0 = down_cols(r0)
    dm = down_cols(rm) * np.exp(i_mid - down_cols(i_mid))
    de = down_cols(r1) * np.exp(i_end - down_cols(i_end))
    e_end = np.exp(-i_end)

    rows = {}
    q = np.zeros(width)
    q[0] = 1.0
    rows[0] = q.copy()
    drift = 0.0
    record = dict.fromkeys(record_slots.tolist())
    for j in range(n_steps):
        hj = h[j, 0]
        k1 = d0[j] * _down(q)
        k2 = dm[j] * _down(q + (0.5 * hj) * k1)
        k3 = dm[j] * _down(q + (0.5 * hj) * k2)
        k4 = de[j] * _down(q + hj * k3)
        q = (q + (hj / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)) * e_end[j]
        if j + 1 in record:
            rows[j + 1] = q.copy()
            if zero_top:
                drift = max(drift, abs(1.0 - q.sum()))
                q = q / q.sum()
    return rows, drift


def _field_and_mesh(model, spec, h_step, h, step_budget):
    """The h-field for a marginal route (solved unless given) and its mesh.

    A given field must belong to this model, bridge and h_step, and no route
    can start from a state whose pin probability underflowed.
    """
    if h is None:
        h = solve_h(model, spec, h_step, step_budget)
    elif model is not None and h.model is not model:
        raise ValueError("h was solved for a different model")
    elif h.spec != spec:
        raise ValueError("h was solved for a different bridge")
    mesh = _Mesh(spec, h_step, h.model, step_budget)
    if mesh.times.size != h.times.size or abs(mesh.times[1] - h.times[1]) > 1e-15:
        raise BadStep("marginals must use the same h_step the field was solved with")
    if not np.isfinite(h.logh[0, 0]) or (spec.n and h.anchor_idx[0] < 0):
        raise Underflow(f"pin probability of the start state {spec.x} underflowed")
    return h, mesh


def marginal_table(model, spec, h_step=1e-3, h=None, step_budget=None):
    """Bridge marginals by forward integration of the pinned dynamics.

    The forward rates come from the solved h-field at the mesh nodes, so no
    interpolation enters the stage values.  Rows are renormalized; the largest
    pre-normalization drift is reported on the table and must stay below 1e-6.
    """
    h, mesh = _field_and_mesh(model, spec, h_step, h, step_budget)
    seg = mesh.seg_a_len
    k_nodes = h.node_bridge_rates[:seg]
    rows, drift = _forward_sweep(mesh, k_nodes, True, mesh.out_fb_idx)

    width = spec.n + 1
    probs = np.zeros((mesh.n_cells + 1, width))
    for slot, fb_idx in enumerate(mesh.out_fb_idx):
        q = rows[int(fb_idx)]
        probs[slot] = q / q.sum()
    probs[0] = 0.0
    probs[0, 0] = 1.0
    probs[-1] = 0.0
    probs[-1, -1] = 1.0
    table = MarginalTable(spec, mesh.out_times, probs, drift)
    return table.validate()


def marginal_table_two_sided(model, spec, h_step=1e-3, h=None, step_budget=None):
    """Bridge marginals as (unconditioned forward mass) x h, renormalized.

    Independent of the pinned forward dynamics (no singular rates enter), so
    it cross-checks :func:`marginal_table`; the two routes agree to about the
    integrator tolerance.
    """
    h, mesh = _field_and_mesh(model, spec, h_step, h, step_budget)
    seg = mesh.seg_a_len
    ladder_rates = h.model.rate_grid(mesh.times[:seg], spec.ladder())
    rows, _ = _forward_sweep(mesh, ladder_rates, False, mesh.out_fb_idx)

    width = spec.n + 1
    probs = np.zeros((mesh.n_cells + 1, width))
    for slot, fb_idx in enumerate(mesh.out_fb_idx):
        p = rows[int(fb_idx)]
        node = int(mesh.out_node_idx[slot])
        with np.errstate(divide="ignore", invalid="ignore"):
            logq = np.log(p) + h.logh[node]
        logq[~np.isfinite(logq)] = -np.inf
        m = logq.max()
        q = np.exp(logq - m)
        probs[slot] = q / q.sum()
    probs[0] = 0.0
    probs[0, 0] = 1.0
    probs[-1] = 0.0
    probs[-1, -1] = 1.0
    table = MarginalTable(spec, mesh.out_times, probs, 0.0)
    return table.validate()


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
