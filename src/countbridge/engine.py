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
  most STEP_BUDGET / d in log of that variable, d the depth below the pin of
  the deepest state live on its cell (see Windows and :class:`_Mesh`), which
  for constant rates is exactly a geometric mesh in u - t.

Every system here is bidiagonal: a state is fed by one neighbour only (the
state above backward, the state below forward).  So every sweep takes the
states in the outer loop, and each state's whole column over the mesh is one
first-order linear recurrence in the steps, driven by the RK4 stage values of
the state before.  All of its terms are non-negative, so :func:`_column` solves
it at once in log space, by runs of linear sums (:func:`_log_cumsum`; BENCH_48.json).

Windows.  By the paper's marginal estimate every tail of the bridge lies
between the binomial tails of the tilted profiles at the infimum and the
supremum of the characteristic.  With Chernoff's bound these give each state
a window of mesh nodes outside which the bridge holds it with probability at
most WINDOW_TAIL, and every sweep runs a state's column, and reads its
rates, only over its window.  A path that touches a skipped cell is at or
past that state at the cut, so the sweeps compute the bridge conditioned on
an event of probability at least 1 - 2 (n + 1) WINDOW_TAIL, the same law in
both marginal routes.
The cut times are known before any node is placed, so they also grade the
mesh: a state is dead late once it is past its last live time, and near u
only shallow states are live.
Inside its window log h is the pin probability of the chain stopped at the
cuts, representable far below exp(-700); its only -inf cells are the exact
zeros of the discrete scheme next to u.  Outside the window h is 0 and not
stored: log h is one band of the windows, laid end to end (:class:`_Band`).
Where the bridge holds a state with probability 1e-10 or more it is the
unstopped log h to the integrator's accuracy; next to the cuts, where the
bridge almost never holds the state, it can be several nats below it.
Every model's bounds are proved, and the cuts hold at any finite bound; an
infinite bound puts them at the window ends, so every state is live throughout.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .analytic import tilted_quantile
from .errors import (BadParameter, BadStep, ConservationLoss, OutOfDomain, ResourceCap, Underflow,
                     count_text)
from .intensity import _integral, _window

# Per-step cap on (ladder depth) x (change in log remaining integrated rate);
# the pinned jump rate at depth m is ~ m * rate / remaining, so this bounds
# rate x step uniformly along the whole window.
STEP_BUDGET = 0.1
# The default step of the uniform output grid (h_step; the CLI's --step).
OUTPUT_STEP = 1e-3
# Outside its window a state holds at most this much of the bridge's mass.
WINDOW_TAIL = 1e-20
# The stored mesh extends to min(coarse step, (u - s) / n) / PIN_DEPTH from u, or closer
# (see _Mesh); closer queries use the exact (y - z) / (u - t) pin asymptote.
PIN_DEPTH = 100.0
MAX_COARSE_STEP = 1e-2 + 1e-12
# A solve (see _Mesh), a sample or a grid whose arrays would exceed this many bytes
# is refused before they are allocated.
MEMORY_CAP = 2 * 2 ** 30
# A marginal table is refused when its mass drifts by more than DRIFT_TOL between
# output rows, or a tail P(X_t >= z) falls in t by more than MONOTONE_TOL.
DRIFT_TOL = 1e-6
MONOTONE_TOL = 1e-7
# MarginalTable.validate and the CLI's text read a table this many cells at a time: one
# bound on the block any pass over a table holds beside it, so a retune moves both
BLOCK_CELLS = 8192


@dataclass(frozen=True)
class BridgeSpec:
    """Endpoints x <= y within +-2^53, where floats hold every state, and window (s, u)."""

    x: int
    y: int
    s: float = 0.0
    u: float = 1.0

    def __post_init__(self):
        x, y = _integral("x", self.x), _integral("y", self.y)
        if not -2 ** 53 <= x <= y <= 2 ** 53:
            raise BadParameter(f"need -2^53 <= x <= y <= 2^53, got x = {count_text(x)},"
                               f" y = {count_text(y)}")
        for name, value in zip("xysu", (x, y, *_window(self.s, self.u))):
            object.__setattr__(self, name, value)

    @property
    def n(self):
        """Number of jumps every bridge path makes."""
        return self.y - self.x

    @property
    def length(self):
        return self.u - self.s

    def ladder(self):
        return np.arange(self.x, self.y + 1)

    def characteristic_states(self):
        """The states the bridge reads the characteristic at: x to y - 1, which its
        jumps leave from, or x alone if it makes no jump."""
        return range(self.x, max(self.x, self.y - 1) + 1)


def check_memory(need, what):
    """Raise :class:`~countbridge.errors.ResourceCap` when ``what`` needs more
    than MEMORY_CAP bytes (``need``); called before anything that large exists.
    The estimate prints in GiB to one decimal, from 1,000 GiB on to three digits."""
    if need > MEMORY_CAP:
        if math.inf > need > 2 ** 1000:  # an integer past the float range
            from decimal import Decimal
            need = Decimal(need)
        gib = need / 2 ** 30
        size = f"{gib:.1f}" if gib < 1000 else f"{gib:.3g}"
        raise ResourceCap(f"{what} needs about {size} GiB;"
                          f" the cap is {MEMORY_CAP / 2 ** 30:.0f} GiB")


def output_cells(spec, h_step):
    """The number of cells of a bridge's uniform output grid at ``h_step``: the one
    rule every route checks its step by, whether or not it reads the grid, and which
    allocates nothing.  A step that does not fit the window raises BadStep, and one
    whose grid would exceed the memory cap ResourceCap."""
    if not h_step > 0:
        raise BadStep(f"h_step must be positive, got {count_text(h_step)}")
    if h_step >= spec.length:
        raise BadStep(f"h_step {count_text(h_step)} does not fit the window of length {spec.length}")
    if h_step > MAX_COARSE_STEP:
        raise BadStep("h_step must not exceed 1e-2")
    # four floats a cell, as many as the mesh's probe times; each route counts what it
    # holds on the grid itself
    check_memory(32 * spec.length / h_step, f"an output grid of {spec.length / h_step:.3g} cells")
    return max(2, int(round(spec.length / h_step)))


def output_times(spec, h_step):
    """The uniform output grid of a bridge at ``h_step``, s and u included, of
    :func:`output_cells` cells: every table and mean curve is read on it."""
    return np.linspace(spec.s, spec.u, output_cells(spec, h_step) + 1)


def _with_midpoints(nodes):
    """``nodes`` with the midpoint of each step between them interleaved."""
    out = np.repeat(nodes, 2)[:-1]
    out[1::2] = 0.5 * (nodes[:-1] + nodes[1:])
    return out


class _Mesh:
    """Node layout shared by the backward and forward passes.

    ``fwd_bounds`` are the forward substep boundaries from s to u - dc: cell j of
    the uniform output grid holds n_sub[j] of them (more where the pin is near), k =
    0..n_sub[j] - 1 at fb-index ``out_fb_idx[j]`` + k, the edge itself at k = 0.
    Storage nodes are those boundaries plus their midpoints (the first
    ``n_fwd_nodes``), then a graded extension from u - dc down to u - d0, then u
    itself.  d0 is min(dc, (u - s)/n) / PIN_DEPTH (dc/PIN_DEPTH bit for bit when
    (u - s)/n >= dc), or less: no budget grades [u - d0, u], so r_top d0 <= STEP_BUDGET
    / 10, r_top the largest ladder rate at u; OutOfDomain if 8 ulps of u miss that.

    Subdivision measures closeness to the pin by the remaining integrated
    rate lam_hat(t) = integral over [t, u] of the ladder-minimal rate; each
    step of cell j moves at most STEP_BUDGET / d_j in log lam_hat.  The
    pinned jump rate at depth m below the endpoint scales like
    m * rate / lam_hat, so this keeps the per-step rate-times-step product
    below STEP_BUDGET for every state at most d_j deep, even when rates decay
    sharply toward u.  d_j is n + 2 less the number of states dead late (see
    the module notes) at the cell's start, clipped to [1, n]: the depth of
    the deepest state live on the cell, plus one for ``solve_h``'s windows,
    which reach one state past the live ones, plus one to spare.  So every
    computed cell keeps the bound, and no cell is graded deeper than n.  The
    pin extension takes d_j at u - dc.  Cuts at the window ends (see
    :func:`_cut_times`) give d_j = n.

    Each step is refused where its size is first known, before it allocates,
    when what it would hold exceeds MEMORY_CAP: the rate probe, the nodes, and,
    once the windows are placed, the band of log h over them with what the
    sweeps and the table hold beside it.  The refusal is a
    :class:`~countbridge.errors.ResourceCap` with the estimate.  Node times
    strictly increase: a window too short for its nodes to stay distinct in
    floats is a :class:`~countbridge.errors.BadStep`, before any sweep.
    """

    def __init__(self, spec, h_step, model, budget=STEP_BUDGET):
        edges = self.out_times = output_times(spec, h_step)
        n_c = edges.size - 1
        self.spec = spec
        self.dc = spec.length / n_c
        # some 16 ladder-long arrays at once; the cut times let the model refuse states first
        check_memory(128 * (spec.n + 1), f"a mesh over {count_text(spec.n + 1)} states")
        cuts = _cut_times(model, spec)
        # the probe's 4 times a cell and the reader's arrays on them: a tabulated model's
        # piece index and three offset powers, its column and their running minimum, the
        # integral's segments and sums, about 81 bytes a time, measured at 324-327 a cell
        check_memory(330 * n_c, f"a rate probe over {n_c:.3g} cells")

        # probe the ladder-minimal rate (one state's column at a time) and its
        # backward cumulative integral, and the largest ladder rate at u, r_top
        probe_t = np.linspace(spec.s, spec.u, 4 * n_c + 1)
        whole = np.zeros(spec.n + 1, int), np.full(spec.n + 1, probe_t.size)
        lmin, r_top = np.inf, 0.0
        for rates in model.rate_columns(probe_t, spec.ladder(), *whole):
            lmin, r_top = np.minimum(lmin, rates), max(r_top, rates[-1])
        seg = 0.5 * (lmin[:-1] + lmin[1:]) * np.diff(probe_t)
        lam_hat = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
        # t -> log lam_hat, excluding the vanishing endpoint value; a lam_hat
        # that underflows to 0 before u leaves no log to grade the mesh by
        t_tab = probe_t[:-1]
        gone = ~(lam_hat[:-1] > 0)
        if gone.any():
            raise Underflow(f"the remaining ladder-minimal integrated rate underflows to 0 at"
                            f" t = {t_tab[np.argmax(gone)]:.6g}, before u = {spec.u:g}")
        v_tab = np.log(lam_hat[:-1])

        # cell j = [edges[j], edges[j+1]] gets n_sub[j] substeps, equal in v, graded
        # for depth[j]; the pin extension for the depth at u - dc
        n = max(1, spec.n)
        depth = np.clip(n + 2 - np.searchsorted(cuts[1], edges[:n_c]), 1, n)
        v = np.interp(edges[:n_c], t_tab, v_tab)
        v1, v2 = v[:-1], v[1:]
        n_sub = np.maximum(1, np.ceil((v1 - v2) * depth[:-1] / budget).astype(int))
        # two nodes a substep, each at the sweeps' 336 bytes; laying them out takes about 150
        check_memory(336 * 2 * int(n_sub.sum()), f"a mesh of {2 * int(n_sub.sum()):.3g} nodes")
        # node k of cell j sits at fb-index out_fb_idx[j] + k, the edge itself at k = 0
        self.out_fb_idx = np.concatenate([[0], np.cumsum(n_sub)])
        cell = np.repeat(np.arange(n_c - 1), n_sub)
        k = np.arange(cell.size) - self.out_fb_idx[cell]
        vv = v1[cell] + (v2[cell] - v1[cell]) * k / n_sub[cell]
        graded = np.minimum(edges[cell + 1], np.maximum(edges[cell], np.interp(-vv, -v_tab, t_tab)))
        fb = self.fwd_bounds = np.append(np.where(k == 0, edges[cell], graded), edges[n_c - 1])

        seg_a = _with_midpoints(fb)
        # d0 = d1 / ratio; ratio is exactly PIN_DEPTH when (u - s) / n >= dc and
        # r_top d0 <= eps there: those meshes keep their nodes
        u, d1, eps, floor = spec.u, self.dc, STEP_BUDGET / 10, 8 * math.ulp(spec.u)
        if r_top * floor > eps:
            raise OutOfDomain(f"the largest rate at u, {r_top:.3g}, times the pin layer's least"
                              f" step, {floor:.3g}, is {r_top * floor:.3g}, over {eps:g}")
        ratio = min(max(PIN_DEPTH * (d1 / min(d1, spec.length / n)), d1 * r_top / eps), d1 / floor)
        n_ext = int(math.ceil(math.log(ratio) * depth[-1] / budget))
        d0 = d1 / ratio
        # within a few ulps of u, nodes of the geometric grading can round together
        ext = np.array([u - d1 * (d0 / d1) ** (i / n_ext) for i in range(1, n_ext + 1)])
        self.times = np.concatenate([seg_a, ext[np.diff(ext, prepend=-np.inf) > 0], [u]])
        # on a window a few hundred ulps long, graded nodes and midpoints round together
        flat = ~(np.diff(self.times) > 0)
        if flat.any():
            raise BadStep(f"mesh step rounds to 0 at t = {self.times[np.argmax(flat)]:.15g};"
                          f" window too short for h_step {h_step:.3g}")
        self.n_fwd_nodes = seg_a.size
        self._place_windows(cuts)
        # beside the band of log h, 8 bytes a cell, what the sweeps hold a node: its times
        # and rates at the midpoints, its step factors, a tabulated reader's piece index and
        # powers, and the columns of a state and of the one before, measured at 71-328 bytes
        # net of the band and the table; and the table with its finite check, 9 bytes a cell
        band = int((self.h_hi - self.h_lo + 1).sum())
        check_memory(8 * band + 336 * self.times.size + 9 * (n_c + 1) * (spec.n + 1),
                     f"a bridge of {count_text(spec.n)} jumps, with log h on the windows of its"
                     f" states over {self.times.size} mesh nodes,")

    def _place_windows(self, cuts):
        """Each state's windows, from the cut times ``cuts``: fb-indices ``fwd_lo``
        to ``fwd_hi`` for the forward sweeps, one node past its live nodes each
        way, and nodes ``h_lo`` to ``h_hi`` for ``solve_h``, seeded at ``h_hi``.
        An h window covers the forward windows of its state and of the one
        below, and runs to u once its seed would reach its pin layer
        (``pin_limit``); cuts at the window ends give the whole mesh."""
        n, last_fb, last = self.spec.n, self.fwd_bounds.size - 1, self.times.size - 1
        d_min = self.spec.u - self.times[-2]
        self.pin_limit = np.minimum(np.searchsorted(
            self.times, self.spec.u - (n - np.arange(n)) * d_min, side="right"), last)
        # each state's first and last live node
        first = np.searchsorted(self.times, cuts[0], side="left")
        final = np.searchsorted(self.times, cuts[1], side="right") - 1
        self.fwd_lo = np.minimum(np.maximum(first - 1, 0) // 2, last_fb)
        self.fwd_hi = np.minimum(final // 2 + 1, last_fb)
        # the storage nodes a forward sweep reads each state's rates on (from and
        # to, exclusive): its window's steps and one step past
        self.fwd_rows = 2 * self.fwd_lo, 2 * np.minimum(self.fwd_hi + 1, last_fb) + 1
        self.h_lo = np.concatenate([[0], 2 * self.fwd_lo[:-1]])
        rise = np.arange(n + 1)
        seed = np.maximum(self.fwd_rows[1] - 1, final) + 1
        seed = np.maximum.accumulate(seed - rise) + rise
        reach = np.maximum.accumulate(seed >= np.append(self.pin_limit, 0))
        self.h_hi = np.where(reach, last, seed)


def _tail_thresholds(n):
    """thr[i], i = 0..n: a p below i / n with n KL(i/n || p) >= log(1 / WINDOW_TAIL)
    (thr[0] = 0), by Newton on that convex, decreasing function of log p from
    left of its root, so every iterate is safe.  The exact binomial threshold
    would need an inverse incomplete beta function (scipy's betaincinv), which
    the package, on numpy alone, does not have."""
    k = math.log(1.0 / WINDOW_TAIL) / n
    q = np.arange(1, n) / n
    qc = 1.0 - q
    base = q * np.log(q) + qc * np.log(qc) - k
    v = np.log(q) - (k - qc * np.log(qc)) / q
    for _ in range(6):
        w = np.exp(v)
        v -= (base - q * v - qc * np.log1p(-w)) / (qc * w / (1.0 - w) - q)
    return np.concatenate([[0.0], np.exp(v), [math.exp(-k)]])


def _cut_times(model, spec):
    """Each ladder state's window cut times (early, late), the first and the last
    time it is live (see the module notes).  State x + i is dead early while the
    profile p_hi at the characteristic's infimum is below thr[i], and dead late
    once 1 - p_lo, at its supremum, is below thr[n - i]; both rise with i.  No
    jump, or an infinite bound, gives the window ends."""
    n = spec.n
    if n == 0:
        return np.array([spec.s]), np.array([spec.u])
    bounds = model.characteristic_bounds(spec)
    thr = _tail_thresholds(n)
    length = spec.length
    try:
        early = spec.s + length * tilted_quantile(bounds.inf * length, thr)
        # 1 - p_lo is the profile of the reflected tilt in u - t
        late = spec.u - length * tilted_quantile(-bounds.sup * length, thr[::-1])
    except OutOfDomain:
        return np.full(n + 1, spec.s), np.full(n + 1, spec.u)
    return early, late


# The RK4 weights of the stages; a finite floor under a log level keeps -inf - level from nan
_RK4_WEIGHTS = np.array([1.0, 2.0, 2.0, 1.0])
_FLOOR = -np.finfo(float).max


def _step_powers(step):
    """The step factors of one sweep's RK4 coefficients, formed once per sweep:
    step/6, step/24 and log(step/6)."""
    h6 = step / 6.0
    return h6, step / 24.0, np.log(h6)


def _log_cumsum(a, i):
    """log of the running sums of exp(a) in place, ``a`` free of nan and +inf and -inf
    before cell i, summed in runs from its first finite cell: a run starts at a finite
    cell, its level, and ends before the first later cell over level + 300.  Its terms
    over e^level, a later run's first carrying the sum so far (of cells all below the
    level), take one running sum; each partial sum is at least 1."""
    if i < a.size and a[i] == -np.inf:
        i += int(np.argmax(a[i:] > -np.inf)) or a.size
    start = i
    while i < a.size:
        level, run = a[i], a[i:]
        if not run.max() <= level + 300.0:
            run = run[:np.argmax(run > level + 300.0) or None]
        run -= level
        np.exp(run, out=run)
        if i > start:
            run[0] += np.exp(a[i - 1] - level)
        np.log(np.add.accumulate(run, out=run), out=run)
        run += level
        i += run.size


def _column(steps, rates, feed, prev, lo=0, hi=None):
    """One state's log column of a diagonal-exact RK4 sweep, over its window at once.

    A sweep takes the ladder states in order, from the pin down (``solve_h``) or
    from the start state up (the marginal routes), and starts from 1 in its first
    state and 0 in every other.  ``steps`` is :func:`_step_powers` of the m step
    lengths in sweep order.  The column holds nodes ``lo`` to ``hi`` in sweep order
    (by default all m + 1; neither below the state before's), seeded at ``lo``, and
    is 0 outside them.  ``rates`` are the state's own rates and ``feed`` those at
    which the state before feeds it (its own backward, the state below's forward;
    unused for the first state), at the step boundaries and midpoints interleaved,
    from node ``lo`` to one step past ``hi``.  ``prev`` is what this function
    returned for the state before (None for the first).

    Each step removes its diagonal exactly.  With i_mid and i_end its integrals (a
    quadratic fit to the middle, Simpson to the end) and coupling rates c0, cm, ce,
    the stage values y1 = x', y2 = x' + h/2 k1', y3 = x' + h/2 k2', y4 = x' + h k3'
    of the state before (primed) give this state's stages k1 = c0 y1, k2 = cm y2,
    k3 = cm y3, k4 = ce y4 and x_new = exp(-i_end) (x + b), b = h/6 (k1 + 2 k2 +
    2 k3 + k4) >= 0.  So x[j+1] = exp(-i_end[j]) (x[j] + b[j]), solved at once in
    log space: with g the running sum of i_end, log x = _log_cumsum([log seed,
    log b + g]) - g.  The increments h/2 k1, h/2 k2 and h k3, as multiples (at most
    3) of b, are kept over every step ``rates`` covers: the next state reads them up
    to the step from this state's last node.  The state before's values are taken
    over e^top, top the larger of its log x and log b on each step, so b is never
    formed outside log space and nothing is rescaled or clamped; a step with b = 0
    (next to u) has log b = -inf and increments 0.  Returns the log column (hi - lo
    + 1 values) and the ``prev`` of the next state: one block of the rows it reads.
    """
    hi = steps[0].size if hi is None else hi
    n, w = hi - lo, min(hi + 1, steps[0].size) - lo
    block = np.empty((7, n + 1))
    log_b, log_x, inc, i_mid, i_end = block[0, :w], block[1], block[2:5, :w], block[5, :w], block[6, :w]
    # the node rates r0 = node[:-1] and r1 = node[1:], and the midpoint rates rm
    node, rm = rates[::2].copy(), rates[1::2].copy()
    np.multiply(rm, 4.0, out=i_end)
    i_end += node[:-1]
    i_end += node[1:]
    i_end *= steps[0][lo:lo + w]
    np.multiply(rm, 8.0, out=i_mid)
    i_mid += np.multiply(node[:-1], 5.0, out=log_b)
    i_mid -= node[1:]
    i_mid *= steps[1][lo:lo + w]
    del node, rm
    g = np.zeros(n + 1)
    np.add.accumulate(i_end[:n], out=g[1:])
    # b > 0 only on the k steps the state before covers (none for the first state)
    p_lo, p_w, p_block = prev or (lo, 0, None)
    k = max(0, p_w - lo + p_lo)
    log_b[k:] = -np.inf
    inc[:, k:] = 0.0
    if prev is None:
        return np.negative(g, out=log_x), (lo, w, block)
    p = p_block[:, lo - p_lo:lo - p_lo + k]
    # over e^top, the state before's b (row 1) and stage values y1 (row 2) and y2..y4 (the
    # rows of the stages they give); then cm and ce (rows 0 and 1) from the feed's rm and r1
    top = np.maximum(np.maximum(p[0], p[1]), _FLOOR)
    rows = np.empty((6, k))
    stage = rows[2:]
    np.exp(np.subtract(p[:2], top, out=rows[1:3]), out=rows[1:3])
    np.multiply(p[2:5], rows[1], out=stage[1:])
    stage[1:] += stage[0]
    stage[0] *= feed[:2 * k:2]
    np.exp(np.subtract(block[5:, :k], p[5:], out=rows[:2]), out=rows[:2])
    rows[:2] *= feed[1:2 * k + 1].reshape(k, 2).T
    stage[1:3] *= rows[0]
    stage[3] *= rows[1]
    s = _RK4_WEIGHTS @ stage
    stage[:2] *= 3.0
    stage[2] *= 6.0
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(s, out=log_b[:k])
        np.divide(stage[:3], s, out=inc[:, :k])
    log_b[:k] += steps[2][lo:lo + k]
    log_b[:k] += top
    if k and not s.min() > 0.0:
        dead = ~(s > 0.0)
        log_b[:k][dead] = -np.inf
        inc[:, :k][:, dead] = 0.0
    log_x[0] = -np.inf
    np.add(log_b[:n], g[:-1], out=log_x[1:])
    _log_cumsum(log_x, 1)
    log_x -= g
    return log_x, (lo, w, block)


def _pinned(upper, lower, rates):
    """The pinned jump rates rate(t, z) h(t, z+1) / h(t, z) of a ladder state on
    some nodes, from log h of the state above (``upper``) and of the state
    (``lower``) there, given ``rates``, the state's own rates there.

    0 where h(t, z) is exactly 0 (within a few nodes of u).  A ratio too large
    for exp on its own (rates decaying steeply toward u) is formed as
    exp(log ratio + log rate) instead.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        d = upper - lower
        k = np.exp(d)
    k *= rates
    if not np.isfinite(k).all():
        bad = ~np.isfinite(k)
        k[bad] = np.exp(d[bad] + np.log(rates[bad]))
        k[~np.isfinite(k)] = 0.0
    return k


class _Band:
    """log h over each state's window, in one flat buffer ``values``: node i of
    state zi, for h_lo[zi] <= i <= h_hi[zi], sits at ``values[start[zi] + i]``.
    ``shape`` is the (mesh nodes, ladder) extent of the field and ``nbytes``
    the buffer's size."""

    def __init__(self, h_lo, h_hi, nodes):
        size = h_hi - h_lo + 1
        self.start = np.cumsum(size) - size - h_lo
        self.values = np.empty(int(size.sum()))
        self.shape = (nodes, size.size)
        self.nbytes = self.values.nbytes

    def column(self, zi, a, b):
        """Nodes a to b - 1 of state zi, a view; they must lie in its window."""
        return self.values[self.start[zi] + a:self.start[zi] + b]


class HField:
    """log h(t, z) on the solver mesh for one (model, bridge) pair.

    Stores ``logh``, one :class:`_Band` over the states' windows, on the node
    times ``times`` of its mesh; the pinned jump rates are formed from it
    where they are read (:meth:`pinned_rates`, :meth:`survival_tables`).  Outside
    its window a state's h is taken as 0, which costs the bridge at most
    2 (n + 1) WINDOW_TAIL of its mass (see the module notes).  Immutable;
    safe to share across threads.  Inside a state's terminal boundary layer
    the sampler uses the exact first-order pin asymptote k ~ (y - z)/(u - t),
    from the latest mature node for that state (``anchor_idx``, in its window) on.
    """

    def __init__(self, model, spec, mesh, log_h):
        self.model = model
        self.spec = spec
        self.mesh = mesh
        self.times = mesh.times
        self.logh = log_h
        # Per-state asymptote anchors.  h at depth m vanishes like (u-t)^m, and
        # the backward pass resolves that layer only a few nodes away from u,
        # so queries closer than m x (finest node distance) ride the exact
        # first-order asymptote from the last node before that limit on; a
        # column that stops before its limit anchors at its last solved node.
        self.anchor_idx = np.minimum(mesh.pin_limit, mesh.h_hi[:-1]) - 1

    def pinned_rates(self):
        """Each ladder state's pinned jump rates on the storage nodes its forward
        sweep reads (``mesh.fwd_rows``), bottom state first (the pin state's
        are 0), from one rate reader.  Those nodes lie inside the h windows of
        the state and of the one above, short of the state's seed."""
        lo, hi = self.mesh.fwd_rows
        columns = self.model.rate_columns(self.times[:self.mesh.n_fwd_nodes],
                                          self.spec.ladder()[:-1], lo, hi)
        for zi, rates in enumerate(columns):
            yield _pinned(self.logh.column(zi + 1, lo[zi], hi[zi]),
                          self.logh.column(zi, lo[zi], hi[zi]), rates)
        yield np.zeros(hi[-1] - lo[-1])

    def survival_tables(self):
        """Each ladder state's integrated pinned rate L = (integrated rate) - log h(., z),
        bottom state first, the pin state's left out: its nodes ``nodes``, from its
        window's first to its asymptote anchor t_a, L there (trapezoid rule for the
        rate, summed over the window alone), and whether its window runs to u, where
        past t_a L grows at the exact pin rate (y - z) / (u - t).  The rates come
        from one reader over the mesh nodes, one state's column at a time."""
        lo, hi = self.mesh.h_lo[:-1], self.anchor_idx + 1
        columns = self.model.rate_columns(self.times, self.spec.ladder()[:-1], lo, hi)
        for zi, (a, b, rates) in enumerate(zip(lo, hi, columns)):
            nodes = self.times[a:b]
            lam = np.concatenate([[0.0], np.cumsum(0.5 * (rates[1:] + rates[:-1]) * np.diff(nodes))])
            yield nodes, lam - self.logh.column(zi, a, b), self.mesh.h_hi[zi] == self.times.size - 1


def solve_h(model, spec, h_step=OUTPUT_STEP, step_budget=STEP_BUDGET):
    """Solve the backward pin-probability system on the ladder.

    Integrates d/dt h(t,z) = -rate(t,z) [h(t,z+1) - h(t,z)] backward from
    h(u, .) = indicator(y) with diagonally-exact RK4 steps.  The system is
    upper bidiagonal, so the states go from the pin down, one log column each
    (:func:`_column`) over its window, coupled at their own rates.  Those
    come from one ``model.rate_columns`` reader over the sweep's node and
    midpoint times, which does the per-time work once and yields one state's
    column at a time.  ``step_budget`` tightens the mesh grading below the
    module default for extra accuracy.
    """
    mesh = _Mesh(spec, h_step, model, step_budget)
    times = mesh.times
    last = times.size - 1
    # rates at the nodes and the step midpoints interleaved, from u down
    t_rates = _with_midpoints(times)[::-1]
    steps = _step_powers(np.diff(times)[::-1])

    log_h = _Band(mesh.h_lo, mesh.h_hi, times.size)
    # each window's nodes counted from u, pin state first: its seed lo first,
    # and its rates read to one step past hi
    lo, hi = last - mesh.h_hi[::-1], last - mesh.h_lo[::-1]
    columns = model.rate_columns(t_rates, spec.ladder()[::-1], 2 * lo,
                                 2 * np.minimum(hi + 1, last) + 1)
    prev = None
    for zi, a, b, rates in zip(range(spec.n, -1, -1), lo.tolist(), hi.tolist(), columns):
        col, prev = _column(steps, rates, rates, prev, a, b)
        log_h.column(zi, last - b, last - a + 1)[:] = col[::-1]
    return HField(model, spec, mesh, log_h)


class MarginalTable:
    """One-time laws P(X_t = z) of a bridge on a uniform output grid, and its means
    seen from x, ``offsets``: E[X_t] - x on each row, which carry no rounding of x, given
    with the table or else its rows times 0..n, formed on first read."""

    def __init__(self, spec, times, probs, drift, offsets=None):
        self.spec, self.times, self.probs, self.drift = spec, times, probs, drift
        if offsets is not None:
            self.offsets = offsets

    @functools.cached_property
    def offsets(self):
        return self.probs @ np.arange(self.spec.n + 1.0)

    def validate(self):
        """The table itself once it is finite, within DRIFT_TOL, normalised, pinned at
        both ends and monotone in t in every tail; else a ConservationLoss.  The tails
        are read in blocks of rows, at most BLOCK_CELLS cells (or two rows) each,
        consecutive blocks sharing a row, so the check holds no table-sized copy."""
        if not np.all(np.isfinite(self.probs)):
            raise ConservationLoss("table holds non-finite probabilities")
        if not self.drift <= DRIFT_TOL:
            raise ConservationLoss(
                f"mass drift {self.drift:.3e} exceeds {DRIFT_TOL:.1e}; refine the step")
        sums = self.probs.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > 1e-9:
            raise ConservationLoss("rows are not normalized")
        if not (self.probs[0, 0] == 1.0 and self.probs[-1, -1] == 1.0):
            raise ConservationLoss("endpoint rows are not pinned")
        rows, cells = self.probs.shape
        step = max(1, BLOCK_CELLS // cells - 1)
        worst = min(np.min(np.diff(self.tail_matrix(slice(a, a + step + 1)), axis=0))
                    for a in range(0, rows - 1, step))
        if worst < -MONOTONE_TOL:
            raise ConservationLoss(
                f"tail monotonicity in t violated by {-worst:.3e}")
        return self

    def tail_matrix(self, rows=slice(None)):
        """P(X_t >= x + i) on the grid rows ``rows`` (all by default), with columns
        i = 0..n; each row's tails are its own reversed running sum."""
        return np.cumsum(self.probs[rows, ::-1], axis=1)[:, ::-1]


def _forward(mesh, rates):
    """Log forward mass on the output grid: one row per output time, one column
    per state, from mass 1 in state x at s; u's row, last, is left -inf for the
    table it becomes (:func:`_pinned_table`).  ``rates`` yields each state's
    rates on its storage nodes ``mesh.fwd_rows``, bottom state first; each
    state is fed at the rates of the state below."""
    steps = _step_powers(np.diff(mesh.fwd_bounds))
    out = np.full((mesh.out_times.size, mesh.spec.n + 1), -np.inf)
    at, lo, hi = mesh.out_fb_idx, mesh.fwd_lo.tolist(), mesh.fwd_hi.tolist()
    rows = zip(np.searchsorted(at, lo).tolist(), np.searchsorted(at, mesh.fwd_hi + 1).tolist())
    prev = None
    for zi, (r, a, b, (k0, k1)) in enumerate(zip(rates, lo, hi, rows)):
        # the state below feeds this one from this column's first node on
        log_q, prev = _column(steps, r, feed[2 * (a - lo[zi - 1]):] if zi else None, prev, a, b)
        out[k0:k1, zi] = log_q[at[k0:k1] - a]
        feed = r
    return out


def check_field(model, spec, h):
    """Raise BadParameter unless ``h`` was solved for ``spec`` and a model equal to
    ``model`` (a ``Tabulated`` equals only itself)."""
    if h.model != model:
        raise BadParameter("h was solved for a different model")
    if h.spec != spec:
        raise BadParameter("h was solved for a different bridge")


def _field(model, spec, h_step, h):
    """The h-field for a marginal route: solved unless given; a given one must belong
    to this model and bridge and, by its cell count, to h_step, and brings its grid."""
    if h is None:
        return solve_h(model, spec, h_step)
    check_field(model, spec, h)
    if output_cells(spec, h_step) != h.mesh.out_times.size - 1:
        raise BadStep("marginals must use the h_step the field was solved with")
    return h


def _normalise(log_table):
    """Normalise the rows of ``log_table`` before u in place: each log row becomes
    exp(log row) over its sum.  Returns the log row sums."""
    log_rows = log_table[:-1]
    top = log_rows.max(axis=1, keepdims=True)
    log_rows -= top
    rows = np.exp(log_rows, out=log_rows)
    sums = rows.sum(axis=1, keepdims=True)
    rows /= sums
    return (top + np.log(sums))[:, 0]


def _pinned_table(spec, mesh, table, drift):
    """Validated marginal table of ``table``, its rows before u normalised
    (:func:`_normalise`), with both ends set exactly to the pins, in place."""
    table[0] = table[-1] = 0.0
    table[0, 0] = table[-1, -1] = 1.0
    return MarginalTable(spec, mesh.out_times, table, drift).validate()


def marginal_table(model, spec, h_step=OUTPUT_STEP, h=None):
    """Bridge marginals by forward integration of the pinned dynamics.

    The forward rates come from the solved h-field at the mesh nodes, so no
    interpolation enters the stage values.  The system is linear, so the rows
    are renormalized at the output times only; the largest change in total
    mass between consecutive output rows is the drift reported on the table,
    and it must stay below 1e-6.
    """
    h = _field(model, spec, h_step, h)
    mesh = h.mesh
    table = _forward(mesh, h.pinned_rates())
    drift = float(np.max(np.abs(np.expm1(np.diff(_normalise(table))))))
    return _pinned_table(spec, mesh, table, drift)


def marginal_table_two_sided(model, spec, h_step=OUTPUT_STEP, h=None):
    """Bridge marginals as (unconditioned forward mass) x h, renormalized.

    Independent of the pinned forward dynamics (no singular rates enter), so
    it cross-checks :func:`marginal_table`; the two routes agree to about the
    integrator tolerance.  Both factors stay in log space.  The forward sweep
    reads its rates from one ``model.rate_columns`` reader over the forward
    nodes, one state's column at a time.
    """
    h = _field(model, spec, h_step, h)
    mesh = h.mesh
    log_p = _forward(mesh, h.model.rate_columns(mesh.times[:mesh.n_fwd_nodes], spec.ladder(),
                                                *mesh.fwd_rows))
    # log h is added at the output nodes (2 * fb-index) in each state's window; h is 0 outside
    out, band = 2 * mesh.out_fb_idx, h.logh
    k0, k1 = np.searchsorted(out, mesh.h_lo), np.searchsorted(out, mesh.h_hi + 1)
    for zi, (a, b, start) in enumerate(zip(k0.tolist(), k1.tolist(), band.start.tolist())):
        log_p[:a, zi] = log_p[b:, zi] = -np.inf
        log_p[a:b, zi] += band.values[start + out[a:b]]
    _normalise(log_p)
    return _pinned_table(spec, mesh, log_p, 0.0)


def second_differences(curve):
    """Central second differences over step^2 of a curve the package formed: an (m, 2)
    array of (t, f) rows, m >= 3, on a uniform grid of increasing times."""
    t, f = np.asarray(curve, dtype=float).T
    d2 = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / (t[1] - t[0]) ** 2
    return np.column_stack([t[1:-1], d2])
