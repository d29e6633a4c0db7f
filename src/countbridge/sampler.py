"""Samplers of pinned counting paths.

Two samplers live here:

* an exact sampler for every ``ExpAffine`` model: its jump times are the sorted
  :func:`~countbridge.analytic.clock_quantile` of i.i.d. uniforms;
* an inversion sampler driven by the integrated pinned jump rate from the
  solved h-field, which works for any model and any n; it walks its paths
  in order of their last jump time, so each table is read at increasing times.

Both return a :class:`PathBatch`: one read-only ``(count, n)`` jump-time
matrix, whose items are :class:`PathSample` objects built only on access.
Each call draws from one stream, :func:`seeded_rng` of its seed, row by row,
so the first rows of a larger draw equal a smaller draw with the same seed.
The brute-force validation devices (the xi tables of the simplex density
exp(sum_j xi_j(t_j)), the quadrature oracle for P(T_i <= t) and the
rejection sampler) live with the tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .analytic import clock_quantile
from .engine import check_field, check_memory
from .errors import NotSorted, PinMiss, TooFewSamples, count_text
from .intensity import _integral

_U64 = (1 << 64) - 1


@dataclass(frozen=True)
class PathSample:
    """One counting path: start state plus strictly increasing jump times."""

    x0: int
    jump_times: tuple

    def __post_init__(self):
        times = tuple(map(float, self.jump_times))
        if any(a >= b for a, b in zip(times, times[1:])):
            raise NotSorted("jump times must be strictly increasing")
        object.__setattr__(self, "jump_times", times)

    @property
    def n(self):
        return len(self.jump_times)


class PathBatch(Sequence):
    """The paths of one sampler call: start state ``x0`` and a read-only
    ``(count, n)`` matrix ``times`` whose row r holds the jump times of
    path r.  An index builds the :class:`PathSample` of that path."""

    __slots__ = ("x0", "times")

    def __init__(self, x0, times):
        self.x0 = _integral("x0", x0)
        times.flags.writeable = False
        self.times = times

    def __len__(self):
        return self.times.shape[0]

    def __getitem__(self, index):
        return PathSample(self.x0, tuple(self.times[operator.index(index)].tolist()))


def seeded_rng(seed):
    """The one counter-based Philox stream of a seeded sampler call."""
    return np.random.Generator(np.random.Philox(key=(_integral("seed", seed) & _U64) << 64))


def _path_count(count):
    """``count`` as an int; a negative one raises TooFewSamples."""
    count = _integral("count", count)
    if count < 0:
        raise TooFewSamples(f"a sample needs a path count of at least 0, got {count_text(count)}")
    return count


def sample_constant(model, spec, count, rng_seed):
    """Exact bridge sampler for any ``ExpAffine`` model: the n = y - x jump times are
    the sorted :func:`~countbridge.analytic.clock_quantile` of n i.i.d. uniforms.
    Deterministic given the seed.  A bridge that starts below the model's state floor,
    or a law whose tilt is not finite, raises :class:`~countbridge.errors.OutOfDomain`
    (from the clock), tied draws NotSorted; before any is drawn, a negative ``count``
    TooFewSamples and a sample over the engine's memory cap ResourceCap.
    """
    n = spec.n
    count = _path_count(count)
    # the draws, their quantiles, the sorted times, one temporary and their
    # differences: five (count x n) arrays at once
    check_memory(5 * 8 * count * n, f"{count_text(count)} paths of {count_text(n)} jumps")
    u01 = seeded_rng(rng_seed).random((count, n))
    times = np.sort(clock_quantile(model, spec, u01), axis=1)
    if not np.all(np.diff(times, axis=1) > 0):
        raise NotSorted("jump times must be strictly increasing")
    return PathBatch(spec.x, times)


def _invert(spec, z, table, start, mass):
    """Next jump times from ladder state z, by inversion of the pinned survival, in
    increasing order, and the order of ``start`` that they follow.

    From state z at time t the pinned chain stays put until r with probability
    exp(-(L(r) - L(t))), L the state's integrated pinned rate (``table``, from
    :meth:`~countbridge.engine.HField.survival_tables`); past the anchor t_a of a
    window that runs to u it grows as (y - z) log((u - t_a) / (u - t)).  So a jump
    lands where L reaches L(start) + ``mass`` (Exp(1) draws).  Sorting the targets, and
    ``start`` increasing, give both interpolations increasing queries; np.interp's
    values do not depend on their order.  A path outside the window raises PinMiss.
    """
    nodes, big_l, to_u = table
    ta, top, slope = nodes[-1], big_l[-1], spec.y - z
    if (start < nodes[0]).any():
        raise PinMiss(f"a path reached state {z} at t = {start.min():.6g}, before its"
                      f" window opens at {nodes[0]:.6g}")
    level = np.interp(start, nodes, big_l)
    if to_u:
        past = start > ta
        level[past] = top + slope * np.log((spec.u - ta) / (spec.u - start[past]))
    level += mass
    order = np.argsort(level)
    target = level[order]
    if not to_u and (target > top).any():
        raise PinMiss(f"a path stayed in state {z} past its window, which closes at"
                      f" t = {ta:.6g}")
    out = np.interp(target, big_l, nodes)
    if to_u:
        past = target > top
        out[past] = spec.u - (spec.u - ta) * np.exp((top - target[past]) / slope)
    return out, order


def sample_bridge(model, spec, h, count, rng_seed, stats=None):
    """Inversion sampler for the pinned process of any intensity model.

    The ladder only goes up, so after j jumps every path sits in state x + j:
    jump j + 1 of every path comes from one vectorised inversion of that
    state's pinned survival (:meth:`~countbridge.engine.HField.survival_tables`),
    taking the paths in order of their last jump time, a permutation carried
    from state to state, and scattering the jump times to their rows.
    Its Exp(1) masses are the first count * n draws of the seed's one stream,
    row by row, so path r depends only on the seed and r.  Every returned
    path has exactly n = y - x jumps; a draw that rounds to u or does not
    advance past the previous jump raises
    :class:`~countbridge.errors.PinMiss` (an event of frequency zero).
    ``stats``, when given, is updated with ``proposals`` and ``accepts``: one
    each per jump.  Before any is drawn, an ``h`` solved for another model or
    bridge raises BadParameter, a negative ``count`` TooFewSamples and a sample
    whose arrays would exceed the engine's memory cap ResourceCap.
    """
    check_field(model, spec, h)
    n = spec.n
    count = _path_count(count)
    # the masses and the jump times (count x n each), at most ten count-long vectors
    # in one inversion, and at most twelve mesh-long ones: the rate reader's node
    # arrays, and two states' tables while the next is formed
    check_memory(8 * (count * (2 * n + 10) + 12 * h.times.size),
                 f"{count_text(count)} paths of {count_text(n)} jumps")
    mass = seeded_rng(rng_seed).standard_exponential((count, n))
    times = np.empty((count, n))
    rows = np.arange(count)
    t = np.full(count, float(spec.s))
    for zi, table in enumerate(h.survival_tables()):
        nxt, order = _invert(spec, spec.x + zi, table, t, mass[:, zi][rows])
        if (nxt <= t[order]).any() or (nxt >= spec.u).any():
            raise PinMiss(f"jump {zi + 1} of a path rounded to u or did not advance past jump {zi}")
        rows = rows[order]
        times[:, zi][rows] = t = nxt
    if stats is not None:
        stats.update(proposals=n * count, accepts=n * count)
    return PathBatch(spec.x, times)
