"""Samplers of pinned counting paths.

Two samplers live here:

* an exact sampler for every ``ExpAffine`` model: on the clock
  tau(t) = expm1(lam t) / lam its characteristic is constant, so the jump
  times are the sorted i.i.d. draws of a tilted density there (inverse CDF);
* an inversion sampler driven by the integrated pinned jump rate from the
  solved h-field, which works for any model and any n.

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

from .analytic import tilted_quantile
from .engine import check_field, check_memory, count_text
from .errors import NotSorted, PinMiss, TooFewSamples

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
        times.flags.writeable = False
        self.x0 = int(x0)
        self.times = times

    def __len__(self):
        return self.times.shape[0]

    def __getitem__(self, index):
        return PathSample(self.x0, tuple(self.times[operator.index(index)].tolist()))


def jump_time_matrix(paths):
    """The read-only (count, n) jump-time matrix of a batch, not copied."""
    return paths.times


def seeded_rng(seed):
    """The one counter-based Philox stream of a seeded sampler call."""
    return np.random.Generator(np.random.Philox(key=(int(seed) & _U64) << 64))


def _path_count(count):
    """``count`` as an int; a negative one raises TooFewSamples."""
    count = int(count)
    if count < 0:
        raise TooFewSamples(f"a sample needs a path count of at least 0, got {count}")
    return count


def sample_constant(model, spec, count, rng_seed):
    """Exact bridge sampler for any ``ExpAffine`` model.

    On the clock tau(t) = expm1(lam t) / lam the characteristic is b, so the n = y - x
    jump times are sorted i.i.d. tilted draws there: with b = 0 or lam = 0 at the tilt
    (lam + b) (u - s) over the window (:func:`~countbridge.analytic.tilted_quantile`),
    else at the clock's tilt theta = b (tau(u) - tau(s)), reflected so that e^theta is
    never formed.  Deterministic given the seed.  A tilt or theta past the float range
    raises :class:`~countbridge.errors.OutOfDomain`, tied draws NotSorted; before any
    is drawn, a negative ``count`` TooFewSamples and a sample over the engine's memory
    cap ResourceCap.
    """
    n = spec.n
    count = _path_count(count)
    # the draws, their tilted values, the sorted times, one temporary and their
    # differences: five (count x n) arrays at once
    check_memory(5 * 8 * count * n, f"{count_text(count)} paths of {count_text(n)} jumps")
    u01 = seeded_rng(rng_seed).random((count, n))
    lam, b, length = model.lam, model.b, spec.length
    if b == 0.0 or lam == 0.0:
        times = spec.s + length * np.sort(tilted_quantile((lam + b) * length, u01), axis=1)
    else:  # an overflow leaves theta infinite, which tilted_quantile refuses
        with np.errstate(over="ignore"):
            theta = b * np.exp(lam * spec.s) * np.expm1(lam * length) / lam
        clock = np.sort(1.0 - tilted_quantile(-theta, 1.0 - u01), axis=1)
        times = spec.s + length * tilted_quantile(lam * length, clock)
    if not np.all(np.diff(times, axis=1) > 0):
        raise NotSorted("jump times must be strictly increasing")
    return PathBatch(spec.x, times)


def sample_bridge(model, spec, h, count, rng_seed, stats=None):
    """Inversion sampler for the pinned process of any intensity model.

    The ladder only goes up, so after j jumps every path sits in state x + j:
    jump j + 1 of every path comes from one vectorised inversion of that
    state's pinned survival (:meth:`~countbridge.engine.HField.next_jumps`).
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
    # the masses and the jump times (count x n each), and the count-long vectors
    # of one inversion: five at most
    check_memory(8 * count * (2 * n + 5), f"{count_text(count)} paths of {count_text(n)} jumps")
    mass = seeded_rng(rng_seed).standard_exponential((count, n))
    times = np.empty((count, n))
    t = np.full(count, float(spec.s))
    for zi in range(n):
        nxt = h.next_jumps(zi, t, mass[:, zi])
        if np.any(nxt <= t) or np.any(nxt >= spec.u):
            raise PinMiss(f"jump {zi + 1} of a path rounded to u or did not advance past jump {zi}")
        times[:, zi] = t = nxt
    if stats is not None:
        stats.update(proposals=n * count, accepts=n * count)
    return PathBatch(spec.x, times)
