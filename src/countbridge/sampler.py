"""Samplers of pinned counting paths.

Two samplers live here:

* an exact sampler for constant characteristics: the jump times are the
  sorted i.i.d. draws of the tilted density (inverse CDF);
* an inversion sampler driven by the integrated pinned jump rate from the
  solved h-field, which works for any model and any n.

Both return a list of :class:`PathSample`.  The brute-force validation
devices (the xi tables of the simplex density exp(sum_j xi_j(t_j)), the
quadrature oracle for P(T_i <= t) and the rejection sampler) live with the
tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotSorted, PinMiss


@dataclass(frozen=True)
class PathSample:
    """One counting path: start state plus strictly increasing jump times."""

    x0: int
    jump_times: tuple

    def __post_init__(self):
        times = np.asarray(self.jump_times, dtype=float)
        if times.size > 1 and np.any(np.diff(times) <= 0):
            raise NotSorted("jump times must be strictly increasing")
        object.__setattr__(self, "jump_times", tuple(float(t) for t in times))

    @property
    def n(self):
        return len(self.jump_times)


def jump_time_matrix(paths):
    """Stack jump times of same-length paths into a (count, n) matrix."""
    if not paths:
        return np.zeros((0, 0))
    n = paths[0].n
    if any(p.n != n for p in paths):
        raise ValueError("paths have differing jump counts")
    return np.asarray([p.jump_times for p in paths], dtype=float)


def replica_rng(seed, index):
    """Independent, reproducible stream for one replica of a seeded run."""
    key = (int(seed) & ((1 << 64) - 1)) << 64 | (int(index) & ((1 << 64) - 1))
    return np.random.Generator(np.random.Philox(key=key))


def sample_constant(lam, spec, count, rng_seed):
    """Exact bridge sampler for any model whose characteristic is lam.

    Draws n = y - x i.i.d. variates from the tilted density on the window
    (inverse CDF: log1p(U (e^lam' - 1)) / lam' with lam' = lam * (u - s)) and
    sorts them.  Deterministic given the seed.
    """
    n = spec.n
    rng = replica_rng(rng_seed, 0)
    u01 = rng.random((int(count), n))
    lam_eff = lam * spec.length
    if lam_eff == 0.0:
        v = u01
    else:
        v = np.log1p(u01 * math.expm1(lam_eff)) / lam_eff
    times = spec.s + spec.length * np.sort(v, axis=1)
    return [PathSample(spec.x, tuple(row)) for row in times]


def sample_bridge(model, spec, h, count, rng_seed, stats=None):
    """Inversion sampler for the pinned process of any intensity model.

    The ladder only goes up, so after j jumps every path sits in state x + j:
    jump j + 1 of every path comes from one vectorised inversion of that
    state's pinned survival (:meth:`~countbridge.engine.HField.next_jumps`).
    Replica r draws its n Exp(1) masses from an independent stream keyed by
    (rng_seed, r).  Every returned path has exactly n = y - x jumps; a draw
    that rounds to u or does not advance past the previous jump raises
    :class:`~countbridge.errors.PinMiss` (an event of frequency zero).
    ``stats``, when given, is updated with ``proposals`` and ``accepts``: one
    each per jump.
    """
    if model is not None and h.model is not model:
        raise ValueError("h was solved for a different model")
    n = spec.n
    count = int(count)
    mass = np.empty((count, n))
    for r in range(count):
        mass[r] = replica_rng(rng_seed, r).standard_exponential(n)
    times = np.empty((count, n))
    t = np.full(count, float(spec.s))
    for zi in range(n):
        nxt = h.next_jumps(zi, t, mass[:, zi])
        if np.any(nxt <= t) or np.any(nxt >= spec.u):
            raise PinMiss(f"jump {zi + 1} of a path rounded to u or did not advance past jump {zi}")
        times[:, zi] = t = nxt
    if stats is not None:
        stats.update(proposals=n * count, accepts=n * count)
    return [PathSample(spec.x, tuple(row)) for row in times]
