"""Samplers and the jump-time quadrature oracle for pinned counting paths.

The jump times (T_1, ..., T_n) of an x -> y bridge have a density on the
ordered simplex proportional to exp(sum_j xi_j(t_j)), where xi_j is the
cumulative integral in time of the characteristic one state below the j-th
jump.  Three consumers of that fact live here:

* an exact sampler for constant characteristics (inverse CDF of the tilted
  density, sorted);
* a brute-force oracle that integrates the simplex density with iterated
  cumulative quadrature (small n only);
* an inversion sampler driven by the integrated pinned jump rate from the
  solved h-field, which works for any model and any n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson

from .errors import IndexOut, NotSorted, OracleScale, PinMiss
from .intensity import characteristic_bounds


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

    def count_at(self, t):
        """X_t = x0 + number of jumps at or before t (right-continuous)."""
        return self.x0 + int(np.searchsorted(self.jump_times, t, side="right"))


def jump_time_matrix(paths):
    """Stack jump times of same-length paths into a (count, n) matrix."""
    if not paths:
        return np.zeros((0, 0))
    n = paths[0].n
    if any(p.n != n for p in paths):
        raise ValueError("paths have differing jump counts")
    return np.asarray([p.jump_times for p in paths], dtype=float)


class CharacteristicIntegrals:
    """Cumulative characteristic integrals xi_j along the ladder of one bridge.

    xi_j(t) = integral from s to t of characteristic(r, x + j - 1), tabulated
    on a uniform grid (cumulative Simpson; smooth characteristics come out
    accurate to roughly 1e-12 at the default step).
    """

    def __init__(self, model, spec, grid_step=1e-4):
        self.model = model
        self.spec = spec
        m = max(3, int(math.ceil(spec.length / grid_step)) + 1)
        if m % 2 == 0:
            m += 1
        self.grid = np.linspace(spec.s, spec.u, m)
        n = spec.n
        self.tables = np.zeros((n, m))
        for j in range(n):
            vals = np.asarray(self.model.characteristic(self.grid, spec.x + j), dtype=float)
            self.tables[j] = np.concatenate([[0.0], cumulative_simpson(vals, x=self.grid)])

    def xi(self, j, t):
        """xi_j at t (j counts jumps from 1)."""
        if not 1 <= j <= self.spec.n:
            raise IndexOut(f"jump index {j} outside 1..{self.spec.n}")
        return np.interp(t, self.grid, self.tables[j - 1])

    def total(self, t_vec):
        """sum_j xi_j(t_j) for a strictly increasing jump-time vector."""
        t_vec = np.asarray(t_vec, dtype=float)
        if t_vec.size != self.spec.n:
            raise ValueError(f"expected {self.spec.n} jump times, got {t_vec.size}")
        if t_vec.size and (np.any(np.diff(t_vec) <= 0)
                           or t_vec[0] <= self.spec.s or t_vec[-1] >= self.spec.u):
            raise NotSorted("jump times must be strictly increasing inside the window")
        return float(sum(self.xi(j + 1, t_vec[j]) for j in range(t_vec.size)))


def characteristic_integrals(model, spec, grid_step=1e-4):
    """Build the xi tables for one bridge."""
    return CharacteristicIntegrals(model, spec, grid_step)


def simplex_jump_time_cdf(pot, t, i):
    """P(T_i <= t) under the simplex density, by iterated cumulative quadrature.

    Conditioning on T_i = r factorizes the ordered-simplex integral into a
    forward piece over (t_1 < ... < t_{i-1} < r) and a backward piece over
    (r < t_{i+1} < ... < t_n), each a nested 1-d cumulative integral.  The
    recursion never touches the h-field, so it is an independent oracle for
    the engine's tails (P(X_t >= x+i) = P(T_i <= t)).  Supported for n <= 4.
    """
    spec = pot.spec
    n = spec.n
    if n > 4:
        raise OracleScale(f"oracle supports up to 4 jumps, bridge has {n}")
    if not 1 <= i <= n:
        raise IndexOut(f"jump index {i} outside 1..{n}")
    if not spec.s <= t <= spec.u:
        raise ValueError(f"t={t} outside the bridge window")
    grid = pot.grid
    tilt = np.exp(pot.tables)  # e^{xi_j} rows

    fwd = [np.ones_like(grid)]
    for j in range(1, i):
        g = tilt[j - 1] * fwd[-1]
        fwd.append(np.concatenate([[0.0], cumulative_simpson(g, x=grid)]))
    bwd = np.ones_like(grid)
    for j in range(n, i, -1):
        g = tilt[j - 1] * bwd
        cum = np.concatenate([[0.0], cumulative_simpson(g, x=grid)])
        bwd = cum[-1] - cum
    integrand = tilt[i - 1] * fwd[-1] * bwd
    num = np.concatenate([[0.0], cumulative_simpson(integrand, x=grid)])
    # {T_i <= u} is the whole simplex, so num at u is the normalizer Z
    return float(np.interp(t, grid, num) / num[-1])


def _philox(seed, index=0):
    key = (int(seed) & ((1 << 64) - 1)) << 64 | (int(index) & ((1 << 64) - 1))
    return np.random.Generator(np.random.Philox(key=key))


def replica_rng(seed, index):
    """Independent, reproducible stream for one replica of a seeded run."""
    return _philox(seed, index)


def sample_constant(lam, spec, count, rng_seed):
    """Exact bridge sampler for any model whose characteristic is lam.

    Draws n = y - x i.i.d. variates from the tilted density on the window
    (inverse CDF: log1p(U (e^lam' - 1)) / lam' with lam' = lam * (u - s)) and
    sorts them.  Deterministic given the seed.
    """
    n = spec.n
    rng = _philox(rng_seed)
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


def sample_rejection(model, spec, count, rng_seed, pot=None, max_draws=None):
    """Rejection sampler from the exact tilted proposal (validation device).

    Proposes constant-characteristic paths at the lower characteristic bound
    and accepts with exp(xi(t) - lam_hat * sum (t_j - s) - M).  Acceptance
    decays geometrically with n, so the sampler is gated to n <= 20.
    """
    n = spec.n
    if n > 20:
        raise OracleScale(f"rejection sampling gated to n <= 20, bridge has {n}")
    if pot is None:
        pot = characteristic_integrals(model, spec)
    lam_hat = characteristic_bounds(model, (spec.s, spec.u), (spec.x, max(spec.x, spec.y - 1))).inf
    log_m = float(sum(pot.xi(j + 1, spec.u) - lam_hat * spec.length for j in range(n)))
    rng = _philox(rng_seed)
    out = []
    draws = 0
    cap = max_draws or int(5e7)
    batch = max(64, int(count))
    while len(out) < count:
        lam_eff = lam_hat * spec.length
        u01 = rng.random((batch, n))
        v = u01 if lam_eff == 0.0 else np.log1p(u01 * math.expm1(lam_eff)) / lam_eff
        times = spec.s + spec.length * np.sort(v, axis=1)
        acc_u = rng.random(batch)
        for row, a in zip(times, acc_u):
            draws += 1
            if draws > cap:
                raise OracleScale("rejection sampler exceeded its draw budget")
            log_ratio = pot.total(row) - lam_hat * float(np.sum(row - spec.s)) - log_m
            if a <= 0.0 or math.log(a) <= log_ratio:
                out.append(PathSample(spec.x, tuple(row)))
                if len(out) == count:
                    break
    return out
