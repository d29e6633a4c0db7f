"""Samplers and the jump-time quadrature oracle for pinned counting paths.

The jump times (T_1, ..., T_n) of an x -> y bridge have a density on the
ordered simplex proportional to exp(sum_j xi_j(t_j)), where xi_j is the
cumulative integral in time of the characteristic one state below the j-th
jump.  Three consumers of that fact live here:

* an exact sampler for constant characteristics (inverse CDF of the tilted
  density, sorted);
* a brute-force oracle that integrates the simplex density with iterated
  cumulative quadrature (small n only);
* a thinning sampler driven by the pinned jump rate from the solved h-field,
  which works for any model and any n.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson

from .engine import LOG_FLOOR
from .errors import (IndexOut, MajorantBreach, NotSorted, OracleScale, PinMiss,
                     Underflow)
from .intensity import ExpAffine, characteristic_bounds

# thinning controls
_WINDOW_FRAC = 0.01      # base majorant refresh interval, fraction of the window
_PIN_EPS = 1e-9          # paths are cut off at u - _PIN_EPS * (u - s)
_SAFETY = 1.4            # majorant = safety x observed window maximum
_MAX_BREACH = 100


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


def _fast_rate(model):
    """Scalar python-float rate closure (hot path of the thinning loop)."""
    if isinstance(model, ExpAffine):
        a, b, lam = model.a, model.b, model.lam
        return lambda t, z: math.exp(lam * t) * (a + b * z)
    return lambda t, z: float(model.rate(t, z))


class _PinnedRate:
    """Scalar bridge-rate evaluator mirroring HField.bridge_rate on floats."""

    def __init__(self, h):
        self.spec = h.spec
        self.u = h.spec.u
        self.times = h.times.tolist()
        self.logh = [h.logh[:, zi].tolist() for zi in range(h.spec.n + 1)]
        self.anchor_t = [float(h.times[j]) if j >= 0 else None for j in h.anchor_idx]
        self.anchor_k = [float(h.node_bridge_rates[j, zi]) if j >= 0 else 0.0
                         for zi, j in enumerate(h.anchor_idx)]
        self.rate = _fast_rate(h.model)
        self.x = h.spec.x
        self.n = h.spec.n

    def __call__(self, t, zi):
        if zi >= self.n:
            return 0.0
        ta = self.anchor_t[zi]
        if ta is None:
            raise Underflow(f"pin probability underflowed for state {self.x + zi}")
        if t >= ta:
            base = self.anchor_k[zi]
            if base <= 0.0:
                raise Underflow(f"pin probability underflowed for state {self.x + zi}")
            return base * (self.u - ta) / (self.u - t)
        idx = bisect_right(self.times, t) - 1
        t0, t1 = self.times[idx], self.times[idx + 1]
        w = (t - t0) / (t1 - t0)
        ga, gb = self.logh[zi][idx], self.logh[zi][idx + 1]
        ha, hb = self.logh[zi + 1][idx], self.logh[zi + 1][idx + 1]
        if ga < LOG_FLOOR or gb < LOG_FLOOR or ha < LOG_FLOOR or hb < LOG_FLOOR:
            raise Underflow(f"log h below {LOG_FLOOR} near (t={t}, z={self.x + zi})")
        g0 = ga + w * (gb - ga)
        g1 = ha + w * (hb - ha)
        return self.rate(t, self.x + zi) * math.exp(g1 - g0)


class _MajorantProfile:
    """Piecewise-constant majorant of the pinned rate for one ladder state.

    Windows are the base refresh intervals, halved geometrically inside the
    final one so the pin divergence never leaves a constant majorant far
    behind.  Windows whose rate evaluation underflows get an infinite
    majorant; proposals then always land before them.
    """

    def __init__(self, bounds, kfun, zi, safety=None):
        self.bounds = bounds
        self.zi = zi
        self.kfun = kfun
        self.safety = _SAFETY if safety is None else safety
        self._build()

    def _build(self):
        b = self.bounds
        maj = []
        for w in range(len(b) - 1):
            a, c = b[w], b[w + 1]
            mid = 0.5 * (a + c)
            try:
                m = self.safety * max(self.kfun(a, self.zi),
                                      self.kfun(mid, self.zi),
                                      self.kfun(c, self.zi))
            except Underflow:
                m = math.inf
            maj.append(m)
        self.maj = maj
        cum = [0.0]
        for w, m in enumerate(maj):
            cum.append(cum[-1] + m * (b[w + 1] - b[w]))
        self.cum = cum

    def escalate(self, t_breach, k_seen):
        w = bisect_right(self.bounds, t_breach) - 1
        self.maj[w] = max(self.safety * k_seen, 2.0 * self.maj[w])
        cum = [0.0]
        for i, m in enumerate(self.maj):
            cum.append(cum[-1] + m * (self.bounds[i + 1] - self.bounds[i]))
        self.cum = cum

    def propose(self, t, e_unit):
        """First proposal time after t for exponential unit mass e_unit, or None."""
        b, cum, maj = self.bounds, self.cum, self.maj
        w = bisect_right(b, t) - 1
        if w >= len(maj):
            return None
        target = cum[w] + maj[w] * (t - b[w]) + e_unit
        if target >= cum[-1]:
            return None
        j = bisect_right(cum, target) - 1
        m = maj[j]
        if not math.isfinite(m):
            raise Underflow("proposal fell into an underflowed pin window")
        return b[j] + (target - cum[j]) / m, m


def _windows(spec):
    s, u = spec.s, spec.u
    length = spec.length
    base = _WINDOW_FRAC * length
    horizon = u - _PIN_EPS * length
    bounds = [s + k * base for k in range(int(round(1.0 / _WINDOW_FRAC)))]
    d = 0.5 * base
    while u - d < horizon:
        bounds.append(u - d)
        d *= 0.5
    bounds.append(horizon)
    return bounds, horizon


class _Draws:
    """Buffered uniform draws from one generator."""

    def __init__(self, rng, block=192):
        self.rng = rng
        self.block = block
        self._buf = rng.random(block)
        self._i = 0

    def uniform(self):
        if self._i >= self._buf.size:
            self._buf = self.rng.random(self.block)
            self._i = 0
        v = self._buf[self._i]
        self._i += 1
        return float(v)

    def exp_unit(self):
        return -math.log1p(-self.uniform())


def sample_bridge(model, spec, h, count, rng_seed, stats=None):
    """Thinning sampler for the pinned process of any intensity model.

    Simulates the jump process with the h-transformed rate against per-state
    piecewise-constant majorants.  Every returned path has exactly n = y - x
    jumps: the diverging pin rate forces the remaining jumps before the
    cutoff at u - 1e-9 * (u - s), and a path that still misses raises
    :class:`~countbridge.errors.PinMiss` (an event of frequency zero).
    Replica r draws from an independent stream keyed by (rng_seed, r).
    """
    if model is not None and h.model is not model:
        raise ValueError("h was solved for a different model")
    kfun = _PinnedRate(h)
    bounds, horizon = _windows(spec)
    profiles = {}
    n = spec.n
    totals = {"proposals": 0, "accepts": 0, "breaches": 0}

    paths = []
    for r in range(int(count)):
        draws = _Draws(replica_rng(rng_seed, r))
        t = spec.s
        zi = 0
        jumps = []
        anchor = t
        breaches = 0
        while zi < n:
            prof = profiles.get(zi)
            if prof is None:
                prof = profiles[zi] = _MajorantProfile(bounds, kfun, zi)
            step = prof.propose(t, draws.exp_unit())
            if step is None:
                break
            tau, m = step
            totals["proposals"] += 1
            kv = kfun(tau, zi)
            if kv > m:
                breaches += 1
                totals["breaches"] += 1
                if breaches > _MAX_BREACH:
                    raise MajorantBreach(
                        f"{breaches} majorant breaches in one path; rate field looks stale")
                prof.escalate(tau, kv)
                t = anchor
                continue
            if draws.uniform() * m <= kv:
                jumps.append(tau)
                zi += 1
                anchor = tau
                totals["accepts"] += 1
                t = tau
            else:
                t = tau
        if zi != n:
            raise PinMiss(f"path {r} ended with {zi} of {n} jumps")
        paths.append(PathSample(spec.x, tuple(jumps)))
    if stats is not None:
        stats.update(totals)
    return paths


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
