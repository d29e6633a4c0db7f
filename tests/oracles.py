"""Independent oracles for the tests: quadrature, rejection sampling, closed forms,
and the duality estimator read one jump index at a time.

The jump times (T_1, ..., T_n) of an x -> y bridge have a density on the
ordered simplex proportional to exp(sum_j xi_j(t_j)), where xi_j is the
cumulative integral in time of the characteristic one state below the j-th
jump.  The devices here integrate or sample that density directly, never
touching the h-field, so they check the engine and the samplers from
outside.  Every exp-affine bridge also has a closed form: on the clock
tau(t) = expm1(lam t) / lam its rate is time-homogeneous, so log h is a
negative-binomial (or Poisson) transition law and each marginal is binomial.
They need scipy (``cumulative_simpson``, ``expm``, ``gammaln``, ``binom``); the package
itself needs numpy only.
"""

import math

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.linalg import expm
from scipy.special import gammaln
from scipy.stats import binom

from countbridge.analytic import binomial_tail, tilted_cdf_window
from countbridge.errors import CountBridgeError, DegenerateVariance, IndexOut, NotSorted
from countbridge.intensity import CharacteristicBounds, ExpAffine
from countbridge.sampler import PathBatch, seeded_rng
from countbridge.verify import DOMINANCE_TIMES, BoundReport, DualityResult


class OracleScale(CountBridgeError):
    """Quadrature oracle requested beyond its supported dimension."""


# The legacy parametrisations of ExpAffine, as the descriptor families ``space_linear``,
# ``time_exponential`` and ``product`` name them (``intensity._PARAMETRIC``).

def SpaceLinear(lam, alpha, state_floor=0):
    """Rate lam * z + alpha, constant in time.  Characteristic is lam."""
    return ExpAffine(alpha, lam, 0.0, state_floor)


def TimeExponential(alpha, lam, state_floor=0):
    """Rate alpha * exp(lam * t), constant in space.  Characteristic is lam."""
    return ExpAffine(alpha, 0.0, lam, state_floor)


def Product(alpha, lam, beta, state_floor=0):
    """Rate alpha * exp(lam * t) * (1 + beta * z), i.e. a = alpha and b = alpha * beta."""
    return ExpAffine(alpha, alpha * beta, lam, state_floor)


class FullWindows:
    """``model`` with characteristic bounds (-inf, inf).

    The engine's window cuts then fall at the window ends, so every state
    gets the whole mesh, graded for depth n, and the same column kernel
    solves the unwindowed reference of a windowed field.  Every other
    attribute is the model's own.
    """

    def __init__(self, model):
        self.model = model

    def characteristic_bounds(self, t_window=(0.0, 1.0), z_range=None):
        return CharacteristicBounds(-math.inf, math.inf)

    def __getattr__(self, name):
        return getattr(self.model, name)


def generic_characteristic(model, t, z):
    """Characteristic assembled from three separate reads of the model: rate,
    rate_dt and rate one state up.

    Equals d/dt log rate + rate(., z+1) - rate(., z) where the rate is
    positive, and 0 where it vanishes; the reference for the closed forms of
    ``ExpAffine`` and for the one-read assembly of ``Tabulated``.
    """
    lz = np.asarray(model.rate(t, z), dtype=float)
    lt = np.asarray(model.rate_dt(t, z), dtype=float)
    lup = np.asarray(model.rate(t, np.asarray(z) + 1), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(lz > 0.0, lt / lz + lup - lz, 0.0)
    return float(out) if out.ndim == 0 else out


def grid_index(table, t, tol=1e-9):
    """Row of a marginal table at output time t, which must lie within tol of t."""
    idx = int(np.argmin(np.abs(table.times - t)))
    assert abs(table.times[idx] - t) <= tol, f"t={t} is not an output grid node"
    return idx


def dense_logh(h):
    """The field's banded ``log h`` as one (mesh nodes x ladder) array, read from
    the band's offsets: -inf outside each state's window."""
    band, mesh = h.logh, h.mesh
    out = np.full(band.shape, -np.inf)
    for zi, (a, b) in enumerate(zip(mesh.h_lo, mesh.h_hi)):
        out[a:b + 1, zi] = band.values[band.start[zi] + a:band.start[zi] + b + 1]
    return out


def _tau_gap(lam, t0, t1):
    """tau(t1) - tau(t0) for the clock tau(t) = expm1(lam t) / lam (tau = t at lam = 0)."""
    t0, t1 = np.asarray(t0, dtype=float), np.asarray(t1, dtype=float)
    if lam == 0.0:
        return t1 - t0
    return np.exp(lam * t0) * np.expm1(lam * (t1 - t0)) / lam


def exp_affine_logh(model, spec, times):
    """Closed-form log h(t, z) of an ``ExpAffine`` model: rows over ``times``,
    columns over the ladder.

    On the clock tau the rate e^(lam t) (a + b z) becomes the time-homogeneous
    a + b z, so the jumps over [t, u] follow the negative-binomial transition
    law with c = a / b and D = tau(u) - tau(t): log h(t, z) = lgamma(c + y) -
    lgamma(c + z) - lgamma(y - z + 1) - (a + b z) D + (y - z) log(1 - e^(-b D)).
    At b = 0 it is the Poisson law with mean a D.
    """
    a, b = model.a, model.b
    d = _tau_gap(model.lam, np.asarray(times, dtype=float), spec.u)[:, None]
    z = spec.ladder()[None, :].astype(float)
    k = spec.y - z
    with np.errstate(divide="ignore", invalid="ignore"):
        if b == 0.0:
            out = k * np.log(a * d) - a * d - gammaln(k + 1.0)
        else:
            c = a / b
            out = (gammaln(c + spec.y) - gammaln(c + z) - gammaln(k + 1.0)
                   - (a + b * z) * d + k * np.log(-np.expm1(-b * d)))
    # at u the law is the point mass at y
    return np.where(d > 0, out, np.where(k == 0, 0.0, -np.inf))


def exp_affine_cdf(model, spec, times):
    """The closed-form p(t) of an ``ExpAffine`` bridge: the CDF of each of its
    n i.i.d. unordered jump times, p(t) = expm1(b (tau(t) - tau(s))) /
    expm1(b (tau(u) - tau(s))), the constant-characteristic bridge of the clock
    tau ((tau(t) - tau(s)) / (tau(u) - tau(s)) at b = 0).  Its gaps are scaled by
    e^(lam s), which loses precision where lam s < -708 (subnormal) and is 0 below
    about -745; ``time_only_cdf`` checks such bridges."""
    t = np.asarray(times, dtype=float)
    v, w = _tau_gap(model.lam, spec.s, t), _tau_gap(model.lam, spec.s, spec.u)
    b = model.b
    if b == 0.0:
        p = v / w
    else:
        # the ratio of expm1's, written so that neither overflows
        p = np.exp(b * (v - w)) * np.expm1(-b * v) / np.expm1(-b * w)
    return np.clip(p, 0.0, 1.0)


def exp_affine_marginals(model, spec, times):
    """Closed-form P(X_t = z) of an ``ExpAffine`` bridge: rows over ``times``,
    columns over the ladder.  X_t - x is Binomial(n, p(t)), p the
    :func:`exp_affine_cdf`."""
    p = exp_affine_cdf(model, spec, times)
    return binom.pmf(np.arange(spec.n + 1)[None, :], spec.n, p[:, None])


def time_only_cdf(model, spec, times):
    """p(t) of a bridge whose characteristic c(t) is the same in every state: the
    CDF of each of its n i.i.d. unordered jump times, so X_t - x is Binomial(n,
    p(t)).  Such a bridge is the inhomogeneous Poisson process's of rate g =
    exp(int_s^t c), so p(t) = G(t) / G(u) with G = int_s^t g.

    Both integrals are 20-point Gauss-Legendre rules on cells: the knots of a
    ``Tabulated`` model cut [s, u], and each piece is cut into as many equal cells
    as int |c| over it has nats, at least 4, so that g changes by at most a factor
    of about e over a cell; a time inside a cell takes the rule over the part of it
    before the time, the inner integral at each of its nodes too.  g is formed as
    exp(int c - M), M the largest int_s^t c at the cells' edges, so it neither
    overflows nor leaves every cell at 0.  A characteristic that differs between
    ladder states by more than 1e-12 at the cells' nodes is refused (ValueError):
    the law is then no binomial.
    """
    knots = [k for k in getattr(model, "t_grid", ()) if spec.s < k < spec.u]
    ends = np.concatenate([[spec.s], knots, [spec.u]])
    x, w = np.polynomial.legendre.leggauss(20)

    def nodes(a, b):
        # the rule's nodes on [a, b] and its half-width, a and b arrays of one shape
        half = (b - a) / 2.0
        return (a + half)[..., None] + half[..., None] * x, half

    def rule(f, a, b):
        at, half = nodes(a, b)
        return half * (f(at) @ w)

    def characteristic(t):
        return model.characteristic(t, spec.x)

    def cut(counts):
        # each piece of [s, u] cut into its count of equal cells
        return np.append(np.concatenate([np.linspace(a, b, k + 1)[:-1] for a, b, k
                                         in zip(ends[:-1], ends[1:], counts)]), spec.u)

    # refine until every piece has at least as many cells as its int |c| has nats,
    # read on its own cells (at most a few rounds: each reading is finer)
    counts = np.full(ends.size - 1, 4)
    while True:
        edges = cut(counts)
        nats = rule(lambda t: np.abs(characteristic(t)), edges[:-1], edges[1:])
        need = np.ceil(np.add.reduceat(nats, np.cumsum(counts) - counts)).astype(int)
        if np.all(need <= counts):
            break
        counts = np.maximum(counts, need)

    every = model.characteristic(nodes(edges[:-1], edges[1:])[0][..., None], spec.ladder()[:-1])
    spread = float(np.max(np.ptp(every, axis=-1)))
    if spread > 1e-12:
        raise ValueError(f"the characteristic varies in z by {spread:.3g}; the law is no binomial")

    def cumulative(f):
        # int_s^t f as a function of t, from its values at the edges
        at_edges = np.concatenate([[0.0], np.cumsum(rule(f, edges[:-1], edges[1:]))])

        def integral(t):
            i = np.clip(np.searchsorted(edges, t, "right") - 1, 0, edges.size - 2)
            return at_edges[i] + rule(f, edges[i], t)
        return integral, at_edges

    big_c, c_edges = cumulative(characteristic)
    top = np.max(c_edges)
    big_g, g_edges = cumulative(lambda t: np.exp(big_c(t) - top))
    return np.clip(big_g(np.asarray(times, dtype=float)) / g_edges[-1], 0.0, 1.0)


def separable_marginals(model, spec, times):
    """P(X_t = z) of a bridge of a ``Tabulated`` model whose rates are f(t) g(z):
    rows over ``times``, columns over the ladder.

    Hermite interpolation is linear in its data, so the rate between knots is
    H_f(t) g(z), H_f the cubic of f and f'.  On the clock tau(t) = int H_f the
    chain is time-homogeneous, with the pure-birth generator Q of g on states x..y
    (state y keeps its exit rate, -g(y), on the diagonal), so
    P(X_t = z) = [e^{Q (tau(t) - tau(s))}]_{x,z} [e^{Q (tau(u) - tau(t))}]_{z,y}
    / [e^{Q (tau(u) - tau(s))}]_{x,y}.  tau is exact: 3-point Gauss-Legendre on
    each piece of H_f, formed here from the table.  A table whose rates or
    slopes are not f x g within 1e-12 of its largest entry is refused (ValueError).
    """
    t_grid, rates, slopes = model.t_grid, model.rates, model.rates_dt
    f, df, g = rates[:, 0], slopes[:, 0], rates[0] / rates[0, 0]
    for table, col in ((rates, f), (slopes, df)):
        spread = float(np.max(np.abs(np.outer(col, g) - table)))
        if spread > 1e-12 * np.max(np.abs(table)):
            raise ValueError(f"the table is no product f(t) g(z): off by {spread:.3g}")
    x, w = np.polynomial.legendre.leggauss(3)

    def integral(i, t):
        # int H_f from knot i to t, t on piece i: exact for the cubic
        h = (t_grid[i + 1] - t_grid[i])[:, None]
        half = (t - t_grid[i])[:, None] / 2.0
        r = (half * (1.0 + x)) / h
        k = i[:, None]
        cubic = (((2.0 * r - 3.0) * r * r + 1.0) * f[k] + (3.0 - 2.0 * r) * r * r * f[k + 1]
                 + h * r * ((r - 1.0) ** 2 * df[k] + (r - 1.0) * r * df[k + 1]))
        return half[:, 0] * (cubic @ w)

    pieces = np.arange(t_grid.size - 1)
    at_knots = np.concatenate([[0.0], np.cumsum(integral(pieces, t_grid[1:]))])

    def tau(t):
        i = np.clip(np.searchsorted(t_grid, t, "right") - 1, 0, t_grid.size - 2)
        return at_knots[i] + integral(i, t)

    gz = g[spec.ladder() - model.z_min]
    q = np.diag(-gz) + np.diag(gz[:-1], 1)
    ts, tt, tu = tau(np.array([spec.s])), tau(np.asarray(times, dtype=float)), tau(np.array([spec.u]))
    # one expm call per time: scipy's stacked expm is slower than the loop
    left = np.array([expm(q * d)[0] for d in tt - ts])
    right = np.array([expm(q * d)[:, -1] for d in tu - tt])
    return left * right / expm(q * (tu - ts)[0])[0, -1]


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


def sample_rejection(model, spec, count, rng_seed, pot=None, max_draws=None):
    """Rejection sampler from the exact tilted proposal (validation device).

    Proposes constant-characteristic paths at the lower characteristic bound
    and accepts with exp(xi(t) - lam_hat * sum (t_j - s) - M).  Acceptance
    decays geometrically with n, so the sampler is gated to n <= 20.  Returns
    the accepted paths as one :class:`PathBatch`.
    """
    n = spec.n
    if n > 20:
        raise OracleScale(f"rejection sampling gated to n <= 20, bridge has {n}")
    if pot is None:
        pot = characteristic_integrals(model, spec)
    lam_hat = model.characteristic_bounds((spec.s, spec.u), (spec.x, max(spec.x, spec.y - 1))).inf
    log_m = float(sum(pot.xi(j + 1, spec.u) - lam_hat * spec.length for j in range(n)))
    rng = seeded_rng(rng_seed)
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
                out.append(row)
                if len(out) == count:
                    break
    return PathBatch(spec.x, np.array(out).reshape(-1, n))


def sample_bridge_per_state(model, spec, h, count, seed):
    """``sampler.sample_bridge`` one state at a time in path order: each state reads its
    own rates on its window up to its anchor, and np.interp takes its queries in row
    order.  The reference the sorted inversion must equal bit for bit."""
    mass = seeded_rng(seed).standard_exponential((count, spec.n))
    times = np.empty((count, spec.n))
    t = np.full(count, float(spec.s))
    for zi in range(spec.n):
        z, a, j = spec.x + zi, int(h.mesh.h_lo[zi]), int(h.anchor_idx[zi])
        t_tab = h.times[a:j + 1]
        rates = next(model.rate_columns(t_tab, [z], [0], [t_tab.size]))
        lam = np.concatenate([[0.0], np.cumsum(0.5 * (rates[1:] + rates[:-1]) * np.diff(t_tab))])
        big_l = lam - h.logh.column(zi, a, j + 1)
        ta, slope = t_tab[-1], spec.y - z
        to_u = h.mesh.h_hi[zi] == h.times.size - 1
        level = np.interp(t, t_tab, big_l)
        if to_u:
            past = t > ta
            level[past] = big_l[-1] + slope * np.log((spec.u - ta) / (spec.u - t[past]))
        target = level + mass[:, zi]
        t = np.interp(target, big_l, t_tab)
        if to_u:
            past = target > big_l[-1]
            t[past] = spec.u - (spec.u - ta) * np.exp((big_l[-1] - target[past]) / slope)
        times[:, zi] = t
    return PathBatch(spec.x, times)


def duality_per_column(model, spec, u_func, phi, paths):
    """``verify.duality_check`` on given paths of n = spec.n jumps, with the
    reciprocal characteristic read one jump index at a time: one
    characteristic, u and du call per column of the jump-time matrix.  The
    blocked check must return every field of this result exactly."""
    n = spec.n
    count = len(paths)
    times = paths.times

    tm = times[:, : phi.m]
    vals = np.asarray(phi.value(spec.x, tm), dtype=float)
    parts = np.asarray(phi.partials(spec.x, tm), dtype=float)
    lhs_samples = -np.sum(parts * u_func.u((tm - spec.s) / spec.length), axis=1)

    stoch = np.zeros(count)
    for i in range(n):
        col = times[:, i]
        xi_col = np.asarray(model.characteristic(col, spec.x + i), dtype=float)
        tau = (col - spec.s) / spec.length
        stoch += u_func.du(tau) / spec.length + xi_col * u_func.u(tau)
    rhs_samples = vals * stoch

    lhs, rhs = float(lhs_samples.mean()), float(rhs_samples.mean())
    lhs_se = float(lhs_samples.std(ddof=1) / math.sqrt(count))
    rhs_se = float(rhs_samples.std(ddof=1) / math.sqrt(count))
    diff = lhs_samples - rhs_samples
    sd = float(diff.std(ddof=1))
    mean_diff = float(diff.mean())
    if sd == 0.0:
        if mean_diff != 0.0:
            raise DegenerateVariance("both estimators are constant but differ")
        z = 0.0
    else:
        z = mean_diff / (sd / math.sqrt(count))
    return DualityResult(lhs, lhs_se, rhs, rhs_se, z, count, phi.name, u_func.name)


def dominance_per_cell(model, spec, lam, direction, table):
    """``verify.dominance_check`` on a given table, one (time, i) cell at a time:
    one scalar tilted CDF per time, one scalar binomial_tail call per cell, and
    the rows as a list of tuples, time-major.  The array check must return the
    same rows, worst margin and verdicts exactly."""
    n = spec.n
    bounds = model.characteristic_bounds((spec.s, spec.u), (spec.x, max(spec.x, spec.y - 1)))
    if direction == "lower":
        hypothesis_holds = bounds.inf >= lam - 1e-12
    else:
        hypothesis_holds = bounds.sup <= lam + 1e-12
    tails = table.tail_matrix()

    rows = []
    worst = math.inf
    targets = np.linspace(spec.s, spec.u, DOMINANCE_TIMES)[1:-1]
    for idx in np.unique(np.abs(table.times[:, None] - targets).argmin(axis=0)):
        p = float(tilted_cdf_window(lam, spec.s, spec.u, table.times[idx]))
        for i in range(1, n + 1):
            computed = float(tails[idx, i])
            benchmark = binomial_tail(n, p, i)
            margin = benchmark - computed if direction == "lower" else computed - benchmark
            worst = min(worst, margin)
            rows.append((float(table.times[idx]), i, computed, benchmark, margin))
    worst = 0.0 if not rows else worst
    return BoundReport(spec, float(lam), direction, rows, worst, worst >= -1e-6, 1e-6,
                       hypothesis_holds)
