"""Executable checks of the bridge estimates.

Each check turns one proved statement into a numerical verdict:

* ``convexity_check``     - sign of the characteristic forces the mean curve
                            to be convex (nonnegative) or concave (nonpositive);
* ``dominance_check``     - a bound lam on the characteristic bounds every
                            marginal tail by the matching binomial tail;
* ``mean_bound_check``    - the tail bound summed over the ladder: the mean
                            curve stays below the tilted-profile line, both
                            read from x, as E[X_t] - x and n phi(t);
* ``duality_check``       - the integration-by-parts identity tying the jump
                            time derivative of a test functional to a
                            stochastic integral of the characteristic;
* ``lln_experiment``      - bridges 0 -> N, rescaled by N, concentrate on the
                            tilted profile as N grows, at the Kolmogorov rate.

Checks never weaken themselves to pass: a falsified hypothesis (for example a
lam that is not actually a characteristic bound) produces a failing report.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .analytic import binomial_rows, binomial_tail, clock_cdf, tilted_cdf, tilted_cdf_window
from .engine import (OUTPUT_STEP, STEP_BUDGET, BridgeSpec, MarginalTable, check_memory,
                     marginal_table, output_times, second_differences, solve_h)
from .errors import BadParameter, DegenerateVariance, ResourceCap, TooFewSamples, count_text
from .intensity import ExpAffine, _integral
from .sampler import sample_bridge, sample_constant

# The convexity check takes second differences on about INSPECT_POINTS points of
# the mean curve; the dominance check compares tails at the output nodes nearest
# the interior points of DOMINANCE_TIMES equally spaced times.
INSPECT_POINTS = 51
DOMINANCE_TIMES = 21
# The convexity check solves its h-field at this mesh step budget, tighter than
# the engine's default; the lln experiment refuses more jump draws than LLN_BUDGET.
CONVEXITY_BUDGET = 0.005
LLN_BUDGET = 5_000_000
KOLMOGOROV_999 = 1.949474603504375  # the Kolmogorov law's 0.999 quantile
# the duality check reads whole jump-time columns in blocks of at most this many cells
DUALITY_BLOCK = 1 << 16


class BridgeLaw:
    """One bridge's marginal table and paths, by its model's family, on its output grid
    ``times`` (:func:`~countbridge.engine.output_times`), formed first, so every route
    refuses the steps the grid refuses.  An ``ExpAffine`` bridge is exactly binomial
    (:func:`~countbridge.analytic.clock_cdf`): its table is the Binomial(n, p(t)) pmf
    on that grid, pinned at both ends, with offsets E[X_t] - x = n p(t), which
    :meth:`_offset_curve` reads without the pmf, and its paths come from
    :func:`sample_constant`.  Any other model's come from one h-field, solved on first
    use at ``step_budget``.  Each route refuses a bridge that starts below the model's
    state floor when it is first read."""

    def __init__(self, model, spec, h_step=OUTPUT_STEP, step_budget=STEP_BUDGET):
        self.model, self.spec, self.h_step, self.step_budget = model, spec, h_step, step_budget
        self.exact = isinstance(model, ExpAffine)
        self.times = output_times(spec, h_step)

    @functools.cached_property
    def h(self):
        return solve_h(self.model, self.spec, self.h_step, self.step_budget)

    def _clock(self, per_time, what):
        """p(t) on the output times, pinned at both ends, once ``per_time`` bytes a
        time fit the memory cap; ``what`` names them."""
        check_memory(per_time * self.times.size, what)
        p = clock_cdf(self.model, self.spec, self.times)
        p[0], p[-1] = 0.0, 1.0
        return p

    def table(self):
        spec = self.spec
        if not self.exact:
            return marginal_table(self.model, spec, self.h_step, self.h)
        # the rows and the five (times x states) temporaries of their log pmf
        p = self._clock(48 * (spec.n + 1),
                        f"a table of {self.times.size} times x {count_text(spec.n + 1)} states")
        return MarginalTable(spec, self.times, binomial_rows(spec.n, p), 0.0, spec.n * p).validate()

    def _offset_curve(self):
        """(t, E[X_t] - x) rows, x left out so that they do not carry its rounding: an
        ``ExpAffine`` law's n p(t), without the pmf; any other's table's offsets."""
        offset = (self.spec.n * self._clock(96, f"a mean curve of {self.times.size} times")
                  if self.exact else self.table().offsets)
        return np.column_stack([self.times, offset])

    def paths(self, count, seed):
        if self.exact:
            return sample_constant(self.model, self.spec, count, seed)
        return sample_bridge(self.model, self.spec, self.h, count, seed)


@dataclass
class ConvexityReport:
    spec: BridgeSpec
    char_inf: float
    char_sup: float
    claim: str                  # "convex" | "concave" | "linear" | "no claim"
    passed: bool
    worst_violation: float
    tol: float

    def to_dict(self):
        return {
            "check": "convexity",
            "inputs": {"x": self.spec.x, "y": self.spec.y, "s": self.spec.s, "u": self.spec.u,
                       "char_inf": self.char_inf, "char_sup": self.char_sup},
            "tolerances": {"second_difference": self.tol},
            "claim": self.claim,
            "worst_violation": self.worst_violation,
            "verdict": "pass" if self.passed else "fail",
        }


def convexity_check(model, spec, h_step=OUTPUT_STEP, tol=1e-8):
    """Verdict on the curvature of the bridge mean curve.

    Nonnegative characteristic over the window and ladder implies convexity,
    nonpositive implies concavity; a sign-indefinite characteristic yields
    "no claim" (a valid outcome, not an error).  The mean curve is the
    :class:`BridgeLaw`'s, exact for ``ExpAffine`` models.  Second differences
    divide by step^2, which amplifies any integrator noise by ~1e4, so other models'
    tables are run at the mesh budget CONVEXITY_BUDGET, and the differences taken on
    every stride-th output time, the stride nearest (points - 1) / (INSPECT_POINTS - 1)
    whether or not it divides the cells (a stride of 1 amplifies noise stride^2 times).
    """
    if spec.n == 0:
        return ConvexityReport(spec, 0.0, 0.0, "linear", True, 0.0, tol)
    bounds = model.characteristic_bounds((spec.s, spec.u), (spec.x, spec.y - 1))
    curve = BridgeLaw(model, spec, h_step, CONVEXITY_BUDGET)._offset_curve()
    npts = curve.shape[0]
    stride = max(1, int(round((npts - 1) / (INSPECT_POINTS - 1))))
    d2 = second_differences(curve[::stride])

    nonneg = bounds.inf >= -1e-12
    nonpos = bounds.sup <= 1e-12
    if nonneg and nonpos:
        claim, worst = "linear", float(np.max(np.abs(d2[:, 1])))
    elif nonneg:
        claim, worst = "convex", float(max(0.0, -np.min(d2[:, 1])))
    elif nonpos:
        claim, worst = "concave", float(max(0.0, np.max(d2[:, 1])))
    else:
        claim, worst = "no claim", 0.0
    passed = claim == "no claim" or worst <= tol
    return ConvexityReport(spec, bounds.inf, bounds.sup, claim, passed, worst, tol)


@dataclass
class BoundReport:
    """Per-(t, i) comparison of bridge tails against the binomial benchmark."""

    spec: BridgeSpec
    lam_used: float
    direction: str              # "lower" or "upper" characteristic bound
    rows: np.ndarray            # time-major (t, i, computed_tail, benchmark_tail, margin)
    worst_margin: float
    passed: bool
    tol: float
    hypothesis_holds: bool

    def to_dict(self):
        return {
            "check": "dominance",
            "inputs": {"x": self.spec.x, "y": self.spec.y, "s": self.spec.s, "u": self.spec.u,
                       "lambda": self.lam_used, "direction": self.direction,
                       "hypothesis_holds": self.hypothesis_holds},
            "tolerances": {"margin": self.tol},
            "worst_margin": self.worst_margin,
            "grid_points": len(self.rows),
            "verdict": "pass" if self.passed else "fail",
        }


def dominance_check(model, spec, lam, direction="lower", tol=1e-6, *, table):
    """Compare every marginal tail of the bridge, read from its marginal
    ``table``, with its binomial benchmark.

    With ``direction="lower"`` (lam a lower bound of the characteristic on the
    window x ladder) each tail P(X_t >= x+i) must stay below the benchmark
    tail; "upper" flips the inequality.  The margin is signed so that
    negative means violated; the verdict fails when the worst margin drops
    below -tol.  Running with a lam that is not a true bound is allowed and
    simply fails, which is what makes the check falsifiable.  A bridge with no
    jump reads no characteristic: its state range is empty, so the bound holds.
    Another bridge's table raises BadParameter.
    """
    if direction not in ("lower", "upper"):
        raise BadParameter("direction must be 'lower' or 'upper'")
    if table.spec != spec:
        raise BadParameter("the table is of a different bridge")
    n, hypothesis_holds = spec.n, True
    if n:
        bounds = model.characteristic_bounds((spec.s, spec.u), (spec.x, spec.y - 1))
        hypothesis_holds = (bounds.inf >= lam - 1e-12 if direction == "lower"
                            else bounds.sup <= lam + 1e-12)
    targets = np.linspace(spec.s, spec.u, DOMINANCE_TIMES)[1:-1]
    idx = np.unique(np.abs(table.times[:, None] - targets).argmin(axis=0))
    ts = table.times[idx]
    i = np.arange(1, n + 1)
    p = tilted_cdf_window(lam, spec.s, spec.u, ts)
    benchmark = binomial_tail(n, p[:, None], i)
    computed = table.tail_matrix(idx)[:, 1:]
    margin = benchmark - computed if direction == "lower" else computed - benchmark
    worst = float(margin.min()) if margin.size else 0.0
    rows = np.column_stack([np.repeat(ts, n), np.tile(i, len(ts)), computed.ravel(),
                            benchmark.ravel(), margin.ravel()])
    return BoundReport(spec, float(lam), direction, rows, worst, worst >= -tol, tol,
                       hypothesis_holds)


@dataclass
class MeanBoundReport:
    spec: BridgeSpec
    lam_used: float
    worst_margin: float         # min over the grid of bound - mean, both seen from x
    passed: bool
    tol: float
    rows: np.ndarray = field(repr=False)    # (T, 3): t, mean, bound

    def to_dict(self):
        return {
            "check": "mean_bound",
            "inputs": {"x": self.spec.x, "y": self.spec.y, "s": self.spec.s, "u": self.spec.u,
                       "lambda": self.lam_used},
            "tolerances": {"margin": self.tol},
            "worst_margin": self.worst_margin,
            "verdict": "pass" if self.passed else "fail",
        }


def mean_bound_check(model, spec, lam, tol=1e-6, table=None):
    """Check the mean curve against the tilted-profile upper bound at every output time,
    both read from x: a margin is n phi(t), phi the window's tilted CDF at lam, less the
    table's offset E[X_t] - x, so none carries the rounding of x.  The table is the
    engine's unless given; another bridge's raises BadParameter."""
    if table is None:
        table = marginal_table(model, spec)
    elif table.spec != spec:
        raise BadParameter("the table is of a different bridge")
    bound = spec.n * tilted_cdf_window(lam, spec.s, spec.u, table.times)
    margins = bound - table.offsets
    worst = float(np.min(margins)) if margins.size else 0.0
    rows = np.column_stack([table.times, spec.x + table.offsets, spec.x + bound])
    return MeanBoundReport(spec, float(lam), worst, worst >= -tol, tol, rows)


class WindowFunction:
    """A C^1 direction u with u vanishing at both ends of the unit interval.

    A check on a bridge over the window [s, u] reads u and du at
    (t - s) / (u - s), so the direction vanishes at the window's ends, and
    divides du by u - s.
    """

    def __init__(self, u, du, name="u"):
        if abs(u(0.0)) > 1e-12 or abs(u(1.0)) > 1e-12:
            raise BadParameter("u must vanish at 0 and 1")
        self.u = u
        self.du = du
        self.name = name


class TestFunctional:
    """phi(x0; T_1..T_m) with explicit partial derivatives in the jump times."""

    __test__ = False  # not a pytest class, despite the name

    def __init__(self, m, value, partials, name="phi"):
        self.m = _integral("m", m)
        self.value = value        # (x0, times (count, m)) -> (count,)
        self.partials = partials  # (x0, times (count, m)) -> (count, m)
        self.name = name


@dataclass
class DualityResult:
    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float
    z_score: float
    count: int
    phi_name: str = "phi"
    u_name: str = "u"

    def to_dict(self):
        return {
            "check": "duality",
            "inputs": {"phi": self.phi_name, "u": self.u_name, "paths": self.count},
            "lhs": {"estimate": self.lhs, "stderr": self.lhs_se},
            "rhs": {"estimate": self.rhs, "stderr": self.rhs_se},
            "z_score": self.z_score,
        }


def duality_check(model, spec, u_func, phi, count, rng_seed, paths=None):
    """Monte Carlo test of the jump-time integration-by-parts identity.

    Estimates E[-sum_j dphi/dt_j * u(T_j)] and
    E[phi * sum_i (du(T_i) + char(T_i, X_{T_i-}) u(T_i))] on the same bridge
    paths (``paths``, or ``count`` drawn by ``BridgeLaw(model, spec)`` from ``rng_seed``)
    and reports both with standard errors plus the z-score of their paired difference
    (the estimators are correlated by construction, so the difference is what carries
    the test).  The direction is moved onto the bridge's window [s, u]: u and du are read
    at (T - s) / (u - s), and du is divided by u - s.  Fewer than two paths give no
    standard error, so they raise TooFewSamples instead of a z-score of 0,
    and paths of other than n jumps raise BadParameter.  The characteristic, u
    and du are read on blocks of jump-time columns, at most DUALITY_BLOCK cells
    (or one column), which bounds the check's memory; the jump sum still runs
    column by column, in jump order, so results are bitwise the per-column sum's.
    """
    n = spec.n
    if phi.m > n:
        raise BadParameter(f"phi looks at {phi.m} jump times but the bridge has {n}")
    if paths is None:
        paths = BridgeLaw(model, spec).paths(count, rng_seed)
    count = len(paths)
    if count < 2:
        raise TooFewSamples(f"the duality check needs at least two paths, got {count}")
    times = paths.times
    if times.shape[1] != n:
        raise BadParameter(f"the paths have {times.shape[1]} jumps but the bridge has {n}")
    if n == 0:
        return DualityResult(0.0, 0.0, 0.0, 0.0, 0.0, count, phi.name, u_func.name)

    tm = times[:, : phi.m]
    vals = np.asarray(phi.value(spec.x, tm), dtype=float)
    parts = np.asarray(phi.partials(spec.x, tm), dtype=float)
    lhs_samples = -np.sum(parts * u_func.u((tm - spec.s) / spec.length), axis=1)

    stoch = np.zeros(count)
    width = max(1, DUALITY_BLOCK // count)
    for a in range(0, n, width):
        block = times[:, a:a + width]
        states = np.arange(spec.x + a, spec.x + a + block.shape[1])
        xi = np.asarray(model.characteristic(block, states), dtype=float)
        tau = (block - spec.s) / spec.length
        terms = u_func.u(tau)
        terms *= xi
        terms += u_func.du(tau) / spec.length
        for term in terms.T:
            stoch += term
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


def duality_catalog():
    """Five (phi, u) pairs with hand-checked partial derivatives."""
    pairs = []
    pairs.append((
        TestFunctional(
            1,
            lambda x0, T: np.sin(math.pi * T[:, 0]),
            lambda x0, T: math.pi * np.cos(math.pi * T[:, 0])[:, None],
            name="sin(pi T1)"),
        WindowFunction(lambda t: t * (1.0 - t), lambda t: 1.0 - 2.0 * t, name="t(1-t)")))
    pairs.append((
        TestFunctional(
            2,
            lambda x0, T: T[:, 0] * T[:, 1],
            lambda x0, T: np.stack([T[:, 1], T[:, 0]], axis=1),
            name="T1 T2"),
        WindowFunction(lambda t: np.sin(math.pi * t), lambda t: math.pi * np.cos(math.pi * t),
                       name="sin(pi t)")))
    pairs.append((
        TestFunctional(
            3,
            lambda x0, T: np.exp(-T.sum(axis=1)),
            lambda x0, T: -np.exp(-T.sum(axis=1))[:, None] * np.ones((T.shape[0], 3)),
            name="exp(-T1-T2-T3)"),
        WindowFunction(lambda t: t * (1.0 - t) ** 2,
                       lambda t: (1.0 - t) ** 2 - 2.0 * t * (1.0 - t), name="t(1-t)^2")))
    pairs.append((
        TestFunctional(
            2,
            lambda x0, T: np.cos(math.pi * T[:, 1]),
            lambda x0, T: np.stack([np.zeros(T.shape[0]),
                                    -math.pi * np.sin(math.pi * T[:, 1])], axis=1),
            name="cos(pi T2)"),
        WindowFunction(lambda t: np.sin(2.0 * math.pi * t),
                       lambda t: 2.0 * math.pi * np.cos(2.0 * math.pi * t), name="sin(2 pi t)")))
    pairs.append((
        TestFunctional(
            3,
            lambda x0, T: (T[:, 0] + T[:, 2]) ** 2,
            lambda x0, T: np.stack([2.0 * (T[:, 0] + T[:, 2]),
                                    np.zeros(T.shape[0]),
                                    2.0 * (T[:, 0] + T[:, 2])], axis=1),
            name="(T1+T3)^2"),
        WindowFunction(lambda t: t ** 2 * (1.0 - t), lambda t: 2.0 * t - 3.0 * t ** 2,
                       name="t^2(1-t)")))
    return pairs


@dataclass
class LLNReport:
    lam: float
    n_values: list
    replicas: int
    medians: list
    q90s: list
    sqrt_n_medians: list
    passed: bool
    strategy: str
    rng_seed: int
    profile_gap: float | None = None    # sup |p - tilted_cdf(lam)|, ExpAffine models only

    def to_dict(self):
        out = {
            "check": "lln",
            "inputs": {"lambda": self.lam, "N": list(self.n_values),
                       "replicas": self.replicas, "seed": self.rng_seed,
                       "strategy": self.strategy},
            "tolerances": {"sqrt_n_median": KOLMOGOROV_999},
            "sup_distance_median": dict(zip(map(str, self.n_values), self.medians)),
            "sup_distance_q90": dict(zip(map(str, self.n_values), self.q90s)),
            "sqrt_n_median": dict(zip(map(str, self.n_values), self.sqrt_n_medians)),
            "verdict": "pass" if self.passed else "fail",
        }
        if self.profile_gap is not None:
            out["profile_gap"] = dict.fromkeys(map(str, self.n_values), self.profile_gap)
        return out


def _sup_distance(times, lam):
    """sup_t |X_t/N - profile(t)| for each row of sorted jump times.

    The path is a step function and the profile is increasing, so the sup is
    attained at a jump time from one side or the other.
    """
    count, n = times.shape
    p = tilted_cdf(lam, times)
    jj = np.arange(1, n + 1) / n
    above = np.abs(jj[None, :] - p)
    below = np.abs(jj[None, :] - 1.0 / n - p)
    return np.maximum(above, below).max(axis=1)


def lln_experiment(model, lam, n_values, replicas, rng_seed, h_step=OUTPUT_STEP):
    """Sample 0 -> N bridges and measure the sup distance to the tilted profile.

    The paths are the :class:`BridgeLaw`'s: ``ExpAffine`` models are drawn exactly,
    ``Tabulated`` ones on a solved 0 -> N h-field (time and memory grow as N^2).
    Reports the median and 90th percentile of the sup distance per N, and for an
    ``ExpAffine`` model the gap sup |p - tilted_cdf(lam)| over 1,001 times from its
    limit p (:func:`~countbridge.analytic.clock_cdf`, the same at every N).  As X_t / N
    is the empirical CDF of the jump times, the verdict passes when sqrt(N) times
    every median is at most KOLMOGOROV_999, the Kolmogorov law's 0.999 quantile.
    """
    n_values = [_integral("N", v) for v in n_values]
    replicas, rng_seed = _integral("replicas", replicas), _integral("seed", rng_seed)
    if not n_values or any(v <= 0 for v in n_values):
        raise BadParameter("lln needs at least one N, and every N positive")
    if len(set(n_values)) < len(n_values):
        raise BadParameter(f"N values must be distinct, got {', '.join(map(count_text, n_values))}")
    if replicas < 1:
        raise TooFewSamples(f"the lln experiment needs at least one replica, got {count_text(replicas)}")
    work = sum(n_values) * replicas
    if work > LLN_BUDGET:
        raise ResourceCap(f"requested {count_text(work)} jump draws exceeds budget {LLN_BUDGET}")

    medians, q90s = [], []
    for k, big_n in enumerate(n_values):
        seed_k = (rng_seed + 0x9E3779B97F4A7C15 * (k + 1)) & ((1 << 63) - 1)
        law = BridgeLaw(model, BridgeSpec(0, big_n), h_step)
        sup = _sup_distance(law.paths(replicas, seed_k).times, lam)
        medians.append(float(np.quantile(sup, 0.5)))
        q90s.append(float(np.quantile(sup, 0.9)))
    scaled = [math.sqrt(big_n) * med for big_n, med in zip(n_values, medians)]
    strategy, gap = "h-transform-inversion", None
    if law.exact:
        ts = np.linspace(0.0, 1.0, 1001)
        strategy = "exact-order-statistics"
        gap = float(np.max(np.abs(clock_cdf(model, law.spec, ts) - tilted_cdf(lam, ts))))
    return LLNReport(float(lam), n_values, replicas, medians, q90s, scaled,
                     max(scaled) <= KOLMOGOROV_999, strategy, rng_seed, gap)
