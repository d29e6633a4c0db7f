"""Both marginal routes and the h-field against the exp-affine closed forms, and
the engine's tables of Tabulated bridges against their binomial and clock laws."""

import math

import numpy as np
import pytest
from scipy.stats import binom

from countbridge.analytic import binomial_rows, clock_cdf, tilted_cdf_window
from countbridge.engine import (BridgeSpec, marginal_table, marginal_table_two_sided,
                               output_times, solve_h)
from countbridge.intensity import ExpAffine, Poisson, Tabulated
from countbridge.sampler import sample_bridge
from countbridge.verify import KOLMOGOROV_999, dominance_check
from oracles import (Product, SpaceLinear, TimeExponential, dense_logh, exp_affine_cdf,
                     exp_affine_logh, exp_affine_marginals, separable_marginals, time_only_cdf)

BRIDGES = {
    "time-exponential-200": (TimeExponential(1.0, -3.0), BridgeSpec(0, 200)),
    "product-200": (Product(1.0, 3.0, 0.1), BridgeSpec(0, 200)),
    "exp-affine-window": (ExpAffine(0.7, 1.3, -2.0), BridgeSpec(3, 40, 0.2, 0.9)),
    "product-concave": (Product(2.0, -4.0, 0.5), BridgeSpec(0, 8)),
    "space-linear-136": (SpaceLinear(2.0, 1.0), BridgeSpec(0, 136)),
}


@pytest.fixture(scope="module", params=list(BRIDGES))
def solved(request):
    model, spec = BRIDGES[request.param]
    return model, spec, solve_h(model, spec)


def test_oracle_is_the_tilted_binomial_for_a_constant_characteristic():
    # b = 0 or lam = 0 leaves the characteristic constant, where the bridge law is
    # the tilted binomial and h of the last jump the one-jump closed form
    t = np.linspace(0.2, 0.9, 15)
    spec = BridgeSpec(1, 7, 0.2, 0.9)
    for model, lam in ((TimeExponential(1.5, -2.5), -2.5), (SpaceLinear(1.7, 0.4), 1.7)):
        p = tilted_cdf_window(lam, spec.s, spec.u, t)
        want = binom.pmf(np.arange(7)[None, :], 6, p[:, None])
        np.testing.assert_allclose(exp_affine_marginals(model, spec, t), want, rtol=1e-12, atol=1e-13)
    a, spec, t = 2.0, BridgeSpec(0, 1, 0.2, 0.9), t[:-1]
    d = spec.u - t
    np.testing.assert_allclose(exp_affine_logh(Poisson(a), spec, t),
                               np.column_stack([np.log(a * d) - a * d, -a * d]), rtol=1e-13)


def test_the_oracle_serves_a_subnormal_p():
    # a steep bridge whose p(t) is 1.5e-323 at the first output time where it is
    # positive, and scipy's binom.pmf raises OverflowError: the oracle's pmf, formed in
    # logs, is the Binomial(n, p(t)) law there and at every other output time
    model, spec = ExpAffine(1.0, 1987.6, 0.0), BridgeSpec(2, 11, 0.0093, 0.5692)
    t = output_times(spec, 1e-3)
    p = exp_affine_cdf(model, spec, t)
    assert 0.0 < p[np.flatnonzero(p)[0]] < 1e-322
    want = exp_affine_marginals(model, spec, t)
    assert np.max(np.abs(want.sum(axis=1) - 1.0)) <= 1e-12
    np.testing.assert_allclose(want, binomial_rows(spec.n, p), rtol=1e-12, atol=1e-300)


def test_both_routes_match_the_closed_form(solved):
    # the engine's marginals of every exp-affine bridge are the binomial law on the
    # clock tau, to the integrator's accuracy
    model, spec, h = solved
    for route in (marginal_table, marginal_table_two_sided):
        table = route(model, spec, h=h)
        assert np.max(np.abs(table.probs - exp_affine_marginals(model, spec, table.times))) <= 1e-6


def test_a_deep_bridge_on_a_short_window_matches_the_closed_form():
    # 300 jumps in 0.02 at h_step 1e-2: a pin layer sized by the output step alone
    # left the two-sided table 1.15e-4 off; sized by the jump spacing it is exact
    model, spec = Poisson(1.0), BridgeSpec(0, 300, 0.5, 0.52)
    table = marginal_table_two_sided(model, spec, 1e-2)
    assert np.max(np.abs(table.probs - exp_affine_marginals(model, spec, table.times))) <= 1e-6


def test_log_h_matches_the_closed_form_where_the_bridge_holds_the_state(solved):
    # on every cell the bridge holds with probability 1e-10 or more, up to each
    # state's pin asymptote anchor, log h is the negative-binomial law's.  The
    # bounds were fixed on the n-graded mesh, whose worst cases were 1.4e-6 before
    # the pin layer (time-exponential-200) and 3.2e-4 inside it (product-200, at an
    # anchor five states below the pin)
    model, spec, h = solved
    last = h.times.size - 1
    exact = exp_affine_logh(model, spec, h.times)
    held = exp_affine_marginals(model, spec, h.times) >= 1e-10
    node = np.arange(last + 1)[:, None]
    checked = held & (node <= np.append(h.anchor_idx, last))
    assert np.all(np.isfinite(dense_logh(h)[checked]))
    err = np.where(checked, np.abs(dense_logh(h) - np.where(checked, exact, 0.0)), 0.0)
    fwd = h.mesh.n_fwd_nodes
    assert np.max(err[:fwd]) <= 5e-6
    assert np.max(err[fwd:]) <= 1e-3


def _separable(t_grid, f, df, a, b, n, supplied=True):
    """Rates f(t) (a + b z) on ``t_grid``, states 0..n: characteristic f'/f + b f,
    the same in every state."""
    states = a + b * np.arange(n + 1)
    return Tabulated(t_grid, 0, np.outer(f, states), np.outer(df, states) if supplied else None)


def _wave(n, b=0.8, w=0.2, phase=1.0, kappa=0.2, c=1.3):
    """a g(t) (1 + kappa z), g = exp(b t + w sin(2 pi t + phase)), on 11 nodes, a
    set as the paths-thinning workload sets it (c n jumps expected)."""
    t = np.linspace(0.0, 1.0, 11)
    fine = np.linspace(0.0, 1.0, 2001)
    g_int = float(np.trapezoid(np.exp(b * fine + w * np.sin(2.0 * math.pi * fine + phase)), fine))
    a = math.log1p(kappa * c * n) / (kappa * g_int)
    g = np.exp(b * t + w * np.sin(2.0 * math.pi * t + phase))
    dg = g * (b + 2.0 * math.pi * w * np.cos(2.0 * math.pi * t + phase))
    return _separable(t, a * g, a * dg, 1.0, kappa, n)


def _sine(n, supplied=True):
    """f = 1 + 0.8 sin 5t on 6 nodes, b = 0.5: the characteristic changes sign
    (about -6.4 to 5.0)."""
    t = np.linspace(0.0, 1.0, 6)
    return _separable(t, 1.0 + 0.8 * np.sin(5.0 * t), 4.0 * np.cos(5.0 * t), 1.0, 0.5, n, supplied)


TIME_ONLY = {
    "wave-22": (_wave(22), BridgeSpec(0, 22)),
    "wave-60": (_wave(60), BridgeSpec(0, 60)),
    "sine-40": (_sine(40), BridgeSpec(0, 40)),
    "sine-numeric-window": (_sine(30, supplied=False), BridgeSpec(3, 28, 0.1, 0.8)),
}


@pytest.mark.parametrize("model, spec", TIME_ONLY.values(), ids=TIME_ONLY.keys())
def test_a_time_only_table_is_its_binomial_law(model, spec):
    # a characteristic c(t) shared by every state makes X_t - x Binomial(n, p(t)),
    # p = G / G(u), G = int exp(int c): the engine's pmf and tails are that law's
    # to the published 1e-6
    table = marginal_table(model, spec, 1e-2)
    p = time_only_cdf(model, spec, table.times)
    k = np.arange(spec.n + 1)
    assert np.max(np.abs(table.probs - binom.pmf(k, spec.n, p[:, None]))) <= 1e-6
    tails = np.cumsum(table.probs[:, ::-1], axis=1)[:, ::-1]
    assert np.max(np.abs(tails - binom.sf(k - 1, spec.n, p[:, None]))) <= 1e-6


@pytest.mark.parametrize("name, seed", [("wave-22", 3701), ("sine-40", 3702)])
def test_sample_bridge_draws_a_time_only_table_from_its_binomial_law(name, seed):
    # a path's n jump times are the sorted values of n i.i.d. draws of p, so the
    # jump times of all paths, pooled, are i.i.d. draws of p: their empirical CDF is
    # within the Kolmogorov law's 0.999 quantile of p, on a grid of 2,001 times
    model, spec = TIME_ONLY[name]
    times = np.sort(sample_bridge(model, spec, solve_h(model, spec, 1e-2), 1000, seed).times,
                    axis=None)
    grid = np.linspace(spec.s, spec.u, 2001)
    gap = np.max(np.abs(np.searchsorted(times, grid, "right") / times.size
                        - time_only_cdf(model, spec, grid)))
    assert math.sqrt(times.size) * gap <= KOLMOGOROV_999


def test_time_only_cdf_is_the_exp_affine_closed_form_and_refuses_a_state_dependent_table():
    for model, spec in BRIDGES.values():
        t = np.linspace(spec.s, spec.u, 101)
        assert np.max(np.abs(time_only_cdf(model, spec, t) - exp_affine_cdf(model, spec, t))) <= 1e-12
    # f(t) (1 + z) + z: the characteristic's f'/f part depends on the state
    t = np.linspace(0.0, 1.0, 6)
    f = 1.0 + 0.8 * np.sin(5.0 * t)
    z = np.arange(11)
    model = Tabulated(t, 0, np.outer(f, 1.0 + z) + z, np.outer(4.0 * np.cos(5.0 * t), 1.0 + z))
    with pytest.raises(ValueError, match="varies in z"):
        time_only_cdf(model, BridgeSpec(0, 10), t)


def _tails(probs):
    return np.cumsum(probs[:, ::-1], axis=1)[:, ::-1]


def _steep_linear(b, n=20):
    """Rates 1 + b z on knots 0, 0.5 and 1, states 0..n + 1, constant in time: the
    characteristic is b in every state, so the bridge is ExpAffine(1, b, 0)'s."""
    rates = np.tile(1.0 + b * np.arange(n + 2.0), (3, 1))
    return Tabulated([0.0, 0.5, 1.0], 0, rates, np.zeros_like(rates)), ExpAffine(1.0, b, 0.0)


STEEP = {**{f"linear-{b}": (*_steep_linear(b), BridgeSpec(0, 20)) for b in (800, 1000, 2000)},
         "exp-affine-1-2-6": (ExpAffine(1.0, 2.0, 6.0), ExpAffine(1.0, 2.0, 6.0), BridgeSpec(0, 40))}


@pytest.mark.parametrize("h_step", [1e-2, 5e-3, 2e-3, 1e-3])
@pytest.mark.parametrize("model, law, spec", STEEP.values(), ids=STEEP.keys())
def test_a_steep_bridge_through_the_engine_is_its_binomial_law(model, law, spec, h_step):
    # the pin layer's last step [u - d0, u] is graded by no budget: sized by the output
    # step alone it left these tables up to 7.3e-4 off their law (linear-2000 5.3e-5
    # at 2e-3), by the largest rate at u they are within 2.7e-8
    table = marginal_table(model, spec, h_step, solve_h(model, spec, h_step))
    p = clock_cdf(law, spec, table.times)
    p[0], p[-1] = 0.0, 1.0
    want = binomial_rows(spec.n, p)
    assert np.max(np.abs(table.probs - want)) <= 1e-7
    assert np.max(np.abs(_tails(table.probs) - _tails(want))) <= 1e-7


def _separable_table(g, n):
    """Rates f(t) g(z), f = 1 + 0.8 sin 5t on 6 nodes with its exact f', states 0..n."""
    t, gz = np.linspace(0.0, 1.0, 6), g(np.arange(n + 1.0))
    return Tabulated(t, 0, np.outer(1.0 + 0.8 * np.sin(5.0 * t), gz),
                     np.outer(4.0 * np.cos(5.0 * t), gz))


SEPARABLE = {
    "square-12": (_separable_table(lambda z: 1.0 + z * z, 12), BridgeSpec(0, 12)),
    "alternating-20": (_separable_table(lambda z: 2.0 + 1.5 * (z % 2) + 0.1 * z, 20),
                       BridgeSpec(0, 20)),
    "falling-10": (_separable_table(lambda z: 5.0 / (1.0 + z), 10), BridgeSpec(0, 10)),
}


@pytest.mark.parametrize("model, spec", SEPARABLE.values(), ids=SEPARABLE.keys())
def test_a_separable_table_is_its_clock_law(model, spec):
    # rates f(t) g(z) give a characteristic f'/f + f (g(z + 1) - g(z)) that varies in
    # both t and z; on the clock int f the chain is homogeneous, so its law is a
    # product of matrix exponentials.  The engine's pmf and tails at the defaults are
    # that law's to the published 1e-6 (3.5e-10, 5.3e-9 with tails 1.5e-8, 1.8e-10)
    table = marginal_table(model, spec)
    want = separable_marginals(model, spec, table.times)
    assert np.max(np.abs(table.probs - want)) <= 1e-6
    assert np.max(np.abs(_tails(table.probs) - _tails(want))) <= 1e-6


def test_separable_marginals_is_the_exp_affine_closed_form_and_refuses_a_sum():
    # f constant and g = a + b z: the exp-affine bridge of lam = 0
    model = Tabulated(np.linspace(0.0, 1.0, 6), 0, np.tile(0.7 + 1.3 * np.arange(41.0), (6, 1)),
                      np.zeros((6, 41)))
    spec, t = BridgeSpec(3, 40, 0.2, 0.9), np.linspace(0.2, 0.9, 71)
    want = exp_affine_marginals(ExpAffine(0.7, 1.3, 0.0), spec, t)
    assert np.max(np.abs(separable_marginals(model, spec, t) - want)) <= 1e-12
    # f(t) (1 + z) + z is no product
    t = np.linspace(0.0, 1.0, 6)
    f, z = 1.0 + 0.8 * np.sin(5.0 * t), np.arange(11)
    model = Tabulated(t, 0, np.outer(f, 1.0 + z) + z, np.outer(4.0 * np.cos(5.0 * t), 1.0 + z))
    with pytest.raises(ValueError, match="no product"):
        separable_marginals(model, BridgeSpec(0, 10), t)


@pytest.mark.parametrize("name, seed", [("square-12", 4411), ("alternating-20", 4412),
                                        ("falling-10", 4413)])
def test_sample_bridge_draws_a_separable_table_from_its_clock_law(name, seed):
    # the k-th jump time of a path has the law P(T_k <= t) = P(X_t >= x + k); so one
    # jump time per path, its k drawn uniformly and apart from the path, is a draw of
    # the pooled law (E[X_t] - x) / n, and the paths are i.i.d.: the empirical CDF of
    # these draws is within the Kolmogorov law's 0.999 quantile of it, on 401 times
    model, spec = SEPARABLE[name]
    count = 4000
    times = sample_bridge(model, spec, solve_h(model, spec), count, seed).times
    k = np.random.default_rng(seed).integers(spec.n, size=count)
    picked = np.sort(times[np.arange(count), k])
    grid = np.linspace(spec.s, spec.u, 401)
    pooled = (separable_marginals(model, spec, grid) @ np.arange(spec.n + 1.0)) / spec.n
    gap = np.max(np.abs(np.searchsorted(picked, grid, "right") / count - pooled))
    assert math.sqrt(count) * gap <= KOLMOGOROV_999


def _near_linear(nudge=0.0):
    """Rates f(t) g(z), f = 1 + 1e-5 sin 5t, g = 2 + z + 1e-5 sin^2 z on states 0..11,
    g(0) moved by ``nudge``: the characteristic f'/f + f (g(z + 1) - g(z)) varies in t
    and z within 1.2e-4 above its least value, about 1."""
    t, z = np.linspace(0.0, 1.0, 6), np.arange(12.0)
    g = 2.0 + z + 1e-5 * np.sin(z) ** 2
    g[0] += nudge
    return Tabulated(t, 0, np.outer(1.0 + 1e-5 * np.sin(5.0 * t), g),
                     np.outer(5e-5 * np.cos(5.0 * t), g))


@pytest.mark.parametrize("model, spec", [*SEPARABLE.values(), (_near_linear(), BridgeSpec(0, 10))],
                         ids=[*SEPARABLE, "near-linear-10"])
def test_dominance_holds_at_both_bounds_of_a_separable_characteristic(model, spec):
    # the characteristic varies in t and z between the proved bounds lam_lo and lam_hi:
    # every inspected tail lies below the binomial tail of the profile tilted at lam_lo
    # and above that at lam_hi
    table = marginal_table(model, spec, 1e-2)
    bounds = model.characteristic_bounds((spec.s, spec.u), (spec.x, spec.y - 1))
    for lam, direction in ((bounds.inf, "lower"), (bounds.sup, "upper")):
        report = dominance_check(model, spec, lam, direction, table=table)
        assert report.passed and report.hypothesis_holds


@pytest.mark.parametrize("nudge, direction", [(1e-3, "lower"), (-1e-3, "upper")])
def test_dominance_fails_a_table_nudged_past_its_bound(nudge, direction):
    # near-linear-10's tails are within 1.3e-5 and 2.6e-5 of the two benchmarks.  g(0)
    # moved by 1e-3 moves the characteristic of state 0 alone by about 1e-3, past the
    # bound the unmoved table has: a tail crosses its benchmark by 3.4e-5, against 1e-6
    spec = BridgeSpec(0, 10)
    bounds = _near_linear().characteristic_bounds((spec.s, spec.u), (spec.x, spec.y - 1))
    lam = bounds.inf if direction == "lower" else bounds.sup
    model = _near_linear(nudge)
    report = dominance_check(model, spec, lam, direction, table=marginal_table(model, spec, 1e-2))
    assert not report.hypothesis_holds
    assert not report.passed and report.worst_margin < -1e-5
