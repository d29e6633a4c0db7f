import math

import numpy as np
import pytest

from countbridge.analytic import BinomialSpec, binomial_tail, tilted_cdf
from countbridge.engine import BridgeSpec, marginal_table, solve_h
from countbridge.errors import DegenerateVariance, ResourceCap
from countbridge.intensity import (Poisson, Product, SpaceLinear, Tabulated, TimeExponential,
                                   constant_characteristic_model)
from countbridge.sampler import PathSample, sample_bridge
from countbridge.verify import (TestFunctional, WindowFunction, convexity_check,
                                dominance_check, duality_catalog, duality_check,
                                lln_experiment, mean_bound_check)


def test_convexity_verdicts():
    spec = BridgeSpec(0, 10)
    assert convexity_check(constant_characteristic_model(3.0), spec).claim == "convex"
    assert convexity_check(constant_characteristic_model(-3.0), spec).claim == "concave"
    rep = convexity_check(Poisson(2.0), spec)
    assert rep.claim == "linear" and rep.passed and rep.worst_violation <= 1e-8


def test_convexity_no_claim():
    # characteristic -1 + 2 e^{-t} changes sign on [0, 1]
    rep = convexity_check(Product(2.0, -1.0, 1.0), BridgeSpec(0, 5))
    assert rep.claim == "no claim" and rep.passed
    assert rep.char_inf < 0 < rep.char_sup


def test_convexity_empty_bridge():
    rep = convexity_check(Poisson(1.0), BridgeSpec(4, 4, 0.2, 0.9))
    assert rep.claim == "linear" and rep.passed


def test_dominance_sharp_on_benchmark_family():
    rep = dominance_check(SpaceLinear(3.0, 1.0), BridgeSpec(0, 5), 3.0)
    assert rep.passed
    assert max(abs(r[4]) for r in rep.rows) <= 1e-6


def test_dominance_strict_and_falsified():
    model = Product(1.0, 3.0, 0.1)
    spec = BridgeSpec(0, 5)
    table = marginal_table(model, spec, 1e-3)
    good = dominance_check(model, spec, 3.0, table=table)
    assert good.passed and good.worst_margin > 0 and good.hypothesis_holds
    bad = dominance_check(model, spec, 4.0, table=table)
    assert not bad.passed and bad.worst_margin < 0 and not bad.hypothesis_holds


def test_dominance_upper_direction():
    # characteristic <= -3 exactly: upper-direction margins vanish (sharp)
    model = TimeExponential(1.0, -3.0)
    spec = BridgeSpec(0, 5)
    rep = dominance_check(model, spec, -3.0, direction="upper")
    assert rep.passed and max(abs(r[4]) for r in rep.rows) <= 1e-6
    # strict version: true characteristic -3 sits below the bound -2.5
    strict = dominance_check(model, spec, -2.5, direction="upper")
    assert strict.passed and strict.worst_margin > 0 and strict.hypothesis_holds


def test_laziness_partial_order():
    # larger characteristic bound => lighter tails, benchmark side
    for t in (0.25, 0.5, 0.75):
        for i in (1, 3, 5):
            t1 = binomial_tail(BinomialSpec(5, tilted_cdf(1.0, t)), i)
            t2 = binomial_tail(BinomialSpec(5, tilted_cdf(2.0, t)), i)
            assert t2 <= t1
    # and engine side: the xi=2 bridge has lighter tails than the xi=1 bridge
    ta = marginal_table(SpaceLinear(1.0, 1.0), BridgeSpec(0, 5), 1e-3).tail_matrix()
    tb = marginal_table(SpaceLinear(2.0, 1.0), BridgeSpec(0, 5), 1e-3).tail_matrix()
    assert np.all(tb[1:-1, 1:] <= ta[1:-1, 1:] + 1e-9)


def test_mean_bound_checks():
    spec = BridgeSpec(0, 20)
    eq = mean_bound_check(SpaceLinear(3.0, 1.0), spec, 3.0)
    assert eq.passed and abs(eq.worst_margin) <= 1e-6
    strict = mean_bound_check(Product(1.0, 3.0, 0.1), spec, 3.0)
    assert strict.passed and strict.worst_margin >= 0.0
    # endpoints are shared exactly by curve and bound
    assert strict.rows[0][1] == strict.rows[0][2] == 0.0
    assert strict.rows[-1][1] == pytest.approx(20.0, abs=1e-12)


def test_window_function_validation():
    with pytest.raises(ValueError):
        WindowFunction(lambda t: t, lambda t: 1.0)


def test_duality_catalog_runs_within_four_sigma():
    model = Poisson(1.0)
    spec = BridgeSpec(0, 5)
    h = solve_h(model, spec, 1e-3)
    paths = sample_bridge(model, spec, h, 20000, 9090)
    for phi, u in duality_catalog():
        res = duality_check(model, spec, u, phi, None, None, paths=paths)
        assert abs(res.z_score) <= 4.0, (phi.name, u.name, res.z_score)


def test_duality_constant_functional_is_zero_mean():
    model = SpaceLinear(3.0, 1.0)
    spec = BridgeSpec(0, 5)
    h = solve_h(model, spec, 1e-3)
    paths = sample_bridge(model, spec, h, 20000, 777)
    one = TestFunctional(1, lambda x0, T: np.ones(T.shape[0]),
                         lambda x0, T: np.zeros_like(T), name="1")
    u = WindowFunction(lambda t: t * (1.0 - t), lambda t: 1.0 - 2.0 * t)
    res = duality_check(model, spec, u, one, None, None, paths=paths)
    assert res.lhs == 0.0 and res.lhs_se == 0.0
    assert abs(res.z_score) <= 4.0


def test_duality_empty_bridge():
    model = Poisson(1.0)
    spec = BridgeSpec(2, 2)
    one = TestFunctional(0, lambda x0, T: np.ones(T.shape[0]),
                         lambda x0, T: np.zeros_like(T), name="1")
    u = duality_catalog()[0][1]
    res = duality_check(model, spec, u, one, None, None,
                        paths=[PathSample(2, ()) for _ in range(10)])
    assert res.lhs == res.rhs == res.z_score == 0.0


def test_duality_degenerate_variance():
    model = Poisson(1.0)
    spec = BridgeSpec(0, 2)
    phi, u = duality_catalog()[0]
    same = [PathSample(0, (0.3, 0.7)), PathSample(0, (0.3, 0.7))]
    with pytest.raises(DegenerateVariance):
        duality_check(model, spec, u, phi, None, None, paths=same)


def test_duality_arity_guard():
    model = Poisson(1.0)
    phi = duality_catalog()[2][0]  # arity 3
    u = duality_catalog()[2][1]
    with pytest.raises(ValueError):
        duality_check(model, BridgeSpec(0, 2), u, phi, None, None,
                      paths=[PathSample(0, (0.2, 0.5))])


def test_lln_experiment_shrinks():
    rep = lln_experiment(Poisson(1.0), 0.0, [50, 200], 120, 2024)
    assert rep.strategy == "exact-order-statistics"
    assert rep.medians_non_increasing
    for big_n, med in zip(rep.n_values, rep.medians):
        assert abs(med - 0.83 / math.sqrt(big_n)) <= 0.2 * 0.83 / math.sqrt(big_n)


def test_lln_samples_a_constant_rate_table_as_the_poisson_model():
    # the table's proved characteristic bounds are exactly (0, 0), so it takes the
    # exact order-statistics route and draws the same paths as Poisson(2.5)
    table = Tabulated(np.linspace(0.0, 1.0, 6), 0, np.full((6, 41), 2.5), np.zeros((6, 41)))
    rep = lln_experiment(table, 0.0, [10, 40], 60, 77)
    ref = lln_experiment(Poisson(2.5), 0.0, [10, 40], 60, 77)
    assert rep.strategy == ref.strategy == "exact-order-statistics"
    assert (rep.medians, rep.q90s) == (ref.medians, ref.q90s)


def test_lln_pinned_ends_contribute_nothing():
    # distance at the window ends is 0 by pinning: sup is attained strictly inside
    from countbridge.sampler import jump_time_matrix, sample_constant
    from countbridge.verify import _sup_distance
    T = jump_time_matrix(sample_constant(0.0, BridgeSpec(0, 100), 50, 5))
    d = _sup_distance(T, 0.0)
    assert np.all(d > 0) and np.all(d < 1)


def test_lln_budget_guard():
    with pytest.raises(ResourceCap):
        lln_experiment(Poisson(1.0), 0.0, [10 ** 6], 100, 1)


def test_report_serialization():
    model = Product(1.0, 3.0, 0.1)
    spec = BridgeSpec(0, 5)
    table = marginal_table(model, spec, 1e-3)
    for rep in (convexity_check(model, spec),
                dominance_check(model, spec, 3.0, table=table),
                mean_bound_check(model, spec, 3.0, table=table)):
        d = rep.to_dict()
        assert d["verdict"] in ("pass", "fail") and "tolerances" in d
