import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from countbridge import verify
from countbridge.analytic import binomial_tail, clock_cdf, tilted_cdf, tilted_cdf_window
from countbridge.engine import BridgeSpec, marginal_table, solve_h
from countbridge.errors import BadParameter, DegenerateVariance, OutOfDomain, ResourceCap
from countbridge.intensity import ExpAffine, Poisson, Tabulated, constant_characteristic_model
from countbridge.sampler import PathBatch, sample_bridge, sample_constant
from countbridge.verify import (DUALITY_BLOCK, KOLMOGOROV_999, BridgeLaw, TestFunctional,
                                WindowFunction, convexity_check, dominance_check, duality_catalog,
                                duality_check, lln_experiment, mean_bound_check)
from oracles import (Product, SpaceLinear, TimeExponential, dominance_per_cell,
                     duality_per_column, exp_affine_cdf, exp_affine_marginals)


def test_convexity_verdicts():
    spec = BridgeSpec(0, 10)
    assert convexity_check(constant_characteristic_model(3.0), spec).claim == "convex"
    assert convexity_check(constant_characteristic_model(-3.0), spec).claim == "concave"
    rep = convexity_check(Poisson(2.0), spec)
    assert rep.claim == "linear" and rep.passed and rep.worst_violation <= 1e-8


@pytest.mark.parametrize("window", [(0.0, 0.73), (0.1, 0.83), (0.05, 0.98)])
def test_convexity_of_a_poisson_bridge_on_a_window_is_linear(window):
    # 730 output cells do not split into strides of 15: the differences are still
    # taken every 15 cells, since a stride of 1 would amplify the integrator noise
    # 225 times (on [0, 0.73] the worst is 7.1e-9 at stride 15, 1.22e-7 at stride 1)
    rep = convexity_check(Poisson(1.0), BridgeSpec(0, 20, *window))
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
    model, spec = SpaceLinear(3.0, 1.0), BridgeSpec(0, 5)
    rep = dominance_check(model, spec, 3.0, table=marginal_table(model, spec))
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
    table = marginal_table(model, spec)
    rep = dominance_check(model, spec, -3.0, direction="upper", table=table)
    assert rep.passed and max(abs(r[4]) for r in rep.rows) <= 1e-6
    # strict version: true characteristic -3 sits below the bound -2.5
    strict = dominance_check(model, spec, -2.5, direction="upper", table=table)
    assert strict.passed and strict.worst_margin > 0 and strict.hypothesis_holds


_TABULATED = Tabulated(np.linspace(0.0, 1.0, 11), 0, (1.0 + 0.3 * np.arange(9.0))[None, :]
                       * np.exp(np.sin(3.0 * np.linspace(0.0, 1.0, 11)))[:, None])


@pytest.mark.parametrize("model, spec, lam, passes", [
    (constant_characteristic_model(3.0), BridgeSpec(0, 0), 3.0, True),
    (constant_characteristic_model(3.0), BridgeSpec(0, 1), 3.0, True),
    (constant_characteristic_model(3.0), BridgeSpec(0, 5), 3.0, True),
    (constant_characteristic_model(3.0), BridgeSpec(0, 20), 3.0, True),
    (constant_characteristic_model(3.0), BridgeSpec(0, 200), 3.0, True),
    (Product(1.0, 3.0, 0.1), BridgeSpec(0, 5), 4.0, False),
    (_TABULATED, BridgeSpec(1, 8), 0.5, None),
    (TimeExponential(20.0, -3.0), BridgeSpec(2, 14, 0.25, 0.75), -3.0, True),
], ids=["n0", "n1", "n5", "n20", "n200", "not-a-bound", "tabulated", "window"])
def test_dominance_check_equals_the_per_cell_loop(model, spec, lam, passes):
    # the one-array benchmark gives the per-cell loop's rows, margin and verdicts exactly
    table = marginal_table(model, spec)
    for direction in ("lower", "upper"):
        rep = dominance_check(model, spec, lam, direction, table=table)
        ref = dominance_per_cell(model, spec, lam, direction, table)
        assert rep.rows.shape == (len(ref.rows), 5)
        assert np.array_equal(rep.rows, np.array(ref.rows, dtype=float).reshape(-1, 5))
        assert rep.worst_margin == ref.worst_margin
        assert rep.passed is ref.passed
        assert rep.hypothesis_holds == ref.hypothesis_holds
        if direction == "lower" and passes is not None:
            assert rep.passed is passes


@pytest.mark.parametrize("n", [136, 200])
def test_dominance_check_reads_the_tails_of_its_inspected_rows_only(n):
    # 19 rows' tails and their nearest-time search: 0.2 to 0.3 table sizes (1.2 to 1.3
    # with the whole tail matrix); the exact law's table costs no solve
    model, spec = Product(1.0, 3.0, 0.1), BridgeSpec(0, n)
    table = BridgeLaw(model, spec).table()
    dominance_check(model, spec, 3.0, table=table)  # lazy set-up, outside the trace
    tracemalloc.start()
    try:
        dominance_check(model, spec, 3.0, table=table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= table.probs.nbytes


def test_laziness_partial_order():
    # larger characteristic bound => lighter tails, benchmark side; the engine side
    # is the pairwise comparison below
    for t in (0.25, 0.5, 0.75):
        for i in (1, 3, 5):
            t1 = binomial_tail(5, tilted_cdf(1.0, t), i)
            t2 = binomial_tail(5, tilted_cdf(2.0, t), i)
            assert t2 <= t1


_NODES = np.linspace(0.0, 1.0, 11)


def _wave(t, b, w, phase):
    """g(t) = exp(b t + w sin(2 pi t + phase)) and its derivative."""
    g = np.exp(b * t + w * np.sin(2.0 * math.pi * t + phase))
    return g, g * (b + 2.0 * math.pi * w * np.cos(2.0 * math.pi * t + phase))


# The paper's jump-time comparison on pairs of models.  Where char_P >= char_Q on
# the window and ladder, the likelihood ratio of the jump-time densities
# exp(sum_j xi_j(t_j)) on the ordered simplex increases in every jump time, so by
# Holley's inequality P's jump times dominate Q's coordinatewise and every
# marginal tail P(X_t >= x + i) = P(T_i <= t) of P lies at or below Q's.

def _assert_tails_ordered(lighter, heavier, spec):
    tp = marginal_table(lighter, spec).tail_matrix()
    tq = marginal_table(heavier, spec).tail_matrix()
    assert np.all(tp <= tq + 1e-9), float(np.max(tp - tq))


@st.composite
def _ordered_exp_affine_pairs(draw):
    """Same lam, b_P >= b_Q: lam + b e^{lam t} is ordered everywhere."""
    lam, b_q = draw(st.floats(-3.0, 3.0)), draw(st.floats(0.0, 3.0))
    b_p = b_q + draw(st.floats(0.0, 2.0))
    x, n, s = draw(st.integers(0, 3)), draw(st.integers(1, 12)), draw(st.floats(0.0, 0.5))
    spec = BridgeSpec(x, x + n, s, draw(st.floats(s + 0.1, 1.0)))
    return (ExpAffine(draw(st.floats(0.1, 5.0)), b_p, lam),
            ExpAffine(draw(st.floats(0.1, 5.0)), b_q, lam), spec)


@settings(max_examples=40, deadline=None)
@given(_ordered_exp_affine_pairs())
@example((SpaceLinear(2.0, 1.0), SpaceLinear(1.0, 1.0), BridgeSpec(0, 5)))
def test_ordered_exp_affine_characteristics_order_the_tails(case):
    _assert_tails_ordered(*case)


@st.composite
def _ordered_tabulated_pairs(draw):
    """g(t) e^{ct} k(z) against g(t) k(z), c >= 0 and k nondecreasing: at the nodes
    the characteristic gap is c + g (e^{ct} - 1) (k(z+1) - k(z)) >= 0.  A draw is
    kept only if the interpolants keep the gap >= 0 on a 1e-5 scan."""
    n = draw(st.integers(1, 8))
    b, w, phase = draw(st.floats(-1.5, 1.5)), draw(st.floats(0.0, 0.3)), draw(st.floats(0.0, 6.3))
    c, k0 = draw(st.floats(0.0, 2.0)), draw(st.floats(0.5, 3.0))
    k = k0 * np.cumsum([1.0] + draw(st.lists(st.floats(0.0, 0.5), min_size=n, max_size=n)))
    g, dg = _wave(_NODES, b, w, phase)
    e = np.exp(c * _NODES)
    p = Tabulated(_NODES, 0, np.outer(g * e, k), np.outer((dg + c * g) * e, k))
    q = Tabulated(_NODES, 0, np.outer(g, k), np.outer(dg, k))
    scan, zs = np.linspace(0.0, 1.0, 100_001)[:, None], np.arange(n)
    assume(np.min(p.characteristic(scan, zs) - q.characteristic(scan, zs)) >= 0.0)
    return p, q, BridgeSpec(0, n)


@settings(max_examples=25, deadline=None)
@given(_ordered_tabulated_pairs())
def test_ordered_tabulated_characteristics_order_the_tails(case):
    _assert_tails_ordered(*case)


def test_crossing_characteristics_leave_the_tails_unordered():
    # 1 + e^t crosses 2.6 at t = ln 1.6, and each bridge has the heavier tail somewhere
    spec = BridgeSpec(0, 30)
    p = marginal_table(ExpAffine(1.0, 1.0, 1.0), spec).tail_matrix()
    c = marginal_table(ExpAffine(1.0, 2.6, 0.0), spec).tail_matrix()
    assert np.max(p - c) == pytest.approx(8.0e-3, abs=1e-4)
    assert np.max(c - p) > 0.1


def test_mean_bound_checks():
    spec = BridgeSpec(0, 20)
    eq = mean_bound_check(SpaceLinear(3.0, 1.0), spec, 3.0)
    assert eq.passed and abs(eq.worst_margin) <= 1e-6
    strict = mean_bound_check(Product(1.0, 3.0, 0.1), spec, 3.0)
    assert strict.passed and strict.worst_margin >= 0.0
    # endpoints are shared exactly by curve and bound
    assert strict.rows[0][1] == strict.rows[0][2] == 0.0
    assert strict.rows[-1][1] == pytest.approx(20.0, abs=1e-12)


@pytest.mark.parametrize("check", [
    lambda model, spec, table: mean_bound_check(model, spec, 1.0, table=table),
    lambda model, spec, table: dominance_check(model, spec, 1.0, table=table),
], ids=["mean-bound", "dominance"])
@pytest.mark.parametrize("spec", [BridgeSpec(0, 5), BridgeSpec(1, 21), BridgeSpec(0, 20, 0.0, 0.5)],
                         ids=["fewer-jumps", "shifted", "other-window"])
def test_a_check_refuses_another_bridges_table(check, spec):
    # given the table of 0 -> 20, mean-bound read 0 -> 5 as a margin of -15 and
    # dominance ended in a bare numpy shape error
    model = constant_characteristic_model(1.0)
    table = BridgeLaw(model, BridgeSpec(0, 20), 1e-2).table()
    with pytest.raises(BadParameter, match="the table is of a different bridge"):
        check(model, spec, table)


def test_mean_bound_rows_add_x_to_both_sides_of_its_margins():
    # the margins are n phi(t) less the offsets E[X_t] - x; the rows read them from 0
    model, spec = Product(1.0, 3.0, 0.1), BridgeSpec(7, 27, 0.1, 0.8)
    table = marginal_table(model, spec, 1e-3)
    rep = mean_bound_check(model, spec, 3.0, table=table)
    bound = 20 * tilted_cdf_window(3.0, 0.1, 0.8, table.times)
    assert np.array_equal(rep.rows, np.column_stack([table.times, 7 + table.offsets, 7 + bound]))
    assert rep.worst_margin == np.min(bound - table.offsets)


def test_window_function_validation():
    with pytest.raises(ValueError):
        WindowFunction(lambda t: t, lambda t: 1.0)


@pytest.mark.parametrize("model, spec", [
    (Poisson(1.0), BridgeSpec(0, 5)),
    (constant_characteristic_model(1.0), BridgeSpec(0, 5, 0.2, 0.9)),
    (Product(1.0, 3.0, 0.1), BridgeSpec(2, 9, 0.0, 0.5)),
], ids=["poisson", "lambda-1-on-0.2-0.9", "product-2-9-on-0-0.5"])
def test_duality_catalog_runs_within_four_sigma(model, spec):
    # on a window other than [0, 1] the catalog's directions are moved onto it
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


def test_duality_with_a_zero_direction_reads_z_0():
    # u = 0 makes both estimators 0 on every path: equal constants give z = 0
    model, spec = Poisson(1.0), BridgeSpec(0, 2)
    phi = duality_catalog()[0][0]
    zero = WindowFunction(lambda t: 0.0 * t, lambda t: 0.0 * t)
    paths = PathBatch(0, np.array([[0.3, 0.7], [0.2, 0.9], [0.5, 0.6]]))
    res = duality_check(model, spec, zero, phi, None, None, paths=paths)
    assert res.lhs == res.rhs == res.z_score == 0.0


def test_duality_empty_bridge():
    model = Poisson(1.0)
    spec = BridgeSpec(2, 2)
    one = TestFunctional(0, lambda x0, T: np.ones(T.shape[0]),
                         lambda x0, T: np.zeros_like(T), name="1")
    u = duality_catalog()[0][1]
    res = duality_check(model, spec, u, one, None, None, paths=PathBatch(2, np.zeros((10, 0))))
    assert res.lhs == res.rhs == res.z_score == 0.0


def test_duality_degenerate_variance():
    model = Poisson(1.0)
    spec = BridgeSpec(0, 2)
    phi, u = duality_catalog()[0]
    same = PathBatch(0, np.array([[0.3, 0.7], [0.3, 0.7]]))
    with pytest.raises(DegenerateVariance):
        duality_check(model, spec, u, phi, None, None, paths=same)


def test_duality_arity_guard():
    model = Poisson(1.0)
    phi = duality_catalog()[2][0]  # arity 3
    u = duality_catalog()[2][1]
    with pytest.raises(ValueError):
        duality_check(model, BridgeSpec(0, 2), u, phi, None, None,
                      paths=PathBatch(0, np.array([[0.2, 0.5]])))


@pytest.mark.parametrize("k", [3, 8])
def test_duality_check_refuses_paths_of_another_height(k):
    # 3-jump paths used to run off the matrix (IndexError); 8-jump paths used to
    # give a z-score on the first five jumps only, a wrong failing verdict
    phi, u = duality_catalog()[0]
    paths = sample_constant(constant_characteristic_model(0.0), BridgeSpec(0, k), 2000, 11)
    with pytest.raises(ValueError, match=f"paths have {k} jumps but the bridge has 5"):
        duality_check(Poisson(1.0), BridgeSpec(0, 5), u, phi, None, None, paths=paths)


def _perfbench_tabulated(rng, n):
    """Rates a g(t) (1 + kappa z) on an 11-node grid with exact nodal derivatives,
    drawn as the benchmark's paths-thinning workload draws its Tabulated jobs."""
    b, w = rng.uniform(-1.5, 1.5), rng.uniform(0.0, 0.3)
    phase, kappa, c = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.05, 0.3), rng.uniform(0.5, 2.0)
    fine = np.linspace(0.0, 1.0, 2001)
    g_int = float(np.trapezoid(_wave(fine, b, w, phase)[0], fine))
    a = math.log1p(kappa * c * n) / (kappa * g_int)
    g, dg = _wave(_NODES, b, w, phase)
    states = 1.0 + kappa * np.arange(n + 1)
    return Tabulated(_NODES, 0, a * np.outer(g, states), a * np.outer(dg, states))


def _solved_sample(model, spec, count, seed):
    return sample_bridge(model, spec, solve_h(model, spec), count, seed)


@pytest.mark.parametrize("case", ["product-17x2000", "tabulated-27x200", "blocks-20000x8",
                                  "one-jump"])
def test_blocked_duality_equals_the_per_column_sum(case):
    # the characteristic is read on blocks of columns; every field must still be
    # bitwise the per-column loop's, for one block, several, a ragged last one
    # and n = 1
    if case == "product-17x2000":
        model, spec = Product(1.3, 0.8, 0.2), BridgeSpec(0, 17)
        paths = _solved_sample(model, spec, 2000, 4242)
    elif case == "tabulated-27x200":
        model, spec = _perfbench_tabulated(np.random.default_rng(27), 27), BridgeSpec(0, 27)
        paths = _solved_sample(model, spec, 200, 4243)
    elif case == "blocks-20000x8":
        model, spec = Product(1.0, -1.0, 0.3), BridgeSpec(2, 10, 0.1, 0.9)
        paths = sample_constant(constant_characteristic_model(0.7), spec, 20000, 4244)
        width = DUALITY_BLOCK // len(paths)
        assert spec.n > 2 * width and spec.n % width  # three blocks, the last one ragged
    else:
        model, spec = TimeExponential(2.0, -1.5), BridgeSpec(3, 4)
        paths = sample_constant(constant_characteristic_model(-1.5), spec, 5000, 4245)
    for phi, u in duality_catalog():
        if phi.m > spec.n:
            continue
        got = duality_check(model, spec, u, phi, None, None, paths=paths)
        assert got == duality_per_column(model, spec, u, phi, paths), (phi.name, u.name)


@pytest.mark.parametrize("model", [Product(1.0, 2.0, 0.2), _perfbench_tabulated(
    np.random.default_rng(20), 20)], ids=["exp-affine", "tabulated"])
def test_duality_check_memory_stays_below_the_sample(model):
    # the blocks bound the check's own arrays: one duality check on a 100,000 x 20
    # sample peaks below the sample's 16 MB (whole-matrix evaluation: 69-149 MB)
    spec = BridgeSpec(0, 20)
    paths = sample_constant(constant_characteristic_model(1.0), spec, 100_000, 31)
    phi, u = duality_catalog()[2]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        duality_check(model, spec, u, phi, None, None, paths=paths)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < paths.times.nbytes


@pytest.mark.parametrize("model", [Product(1.0, 2.0, 0.2), _perfbench_tabulated(
    np.random.default_rng(9), 9)], ids=["exp-affine", "tabulated"])
def test_duality_check_draws_its_paths_as_the_bridge_law_does(model):
    # without paths the check once drew every bridge by inversion on its own h-field,
    # an ExpAffine one too, which BridgeLaw and the CLI draw exactly
    spec = BridgeSpec(0, 9)
    paths = BridgeLaw(model, spec).paths(500, 61)
    for phi, u in duality_catalog():
        got = duality_check(model, spec, u, phi, 500, 61)
        assert got == duality_check(model, spec, u, phi, None, None, paths=paths), phi.name


def test_lln_experiment_shrinks():
    # the median sup distance shrinks as the Kolmogorov law's median 0.83 / sqrt(N)
    rep = lln_experiment(Poisson(1.0), 0.0, [50, 200], 120, 2024)
    assert rep.strategy == "exact-tilted-order-statistics"
    assert rep.passed and rep.to_dict()["verdict"] == "pass"
    for big_n, med, scaled in zip(rep.n_values, rep.medians, rep.sqrt_n_medians):
        assert abs(med - 0.83 / math.sqrt(big_n)) <= 0.2 * 0.83 / math.sqrt(big_n)
        assert scaled == math.sqrt(big_n) * med <= KOLMOGOROV_999
    assert rep.to_dict()["sqrt_n_median"] == dict(zip(["50", "200"], rep.sqrt_n_medians))
    assert rep.to_dict()["tolerances"] == {"sqrt_n_median": KOLMOGOROV_999}
    # the profile is the Poisson bridge's limit: no gap
    assert rep.to_dict()["profile_gap"] == {"50": 0.0, "200": 0.0}


def _solve_h_spy(monkeypatch):
    """The heights of the bridges verify.solve_h is called for."""
    heights, real = [], verify.solve_h

    def spy(model, spec, *args, **kwargs):
        heights.append(spec.y)
        return real(model, spec, *args, **kwargs)

    monkeypatch.setattr(verify, "solve_h", spy)
    return heights


def test_lln_samples_a_constant_rate_table_as_the_poisson_model(monkeypatch):
    # BridgeLaw routes by model family, so a table of constant rates takes the
    # inversion route, one solve per height, though its law is the Poisson
    # bridge's binomial (oracles.time_only_cdf), and passes under that law's
    # limit, the uniform profile
    heights = _solve_h_spy(monkeypatch)
    table = Tabulated(np.linspace(0.0, 1.0, 6), 0, np.full((6, 41), 2.5), np.zeros((6, 41)))
    rep = lln_experiment(table, 0.0, [10, 40], 60, 77)
    assert rep.strategy == "h-transform-inversion" and "profile_gap" not in rep.to_dict()
    assert heights == [10, 40]
    assert rep.passed and max(rep.sqrt_n_medians) <= KOLMOGOROV_999


@pytest.mark.parametrize("model", [Product(1.0, 3.0, 0.1), ExpAffine(1.0, 1.0, 10.0)],
                         ids=["product", "clock-tilt-2202"])
def test_lln_fails_a_profile_that_is_not_the_limit(monkeypatch, model):
    # the limit of Product(1, 3, 0.1) is its clock's profile p, 0.079 from
    # tilted_cdf(3) at worst: the medians fall towards that gap, not towards 0, so
    # sqrt(N) times them grows past the bound; no h-field is solved
    heights = _solve_h_spy(monkeypatch)
    rep = lln_experiment(model, 3.0, [50, 200, 800], 200, 7)
    assert rep.strategy == "exact-tilted-order-statistics" and heights == []
    assert not rep.passed and rep.to_dict()["verdict"] == "fail"
    assert max(rep.sqrt_n_medians) > KOLMOGOROV_999
    ts = np.linspace(0.0, 1.0, 1001)
    gap = np.max(np.abs(exp_affine_cdf(model, BridgeSpec(0, 1), ts) - tilted_cdf(3.0, ts)))
    assert rep.profile_gap == pytest.approx(gap, abs=1e-12)
    assert rep.medians[-1] == pytest.approx(gap, rel=0.2)


def test_lln_bound_is_the_kolmogorov_quantile():
    from scipy.stats import kstwobign
    assert KOLMOGOROV_999 == pytest.approx(kstwobign.ppf(0.999), rel=1e-12)


def test_lln_pinned_ends_contribute_nothing():
    # distance at the window ends is 0 by pinning: sup is attained strictly inside
    from countbridge.sampler import sample_constant
    from countbridge.verify import _sup_distance
    T = sample_constant(Poisson(1.0), BridgeSpec(0, 100), 50, 5).times
    d = _sup_distance(T, 0.0)
    assert np.all(d > 0) and np.all(d < 1)


def test_lln_budget_guard():
    with pytest.raises(ResourceCap):
        lln_experiment(Poisson(1.0), 0.0, [10 ** 6], 100, 1)


def test_lln_refuses_a_repeated_height():
    # one median per height in lln.json: two draws at one height would be compared
    # by the verdict but reported as one
    with pytest.raises(ValueError, match="N values must be distinct"):
        lln_experiment(Poisson(1.0), 0.0, [5, 20, 5], 10, 1)


@pytest.mark.parametrize("n_values, replicas, seed, message", [
    ([10.7], 10, 1, "N must be an integer, got 10.7"),
    ([10], 3.9, 1, "replicas must be an integer, got 3.9"),
    ([10], 3, "1", "seed must be an integer, got '1'"),
], ids=["height-fractional", "replicas-fractional", "seed-string"])
def test_lln_reads_its_integers_by_the_integer_rule(n_values, replicas, seed, message):
    # int() once ran N = 10 for 10.7 and 3 replicas for 3.9
    with pytest.raises(BadParameter, match=message):
        lln_experiment(Poisson(1.0), 0.0, n_values, replicas, seed)


def test_a_test_functional_reads_its_jump_count_by_the_integer_rule():
    with pytest.raises(BadParameter, match="m must be an integer, got 1.5"):
        TestFunctional(1.5, lambda x0, T: T[:, 0], lambda x0, T: np.ones_like(T))


@pytest.mark.parametrize("n_values", [[], [0]], ids=["none", "zero"])
def test_lln_needs_a_positive_height(n_values):
    with pytest.raises(BadParameter, match="lln needs at least one N"):
        lln_experiment(Poisson(1.0), 0.0, n_values, 10, 1)


def test_report_serialization():
    model = Product(1.0, 3.0, 0.1)
    spec = BridgeSpec(0, 5)
    table = marginal_table(model, spec, 1e-3)
    for rep in (convexity_check(model, spec),
                dominance_check(model, spec, 3.0, table=table),
                mean_bound_check(model, spec, 3.0, table=table)):
        d = rep.to_dict()
        assert d["verdict"] in ("pass", "fail") and "tolerances" in d


@pytest.mark.parametrize("model, spec", [
    (Product(1.0, 3.0, 0.1), BridgeSpec(0, 20)),
    (ExpAffine(0.7, 1.3, -2.0), BridgeSpec(3, 40, 0.2, 0.9)),
    (ExpAffine(1.0, 2.0, 6.0), BridgeSpec(0, 40)),
    (constant_characteristic_model(-5.0), BridgeSpec(0, 50)),
    (Poisson(1.0), BridgeSpec(2, 2, 0.3, 0.6)),
], ids=["product", "window", "steep", "tilt-minus-5", "no-jumps"])
def test_an_exp_affine_table_is_its_binomial_law(model, spec):
    # the table and mean curve of every exp_affine bridge come from its closed form:
    # within 1e-12 of the oracle's binomial pmf, mean seen from x n p(t), pinned at
    # both ends, with no h-field solved
    law = BridgeLaw(model, spec, 1e-2)
    table = law.table()
    assert "h" not in vars(law)
    assert np.array_equal(table.times, np.linspace(spec.s, spec.u, round(spec.length / 1e-2) + 1))
    assert np.max(np.abs(table.probs - exp_affine_marginals(model, spec, table.times))) <= 1e-12
    p = exp_affine_cdf(model, spec, table.times)
    offsets = table.offsets
    assert np.max(np.abs(offsets - spec.n * p)) <= 1e-12 * max(1, spec.n)
    # the offset is n p(t) itself, not the rows times 0..n
    p = clock_cdf(model, spec, table.times)
    p[0], p[-1] = 0.0, 1.0
    assert np.array_equal(offsets, spec.n * p)
    assert offsets[0] == 0.0 and offsets[-1] == spec.n
    assert table.probs[0, 0] == 1.0 and table.probs[-1, -1] == 1.0


@pytest.mark.parametrize("model, spec, step", [
    *[(constant_characteristic_model(float(lam)), BridgeSpec(0, 20), 1e-3) for lam in range(-8, 9)],
    (Product(1.0, 3.0, 0.1), BridgeSpec(2, 30, 0.1, 0.7), 1e-3),
    (Product(2.0, -4.0, 0.5), BridgeSpec(0, 12, 0.25, 1.0), 5e-3),
    (ExpAffine(3.0, 2.0, -1.5, state_floor=-1), BridgeSpec(-1, 7, 0.0, 0.4), 1e-2),
    (Poisson(1.0), BridgeSpec(3, 3, 0.2, 0.9), 1e-2),
    (Tabulated(np.linspace(0.0, 1.0, 6), 0,
               np.exp(np.linspace(0.0, 1.0, 6))[:, None] * (1.0 + 0.2 * np.arange(9.0))),
     BridgeSpec(0, 7, 0.1, 0.9), 1e-2),
], ids=[f"tilt{lam}" for lam in range(-8, 9)] + ["product", "product-late-window",
                                                   "floor-minus-1", "no-jumps", "tabulated"])
def test_a_laws_mean_curve_is_its_tables_bit_for_bit(model, spec, step):
    # an ExpAffine law forms n p(t) without its pmf: the same bits as its table's offsets
    law = BridgeLaw(model, spec, step)
    curve = law._offset_curve()
    assert ("h" in vars(law)) != law.exact
    table = law.table()
    assert np.array_equal(curve, np.column_stack([table.times, table.offsets]))


def test_a_law_refuses_a_state_below_the_model_floor():
    # the law only chooses the route; the exact clock refuses the bridge wherever it is read
    law = BridgeLaw(ExpAffine(1.0, 1.0, 0.5, state_floor=2), BridgeSpec(0, 4))
    for read in (law.table, law._offset_curve, lambda: law.paths(2, 1)):
        with pytest.raises(OutOfDomain, match="state below floor 2"):
            read()


@pytest.mark.parametrize("spec", [BridgeSpec(0, 100), BridgeSpec(0, 200), BridgeSpec(0, 300),
                                  BridgeSpec(0, 20, 0.0, 0.37)], ids=["100", "200", "300", "window"])
def test_convexity_of_a_long_poisson_bridge_is_linear(spec):
    # the mean is x + n p(t), linear in t: its second differences are rounding noise,
    # at most 1.4e-10 here (the rows times the ladder give up to 6.4e-10, the engine
    # table's mean 1.3e-8 to 3.0e-8)
    rep = convexity_check(Poisson(1.0), spec)
    assert rep.claim == "linear" and rep.passed and rep.worst_violation <= 1e-9


@pytest.mark.parametrize("n", [20, 50, 200])
@pytest.mark.parametrize("lam", [-8.0, -5.0, -2.0, 0.0, 2.0, 5.0, 8.0])
def test_dominance_is_sharp_in_both_directions_at_a_constant_characteristic(lam, n):
    # each tail equals its binomial benchmark: a margin of 0 either way (the engine
    # table's upper margins reached -4.2e-6 at n = 200)
    model, spec = constant_characteristic_model(lam), BridgeSpec(0, n)
    table = BridgeLaw(model, spec).table()
    for direction in ("lower", "upper"):
        rep = dominance_check(model, spec, lam, direction, table=table)
        assert rep.passed and rep.hypothesis_holds and abs(rep.worst_margin) <= 1e-12
