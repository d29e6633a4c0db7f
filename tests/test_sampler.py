import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import binom, ks_2samp, kstest

from countbridge import sampler
from countbridge.analytic import binomial_tail, tilted_cdf, tilted_quantile
from countbridge.engine import BridgeSpec, marginal_table, solve_h
from countbridge.errors import (BadParameter, IndexOut, NotSorted, OutOfDomain, PinMiss,
                                TooFewSamples)
from countbridge.intensity import ExpAffine, Poisson, Tabulated, constant_characteristic_model
from countbridge.sampler import PathBatch, PathSample, sample_bridge, sample_constant
from countbridge.verify import duality_catalog, duality_check, lln_experiment
from oracles import (OracleScale, Product, SpaceLinear, TimeExponential, characteristic_integrals,
                     exp_affine_cdf, grid_index, sample_bridge_per_state, sample_rejection,
                     simplex_jump_time_cdf)

PI3_HALF = 0.18242552380635635


@pytest.mark.parametrize("count", [2.5, True, "3", 3.0], ids=["fractional", "bool", "string",
                                                             "integral-float"])
def test_a_path_count_is_an_integer(count):
    # int(count) once drew 2 paths for 2.5, 1 for True and 3 for "3"
    with pytest.raises(BadParameter, match="count must be an integer"):
        sample_constant(Poisson(1.0), BridgeSpec(0, 3), count, 1)


@pytest.mark.parametrize("seed", ["3", 2.5, True], ids=["string", "fractional", "bool"])
def test_a_seed_is_an_integer(seed):
    # int(seed) once took "3", and 2.5 drew seed 2's stream
    with pytest.raises(BadParameter, match="seed must be an integer"):
        sampler.seeded_rng(seed)


def test_a_negative_path_count_past_the_float_range_is_quoted_in_three_digits():
    with pytest.raises(TooFewSamples, match="at least 0, got -1.00e\\+400$"):
        sample_constant(Poisson(1.0), BridgeSpec(0, 3), -10 ** 400, 1)


def test_path_sample_validation():
    p = PathSample(2, (0.1, 0.4, 0.9))
    assert p.n == 3
    # X_t = x0 + jumps at or before t (right-continuous)
    counts = p.x0 + np.searchsorted(p.jump_times, [0.05, 0.4, 1.0], side="right")
    assert counts.tolist() == [2, 4, 5]
    with pytest.raises(NotSorted):
        PathSample(0, (0.5, 0.5))


def test_xi_tables_constant_and_zero():
    spec = BridgeSpec(0, 4)
    pz = characteristic_integrals(Poisson(2.0), spec)
    for j in (1, 4):
        assert pz.xi(j, 0.0) == 0.0
        assert pz.xi(j, 0.73) == pytest.approx(0.0, abs=1e-12)
    pl = characteristic_integrals(SpaceLinear(3.0, 1.0), spec)
    for j in (1, 2, 4):
        for t in (0.2, 1.0):
            assert pl.xi(j, t) == pytest.approx(3.0 * t, abs=1e-10)


def test_xi_tables_product_symbolic():
    spec = BridgeSpec(0, 3)
    pot = characteristic_integrals(Product(1.0, 3.0, 0.1), spec)
    for t in (0.1, 0.37, 0.7, 1.0):
        exact = 3.0 * t + 0.1 * math.expm1(3.0 * t) / 3.0
        assert pot.xi(1, t) == pytest.approx(exact, abs=1e-8)


def test_density_values():
    spec2 = BridgeSpec(0, 2)
    pz = characteristic_integrals(Poisson(5.0), spec2)
    assert math.exp(pz.total([0.2, 0.7])) == pytest.approx(1.0, abs=1e-12)
    p1 = characteristic_integrals(SpaceLinear(3.0, 1.0), BridgeSpec(0, 1))
    assert math.exp(p1.total([0.5])) == pytest.approx(math.exp(1.5), rel=1e-9)
    with pytest.raises(NotSorted):
        pz.total([0.7, 0.2])


def test_oracle_against_closed_forms():
    pz = characteristic_integrals(Poisson(1.0), BridgeSpec(0, 2))
    assert simplex_jump_time_cdf(pz, 0.5, 1) == pytest.approx(0.75, abs=1e-9)
    p3 = characteristic_integrals(SpaceLinear(3.0, 1.0), BridgeSpec(0, 3))
    got = simplex_jump_time_cdf(p3, 0.5, 2)
    exact = binomial_tail(3, PI3_HALF, 2)
    assert exact == pytest.approx(0.08769531102160369, rel=1e-10)  # frozen
    assert got == pytest.approx(exact, abs=1e-6)


def test_oracle_dominance_direction():
    # tails of the steeper-characteristic bridge sit below the benchmark
    prod = characteristic_integrals(Product(1.0, 3.0, 0.1), BridgeSpec(0, 3))
    bench = characteristic_integrals(SpaceLinear(3.0, 1.0), BridgeSpec(0, 3))
    a = simplex_jump_time_cdf(prod, 0.5, 1)
    b = simplex_jump_time_cdf(bench, 0.5, 1)
    assert a <= b


def test_oracle_scale_and_index_errors():
    pot = characteristic_integrals(Poisson(1.0), BridgeSpec(0, 5))
    with pytest.raises(OracleScale):
        simplex_jump_time_cdf(pot, 0.5, 1)
    p2 = characteristic_integrals(Poisson(1.0), BridgeSpec(0, 2))
    with pytest.raises(IndexOut):
        simplex_jump_time_cdf(p2, 0.5, 3)


def test_sample_constant_deterministic():
    spec = BridgeSpec(0, 5)
    a = sample_constant(constant_characteristic_model(3.0), spec, 50, 12345)
    b = sample_constant(constant_characteristic_model(3.0), spec, 50, 12345)
    assert all(pa.jump_times == pb.jump_times for pa, pb in zip(a, b))
    c = sample_constant(constant_characteristic_model(3.0), spec, 50, 54321)
    assert any(pa.jump_times != pc.jump_times for pa, pc in zip(a, c))


def test_sample_constant_empty_and_uniform():
    assert sample_constant(Poisson(1.0), BridgeSpec(3, 3), 5, 1)[0].jump_times == ()
    T = sample_constant(Poisson(1.0), BridgeSpec(0, 4), 4000, 9).times
    flat = np.sort(T.ravel())
    grid = np.linspace(0, 1, 21)[1:-1]
    emp = np.searchsorted(flat, grid) / flat.size
    assert np.max(np.abs(emp - grid)) < 0.02


@pytest.mark.parametrize("x", [0, 3])
@pytest.mark.parametrize("lam", [-1400.0, -5.0, -0.3, 0.0, 1e-7, -1e-7, 2.0, 5.0, 1400.0])
def test_sample_constant_draws_a_constant_characteristic_as_the_tilted_formula(lam, x):
    # b = 0 or lam = 0: no clock, the sorted tilted quantiles of the seed's
    # uniforms at the tilt (lam + b)(u - s), bit for bit
    spec = BridgeSpec(x, x + 9, 0.2, 0.7)
    u01 = sampler.seeded_rng(17).random((300, 9))
    want = spec.s + spec.length * np.sort(tilted_quantile(lam * spec.length, u01), axis=1)
    models = [constant_characteristic_model(lam), ExpAffine(2.0, 0.0, lam)]
    for model in models + ([ExpAffine(0.5, lam, 0.0)] if lam >= 0 else []):
        assert sample_constant(model, spec, 300, 17).times.tobytes() == want.tobytes()


# bridges whose characteristic lam + b e^(lam t) is not constant: the pooled jump
# times of a sample are n * count i.i.d. draws of the closed-form p
@pytest.mark.parametrize("model, spec, seed", [
    (Product(1.0, 3.0, 0.1), BridgeSpec(0, 27), 101),
    (ExpAffine(0.7, 1.3, -2.0), BridgeSpec(3, 40, 0.2, 0.9), 102),
    (ExpAffine(1.0, 2.0, 6.0), BridgeSpec(0, 20), 103),
    (ExpAffine(1.0, 1.0, 10.0), BridgeSpec(0, 20), 104),
    (ExpAffine(1.0, 1.0, 10.0), BridgeSpec(2, 22, 0.5, 0.95), 105),
], ids=["product-0-27", "negative-lam-3-40-window", "steep-0-20", "clock-tilt-2202",
        "clock-tilt-window"])
def test_sample_constant_draws_the_closed_form_law_on_its_clock(model, spec, seed):
    times = sample_constant(model, spec, 2000, seed).times
    assert np.all((times > spec.s) & (times < spec.u))
    assert kstest(times.ravel(), lambda t: exp_affine_cdf(model, spec, t)).pvalue >= 0.01


@pytest.mark.parametrize("model, spec", [
    (Product(1.0, 3.0, 0.1), BridgeSpec(0, 27)),
    (ExpAffine(0.7, 1.3, -2.0), BridgeSpec(3, 10, 0.2, 0.9)),
    (ExpAffine(1.0, 2.0, 6.0), BridgeSpec(0, 12)),
], ids=["product-0-27", "negative-lam-3-10-window", "steep-0-12"])
def test_sample_bridge_draws_the_closed_form_law(model, spec):
    # the inversion sampler against the same closed form, on bridges of 7 to 27 jumps
    times = sample_bridge(model, spec, solve_h(model, spec), 1500, 211).times
    assert kstest(times.ravel(), lambda t: exp_affine_cdf(model, spec, t)).pvalue >= 0.01


def test_sample_constant_order_statistic_marginals():
    # P(T_i <= t) equals the binomial tail of the tilted profile
    spec = BridgeSpec(0, 5)
    count = 40000
    T = sample_constant(constant_characteristic_model(3.0), spec, count, 777).times
    for t in (0.3, 0.5, 0.8):
        p = tilted_cdf(3.0, t)
        for i in (1, 3, 5):
            exact = binomial_tail(5, p, i)
            emp = float(np.mean(T[:, i - 1] <= t))
            se = math.sqrt(max(exact * (1 - exact), 1e-12) / count)
            assert abs(emp - exact) <= max(3 * se, 1e-3)


def test_sample_bridge_poisson_matches_uniform_order_statistics():
    spec = BridgeSpec(0, 5)
    model = Poisson(1.7)
    h = solve_h(model, spec, 1e-3)
    stats = {}
    bp = sample_bridge(model, spec, h, 4000, 42, stats=stats).times
    cp = sample_constant(constant_characteristic_model(0.0), spec, 4000, 43).times
    crit = 1.6276 * math.sqrt(2.0 / 4000)
    for i in range(5):
        assert ks_2samp(bp[:, i], cp[:, i]).statistic < crit
    assert stats["accepts"] == stats["proposals"] == 5 * 4000


def test_sample_bridge_deterministic_and_pinned():
    spec = BridgeSpec(0, 4)
    model = Product(1.0, 3.0, 0.1)
    h = solve_h(model, spec, 1e-3)
    a = sample_bridge(model, spec, h, 30, 99)
    b = sample_bridge(model, spec, h, 30, 99)
    assert all(pa.jump_times == pb.jump_times for pa, pb in zip(a, b))
    assert all(p.n == 4 for p in a)
    assert all(p.jump_times[-1] < 1.0 for p in a)


def test_sample_bridge_empty_bridge():
    spec = BridgeSpec(2, 2, 0.1, 0.9)
    model = Poisson(1.0)
    h = solve_h(model, spec, 1e-3)
    paths = sample_bridge(model, spec, h, 10, 5)
    assert all(p.jump_times == () and p.x0 == 2 for p in paths)


def test_h_transform_consistency_histogram():
    # thinning reproduces the engine marginal at t = 0.5 within 3 binomial SE
    spec = BridgeSpec(0, 5)
    model = Product(1.0, 3.0, 0.1)
    h = solve_h(model, spec, 1e-3)
    count = 100000
    T = sample_bridge(model, spec, h, count, 314159).times
    counts = np.bincount([np.searchsorted(row, 0.5, side="right") for row in T], minlength=6)
    emp = counts / count
    exact = marginal_table(model, spec, 1e-3, h=h).probs[500]
    se = np.sqrt(np.maximum(exact * (1 - exact), 1e-12) / count)
    assert np.all(np.abs(emp - exact) <= 3 * se + 1e-4)


def test_oracle_triangle():
    # quadrature = engine tail = empirical frequency, pairwise
    model = Product(1.0, 3.0, 0.1)
    spec = BridgeSpec(0, 3)
    pot = characteristic_integrals(model, spec)
    h = solve_h(model, spec, 1e-3)
    table = marginal_table(model, spec, 1e-3, h=h)
    tails = table.tail_matrix()
    count = 30000
    T = sample_bridge(model, spec, h, count, 2718).times
    for t in (0.3, 0.6):
        idx = grid_index(table, t)
        for i in (1, 2, 3):
            quad = simplex_jump_time_cdf(pot, t, i)
            eng = float(tails[idx, i])
            emp = float(np.mean(T[:, i - 1] <= t))
            se = math.sqrt(max(quad * (1 - quad), 1e-12) / count)
            assert abs(quad - eng) <= 1e-5
            assert abs(eng - emp) <= 3 * se + 1e-4
            assert abs(quad - emp) <= 3 * se + 1e-4


def test_rejection_sampler_matches_oracle():
    model = Product(1.0, 3.0, 0.1)
    spec = BridgeSpec(0, 3)
    pot = characteristic_integrals(model, spec)
    paths = sample_rejection(model, spec, 5000, 11, pot=pot)
    T = paths.times
    exact = simplex_jump_time_cdf(pot, 0.5, 1)
    emp = float(np.mean(T[:, 0] <= 0.5))
    se = math.sqrt(exact * (1 - exact) / 5000)
    assert abs(emp - exact) <= 3 * se + 1e-3
    with pytest.raises(OracleScale):
        sample_rejection(model, BridgeSpec(0, 25), 10, 1)


def _tabulated_model(top=5):
    tg = np.linspace(0.0, 1.0, 11)
    rates = (1.0 + 0.3 * np.arange(top + 1.0))[None, :] * np.exp(np.sin(3.0 * tg))[:, None]
    return Tabulated(tg, 0, rates)


@pytest.mark.parametrize("model, spec", [
    (Poisson(1.7), BridgeSpec(0, 5)),
    (Product(1.0, 3.0, 0.1), BridgeSpec(1, 5, 0.2, 0.9)),
    (_tabulated_model(), BridgeSpec(0, 5, 0.1, 1.0)),
], ids=["poisson", "product", "tabulated"])
def test_sample_bridge_paths_hit_the_pin_and_keep_their_streams(model, spec):
    h = solve_h(model, spec, 1e-3)
    paths = sample_bridge(model, spec, h, 300, 2024)
    T = paths.times
    assert T.shape == (300, spec.n)
    assert np.all(np.diff(T, axis=1) > 0)
    assert np.all((T > spec.s) & (T < spec.u))
    # replica r draws from the stream keyed by (seed, r), whatever the count
    head = sample_bridge(model, spec, h, 3, 2024)
    assert [p.jump_times for p in head] == [paths[r].jump_times for r in range(3)]


@pytest.mark.parametrize("model", [Product(1.0, 3.0, 0.1), _tabulated_model()],
                         ids=["product", "tabulated"])
def test_start_state_survival_matches_marginal_table(model):
    # the inversion puts the first jump after t with probability P(X_t = x); recover
    # the mass that lands on each output time by bisection and compare
    spec = BridgeSpec(0, 5)
    h = solve_h(model, spec, 1e-3)
    table = marginal_table(model, spec, 1e-3, h=h)
    t_out = table.times[1:-1]
    lo, hi = np.zeros(t_out.size), np.full(t_out.size, 50.0)
    start = np.full(t_out.size, spec.s)
    survival = next(h.survival_tables())
    early = np.empty(t_out.size, dtype=bool)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        nxt, order = sampler._invert(spec, spec.x, survival, start, mid)
        early[order] = nxt < t_out[order]
        lo, hi = np.where(early, mid, lo), np.where(early, hi, mid)
    assert np.max(np.abs(np.exp(-lo) - table.probs[1:-1, 0])) <= 1e-6


@pytest.mark.parametrize("model, n", [(TimeExponential(1.0, -3.0), 200), (Poisson(1.0), 170)],
                         ids=["time-exponential-200", "poisson-170"])
def test_sample_bridge_serves_a_start_state_below_exp_minus_700(model, n):
    # log h(0, 0) is -1093.5 for the first and -707.6 for the second, below exp(-700);
    # the sampler serves both, and its mean count at t = 0.5 matches the table's
    # within 4 standard errors
    spec = BridgeSpec(0, n)
    h = solve_h(model, spec, 1e-3)
    count = 1000
    times = sample_bridge(model, spec, h, count, 1).times
    table = marginal_table(model, spec, 1e-3, h=h)
    row = table.probs[grid_index(table, 0.5)]
    states = np.arange(n + 1)
    mean = row @ states
    sd = math.sqrt(row @ (states - mean) ** 2)
    got = np.mean(np.sum(times <= 0.5, axis=1))
    assert abs(got - mean) <= 4.0 * sd / math.sqrt(count)


def test_sample_bridge_samples_a_deep_bridge_on_a_short_window():
    # 300 jumps in a window of 0.02 at h_step 1e-2: the pin layer is sized by the
    # jump spacing, so every state has an anchor.  A Poisson bridge's jump times are
    # the order statistics of n uniforms on the window: T_k has mean s + L k / (n + 1)
    # and variance L^2 k (n + 1 - k) / ((n + 1)^2 (n + 2)); every sampled mean lies
    # within 4 standard errors
    spec = BridgeSpec(0, 300, 0.5, 0.52)
    h = solve_h(Poisson(1.0), spec, 1e-2)
    count, n, length = 2000, spec.n, spec.length
    times = sample_bridge(h.model, spec, h, count, 1).times
    k = np.arange(1, n + 1)
    mean = spec.s + length * k / (n + 1)
    sd = length * np.sqrt(k * (n + 1 - k) / ((n + 1) ** 2 * (n + 2)))
    assert np.all(np.abs(times.mean(axis=0) - mean) <= 4.0 * sd / math.sqrt(count))


@pytest.mark.parametrize("landing", [lambda t, u: t, lambda t, u: np.full_like(t, u)],
                         ids=["no-advance", "at-the-pin"])
def test_sample_bridge_reports_a_draw_off_the_window_as_pin_miss(monkeypatch, landing):
    spec = BridgeSpec(0, 3)
    model = Poisson(1.0)
    h = solve_h(model, spec, 1e-3)
    monkeypatch.setattr(sampler, "_invert",
                        lambda spec, z, table, t, mass: (landing(t, spec.u), np.arange(t.size)))
    with pytest.raises(PinMiss):
        sample_bridge(model, spec, h, 4, 1)


def test_next_jumps_refuses_a_path_outside_the_state_window():
    # on Poisson(1) 0 -> 40, state 20's window opens after s and state 0's closes
    # before u: a start before the one, or a mass past the other, is a PinMiss
    spec = BridgeSpec(0, 40)
    h = solve_h(Poisson(1.0), spec, 1e-2)
    assert h.mesh.h_lo[20] > 0 and h.mesh.h_hi[0] < h.times.size - 1
    tables = list(h.survival_tables())
    with pytest.raises(PinMiss, match="reached state 20 at t = 0, before its window opens"):
        sampler._invert(spec, 20, tables[20], np.array([0.0]), np.array([1.0]))
    with pytest.raises(PinMiss, match="stayed in state 0 past its window, which closes at"):
        sampler._invert(spec, 0, tables[0], np.array([0.0]), np.array([1e3]))


def test_sample_bridge_memory_stays_below_log_h():
    # masses, times and at most two states' survival tables at a time: no copy of log h
    model, spec = Product(1.0, 3.0, 0.1), BridgeSpec(0, 60)
    h = solve_h(model, spec, 1e-3)
    tracemalloc.start()
    try:
        sample_bridge(model, spec, h, 200, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * h.logh.nbytes


@pytest.mark.parametrize("model, spec, h_step, count", [
    (Poisson(1.0), BridgeSpec(0, 40), 1e-2, 500),
    (Product(1.0, 3.0, 0.1), BridgeSpec(0, 60), 1e-3, 500),
    (TimeExponential(1.0, -3.0), BridgeSpec(0, 200), 1e-3, 200),
    (ExpAffine(0.7, 1.3, -2.0), BridgeSpec(3, 40, 0.2, 0.9), 1e-3, 500),
    (Poisson(1.0), BridgeSpec(0, 300, 0.5, 0.52), 1e-2, 200),
    (Product(2.0, -4.0, 0.5), BridgeSpec(0, 5), 1e-3, 1),
    (_tabulated_model(22), BridgeSpec(0, 22), 1e-3, 500),
], ids=["poisson-windows-close-early", "product-60", "time-exponential-200", "exp-affine-s>0",
        "poisson-300-short-window", "product-one-path", "tabulated-22"])
def test_sample_bridge_equals_the_per_state_inversion_bit_for_bit(model, spec, h_step, count):
    # windows that close before u, windows that reach u (the past-anchor branch) and
    # windows with s > 0; the sorted inversion is the per-state one in path order
    h = solve_h(model, spec, h_step)
    for k in (count, 0, 1, 2):
        got = sample_bridge(model, spec, h, k, 77).times
        assert got.shape == (k, spec.n)
        assert np.array_equal(got, sample_bridge_per_state(model, spec, h, k, 77).times)


@pytest.mark.parametrize("count, n", [(20000, 60), (200000, 5), (2000, 17)])
def test_sample_bridge_memory_stays_within_its_estimate(monkeypatch, count, n):
    # the estimate the memory cap is checked against bounds what the sample holds
    model, spec = Product(1.0, 3.0, 0.1), BridgeSpec(0, n)
    h = solve_h(model, spec, 1e-3)
    need = []
    check = sampler.check_memory
    monkeypatch.setattr(sampler, "check_memory", lambda b, what: (need.append(b), check(b, what)))
    sampler.seeded_rng(0).standard_exponential(1)  # numpy.random's first use loads it
    tracemalloc.start()
    try:
        sample_bridge(model, spec, h, count, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need[0]


@pytest.mark.parametrize("draw", ["bridge", "constant", "clock"])
def test_smaller_draws_are_the_first_rows_of_a_larger_draw(draw):
    spec = BridgeSpec(0, 12)
    if draw == "bridge":
        model = Product(1.0, 3.0, 0.1)
        h = solve_h(model, spec, 1e-3)
        times = {count: sample_bridge(model, spec, h, count, 29).times for count in (1, 300, 2000)}
    else:
        model = Product(1.0, 3.0, 0.1) if draw == "clock" else constant_characteristic_model(-2.0)
        times = {count: sample_constant(model, spec, count, 29).times for count in (1, 300, 2000)}
    for count in (1, 300):
        assert times[count].tobytes() == times[2000][:count].tobytes()


def test_path_batch_is_a_sequence_of_path_samples():
    times = np.array([[0.1, 0.4], [0.2, 0.3], [0.5, 0.9]])
    batch = PathBatch(3, times)
    assert len(batch) == 3
    for i, want in ((0, (0.1, 0.4)), (2, (0.5, 0.9)), (-1, (0.5, 0.9)), (-3, (0.1, 0.4)),
                    (np.int64(1), (0.2, 0.3))):
        path = batch[i]
        assert isinstance(path, PathSample)
        assert path.x0 == 3 and path.jump_times == want
    with pytest.raises(IndexError):
        batch[3]
    with pytest.raises(TypeError):
        batch[0.5]
    assert [p.jump_times for p in batch] == [tuple(row) for row in times.tolist()]
    assert all(p.n == 2 for p in batch)


@pytest.mark.parametrize("draw", ["bridge", "constant"])
def test_jump_time_matrix_of_a_batch_is_its_read_only_matrix(draw):
    spec = BridgeSpec(0, 4)
    if draw == "bridge":
        model = Product(1.0, 3.0, 0.1)
        batch = sample_bridge(model, spec, solve_h(model, spec, 1e-3), 20, 8)
    else:
        batch = sample_constant(constant_characteristic_model(2.0), spec, 20, 8)
    assert isinstance(batch, PathBatch)
    assert batch.times.shape == (20, 4)
    assert not batch.times.flags.writeable
    with pytest.raises(ValueError):
        batch.times[0, 0] = 0.5


def test_samplers_and_checks_build_no_path_objects(monkeypatch):
    built = []
    post_init = PathSample.__post_init__

    def counted(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(PathSample, "__post_init__", counted)
    spec = BridgeSpec(0, 5)
    model = Poisson(1.0)
    paths = sample_bridge(model, spec, solve_h(model, spec, 1e-3), 500, 12)
    for phi, u in duality_catalog():
        duality_check(model, spec, u, phi, None, None, paths=paths)
    lln_experiment(Poisson(1.0), 0.0, [10, 20], 50, 3)
    lln_experiment(Product(1.0, 3.0, 0.1), 3.0, [6], 50, 4)
    assert not built
    paths[0]  # the counter sees a path built on access
    assert len(built) == 1


def test_sample_constant_refuses_tied_draws(monkeypatch):
    class Ties:
        def random(self, shape):
            return np.full(shape, 0.5)

    monkeypatch.setattr(sampler, "seeded_rng", lambda seed: Ties())
    with pytest.raises(NotSorted):
        sample_constant(constant_characteristic_model(1.0), BridgeSpec(0, 3), 4, 1)
    # one jump cannot tie
    assert len(sample_constant(constant_characteristic_model(1.0), BridgeSpec(0, 1), 4, 1)) == 4


def test_sample_constant_refuses_nan_draws(monkeypatch):
    # NaN times compare False both ways, so only a guard that asks for every
    # step to be positive refuses them
    class NaNs:
        def random(self, shape):
            return np.full(shape, np.nan)

    monkeypatch.setattr(sampler, "seeded_rng", lambda seed: NaNs())
    with pytest.raises(NotSorted):
        sample_constant(constant_characteristic_model(1.0), BridgeSpec(0, 3), 4, 1)


def test_samplers_refuse_a_negative_count():
    # a count of 0 is an empty batch; a negative one is refused before any draw
    spec, model = BridgeSpec(0, 4), Product(1.0, 3.0, 0.1)
    h = solve_h(model, spec, 1e-2)
    assert sample_bridge(model, spec, h, 0, 5).times.shape == (0, 4)
    assert sample_constant(constant_characteristic_model(-2.0), spec, 0, 5).times.shape == (0, 4)
    with pytest.raises(TooFewSamples, match="at least 0, got -1"):
        sample_bridge(model, spec, h, -1, 5)
    with pytest.raises(TooFewSamples, match="at least 0, got -1"):
        sample_constant(constant_characteristic_model(-2.0), spec, -1, 5)


@pytest.mark.parametrize("model, spec", [
    (ExpAffine(1.0, 1e300, 700.0), BridgeSpec(0, 3)),
    (ExpAffine(1.0, 1.0, 1000.0), BridgeSpec(0, 3, 0.0, 0.8)),
    (ExpAffine(1.0, 1.0, 800.0), BridgeSpec(0, 3, 0.95, 1.0)),
], ids=["inf", "clock-span-overflow", "clock-start-overflow"])
def test_sample_constant_refuses_a_tilt_it_cannot_represent(model, spec):
    # the clock's tilt theta = b e^(lam s) expm1(lam (u - s)) / lam past the float
    # range ("inf"), or one of its exponentials: lam (u - s) = 800, lam s = 760
    with pytest.raises(OutOfDomain, match="tilt over the window"):
        sample_constant(model, spec, 4, 1)


def test_sample_constant_serves_tilts_up_to_the_overflow():
    for lam, spec in ((709.78, BridgeSpec(0, 3)), (1400.0, BridgeSpec(0, 3, 0.2, 0.7)),
                      (-5000.0, BridgeSpec(0, 1))):
        times = sample_constant(constant_characteristic_model(lam), spec, 50, 3).times
        assert np.all(np.isfinite(times)) and np.all((times > spec.s) & (times < spec.u))
