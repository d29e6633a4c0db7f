import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import binom, ks_2samp

from countbridge import sampler
from countbridge.analytic import BinomialSpec, binomial_tail, tilted_cdf
from countbridge.engine import BridgeSpec, marginal_table, solve_h
from countbridge.errors import IndexOut, NotSorted, PinMiss, Underflow
from countbridge.intensity import Poisson, Product, SpaceLinear, Tabulated, TimeExponential
from countbridge.sampler import (PathBatch, PathSample, _replica_exponentials, jump_time_matrix,
                                 replica_rng, sample_bridge, sample_constant)
from countbridge.verify import duality_catalog, duality_check, lln_experiment
from oracles import (OracleScale, characteristic_integrals, sample_rejection,
                     simplex_jump_time_cdf)

PI3_HALF = 0.18242552380635635


def test_path_sample_validation():
    p = PathSample(2, (0.1, 0.4, 0.9))
    assert p.n == 3
    # X_t = x0 + jumps at or before t (right-continuous)
    counts = p.x0 + np.searchsorted(jump_time_matrix([p])[0], [0.05, 0.4, 1.0], side="right")
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
    exact = binomial_tail(BinomialSpec(3, PI3_HALF), 2)
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
    a = sample_constant(3.0, spec, 50, 12345)
    b = sample_constant(3.0, spec, 50, 12345)
    assert all(pa.jump_times == pb.jump_times for pa, pb in zip(a, b))
    c = sample_constant(3.0, spec, 50, 54321)
    assert any(pa.jump_times != pc.jump_times for pa, pc in zip(a, c))


def test_sample_constant_empty_and_uniform():
    assert sample_constant(2.0, BridgeSpec(3, 3), 5, 1)[0].jump_times == ()
    T = jump_time_matrix(sample_constant(0.0, BridgeSpec(0, 4), 4000, 9))
    flat = np.sort(T.ravel())
    grid = np.linspace(0, 1, 21)[1:-1]
    emp = np.searchsorted(flat, grid) / flat.size
    assert np.max(np.abs(emp - grid)) < 0.02


def test_sample_constant_order_statistic_marginals():
    # P(T_i <= t) equals the binomial tail of the tilted profile
    spec = BridgeSpec(0, 5)
    count = 40000
    T = jump_time_matrix(sample_constant(3.0, spec, count, 777))
    for t in (0.3, 0.5, 0.8):
        p = tilted_cdf(3.0, t)
        for i in (1, 3, 5):
            exact = binomial_tail(BinomialSpec(5, p), i)
            emp = float(np.mean(T[:, i - 1] <= t))
            se = math.sqrt(max(exact * (1 - exact), 1e-12) / count)
            assert abs(emp - exact) <= max(3 * se, 1e-3)


def test_sample_bridge_poisson_matches_uniform_order_statistics():
    spec = BridgeSpec(0, 5)
    model = Poisson(1.7)
    h = solve_h(model, spec, 1e-3)
    stats = {}
    bp = jump_time_matrix(sample_bridge(model, spec, h, 4000, 42, stats=stats))
    cp = jump_time_matrix(sample_constant(0.0, spec, 4000, 43))
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
    T = jump_time_matrix(sample_bridge(model, spec, h, count, 314159))
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
    T = jump_time_matrix(sample_bridge(model, spec, h, count, 2718))
    for t in (0.3, 0.6):
        idx = table.index_of(t)
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
    T = jump_time_matrix(paths)
    exact = simplex_jump_time_cdf(pot, 0.5, 1)
    emp = float(np.mean(T[:, 0] <= 0.5))
    se = math.sqrt(exact * (1 - exact) / 5000)
    assert abs(emp - exact) <= 3 * se + 1e-3
    with pytest.raises(OracleScale):
        sample_rejection(model, BridgeSpec(0, 25), 10, 1)


def test_jump_time_matrix_shape_errors():
    with pytest.raises(ValueError):
        jump_time_matrix([PathSample(0, (0.5,)), PathSample(0, (0.2, 0.6))])


def _tabulated_model():
    tg = np.linspace(0.0, 1.0, 11)
    rates = (1.0 + 0.3 * np.arange(6.0))[None, :] * np.exp(np.sin(3.0 * tg))[:, None]
    return Tabulated(tg, 0, rates)


@pytest.mark.parametrize("model, spec", [
    (Poisson(1.7), BridgeSpec(0, 5)),
    (Product(1.0, 3.0, 0.1), BridgeSpec(1, 5, 0.2, 0.9)),
    (_tabulated_model(), BridgeSpec(0, 5, 0.1, 1.0)),
], ids=["poisson", "product", "tabulated"])
def test_sample_bridge_paths_hit_the_pin_and_keep_their_streams(model, spec):
    h = solve_h(model, spec, 1e-3)
    paths = sample_bridge(model, spec, h, 300, 2024)
    T = jump_time_matrix(paths)
    assert T.shape == (300, spec.n)
    assert np.all(np.diff(T, axis=1) > 0)
    assert np.all((T > spec.s) & (T < spec.u))
    # replica r draws from the stream keyed by (seed, r), whatever the count
    head = sample_bridge(model, spec, h, 3, 2024)
    assert [p.jump_times for p in head] == [p.jump_times for p in paths[:3]]


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
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        early = h.next_jumps(0, start, mid) < t_out
        lo, hi = np.where(early, mid, lo), np.where(early, hi, mid)
    assert np.max(np.abs(np.exp(-lo) - table.probs[1:-1, 0])) <= 1e-6


@pytest.mark.parametrize("model, n", [(TimeExponential(1.0, -3.0), 200), (Poisson(1.0), 170)],
                         ids=["log-h-minus-inf", "log-h-below-floor"])
def test_sample_bridge_refuses_an_underflowed_start_state(model, n):
    # log h(0, 0) is -1093.5 for the first and -707.6 for the second, below exp(-700);
    # the sampler serves both, and its mean count at t = 0.5 matches the table's
    # within 4 standard errors
    spec = BridgeSpec(0, n)
    h = solve_h(model, spec, 1e-3)
    count = 1000
    times = jump_time_matrix(sample_bridge(model, spec, h, count, 1))
    table = marginal_table(model, spec, 1e-3, h=h)
    row = table.probs[table.index_of(0.5)]
    states = np.arange(n + 1)
    mean = row @ states
    sd = math.sqrt(row @ (states - mean) ** 2)
    got = np.mean(np.sum(times <= 0.5, axis=1))
    assert abs(got - mean) <= 4.0 * sd / math.sqrt(count)


def test_sample_bridge_refuses_a_state_without_an_anchor():
    # 300 jumps in a window of 0.02: the finest node distance times the depth exceeds
    # the window, so no mesh node lies before the pin layer of the low states
    spec = BridgeSpec(0, 300, 0.5, 0.52)
    h = solve_h(Poisson(1.0), spec, 1e-2)
    assert h.anchor_idx[0] == -1
    with pytest.raises(Underflow, match="pin layer of state 0"):
        sample_bridge(h.model, spec, h, 3, 1)


@pytest.mark.parametrize("landing", [lambda t, u: t, lambda t, u: np.full_like(t, u)],
                         ids=["no-advance", "at-the-pin"])
def test_sample_bridge_reports_a_draw_off_the_window_as_pin_miss(monkeypatch, landing):
    spec = BridgeSpec(0, 3)
    model = Poisson(1.0)
    h = solve_h(model, spec, 1e-3)
    monkeypatch.setattr(h, "next_jumps", lambda zi, t, mass: landing(t, spec.u))
    with pytest.raises(PinMiss):
        sample_bridge(model, spec, h, 4, 1)


def test_sample_bridge_memory_stays_below_log_h():
    # masses, times and one state's survival table at a time: no copy of log h
    model, spec = Product(1.0, 3.0, 0.1), BridgeSpec(0, 60)
    h = solve_h(model, spec, 1e-3)
    tracemalloc.start()
    try:
        sample_bridge(model, spec, h, 200, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * h.logh.nbytes


@pytest.mark.parametrize("seed", [0, 2 ** 63 + 5, 2 ** 64 - 1, -3])
@pytest.mark.parametrize("count", [0, 1, 257])
@pytest.mark.parametrize("n", [0, 17])
def test_replica_exponentials_equal_fresh_replica_streams(seed, count, n):
    got = _replica_exponentials(seed, count, n)
    assert got.shape == (count, n)
    for r in range(count):
        want = replica_rng(seed, r).standard_exponential(n)
        assert got[r].tobytes() == want.tobytes(), r


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
    head = batch[1:]
    assert isinstance(head, PathBatch) and head.x0 == 3
    assert [p.jump_times for p in head] == [(0.2, 0.3), (0.5, 0.9)]
    assert [p.jump_times for p in batch] == [tuple(row) for row in times.tolist()]
    assert all(p.n == 2 for p in batch)


@pytest.mark.parametrize("draw", ["bridge", "constant"])
def test_jump_time_matrix_of_a_batch_is_its_read_only_matrix(draw):
    spec = BridgeSpec(0, 4)
    if draw == "bridge":
        model = Product(1.0, 3.0, 0.1)
        batch = sample_bridge(model, spec, solve_h(model, spec, 1e-3), 20, 8)
    else:
        batch = sample_constant(2.0, spec, 20, 8)
    assert isinstance(batch, PathBatch)
    assert jump_time_matrix(batch) is batch.times
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

    monkeypatch.setattr(sampler, "replica_rng", lambda seed, index: Ties())
    with pytest.raises(NotSorted):
        sample_constant(1.0, BridgeSpec(0, 3), 4, 1)
    assert len(sample_constant(1.0, BridgeSpec(0, 1), 4, 1)) == 4  # one jump cannot tie
