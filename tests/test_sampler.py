import math

import numpy as np
import pytest
from scipy.stats import binom, ks_2samp

from countbridge.analytic import BinomialSpec, binomial_tail, tilted_cdf
from countbridge.engine import BridgeSpec, marginal_table, solve_h
from countbridge.errors import IndexOut, NotSorted, OracleScale
from countbridge.intensity import Poisson, Product, SpaceLinear
from countbridge.sampler import (PathSample, characteristic_integrals, jump_time_matrix,
                                 sample_bridge, sample_constant, sample_rejection,
                                 simplex_jump_time_cdf)

PI3_HALF = 0.18242552380635635


def test_path_sample_validation():
    p = PathSample(2, (0.1, 0.4, 0.9))
    assert p.n == 3
    assert p.count_at(0.05) == 2 and p.count_at(0.4) == 4 and p.count_at(1.0) == 5
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
    assert stats["breaches"] == 0 and stats["accepts"] == 5 * 4000


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
    paths = sample_bridge(model, spec, h, count, 314159)
    counts = np.bincount([p.count_at(0.5) for p in paths], minlength=6)
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


def test_majorant_escalation_recovers(monkeypatch):
    # force an undersized majorant: breaches must escalate, not bias or abort
    import countbridge.sampler as smp
    monkeypatch.setattr(smp, "_SAFETY", 0.6)
    spec = BridgeSpec(0, 4)
    model = Product(1.0, 3.0, 0.1)
    h = solve_h(model, spec, 1e-3)
    stats = {}
    paths = smp.sample_bridge(model, spec, h, 300, 2024, stats=stats)
    assert stats["breaches"] > 0
    assert all(p.n == 4 for p in paths)


def test_pinned_rate_mirror_matches_hfield():
    # the sampler's scalar fast path must agree with the reference evaluator
    from countbridge.sampler import _PinnedRate
    model = Product(1.0, 3.0, 0.1)
    spec = BridgeSpec(0, 5)
    h = solve_h(model, spec, 1e-3)
    fast = _PinnedRate(h)
    for t in (0.0, 0.31, 0.77, 0.999, 0.99999, 0.999999999):
        for z in range(6):
            assert fast(t, z) == pytest.approx(h.bridge_rate(t, z), rel=1e-12)
