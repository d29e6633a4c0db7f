import json
import math

import numpy as np
import pytest

from countbridge.errors import EmptyRange, OutOfDomain, TabulationGap
from countbridge.intensity import (_T_SLACK, ExpAffine, Poisson, Product, SpaceLinear, Tabulated,
                                   TimeExponential, characteristic_bounds,
                                   constant_characteristic_model, generic_characteristic,
                                   model_from_dict)

# ids spell each model as its legacy descriptor (family + params)
FAMILY_IDS = {
    "poisson{'alpha': 2.0}": Poisson(2.0),
    "space_linear{'lambda': 1.0, 'alpha': 0.5}": SpaceLinear(1.0, 0.5),
    "time_exponential{'alpha': 1.0, 'lambda': 3.0}": TimeExponential(1.0, 3.0),
    "time_exponential{'alpha': 1.0, 'lambda': -3.0}": TimeExponential(1.0, -3.0),
    "product{'alpha': 1.0, 'lambda': 3.0, 'beta': 0.1}": Product(1.0, 3.0, 0.1),
}
FAMILIES = list(FAMILY_IDS.values())


def test_rate_values():
    assert Poisson(2.0).rate(0.3, 7) == 2.0
    assert SpaceLinear(1.0, 0.5).rate(0.9, 3) == 3.5
    assert TimeExponential(1.0, 3.0).rate(0.5, 0) == pytest.approx(math.exp(1.5), rel=1e-12)
    assert Product(1.0, 3.0, 0.1).rate(0.5, 2) == pytest.approx(math.exp(1.5) * 1.2, rel=1e-12)


def test_characteristic_values():
    assert Poisson(5.0).characteristic(0.77, 12) == 0.0
    assert SpaceLinear(2.0, 1.0).characteristic(0.4, 6) == 2.0
    assert TimeExponential(2.0, -3.0).characteristic(0.1, 4) == -3.0
    got = Product(1.0, 3.0, 0.1).characteristic(0.5, 2)
    assert got == pytest.approx(3.0 + 0.1 * math.exp(1.5), rel=1e-12)


@pytest.mark.parametrize("model", FAMILIES, ids=list(FAMILY_IDS))
def test_closed_form_matches_generic(model):
    rng = np.random.default_rng(7)
    ts = rng.uniform(0.0, 1.0, 100)
    zs = rng.integers(0, 30, 100)
    for t, z in zip(ts, zs):
        closed = model.characteristic(float(t), int(z))
        generic = generic_characteristic(model, float(t), int(z))
        assert closed == pytest.approx(generic, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("model", FAMILIES, ids=list(FAMILY_IDS))
def test_rate_dt_matches_finite_differences(model):
    # hypothesis: the stored derivative is the true time derivative
    step = 1e-5
    for t in np.linspace(2 * step, 1.0 - 2 * step, 50):
        for z in range(10):
            fd = (model.rate(t + step, z) - model.rate(t - step, z)) / (2 * step)
            dt = model.rate_dt(t, z)
            assert abs(dt - fd) <= 1e-4 * (1.0 + abs(dt))


@pytest.mark.parametrize("alpha", [0.1, 1.0, 10.0])
def test_poisson_characteristic_invariant_in_alpha(alpha):
    model = Poisson(alpha)
    ts = np.linspace(0, 1, 17)
    assert np.all(model.characteristic(ts, 3) == 0.0)
    b = characteristic_bounds(model, (0.0, 1.0), (0, 9))
    assert b.inf == b.sup == 0.0 and b.certified


def test_characteristic_bounds_values():
    b = characteristic_bounds(TimeExponential(1.0, -3.0), (0.0, 1.0), (0, 19))
    assert (b.inf, b.sup) == (-3.0, -3.0)
    b = characteristic_bounds(Product(1.0, 3.0, 0.1), (0.0, 1.0), (0, 4))
    assert b.inf == pytest.approx(3.1, abs=1e-12)
    assert b.sup == pytest.approx(3.0 + 0.1 * math.e ** 3, rel=1e-12)
    assert b.certified


def test_characteristic_bounds_empty_range():
    with pytest.raises(EmptyRange):
        characteristic_bounds(Poisson(1.0), (0.0, 1.0), (3, 2))


def test_domain_errors():
    m = Poisson(1.0, state_floor=2)
    with pytest.raises(OutOfDomain):
        m.rate(0.5, 1)
    with pytest.raises(OutOfDomain):
        m.rate(1.5, 3)


def test_parameter_validation():
    with pytest.raises(ValueError):
        Poisson(0.0)
    with pytest.raises(ValueError):
        SpaceLinear(-1.0, 1.0)
    with pytest.raises(ValueError):
        Product(1.0, 1.0, -0.5)


def test_rate_positive_down_to_a_negative_floor():
    # 1 + 0.1 z is negative below z = -10, so this floor must be refused
    with pytest.raises(ValueError):
        Product(1.0, 0.0, 0.1, state_floor=-20)
    m = Product(1.0, 0.0, 0.1, state_floor=-5)
    assert m.rate(0.5, -5) == pytest.approx(0.5, rel=1e-15)


def test_constant_characteristic_model_covers_all_signs():
    for lam in (-5.0, -3.0, 0.0, 3.0, 5.0):
        m = constant_characteristic_model(lam)
        b = characteristic_bounds(m, (0.0, 1.0), (0, 40))
        assert b.inf == b.sup == lam and b.certified


def _tabulated(with_dt=True):
    tg = np.linspace(0, 1, 21)
    zs = np.arange(0, 6)
    rates = 1.0 + 0.5 * zs[None, :] + np.exp(0.7 * tg)[:, None]
    rates_dt = 0.7 * np.exp(0.7 * tg)[:, None] * np.ones_like(rates)
    return Tabulated(tg, 0, rates, rates_dt if with_dt else None)


def test_tabulated_interpolation_and_derivative():
    m = _tabulated()
    assert m.derivative_mode == "supplied"
    # Hermite interpolant: rate_dt is the exact derivative of rate
    step = 1e-5
    for t in (0.123, 0.5, 0.87):
        fd = (m.rate(t + step, 2) - m.rate(t - step, 2)) / (2 * step)
        assert abs(m.rate_dt(t, 2) - fd) <= 1e-4 * (1 + abs(m.rate_dt(t, 2)))


def test_tabulated_numeric_derivative_flag():
    m = _tabulated(with_dt=False)
    assert m.derivative_mode == "numeric"
    # centred differences of a smooth rate still track the truth loosely
    assert m.rate_dt(0.5, 0) == pytest.approx(0.7 * math.exp(0.35), rel=1e-2)


def test_tabulated_gaps():
    m = _tabulated()
    with pytest.raises(TabulationGap):
        m.rate(0.5, 6)
    with pytest.raises(TabulationGap):
        m.characteristic(0.5, 5)  # needs z+1 = 6, off the grid
    tg = np.linspace(0.2, 0.8, 7)
    m2 = Tabulated(tg, 0, np.ones((7, 3)) + tg[:, None])
    with pytest.raises(TabulationGap):
        m2.rate(0.1, 0)
    with pytest.raises(OutOfDomain):
        m2.rate(1.2, 0)


def _hull_model():
    # tabulated on the time hull [0.2, 0.8] and states 2..4, floor 2
    tg = np.linspace(0.2, 0.8, 7)
    return Tabulated(tg, 2, np.ones((7, 3)) + tg[:, None])


@pytest.mark.parametrize("form", ["scalar", "array"])
@pytest.mark.parametrize("t, z, error, message", [
    (-0.1, 3, OutOfDomain, r"time outside \[0, 1\]: -0.1"),
    (1.3, 3, OutOfDomain, r"time outside \[0, 1\]: 1.3"),
    (0.1, 3, TabulationGap, "time outside the tabulated hull"),
    (0.9, 3, TabulationGap, "time outside the tabulated hull"),
    (0.5, 1, OutOfDomain, "state below floor 2"),
    (0.5, 5, TabulationGap, r"state outside tabulated range \[2, 4\]"),
    # the same order with two faults: time domain, state floor, hull, state range
    (-0.1, 1, OutOfDomain, "time outside"),
    (0.1, 1, OutOfDomain, "state below floor"),
    (0.1, 5, TabulationGap, "time outside the tabulated hull"),
], ids=["t-below-0", "t-above-1", "t-before-hull", "t-after-hull", "z-below-floor",
        "z-above-z-max", "t-and-z-below", "hull-and-floor", "hull-and-range"])
def test_tabulated_boundaries(form, t, z, error, message):
    m = _hull_model()
    if form == "array":
        t, z = np.array([0.5, t, 0.6]), np.array([3, z, 4])
    with pytest.raises(error, match=message):
        m.rate(t, z)
    with pytest.raises(error, match=message):
        m.rate_grid(np.atleast_1d(t), np.atleast_1d(z))


@pytest.mark.parametrize("form", ["scalar", "array"])
@pytest.mark.parametrize("z", [2.5, 2.999, np.nan])
def test_tabulated_refuses_a_non_integral_state(form, z):
    m = _hull_model()
    t = 0.5
    if form == "array":
        t, z = np.array([0.5, t, 0.6]), np.array([3.0, z, 4.0])
    with pytest.raises(OutOfDomain, match="state not an integer: "):
        m.rate(t, z)
    with pytest.raises(OutOfDomain, match="state not an integer: "):
        m.rate_grid(np.atleast_1d(t), np.atleast_1d(z))


def test_tabulated_integral_float_states_pass():
    m = _hull_model()
    assert m.rate(0.5, 3.0) == m.rate(0.5, 3)
    np.testing.assert_array_equal(m.rate(np.array([0.3, 0.6]), np.array([2.0, 4.0])),
                                  m.rate(np.array([0.3, 0.6]), np.array([2, 4])))
    np.testing.assert_array_equal(m.rate_grid([0.3, 0.6], [2.0, 4.0]), m.rate_grid([0.3, 0.6], [2, 4]))


def test_tabulated_edges_and_empty_arrays_pass():
    m = _hull_model()
    assert m.rate(0.2, 2) == pytest.approx(1.2, rel=1e-14)
    assert m.rate(0.8, 4) == pytest.approx(1.8, rel=1e-14)
    assert m.rate(np.array([]), np.array([], dtype=int)).shape == (0,)
    assert m.rate_grid(np.array([]), [2, 3]).shape == (0, 2)
    assert m.rate_grid([0.5], np.array([], dtype=int)).shape == (1, 0)


def test_tabulated_positivity_enforced():
    tg = np.linspace(0, 1, 5)
    with pytest.raises(ValueError):
        Tabulated(tg, 0, np.array([[1.0], [1.0], [-0.1], [1.0], [1.0]]))


def test_json_roundtrip(tmp_path):
    for model in FAMILIES + [_tabulated(), _tabulated(False)]:
        d = model.to_dict()
        rebuilt = model_from_dict(json.loads(json.dumps(d)))
        ts = np.linspace(0, 1, 7)
        for z in range(3):
            np.testing.assert_allclose(rebuilt.rate(ts, z), model.rate(ts, z), rtol=1e-12)
    with pytest.raises(ValueError):
        model_from_dict({"family": "nope", "params": {}})


def test_legacy_descriptors_load_as_exp_affine():
    legacy = [
        ({"family": "poisson", "params": {"alpha": 2.0}}, Poisson(2.0)),
        ({"family": "space_linear", "params": {"lambda": 1.0, "alpha": 0.5}, "state_floor": 3},
         SpaceLinear(1.0, 0.5, state_floor=3)),
        ({"family": "time_exponential", "params": {"alpha": 1.0, "lambda": -3.0}},
         TimeExponential(1.0, -3.0)),
        ({"family": "product", "params": {"alpha": 2.0, "lambda": 3.0, "beta": 0.1}},
         Product(2.0, 3.0, 0.1)),
    ]
    for descriptor, model in legacy:
        loaded = model_from_dict(descriptor)
        assert loaded == model and isinstance(loaded, ExpAffine)
        assert loaded.to_dict()["family"] == "exp_affine"
    assert Product(2.0, 3.0, 0.1).to_dict() == {
        "family": "exp_affine", "params": {"a": 2.0, "b": 0.2, "lambda": 3.0}, "state_floor": 0}


def test_rate_grid_matches_pointwise():
    for model in FAMILIES + [_tabulated()]:
        times = np.linspace(0.05, 0.95, 9)
        states = np.arange(0, 4)
        grid = model.rate_grid(times, states)
        for i, t in enumerate(times):
            for j, z in enumerate(states):
                assert grid[i, j] == pytest.approx(model.rate(float(t), int(z)), rel=1e-12)


def test_tabulated_matches_scipy_cubic_hermite_bitwise():
    from scipy.interpolate import CubicHermiteSpline

    rng = np.random.default_rng(11)
    for trial in range(60):
        m, w = int(rng.integers(2, 30)), int(rng.integers(1, 8))
        tg = np.sort(rng.choice(np.linspace(0.1, 0.9, 17), min(m, 17), replace=False))
        m = tg.size
        rates = rng.uniform(1.0, 1.5, (m, w))
        model = Tabulated(tg, 2, rates, rng.normal(0.0, 0.3, (m, w)) if trial % 2 else None)
        ref = CubicHermiteSpline(tg, rates, model.rates_dt, axis=0)
        ref_dt = ref.derivative()
        # random points, every node, and just outside the hull (within _T_SLACK)
        ts = np.concatenate([rng.uniform(tg[0], tg[-1], 100), tg,
                             [tg[0] - 0.5 * _T_SLACK, tg[-1] + 0.5 * _T_SLACK]])
        zs = np.arange(2, 2 + w)
        assert np.array_equal(model.rate_grid(ts, zs), ref(ts))
        assert np.array_equal(model.rate_dt(ts[:, None], zs), ref_dt(ts))
        # a subset of the states gathers the same bits
        sub = rng.permutation(zs)[: max(1, w // 2)]
        assert np.array_equal(model.rate_grid(ts, sub), ref(ts)[:, sub - 2])
        for t, z in zip(ts[::7], rng.integers(2, 2 + w, ts.size)[::7]):
            assert model.rate(float(t), int(z)) == ref(t)[z - 2]
            assert model.rate_dt(float(t), int(z)) == ref_dt(t)[z - 2]


def test_tabulated_refuses_a_dip_between_nodes():
    # positive at both nodes, but the slopes pull the cubic to 0.1 - 1.25 at t = 0.5
    with pytest.raises(ValueError, match="dip to zero between nodes"):
        Tabulated([0.0, 1.0], 0, [[0.1], [0.1]], [[-5.0], [5.0]])


def test_tabulated_rate_shapes():
    m = _tabulated()
    ts, zs = np.linspace(0.05, 0.95, 4), np.array([0, 2, 4])
    assert isinstance(m.rate(0.3, 1), float) and isinstance(m.rate_dt(0.3, 1), float)
    assert m.rate(ts, 2).shape == (4,)
    assert m.rate(0.3, zs).shape == (3,)
    assert m.rate(ts, zs).shape == (4, 3)                  # outer when shapes differ
    assert m.rate(ts[:3], zs).shape == (3,)                # paired when they match
    assert m.rate(ts[:, None], zs[None, :]).shape == (4, 3)
    grid = m.rate_grid(ts, zs)
    np.testing.assert_array_equal(m.rate(ts, zs), grid)
    np.testing.assert_array_equal(m.rate(ts[:3], zs), np.diag(grid[:3]))
    np.testing.assert_array_equal(m.rate(0.3, zs), m.rate_grid([0.3], zs)[0])
    np.testing.assert_array_equal(m.rate(ts, 2), grid[:, 1])
