import json
import math

import numpy as np
import pytest

from countbridge.errors import EmptyRange, OutOfDomain, TabulationGap
from countbridge.intensity import (ExpAffine, Poisson, Product, SpaceLinear, Tabulated,
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
