import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from countbridge.engine import BridgeSpec, marginal_table, marginal_table_two_sided, solve_h
from countbridge.errors import (BadParameter, BadWindow, EmptyRange, OutOfDomain, TabulationGap,
                               count_text)
from countbridge.intensity import (_T_SLACK, BOUNDS_TOL, ExpAffine, Poisson, Tabulated,
                                   constant_characteristic_model, model_from_dict)
from oracles import Product, SpaceLinear, TimeExponential, generic_characteristic

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
    b = model.characteristic_bounds((0.0, 1.0), (0, 9))
    assert b.inf == b.sup == 0.0


def test_characteristic_bounds_values():
    b = TimeExponential(1.0, -3.0).characteristic_bounds((0.0, 1.0), (0, 19))
    assert (b.inf, b.sup) == (-3.0, -3.0)
    b = Product(1.0, 3.0, 0.1).characteristic_bounds((0.0, 1.0), (0, 4))
    assert b.inf == pytest.approx(3.1, abs=1e-12)
    assert b.sup == pytest.approx(3.0 + 0.1 * math.e ** 3, rel=1e-12)


@pytest.mark.parametrize("lam", [710.0, 1e5, -1e5])
def test_a_time_exponential_characteristic_is_lam_past_the_float_range(lam):
    # b = 0 forms no exponential: e^(lam t) may overflow where b e^(lam t) is 0
    model = TimeExponential(1.0, lam)
    ts = np.linspace(0.0, 1.0, 9)
    assert model.characteristic(1.0, 0) == lam
    got = model.characteristic(ts[:, None], np.arange(3))
    assert got.shape == (9, 3) and np.all(got == lam)
    assert model.characteristic_bounds() == (lam, lam)


@pytest.mark.parametrize("model", [ExpAffine(1.0, 1.0, 710.0), ExpAffine(1.0, 1e300, 30.0)],
                         ids=["e-to-the-710", "b-1e300"])
def test_a_characteristic_past_the_float_range_is_refused(model):
    # b e^(lam t) leaves the float range on the window, e^(lam t) itself or b times it
    with pytest.raises(OutOfDomain, match="leaves the float range"):
        model.characteristic_bounds()
    with pytest.raises(OutOfDomain, match="leaves the float range"):
        model.characteristic(np.linspace(0.0, 1.0, 5), 0)
    # up to t = 0.5 it is finite
    assert model.characteristic_bounds((0.0, 0.5)).sup < math.inf
    assert np.all(np.isfinite(model.characteristic(np.linspace(0.0, 0.5, 5), 0)))


def test_tabulated_bounds_whose_products_leave_the_float_range_are_refused():
    # rates 1 + 1e200 z: r times r(., z + 1) - r overflows
    model = Tabulated([0.0, 0.5, 1.0], 0, [[1.0 + 1e200 * z for z in range(7)]] * 3)
    with pytest.raises(OutOfDomain, match="float range"):
        model.characteristic_bounds((0.0, 1.0), (0, 5))
    # state 0 alone: rate 1 and, above it, 1 + 1e200, so the characteristic is 1e200
    assert model.characteristic_bounds((0.0, 1.0), (0, 0)) == pytest.approx((1e200, 1e200))


def test_a_zero_b_characteristic_keeps_its_bits():
    # lam + b e^(lam t) + 0 z at b = +-0, as before: a -0.0 bound stays -0.0
    for lam, b in ((-0.0, -0.0), (-0.0, 0.0), (0.0, -0.0), (-3.0, 0.0)):
        model = ExpAffine(1.0, b, lam)
        want = lam + b * 1.0
        assert math.copysign(1.0, model.characteristic_bounds().inf) == math.copysign(1.0, want)
        got = model.characteristic(np.array([0.5]), 2)
        assert got == want + 0.0 * 2
        assert math.copysign(1.0, got[0]) == math.copysign(1.0, want + 0.0 * 2)


def test_characteristic_bounds_empty_range():
    with pytest.raises(EmptyRange):
        Poisson(1.0).characteristic_bounds((0.0, 1.0), (3, 2))


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
        b = m.characteristic_bounds((0.0, 1.0), (0, 40))
        assert b.inf == b.sup == lam


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


def _whole(n_times, n_states):
    """Every state's range over all of ``n_times`` times."""
    return np.zeros(n_states, int), np.full(n_states, n_times)


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
        m.rate_columns(np.atleast_1d(t), np.atleast_1d(z), *_whole(3, 3))


@pytest.mark.parametrize("form", ["scalar", "array"])
@pytest.mark.parametrize("z", [2.5, 2.999])
def test_tabulated_refuses_a_non_integral_state(form, z):
    m = _hull_model()
    t = 0.5
    if form == "array":
        t, z = np.array([0.5, t, 0.6]), np.array([3.0, z, 4.0])
    with pytest.raises(OutOfDomain, match="state not an integer: "):
        m.rate(t, z)
    with pytest.raises(OutOfDomain, match="state not an integer: "):
        m.rate_columns(np.atleast_1d(t), np.atleast_1d(z), *_whole(3, 3))


@pytest.mark.parametrize("model", [ExpAffine(1.0, 1.0, 0.5), _hull_model()],
                         ids=["exp-affine", "tabulated"])
@pytest.mark.parametrize("form", ["scalar", "array"])
def test_nan_states_are_refused_by_name(model, form):
    # the extent skipped NaN: ExpAffine's rate at [nan, 2] was [nan, 3.852] and its
    # characteristic at nan was nan, while Tabulated called nan "not an integer"
    t, z, message = 0.5, np.nan, "state is NaN at 1 of 1 entries, first at index 0"
    if form == "array":
        t, z = np.array([0.5, 0.5, 0.6]), np.array([3.0, np.nan, 4.0])
        message = "state is NaN at 1 of 3 entries, first at index 1"
    for read in (model.rate, model.rate_dt, model.characteristic):
        with pytest.raises(BadParameter, match=message):
            read(t, z)
    with pytest.raises(BadParameter, match=message):
        model.rate_columns(np.atleast_1d(t), np.atleast_1d(z), *_whole(np.size(t), np.size(z)))
    # a state range's ends are read as integers: int(nan) raised a bare ValueError
    with pytest.raises(BadParameter, match="state range's end must be an integer, got nan"):
        model.characteristic_bounds((0.2, 0.8), (np.nan, 3))


@pytest.mark.parametrize("model", [ExpAffine(1.0, 1.0, 0.5), _hull_model()],
                         ids=["exp-affine", "tabulated"])
@pytest.mark.parametrize("t, message", [
    ([0.5, np.nan], "time is NaN at 1 of 2 entries, first at index 1"),
    ([np.nan, np.nan], "time is NaN at 2 of 2 entries, first at index 0"),
    (np.nan, "time is NaN at 1 of 1 entries, first at index 0"),
], ids=["one", "all", "scalar"])
def test_nan_times_are_refused_by_name(model, t, message):
    # a range test lets NaN through: ExpAffine's rate would be NaN there, Tabulated's
    # characteristic 0, and an all-NaN characteristic "leaves the float range"
    for read in (model.rate, model.rate_dt, model.characteristic):
        with pytest.raises(BadParameter, match=message):
            read(t, 3)
    with pytest.raises(BadParameter, match=message):
        model.rate_columns(np.atleast_1d(t), [3], *_whole(np.size(t), 1))


def test_tabulated_integral_float_states_pass():
    m = _hull_model()
    assert m.rate(0.5, 3.0) == m.rate(0.5, 3)
    np.testing.assert_array_equal(m.rate(np.array([0.3, 0.6]), np.array([2.0, 4.0])),
                                  m.rate(np.array([0.3, 0.6]), np.array([2, 4])))
    ts = np.array([0.3, 0.6])[:, None]
    np.testing.assert_array_equal(m.rate(ts, [2.0, 4.0]), m.rate(ts, [2, 4]))


def test_tabulated_edges_and_empty_arrays_pass():
    m = _hull_model()
    assert m.rate(0.2, 2) == pytest.approx(1.2, rel=1e-14)
    assert m.rate(0.8, 4) == pytest.approx(1.8, rel=1e-14)
    assert m.rate(np.array([]), np.array([], dtype=int)).shape == (0,)
    assert m.rate(np.array([])[:, None], [2, 3]).shape == (0, 2)
    assert m.rate(np.array([0.5])[:, None], np.array([], dtype=int)).shape == (1, 0)


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


def _table(**params):
    return {"family": "tabulated",
            "params": dict({"t_grid": [0.0, 1.0], "z_min": 0, "rates": [[1.0, 2.0], [1.0, 2.0]]},
                           **params)}


@pytest.mark.parametrize("descriptor, message", [
    (_table(t_grid=[0.5], rates=[[1.0, 2.0]]), "t_grid must hold at least two nodes"),
    (_table(t_grid=[0.0, 0.5, 0.5], rates=[[1.0]] * 3), "t_grid must be strictly increasing"),
    (_table(t_grid=[0.0, 1.5]), r"t_grid must lie inside \[0, 1\]"),
    (_table(rates=[1.0, 2.0]), r"rates must be a \(time x state\) matrix"),
    (_table(rates_dt=[[0.0, 0.0]]), "rates_dt must match the shape of rates"),
    (dict(_table(z_min=2), state_floor=1), "state_floor below tabulated range"),
    ([1.0, 2.0], "malformed model descriptor"),
    ({"params": {"alpha": 1.0}}, "malformed model descriptor"),
], ids=["one-node", "repeated-node", "node-past-1", "rates-not-a-matrix", "rates-dt-shape",
        "floor-below-table", "not-an-object", "no-family"])
def test_descriptors_that_define_no_model_raise(descriptor, message):
    with pytest.raises(ValueError, match=message):
        model_from_dict(descriptor)


def test_an_exp_affine_floor_is_an_integer():
    # ExpAffine(1, 0, 0, 0.5) once built, and its descriptor did not load
    with pytest.raises(BadParameter, match="state_floor must be an integer, got 0.5"):
        ExpAffine(1.0, 0.0, 0.0, 0.5)
    assert type(ExpAffine(1.0, 0.0, 0.0, np.int64(2)).state_floor) is int
    # a floor past the float range is an integer: the model loads from its own
    # descriptor, and a state below it is refused in three digits
    for b in (0.0, 0.5):
        model = ExpAffine(1.0, b, 0.0, 10 ** 400)
        assert model_from_dict(json.loads(json.dumps(model.to_dict()))) == model
        with pytest.raises(OutOfDomain, match="^state below floor 1.00e\\+400$"):
            model.rate(0.5, 3)
    with pytest.raises(BadParameter, match="rate not positive at the state floor"):
        ExpAffine(1.0, 0.5, 0.0, -10 ** 400)


def test_a_numpy_scalar_is_quoted_by_its_value():
    # a refusal once quoted a numpy scalar by its numpy 2 repr: "got np.float64(2.5)",
    # and np.int64(10**7) as "np.int64(10000000)", not in three digits
    with pytest.raises(BadParameter, match=re.escape("y must be an integer, got 2.5")):
        BridgeSpec(0, np.float64(2.5))
    assert count_text(np.int64(10 ** 7)) == count_text(10 ** 7) == "1e+07"
    assert count_text(np.int64(-5)) == "-5" and count_text(np.float32(0.5)) == "0.5"


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


@pytest.mark.parametrize("descriptor, first", [
    ({"family": "poisson", "params": {}}, "alpha"),
    ({"family": "space_linear", "params": {"alpha": None}}, "lambda"),
    ({"family": "time_exponential", "params": {"lambda": "3"}}, "alpha"),
    ({"family": "product", "params": {"beta": math.nan}}, "alpha"),
    ({"family": "product", "params": {"alpha": 1.0, "beta": True}}, "lambda"),
    ({"family": "product", "params": {"alpha": 1.0, "lambda": 3.0}}, "beta"),
    ({"family": "product", "params": {}, "state_floor": 0.5}, "state_floor"),
], ids=["poisson", "space-linear", "time-exponential", "product", "product-lambda",
        "product-beta", "floor-first"])
def test_a_legacy_descriptor_names_its_first_bad_parameter(descriptor, first):
    # the floor is read first, then each family's parameters in their legacy order:
    # space_linear reads lambda before alpha, product alpha, lambda, beta
    with pytest.raises(BadParameter, match=f"^{first} must be a"):
        model_from_dict(descriptor)


def test_rate_grid_matches_pointwise():
    for model in FAMILIES + [_tabulated()]:
        times = np.linspace(0.05, 0.95, 9)
        states = np.arange(0, 4)
        grid = model.rate(times[:, None], states)
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
        assert np.array_equal(model.rate(ts[:, None], zs), ref(ts))
        assert np.array_equal(model.rate_dt(ts[:, None], zs), ref_dt(ts))
        # a subset of the states gathers the same bits
        sub = rng.permutation(zs)[: max(1, w // 2)]
        assert np.array_equal(model.rate(ts[:, None], sub), ref(ts)[:, sub - 2])
        for t, z in zip(ts[::7], rng.integers(2, 2 + w, ts.size)[::7]):
            assert model.rate(float(t), int(z)) == ref(t)[z - 2]
            assert model.rate_dt(float(t), int(z)) == ref_dt(t)[z - 2]


def test_tabulated_refuses_a_dip_between_nodes():
    # positive at both nodes, but the slopes pull the cubic to 0.1 - 1.25 at t = 0.5
    with pytest.raises(ValueError, match="dip to zero between nodes"):
        Tabulated([0.0, 1.0], 0, [[0.1], [0.1]], [[-5.0], [5.0]])


def test_tabulated_refuses_a_dip_no_grid_probe_would_find():
    # positive at both nodes and on any grid of 101 or 4 x nodes points, but the
    # rate is -7.3e-6 near t = 0.00166: the Bernstein enclosure refuses it, naming
    # the first state and the piece that dip
    with pytest.raises(ValueError, match=r"dip to zero between nodes: state 0 on \[0, 1\]"):
        Tabulated([0.0, 1.0], 0, [[1e-6, 1e-6], [1.0, 1.0]], [[-1e-2, -1e-2], [0.0, 0.0]])
    with pytest.raises(ValueError, match=r"state 3 on \[0.5, 1\]"):
        Tabulated([0.0, 0.5, 1.0], 2, [[1.0, 1.0], [1.0, 1e-6], [1.0, 1.0]],
                  [[0.0, 0.0], [0.0, -2e-2], [0.0, 0.0]])


@pytest.mark.parametrize("lift, refused", [(0.0, True), (1e-12, False), (1e-3, False)])
def test_tabulated_positivity_is_proved_up_to_a_tangent(lift, refused):
    # (2t - 1)^2 + lift touches zero at t = 0.5 when lift is 0; any positive lift
    # above rounding is proved positive after enough halvings
    args = ([0.0, 1.0], 0, [[1.0 + lift], [1.0 + lift]], [[-4.0], [4.0]])
    if refused:
        with pytest.raises(ValueError, match="dip to zero"):
            Tabulated(*args)
    else:
        assert Tabulated(*args).rate(0.5, 0) > 0.0


def test_tabulated_positivity_enclosure_agrees_with_a_dense_scan():
    # random rates with stretched centred-difference slopes, some of which overshoot:
    # the enclosure refuses exactly those whose interpolant reaches 0 on a dense grid
    from scipy.interpolate import CubicHermiteSpline

    rng = np.random.default_rng(5)
    refusals = 0
    for _ in range(60):
        tg = np.cumsum(rng.uniform(0.05, 1.0, rng.integers(2, 12)))
        tg /= tg[-1]
        rates = np.exp(rng.normal(0.0, rng.uniform(0.1, 3.0), (tg.size, 4)))
        slopes = np.gradient(rates, tg, axis=0) * rng.uniform(0.5, 3.0)
        dense = np.linspace(tg[0], tg[-1], 100001)
        lowest = float(np.min(CubicHermiteSpline(tg, rates, slopes, axis=0)(dense)))
        try:
            Tabulated(tg, 0, rates, slopes)
            accepted = True
        except ValueError:
            accepted, refusals = False, refusals + 1
        assert accepted == (lowest > 0.0)
    assert 0 < refusals < 60


def _drawn_tabulated(seed):
    """A positive Tabulated model drawn from an rng seed as in the dense-scan test
    above, with flat slopes where the stretched ones dip."""
    rng = np.random.default_rng(seed)
    tg = np.cumsum(rng.uniform(0.05, 1.0, rng.integers(2, 12)))
    tg /= tg[-1]
    rates = np.exp(rng.normal(0.0, rng.uniform(0.1, 3.0), (tg.size, 5)))
    try:
        return Tabulated(tg, 0, rates, np.gradient(rates, tg, axis=0) * rng.uniform(0.5, 3.0))
    except ValueError:
        return Tabulated(tg, 0, rates, np.zeros_like(rates))


def test_tabulated_characteristic_is_the_three_read_assembly_bitwise():
    # one check and piece search serve r, r' and r one state up: the same bits as
    # three separate reads, on duality-shaped blocks, state grids and scalars
    for seed in range(20):
        model = _drawn_tabulated(seed)
        block = np.sort(np.random.default_rng(seed).uniform(model.t_grid[0], 1.0, (50, 4)), axis=1)
        grid = np.linspace(model.t_grid[0], 1.0, 101)
        for t, z in ((block, np.arange(4)), (grid[:, None], np.arange(4)), (grid, 3),
                     (float(block[0, 0]), 2)):
            got, want = model.characteristic(t, z), generic_characteristic(model, t, z)
            assert type(got) is type(want) and np.array_equal(got, want)


@st.composite
def _tabulated_windows(draw):
    """A drawn Tabulated model, a window whose ends cut pieces, and a range of its
    states."""
    model = _drawn_tabulated(draw(st.integers(0, 2 ** 32 - 1)))
    tg = model.t_grid
    a = draw(st.floats(0.0, 0.99))
    b = draw(st.floats(a + 1e-3, 1.0))
    zlo = draw(st.integers(0, 3))
    return model, tuple(tg[0] + (1.0 - tg[0]) * np.array([a, b])), (zlo, draw(st.integers(zlo, 3)))


def _assert_bounds_enclose_a_fine_scan(model, window, states):
    # the bounds are proved, so they contain the characteristic on a 1e-5 grid plus the
    # nodes inside the window (where it has kinks); they lie within BOUNDS_TOL of values
    # it takes, here the more extreme of the grid's extreme and its refinement on a
    # 1e-9 grid around it (which misses the extreme when it sits on a node)
    (s, u), tg, zs = window, model.t_grid, np.arange(states[0], states[1] + 1)
    t = np.union1d(np.linspace(s, u, int(math.ceil((u - s) / 1e-5)) + 1), tg[(tg > s) & (tg < u)])
    scan = model.characteristic(t[:, None], zs)
    b = model.characteristic_bounds(window, states)
    for bound, sign in ((b.inf, 1.0), (b.sup, -1.0)):
        i, j = np.unravel_index(np.argmin(sign * scan), scan.shape)
        near = np.linspace(t[max(i - 1, 0)], t[min(i + 1, t.size - 1)], 20001)
        best = min(np.min(sign * model.characteristic(near, zs[j])), np.min(sign * scan))
        assert sign * bound <= best
        assert best - sign * bound <= BOUNDS_TOL * max(1.0, abs(bound))


@settings(max_examples=40, deadline=None)
@given(_tabulated_windows())
# its sup sits on the node 0.854046, which the 1e-9 refinement grid misses by
# 3.0e-6, against a tolerance of 2.2e-6
@example((_drawn_tabulated(1807242853), (0.8236205, 0.9572133), (0, 0)))
# its inf needs 23 cells of its piece: a cap of 16 left it 5.1e-4 loose, against
# a tolerance of 4.9e-5
@example((_drawn_tabulated(615858266), (0.4765364115868074, 0.8854923400346142), (2, 2)))
def test_tabulated_characteristic_bounds_enclose_a_fine_scan(case):
    _assert_bounds_enclose_a_fine_scan(*case)


@pytest.mark.parametrize("name", ["sin", "exp", "exp-numeric", "hull"])
def test_characteristic_bounds_of_the_suite_tabulated_models(name):
    tg = np.linspace(0.0, 1.0, 11)
    model = {"sin": lambda: Tabulated(tg, 0, (1.0 + 0.3 * np.arange(9.0))[None, :]
                                      * np.exp(np.sin(3.0 * tg))[:, None]),
             "exp": _tabulated, "exp-numeric": lambda: _tabulated(False), "hull": _hull_model}[name]()
    _assert_bounds_enclose_a_fine_scan(model, (model.t_grid[0], model.t_grid[-1]),
                                       (model.z_min, model.z_max - 1))


def test_constant_rate_table_has_characteristic_bounds_exactly_zero():
    model = Tabulated(np.linspace(0.0, 1.0, 5), 0, np.full((5, 4), 2.5), np.zeros((5, 4)))
    assert model.characteristic_bounds((0.13, 0.77), (0, 2)) == (0.0, 0.0)
    assert model.characteristic_bounds() == (0.0, 0.0)


def test_characteristic_bounds_of_a_narrow_piece_stop_at_its_rounding_margin():
    # r = (1 + t) (1 + z): the characteristic is 1 / (1 + t) + 1 + t, least (2) at
    # t = 0 on a piece 1e-6 wide, whose rounding margin (about 1.2e-5, from r' =
    # 3 diff(r) / dx) halving does not shrink; the cells there close at that margin
    tg = np.array([0.0, 1e-6, 1.0])
    model = Tabulated(tg, 0, np.outer(1.0 + tg, [1.0, 2.0, 3.0]), np.outer(np.ones(3), [1.0, 2.0, 3.0]))
    b = model.characteristic_bounds()
    assert 2.0 - 1e-4 < b.inf <= 2.0 and 2.5 <= b.sup < 2.5 + 1e-4
    spec = BridgeSpec(0, 2)
    h = solve_h(model, spec)
    assert np.max(np.abs(marginal_table(model, spec, h=h).probs
                         - marginal_table_two_sided(model, spec, h=h).probs)) < 1e-8


def test_characteristic_bounds_of_large_rates_stop_at_their_rounding_margin():
    # rates about 5e5 whose characteristic stays within [-0.25, 0.36]: the rounding
    # margin of r D (about 1e-6) is as large as BOUNDS_TOL, and the bounds stay
    # within both of a fine scan
    tg = np.linspace(0.0, 1.0, 11)
    g = np.exp(0.1 * np.sin(3.0 * tg))
    states = 5e5 * (1.0 + 1e-7 * np.arange(3.0))
    model = Tabulated(tg, 0, np.outer(g, states), np.outer(0.3 * np.cos(3.0 * tg) * g, states))
    b = model.characteristic_bounds()
    scan = model.characteristic(np.linspace(0.0, 1.0, 100001)[:, None], [0, 1])
    assert 0.0 <= scan.min() - b.inf < 1e-5 and 0.0 <= b.sup - scan.max() < 1e-5


@pytest.mark.parametrize("window, states, error, message", [
    ((0.3, 0.6), (3, 2), EmptyRange, "empty state range"),
    ((0.3, 0.6), (1, 3), OutOfDomain, "below floor 2"),
    ((0.6, 0.3), (2, 3), BadWindow, r"need 0 <= s < u <= 1, got \[0.6, 0.3\]"),
    ((0.3, 0.6), (2, 4), TabulationGap, r"state outside tabulated range \[2, 4\]"),
    ((0.1, 0.6), (2, 3), TabulationGap, "tabulated hull"),
], ids=["empty-range", "below-floor", "bad-window", "past-z-max", "outside-hull"])
def test_tabulated_characteristic_bounds_refuse_what_they_cannot_bound(window, states, error,
                                                                       message):
    with pytest.raises(error, match=message):
        _hull_model().characteristic_bounds(window, states)


def test_tabulated_rate_shapes():
    m = _tabulated()
    ts, zs = np.linspace(0.05, 0.95, 4), np.array([0, 2, 4])
    assert isinstance(m.rate(0.3, 1), float) and isinstance(m.rate_dt(0.3, 1), float)
    assert isinstance(m.characteristic(0.3, 1), float)
    assert m.rate(ts, 2).shape == (4,)
    assert m.rate(0.3, zs).shape == (3,)
    assert m.rate(ts[:3], zs).shape == (3,)                # paired when they match
    assert m.rate(ts[:, None], zs[None, :]).shape == (4, 3)
    # times and states broadcast as ExpAffine's do: 1-D arrays of two lengths do not,
    # and are refused by name
    p = Product(1.0, 3.0, 0.1)
    for read in (m.rate, m.rate_dt, m.characteristic, p.rate, p.rate_dt, p.characteristic):
        with pytest.raises(BadParameter, match=r"states \(3,\) do not broadcast with times \(4,\)"):
            read(ts, zs)
    grid = m.rate(ts[:, None], zs)
    np.testing.assert_array_equal(m.rate(ts[:3], zs), np.diag(grid[:3]))
    np.testing.assert_array_equal(m.rate(0.3, zs), m.rate(np.array([[0.3]]), zs)[0])
    np.testing.assert_array_equal(m.rate(ts, 2), grid[:, 1])


READER_MODELS = {
    "exp-affine-lam-0": ExpAffine(1.3, 0.4),
    "exp-affine-lam-3": Product(1.0, 3.0, 0.1),
    "exp-affine-lam-minus-3": TimeExponential(20.0, -3.0),
    "tabulated": _tabulated(),
}


@pytest.mark.parametrize("model", READER_MODELS.values(), ids=READER_MODELS.keys())
@pytest.mark.parametrize("order", ["forward", "reversed", "empty"])
def test_rate_columns_are_the_rate_grid_columns_bitwise(model, order):
    times = np.linspace(0.0, 1.0, 2 * 37 + 1)
    times = {"forward": times, "reversed": times[::-1], "empty": times[:0]}[order]
    # each state's own range, one of them empty, is the slice of its whole column
    lo = np.minimum([0, 3, 10, 20, 31], times.size)
    hi = np.minimum([times.size, 40, 11, 20, 75], times.size)
    for states in ([0, 1, 2, 3, 5], [5, 3, 2, 1, 0]):
        grid = model.rate(times[:, None], states)
        columns = list(model.rate_columns(times, states, *_whole(times.size, len(states))))
        assert len(columns) == len(states)
        for z, col in zip(states, columns):
            assert col.shape == times.shape
            assert np.array_equal(col, model.rate(times[:, None], [z])[:, 0])
            assert np.array_equal(col, grid[:, states.index(z)])
        ranged = list(model.rate_columns(times, states, lo, hi))
        assert len(ranged) == len(states)
        for col, part, a, b in zip(columns, ranged, lo, hi):
            assert part.shape == (b - a,)
            assert np.array_equal(part, col[a:b])


@pytest.mark.parametrize("model, times, states, error, message", [
    (Product(1.0, 3.0, 0.1), [0.5, 1.2], [0, 1], OutOfDomain, "time outside"),
    (Product(1.0, 3.0, 0.1, state_floor=2), [0.5], [3, 1], OutOfDomain, "state below floor"),
    (_hull_model(), [0.5, 0.1], [2, 3], TabulationGap, "tabulated hull"),
    (_hull_model(), [0.5], [2, 5], TabulationGap, "tabulated range"),
    (_hull_model(), [0.5], [2.0, 2.5], OutOfDomain, "state not an integer"),
], ids=["exp-affine-time", "exp-affine-floor", "tabulated-hull", "tabulated-range",
        "tabulated-non-integral"])
def test_rate_columns_refuse_bad_input_at_the_call(model, times, states, error, message):
    # the reader checks everything when it is opened, before any column is read
    with pytest.raises(error, match=message):
        model.rate_columns(np.asarray(times), states, *_whole(len(times), len(states)))
