import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom, linregress

from countbridge.analytic import tilted_cdf
from countbridge.engine import (BridgeSpec, MarginalTable, marginal_table,
                                marginal_table_two_sided, mean_curve, second_differences,
                                solve_h)
from countbridge.errors import (BadStep, BadWindow, ConservationLoss, GridTooCoarse,
                                Underflow)
from countbridge.intensity import (Poisson, Product, SpaceLinear, Tabulated, TimeExponential,
                                   constant_characteristic_model)


def test_bridge_spec_validation():
    spec = BridgeSpec(2, 7, 0.25, 0.75)
    assert spec.n == 5 and spec.length == 0.5
    with pytest.raises(ValueError):
        BridgeSpec(3, 2)
    with pytest.raises(BadWindow):
        BridgeSpec(0, 2, 0.5, 0.5)
    with pytest.raises(BadWindow):
        BridgeSpec(0, 2, -0.1, 1.0)


def test_solve_h_one_jump_closed_form():
    # single-jump pin: h(t,0) = a(u-t)exp(-a(u-t)), h(t,1) = exp(-a(u-t));
    # off-node queries carry the documented O(step^2/(u-t)^2) interpolation bias
    for a, s, u in [(2.0, 0.0, 1.0), (0.7, 0.25, 0.9)]:
        spec = BridgeSpec(0, 1, s, u)
        h = solve_h(Poisson(a), spec, 1e-3)
        for t in np.linspace(s, u - 1e-6, 7):
            d = u - t
            assert h.log_h(t, 0) == pytest.approx(math.log(a * d) - a * d, abs=2e-5)
            assert h.log_h(t, 1) == pytest.approx(-a * d, abs=2e-5)
    # node-exact values are tight (no interpolation involved)
    h = solve_h(Poisson(2.0), BridgeSpec(0, 1), 1e-3)
    for t in (0.0, 0.25, 0.5):
        assert h.log_h(t, 0) == pytest.approx(math.log(2 * (1 - t)) - 2 * (1 - t), abs=1e-12)


def test_solve_h_five_jump_value():
    h = solve_h(Poisson(1.0), BridgeSpec(0, 5), 1e-3)
    assert math.exp(h.log_h(0.0, 0)) == pytest.approx(math.exp(-1) / 120, rel=1e-10)


def test_bridge_intensity_poisson_alpha_cancels():
    spec = BridgeSpec(0, 1)
    for alpha in (0.5, 2.0, 10.0):
        h = solve_h(Poisson(alpha), spec, 1e-3)
        for t in (0.1, 0.5, 0.99, 0.99999):
            assert h.bridge_rate(t, 0) == pytest.approx(1.0 / (1.0 - t), rel=1e-7)
        assert h.bridge_rate(0.3, 1) == 0.0


def test_bridge_intensity_diverges_with_unit_slope():
    spec = BridgeSpec(0, 5)
    h = solve_h(Product(1.0, 3.0, 0.1), spec, 1e-3)
    ds = np.geomspace(1e-4, 0.1, 25)
    ks = [h.bridge_rate(1.0 - d, 4) for d in ds]
    fit = linregress(np.log(ds), np.log(ks))
    assert abs(fit.slope + 1.0) < 0.05


def test_marginal_oracle_equivalence_subset():
    # full sweep lives in the acceptance suite; spot-check here
    for lam, y in [(3.0, 5), (-5.0, 20)]:
        model = constant_characteristic_model(lam)
        tab = marginal_table(model, BridgeSpec(0, y), 1e-3)
        for t in (0.25, 0.5, 0.75):
            row = tab.probs[tab.index_of(t)]
            exact = binom.pmf(np.arange(y + 1), y, tilted_cdf(lam, t))
            assert np.max(np.abs(row - exact)) <= 1e-6


def test_endpoint_pinning_exact():
    tab = marginal_table(Product(1.0, 3.0, 0.1), BridgeSpec(0, 5), 1e-3)
    assert tab.probs[0, 0] == 1.0 and tab.probs[0, 1:].sum() == 0.0
    assert tab.probs[-1, -1] == 1.0 and tab.probs[-1, :-1].sum() == 0.0


def test_tail_monotonicity_in_time():
    tab = marginal_table(Product(1.0, 3.0, 0.1), BridgeSpec(0, 5), 1e-3)
    tails = tab.tail_matrix()
    assert np.min(np.diff(tails, axis=0)) >= -1e-9


def test_two_sided_route_agreement():
    for model, y in [(Poisson(1.0), 20), (constant_characteristic_model(5.0), 20),
                     (Product(1.0, 3.0, 0.1), 20), (constant_characteristic_model(-5.0), 5)]:
        spec = BridgeSpec(0, y)
        h = solve_h(model, spec, 1e-3)
        t1 = marginal_table(model, spec, 1e-3, h=h)
        t2 = marginal_table_two_sided(model, spec, 1e-3, h=h)
        assert np.max(np.abs(t1.probs - t2.probs)) <= 1e-8


def test_poisson_time_reversal_symmetry():
    # uniform order statistics: row at t equals the reversed row at 1-t
    tab = marginal_table(Poisson(1.3), BridgeSpec(0, 6), 1e-3)
    for t in (0.1, 0.3, 0.45):
        a = tab.probs[tab.index_of(t)]
        b = tab.probs[tab.index_of(1.0 - t)][::-1]
        assert np.max(np.abs(a - b)) <= 1e-8


def test_mean_curve_endpoints_and_line():
    tab = marginal_table(Poisson(2.0), BridgeSpec(0, 20), 1e-3)
    curve = mean_curve(tab)
    assert curve[0, 1] == 0.0 and curve[-1, 1] == 20.0
    assert np.max(np.abs(curve[:, 1] - 20.0 * curve[:, 0])) <= 1e-6


def test_empty_bridge():
    spec = BridgeSpec(3, 3, 0.2, 0.7)
    h = solve_h(Poisson(1.5), spec, 1e-3)
    # no-jump pin: h(t,x) = exp(-a(u-t)), rate 0, constant marginal
    assert h.log_h(0.3, 3) == pytest.approx(-1.5 * 0.4, abs=1e-10)
    assert h.bridge_rate(0.5, 3) == 0.0
    tab = marginal_table(Poisson(1.5), spec, 1e-3)
    assert np.all(tab.probs == 1.0)
    assert mean_curve(tab)[:, 1] == pytest.approx(3.0)


def test_second_differences():
    t = np.linspace(0, 1, 101)
    line = np.column_stack([t, 2.0 + 3.0 * t])
    d2 = second_differences(line)
    assert np.max(np.abs(d2[:, 1])) <= 1e-8
    lam = 3.0
    curve = np.column_stack([t, 20.0 * tilted_cdf(lam, t)])
    d2 = second_differences(curve)
    exact = 20.0 * lam ** 2 * np.exp(lam * t[1:-1]) / math.expm1(lam)
    assert np.max(np.abs(d2[:, 1] - exact) / exact) <= 1e-3
    assert np.all(d2[:, 1] > 0)
    neg = second_differences(np.column_stack([t, 20.0 * tilted_cdf(-3.0, t)]))
    assert np.all(neg[:, 1] < 0)
    with pytest.raises(GridTooCoarse):
        second_differences(line[:2])
    with pytest.raises(GridTooCoarse):
        second_differences(np.column_stack([np.array([0.0, 0.1, 0.5]), np.zeros(3)]))


def test_bad_step_errors():
    with pytest.raises(BadStep):
        solve_h(Poisson(1.0), BridgeSpec(0, 2, 0.4, 0.6), 0.5)
    with pytest.raises(BadStep):
        solve_h(Poisson(1.0), BridgeSpec(0, 2), 0.05)


def test_underflow_reported_not_clamped():
    # 200 jumps under rate 1: log h(0,0) = -1 - log(200!) < -700
    spec = BridgeSpec(0, 200)
    h = solve_h(Poisson(1.0), spec, 1e-2)
    with pytest.raises(Underflow):
        h.log_h(0.0, 0)
    # the shallow states stay representable and exact
    assert h.log_h(0.0, 199) == pytest.approx(-1.0, abs=1e-6)


def test_marginals_refuse_an_underflowed_start_state():
    spec = BridgeSpec(0, 200)
    h = solve_h(Poisson(1.0), spec, 1e-2)
    with pytest.raises(Underflow):
        marginal_table(h.model, spec, 1e-2, h=h)
    with pytest.raises(Underflow):
        marginal_table_two_sided(h.model, spec, 1e-2, h=h)


def test_two_sided_refuses_a_field_of_another_model():
    spec = BridgeSpec(0, 5)
    h = solve_h(Product(1.0, 3.0, 0.1), spec, 1e-3)
    with pytest.raises(ValueError):
        marginal_table_two_sided(Poisson(1.0), spec, 1e-3, h=h)


def test_two_sided_refuses_a_field_of_another_step():
    spec = BridgeSpec(0, 5)
    model = Poisson(1.0)
    h = solve_h(model, spec, 2e-3)
    with pytest.raises(BadStep):
        marginal_table_two_sided(model, spec, 1e-3, h=h)


def test_marginals_refuse_a_field_of_another_bridge():
    # time-constant rates give both bridges the same mesh, so only the spec tells them apart
    tg = np.linspace(0.0, 1.0, 3)
    rates = np.tile(1.0 + np.arange(8.0) ** 2, (3, 1))
    model = Tabulated(tg, 0, rates, np.zeros_like(rates))
    h = solve_h(model, BridgeSpec(0, 3), 1e-3)
    for route in (marginal_table, marginal_table_two_sided):
        with pytest.raises(ValueError):
            route(model, BridgeSpec(2, 5), 1e-3, h=h)


@st.composite
def _models_sharing_a_characteristic(draw):
    """Two models of one legacy family whose characteristics coincide."""
    family = draw(st.sampled_from(["poisson", "space_linear", "time_exponential", "product"]))
    a1, a2 = draw(st.floats(0.2, 5.0)), draw(st.floats(0.2, 5.0))
    lam = draw(st.floats(-4.0, 4.0))
    if family == "poisson":
        return Poisson(a1), Poisson(a2)
    if family == "space_linear":
        return SpaceLinear(abs(lam), a1), SpaceLinear(abs(lam), a2)
    if family == "time_exponential":
        return TimeExponential(a1, lam), TimeExponential(a2, lam)
    ab = draw(st.floats(0.0, 2.0))  # alpha * beta, the state slope both share
    return Product(a1, lam, ab / a1), Product(a2, lam, ab / a2)


@settings(max_examples=20, deadline=None)
@given(_models_sharing_a_characteristic(), st.integers(0, 8))
def test_shared_characteristic_shares_bridges(pair, n):
    # the paper's invariant: the bridge law depends on the rate only through
    # its characteristic
    spec = BridgeSpec(0, n)
    ts = np.linspace(0.0, 1.0, 11)
    for z in range(n):
        np.testing.assert_allclose(pair[0].characteristic(ts, z), pair[1].characteristic(ts, z),
                                   rtol=1e-12, atol=1e-12)
    p1, p2 = (marginal_table(m, spec, 1e-3).probs for m in pair)
    assert np.max(np.abs(p1 - p2)) <= 1e-10


def test_marginal_table_validation_raises_on_bad_rows():
    spec = BridgeSpec(0, 2)
    times = np.linspace(0, 1, 3)
    bad = np.array([[1.0, 0.0, 0.0], [0.2, 0.2, 0.2], [0.0, 0.0, 1.0]])
    with pytest.raises(ConservationLoss):
        MarginalTable(spec, times, bad, 0.0).validate()
    drifty = np.array([[1.0, 0.0, 0.0], [0.25, 0.5, 0.25], [0.0, 0.0, 1.0]])
    with pytest.raises(ConservationLoss):
        MarginalTable(spec, times, drifty, 1e-3).validate()
    # NaN fails every comparison, so non-finite entries need their own check
    with pytest.raises(ConservationLoss):
        MarginalTable(spec, times, drifty, np.nan).validate()
    nan_row = np.array([[1.0, 0.0, 0.0], [np.nan, np.nan, np.nan], [0.0, 0.0, 1.0]])
    with pytest.raises(ConservationLoss):
        MarginalTable(spec, times, nan_row, 0.0).validate()


def test_off_grid_index_lookup_raises():
    tab = marginal_table(Poisson(1.0), BridgeSpec(0, 3), 1e-3)
    with pytest.raises(ValueError):
        tab.index_of(0.00037)


def test_general_window_marginals():
    spec = BridgeSpec(1, 4, 0.2, 0.8)
    tab = marginal_table(SpaceLinear(3.0, 1.0), spec, 1e-3)
    from countbridge.analytic import tilted_cdf_window
    for t in (0.35, 0.5, 0.65):
        p = tilted_cdf_window(3.0, 0.2, 0.8, t)
        exact = binom.pmf(np.arange(4), 3, p)
        row = tab.probs[tab.index_of(t)]
        assert np.max(np.abs(row - exact)) <= 1e-6
