import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom, linregress

from countbridge import engine
from countbridge.analytic import tilted_cdf
from countbridge.engine import (BridgeSpec, MarginalTable, marginal_table,
                                marginal_table_two_sided, mean_curve, second_differences,
                                solve_h)
from countbridge.errors import (BadStep, BadWindow, ConservationLoss, GridTooCoarse,
                                ResourceCap)
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
    # single-jump pin: h(t,0) = a(u-t)exp(-a(u-t)), h(t,1) = exp(-a(u-t)), at every
    # mesh node before u (h(u, 0) = 0)
    for a, s, u in [(2.0, 0.0, 1.0), (0.7, 0.25, 0.9)]:
        spec = BridgeSpec(0, 1, s, u)
        h = solve_h(Poisson(a), spec, 1e-3)
        d = u - h.times[:-1]
        assert np.max(np.abs(h.logh[:-1, 0] - (np.log(a * d) - a * d))) <= 2e-5
        assert np.max(np.abs(h.logh[:-1, 1] + a * d)) <= 2e-5
    # the output-grid nodes are tight
    h = solve_h(Poisson(2.0), BridgeSpec(0, 1), 1e-3)
    for t in (0.0, 0.25, 0.5):
        i = int(np.searchsorted(h.times, t))
        assert h.times[i] == t
        assert h.logh[i, 0] == pytest.approx(math.log(2 * (1 - t)) - 2 * (1 - t), abs=1e-12)


def test_solve_h_five_jump_value():
    h = solve_h(Poisson(1.0), BridgeSpec(0, 5), 1e-3)
    assert h.times[0] == 0.0
    assert math.exp(h.logh[0, 0]) == pytest.approx(math.exp(-1) / 120, rel=1e-10)


def test_bridge_intensity_poisson_alpha_cancels():
    spec = BridgeSpec(0, 1)
    for alpha in (0.5, 2.0, 10.0):
        h = solve_h(Poisson(alpha), spec, 1e-3)
        # every node before u, down to the last one at u - 1e-5
        np.testing.assert_allclose(h.node_bridge_rates[:-1, 0], 1.0 / (1.0 - h.times[:-1]),
                                   rtol=1e-7)
        assert np.all(h.node_bridge_rates[:, 1] == 0.0)


def test_bridge_intensity_diverges_with_unit_slope():
    spec = BridgeSpec(0, 5)
    h = solve_h(Product(1.0, 3.0, 0.1), spec, 1e-3)
    ds = 1.0 - h.times
    near = (ds >= 1e-4) & (ds <= 0.1)
    fit = linregress(np.log(ds[near]), np.log(h.node_bridge_rates[near, 4]))
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
    assert np.max(np.abs(h.logh[:, 0] + 1.5 * (0.7 - h.times))) <= 1e-10
    assert np.all(h.node_bridge_rates == 0.0)
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
    # 200 jumps under rate 1: log h(0,0) = -1 - log(200!) = -864.232, far below
    # exp(-700), is solved in log space, not cut or clamped; at this coarse step it
    # is off by 1.8e-6 (at 1e-3 by 7.7e-7, see the test below)
    spec = BridgeSpec(0, 200)
    h = solve_h(Poisson(1.0), spec, 1e-2)
    assert h.times[0] == 0.0
    assert h.logh[0, 0] == pytest.approx(-1.0 - math.lgamma(201.0), abs=1e-5)
    # the shallow states stay representable and exact
    assert h.logh[0, 199] == pytest.approx(-1.0, abs=1e-6)


def test_marginals_refuse_an_underflowed_start_state():
    # Poisson(1) 0 -> 200 at h_step 1e-2: the start state's log h is exact, but the
    # pinned route drifts by 1.2e-6, over validate()'s 1e-6, and is refused; the
    # two-sided route has no drift and matches the closed form
    spec = BridgeSpec(0, 200)
    h = solve_h(Poisson(1.0), spec, 1e-2)
    with pytest.raises(ConservationLoss, match="mass drift 1.2"):
        marginal_table(h.model, spec, 1e-2, h=h)
    table = marginal_table_two_sided(h.model, spec, 1e-2, h=h)
    exact = binom.pmf(np.arange(201)[None, :], 200, table.times[:, None])
    assert np.max(np.abs(table.probs - exact)) <= 1e-6


@pytest.mark.parametrize("model, n, tilt, log_h0", [
    (Poisson(1.0), 170, 0.0, -707.573),
    (TimeExponential(1.0, -3.0), 200, -3.0, -1093.485),
    (Poisson(1.0), 200, 0.0, -864.232),
], ids=["poisson-170", "time-exponential-200", "poisson-200"])
def test_start_states_below_exp_minus_700_are_exact(model, n, tilt, log_h0):
    # the unconditioned count on [0, 1] is Poisson(big_l), so
    # log h(0, 0) = -big_l + n log big_l - log n! (matched to 9.2e-7, 1.34e-6 and
    # 7.7e-7 at the default step budget), and both routes give Binomial(n, p(t))
    spec = BridgeSpec(0, n)
    h = solve_h(model, spec, 1e-3)
    big_l = 1.0 if tilt == 0.0 else math.expm1(tilt) / tilt
    assert h.logh[0, 0] == pytest.approx(-big_l + n * math.log(big_l) - math.lgamma(n + 1.0),
                                         abs=2e-6)
    assert h.logh[0, 0] == pytest.approx(log_h0, abs=1e-3)
    for route in (marginal_table, marginal_table_two_sided):
        table = route(model, spec, 1e-3, h=h)
        p = table.times if tilt == 0.0 else tilted_cdf(tilt, table.times)
        exact = binom.pmf(np.arange(n + 1)[None, :], n, p[:, None])
        assert np.max(np.abs(table.probs - exact)) <= 1e-6


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


def _loop_fwd_bounds(spec, h_step, model, budget=engine.STEP_BUDGET):
    """Reference: forward substep boundaries placed one cell, one node at a time."""
    n_c = max(2, int(round(spec.length / h_step)))
    edges = np.linspace(spec.s, spec.u, n_c + 1)
    probe_t = np.linspace(spec.s, spec.u, 4 * n_c + 1)
    lmin = np.min(model.rate_grid(probe_t, spec.ladder()), axis=1)
    seg = 0.5 * (lmin[:-1] + lmin[1:]) * np.diff(probe_t)
    lam_hat = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
    t_tab, v_tab = probe_t[:-1], np.log(lam_hat[:-1])
    depth_scale = max(1, spec.n) / budget
    fwd, out_idx = [spec.s], [0]
    for j in range(n_c - 1):
        t1, t2 = edges[j], edges[j + 1]
        v1, v2 = float(np.interp(t1, t_tab, v_tab)), float(np.interp(t2, t_tab, v_tab))
        n_sub = max(1, int(math.ceil((v1 - v2) * depth_scale)))
        for i in range(1, n_sub):
            t = float(np.interp(-(v1 + (v2 - v1) * i / n_sub), -v_tab, t_tab))
            fwd.append(min(t2, max(t1, t)))
        fwd.append(t2)
        out_idx.append(len(fwd) - 1)
    return np.asarray(fwd), np.asarray(out_idx)


@pytest.mark.parametrize("model, spec, h_step", [
    (Poisson(1.0), BridgeSpec(0, 5), 1e-3),
    (TimeExponential(20.0, -3.0), BridgeSpec(0, 12), 1e-2),
    (Product(1.0, 3.0, 0.1), BridgeSpec(2, 30, 0.25, 0.75), 2e-3),
], ids=["poisson", "time-exponential", "product-window"])
def test_mesh_placement_matches_the_cell_loop(model, spec, h_step):
    mesh = engine._Mesh(spec, h_step, model)
    fb, out_idx = _loop_fwd_bounds(spec, h_step, model)
    assert np.all(np.diff(fb) > 0)
    assert np.array_equal(mesh.fwd_bounds, fb)
    assert np.array_equal(mesh.out_fb_idx, out_idx)


def _walk_anchors(h):
    """Reference: each state's anchor found by walking down from its limit node."""
    spec, times = h.spec, h.times
    n, d_min = spec.n, spec.u - times[-2]
    out = np.full(n, -1)
    for zi in range(n):
        lim = spec.u - (n - zi) * d_min
        j = min(int(np.searchsorted(times, lim, side="right")) - 1, times.size - 2)
        while j >= 0 and not (np.isfinite(h.logh[j, zi]) and np.isfinite(h.logh[j, zi + 1])):
            j -= 1
        out[zi] = j
    return out


@pytest.mark.parametrize("model, spec, h_step", [
    (Poisson(1.0), BridgeSpec(0, 200), 1e-2),
    (TimeExponential(1.0, -3.0), BridgeSpec(0, 120), 1e-2),
    (Product(1.0, 3.0, 0.1), BridgeSpec(2, 30, 0.25, 0.75), 2e-3),
], ids=["poisson-underflowed", "time-exponential-underflowed", "product-window"])
def test_anchor_search_matches_the_walk(model, spec, h_step):
    # the first two fields reach far below exp(-700); every anchor is the last node
    # before its state's limit, and both of its columns are finite there
    h = solve_h(model, spec, h_step)
    assert np.array_equal(h.anchor_idx, _walk_anchors(h))
    assert np.all(h.anchor_idx >= 0)


def _up(w):
    """w shifted one state toward the pin: out[z] = w[z+1], 0 past the top."""
    return np.concatenate([w[1:], [0.0]])


def _down(w):
    """w shifted one state away from the pin: out[z] = w[z-1], 0 below the bottom."""
    return np.concatenate([[0.0], w[:-1]])


def _staged_step(r0, rm, r1, step, shift, v):
    """Reference: one diagonal-exact RK4 step through its four stages.

    Backward (_up) it runs from t + step down to t with signed length -step and
    couples each state at its own rate; forward (_down) it runs from t to
    t + step and feeds each state at the rate of the state below.
    """
    h = -step if shift is _up else step
    i_mid = h * (5.0 * r0 + 8.0 * rm - r1) / 24.0
    i_end = h * (r0 + 4.0 * rm + r1) / 6.0
    if shift is _up:
        c0, sign = r0, -1.0
        cm = rm * np.exp(shift(i_mid) - i_mid)
        ce = r1 * np.exp(shift(i_end) - i_end)
        ee = np.exp(i_end)
    else:
        c0, sign = shift(r0), 1.0
        cm = shift(rm) * np.exp(i_mid - shift(i_mid))
        ce = shift(r1) * np.exp(i_end - shift(i_end))
        ee = np.exp(-i_end)
    k1 = sign * c0 * shift(v)
    k2 = sign * cm * shift(v + (0.5 * h) * k1)
    k3 = sign * cm * shift(v + (0.5 * h) * k2)
    k4 = sign * ce * shift(v + h * k3)
    return (v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)) * ee


@pytest.mark.parametrize("shift", [_up, _down], ids=["up", "down"])
@pytest.mark.parametrize("width", range(1, 7))
def test_band_step_matches_the_staged_step(shift, width):
    # the column kernel solves a three-step sweep state by state; each of its steps
    # must be the staged step applied to the values it gave one node before.  Widths
    # below 5 exercise couplings S^d with d >= width, which must read zeros.
    rng = np.random.default_rng(width)
    n_steps = 3
    for _ in range(20):
        rates = rng.uniform(0.0, 50.0, (width, 2 * n_steps + 1))
        step = rng.uniform(0.0, 0.1, n_steps)
        log_x = np.empty((n_steps + 1, width))
        prior, feed = [], None
        for z in (range(width - 1, -1, -1) if shift is _up else range(width)):
            log_x[:, z], prior = engine._column(step, rates[z],
                                                rates[z] if shift is _up else feed, prior)
            feed = rates[z]
        assert not np.any(np.isnan(log_x))
        x = np.exp(log_x)
        for j in range(n_steps):
            r0, rm, r1 = rates[:, 2 * j], rates[:, 2 * j + 1], rates[:, 2 * j + 2]
            want = _staged_step(r0, rm, r1, step[j], shift, x[j])
            np.testing.assert_allclose(x[j + 1], want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("model, spec", [
    (Product(1.0, 3.0, 0.1), BridgeSpec(0, 10)),
    (Product(2.0, -4.0, 0.5), BridgeSpec(0, 8)),
    (SpaceLinear(2.0, 1.0), BridgeSpec(1, 9, 0.1, 0.9)),
], ids=["product-convex", "product-concave", "space-linear-window"])
def test_mean_curvature_is_the_mean_of_k_times_the_characteristic(model, spec):
    # the forward equation and d/dt log h = rate - k give m''(t) = E[k(t, X_t) char(t, X_t)]
    # exactly: the paper's convexity criterion as an identity.  Second differences of
    # the mean curve carry an O(step^2) truncation error.
    h = solve_h(model, spec, 1e-3, step_budget=0.005)
    table = marginal_table(model, spec, 1e-3, h=h, step_budget=0.005)
    d2 = second_differences(mean_curve(table))[:, 1]
    k = h.node_bridge_rates[h.mesh.out_node_idx[1:]]
    char = model.characteristic(table.times[1:-1, None], spec.ladder()[None, :])
    want = np.sum(table.probs[1:-1] * k * char, axis=1)
    assert np.max(np.abs(d2 - want)) <= 1e-4 * np.max(np.abs(d2))


def test_marginals_reuse_the_mesh_of_the_field(monkeypatch):
    spec = BridgeSpec(0, 6)
    model = Product(1.0, 3.0, 0.1)
    h = solve_h(model, spec)
    built = []
    real_mesh = engine._Mesh
    monkeypatch.setattr(engine, "_Mesh", lambda *a, **k: built.append(a) or real_mesh(*a, **k))
    marginal_table(model, spec, h=h)
    marginal_table_two_sided(model, spec, h=h)
    assert built == []
    marginal_table(model, spec)
    assert len(built) == 1


def test_solve_h_refuses_a_mesh_over_the_memory_cap():
    # 0 -> 3000 needs about 485k nodes x 3001 states: ~22 GiB for log h and the rates
    with pytest.raises(ResourceCap, match="GiB"):
        solve_h(Product(1.0, 3.0, 0.1), BridgeSpec(0, 3000))


def test_mesh_refusal_probes_rates_in_blocks():
    # the full (4 n_cells + 1) x 3001 probe would be 96 MB; blocks of CHUNK rows stay near 12 MB
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCap):
            solve_h(Product(1.0, 3.0, 0.1), BridgeSpec(0, 3000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20


def test_engine_stores_two_full_size_arrays():
    # coefficients are formed one state's column at a time, so the peak stays near
    # log h plus the bridge rates (two arrays of h.logh's size)
    model, spec = Product(1.0, 3.0, 0.1), BridgeSpec(0, 60)
    tracemalloc.start()
    try:
        h = solve_h(model, spec)
        solve_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        marginal_table(model, spec, h=h)
        marginal_table_two_sided(model, spec, h=h)
        route_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert solve_peak <= 4 * h.logh.nbytes
    assert route_peak <= 4 * h.logh.nbytes


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
