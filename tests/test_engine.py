import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom, linregress

from countbridge import engine
from countbridge.analytic import binomial_rows, tilted_cdf, tilted_cdf_window
from countbridge.engine import (BridgeSpec, MarginalTable, marginal_table,
                                marginal_table_two_sided, second_differences,
                                solve_h)
from countbridge.errors import (BadParameter, BadStep, BadWindow, ConservationLoss, ResourceCap,
                                Underflow)
from countbridge.intensity import ExpAffine, Poisson, Tabulated, constant_characteristic_model
from countbridge.sampler import sample_bridge
from oracles import (FullWindows, Product, SpaceLinear, TimeExponential, dense_logh,
                     exp_affine_logh, grid_index, rate)
# the column kernel's tests live with it in test_kernel.py, which the numpy-only job
# runs; imported here, they keep their ids in this module too
from test_kernel import (test_column_step_matches_the_staged_step,  # noqa: F401
                         test_log_cumsum_matches_logaddexp_accumulate,
                         test_windowed_column_steps_match_the_staged_step)


def test_bridge_spec_validation():
    spec = BridgeSpec(2, 7, 0.25, 0.75)
    assert spec.n == 5 and spec.length == 0.5
    with pytest.raises(ValueError):
        BridgeSpec(3, 2)
    with pytest.raises(BadParameter, match="x must be an integer, got 0.5"):
        BridgeSpec(0.5, 2)
    with pytest.raises(BadWindow):
        BridgeSpec(0, 2, 0.5, 0.5)
    with pytest.raises(BadWindow):
        BridgeSpec(0, 2, -0.1, 1.0)
    # one integer rule: an integral float, a bool or a string is no endpoint, and a
    # window end is a finite real number; each once built, or raised a bare TypeError
    for args, message in [((0, 5.0), "y must be an integer, got 5.0"),
                          ((True, 3), "x must be an integer, got True"),
                          ((0, 3, "0"), "s must be a finite real number, got '0'")]:
        with pytest.raises(BadParameter, match=message):
            BridgeSpec(*args)
    # past 2^53 floats no longer hold every state of the ladder
    with pytest.raises(BadParameter, match=r"<= 2\^53, got x = 0, y = 9.01e\+15"):
        BridgeSpec(0, 2 ** 53 + 1)
    assert BridgeSpec(-2 ** 53, 2 ** 53).n == 2 ** 54
    assert type(BridgeSpec(np.int64(2), np.int64(3)).x) is int


def test_solve_h_one_jump_closed_form():
    # single-jump pin: h(t,0) = a(u-t)exp(-a(u-t)), h(t,1) = exp(-a(u-t)), at every
    # mesh node before u (h(u, 0) = 0)
    for a, s, u in [(2.0, 0.0, 1.0), (0.7, 0.25, 0.9)]:
        spec = BridgeSpec(0, 1, s, u)
        h = solve_h(Poisson(a), spec, 1e-3)
        d, logh = u - h.times[:-1], dense_logh(h)
        assert np.max(np.abs(logh[:-1, 0] - (np.log(a * d) - a * d))) <= 2e-5
        assert np.max(np.abs(logh[:-1, 1] + a * d)) <= 2e-5
    # the output-grid nodes are tight
    h = solve_h(Poisson(2.0), BridgeSpec(0, 1), 1e-3)
    logh = dense_logh(h)
    for t in (0.0, 0.25, 0.5):
        i = int(np.searchsorted(h.times, t))
        assert h.times[i] == t
        assert logh[i, 0] == pytest.approx(math.log(2 * (1 - t)) - 2 * (1 - t), abs=1e-12)


def test_solve_h_five_jump_value():
    h = solve_h(Poisson(1.0), BridgeSpec(0, 5), 1e-3)
    assert h.times[0] == 0.0
    assert math.exp(dense_logh(h)[0, 0]) == pytest.approx(math.exp(-1) / 120, rel=1e-10)


def _pinned_grid(h, stop=None):
    """The pinned jump rates on the first ``stop`` mesh nodes (all by default), by
    the engine's formula from the densified field and each state's whole column of
    rates: one column per ladder state, 0 where h of the state or of the one above
    is not solved."""
    stop = h.times.size if stop is None else stop
    logh, t, states = dense_logh(h)[:stop], h.times[:stop], h.spec.ladder()[:-1]
    columns = h.model.rate_columns(t, states, np.zeros(states.size, int), np.full(states.size, stop))
    return np.column_stack([engine._pinned(logh[:, zi + 1], logh[:, zi], rates)
                            for zi, rates in enumerate(columns)] + [np.zeros(stop)])


def test_bridge_intensity_poisson_alpha_cancels():
    spec = BridgeSpec(0, 1)
    for alpha in (0.5, 2.0, 10.0):
        h = solve_h(Poisson(alpha), spec, 1e-3)
        k = _pinned_grid(h)
        # every node before u, down to the last one at u - 1e-5
        np.testing.assert_allclose(k[:-1, 0], 1.0 / (1.0 - h.times[:-1]), rtol=1e-7)
        assert np.all(k[:, 1] == 0.0)


def test_bridge_intensity_diverges_with_unit_slope():
    spec = BridgeSpec(0, 5)
    h = solve_h(Product(1.0, 3.0, 0.1), spec, 1e-3)
    ds = 1.0 - h.times
    near = (ds >= 1e-4) & (ds <= 0.1)
    fit = linregress(np.log(ds[near]), np.log(_pinned_grid(h)[near, 4]))
    assert abs(fit.slope + 1.0) < 0.05


def test_marginal_oracle_equivalence_subset():
    # full sweep lives in the acceptance suite; spot-check here
    for lam, y in [(3.0, 5), (-5.0, 20)]:
        model = constant_characteristic_model(lam)
        tab = marginal_table(model, BridgeSpec(0, y), 1e-3)
        for t in (0.25, 0.5, 0.75):
            row = tab.probs[grid_index(tab, t)]
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
        a = tab.probs[grid_index(tab, t)]
        b = tab.probs[grid_index(tab, 1.0 - t)][::-1]
        assert np.max(np.abs(a - b)) <= 1e-8


def test_mean_curve_endpoints_and_line():
    # the table's means seen from x, E[X_t] - x: its rows times 0..n
    tab = marginal_table(Poisson(2.0), BridgeSpec(0, 20), 1e-3)
    assert tab.offsets[0] == 0.0 and tab.offsets[-1] == 20.0
    assert np.max(np.abs(tab.offsets - 20.0 * tab.times)) <= 1e-6
    assert np.array_equal(tab.offsets, tab.probs @ np.arange(21.0))


def test_empty_bridge():
    spec = BridgeSpec(3, 3, 0.2, 0.7)
    h = solve_h(Poisson(1.5), spec, 1e-3)
    # no-jump pin: h(t,x) = exp(-a(u-t)), rate 0, constant marginal
    assert np.max(np.abs(dense_logh(h)[:, 0] + 1.5 * (0.7 - h.times))) <= 1e-10
    assert np.all(_pinned_grid(h) == 0.0)
    tab = marginal_table(Poisson(1.5), spec, 1e-3)
    assert np.all(tab.probs == 1.0)
    assert np.all(tab.offsets == 0.0)


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
    logh = dense_logh(h)
    assert h.times[0] == 0.0
    assert logh[0, 0] == pytest.approx(-1.0 - math.lgamma(201.0), abs=1e-5)
    # the shallow states stay representable and exact inside their windows: at
    # t = 0.99, where the bridge sits in state 199 with probability 0.27, one jump
    # is left in [t, 1], so log h = log(1 - t) - (1 - t)
    j = 2 * h.mesh.out_fb_idx[99]
    assert h.times[j] == pytest.approx(0.99, abs=1e-12)
    assert logh[j, 199] == pytest.approx(math.log(0.01) - 0.01, abs=1e-6)


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
    logh = dense_logh(h)
    assert logh[0, 0] == pytest.approx(-big_l + n * math.log(big_l) - math.lgamma(n + 1.0),
                                       abs=2e-6)
    assert logh[0, 0] == pytest.approx(log_h0, abs=1e-3)
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


def test_a_field_serves_every_equal_model():
    # the field of one frozen ExpAffine serves an equal one built apart; a
    # Tabulated has no ==, so only the model the field was solved for passes
    spec = BridgeSpec(0, 5)
    h = solve_h(ExpAffine(1, .5, .2), spec)
    model = ExpAffine(1, .5, .2)
    assert model is not h.model
    got, want = marginal_table(model, spec, h=h), marginal_table(h.model, spec, h=h)
    assert got.probs.tobytes() == want.probs.tobytes()
    marginal_table_two_sided(model, spec, h=h)
    sample_bridge(model, spec, h, 5, 1)
    tg = np.linspace(0.0, 1.0, 3)
    rates = np.tile(1.0 + np.arange(6.0), (3, 1))
    table = Tabulated(tg, 0, rates)
    h = solve_h(table, spec)
    marginal_table(table, spec, h=h)
    with pytest.raises(ValueError, match="different model"):
        marginal_table(Tabulated(tg, 0, rates), spec, h=h)


def test_two_sided_refuses_a_field_of_another_step():
    spec = BridgeSpec(0, 5)
    model = Poisson(1.0)
    h = solve_h(model, spec, 2e-3)
    with pytest.raises(BadStep):
        marginal_table_two_sided(model, spec, 1e-3, h=h)


@pytest.mark.parametrize("route", [marginal_table, marginal_table_two_sided],
                         ids=["pinned", "two-sided"])
def test_a_given_field_is_checked_by_its_cell_count_not_a_second_grid(monkeypatch, route):
    # a given field brings its grid: the step is checked against it by the cell count
    # alone, so the route forms no second grid (each once formed one to compare sizes)
    spec, model = BridgeSpec(0, 3), Poisson(1.0)
    h = solve_h(model, spec)
    calls = []
    real = engine.output_times
    monkeypatch.setattr(engine, "output_times", lambda *a: calls.append(a) or real(*a))
    table = route(model, spec, h=h)
    assert calls == []
    assert table.times is h.mesh.out_times
    with pytest.raises(BadStep, match="the h_step the field was solved with"):
        route(model, spec, 2e-3, h=h)


def test_marginals_refuse_a_field_of_another_bridge():
    # time-constant rates give both bridges the same mesh, so only the spec tells them apart
    tg = np.linspace(0.0, 1.0, 3)
    rates = np.tile(1.0 + np.arange(8.0) ** 2, (3, 1))
    model = Tabulated(tg, 0, rates, np.zeros_like(rates))
    h = solve_h(model, BridgeSpec(0, 3), 1e-3)
    routes = (lambda spec: marginal_table(model, spec, 1e-3, h=h),
              lambda spec: marginal_table_two_sided(model, spec, 1e-3, h=h),
              lambda spec: sample_bridge(model, spec, h, 5, 1))
    for route in routes:
        with pytest.raises(ValueError):
            route(BridgeSpec(2, 5))


def _loop_fwd_bounds(spec, h_step, model, budget=engine.STEP_BUDGET):
    """Reference: forward substep boundaries placed one cell, one node at a time,
    each cell graded for the deepest state live on it, plus the pin extension's
    node count."""
    n_c = max(2, int(round(spec.length / h_step)))
    edges = np.linspace(spec.s, spec.u, n_c + 1)
    probe_t = np.linspace(spec.s, spec.u, 4 * n_c + 1)
    lmin = np.min(rate(model, probe_t[:, None], spec.ladder()), axis=1)
    seg = 0.5 * (lmin[:-1] + lmin[1:]) * np.diff(probe_t)
    lam_hat = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
    t_tab, v_tab = probe_t[:-1], np.log(lam_hat[:-1])
    late = list(engine._cut_times(model, spec)[1])
    n = max(1, spec.n)

    def depth(t):
        # the states dead late by t are the lowest i of them, so the deepest live
        # one is n - i below the pin; the grading runs two states deeper
        return min(n, max(1, n + 2 - sum(1 for c in late if c < t)))

    fwd, out_idx = [spec.s], [0]
    for j in range(n_c - 1):
        t1, t2 = edges[j], edges[j + 1]
        v1, v2 = float(np.interp(t1, t_tab, v_tab)), float(np.interp(t2, t_tab, v_tab))
        n_sub = max(1, int(math.ceil((v1 - v2) * depth(t1) / budget)))
        for i in range(1, n_sub):
            t = float(np.interp(-(v1 + (v2 - v1) * i / n_sub), -v_tab, t_tab))
            fwd.append(min(t2, max(t1, t)))
        fwd.append(t2)
        out_idx.append(len(fwd) - 1)
    n_ext = int(math.ceil(math.log(engine.PIN_DEPTH) * depth(edges[n_c - 1]) / budget))
    return np.asarray(fwd), np.asarray(out_idx), n_ext


@pytest.mark.parametrize("model, spec, h_step", [
    (Poisson(1.0), BridgeSpec(0, 5), 1e-3),
    (TimeExponential(20.0, -3.0), BridgeSpec(0, 12), 1e-2),
    (Product(1.0, 3.0, 0.1), BridgeSpec(2, 30, 0.25, 0.75), 2e-3),
], ids=["poisson", "time-exponential", "product-window"])
def test_mesh_placement_matches_the_cell_loop(model, spec, h_step):
    mesh = engine._Mesh(spec, h_step, model)
    fb, out_idx, n_ext = _loop_fwd_bounds(spec, h_step, model)
    assert np.all(np.diff(fb) > 0)
    assert np.array_equal(mesh.fwd_bounds, fb)
    assert np.array_equal(mesh.out_fb_idx, out_idx)
    assert mesh.times.size == 2 * fb.size - 1 + n_ext + 1


@st.composite
def _exp_affine_bridges(draw):
    """An exp-affine model and a bridge of up to 80 jumps on a random window."""
    model = ExpAffine(draw(st.floats(0.1, 5.0)), draw(st.floats(0.0, 3.0)),
                      draw(st.floats(-8.0, 8.0)))
    x, n = draw(st.integers(0, 5)), draw(st.integers(0, 80))
    s = draw(st.floats(0.0, 0.8))
    u = draw(st.floats(s + 0.05, 1.0))
    return model, BridgeSpec(x, x + n, s, u)


@settings(max_examples=40, deadline=None)
@given(_exp_affine_bridges(), st.sampled_from([1e-2, 2e-3]))
def test_live_depth_grading_never_adds_nodes(bridge, h_step):
    # each cell is graded for at most the whole ladder, so a live-graded mesh has no
    # more nodes than the one graded for depth n everywhere; the late cuts it counts
    # rise with the state
    model, spec = bridge
    mesh = engine._Mesh(spec, h_step, model)
    assert mesh.times.size <= engine._Mesh(spec, h_step, FullWindows(model)).times.size
    assert np.all(np.diff(engine._cut_times(model, spec)[1]) >= 0)


def test_lead_bridge_mesh_stays_under_12000_nodes():
    # TimeExponential(1, -3), 0 -> 200 took 45,231 nodes graded for depth 200
    # everywhere; near u only shallow states are live.  The mesh is only laid out
    mesh = engine._Mesh(BridgeSpec(0, 200), 1e-3, TimeExponential(1.0, -3.0))
    assert mesh.times.size <= 12000


def _walk_anchors(h):
    """Reference: each state's anchor found by walking down from its limit node."""
    spec, times = h.spec, h.times
    n, d_min = spec.n, spec.u - times[-2]
    logh = dense_logh(h)
    out = np.full(n, -1)
    for zi in range(n):
        lim = spec.u - (n - zi) * d_min
        j = min(int(np.searchsorted(times, lim, side="right")) - 1, times.size - 2)
        while j >= 0 and not (np.isfinite(logh[j, zi]) and np.isfinite(logh[j, zi + 1])):
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


@pytest.mark.parametrize("model", [Poisson(1.0), Product(1.0, 3.0, 0.1),
                                   TimeExponential(1.0, 8.0)], ids=["poisson", "product", "te8"])
@pytest.mark.parametrize("n, length, h_step", [
    (40, 0.02, 1e-2), (300, 0.02, 1e-2), (300, 0.05, 1e-2), (300, 0.02, 1e-3),
])
def test_deep_bridges_on_short_windows_have_anchors(model, n, length, h_step):
    # d0 is at most a hundredth of the mean jump spacing, so a state m below the pin
    # anchors at most m d0 <= (u - s) / 100 before u: inside its window, where its
    # log h is finite
    spec = BridgeSpec(0, n, 0.5, 0.5 + length)
    h = solve_h(model, spec, h_step)
    assert np.all(h.anchor_idx >= h.mesh.h_lo[:-1])
    assert np.all(np.isfinite([h.logh.column(zi, j, j + 1)[0]
                               for zi, j in enumerate(h.anchor_idx.tolist())]))


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
    table = marginal_table(model, spec, 1e-3, h=h)
    d2 = second_differences(np.column_stack([table.times, table.offsets]))[:, 1]
    k = _pinned_grid(h)[2 * h.mesh.out_fb_idx[1:]]
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
    # 0 -> 8000 lays out about 250k nodes, and the windows of its 8001 states hold
    # log h in 2.6 GiB; with what the sweeps and the table hold beside it, 2.7 GiB
    with pytest.raises(ResourceCap, match="2.7 GiB"):
        solve_h(Product(1.0, 3.0, 0.1), BridgeSpec(0, 8000))


def test_solve_h_refuses_a_tall_ladder_before_its_arrays_exist():
    # the mesh once laid out three ladder-long arrays first, and raised a bare MemoryError
    with pytest.raises(ResourceCap, match=r"a mesh over 9.01e\+15 states needs about"):
        solve_h(ExpAffine(1.0, 0.5), BridgeSpec(0, 2 ** 53))


def test_solve_h_refuses_a_rate_integral_that_underflows_before_u():
    # rate e^(-800 t): the remaining integrated rate is 0 in doubles from t = 0.921 on,
    # so it has no log to grade the mesh by
    with pytest.raises(Underflow, match="underflows to 0 at t = 0.921"):
        solve_h(constant_characteristic_model(-800.0), BridgeSpec(0, 5))


def test_mesh_refusal_probes_rates_in_blocks():
    # the full (4 n_cells + 1) x 8001 probe would be 256 MB; one state's column at a
    # time stays near 0.2 MB, and the band is refused before its buffer exists
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCap):
            solve_h(Product(1.0, 3.0, 0.1), BridgeSpec(0, 8000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20


def test_engine_stores_two_full_size_arrays():
    # coefficients and pinned rates are formed one state's column at a time, so the
    # peak stays near log h, the one array of its size
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


def _traced_peak(call):
    """The peak of the memory tracemalloc traces while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module", params=[136, 200], ids=lambda n: f"product-{n}")
def tall(request):
    """A Product(1, 3, 0.1) bridge 0 -> n, its h-field and its table, formed untraced."""
    model, spec = Product(1.0, 3.0, 0.1), BridgeSpec(0, request.param)
    h = solve_h(model, spec)
    return model, spec, h, marginal_table(model, spec, h=h)


@pytest.mark.parametrize("route", [marginal_table, marginal_table_two_sided])
def test_a_marginal_route_holds_one_table(tall, route):
    # each route normalises, pins and checks its table in the buffer it integrates it
    # into: 1.7 to 1.9 table sizes, the table included (4.1 with a pinned copy of it,
    # and validate's tails and their differences, beside it)
    model, spec, h, table = tall
    assert _traced_peak(lambda: route(model, spec, h=h)) <= 2 * table.probs.nbytes


def test_validate_reads_the_tails_in_blocks(tall):
    # its finite mask and one block's tails and differences: 0.25 to 0.37 table sizes
    # (2.1 with the whole tail matrix and its differences)
    table = tall[3]
    assert _traced_peak(table.validate) <= 0.5 * table.probs.nbytes


@pytest.mark.parametrize("block", [3, 6, 7, 9, 1 << 14])
def test_validate_finds_a_falling_tail_across_every_block_edge(monkeypatch, block):
    # consecutive blocks share a row, so the rows on each side of a block edge are read
    # together; a table of 10 x 3 cells is one block at 1 << 14, as at the default
    monkeypatch.setattr(engine, "BLOCK_CELLS", block)
    spec, times = BridgeSpec(0, 2), np.linspace(0.0, 1.0, 10)
    p = times[:, None]
    rows = np.hstack([(1.0 - p) ** 2, 2.0 * p * (1.0 - p), p * p])
    MarginalTable(spec, times, rows, 0.0).validate()
    for k in range(1, 8):
        swapped = rows.copy()
        swapped[[k, k + 1]] = rows[[k + 1, k]]
        tails = np.cumsum(swapped[:, ::-1], axis=1)[:, ::-1]
        worst = np.min(np.diff(tails, axis=0))
        with pytest.raises(ConservationLoss, match=f"violated by {-worst:.3e}"):
            MarginalTable(spec, times, swapped, 0.0).validate()


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
    unpinned = np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.0, 1.0]])
    with pytest.raises(ConservationLoss, match="endpoint rows are not pinned"):
        MarginalTable(spec, times, unpinned, 0.0).validate()
    # P(X_t >= 1) falls from 1 to 0.5 between the middle rows
    falling = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ConservationLoss, match="tail monotonicity in t violated by 5.000e-01"):
        MarginalTable(spec, np.linspace(0, 1, 4), falling, 0.0).validate()


def test_general_window_marginals():
    spec = BridgeSpec(1, 4, 0.2, 0.8)
    tab = marginal_table(SpaceLinear(3.0, 1.0), spec, 1e-3)
    from countbridge.analytic import tilted_cdf_window
    for t in (0.35, 0.5, 0.65):
        p = tilted_cdf_window(3.0, 0.2, 0.8, t)
        exact = binom.pmf(np.arange(4), 3, p)
        row = tab.probs[grid_index(tab, t)]
        assert np.max(np.abs(row - exact)) <= 1e-6


class _CountingModel:
    """A model whose rate readers are counted; ``per_state`` builds each reader from
    one call per state of the oracle's ``rate(model, times[lo:hi], z)``."""

    def __init__(self, model, per_state=False):
        self.model, self.per_state = model, per_state
        self.readers = []

    def __getattr__(self, name):
        return getattr(self.model, name)

    def rate_columns(self, times, states, lo, hi):
        self.readers.append(len(states))
        if self.per_state:
            return (rate(self.model, times[a:b], z) for z, a, b in zip(states, lo, hi))
        return self.model.rate_columns(times, states, lo, hi)


@pytest.mark.parametrize("model, spec", [
    (Product(1.0, 3.0, 0.1), BridgeSpec(0, 9)),
    (TimeExponential(20.0, -3.0), BridgeSpec(2, 14, 0.25, 0.75)),
    (Tabulated(np.linspace(0.0, 1.0, 11), 0,
               (1.0 + 0.3 * np.arange(9.0))[None, :] * np.exp(np.sin(3.0 * np.linspace(0.0, 1.0, 11)))[:, None]),
     BridgeSpec(1, 8)),
], ids=["product", "time-exponential-window", "tabulated"])
def test_sweeps_read_rates_through_one_reader_each(model, spec, monkeypatch):
    # fresh buffers hold NaN, so a cell the solver leaves unwritten shows
    real_empty_like = np.empty_like

    def poisoned(*args, **kwargs):
        out = real_empty_like(*args, **kwargs)
        out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty_like", poisoned)
    counted, reference = _CountingModel(model), _CountingModel(model, per_state=True)
    results = []
    for m in (counted, reference):
        h = solve_h(m, spec, 1e-2)
        results.append((h, marginal_table(m, spec, 1e-2, h=h),
                        marginal_table_two_sided(m, spec, 1e-2, h=h)))
    # one reader each for the mesh probe, solve_h, the pinned route and the two-sided
    # route, over the whole ladder but for the pin state, which the pinned route does
    # not read
    assert counted.readers == [spec.n + 1, spec.n + 1, spec.n, spec.n + 1]
    (h, one, two), (h_ref, one_ref, two_ref) = results
    assert np.array_equal(dense_logh(h), dense_logh(h_ref))
    assert np.array_equal(one.probs, one_ref.probs)
    assert np.array_equal(two.probs, two_ref.probs)
    # the pinned route reads, on each state's forward rows, the rates formed from the
    # densified field; the pin state has no jump left
    grid = _pinned_grid(h)
    assert np.all(grid[:, spec.n] == 0.0)
    for zi, (k, lo, hi) in enumerate(zip(h.pinned_rates(), *h.mesh.fwd_rows)):
        assert np.array_equal(k, grid[lo:hi, zi])


def test_solve_h_peaks_near_the_one_stored_array():
    # log h is the only (nodes x ladder) array solve_h holds; the sweep's own columns
    # add about a quarter of it at n = 200
    model, spec = Product(1.0, 3.0, 0.1), BridgeSpec(0, 200)
    tracemalloc.start()
    try:
        h = solve_h(model, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * h.logh.nbytes


def test_mesh_cap_admits_6600_jumps_and_refuses_6700():
    # at h_step 1e-3 the band of log h takes 1.86 GiB for 0 -> 6600 and 1.91 GiB for
    # 0 -> 6700; with what the sweeps and the table hold beside it, 1.99 and 2.04 GiB.
    # The mesh is only laid out, so a wrong cap allocates nothing large
    model = Product(1.0, 3.0, 0.1)
    mesh = engine._Mesh(BridgeSpec(0, 6600), 1e-3, model)
    assert 8 * np.sum(mesh.h_hi - mesh.h_lo + 1) <= engine.MEMORY_CAP
    with pytest.raises(ResourceCap, match="2.0 GiB; the cap is 2 GiB"):
        engine._Mesh(BridgeSpec(0, 6700), 1e-3, model)


@pytest.mark.parametrize("b", [5e11, 5.5e11])
def test_a_pin_layer_at_its_floor_keeps_distinct_nodes(b):
    # rates 1 + b z, 0 -> 6: the last step d0 = 1e-2 / r_top is 13-15 ulps of u, where
    # nodes of the geometric grading round together; the layer keeps each once, so
    # no step is empty (a log of 0, an error in this suite), and r_top d0 stays at 1e-2
    rates = np.tile(1.0 + b * np.arange(8.0), (3, 1))
    model, spec = Tabulated([0.0, 0.5, 1.0], 0, rates, np.zeros_like(rates)), BridgeSpec(0, 6)
    h = solve_h(model, spec)
    assert np.all(np.diff(h.times) > 0)
    assert rates[0, 6] * (spec.u - h.times[-2]) <= 1e-2
    assert marginal_table(model, spec, h=h).probs[1:-1, 0].min() == 1.0


@pytest.mark.parametrize("model, spec, whole", [
    (TimeExponential(1.0, -3.0), BridgeSpec(0, 60), False),
    (Product(1.0, 3.0, 0.1), BridgeSpec(2, 30, 0.25, 0.75), False),
    (FullWindows(Product(1.0, 3.0, 0.1)), BridgeSpec(0, 12), True),
    (Poisson(1.5), BridgeSpec(3, 3, 0.2, 0.7), True),
], ids=["time-exponential", "product-window", "full-windows", "empty"])
def test_log_h_band_holds_exactly_the_windows(model, spec, whole, monkeypatch):
    # fresh buffers hold NaN, so a band cell solve_h leaves unwritten shows; the
    # windows lie end to end in the buffer, and the field is -inf outside them.
    # Full windows, and the one state of an empty bridge, take the whole mesh
    real_empty = np.empty

    def poisoned(*args, **kwargs):
        out = real_empty(*args, **kwargs)
        out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty", poisoned)
    h = solve_h(model, spec, 1e-2)
    mesh, band = h.mesh, h.logh
    size = mesh.h_hi - mesh.h_lo + 1
    assert band.shape == (h.times.size, spec.n + 1)
    assert band.nbytes == band.values.nbytes == 8 * size.sum()
    assert np.array_equal(band.start + mesh.h_lo, np.cumsum(size) - size)
    assert not np.any(np.isnan(band.values))
    logh = dense_logh(h)
    j = np.arange(h.times.size)[:, None]
    outside = (j < mesh.h_lo) | (j > mesh.h_hi)
    assert np.all(logh[outside] == -np.inf)
    assert outside.any() != whole


def test_pinned_rates_past_the_float_range_of_the_h_ratio():
    # rate e^(-700 t): h(t, y) / h(t, y-1) = 1 / (integrated rate) exceeds the float
    # range near u, so the one-jump-left rate is formed as exp(log ratio + log rate);
    # on the unwindowed field it is the closed-form hazard 700 / (1 - e^(-700 (u - t)))
    # on every node before u.  The windowed field closes that state's window before
    # t = 0.07, long before the ratio leaves the float range; there the rate is the
    # hazard on every node where the bridge holds the state with probability 1e-10
    # or more
    spec = BridgeSpec(0, 5)
    model = constant_characteristic_model(-700.0)
    full, windowed = solve_h(FullWindows(model), spec), solve_h(model, spec)
    stop = full.times.size - 1
    logh = dense_logh(full)
    ratio = logh[:stop, spec.n] - logh[:stop, spec.n - 1]
    assert np.any(ratio > math.log(np.finfo(float).max))
    hazard = 700.0 / -np.expm1(-700.0 * (spec.u - full.times[:stop]))
    k = _pinned_grid(full, stop)[:, spec.n - 1]
    np.testing.assert_allclose(k, hazard, rtol=1e-9, atol=0.0)
    t = windowed.times[:-1]
    k = _pinned_grid(windowed)[:-1, spec.n - 1]
    held = binom.pmf(spec.n - 1, spec.n, tilted_cdf(-700.0, t)) >= 1e-10
    assert held.sum() > 100
    hazard = 700.0 / -np.expm1(-700.0 * (spec.u - t[held]))
    np.testing.assert_allclose(k[held], hazard, rtol=1e-9, atol=0.0)


@st.composite
def _constant_characteristic_bridges(draw):
    """An exp-affine model whose characteristic is a constant lam, and a bridge of
    up to 60 jumps on a random window."""
    lam = draw(st.floats(-20.0, 20.0))
    model = SpaceLinear(lam, 1.0) if lam > 0 and draw(st.booleans()) else TimeExponential(1.0, lam)
    x, n = draw(st.integers(0, 5)), draw(st.integers(1, 60))
    s = draw(st.floats(0.0, 0.8))
    u = draw(st.floats(s + 0.05, 1.0))
    return model, BridgeSpec(x, x + n, s, u)


@settings(max_examples=25, deadline=None)
@given(_constant_characteristic_bridges())
def test_windows_leave_out_only_cells_the_bridge_almost_never_holds(bridge):
    # X_t - x is Binomial(n, p(t)) with p the tilted profile; a cell before its
    # state's window has P(X_t >= z) <= WINDOW_TAIL and one after it P(X_t <= z) <=
    # WINDOW_TAIL, by the exact law, for the forward columns and the solve_h columns
    # (whose seed 0 at h_hi is a cut unless it sits at u)
    model, spec = bridge
    mesh = engine._Mesh(spec, 1e-2, model)
    lam, eps, last = model.characteristic(spec.s, spec.x), engine.WINDOW_TAIL, mesh.times.size - 1
    i = np.arange(spec.n + 1)

    def tails(t):
        p = tilted_cdf_window(lam, spec.s, spec.u, t)[:, None]
        return binom.sf(i - 1, spec.n, p), binom.cdf(i, spec.n, p)

    k = np.arange(mesh.fwd_bounds.size)[:, None]
    up, down = tails(mesh.fwd_bounds)
    assert np.all(up[k < mesh.fwd_lo] <= eps) and np.all(down[k > mesh.fwd_hi] <= eps)
    j = np.arange(last + 1)[:, None]
    up, down = tails(mesh.times)
    assert np.all(up[j < mesh.h_lo] <= eps)
    assert np.all(down[(j >= mesh.h_hi) & (mesh.h_hi < last)] <= eps)
    # one node range per state, both ends rising with the state
    for lo, hi in ((mesh.fwd_lo, mesh.fwd_hi), (mesh.h_lo, mesh.h_hi)):
        assert np.all(lo <= hi) and np.all(np.diff(lo) >= 0) and np.all(np.diff(hi) >= 0)


def _paths_thinning_tabulated(n):
    """A paths-thinning-style Tabulated model: rates a g(t) (1 + kappa z) on 11 nodes,
    g = exp(b t + w sin(2 pi t + phase)), with exact nodal derivatives; a makes n
    jumps on [0, 1] the unconditioned process's typical count."""
    b, w, phase, kappa = -0.9, 0.25, 1.3, 0.2
    fine = np.linspace(0.0, 1.0, 2001)
    g_int = float(np.trapezoid(np.exp(b * fine + w * np.sin(2.0 * math.pi * fine + phase)), fine))
    a = math.log1p(kappa * n) / (kappa * g_int)
    t = np.linspace(0.0, 1.0, 11)
    g = np.exp(b * t + w * np.sin(2.0 * math.pi * t + phase))
    dg = g * (b + 2.0 * math.pi * w * np.cos(2.0 * math.pi * t + phase))
    states = 1.0 + kappa * np.arange(n + 1)
    return Tabulated(t, 0, a * np.outer(g, states), a * np.outer(dg, states))


@pytest.mark.parametrize("model, spec, share", [
    (Product(1.0, 3.0, 0.1), BridgeSpec(0, 60), 0.8),
    (ExpAffine(0.7, 1.3, -2.0), BridgeSpec(3, 40, 0.2, 0.9), 0.8),
    (TimeExponential(60.0, -3.0), BridgeSpec(0, 60), 0.8),
    (SpaceLinear(2.0, 1.0), BridgeSpec(1, 30, 0.1, 0.9), 0.8),
    (Tabulated(np.linspace(0.0, 1.0, 11), 0, (1.0 + 0.3 * np.arange(9.0))[None, :]
               * np.exp(np.sin(3.0 * np.linspace(0.0, 1.0, 11)))[:, None]), BridgeSpec(1, 8), 0.99),
    (_paths_thinning_tabulated(27), BridgeSpec(0, 27), 0.85),
], ids=["product", "exp-affine-window", "time-exponential", "space-linear-window",
        "tabulated-sin", "tabulated-paths-thinning"])
def test_windowed_sweeps_match_the_full_window_reference(model, spec, share, monkeypatch):
    # the windows skip cells that hold at most 2 (n + 1) WINDOW_TAIL of the bridge, so
    # both tables stay within 1e-11 of the unwindowed kernel's on the same mesh, and
    # the sampled jump times within 1e-12; the windows hold less than ``share`` of
    # the cells (a 7-jump bridge whose characteristic spans [-3, 3.7] skips few)
    h = solve_h(model, spec)
    place = engine._Mesh._place_windows
    whole = np.full(spec.n + 1, spec.s), np.full(spec.n + 1, spec.u)
    monkeypatch.setattr(engine._Mesh, "_place_windows", lambda mesh, cuts: place(mesh, whole))
    ref = solve_h(model, spec)
    assert np.array_equal(h.times, ref.times)
    assert np.all(ref.mesh.h_lo == 0) and np.all(ref.mesh.h_hi == ref.times.size - 1)
    assert np.sum(h.mesh.h_hi - h.mesh.h_lo) < share * (spec.n + 1) * h.times.size
    for route in (marginal_table, marginal_table_two_sided):
        gap = np.abs(route(model, spec, h=h).probs - route(model, spec, h=ref).probs)
        assert np.max(gap) <= 1e-11
    got = sample_bridge(model, spec, h, 500, 5).times
    want = sample_bridge(model, spec, ref, 500, 5).times
    assert np.max(np.abs(got - want)) <= 1e-12


def test_steeply_decaying_rates_are_solved_inside_every_window():
    # rate e^(-700 t), 0 -> 5: the windows of states 0-3 close by t = 0.036; both
    # tables match the closed form, and every solved cell, where the closed-form h
    # (a Poisson law of the integrated rate) is positive, is finite
    model, spec = TimeExponential(1.0, -700.0), BridgeSpec(0, 5)
    h = solve_h(model, spec)
    assert np.all(h.times[h.mesh.h_hi[:4]] <= 0.036)
    for route in (marginal_table, marginal_table_two_sided):
        table = route(model, spec, h=h)
        exact = binom.pmf(np.arange(6)[None, :], 5, tilted_cdf(-700.0, table.times)[:, None])
        assert np.max(np.abs(table.probs - exact)) <= 1e-6
    logh = dense_logh(h)
    for zi in range(spec.n + 1):
        # below the pin the seed at h_hi is 0
        stop = h.times.size if zi == spec.n else h.mesh.h_hi[zi]
        assert np.all(np.isfinite(logh[h.mesh.h_lo[zi]:stop, zi]))


def test_steeply_decaying_rates_keep_log_h_on_full_windows():
    # rate e^(-700 t), 0 -> 5, every state live on the whole mesh: the rates fall to
    # e^-699 before the pin layer, so a coupling formed as a product of several
    # rates would underflow to 0.  Every cell before the pin layer where the closed
    # form is finite is finite here and within 1e-9 max(1, |log h|) of it
    model, spec = TimeExponential(1.0, -700.0), BridgeSpec(0, 5)
    h = solve_h(FullWindows(model), spec, 1e-3)
    stop = h.mesh.n_fwd_nodes
    logh = dense_logh(h)[:stop]
    exact = exp_affine_logh(model, spec, h.times[:stop])
    finite = np.isfinite(exact)
    assert np.all(np.isfinite(logh[finite]))
    err = np.abs(logh[finite] - exact[finite]) / np.maximum(1.0, np.abs(exact[finite]))
    assert np.max(err) <= 1e-9


@pytest.mark.parametrize("b, n", [(800.0, 5), (1000.0, 10)])
def test_windows_hold_at_a_characteristic_bound_past_the_exp_range(b, n):
    # rates 1 + b z on knots 0, 0.5, 1: the characteristic is b, and b (u - s) is past
    # 709.78, where the window cuts once fell back to the whole mesh.  The windows
    # now leave cells out (9,434 of 15,498 and 17,459 of 36,289 band cells), the
    # table stays within 1e-12 of the full-window one and within 1e-8 of the
    # binomial law of the tilted profile
    model = Tabulated(np.array([0.0, 0.5, 1.0]), 0, np.tile(1.0 + b * np.arange(n + 1.0), (3, 1)))
    spec, full = BridgeSpec(0, n), FullWindows(model)
    h, ref = solve_h(model, spec), solve_h(full, spec)
    assert h.logh.values.size < ref.logh.values.size
    table = marginal_table(model, spec, h=h)
    assert np.max(np.abs(table.probs - marginal_table(full, spec, h=ref).probs)) <= 1e-12
    # (scipy's binom.pmf overflows on its p of e^-800)
    exact = binomial_rows(n, tilted_cdf_window(b, 0.0, 1.0, table.times))
    assert np.max(np.abs(table.probs - exact)) <= 1e-8


NO_MASKED_ARRAYS_SCRIPT = """
import sys
import numpy as np
from countbridge.engine import BridgeSpec, marginal_table, marginal_table_two_sided, solve_h
from countbridge.intensity import ExpAffine, Tabulated
from countbridge.sampler import sample_bridge
from countbridge.verify import duality_catalog, duality_check

tg = np.linspace(0.0, 1.0, 11)
rates = (1.0 + 0.3 * np.arange(9.0))[None, :] * np.exp(np.sin(3.0 * tg))[:, None]
spec = BridgeSpec(0, 8)
for model in (ExpAffine(1.0, 0.5, 2.0), Tabulated(tg, 0, rates)):
    h = solve_h(model, spec, 1e-2)
    marginal_table(model, spec, 1e-2, h=h)
    marginal_table_two_sided(model, spec, 1e-2, h=h)
    paths = sample_bridge(model, spec, h, 50, 1)
    for phi, u in duality_catalog():
        duality_check(model, spec, u, phi, None, None, paths=paths)
print("numpy.ma" in sys.modules)
"""


def test_the_engine_and_sampler_import_no_masked_arrays():
    # numpy.ma, which np.unique imports, adds about 1.7 MB of RSS; no solve, table,
    # path or duality check on either kind of model loads it
    src = str(pathlib.Path(engine.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    r = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c",
                        NO_MASKED_ARRAYS_SCRIPT], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"
