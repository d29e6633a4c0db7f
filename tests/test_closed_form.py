"""Both marginal routes and the h-field against the exp-affine closed forms."""

import numpy as np
import pytest
from scipy.stats import binom

from countbridge.analytic import tilted_cdf_window
from countbridge.engine import BridgeSpec, marginal_table, marginal_table_two_sided, solve_h
from countbridge.intensity import ExpAffine, Poisson, Product, SpaceLinear, TimeExponential
from oracles import dense_logh, exp_affine_logh, exp_affine_marginals

BRIDGES = {
    "time-exponential-200": (TimeExponential(1.0, -3.0), BridgeSpec(0, 200)),
    "product-200": (Product(1.0, 3.0, 0.1), BridgeSpec(0, 200)),
    "exp-affine-window": (ExpAffine(0.7, 1.3, -2.0), BridgeSpec(3, 40, 0.2, 0.9)),
    "product-concave": (Product(2.0, -4.0, 0.5), BridgeSpec(0, 8)),
    "space-linear-136": (SpaceLinear(2.0, 1.0), BridgeSpec(0, 136)),
}


@pytest.fixture(scope="module", params=list(BRIDGES))
def solved(request):
    model, spec = BRIDGES[request.param]
    return model, spec, solve_h(model, spec)


def test_oracle_is_the_tilted_binomial_for_a_constant_characteristic():
    # b = 0 or lam = 0 leaves the characteristic constant, where the bridge law is
    # the tilted binomial and h of the last jump the one-jump closed form
    t = np.linspace(0.2, 0.9, 15)
    spec = BridgeSpec(1, 7, 0.2, 0.9)
    for model, lam in ((TimeExponential(1.5, -2.5), -2.5), (SpaceLinear(1.7, 0.4), 1.7)):
        p = tilted_cdf_window(lam, spec.s, spec.u, t)
        want = binom.pmf(np.arange(7)[None, :], 6, p[:, None])
        np.testing.assert_allclose(exp_affine_marginals(model, spec, t), want, rtol=1e-12, atol=1e-13)
    a, spec, t = 2.0, BridgeSpec(0, 1, 0.2, 0.9), t[:-1]
    d = spec.u - t
    np.testing.assert_allclose(exp_affine_logh(Poisson(a), spec, t),
                               np.column_stack([np.log(a * d) - a * d, -a * d]), rtol=1e-13)


def test_both_routes_match_the_closed_form(solved):
    # the engine's marginals of every exp-affine bridge are the binomial law on the
    # clock tau, to the integrator's accuracy
    model, spec, h = solved
    for route in (marginal_table, marginal_table_two_sided):
        table = route(model, spec, h=h)
        assert np.max(np.abs(table.probs - exp_affine_marginals(model, spec, table.times))) <= 1e-6


def test_a_deep_bridge_on_a_short_window_matches_the_closed_form():
    # 300 jumps in 0.02 at h_step 1e-2: a pin layer sized by the output step alone
    # left the two-sided table 1.15e-4 off; sized by the jump spacing it is exact
    model, spec = Poisson(1.0), BridgeSpec(0, 300, 0.5, 0.52)
    table = marginal_table_two_sided(model, spec, 1e-2)
    assert np.max(np.abs(table.probs - exp_affine_marginals(model, spec, table.times))) <= 1e-6


def test_log_h_matches_the_closed_form_where_the_bridge_holds_the_state(solved):
    # on every cell the bridge holds with probability 1e-10 or more, up to each
    # state's pin asymptote anchor, log h is the negative-binomial law's.  The
    # bounds were fixed on the n-graded mesh, whose worst cases were 1.4e-6 before
    # the pin layer (time-exponential-200) and 3.2e-4 inside it (product-200, at an
    # anchor five states below the pin)
    model, spec, h = solved
    last = h.times.size - 1
    exact = exp_affine_logh(model, spec, h.times)
    held = exp_affine_marginals(model, spec, h.times) >= 1e-10
    node = np.arange(last + 1)[:, None]
    checked = held & (node <= np.append(h.anchor_idx, last))
    assert np.all(np.isfinite(dense_logh(h)[checked]))
    err = np.where(checked, np.abs(dense_logh(h) - np.where(checked, exact, 0.0)), 0.0)
    fwd = h.mesh.n_fwd_nodes
    assert np.max(err[:fwd]) <= 5e-6
    assert np.max(err[fwd:]) <= 1e-3
