"""The jump times of two bridges drawn from one seed, compared path by path.

``sample_bridge`` draws jump j + 1 of path r by inverting the pinned survival of
state x + j at L(T_j) + E[r, j], E the seed's Exp(1) masses, so two bridges of
the same x, y, s and u drawn from one seed are coupled path by path; the exact
sampler sorts the clock quantiles of the seed's uniforms, a coupling too.  The
paper's comparison theorem orders the jump times' laws by the characteristic;
that these couplings order every jump of every path, with no slack, is what
these fixed-seed cases find, not a quoted theorem.  This file imports no scipy,
so the numpy-only CI job runs it.
"""

import math

import numpy as np
import pytest

from countbridge.engine import BridgeSpec, solve_h
from countbridge.intensity import ExpAffine, Tabulated
from countbridge.sampler import sample_bridge, sample_constant

PATHS = 5000
KNOTS = np.linspace(0.0, 1.0, 11)


def _product_rates(rng, top, shape):
    """A Tabulated rate f(t) g(z) on states 0..top: f = 1 + a sin(w t + phase) on
    eleven knots, with its exact derivative, and g positive with increasing, sign-
    changing or decreasing differences, as ``shape`` says."""
    a, w, phase = rng.uniform(0.1, 0.8), rng.uniform(1.0, 8.0), rng.uniform(0.0, 2 * math.pi)
    f = 1.0 + a * np.sin(w * KNOTS + phase)
    df = a * w * np.cos(w * KNOTS + phase)
    z = np.arange(top + 1.0)
    g = {"increasing": 1.0 + rng.uniform(0.05, 0.4) * z,
         "sign-changing": 2.0 + np.sin(rng.uniform(0.3, 1.2) * z),
         "decreasing": 1.0 + 3.0 * np.exp(-rng.uniform(0.05, 0.3) * z)}[shape]
    return Tabulated(KNOTS, 0, np.outer(f, g), np.outer(df, g))


def _bridges():
    """Fixed-seed bridges of every shape: the model, the bridge, and n from 3 to 39."""
    rng = np.random.default_rng(2026)
    out = []
    for k in range(9):
        x, n = int(rng.integers(0, 6)), int(rng.integers(3, 40))
        s = rng.uniform(0.0, 0.3)
        u = rng.uniform(s + 0.4, 1.0)
        shape = ("increasing", "sign-changing", "decreasing")[k % 3]
        out.append((_product_rates(rng, x + n, shape), BridgeSpec(x, x + n, s, u)))
    return out


BRIDGES = _bridges()


def _times(model, spec, seed=7):
    return sample_bridge(model, spec, solve_h(model, spec), PATHS, seed).times


def _lambda_times(lam, spec):
    """The lambda-bridge's paths: the constant characteristic lam, drawn by inversion."""
    return _times(ExpAffine(1.0, 0.0, lam), spec)


def _gap(early, late):
    """The smallest late - early over every jump of every path."""
    return float(np.min(late - early))


@pytest.mark.parametrize("model, spec", BRIDGES, ids=[f"n{s.n}" for _, s in BRIDGES])
def test_a_bridge_lies_between_its_lambda_bridges_at_its_bounds(model, spec):
    # a characteristic at least inf makes every jump no earlier than the inf-bridge's,
    # and at most sup no later than the sup-bridge's
    bounds = model.characteristic_bounds((spec.s, spec.u), (spec.x, spec.y - 1))
    times = _times(model, spec)
    gaps = (_gap(_lambda_times(bounds.inf, spec), times),
            _gap(times, _lambda_times(bounds.sup, spec)))
    print(f"n = {spec.n}: smallest gaps {gaps[0]:.3g} (inf), {gaps[1]:.3g} (sup)")
    assert min(gaps) >= 0.0


def test_a_lambda_strictly_inside_the_bounds_breaks_the_order():
    # the order is no artefact of the coupling: halfway between the bounds, some jump
    # falls on the wrong side of the lambda-bridge's on every bridge, and on most
    # some falls on each side (on n = 21 every path lies after the midpoint's)
    both = 0
    for model, spec in BRIDGES:
        bounds = model.characteristic_bounds((spec.s, spec.u), (spec.x, spec.y - 1))
        times = _times(model, spec)
        mid = _lambda_times(0.5 * (bounds.inf + bounds.sup), spec)
        gaps = (_gap(mid, times), _gap(times, mid))
        assert min(gaps) < 0.0, spec
        both += max(gaps) < 0.0
    print(f"both orders broken on {both} of {len(BRIDGES)} bridges")
    assert both >= len(BRIDGES) - 1


def test_two_tabulated_bridges_ordered_pointwise_are_ordered_pathwise():
    # rates c f(t) g(z) and f(t) g(z), c > 1 and g increasing: the first's
    # characteristic f'/f + c f dg is the larger at every time and state
    rng = np.random.default_rng(11)
    spec = BridgeSpec(1, 13, 0.1, 0.9)
    low = _product_rates(rng, spec.y, "increasing")
    high = Tabulated(KNOTS, 0, 1.5 * low.rates, 1.5 * low.rates_dt)
    gap = _gap(_times(low, spec), _times(high, spec))
    print(f"smallest gap {gap:.3g}")
    assert gap >= 0.0


def test_the_exact_sampler_orders_bridges_by_their_clocks():
    # exp(2t) (1 + z / 2) has the characteristic 2 + e^(2t) / 2, between 2.5 and
    # 2 + e^2 / 2 on [0, 1]: its exact paths lie between the lambda-bridges' at
    # those bounds, and a larger lambda's paths after a smaller one's
    spec = BridgeSpec(0, 25)
    model = ExpAffine(1.0, 0.5, 2.0)
    bounds = model.characteristic_bounds((spec.s, spec.u))
    times = {lam: sample_constant(ExpAffine(1.0, 0.0, lam), spec, 4 * PATHS, 3).times
             for lam in (bounds.inf, bounds.sup)}
    exact = sample_constant(model, spec, 4 * PATHS, 3).times
    assert _gap(times[bounds.inf], exact) >= 0.0 and _gap(exact, times[bounds.sup]) >= 0.0
    assert _gap(times[bounds.inf], times[bounds.sup]) > 0.0
