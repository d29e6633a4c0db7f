"""A committed sweep of engine bridges against their exact laws.

Every bridge is built from a fixed seed of its family, never from hypothesis's
stream, so the sweep is the same on every run.  Each table is the engine's at
the defaults (``marginal_table``, output step 1e-3), as the CLI serves a
``tabulated`` model, and its pmf and its upper tails P(X_t >= z) are held to the
exact law at the published 1e-6.  The families:

- separable f(t) g(z), f = 1 + a sin(w t) on 6 knots with its exact f', and g
  increasing, sign-changing or decreasing: the clock law of
  ``oracles.separable_marginals``;
- time-only tables, whose characteristic is the same in every state: X_t - x is
  Binomial(n, p(t)), p from ``oracles.time_only_cdf``;
- constant-rate flats 0 -> n on [0, 1], n up to 1,000: Binomial(n, t);
- tall separable tables f(t) (1 + z / 100), 0 -> n on [0, 1] at n = 500 and 1,000:
  their characteristic is the same in every state, so they are time-only too;
- steep rates 1 + b z, constant in time: the bridge of ExpAffine(1, b, 0);
- ``ExpAffine`` bridges through the engine, though the CLI reads them from
  their closed form.

Every exact law is formed here or in ``oracles`` (scipy's special functions,
quadrature and matrix exponentials), none read from the package.  A table that
misses its law is marked ``xfail(strict=True)`` with its measured error, so the
sweep fails once it passes.
"""

import functools

import numpy as np
import pytest

from countbridge.engine import BridgeSpec, marginal_table
from countbridge.intensity import ExpAffine, Tabulated
from oracles import binomial_pmf, exp_affine_cdf, separable_marginals, time_only_cdf

TOL = 1e-6


def _exp_affine_law(model, spec):
    """The binomial law of an exp-affine bridge, on ``oracles.exp_affine_cdf``."""
    return lambda times: binomial_pmf(spec.n, exp_affine_cdf(model, spec, times))


def _window(rng, n):
    """x in 0..3, y = x + n, and a window of length at least 0.3."""
    x = int(rng.integers(0, 4))
    s = float(rng.uniform(0.0, 0.4))
    u = float(rng.uniform(s + 0.3, 1.0))
    return BridgeSpec(x, x + n, s, u)


def _separable(seed):
    """f(t) g(z) on states 0..y: g increasing, sign-changing or decreasing by seed % 3."""
    rng = np.random.default_rng(seed)
    spec = _window(rng, int(rng.integers(3, 13)))
    a, w = rng.uniform(0.0, 0.9), rng.uniform(1.0, 8.0)
    g = rng.uniform(0.2, 5.0, spec.y + 1)
    g = (np.sort(g), g, np.sort(g)[::-1])[seed % 3]
    t = np.linspace(0.0, 1.0, 6)
    model = Tabulated(t, 0, np.outer(1.0 + a * np.sin(w * t), g),
                      np.outer(a * w * np.cos(w * t), g))
    return model, spec, functools.partial(separable_marginals, model, spec)


def _time_only(seed):
    """f(t) (1 + b z) on states 0..y, f = exp(c t + v sin(2 pi t + phase)) on 11
    knots with its exact f': the characteristic f'/f + b f is the same in every
    state."""
    rng = np.random.default_rng(seed)
    spec = _window(rng, int(rng.integers(5, 61)))
    c, v = rng.uniform(-3.0, 3.0), rng.uniform(0.0, 0.5)
    phase, b = rng.uniform(0.0, 6.3), rng.uniform(0.0, 1.0)
    t = np.linspace(0.0, 1.0, 11)
    f = np.exp(c * t + v * np.sin(2.0 * np.pi * t + phase))
    df = f * (c + 2.0 * np.pi * v * np.cos(2.0 * np.pi * t + phase))
    states = 1.0 + b * np.arange(spec.y + 1.0)
    model = Tabulated(t, 0, np.outer(f, states), np.outer(df, states))
    return model, spec, lambda times: binomial_pmf(spec.n, time_only_cdf(model, spec, times))


def _flat(n):
    """Rate 1 on knots 0, 0.5 and 1, zero derivatives, 0 -> n: Binomial(n, t)."""
    spec = BridgeSpec(0, n)
    model = Tabulated([0.0, 0.5, 1.0], 0, np.ones((3, n + 1)), np.zeros((3, n + 1)))
    return model, spec, _exp_affine_law(ExpAffine(1.0, 0.0, 0.0), spec)


def _tall_separable(n):
    """f(t) (1 + z / 100) on states 0..n, f = 1 + 0.2 sin(2 t) on 6 knots with its exact
    f': the characteristic f'/f + f / 100 is the same in every state."""
    spec = BridgeSpec(0, n)
    t = np.linspace(0.0, 1.0, 6)
    g = 1.0 + 0.01 * np.arange(n + 1.0)
    model = Tabulated(t, 0, np.outer(1.0 + 0.2 * np.sin(2.0 * t), g), np.outer(0.4 * np.cos(2.0 * t), g))
    return model, spec, lambda times: binomial_pmf(n, time_only_cdf(model, spec, times))


def _steep(seed):
    """Rates 1 + b z on knots 0, 0.5 and 1, b from 30 to 2,000, constant in time."""
    rng = np.random.default_rng(seed)
    spec = _window(rng, int(rng.integers(5, 21)))
    b = 10.0 ** rng.uniform(1.5, 3.3)
    rates = np.tile(1.0 + b * np.arange(spec.y + 2.0), (3, 1))
    model = Tabulated([0.0, 0.5, 1.0], 0, rates, np.zeros_like(rates))
    return model, spec, _exp_affine_law(ExpAffine(1.0, b, 0.0), spec)


def _exp_affine(seed):
    """ExpAffine(a, b, lam), a in [0.2, 3], b in [0, 2], lam in [-4, 4]."""
    rng = np.random.default_rng(seed)
    spec = _window(rng, int(rng.integers(5, 81)))
    model = ExpAffine(rng.uniform(0.2, 3.0), rng.uniform(0.0, 2.0), rng.uniform(-4.0, 4.0))
    return model, spec, _exp_affine_law(model, spec)


FAMILIES = {"separable": _separable, "time-only": _time_only, "flat": _flat,
            "tall-separable": _tall_separable, "steep": _steep, "exp-affine": _exp_affine}

# the seeds of each family (for flats, the jump count n); steep 3021, from a wider
# run of the same families, has the tilt 35.82 over its window, where state x's
# window opens at s only if tilted_quantile(35.82, 0) is exactly 0
SEEDS = {
    "separable": range(9),
    "time-only": range(100, 108),
    "flat": (5, 20, 26, 69, 100, 136, 200, 500, 1000),
    "tall-separable": (500, 1000),
    "steep": (*range(200, 206), 3021),
    "exp-affine": range(300, 308),
}


def errors(model, spec, law):
    """The largest |engine - exact| of a bridge's pmf and of its upper tails."""
    table = marginal_table(model, spec)
    want = law(table.times)

    def tails(p):
        return np.cumsum(p[:, ::-1], axis=1)[:, ::-1]
    return (float(np.max(np.abs(table.probs - want))),
            float(np.max(np.abs(tails(table.probs) - tails(want)))))


@functools.cache
def _errors(name):
    family, seed = name.rsplit("-", 1)
    return errors(*FAMILIES[family](int(seed)))


NAMES = [f"{family}-{seed}" for family, seeds in SEEDS.items() for seed in seeds]

# The default mesh's misses, all in the tails (every pmf holds), and growing about
# linearly with n on the tall bridges: ROADMAP item 23 serves a table refined until
# its own error estimate is below the tolerance.
MISSES = {
    "flat-69": "tails 1.14e-6 off Binomial(69, t)",
    "flat-136": "tails 1.63e-6 off Binomial(136, t)",
    "flat-200": "tails 1.96e-6 off Binomial(200, t)",
    "flat-500": "tails 6.41e-6 off Binomial(500, t)",
    "flat-1000": "tails 1.20e-5 off Binomial(1000, t)",
    "tall-separable-500": "tails 6.50e-6 off its binomial law, 0 -> 500 on [0, 1]",
    "tall-separable-1000": "tails 1.15e-5 off its binomial law, 0 -> 1000 on [0, 1]",
    "exp-affine-302": "tails 1.45e-6 off the closed form, 3 -> 68 on [0.282, 0.999]",
    "exp-affine-307": "tails 2.46e-6 off the closed form, 2 -> 80 on [0.269, 0.852]",
}


def _marked(name):
    """``name``, marked as a strict xfail if it is among MISSES."""
    if name in MISSES:
        return pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=MISSES[name]))
    return name


@pytest.mark.parametrize("name", NAMES)
def test_pmf_is_the_exact_law(name):
    assert _errors(name)[0] <= TOL


@pytest.mark.parametrize("name", [_marked(name) for name in NAMES])
def test_tails_are_the_exact_law(name):
    assert _errors(name)[1] <= TOL
