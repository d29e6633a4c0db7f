import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc
from scipy.stats import binom

from countbridge.analytic import (binomial_rows, binomial_tail, clock_cdf, tilted_cdf,
                                  tilted_cdf_window, tilted_quantile)
from countbridge.engine import BridgeSpec
from countbridge.errors import BadWindow, IndexOut, OutOfDomain
from countbridge.intensity import ExpAffine, Poisson
from countbridge.verify import BridgeLaw, mean_bound_check
from oracles import Product, SpaceLinear, TimeExponential, exp_affine_cdf, time_only_cdf

PI3_HALF = 0.18242552380635635  # (e^1.5 - 1)/(e^3 - 1), frozen


def test_tilted_cdf_values():
    assert tilted_cdf(0.0, 0.37) == 0.37
    assert tilted_cdf(7.3, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert tilted_cdf(3.0, 0.5) == pytest.approx(PI3_HALF, rel=1e-12)


def test_tilted_cdf_continuity_at_zero():
    # series branch keeps the small-tilt limit within 1e-7 of the identity
    ts = np.linspace(0, 1, 100)
    assert np.max(np.abs(tilted_cdf(1e-8, ts) - ts)) <= 1e-7


@given(st.floats(-20, 20), st.floats(-20, 20), st.floats(0.01, 0.99))
@settings(max_examples=200, deadline=None)
def test_tilted_cdf_decreasing_in_tilt(lam1, lam2, t):
    lo, hi = sorted([lam1, lam2])
    if hi - lo < 1e-5:
        return
    assert tilted_cdf(lo, t) > tilted_cdf(hi, t)


@given(st.floats(-10, 10), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=200, deadline=None)
def test_window_composition(lam, a, b, frac):
    s, u = sorted([a, b])
    if u - s < 1e-6:
        return
    t = s + frac * (u - s)
    direct = tilted_cdf_window(lam, s, u, t)
    composed = tilted_cdf(lam * (u - s), (t - s) / (u - s))
    assert direct == pytest.approx(composed, abs=1e-12)


def test_tilted_cdf_stays_in_the_unit_interval_at_the_window_end():
    # np.expm1(-1.23046875) rounds an ulp away from math.expm1's value; the ratio at
    # t = 1 must still be 1, so a binomial law at the window end stays defined
    assert tilted_cdf(-1.23046875, 1.0) == 1.0
    assert tilted_cdf_window(-15.0, 0.78125, 0.86328125, 0.86328125) == 1.0
    ts = np.linspace(0.0, 1.0, 1001)
    for lam in (-40.0, -1.23046875, 3.7, 300.0):
        p = tilted_cdf(lam, ts)
        assert p[0] == 0.0 and p[-1] == 1.0 and np.all((p >= 0.0) & (p <= 1.0))


def test_tilted_cdf_window_values():
    assert tilted_cdf_window(0.0, 0.2, 0.8, 0.5) == pytest.approx(0.5, abs=1e-12)
    got = tilted_cdf_window(2.0, 0.25, 0.75, 0.5)
    assert got == pytest.approx(math.expm1(0.5) / math.expm1(1.0), rel=1e-12)
    # unit window reduces to the plain profile
    for lam in (-4.0, 0.0, 2.5):
        for t in (0.1, 0.5, 0.9):
            assert tilted_cdf_window(lam, 0.0, 1.0, t) == pytest.approx(
                tilted_cdf(lam, t), abs=1e-14)


def test_tilted_cdf_window_errors():
    with pytest.raises(BadWindow):
        tilted_cdf_window(1.0, 0.8, 0.2, 0.5)
    with pytest.raises(BadWindow):
        tilted_cdf_window(1.0, 0.2, 0.8, 0.9)


@pytest.mark.parametrize("lam", [0.0, 1e-9, -1e-9, 5e-7, -9.9e-7, 1e-6, 0.3, -4.0, 40.0, 709.78,
                                 -36.0, -38.0, -700.0])
def test_tilted_quantile_inverts_the_tilted_cdf(lam):
    # one kernel and its inverse at every tilt, near 0 included: neither side
    # switches to an expansion
    p = np.linspace(0.0, 1.0, 1001)
    t = tilted_quantile(lam, p)
    assert t[0] == 0.0 and np.all(np.diff(t) >= 0.0) and np.all(t <= 1.0)
    assert np.max(np.abs(tilted_cdf(lam, t) - p)) <= 1e-13


@pytest.mark.parametrize("lam, match", [
    (math.nan, "must be finite"), (math.inf, "must be finite"), (-math.inf, "must be finite"),
])
def test_tilted_quantile_refuses_a_tilt_it_cannot_represent(lam, match):
    with pytest.raises(OutOfDomain, match=match):
        tilted_quantile(lam, [0.25, 0.5])


@pytest.mark.parametrize("call, error, message", [
    (lambda: tilted_cdf(10 ** 400, 0.5), OutOfDomain, "must be finite, got 1.00e+400"),
    (lambda: tilted_quantile(-10 ** 400, 0.5), OutOfDomain, "must be finite, got -1.00e+400"),
    (lambda: tilted_cdf_window(10 ** 400, 0.0, 1.0, 0.5), OutOfDomain,
     "must be finite, got 1.00e+400"),
    (lambda: tilted_cdf_window(1.0, 0, 10 ** 400, 0.5), BadWindow,
     "need 0 <= s < u <= 1, got [0, 1.00e+400]"),
    (lambda: tilted_cdf_window(1.0, -10 ** 400, 1.0, 0.5), BadWindow,
     "need 0 <= s < u <= 1, got [-1.00e+400, 1.0]"),
], ids=["cdf-tilt", "quantile-tilt", "window-tilt", "window-end", "window-start"])
def test_an_int_past_the_float_range_is_refused_with_its_value(call, error, message):
    # a tilt or a window end that no float holds is refused with the typed error its
    # non-finite float would get, quoting the value in three digits
    with pytest.raises(error) as refusal:
        call()
    assert message in str(refusal.value)


@pytest.mark.parametrize("n", [0, 1, 5, 20, 200])
@pytest.mark.parametrize("p", [0.0, 0.1824, 0.5, 1.0])
def test_pmf_normalization(n, p):
    # the probabilities of 0..n successes, as differences of consecutive tails
    pmf = -np.diff([binomial_tail(n, p, i) for i in range(n + 1)] + [0.0])
    assert abs(pmf.sum() - 1.0) <= 1e-12
    assert np.max(np.abs(pmf - binom.pmf(np.arange(n + 1), n, p))) <= 1e-12


def test_binomial_tail_values():
    assert binomial_tail(7, 0.3, 0) == 1.0
    assert binomial_tail(2, 0.5, 1) == pytest.approx(0.75, abs=1e-14)
    assert binomial_tail(5, PI3_HALF, 1) == pytest.approx(1 - (1 - PI3_HALF) ** 5, rel=1e-12)
    assert binomial_tail(5, PI3_HALF, 2) == pytest.approx(0.22717598212887125, rel=1e-10)


def test_binomial_tail_monotone_in_index():
    tails = [binomial_tail(40, 0.37, i) for i in range(41)]
    assert tails[0] == 1.0
    assert np.all(np.diff(tails) <= 0)


def test_binomial_tail_large_n_stable():
    assert 0.0 < binomial_tail(10000, 0.3, 3200) < 1.0
    assert binomial_tail(10000, 0.3, 0) == 1.0


def test_binomial_tail_index_errors():
    with pytest.raises(IndexOut):
        binomial_tail(5, 0.5, -1)
    with pytest.raises(IndexOut):
        binomial_tail(5, 0.5, 6)
    with pytest.raises(IndexOut, match="tail index 6 outside 0..5"):
        binomial_tail(5, [0.2, 0.5], [[1], [6]])


@pytest.mark.parametrize("n, p", [(-1, 0.5), (2.5, 0.5), (5.0, 0.5), (None, 0.5),
                                  (5, -0.1), (5, 1.1), (5, math.nan), (5, [0.2, 1.5]),
                                  (True, 0.5)],
                         ids=["n-negative", "n-fractional", "n-float", "n-none", "p-negative",
                              "p-above-1", "p-nan", "p-array-above-1", "n-bool"])
def test_binomial_tail_refuses_a_law_it_cannot_form(n, p):
    with pytest.raises(ValueError):
        binomial_tail(n, p, 1)


def test_binomial_tail_broadcasts_to_the_scalar_tails():
    # one call over a (times, indices) grid equals the grid of scalar calls, bitwise
    n = 30
    p = np.array([0.0, 0.013, 0.37, 0.5, 0.999, 1.0])
    i = np.arange(n + 1)
    grid = binomial_tail(np.int64(n), p[:, None], i[None, :])
    assert grid.shape == (6, n + 1)
    assert np.array_equal(grid, [[binomial_tail(n, float(q), int(k)) for k in i] for q in p])
    assert np.all(grid[:, 0] == 1.0)
    assert type(binomial_tail(n, np.float64(0.3), np.int64(4))) is float
    assert binomial_tail(0, [0.0, 1.0], 0).tolist() == [1.0, 1.0]


def _assert_near_betainc(tail, ref):
    """Within 1e-12 of scipy's tail, and within 1e-10 of it relative where it is
    above 1e-200."""
    tail, ref = np.asarray(tail), np.asarray(ref)
    err = np.abs(tail - ref)
    assert np.all(err <= 1e-12), err.max()
    big = ref > 1e-200
    assert np.all(err[big] <= 1e-10 * ref[big]), np.max(err[big] / ref[big])


def test_binomial_tail_matches_scipy_sf_to_1e_12():
    # the numpy tail holds a tolerance against scipy, not its bits
    rng = np.random.default_rng(2015)
    for _ in range(2000):
        n = int(rng.integers(1, 2001))
        i = int(rng.integers(1, n + 1))
        p = float(rng.uniform())
        _assert_near_betainc(binomial_tail(n, p, i), binom.sf(i - 1, n, p))
    p = np.concatenate([[0.0, 1.0, 1e-300, 1.0 - 1e-16], np.linspace(0.0, 1.0, 51),
                        np.logspace(-300, -1, 150), 1.0 - np.logspace(-16, -1, 150)])[:, None]
    for n in (0, 1, 2, 5, 20, 200, 800, 2000, 10000):
        i = np.arange(1, n + 1)
        for rows in np.array_split(p, 8):  # blocks of rows keep each array under 4 MB
            _assert_near_betainc(binomial_tail(n, rows, i), betainc(i, n - i + 1, rows))


def test_constant_characteristic_marginal():
    # the x -> y bridge marginal of characteristic lam is Binomial(y - x, tilted_cdf(lam, t))
    np.testing.assert_allclose(binom.pmf(np.arange(3), 2, tilted_cdf(0.0, 0.5)),
                               [0.25, 0.5, 0.25], atol=1e-14)
    assert binom.pmf(6, 6, tilted_cdf(-2.7, 1.0)) == pytest.approx(1.0, abs=1e-12)
    assert binomial_tail(5, tilted_cdf(3.0, 0.5), 1) == pytest.approx(0.6347109751760405,
                                                                     rel=1e-10)


def test_mean_upper_bound():
    # the mean-bound check's bound, x + n times the tilted CDF of the window, at its
    # table's times
    def bound(spec, lam, t):
        table = BridgeLaw(Poisson(1.0), spec, 1e-2).table()
        rows = mean_bound_check(Poisson(1.0), spec, lam, table=table).rows
        return rows[np.argmin(np.abs(rows[:, 0] - t)), 2]

    spec = BridgeSpec(0, 20)
    assert bound(spec, 0.0, 0.3) == pytest.approx(6.0, abs=1e-12)
    assert bound(spec, 3.0, 0.5) == pytest.approx(20 * PI3_HALF, rel=1e-10)
    assert bound(spec, -4.0, 1.0) == pytest.approx(20.0, abs=1e-12)
    shifted = BridgeSpec(2, 7, 0.25, 0.75)
    assert bound(shifted, 2.0, 0.5) == pytest.approx(
        2 + 5 * math.expm1(0.5) / math.expm1(1.0), rel=1e-12)


_CLOCK_MODELS = [Product(1.0, 3.0, 0.1), ExpAffine(0.7, 1.3, -2.0), ExpAffine(1.0, 1.0, 10.0),
                 ExpAffine(1.0, 2.0, 6.0), ExpAffine(2.0, 5.0, -30.0), SpaceLinear(2.0, 1.0),
                 TimeExponential(1.0, -3.0), Poisson(1.0), ExpAffine(1.0, 1e-9, 1e-9)]


@pytest.mark.parametrize("model", _CLOCK_MODELS, ids=repr)
@pytest.mark.parametrize("window", [(0.0, 1.0), (0.2, 0.9), (0.5, 0.52)])
def test_clock_cdf_is_the_closed_form(model, window):
    # p(t) of every exp_affine bridge, within 1e-12 of the oracle's formula, 0 at s
    spec = BridgeSpec(0, 5, *window)
    ts = np.linspace(*window, 401)
    p = clock_cdf(model, spec, ts)
    assert np.max(np.abs(p - exp_affine_cdf(model, spec, ts))) <= 1e-12
    assert p[0] == 0.0 and abs(p[-1] - 1.0) <= 1e-15 and np.all(np.diff(p) >= 0)


def test_clock_cdf_at_a_constant_characteristic_is_the_tilted_cdf():
    # with b = 0 or lam = 0 the clock is the window's own time, and p the tilted CDF
    spec = BridgeSpec(0, 5, 0.1, 0.7)
    ts = np.linspace(0.1, 0.7, 31)
    for model, tilt in [(TimeExponential(2.0, -3.0), -3.0), (SpaceLinear(2.5, 1.0), 2.5),
                        (Poisson(4.0), 0.0)]:
        assert np.array_equal(clock_cdf(model, spec, ts), tilted_cdf_window(tilt, 0.1, 0.7, ts))


@pytest.mark.parametrize("lam, s, u", [
    (-951.4734, 0.7741, 0.8311), (-1000.0, 0.75, 0.8), (-1000.0, 0.72, 0.8), (-800.0, 0.9, 1.0),
], ids=["subnormal-0.42-off", "underflow-refused", "subnormal-6e-8-off", "subnormal-3e-8-off"])
def test_clock_cdf_of_a_clock_whose_e_lam_s_is_subnormal_is_the_quadrature(lam, s, u):
    # e^(lam s) subnormal or 0 on ExpAffine(1, 0.5, lam): clock gaps scaled by it were
    # 0.42, 6.1e-8 and 3.3e-8 off the quadrature, or 0 / 0 and refused; the clock
    # fraction never forms it
    model, spec = ExpAffine(1.0, 0.5, lam), BridgeSpec(0, 5, s, u)
    ts = np.linspace(s, u, 201)
    assert np.max(np.abs(clock_cdf(model, spec, ts) - time_only_cdf(model, spec, ts))) <= 1e-10


@pytest.mark.parametrize("model, spec", [
    (ExpAffine(1.0, 37.0, -782.0), BridgeSpec(0, 5)),
    (ExpAffine(1.0, 985.5, -666.1), BridgeSpec(0, 5, 0.0, 0.666)),
    (ExpAffine(1.0, 800.0, 0.0), BridgeSpec(0, 5)),
    (ExpAffine(1.0, 0.0, 1500.0), BridgeSpec(0, 5, 0.2, 0.7)),
], ids=["clock-minus-782", "clock-minus-666", "law-tilt-800", "clock-tilt-1500-window"])
def test_clock_cdf_of_a_steep_clock_is_the_quadrature(model, spec):
    # int c runs to hundreds of nats, which overflowed the quadrature's exp or left
    # its 4 cells per piece 1.1e-4 and 2.9e-5 off on the first two; with cells sized
    # to int |c| and its maximum taken out before the exp, it holds the clock's law
    ts = np.linspace(spec.s, spec.u, 201)
    assert np.max(np.abs(clock_cdf(model, spec, ts) - time_only_cdf(model, spec, ts))) <= 1e-10


@pytest.mark.parametrize("model, message", [
    (ExpAffine(1.0, 1.0, 710.0), "clock CDF is not finite"),
], ids=["clock-710"])
def test_clock_cdf_refuses_a_law_past_the_float_range(model, message):
    # OutOfDomain, with no RuntimeWarning (an error in this suite) and no nan
    with pytest.raises(OutOfDomain, match=message):
        clock_cdf(model, BridgeSpec(0, 3), np.linspace(0.0, 1.0, 11))


@pytest.mark.parametrize("n", [0, 1, 5, 200, 2000])
def test_binomial_rows_match_scipy_pmf(n):
    # one formula with binomial_tail: its rows are the pmf within 1e-12 of scipy's,
    # with exact point masses at p = 0 and p = 1
    p = np.array([0.0, 1e-300, 1e-9, 0.01, 0.3, 0.5, 0.77, 1.0 - 1e-12, 1.0])
    rows = binomial_rows(n, p)
    assert rows.shape == (p.size, n + 1)
    assert np.max(np.abs(rows - binom.pmf(np.arange(n + 1), n, p[:, None]))) <= 1e-12
    assert rows[0, 0] == 1.0 and rows[-1, -1] == 1.0
    assert np.array_equal(rows[[0, -1]].sum(axis=1), [1.0, 1.0])
    tails = np.cumsum(rows[:, ::-1], axis=1)[:, ::-1]
    assert np.max(np.abs(tails - binomial_tail(n, p[:, None], np.arange(n + 1)))) <= 1e-12
