"""The engine's column kernel on numpy alone: every step of a sweep against the staged
RK4 step, over whole and windowed columns, columns with steps that add nothing (b = 0)
at their start and in their middle, a window wider than the one before, a column
summed in several runs, and the prefix log-sum-exp against numpy's.  This file
imports no scipy, so the numpy-only CI job runs it."""

import numpy as np
import pytest

from countbridge import engine


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


def _order(shift, width):
    """The states in sweep order: from the pin down (_up) or from the bottom up."""
    return range(width - 1, -1, -1) if shift is _up else range(width)


def _sweep(shift, rates, step, lo, hi):
    """x on nodes x states of a sweep of the kernel over ``rates`` (one row per state, at
    the step boundaries and midpoints interleaved) and the steps ``step``, from 1 in its
    first state: the i-th state in sweep order over its window ``lo[i]`` to ``hi[i]``,
    with its rates from lo to one step past hi and the forward feed the state before's
    from this lo on, and 0 outside it."""
    width, n_steps = rates.shape[0], step.size
    steps = engine._step_powers(step)
    x = np.zeros((n_steps + 1, width))
    prev, feed = None, None
    for a, b, z in zip(lo, hi, _order(shift, width)):
        r = rates[z, 2 * a:2 * min(b + 1, n_steps) + 1]
        if feed is not None:
            feed = feed[2 * (a - a_prev):]
        log_x, prev = engine._column(steps, r, r if shift is _up else feed, prev, a, b)
        x[a:b + 1, z] = np.exp(log_x)
        feed, a_prev = r, a
    assert not np.any(np.isnan(x))
    return x


def _assert_staged(shift, rates, step, x, lo, hi):
    """Every step inside a window is the staged step applied to the zero-padded values."""
    for a, b, z in zip(lo, hi, _order(shift, rates.shape[0])):
        for j in range(a, b):
            r0, rm, r1 = rates[:, 2 * j], rates[:, 2 * j + 1], rates[:, 2 * j + 2]
            want = _staged_step(r0, rm, r1, step[j], shift, x[j])[z]
            np.testing.assert_allclose(x[j + 1, z], want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("shift", [_up, _down], ids=["up", "down"])
@pytest.mark.parametrize("width", range(1, 7))
def test_column_step_matches_the_staged_step(shift, width):
    # the column kernel solves a three-step sweep state by state; each of its steps
    # must be the staged step applied to the values it gave one node before.  Width 1
    # is a first state alone; wider sweeps carry each state's stage values to the
    # next, and the states past the second read increments that are not 0.
    rng = np.random.default_rng(width)
    n_steps = 3
    for _ in range(20):
        rates = rng.uniform(0.0, 50.0, (width, 2 * n_steps + 1))
        step = rng.uniform(0.0, 0.1, n_steps)
        steps = engine._step_powers(step)
        log_x = np.empty((n_steps + 1, width))
        prev, feed = None, None
        for z in (range(width - 1, -1, -1) if shift is _up else range(width)):
            log_x[:, z], prev = engine._column(steps, rates[z],
                                               rates[z] if shift is _up else feed, prev)
            feed = rates[z]
        assert not np.any(np.isnan(log_x))
        x = np.exp(log_x)
        for j in range(n_steps):
            r0, rm, r1 = rates[:, 2 * j], rates[:, 2 * j + 1], rates[:, 2 * j + 2]
            want = _staged_step(r0, rm, r1, step[j], shift, x[j])
            np.testing.assert_allclose(x[j + 1], want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("shift", [_up, _down], ids=["up", "down"])
@pytest.mark.parametrize("seed", range(40))
def test_windowed_column_steps_match_the_staged_step(shift, seed):
    # windows as the sweeps make them: in sweep order neither end falls, and ends
    # may be equal.  Each column gets its rates from lo to one step past hi, the
    # forward feed the state before's from this lo on, and every step inside a
    # window must be the staged step applied to the zero-padded values.  A state
    # whose window ends later than the one before reads that state's increments on
    # the step from its last node.
    rng = np.random.default_rng(seed)
    width, n_steps = int(rng.integers(2, 7)), 6
    rates = rng.uniform(0.0, 50.0, (width, 2 * n_steps + 1))
    step = rng.uniform(0.0, 0.1, n_steps)
    ends = np.sort(rng.integers(0, n_steps + 1, (2, width)), axis=1)
    lo, hi = ends.min(axis=0), ends.max(axis=0)
    _assert_staged(shift, rates, step, _sweep(shift, rates, step, lo, hi), lo, hi)


@pytest.mark.parametrize("shift", [_up, _down], ids=["up", "down"])
@pytest.mark.parametrize("dead", [(0,), (3,), (0, 1, 4)], ids=["start", "middle", "both"])
@pytest.mark.parametrize("seed", range(5))
def test_steps_that_add_nothing_match_the_staged_step(shift, dead, seed):
    # a step on which the state before feeds nothing (its coupling rates all 0) adds
    # b = 0: the exact zeros next to u, where the state before is still 0.  The
    # kernel sets log b = -inf and the increments 0 there, and seeds its prefix sum at
    # the first step that adds something; on a dead first step the column stays 0
    # one node longer.  The states after it read those increments.
    rng = np.random.default_rng(seed)
    width, n_steps = 4, 6
    rates = rng.uniform(0.0, 50.0, (width, 2 * n_steps + 1))
    step = rng.uniform(0.0, 0.1, n_steps)
    # the second state in sweep order is fed at its own rates backward, at the first
    # state's forward
    z, feeder = (width - 2, width - 2) if shift is _up else (1, 0)
    for j in dead:
        rates[feeder, 2 * j:2 * j + 3] = 0.0
    lo, hi = [0] * width, [n_steps] * width
    x = _sweep(shift, rates, step, lo, hi)
    _assert_staged(shift, rates, step, x, lo, hi)
    if 0 in dead:
        assert x[1, z] == 0.0


@pytest.mark.parametrize("shift", [_up, _down], ids=["up", "down"])
@pytest.mark.parametrize("seed", range(5))
def test_a_window_wider_than_the_one_before_matches_the_staged_step(shift, seed):
    # the second state's window runs three steps past the first's: it reads the
    # first state's values on the steps that state covers and 0 past them
    rng = np.random.default_rng(seed)
    n_steps = 6
    rates = rng.uniform(0.0, 50.0, (3, 2 * n_steps + 1))
    step = rng.uniform(0.0, 0.1, n_steps)
    lo, hi = [0, 0, 1], [2, 6, 6]
    _assert_staged(shift, rates, step, _sweep(shift, rates, step, lo, hi), lo, hi)


@pytest.mark.parametrize("shift", [_up, _down], ids=["up", "down"])
@pytest.mark.parametrize("seed", range(5))
def test_a_column_summed_in_two_runs_matches_the_staged_step(shift, seed, monkeypatch):
    # the second state in sweep order runs at rates of 45 to 55 on 80 steps of 0.1:
    # its integrated rate g climbs about 400 nats, so its terms log b + g rise past
    # 300 nats over the first and its prefix sum takes a second run, which carries
    # the first's sum.  log x = L - g then loses about |g| ulps to cancellation.
    spans, log_cumsum = [], engine._log_cumsum

    def spy(a, *seed_cell):
        finite = a[np.isfinite(a)]
        spans.append(finite.max() - finite[0] if finite.size else 0.0)
        return log_cumsum(a, *seed_cell)

    monkeypatch.setattr(engine, "_log_cumsum", spy)
    rng = np.random.default_rng(seed)
    n_steps = 80
    rates = rng.uniform(0.5, 2.0, (2, 2 * n_steps + 1))
    fast = 0 if shift is _up else 1
    rates[fast] = rng.uniform(45.0, 55.0, 2 * n_steps + 1)
    step = np.full(n_steps, 0.1)
    lo, hi = [0, 0], [n_steps, n_steps]
    _assert_staged(shift, rates, step, _sweep(shift, rates, step, lo, hi), lo, hi)
    assert max(spans) > 300.0


_CLIMB = np.cumsum(np.random.default_rng(3).uniform(0.0, 4.0, 800))


@pytest.mark.parametrize("a", [
    [], [3.5], [-np.inf] * 4,
    [-np.inf, -np.inf, -710.0, 2.0, -np.inf, 1.0, -np.inf],
    _CLIMB,
    np.where(np.arange(_CLIMB.size) % 7 == 3, -np.inf, _CLIMB - 900.0),
    [0.0, 400.0, -np.inf, 800.0, 1200.0, 1199.0],
    np.r_[1200.0, np.random.default_rng(4).normal(0.0, 50.0, 300)],
    np.r_[[-np.inf] * 5, _CLIMB[:200]],
], ids=["empty", "one", "all-neg-inf", "neg-inf-lead-and-interior", "climb",
        "climb-with-holes", "steps", "high-first-cell", "neg-inf-lead-climb"])
def test_log_cumsum_matches_logaddexp_accumulate(a):
    # the column kernel's prefix log-sum-exp against numpy's, within 1e-12 relative
    # to max(1, |L|) and with the same -inf cells; it is seeded at the first finite
    # cell and sums in place.  The climbs (about 1,600 nats) take several runs, so
    # each run carries the sum of the ones before it.
    a = np.asarray(a, dtype=float)
    want = np.logaddexp.accumulate(a)
    finite = np.isfinite(a)
    got = a.copy()
    engine._log_cumsum(got, int(np.argmax(finite)) if finite.any() else a.size)
    assert got.shape == a.shape
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    fin = np.isfinite(want)
    assert np.all(np.abs(got[fin] - want[fin]) <= 1e-12 * np.maximum(1.0, np.abs(want[fin])))
