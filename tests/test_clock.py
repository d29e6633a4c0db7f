"""The exp-affine clock with numpy alone: the bridge CDF against its inverse, the
tilted profile at tilts whose e^lam overflows, checked against decimal arithmetic,
the refusal of NaN times and of a bridge that starts below the model's state floor,
and the CLI's tables, curves and paths of bridges whose e^(lam s) is subnormal or 0
or whose tilt is past the exp range.  This file imports no scipy, so the numpy-only
CI job runs it."""

import decimal
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from countbridge import cli, verify
from countbridge.analytic import (clock_cdf, clock_quantile, tilted_cdf, tilted_cdf_window,
                                  tilted_quantile)
from countbridge.engine import BridgeSpec
from countbridge.errors import BadParameter, OutOfDomain
from countbridge.intensity import ExpAffine, constant_characteristic_model
from countbridge.sampler import sample_constant

# ExpAffine(1, 0.5, lam) over [s, u] with lam s below -708: e^(lam s) is subnormal
# or 0, and theta = b (tau(u) - tau(s)) below 1e-300
SUBNORMAL = (-951.4734, 0.7741, 0.8311)
UNDERFLOW = (-1000.0, 0.75, 0.8)


@settings(max_examples=300, deadline=None)
# lam (u - s) subnormal: the clock is the window's time (v / w of subnormal products
# came out 0 or 1)
@example(lam=5e-324, b=1.0, s=0.0, length=1.0, q=[0.25, 0.5])
@given(lam=st.floats(-50.0, 50.0), b=st.floats(0.0, 50.0), s=st.floats(0.0, 0.95),
       length=st.floats(0.05, 1.0), q=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_clock_cdf_inverts_clock_quantile(lam, b, s, length, q):
    # one clock for tables and paths: q lies within 1e-9 of the CDF over 4 ulps either
    # side of its quantile t, which is the CDF at t within 1e-9 of q wherever the law
    # moves less than that over those ulps (a law as steep as theta = 2.6e9 moves 3e-6
    # per ulp of t, so no float t comes closer there)
    spec = BridgeSpec(0, 3, s, min(s + length, 1.0))
    model, q = ExpAffine(1.0, b, lam), np.array(q)
    t = clock_quantile(model, spec, q)
    assert np.all((t >= spec.s) & (t <= spec.u))
    below, above = (clock_cdf(model, spec, np.clip(t + k * np.spacing(t), spec.s, spec.u))
                    for k in (-4, 4))
    assert np.all((below - 1e-9 <= q) & (q <= above + 1e-9))


def _bridge(tmp_path, lam, s, u):
    """The CLI's window arguments for ExpAffine(1, 0.5, lam), 0 -> 5 over [s, u]."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(ExpAffine(1.0, 0.5, lam).to_dict()))
    return ["--model", str(path), "--x", "0", "--y", "5", "--s", str(s), "--u", str(u)]


def _read_means(path):
    """The mean count at each time of a marginals.csv: sum of z prob per t."""
    t, z, prob = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
    times = np.unique(t)
    return times, np.bincount(np.searchsorted(times, t), weights=z * prob)


def test_marginals_and_sample_share_a_subnormal_clock(tmp_path):
    # theta is below 1e-300, so the law is the clock's own profile: the means are
    # 5 tilted_cdf_window(lam, s, u, t) (the e^(lam s)-scaled clock put the mean at
    # t = 0.7761 at 2.50 and the paths' at 4.25), and the paths agree with them
    lam, s, u = SUBNORMAL
    out = tmp_path / "m"
    assert cli.main(["marginals", *_bridge(tmp_path, lam, s, u), "--out", str(out)]) == 0
    times, means = _read_means(out / "marginals.csv")
    assert np.max(np.abs(means - 5.0 * tilted_cdf_window(lam, s, u, times))) <= 1e-9
    model, spec = ExpAffine(1.0, 0.5, lam), BridgeSpec(0, 5, s, u)
    paths = sample_constant(model, spec, 20000, 7).times
    at = int(np.argmin(np.abs(times - 0.7761)))
    counts = np.sum(paths <= times[at], axis=1)
    assert abs(counts.mean() - means[at]) <= 4.0 * counts.std() / np.sqrt(counts.size)


def test_mean_curve_serves_a_clock_whose_e_lam_s_underflows(tmp_path):
    # e^(lam s) = e^-750 is 0: the e^(lam s)-scaled clock found 0 / 0 and exited 2
    lam, s, u = UNDERFLOW
    assert cli.main(["mean-curve", *_bridge(tmp_path, lam, s, u), "--out", str(tmp_path / "c")]) == 0
    t, mean = np.loadtxt(tmp_path / "c" / "mean_curve.csv", delimiter=",", skiprows=1,
                         usecols=(0, 1), unpack=True)
    assert np.max(np.abs(mean - 5.0 * tilted_cdf_window(lam, s, u, t))) <= 1e-9


def _decimal_cdf(lam, s, u, t):
    """The tilted CDF (e^(lam (t - s)) - 1) / (e^(lam (u - s)) - 1) at each float t, in
    60-digit decimal arithmetic from the floats' exact values (lam (u - s) not tiny)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        lam, s, u = decimal.Decimal(lam), decimal.Decimal(s), decimal.Decimal(u)
        scale = (lam * (u - s)).exp() - 1
        return np.array([float(((lam * (decimal.Decimal(r) - s)).exp() - 1) / scale)
                         for r in np.atleast_1d(t)])


def _decimal_quantile(lam, p):
    """The t at which the tilted CDF on [0, 1] reaches each float p, log((1 - p) + p e^lam)
    / lam, in 60-digit decimal arithmetic (lam not tiny)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        lam = decimal.Decimal(lam)
        return np.array([float(((1 - q) + q * lam.exp()).ln() / lam)
                         for q in map(decimal.Decimal, p)])


@pytest.mark.parametrize("lam", [709.78, 709.79, 800.0, 1500.0, -1500.0, 1e-9, -1e-9, 40.0])
def test_tilted_cdf_serves_a_tilt_whose_exp_overflows(lam):
    # one kernel at every finite tilt: e^lam overflows above about 709.78, which was
    # refused; the reflected ratio forms no exponential above 1, and it is within
    # 1e-15 of the decimal profile, fixed at 0 and 1 at the window ends
    t = np.linspace(0.0, 1.0, 1001)
    p = tilted_cdf(lam, t)
    assert p[0] == 0.0 and p[-1] == 1.0 and np.all(np.diff(p) >= 0.0)
    assert np.max(np.abs(p - _decimal_cdf(lam, 0.0, 1.0, t))) <= 1e-15
    ts = np.linspace(0.2, 0.7, 501)
    assert np.max(np.abs(tilted_cdf_window(2.0 * lam, 0.2, 0.7, ts)
                         - _decimal_cdf(2.0 * lam, 0.2, 0.7, ts))) <= 1e-15


def test_tilted_cdf_below_the_normal_floats_is_the_identity():
    t = np.linspace(0.0, 1.0, 101)
    for lam in (0.0, -0.0, 5e-324, -1e-310, 2e-308):
        assert np.array_equal(tilted_cdf(lam, t), t)
        assert np.array_equal(tilted_quantile(lam, t), t)


@pytest.mark.parametrize("lam", [709.79, 800.0, 1500.0, -1500.0, -800.0, 1e-9, -1e-9])
def test_tilted_quantile_inverts_the_tilted_cdf_past_the_exp_range(lam):
    # log1p of the reflected tilt above 0: finite at every finite tilt (e^lam
    # overflowed above 709.78 and was refused), within 1e-15 of the decimal inverse
    p = np.linspace(0.0, 1.0, 1001)
    t = tilted_quantile(lam, p)
    assert t[0] == 0.0 and t[-1] == 1.0 and np.all(np.diff(t) >= 0.0)
    assert np.max(np.abs(t - _decimal_quantile(lam, p))) <= 1e-15


@pytest.mark.parametrize("model, spec", [
    (ExpAffine(1.0, 0.0, 710.0), BridgeSpec(0, 3)),
    (ExpAffine(1.0, 0.0, 1500.0), BridgeSpec(0, 3, 0.2, 0.7)),
    (ExpAffine(1.0, 800.0, 0.0), BridgeSpec(0, 3)),
    (ExpAffine(1.0, 1500.0, 0.0), BridgeSpec(0, 3, 0.2, 0.7)),
], ids=["clock-tilt-710", "clock-tilt-1500-window", "law-tilt-800", "law-tilt-1500-window"])
def test_clock_cdf_of_a_constant_characteristic_past_the_exp_range(model, spec):
    # a constant characteristic lam + b is the tilt of the clock (b = 0) or of the law
    # (lam = 0); past 709.78 per unit window ExpAffine(1, 0, 710) was refused
    # ("overflows exp"), and both are now within 1e-15 of the decimal profile
    ts = np.linspace(spec.s, spec.u, 501)
    p = clock_cdf(model, spec, ts)
    assert p[0] == 0.0 and p[-1] == 1.0
    assert np.max(np.abs(p - _decimal_cdf(model.lam + model.b, spec.s, spec.u, ts))) <= 1e-15


def test_a_law_tilt_of_800_is_the_limit_of_its_clock_tilts():
    # ExpAffine(1, 800, 0) was refused while ExpAffine(1, 800, +-1e-9) were served:
    # theta = 800 (tau(1) - tau(0)) moves by 4e-7 and p(t) by under 1e-9
    spec, ts = BridgeSpec(0, 3), np.linspace(0.0, 1.0, 1001)
    p = clock_cdf(ExpAffine(1.0, 800.0, 0.0), spec, ts)
    for lam in (1e-9, -1e-9):
        assert np.max(np.abs(clock_cdf(ExpAffine(1.0, 800.0, lam), spec, ts) - p)) <= 1e-9


def _decimal_clock_cdf(model, spec, t):
    """p(t) of an ``ExpAffine`` bridge with b > 0, e^(b (v - w)) (1 - e^(-b v)) / (1 - e^(-b w))
    with v = tau(t) - tau(s) and w = tau(u) - tau(s) on the clock tau(t) = expm1(lam t) /
    lam (lam not 0), in 80-digit decimal arithmetic from the floats' exact values."""
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        b, lam, s = decimal.Decimal(model.b), decimal.Decimal(model.lam), decimal.Decimal(spec.s)

        def gap(r):
            return (lam * s).exp() * ((lam * (decimal.Decimal(r) - s)).exp() - 1) / lam
        w = gap(spec.u)
        return np.array([float((b * (gap(r) - w)).exp() * (1 - (-b * gap(r)).exp())
                               / (1 - (-b * w).exp())) for r in t])


@pytest.mark.parametrize("model, spec", [
    (ExpAffine(1.0, 1000.0, 30.0), BridgeSpec(0, 3)),
    (ExpAffine(1.0, 2.0, 40.0), BridgeSpec(0, 3, 0.25, 0.75)),
], ids=["theta-3.6e14", "theta-1.2e8-window"])
def test_clock_cdf_next_to_u_is_the_decimal_law(model, spec):
    # within a few ulps of u the law's exponent theta (c - 1) is of order 1: c - 1 formed
    # as c - 1 keeps only multiples of 2^-53 (5e-11 off), and the difference of two
    # rounded expm1 gaps was 1.4e-2 off; both are within 1e-15 of the decimal law
    t = np.append(spec.u - np.arange(12) * np.spacing(spec.u), np.linspace(spec.s, spec.u, 101))
    assert np.max(np.abs(clock_cdf(model, spec, t) - _decimal_clock_cdf(model, spec, t))) <= 1e-15


@pytest.mark.parametrize("call", [
    lambda: tilted_cdf(1.0, math.nan),
    lambda: tilted_cdf_window(1.0, 0.0, 1.0, [0.5, math.nan]),
    lambda: clock_cdf(ExpAffine(1.0, 1.0, 2.0), BridgeSpec(0, 3), [0.5, math.nan]),
    lambda: tilted_cdf_window(1.0, 0.0, 1.0, math.nan),
], ids=["tilted-cdf", "tilted-cdf-window", "clock-cdf", "tilted-cdf-window-scalar"])
def test_a_nan_time_is_refused_by_name(call):
    # the window check that every tilted profile shares; these returned nan
    with pytest.raises(BadParameter, match="time is NaN at 1 of"):
        call()


# rate e^(t/2) (z - 0.5), negative at state 0: a bridge from 0 starts below the floor
BELOW_FLOOR = ExpAffine(-0.5, 1.0, 0.5, state_floor=1), BridgeSpec(0, 3)


@pytest.mark.parametrize("call", [
    lambda model, spec: clock_cdf(model, spec, [0.5]),
    lambda model, spec: clock_quantile(model, spec, [0.5]),
    lambda model, spec: sample_constant(model, spec, 4, 1),
], ids=["clock-cdf", "clock-quantile", "sample-constant"])
def test_the_exact_clock_refuses_a_start_below_the_floor(call):
    # the clock served this bridge (clock_cdf read 0.3775 at 0.5) that the engine refuses
    with pytest.raises(OutOfDomain, match="state below floor 1"):
        call(*BELOW_FLOOR)


@pytest.mark.parametrize("command, args", [
    ("characteristics", []), ("mean-curve", []), ("marginals", []), ("sample", []),
    ("verify", ["--check", "convexity"]), ("verify", ["--lambda", "0"]),
    ("verify", ["--lambda", "0", "--check", "duality"]), ("lln", ["--lambda", "0", "--N", "3"]),
], ids=["characteristics", "mean-curve", "marginals", "sample", "verify-convexity", "verify",
        "verify-duality", "lln"])
def test_every_command_refuses_a_start_below_the_floor(tmp_path, command, args):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(BELOW_FLOOR[0].to_dict()))
    window = [] if command == "lln" else ["--x", "0", "--y", "3"]
    out = tmp_path / "out"
    assert cli.main([command, "--model", str(path), *window, *args, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("lam, spec", [
    (709.79, BridgeSpec(0, 3)), (1500.0, BridgeSpec(0, 3, 0.2, 0.7)),
], ids=["tilt-709.79", "tilt-750-in-window"])
def test_sample_constant_serves_a_tilt_past_the_exp_range(lam, spec):
    # (lam + b)(u - s) past 709.78 was refused; the pooled jump times, i.i.d. draws of
    # the law, are within the Kolmogorov law's 0.999 quantile of the decimal profile
    times = np.sort(sample_constant(constant_characteristic_model(lam), spec, 2000, 11).times,
                    axis=None)
    assert np.all((times > spec.s) & (times < spec.u))
    cdf = _decimal_cdf(lam, spec.s, spec.u, times)
    k = np.arange(1, times.size + 1) / times.size
    gap = max(np.max(k - cdf), np.max(cdf - (k - 1.0 / times.size)))
    assert np.sqrt(times.size) * gap <= verify.KOLMOGOROV_999


@pytest.mark.parametrize("lam", [800.0, 1500.0])
def test_a_tilt_past_the_exp_range_is_served_by_every_command(tmp_path, lam):
    # --lambda 800 exited 2 ("overflows exp") from mean-curve, sample, verify and
    # lln; now each exits 0 with no RuntimeWarning (an error in this suite), its
    # mean curve's p within 1e-12 of the decimal profile, every check passing and
    # the lln profile gap 0 (the bridge's law is its own limiting profile)
    tilt = ["--lambda", f"{lam:g}", "--y", "5"]
    assert cli.main(["mean-curve", *tilt, "--out", str(tmp_path / "c")]) == 0
    t, mean, bound = np.loadtxt(tmp_path / "c" / "mean_curve.csv", delimiter=",", skiprows=1,
                                usecols=(0, 1, 3), unpack=True)
    assert np.max(np.abs(mean / 5.0 - _decimal_cdf(lam, 0.0, 1.0, t))) <= 1e-12
    assert np.array_equal(bound, mean)
    assert cli.main(["sample", *tilt, "--replicas", "20", "--out", str(tmp_path / "p")]) == 0
    time = np.loadtxt(tmp_path / "p" / "paths.csv", delimiter=",", skiprows=1, usecols=2)
    assert time.size == 100 and np.all((time > 0.0) & (time < 1.0))
    assert cli.main(["verify", *tilt, "--out", str(tmp_path / "v")]) == 0
    checks = json.loads((tmp_path / "v" / "verify.json").read_text())["checks"]
    assert [c["verdict"] for c in checks] == ["pass"] * 3
    assert cli.main(["lln", "--lambda", f"{lam:g}", "--N", "20", "--replicas", "5",
                     "--out", str(tmp_path / "l")]) == 0
    assert json.loads((tmp_path / "l" / "lln.json").read_text())["profile_gap"] == {"20": 0.0}


def test_the_mean_bound_of_a_constant_characteristic_is_met_exactly(tmp_path):
    # the bound and the law read one kernel at one tilt, so the mean-bound margin is
    # exactly 0: with math.expm1 in the reflected ratio's denominator p(u) came out
    # 1 - 1 ulp and the margin at --lambda 2.5 -3.6e-15
    for lam in ("-2", "0.3", "2.5", "7", "40", "800"):
        out = tmp_path / lam
        assert cli.main(["verify", "--lambda", lam, "--check", "mean-bound", "--out", str(out)]) == 0
        check, = json.loads((out / "verify.json").read_text())["checks"]
        assert check["worst_margin"] == 0.0
