"""The exp-affine clock with numpy alone: the bridge CDF against its inverse, and the
CLI's tables, curves and paths of bridges whose e^(lam s) is subnormal or 0.  This
file imports no scipy, so the numpy-only CI job runs it."""

import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from countbridge import cli
from countbridge.analytic import clock_cdf, clock_quantile, tilted_cdf_window
from countbridge.engine import BridgeSpec
from countbridge.intensity import ExpAffine
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
