import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from countbridge import cli, engine, verify
from countbridge.analytic import binomial_tail, tilted_cdf_window
from countbridge.engine import BridgeSpec, marginal_table, second_differences, solve_h
from countbridge.errors import BadParameter, CountBridgeError, OutOfDomain
from countbridge.intensity import (ExpAffine, Tabulated, constant_characteristic_model,
                                   model_from_dict)
from countbridge.sampler import sample_bridge, sample_constant
from countbridge.verify import BridgeLaw

# the CLI numerics meet the suite's rule: a RuntimeWarning is an error
PKG = [sys.executable, "-W", "error::RuntimeWarning", "-m", "countbridge"]


def run_cli(*args, cwd=None):
    return subprocess.run(PKG + list(args), capture_output=True, text=True, cwd=cwd)


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def read_json(path):
    """A JSON output file, read strictly: NaN or Infinity in it fails the test."""
    return json.loads(pathlib.Path(path).read_text(), parse_constant=_refuse_constant)


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


def test_characteristics_product(tmp_path):
    out = tmp_path / "ch"
    model = {"family": "product", "params": {"alpha": 1.0, "lambda": 3.0, "beta": 0.1},
             "state_floor": 0}
    mpath = tmp_path / "model.json"
    mpath.write_text(json.dumps(model))
    r = run_cli("characteristics", "--model", str(mpath), "--x", "0", "--y", "3",
                "--grid-step", "0.25", "--out", str(out))
    assert r.returncode == 0, r.stderr
    header, rows = read_csv(out / "characteristics.csv")
    assert header == ["t", "z", "xi"]
    # z-independent: identical xi columns for every state
    by_z = {}
    for t, z, xi in rows:
        by_z.setdefault(z, []).append((t, xi))
    vals = list(by_z.values())
    assert all(v == vals[0] for v in vals)
    t0, xi0 = vals[0][2]
    assert float(t0) == 0.5
    assert float(xi0) == pytest.approx(3 + 0.1 * math.exp(1.5), rel=1e-12)


def test_characteristics_poisson_zero(tmp_path):
    out = tmp_path / "po"
    r = run_cli("characteristics", "--lambda", "0", "--x", "0", "--y", "4",
                "--grid-step", "0.5", "--out", str(out))
    assert r.returncode == 0, r.stderr
    _, rows = read_csv(out / "characteristics.csv")
    assert all(float(row[2]) == 0.0 for row in rows)


def test_mean_curve_with_bound(tmp_path):
    out = tmp_path / "mc"
    r = run_cli("mean-curve", "--lambda", "3", "--x", "0", "--y", "20",
                "--step", "0.002", "--out", str(out))
    assert r.returncode == 0, r.stderr
    header, rows = read_csv(out / "mean_curve.csv")
    assert header == ["t", "mean", "second_diff", "bound"]
    assert rows[0][2] == "" and rows[-1][2] == ""
    mid = {float(r_[0]): r_ for r_ in rows}[0.5]
    assert float(mid[1]) == pytest.approx(20 * 0.18242552380635635, abs=1e-5)
    assert float(mid[3]) == pytest.approx(20 * 0.18242552380635635, rel=1e-12)


def test_marginals_rows_normalized(tmp_path):
    out = tmp_path / "mg"
    r = run_cli("marginals", "--lambda", "0", "--x", "0", "--y", "3",
                "--step", "0.01", "--out", str(out))
    assert r.returncode == 0, r.stderr
    _, rows = read_csv(out / "marginals.csv")
    sums = {}
    for t, z, p in rows:
        sums[t] = sums.get(t, 0.0) + float(p)
    assert all(abs(v - 1.0) <= 1e-9 for v in sums.values())


def test_sample_and_replay_byte_identical(tmp_path):
    out1 = tmp_path / "s1"
    r = run_cli("sample", "--lambda", "3", "--x", "0", "--y", "5",
                "--replicas", "500", "--seed", "31415", "--out", str(out1))
    assert r.returncode == 0, r.stderr
    summary = read_json(out1 / "summary.json")
    assert summary["count"] == 500 and summary["n_jumps"] == 5
    out2 = tmp_path / "s2"
    r = run_cli("replay", str(out1 / "manifest.json"), "--out", str(out2))
    assert r.returncode == 0, r.stderr
    for name in ("paths.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


PRODUCT = {"family": "product", "params": {"alpha": 1.0, "lambda": 3.0, "beta": 0.1},
           "state_floor": 0}


@pytest.mark.parametrize("sampler", ["constant", "model", "tabulated"])
def test_sample_writes_the_sampler_matrix(tmp_path, sampler):
    # paths.csv is the header plus one line per jump of the sampler call's matrix:
    # an exp_affine --model is drawn exactly, as a --lambda is, a tabulated one by
    # inversion on its h-field
    if sampler == "constant":
        args = ["--lambda", "2.5", "--y", "7", "--replicas", "3", "--seed", "99"]
        times = sample_constant(constant_characteristic_model(2.5), BridgeSpec(0, 7), 3, 99).times
    elif sampler == "model":
        args = ["--model", write_model(tmp_path, PRODUCT), "--y", "6", "--replicas", "4",
                "--seed", "2024"]
        times = sample_constant(model_from_dict(PRODUCT), BridgeSpec(0, 6), 4, 2024).times
    else:
        args = ["--model", write_model(tmp_path, TABULATED), "--y", "6", "--replicas", "4",
                "--seed", "2024"]
        model, spec = model_from_dict(TABULATED), BridgeSpec(0, 6)
        times = sample_bridge(model, spec, solve_h(model, spec, 1e-3), 4, 2024).times
    out = tmp_path / "s"
    assert cli.main(["sample"] + args + ["--out", str(out)]) == 0
    want = "replica,jump_index,time\n" + "".join(
        f"{r},{j},{format(t, '.17g')}\n"
        for r, row in enumerate(times.tolist()) for j, t in enumerate(row, start=1))
    assert (out / "paths.csv").read_text() == want
    assert cli.main(["replay", str(out / "manifest.json"), "--out", str(tmp_path / "r")]) == 0
    assert (tmp_path / "r" / "paths.csv").read_bytes() == (out / "paths.csv").read_bytes()


def test_sample_thinning_from_model(tmp_path):
    # a tabulated model has no closed form: it is sampled by inversion
    mpath = tmp_path / "model.json"
    mpath.write_text(json.dumps(TABULATED))
    out = tmp_path / "st"
    r = run_cli("sample", "--model", str(mpath), "--x", "0", "--y", "3",
                "--replicas", "200", "--seed", "7", "--out", str(out))
    assert r.returncode == 0, r.stderr
    summary = read_json(out / "summary.json")
    assert summary["sampler"] == "h-transform-inversion"
    assert "thinning" not in summary
    _, rows = read_csv(out / "paths.csv")
    assert len(rows) == 600  # every path pinned: exactly 3 jumps each


def test_verify_exit_codes(tmp_path):
    model = {"family": "product", "params": {"alpha": 1.0, "lambda": 3.0, "beta": 0.1},
             "state_floor": 0}
    mpath = tmp_path / "model.json"
    mpath.write_text(json.dumps(model))
    ok = run_cli("verify", "--model", str(mpath), "--lambda", "3", "--x", "0", "--y", "5",
                 "--out", str(tmp_path / "v0"))
    assert ok.returncode == 0, ok.stderr
    payload = read_json(tmp_path / "v0" / "verify.json")
    assert payload["all_pass"] and len(payload["checks"]) == 3

    bad = run_cli("verify", "--model", str(mpath), "--lambda", "4", "--x", "0", "--y", "5",
                  "--check", "dominance", "--out", str(tmp_path / "v1"))
    assert bad.returncode == 1
    payload = read_json(tmp_path / "v1" / "verify.json")
    assert not payload["all_pass"]

    broken = run_cli("verify", "--model", str(tmp_path / "missing.json"), "--lambda", "3",
                     "--out", str(tmp_path / "v2"))
    assert broken.returncode == 2
    assert "error" in broken.stderr

    usage = run_cli("nonsense")
    assert usage.returncode == 2


def test_underflowed_start_state_exits_2(tmp_path):
    # 200 jumps under rate 1 at h_step 1e-2, tabulated, so the engine solves it: the
    # start state's log h (-864.2) is exact, but the pinned route's mass drifts by
    # 1.2e-6, over the 1e-6 allowed.  The Poisson model, drawn from its binomial
    # law, gives the table.
    knots = [0.0, 0.5, 1.0]
    flat = Tabulated(knots, 0, np.ones((3, 201)), np.zeros((3, 201))).to_dict()
    out = tmp_path / "uf"
    r = run_cli("marginals", "--model", write_model(tmp_path, flat), "--x", "0", "--y", "200",
                "--step", "1e-2", "--out", str(out))
    assert r.returncode == 2
    assert "mass drift 1.207e-06 exceeds" in r.stderr
    assert not (out / "marginals.csv").exists()
    r = run_cli("marginals", "--lambda", "0", "--x", "0", "--y", "200", "--step", "1e-2",
                "--out", str(out))
    assert r.returncode == 0, r.stderr


def test_sample_from_a_start_state_below_exp_minus_700_exits_0(tmp_path):
    # log h(0, 0) is -1093.5, below exp(-700): the sampler serves the bridge
    model = {"family": "time_exponential", "params": {"alpha": 1.0, "lambda": -3.0}}
    mpath = tmp_path / "te.json"
    mpath.write_text(json.dumps(model))
    out = tmp_path / "te"
    r = run_cli("sample", "--model", str(mpath), "--y", "200", "--replicas", "20",
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    header, rows = read_csv(out / "paths.csv")
    assert header == ["replica", "jump_index", "time"]
    assert len(rows) == 20 * 200


def test_mesh_over_the_memory_cap_exits_2(tmp_path):
    # Product(1, 3, 0.1) tabulated on 11 knots, so the engine solves it: the band of
    # log h for 0 -> 8000 is 2.6 GiB
    knots = np.linspace(0.0, 1.0, 11)
    rates = np.outer(np.exp(3.0 * knots), 1.0 + 0.1 * np.arange(8001.0))
    mpath = write_model(tmp_path, Tabulated(knots, 0, rates, 3.0 * rates).to_dict())
    out = tmp_path / "cap"
    r = run_cli("marginals", "--model", mpath, "--y", "8000", "--out", str(out))
    assert r.returncode == 2
    assert "GiB" in r.stderr
    assert not (out / "marginals.csv").exists()


@pytest.mark.parametrize("args", [
    ["lln", "--lambda", "1", "--N", "5", "--replicas", "0"],
    ["verify", "--lambda", "1", "--y", "5", "--check", "duality", "--replicas", "0"],
    ["verify", "--lambda", "1", "--y", "5", "--check", "duality", "--replicas", "1"],
    ["characteristics", "--lambda", "1", "--y", "5", "--grid-step", "0"],
    ["characteristics", "--lambda", "1", "--y", "5", "--grid-step", "-1"],
    ["characteristics", "--lambda", "1", "--y", "5", "--grid-step", "nan"],
    ["characteristics", "--lambda", "1", "--y", "5", "--grid-step", "inf"],
    ["marginals", "--lambda", "1", "--y", "5", "--step", "nan"],
], ids=["lln-no-replicas", "duality-no-paths", "duality-one-path", "grid-step-zero",
        "grid-step-negative", "grid-step-nan", "grid-step-inf", "step-nan"])
def test_unusable_sample_sizes_and_steps_exit_2(tmp_path, args):
    # a Monte Carlo check without enough samples, or a step that is not a positive
    # finite number, is a typed configuration error: no traceback, no verdict
    r = run_cli(*args, "--out", str(tmp_path / "out"))
    assert r.returncode == 2
    assert "countbridge: error:" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("command", [["sample"], ["verify", "--check", "duality"]],
                         ids=["sample", "duality"])
def test_a_negative_replica_count_exits_2_before_writing(tmp_path, command):
    out = tmp_path / "out"
    r = run_cli(*command, "--lambda", "1", "--y", "3", "--replicas", "-1", "--out", str(out))
    assert r.returncode == 2
    assert "countbridge: error: a sample needs a path count of at least 0, got -1" in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("args, replace", [
    (["sample", "--lambda", "1", "--step", "nan"], None),
    (["lln", "--lambda", "1", "--N", "5", "--replicas", "3", "--step", "nan"], None),
    (["verify", "--lambda", "1", "--check", "convexity", "--tol-convexity", "nan"], None),
    (["verify", "--lambda", "1", "--check", "dominance", "--tol-margin", "nan"], None),
    (["verify", "--lambda", "1", "--check", "duality", "--z-max", "nan"], None),
    (["sample", "--lambda", "nan"], None),
    (["sample", "--lambda=-inf"], None),
    (["sample", "--lambda", "1e309"], None),
    (["lln", "--lambda", "1e309", "--N", "5", "--replicas", "3"], None),
    (["sample", "--lambda", "1"], {"step": math.nan}),
    (["verify", "--lambda", "1", "--check", "convexity"], {"lambdas": [math.inf]}),
    (["lln", "--lambda", "1", "--N", "5", "--replicas", "3"], {"step": math.inf}),
], ids=["sample-step", "lln-step", "verify-tol-convexity", "verify-tol-margin",
        "verify-z-max", "sample-lambda-nan", "sample-lambda-minus-inf", "sample-lambda-overflow",
        "lln-lambda-overflow", "replay-step", "replay-lambda", "replay-lln-step"])
def test_unusable_float_options_exit_2_before_writing(tmp_path, capsys, args, replace):
    # a NaN or infinite option, fresh or in a hand-edited manifest, or a decimal that
    # overflows the float range (1e309 parses as inf), is a typed error (exit 2)
    # raised before any file is written
    if args[0] != "lln":
        args = args + ["--y", "5", "--replicas", "3"]
    out = tmp_path / "out"
    if replace is not None:
        assert cli.main(args + ["--out", str(tmp_path / "run")]) == 0
        manifest = read_json(tmp_path / "run" / "manifest.json")
        manifest["options"].update(replace)
        (tmp_path / "edited.json").write_text(json.dumps(manifest))
        args = ["replay", str(tmp_path / "edited.json")]
    capsys.readouterr()
    assert cli.main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("countbridge: error:") and "Traceback" not in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("step, message", [("-1", "h_step must be positive, got -1.0"),
                                           ("0.5", "h_step must not exceed 1e-2")],
                         ids=["negative", "coarse"])
@pytest.mark.parametrize("args", [
    ["marginals", "--y", "3"], ["sample", "--y", "3", "--replicas", "3"],
    ["lln", "--N", "5", "--replicas", "3"], ["verify", "--y", "3", "--check", "duality"],
], ids=["marginals", "sample", "lln", "duality"])
def test_every_route_refuses_the_steps_the_output_grid_refuses(tmp_path, capsys, args, step,
                                                               message):
    # the exact routes of sample, lln and the duality check read no table, yet each
    # refuses the steps marginals refuses, before anything is written
    out = tmp_path / "out"
    assert cli.main(args + ["--lambda", "1", "--step", step, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"countbridge: error: {message}\n"
    assert not out.exists()


def test_a_replayed_step_the_output_grid_refuses_exits_2(tmp_path, capsys):
    assert cli.main(["sample", "--lambda", "1", "--y", "3", "--replicas", "3",
                     "--out", str(tmp_path / "run")]) == 0
    manifest = read_json(tmp_path / "run" / "manifest.json")
    manifest["options"]["step"] = -1.0
    (tmp_path / "edited.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    out = tmp_path / "out"
    assert cli.main(["replay", str(tmp_path / "edited.json"), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "countbridge: error: h_step must be positive, got -1.0\n"
    assert not out.exists()


def test_a_step_that_does_not_fit_the_window_exits_2(tmp_path, capsys):
    # the default step, 1e-3, is longer than the window [0.5, 0.5005]
    out = tmp_path / "out"
    assert cli.main(["marginals", "--lambda", "1", "--y", "3", "--s", "0.5", "--u", "0.5005",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("countbridge: error: h_step 0.001 does not fit the window"
                                       " of length 0.0004999999999999449\n")
    assert not out.exists()


def test_a_window_too_short_for_its_mesh_exits_2(tmp_path):
    # rate 1 on 0 -> 3 over a window of 1e-13, about 900 ulps of 0.5, at --step 1e-15:
    # graded nodes and their midpoints round together.  The mesh once kept 38 zero
    # steps there and served a table 9.5e-5 off Binomial(3, (t - s) / (u - s)) with
    # exit 0, or a traceback under -W error::RuntimeWarning (PKG); now it refuses the
    # bridge before any sweep, in under 90 characters
    rates = np.ones((3, 4))
    model = write_model(tmp_path, Tabulated([0.0, 0.5, 1.0], 0, rates, 0.0 * rates).to_dict())
    out = tmp_path / "out"
    r = run_cli("marginals", "--model", model, "--y", "3", "--s", "0.5", "--u", "0.5000000000001",
                "--step", "1e-15", "--out", str(out))
    assert r.returncode == 2
    message = "mesh step rounds to 0 at t = 0.500000000000093; window too short for h_step 1e-15"
    assert r.stderr == f"countbridge: error: {message}\n" and len(message) < 90
    assert not out.exists()


def test_a_remaining_rate_integral_that_underflows_exits_2(tmp_path):
    # a constant rate of 1e-321, subnormal: the mesh's probe integrates it over steps
    # of 2.5e-4 to 0, which leaves no log to grade the mesh by
    rates = np.full((3, 4), 1e-321)
    model = write_model(tmp_path, Tabulated([0.0, 0.5, 1.0], 0, rates, 0.0 * rates).to_dict())
    out = tmp_path / "out"
    r = run_cli("marginals", "--model", model, "--y", "3", "--out", str(out))
    assert r.returncode == 2
    assert r.stderr == ("countbridge: error: the remaining ladder-minimal integrated rate"
                        " underflows to 0 at t = 0, before u = 1\n")
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["sample", "--lambda", "1", "--y", "2", "--replicas", "3"],
    ["lln", "--lambda", "1", "--N", "5", "--N", "10", "--N", "20", "--replicas", "3"],
    ["verify", "--lambda", "1", "--y", "3", "--check", "duality", "--replicas", "50"],
], ids=["sample", "lln", "verify-duality"])
def test_exact_paths_at_a_fine_step_form_no_output_grid(tmp_path, args):
    # the exact paths read no grid, so their step is checked by its cell count alone:
    # at step 1e-6 these runs once formed a grid of a million times (8.0 MB, 16.0 MB for
    # lln, one a bridge), and peak at some 0.02-0.07 MB, as at the default step
    args = args + ["--step", "1e-6"]
    assert cli.main(args + ["--out", str(tmp_path / "warm")]) == 0
    tracemalloc.start()
    try:
        assert cli.main(args + ["--out", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


def test_verify_solves_h_only_for_the_checks_that_read_it(tmp_path, monkeypatch):
    calls = []
    real = engine.solve_h

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (cli, engine, verify):
        monkeypatch.setattr(module, "solve_h", spy)
    checks = [a for c in cli._CHECKS for a in ("--check", c)]
    (tmp_path / "product.json").write_text(json.dumps(PRODUCT))
    tab = write_model(tmp_path, TABULATED)
    # an exp_affine bridge is binomial: no check solves; a tabulated one solves for
    # the convexity check's own fine mesh, and once for the table and paths of the rest
    for args, solves in [(["--lambda", "3", "--check", "convexity"], 0),
                         (["--model", str(tmp_path / "product.json"), "--lambda", "3", *checks], 0),
                         (["--model", tab, "--check", "convexity"], 1),
                         (["--model", tab, "--lambda", "0.5", *checks[2:]], 1),
                         (["--model", tab, "--lambda", "0.5", *checks], 2)]:
        calls.clear()
        assert cli.main(["verify", *args, "--y", "5", "--replicas", "200",
                         "--out", str(tmp_path / "v")]) in (0, 1)
        assert len(calls) == solves, args


@pytest.mark.parametrize("y, functionals", [
    (0, []), (1, ["sin(pi T1)"]), (2, ["sin(pi T1)", "T1 T2", "cos(pi T2)"]),
], ids=["no-jump", "one-jump", "two-jumps"])
def test_duality_skips_the_functionals_that_read_more_jumps_than_the_bridge_has(tmp_path, y,
                                                                                 functionals):
    # each catalog functional reads its first m jump times: a bridge of fewer jumps
    # reports none of it, and one of no jump reports no duality check at all
    out = tmp_path / "out"
    assert cli.main(["verify", "--lambda", "1", "--y", str(y), "--check", "duality",
                     "--replicas", "500", "--out", str(out)]) == 0
    report = read_json(out / "verify.json")
    assert [c["inputs"]["phi"] for c in report["checks"]] == functionals
    assert report["all_pass"] is True


@pytest.mark.parametrize("args, message", [
    (["--check", "convexity", "--check", "dominance"], "dominance check needs --lambda"),
    (["--lambda", "3", "--check", "dominance", "--check", "dominance"],
     "verify runs each check once; --check dominance is given twice"),
], ids=["dominance-without-lambda", "repeated-check"])
def test_verify_refuses_its_checks_before_any_solve(tmp_path, capsys, monkeypatch, args,
                                                    message):
    calls = []
    real = engine.solve_h

    def spy(*a, **kwargs):
        calls.append(a)
        return real(*a, **kwargs)

    for module in (cli, engine, verify):
        monkeypatch.setattr(module, "solve_h", spy)
    out = tmp_path / "v"
    code = cli.main(["verify", "--model", write_model(tmp_path, PRODUCT), "--y", "5", *args,
                     "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("countbridge: error:") and message in err
    assert calls == []
    assert not out.exists()


def test_characteristics_of_a_rate_past_the_float_range_with_b_0_is_lam(tmp_path):
    # b = 0: the characteristic is exactly lam; e^(710 t) overflows at t = 1, and
    # 0 * inf once wrote nan there
    model = {"family": "time_exponential", "params": {"alpha": 1.0, "lambda": 710.0}}
    out = tmp_path / "ch"
    r = run_cli("characteristics", "--model", write_model(tmp_path, model), "--y", "0",
                "--grid-step", "0.125", "--out", str(out))
    assert r.returncode == 0, r.stderr
    header, rows = read_csv(out / "characteristics.csv")
    assert [row[2] for row in rows] == ["710"] * 9


def test_lln_command(tmp_path):
    out = tmp_path / "lln"
    r = run_cli("lln", "--lambda", "0", "--N", "50", "--N", "200", "--replicas", "80",
                "--seed", "4", "--out", str(out))
    assert r.returncode == 0, r.stderr
    rep = read_json(out / "lln.json")
    assert rep["verdict"] == "pass"
    assert rep["tolerances"] == {"sqrt_n_median": verify.KOLMOGOROV_999}
    assert set(rep["sqrt_n_median"]) == {"50", "200"}
    for n, med in rep["sup_distance_median"].items():
        assert rep["sqrt_n_median"][n] == math.sqrt(int(n)) * med <= verify.KOLMOGOROV_999
    assert rep["inputs"]["strategy"] == "exact-tilted-order-statistics"


def test_lln_fails_a_model_whose_limit_is_not_the_profile(tmp_path, monkeypatch):
    # Product(1, 3, 0.1) is drawn exactly on its clock, with no h-field; its
    # limit is not tilted_cdf(3), so sqrt(N) times the median sup distance grows
    # past the Kolmogorov bound and the run exits 1
    calls = []
    real = engine.solve_h

    def spy(*a, **kwargs):
        calls.append(a)
        return real(*a, **kwargs)

    for module in (cli, engine, verify):
        monkeypatch.setattr(module, "solve_h", spy)
    out = tmp_path / "lln"
    args = ["lln", "--model", write_model(tmp_path, PRODUCT), "--lambda", "3", "--N", "50",
            "--N", "200", "--N", "800", "--replicas", "200", "--out", str(out)]
    t0 = time.perf_counter()
    assert cli.main(args) == 1
    assert time.perf_counter() - t0 < 0.5
    assert calls == []
    rep = read_json(out / "lln.json")
    assert rep["verdict"] == "fail"
    assert rep["inputs"]["strategy"] == "exact-tilted-order-statistics"
    assert rep["sqrt_n_median"]["800"] > verify.KOLMOGOROV_999
    # the medians fall toward the gap between the model's limit and the profile
    assert set(rep["profile_gap"]) == {"50", "200", "800"}
    assert all(round(gap, 4) == 0.0791 for gap in rep["profile_gap"].values())


@pytest.mark.parametrize("args, message", [
    (["mean-curve", "--lambda", "1.0000001", "--lambda", "1.0000002"],
     "the tilts [1.0000001, 1.0000002] would share a file name"),
    (["mean-curve", "--lambda", "2", "--lambda", "2"],
     "the tilts [2.0, 2.0] would share a file name"),
    (["mean-curve", "--model", "PRODUCT", "--lambda", "1", "--lambda", "2"],
     "at most one --lambda, the bound, with --model"),
    (["verify", "--model", "PRODUCT", "--lambda", "3", "--lambda", "4"],
     "verify takes at most one --lambda, the bound, with --model"),
    (["verify", "--model", "PRODUCT", "--lambda", "4", "--lambda", "3"],
     "verify takes at most one --lambda, the bound, with --model"),
    (["lln", "--model", "PRODUCT", "--lambda", "3", "--lambda", "4", "--N", "5"],
     "lln takes at most one --lambda, the limiting profile, with --model"),
    (["lln", "--model", "PRODUCT", "--lambda", "4", "--lambda", "3", "--N", "5"],
     "lln takes at most one --lambda, the limiting profile, with --model"),
    (["lln", "--lambda", "0", "--N", "5", "--N", "5", "--replicas", "10"],
     "N values must be distinct"),
    (["lln", "--model", "PRODUCT", "--N", "10"], "lln needs --lambda (the limiting profile)"),
    (["sample"], "need --model or exactly one --lambda"),
    (["sample", "--lambda", "1", "--lambda", "2"], "need --model or exactly one --lambda"),
    (["sample", "--model", "PRODUCT", "--lambda", "1"], "sample takes no --lambda with --model"),
    (["marginals", "--model", "PRODUCT", "--lambda", "1"],
     "marginals takes no --lambda with --model"),
    (["characteristics", "--model", "PRODUCT", "--lambda", "1", "--lambda", "2"],
     "characteristics takes no --lambda with --model"),
], ids=["mean-curve-one-file-name", "mean-curve-repeated-tilt", "mean-curve-model-two-tilts",
        "verify-model-two-tilts", "verify-model-two-tilts-reversed", "lln-model-two-tilts",
        "lln-model-two-tilts-reversed", "lln-repeated-height", "lln-model-no-lambda",
        "sample-no-model", "sample-two-tilts",
        "sample-model-and-tilt", "marginals-model-and-tilt", "characteristics-model-and-tilts"])
def test_options_that_name_no_single_run_exit_2_before_writing(tmp_path, capsys, args, message):
    # two tilts whose curves share a file name, a height drawn twice, a process the
    # options do not define, or a --lambda the command would not read, is refused
    # before any file is written; lln's bridges are 0 -> N, so it takes no --y
    args = [write_model(tmp_path, PRODUCT) if a == "PRODUCT" else a for a in args]
    out = tmp_path / "out"
    assert cli.main(args + ([] if args[0] == "lln" else ["--y", "3"]) + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("countbridge: error:") and message in err
    assert not out.exists()


@pytest.mark.parametrize("args, sampler", [
    (["--lambda", "1"], "exact-tilted-order-statistics"),
    (["--model", "PRODUCT"], "exact-tilted-order-statistics"),
    (["--model", "PRODUCT", "--lambda", "1"], None),
    (["--model", "TABULATED"], "h-transform-inversion"),
], ids=["lambda", "model", "model-and-lambda", "tabulated"])
def test_sample_keeps_its_sampler_choice(tmp_path, args, sampler):
    # the model's family names the sampler, however the model was given; a --lambda
    # beside --model would name no sampler: it is refused, not dropped
    models = {"PRODUCT": PRODUCT, "TABULATED": TABULATED}
    args = [write_model(tmp_path, models[a]) if a in models else a for a in args]
    out = tmp_path / "s"
    code = cli.main(["sample"] + args + ["--y", "3", "--replicas", "4", "--out", str(out)])
    if sampler is None:
        assert code == 2 and not out.exists()
    else:
        assert code == 0 and read_json(out / "summary.json")["sampler"] == sampler


@pytest.mark.parametrize("option", ["--x", "--y", "--s", "--u"])
def test_lln_takes_no_window_options(tmp_path, capsys, option):
    # lln's bridges are 0 -> N on [0, 1]: a window option is a usage error (exit 2)
    # raised before anything is written, not an unread value in the manifest
    assert set(vars(cli.build_parser().parse_args(["lln"]))) == {
        "command", "model", "lambdas", "step", "out", "N", "seed", "replicas"}
    out = tmp_path / "out"
    assert cli.main(["lln", "--lambda", "1", "--N", "5", "--replicas", "3", option, "1",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("countbridge: error:") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["lln", "--lambda", "1", "--N", "5", "--s", "0.5"],
     "ambiguous option: --s could match --step, --seed"),
    (["marginals", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["nonsense"], "invalid choice: 'nonsense'"),
    (["marginals", "--y", "abc"], "argument --y: invalid int value: 'abc'"),
    ([], "the following arguments are required: command"),
], ids=["ambiguous", "unknown-option", "unknown-command", "bad-value", "no-command"])
def test_usage_errors_print_one_line_and_exit_2(tmp_path, capsys, monkeypatch, args, message):
    monkeypatch.chdir(tmp_path)
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("countbridge: error:")
    assert message in captured.err and len(captured.err.splitlines()) == 1
    assert os.listdir(tmp_path) == []


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["marginals", "--help"])
    assert exc.value.code == 0
    assert "--step" in capsys.readouterr().out


def test_a_descriptor_that_is_not_an_object_exits_2_before_writing(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["marginals", "--model", write_model(tmp_path, [1, 2]), "--y", "3",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("countbridge: error: malformed model descriptor")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_manifest_echoes_defaults(tmp_path):
    out = tmp_path / "m"
    r = run_cli("marginals", "--lambda", "0", "--x", "0", "--y", "2", "--out", str(out))
    assert r.returncode == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["command"] == "marginals"
    assert manifest["options"]["step"] == 1e-3  # default echoed
    assert manifest["outputs"] == ["marginals.csv"]


def test_verify_grid_csv(tmp_path):
    out = tmp_path / "vg"
    r = run_cli("verify", "--lambda", "3", "--x", "0", "--y", "4", "--check", "dominance",
                "--grid-csv", "--out", str(out))
    assert r.returncode == 0, r.stderr
    header, rows = read_csv(out / "dominance_grid.csv")
    assert header == ["t", "i", "computed_tail", "benchmark_tail", "margin"]
    assert len(rows) == 19 * 4


NO_SCIPY_SCRIPT = """
import json, os, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import numpy as np
import countbridge
from countbridge import cli
from countbridge.engine import BridgeSpec, marginal_table, solve_h
from countbridge.intensity import ExpAffine, Tabulated
from countbridge.sampler import sample_bridge

ExpAffine(1.0, 0.1, 3.0)
tg = np.linspace(0.0, 1.0, 11)
rates = (1.0 + 0.3 * np.arange(4.0))[None, :] * np.exp(np.sin(3.0 * tg))[:, None]
model = Tabulated(tg, 0, rates)
spec = BridgeSpec(0, 3)
h = solve_h(model, spec, 1e-2)
marginal_table(model, spec, 1e-2, h=h)
sample_bridge(model, spec, h, 5, 1)
out = sys.argv[1]
os.makedirs(out)
with open(os.path.join(out, "tab.json"), "w") as fh:
    json.dump(model.to_dict(), fh)
code = cli.main(["characteristics", "--model", os.path.join(out, "tab.json"), "--x", "0",
                 "--y", "3", "--grid-step", "0.1", "--out", os.path.join(out, "ch")])
assert code == 0, code
checks = [a for c in ("convexity", "dominance", "mean-bound", "duality") for a in ("--check", c)]
code = cli.main(["verify", "--lambda", "3", "--y", "5", "--replicas", "200", *checks,
                 "--out", os.path.join(out, "v")])
assert code == 0, code
code = cli.main(["replay", os.path.join(out, "v", "manifest.json"), "--out", os.path.join(out, "r")])
assert code == 0, code
# an exp_affine bridge is binomial, so only a tabulated model takes the CLI to solve_h
code = cli.main(["verify", "--model", os.path.join(out, "tab.json"), "--lambda", "0", "--y", "3",
                 "--replicas", "200", *checks, "--out", os.path.join(out, "vt")])
assert code in (0, 1), code
again = cli.main(["replay", os.path.join(out, "vt", "manifest.json"),
                  "--out", os.path.join(out, "rt")])
assert again == code, again
for name in os.listdir(os.path.join(out, "vt")):
    with open(os.path.join(out, "vt", name), "rb") as a:
        with open(os.path.join(out, "rt", name), "rb") as b:
            assert name == "manifest.json" or a.read() == b.read(), name
print(sorted(m for m in sys.modules if m.startswith("scipy") and sys.modules[m] is not None))
"""


def test_package_imports_no_scipy(tmp_path):
    # scipy is a test dependency only: with it made unimportable, every check of
    # verify, on the binomial route and on a tabulated model's h-field, and their
    # replays still run, and no scipy module is loaded
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    r = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path / "run")],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


ROOT_SCRIPT = """
import inspect, sys
import countbridge
print(sorted(k for k, v in vars(countbridge).items() if inspect.isfunction(v) or inspect.isclass(v)))
print(sorted(m for m in ("sampler", "verify", "cli") if f"countbridge.{m}" in sys.modules))
"""


def test_the_package_root_binds_solve_h_alone():
    # every function and class is imported from its module: a bare import once bound
    # 32 names and loaded the sampler, the checks and the command line with them
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    r = subprocess.run([sys.executable, "-c", ROOT_SCRIPT], capture_output=True, text=True,
                       env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == ["['solve_h']", "[]"]


@pytest.mark.parametrize("first, second", [
    ({"a": 0.5, "b": 0.3, "lambda": 1.5}, {"a": 4.0, "b": 0.3, "lambda": 1.5}),
    ({"a": 0.2, "b": 0.0, "lambda": -2.0}, {"a": 30.0, "b": 0.0, "lambda": -2.0}),
], ids=["clock", "time-exponential"])
def test_a_shared_characteristic_gives_a_shared_bridge(tmp_path, first, second):
    # the characteristic lam + b e^(lam t) does not read a: two exp_affine models
    # that differ only in a have the same bridges, so the same files, byte for byte
    runs = [["marginals", "--x", "1", "--y", "6", "--s", "0.1", "--u", "0.8"],
            ["mean-curve", "--y", "9"],
            ["sample", "--y", "5", "--replicas", "40", "--seed", "5"]]
    for argv in runs:
        texts = []
        for k, params in enumerate((first, second)):
            path = tmp_path / f"m{k}.json"
            path.write_text(json.dumps({"family": "exp_affine", "params": params}))
            out = tmp_path / f"{argv[0]}{k}"
            assert cli.main(argv + ["--model", str(path), "--out", str(out)]) == 0
            texts.append({f.name: f.read_bytes() for f in out.iterdir()
                          if f.name != "manifest.json"})
        assert texts[0] == texts[1], argv


def test_a_poisson_model_samples_as_the_zero_tilt(tmp_path):
    # every constant rate has the characteristic 0, the --lambda 0 model's
    poisson = write_model(tmp_path, {"family": "poisson", "params": {"alpha": 3.0}})
    for args, out in [(["--model", poisson], "m"), (["--lambda", "0"], "l")]:
        assert cli.main(["sample", *args, "--y", "6", "--replicas", "50", "--seed", "11",
                         "--out", str(tmp_path / out)]) == 0
    for name in ("paths.csv", "summary.json"):
        assert (tmp_path / "m" / name).read_bytes() == (tmp_path / "l" / name).read_bytes()


@pytest.mark.parametrize("args", [
    ["sample", "--lambda", "1", "--y", "3", "--replicas", "1" + "0" * 100],
    ["sample", "--lambda", "1", "--y", "1" + "0" * 100, "--replicas", "5"],
    ["lln", "--lambda", "1", "--N", "1" + "0" * 60, "--replicas", "5"],
    ["sample", "--lambda", "1", "--y", "3", "--replicas", "1" + "0" * 400],
    ["sample", "--lambda", "1", "--y", "3", "--replicas", "-1" + "0" * 400],
    ["marginals", "--lambda", "1", "--x", "1" + "0" * 400, "--y", "3"],
    ["marginals", "--lambda", "1", "--x", "1" + "0" * 400, "--y", "1" + "0" * 399 + "3"],
    ["lln", "--lambda", "1", "--N", "1" + "0" * 400, "--N", "1" + "0" * 400],
], ids=["sample-replicas", "sample-height", "lln-height", "sample-past-the-float-range",
        "sample-negative-replicas", "marginals-start-above-end", "marginals-ladder-past-2-53",
        "lln-repeated-height"])
def test_a_huge_count_prints_in_a_few_digits(tmp_path, capsys, args):
    # a count of 101 or 401 digits, or 61 in a product, is refused in one short line;
    # so is a ladder past 2^53, once an OverflowError traceback
    assert cli.main(args + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("countbridge: error:") and err.count("\n") == 1
    assert len(err) < 120, err


def test_a_tall_ladder_is_refused_before_its_arrays_exist(tmp_path, capsys):
    # 4 tabulated states under a bridge of a million jumps: the mesh once laid out three
    # ladder-long arrays (24 MB) before the model read its range, and at 1e9 states would
    # have asked for some 24 GB
    model = write_model(tmp_path, {"family": "tabulated", "params": {
        "t_grid": [0.0, 1.0], "z_min": 0, "rates": [[1.0] * 4] * 2}})
    cli.main(["marginals", "--model", model, "--y", "2", "--out", str(tmp_path / "warm")])
    tracemalloc.start()
    try:
        assert cli.main(["marginals", "--model", model, "--y", "1000000",
                         "--out", str(tmp_path / "out")]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "state outside tabulated range [0, 3]" in capsys.readouterr().err
    assert peak < 2 ** 20, peak
    assert cli.main(["marginals", "--model", model, "--y", "1000000000",
                     "--out", str(tmp_path / "out")]) == 2
    assert "a mesh over 1e+09 states needs about" in capsys.readouterr().err


def test_second_differences_of_the_mean_do_not_depend_on_x(tmp_path):
    # they are taken of E[X_t] - x, so they carry no rounding of x: at x = 1e5 a linear
    # mean once read 3.6e-8 and failed, at x = 2^44 every tilt read 9.77, and at x = 2^40
    # second_diff read 244.14 where x = 0 reads 2.8757
    def convexity(lam, x):
        out = tmp_path / f"v{lam}-{x}"
        assert cli.main(["verify", "--lambda", str(lam), "--x", str(x), "--y", str(x + 20),
                         "--check", "convexity", "--out", str(out)]) == 0
        report = read_json(out / "verify.json")["checks"][0]
        return report["claim"], report["worst_violation"]

    def second_diff(x):
        out = tmp_path / f"m{x}"
        assert cli.main(["mean-curve", "--lambda", "1", "--x", str(x), "--y", str(x + 3),
                         "--out", str(out)]) == 0
        return [row[2] for row in read_csv(out / "mean_curve.csv")[1]]

    for lam in (-1, 0, 1):
        assert convexity(lam, 10 ** 5) == convexity(lam, 2 ** 44) == convexity(lam, 0)
    assert second_diff(2 ** 40) == second_diff(0)


def cells_csv(header, rows):
    """A table printed cell by cell: each number as format(float(c), ".17g"),
    None as a blank cell."""
    lines = [header] + [["" if c is None else format(float(c), ".17g") for c in row]
                        for row in rows]
    return "".join(",".join(line) + "\n" for line in lines)


def write_model(tmp_path, descriptor):
    mpath = tmp_path / "model.json"
    mpath.write_text(json.dumps(descriptor))
    return str(mpath)


TAB_TIMES = np.linspace(0.0, 1.0, 11)
TABULATED = Tabulated(TAB_TIMES, 0, (1.0 + 0.3 * np.arange(8.0))[None, :]
                      * np.exp(np.sin(3.0 * TAB_TIMES))[:, None]).to_dict()


@pytest.mark.parametrize("descriptor, sampler", [
    ({"family": "exp_affine", "params": {"a": 1.0, "b": 0.1, "lambda": 3.0}},
     "exact-tilted-order-statistics"),
    (TABULATED, "h-transform-inversion"),
], ids=["exp-affine", "tabulated"])
def test_sample_and_lln_name_their_sampler_alike(tmp_path, descriptor, sampler):
    # one name per route, BridgeLaw's: summary.json's sampler is lln.json's strategy
    model = write_model(tmp_path, descriptor)
    assert cli.main(["sample", "--model", model, "--y", "5", "--replicas", "4",
                     "--out", str(tmp_path / "s")]) == 0
    assert cli.main(["lln", "--model", model, "--lambda", "0", "--N", "5", "--replicas", "4",
                     "--out", str(tmp_path / "l")]) in (0, 1)
    assert (read_json(tmp_path / "s" / "summary.json")["sampler"]
            == read_json(tmp_path / "l" / "lln.json")["inputs"]["strategy"] == sampler)


@pytest.mark.parametrize("descriptor", [PRODUCT, TABULATED], ids=["exp-affine", "tabulated"])
def test_characteristics_csv_is_printed_cell_by_cell(tmp_path, descriptor):
    out = tmp_path / "c"
    assert cli.main(["characteristics", "--model", write_model(tmp_path, descriptor),
                     "--x", "1", "--y", "7", "--s", "0.2", "--u", "0.9", "--grid-step", "0.03",
                     "--out", str(out)]) == 0
    model = model_from_dict(descriptor)
    ts = np.linspace(0.2, 0.9, 24)  # round(0.7 / 0.03) + 1 points
    rows = [(t, z, xi) for z in range(1, 7) for t, xi in zip(ts, model.characteristic(ts, z))]
    assert (out / "characteristics.csv").read_text() == cells_csv(["t", "z", "xi"], rows)


@pytest.mark.parametrize("block", [5, 24], ids=["rows-in-pieces", "whole-rows"])
def test_characteristics_rows_print_the_same_cells_in_any_block(tmp_path, monkeypatch, block):
    # a row of more than BLOCK_CELLS times goes out in pieces of that many
    monkeypatch.setattr(engine, "BLOCK_CELLS", block)
    out = tmp_path / "c"
    assert cli.main(["characteristics", "--model", write_model(tmp_path, PRODUCT), "--x", "1",
                     "--y", "7", "--s", "0.2", "--u", "0.9", "--grid-step", "0.03",
                     "--out", str(out)]) == 0
    model = model_from_dict(PRODUCT)
    ts = np.linspace(0.2, 0.9, 24)
    rows = [(t, z, xi) for z in range(1, 7) for t, xi in zip(ts, model.characteristic(ts, z))]
    assert (out / "characteristics.csv").read_text() == cells_csv(["t", "z", "xi"], rows)


@pytest.mark.parametrize("args", [["--y", "601", "--grid-step", "1e-3"],
                                  ["--y", "4", "--grid-step", "1e-5"]],
                         ids=["601-states", "100001-times"])
def test_characteristics_peak_stays_near_the_values(tmp_path, args):
    # 601 x 1001 and 4 x 100,001 cells: the text is held one block of BLOCK_CELLS
    # values at a time, a long row cut into pieces, so the peak stays near the 8
    # bytes per cell of the values (about 5.6 MB and 7.7 MB)
    out = tmp_path / "c"
    tracemalloc.start()
    try:
        assert cli.main(["characteristics", "--lambda", "1"] + args + ["--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15 * 2 ** 20


def test_marginals_csv_is_printed_cell_by_cell(tmp_path, monkeypatch):
    # 1001 times of 8 states in blocks of BLOCK_CELLS // 8 = 300 rows: four blocks;
    # an exp_affine model's table is its binomial law, a tabulated one's the engine's
    monkeypatch.setattr(engine, "BLOCK_CELLS", 8 * 300)
    for descriptor, x in [(PRODUCT, 2), (TABULATED, 0)]:
        out = tmp_path / "m"
        assert cli.main(["marginals", "--model", write_model(tmp_path, descriptor),
                         "--x", str(x), "--y", str(x + 7), "--out", str(out)]) == 0
        model, spec = model_from_dict(descriptor), BridgeSpec(x, x + 7)
        table = (BridgeLaw(model, spec).table() if descriptor is PRODUCT
                 else marginal_table(model, spec, 1e-3))
        assert len(table.times) > engine.BLOCK_CELLS // 8
        rows = [(t, x + zi, p) for t, probs in zip(table.times, table.probs)
                for zi, p in enumerate(probs)]
        assert (out / "marginals.csv").read_text() == cells_csv(["t", "z", "prob"], rows)


@pytest.mark.parametrize("args, curves", [
    (["--model", "PRODUCT"], {"mean_curve.csv": (model_from_dict(PRODUCT), None)}),
    (["--model", "PRODUCT", "--lambda", "3"],
     {"mean_curve.csv": (model_from_dict(PRODUCT), 3.0)}),
    (["--lambda", "-2", "--lambda", "0.5"],
     {f"mean_curve_lam{lam:g}.csv": (constant_characteristic_model(lam), lam)
      for lam in (-2.0, 0.5)}),
    (["--model", "TABULATED", "--lambda", "0.5"],
     {"mean_curve.csv": (model_from_dict(TABULATED), 0.5)}),
], ids=["model", "model-bound", "tilts-bound", "tabulated-bound"])
def test_mean_curve_csv_is_printed_cell_by_cell(tmp_path, monkeypatch, args, curves):
    # blank second differences in the end rows; 1001 rows of width 1 span four
    # blocks of BLOCK_CELLS rows.  The mean is x plus the table's offsets: n p(t) on
    # an exp_affine bridge's binomial table, the engine table's rows times 0..n on a
    # tabulated one; its second differences are the offsets'; the bound x + n phi(t).
    monkeypatch.setattr(engine, "BLOCK_CELLS", 300)
    models = {"PRODUCT": PRODUCT, "TABULATED": TABULATED}
    args = [write_model(tmp_path, models[a]) if a in models else a for a in args]
    out = tmp_path / "mc"
    assert cli.main(["mean-curve"] + args + ["--y", "7", "--out", str(out)]) == 0
    spec = BridgeSpec(0, 7)
    for name, (model, lam) in curves.items():
        table = (marginal_table(model, spec, 1e-3) if isinstance(model, Tabulated)
                 else BridgeLaw(model, spec).table())
        curve = np.column_stack([table.times, table.offsets])
        d2 = [None] + list(second_differences(curve)[:, 1]) + [None]
        bound = (None if lam is None
                 else spec.x + spec.n * tilted_cdf_window(lam, spec.s, spec.u, table.times))
        rows = [[t, spec.x + m, d2[k]] + ([] if bound is None else [bound[k]])
                for k, (t, m) in enumerate(curve)]
        header = ["t", "mean", "second_diff"] + ([] if lam is None else ["bound"])
        assert (out / name).read_text() == cells_csv(header, rows)


PATH_BLOCK_ROWS = 512


def _paths_of(tmp_path, sampler, spec, count, seed):
    """The sample arguments and the jump-time matrix of one sampler: a --lambda of
    -1.5, or PRODUCT, both drawn exactly, or TABULATED, drawn on its h-field."""
    if sampler == "constant":
        model, args = constant_characteristic_model(-1.5), ["--lambda", "-1.5"]
    else:
        descriptor = PRODUCT if sampler == "model" else TABULATED
        model, args = model_from_dict(descriptor), ["--model", write_model(tmp_path, descriptor)]
    if sampler == "tabulated":
        paths = sample_bridge(model, spec, solve_h(model, spec, 1e-3), count, seed)
    else:
        paths = sample_constant(model, spec, count, seed)
    return args, paths.times


@pytest.mark.parametrize("replicas", [0, PATH_BLOCK_ROWS - 1, PATH_BLOCK_ROWS, PATH_BLOCK_ROWS + 1])
@pytest.mark.parametrize("sampler", ["constant", "model", "tabulated"])
def test_paths_csv_is_printed_cell_by_cell_in_blocks(tmp_path, monkeypatch, sampler, replicas):
    # one chunk for the header, then one per block of BLOCK_CELLS // 4 replicas of
    # 4 jumps each
    monkeypatch.setattr(engine, "BLOCK_CELLS", 4 * PATH_BLOCK_ROWS)
    args, times = _paths_of(tmp_path, sampler, BridgeSpec(0, 4), replicas, 8)
    chunks = []
    write = cli._write_run

    def spy(out_dir, files):
        chunks.extend(files["paths.csv"])
        write(out_dir, {**files, "paths.csv": chunks})

    monkeypatch.setattr(cli, "_write_run", spy)
    out = tmp_path / "s"
    assert cli.main(["sample"] + args + ["--y", "4", "--replicas", str(replicas), "--seed", "8",
                                         "--out", str(out)]) == 0
    rows = [(r, j, t) for r, row in enumerate(times) for j, t in enumerate(row, start=1)]
    assert (out / "paths.csv").read_text() == cells_csv(["replica", "jump_index", "time"], rows)
    block_rows = engine.BLOCK_CELLS // 4
    assert len(chunks) == 1 + -(-replicas // block_rows)
    assert all(c.count("\n") == 4 * block_rows for c in chunks[1:-1])


@pytest.mark.parametrize("sampler", ["constant", "model", "tabulated"])
def test_paths_rows_wider_than_a_block_go_out_one_row_at_a_time(tmp_path, monkeypatch, sampler):
    # n = 6 jumps per replica against BLOCK_CELLS = 4: each row is a block of its own
    monkeypatch.setattr(engine, "BLOCK_CELLS", 4)
    args, times = _paths_of(tmp_path, sampler, BridgeSpec(0, 6), 9, 8)
    out = tmp_path / "s"
    assert cli.main(["sample"] + args + ["--y", "6", "--replicas", "9", "--seed", "8",
                                         "--out", str(out)]) == 0
    rows = [(r, j, t) for r, row in enumerate(times) for j, t in enumerate(row, start=1)]
    assert (out / "paths.csv").read_text() == cells_csv(["replica", "jump_index", "time"], rows)


@pytest.mark.parametrize("args", [["--lambda", "2"], ["--model", "PRODUCT"]],
                         ids=["constant", "model"])
def test_a_bridge_without_jumps_writes_the_header_only(tmp_path, args):
    args = [write_model(tmp_path, PRODUCT) if a == "PRODUCT" else a for a in args]
    out = tmp_path / "s"
    assert cli.main(["sample"] + args + ["--x", "4", "--y", "4", "--replicas", "7",
                                         "--out", str(out)]) == 0
    assert (out / "paths.csv").read_text() == "replica,jump_index,time\n"


def test_dominance_grid_csv_is_printed_cell_by_cell(tmp_path):
    # the tails of a --lambda model's binomial table, and of a tabulated model's
    # engine table
    spec = BridgeSpec(0, 4)
    for args, model, lam in [([], constant_characteristic_model(3.0), 3.0),
                             (["--model", write_model(tmp_path, TABULATED)],
                              model_from_dict(TABULATED), 0.5)]:
        out = tmp_path / "v"
        assert cli.main(["verify", *args, "--lambda", str(lam), "--y", "4", "--check",
                         "dominance", "--grid-csv", "--out", str(out)]) in (0, 1)
        table = (marginal_table(model, spec, 1e-3) if args else BridgeLaw(model, spec).table())
        rows = verify.dominance_check(model, spec, lam, table=table).rows
        assert (out / "dominance_grid.csv").read_text() == cells_csv(
            ["t", "i", "computed_tail", "benchmark_tail", "margin"], rows)


def test_verify_passes_the_sharp_upper_dominance(tmp_path):
    # at a constant characteristic -5 every tail is its benchmark, which the engine
    # table missed by 1.12e-6 in the upper direction
    out = tmp_path / "v"
    assert cli.main(["verify", "--lambda", "-5", "--y", "50", "--check", "dominance",
                     "--direction", "upper", "--out", str(out)]) == 0
    assert read_json(out / "verify.json")["checks"][0]["worst_margin"] >= -1e-12


def test_dominance_runs_on_a_step_off_its_times(tmp_path):
    # at step 0.003 no output node sits at t = 0.05, 0.1, ...: each tail is compared
    # at the node nearest its time, with the benchmark at that node
    out = tmp_path / "v"
    r = run_cli("verify", "--lambda", "3", "--y", "5", "--step", "0.003", "--check", "dominance",
                "--grid-csv", "--out", str(out))
    assert r.returncode == 0, r.stderr
    header, rows = read_csv(out / "dominance_grid.csv")
    times = sorted({float(row[0]) for row in rows})
    assert len(rows) == 19 * 5 and len(times) == 19
    # 333 cells of 1 / 333: each node is within half a cell of its time
    assert np.max(np.abs(np.array(times) - np.linspace(0.0, 1.0, 21)[1:-1])) <= 0.5 / 333 + 1e-12
    assert read_json(out / "verify.json")["checks"][0]["verdict"] == "pass"


def test_a_dominance_grid_without_jumps_writes_the_header_only(tmp_path):
    # x = y: the check has no tail to compare, so the grid has no rows
    out = tmp_path / "v"
    assert cli.main(["verify", "--lambda", "1", "--x", "3", "--y", "3", "--check", "dominance",
                     "--grid-csv", "--out", str(out)]) == 0
    assert (out / "dominance_grid.csv").read_text() == "t,i,computed_tail,benchmark_tail,margin\n"


def test_dominance_on_a_bridge_with_no_jump_reads_no_characteristic(tmp_path):
    # the characteristic of state 5, the table's last, reads the rate one state up:
    # with no jump the check reads none (it exited 2, "state outside tabulated range
    # [0, 5]", where convexity, mean-bound, marginals, sample and mean-curve exit 0),
    # and its hypothesis holds on the empty state range
    flat = Tabulated([0.0, 0.5, 1.0], 0, np.ones((3, 6)), np.zeros((3, 6))).to_dict()
    out = tmp_path / "v"
    assert cli.main(["verify", "--model", write_model(tmp_path, flat), "--x", "5", "--y", "5",
                     "--lambda", "0", "--check", "dominance", "--out", str(out)]) == 0
    check, = read_json(out / "verify.json")["checks"]
    assert check["inputs"]["hypothesis_holds"] is True and check["grid_points"] == 0
    assert check["verdict"] == "pass"


def test_write_table_prints_special_floats_and_integer_labels():
    values = [[math.nan, math.inf], [-0.0, 1e-300], [-math.inf, 0.1], [3.0, -2.5e-17]]
    labels = [7, -3, 0, 12]
    a, b = np.array(values).T
    text = "".join(cli._table(["a", "o", "b"], [a, np.array(labels), b]))
    rows = [(a, o, b) for (a, b), o in zip(values, labels)]
    assert text == cells_csv(["a", "o", "b"], rows)
    assert text.splitlines()[1:3] == ["nan,7,inf", "-0,-3,1e-300"]


def printed(column):
    """The lines the table writer forms for one column."""
    return cli._text([np.asarray(column)], None).splitlines()


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                max_size=40))
@settings(max_examples=300, deadline=None)
def test_every_float_prints_as_format_17g(values):
    assert printed(np.array(values, dtype=float)) == [format(v, ".17g") for v in values]


def _ulps(x, k):
    for _ in range(k):
        x = math.nextafter(x, math.inf)
    for _ in range(-k):
        x = math.nextafter(x, -math.inf)
    return x


def _halfway_cases():
    # j / 2^(m + 1) with j odd: times 10^m it is j 5^m / 2, an odd half of 17
    # digits, so its 17-digit rounding is a tie; past m = 24, j 5^m / 2 has more
    # than 17 digits for every j.  From m = 23 on, 10^m is not a double.
    cases = []
    for m in range(1, 25):
        low = -(-2 * 10 ** 16 // 5 ** m) | 1
        for x in [j / 2 ** (m + 1) for j in range(low, low + 8, 2) if j * 5 ** m < 2 * 10 ** 17]:
            v = Fraction(x) * 10 ** m
            assert v.denominator == 2 and 10 ** 16 <= v < 10 ** 17
            cases.append(x)
    assert len(cases) == 23 * 4 + 2
    return cases


# every decimal exponent of a double, 10^k for k = -324..308 and 2 ulps about it
EDGES = ([_ulps(float(f"1e{k}"), d) for k in range(-324, 309) for d in (-2, -1, 0, 1, 2)]
         + _halfway_cases()
         + [2.0 ** 53 + d for d in (-2, -1, 0, 1, 2)]
         + [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308])


def test_floats_at_powers_of_ten_ties_and_2_to_53_print_as_format_17g():
    values = EDGES + [-v for v in EDGES] + [math.nan, math.inf, -math.inf]
    assert printed(values) == [format(v, ".17g") for v in values]


def _convergents(r):
    """The convergents h/q of the continued fraction of the rational r."""
    h0, h1, q0, q1 = 0, 1, 1, 0
    while True:
        a = math.floor(r)
        h0, h1, q0, q1 = h1, a * h1 + h0, q1, a * q1 + q0
        yield h1, q1
        if r == a:
            return
        r = 1 / (r - a)


def _near_tie(e, m):
    """A double x = m' 2^k of decimal exponent e whose 17-digit significand
    m' r, r = 2^k 10^(16 - e), is near a tie (an odd half), and its distance to
    it; None if the search leaves the binade.  From m' = m, each convergent h/q
    of r moves m' by a multiple of q, so m' r by a multiple of q r - h, the
    tie's distance shrinking below |q r - h|."""
    k = math.ceil(math.log2(10.0) * e) - 52  # 2^(k + 52) .. 2^(k + 53) is inside 10^e .. 4 10^e
    r = Fraction(2) ** k * Fraction(10) ** (16 - e)
    for h, q in _convergents(r):
        if q > 2 ** 48 or q * r == h:
            break
        m -= round(((m * r) % 1 - Fraction(1, 2)) / (q * r - h)) * q
    if not 2 ** 52 <= m < 2 ** 53:
        return None
    return math.ldexp(m, k), abs(float((m * r) % 1 - Fraction(1, 2)))


def test_cells_within_1e_15_of_a_17_digit_tie_print_as_format_17g():
    # past E = 16 and below E = -29 no double is an exact tie and 10^(16 - E) is
    # inexact as a double-double, so the encoder's significand has a rounded tail
    # and a cell this near a tie must be left to Python; the ties are near enough
    # from E = 38 up
    cells = []
    for e in [*range(-60, -29), *range(38, 61)]:
        for start in (5 * 2 ** 50, 6 * 2 ** 50, 7 * 2 ** 50):
            x, gap = _near_tie(e, start) or (None, 1.0)
            if gap < 1e-15:
                assert format(x, ".16e").endswith(f"e{e:+03d}")
                cells.append(x)
    assert len(cells) >= 100
    values = cells + [-x for x in cells]
    assert printed(values) == [format(v, ".17g") for v in values]


def test_the_subnormals_print_as_format_17g():
    values = np.arange(1, 10 ** 5 + 1) * 5e-324  # j 2^-1074, exactly
    assert printed(values) == [format(v, ".17g") for v in values.tolist()]


def test_a_million_random_bit_patterns_print_as_format_17g():
    # every exponent, subnormals, nan and inf among them
    rng = np.random.default_rng(20240502)
    for _ in range(10):
        values = rng.integers(0, 2 ** 64, 10 ** 5, dtype=np.uint64).view(float)
        assert printed(values) == [format(v, ".17g") for v in values.tolist()]


def test_a_million_random_floats_print_as_format_17g():
    rng = np.random.default_rng(20240501)
    for _ in range(10):
        values = (rng.uniform(1.0, 10.0, 10 ** 5) * 10.0 ** rng.integers(-30, 41, 10 ** 5)
                  * rng.choice([-1.0, 1.0], 10 ** 5))
        assert printed(values) == [format(v, ".17g") for v in values.tolist()]


def test_integer_columns_print_as_str():
    values = [0, 1, -1, 9, 10, -10, 12345, 2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, -2 ** 53 - 1,
              10 ** 17, 10 ** 18 + 7, 2 ** 63 - 1, -2 ** 63]
    assert printed(np.array(values, dtype=np.int64)) == [str(v) for v in values]


def test_the_parser_is_built_once_and_keeps_no_state_between_calls(tmp_path):
    assert cli._parser() is cli._parser()
    first, second = tmp_path / "a", tmp_path / "b"
    assert cli.main(["mean-curve", "--lambda", "1", "--lambda", "2", "--y", "3",
                     "--out", str(first)]) == 0
    assert cli.main(["mean-curve", "--lambda", "3", "--y", "3", "--out", str(second)]) == 0
    assert sorted(os.listdir(second)) == ["manifest.json", "mean_curve.csv"]
    assert read_json(second / "manifest.json")["options"]["lambdas"] == [3.0]


_STUB_HEAD = ("# gnuplot stub; run: gnuplot -p this_file\n"
              "set datafile separator ','\n"
              "set xlabel 't'\n"
              "set ylabel 'E[X_t]'\n")


@pytest.mark.parametrize("lambdas, plot, outputs", [
    (["3"], "plot 'mean_curve.csv' using 1:2 with lines title 'mean_curve.csv'\n",
     ["mean_curve.csv", "mean_curve.gp"]),
    (["1", "2.5"], "plot 'mean_curve_lam1.csv' using 1:2 with lines title 'mean_curve_lam1.csv',"
                   " 'mean_curve_lam2.5.csv' using 1:2 with lines title 'mean_curve_lam2.5.csv'\n",
     ["mean_curve.gp", "mean_curve_lam1.csv", "mean_curve_lam2.5.csv"]),
], ids=["one-tilt", "two-tilts"])
def test_mean_curve_gnuplot_stub_is_listed_and_replayed(tmp_path, lambdas, plot, outputs):
    out, again = tmp_path / "m", tmp_path / "r"
    args = [a for lam in lambdas for a in ("--lambda", lam)]
    assert cli.main(["mean-curve", *args, "--y", "4", "--gnuplot", "--out", str(out)]) == 0
    assert (out / "mean_curve.gp").read_text() == _STUB_HEAD + plot
    assert read_json(out / "manifest.json")["outputs"] == outputs
    assert cli.main(["replay", str(out / "manifest.json"), "--out", str(again)]) == 0
    for name in outputs:
        assert (again / name).read_bytes() == (out / name).read_bytes()


def test_a_chunk_that_raises_leaves_no_file(tmp_path):
    # a run's files are written all or none: a chunk that raises in the second of
    # two files leaves neither target, no temp file, and an earlier file unchanged
    def chunks():
        yield "t,z\n"
        raise ValueError("mid-stream")

    fresh, kept = tmp_path / "new" / "out", tmp_path / "kept"
    kept.mkdir()
    (kept / "a.csv").write_text("old\n")
    for out in (fresh, kept):
        with pytest.raises(ValueError, match="mid-stream"):
            cli._write_run(str(out), {"a.csv": "a\n", "t.csv": chunks(), "manifest.json": "{}\n"})
    assert not (tmp_path / "new").exists()
    assert os.listdir(kept) == ["a.csv"] and (kept / "a.csv").read_text() == "old\n"


CLOCK_710 = {"family": "exp_affine", "params": {"a": 1.0, "b": 1.0, "lambda": 710.0}}


@pytest.mark.parametrize("args, message", [
    (["mean-curve", "--lambda", "1e309"], "--lambda must be a finite number, got inf"),
    (["verify", "--lambda", "1e309"], "--lambda must be a finite number, got inf"),
    (["mean-curve", "--model", "CLOCK_710"], "the bridge's clock CDF is not finite"),
], ids=["mean-curve-overflow", "verify-overflow", "mean-curve-clock-overflow"])
def test_a_tilt_beyond_the_float_range_exits_2(tmp_path, args, message):
    # every finite tilt is served (--lambda 800 included), so a tilt is refused only
    # past the float range: --lambda 1e309 parses as inf, and e^710 overflows the clock
    # of ExpAffine(1, 1, 710), so the law's tilt theta = b (tau(1) - tau(0)) is not
    # finite.  Run under -W error::RuntimeWarning (PKG).
    args = [write_model(tmp_path, CLOCK_710) if a == "CLOCK_710" else a for a in args]
    out = tmp_path / "out"
    r = run_cli(*args, "--y", "5", "--out", str(out))
    assert r.returncode == 2
    assert r.stderr.startswith("countbridge: error:") and message in r.stderr
    assert "Traceback" not in r.stderr
    assert not (out / "manifest.json").exists()


# rates 1 + 1e200 z on three knots: the Bernstein products of its bounds overflow
BIG_RATES = {"family": "tabulated",
             "params": {"t_grid": [0.0, 0.5, 1.0], "z_min": 0,
                        "rates": [[1.0 + 1e200 * z for z in range(7)]] * 3}}


@pytest.mark.parametrize("args", [
    ["verify", "--model", "CLOCK_710", "--y", "3", "--check", "convexity"],
    ["characteristics", "--model", "CLOCK_710", "--y", "3"],
    ["verify", "--model", "BIG_RATES", "--y", "5", "--check", "convexity"],
    ["sample", "--model", "BIG_RATES", "--y", "5"],
], ids=["verify-clock-710", "characteristics-clock-710", "verify-big-rates", "sample-big-rates"])
def test_a_characteristic_past_the_float_range_exits_2(tmp_path, args):
    # b e^(710 t) overflows at t = 1, and the products of rates of 1e200 overflow:
    # once an OverflowError, a RuntimeWarning (PKG runs under -W error), a NaN in
    # verify.json or a PinMiss, now one refusal before anything is written
    models = {"CLOCK_710": CLOCK_710, "BIG_RATES": BIG_RATES}
    args = [write_model(tmp_path, models[a]) if a in models else a for a in args]
    out = tmp_path / "out"
    r = run_cli(*args, "--out", str(out))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("countbridge: error:") and "float range" in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("args, y", [
    (["--lambda", "-800"], 5),
    (["--model", "STEEP", "--step", "0.01"], 1),
], ids=["tilt-minus-800", "exp-affine-1.44e30-0-minus-41"])
def test_a_steep_exp_affine_bridge_is_exact(tmp_path, args, y):
    # e^-800 t, or a rate of 1.44e30 e^-41 t, is past what the engine can grade or
    # hold (no integrated rate left before u; a mass drift of 4.8e26), but its
    # bridge is binomial: a finite table, under -W error::RuntimeWarning (PKG)
    steep = {"family": "exp_affine", "params": {"a": 1.44e30, "b": 0.0, "lambda": -41.0}}
    args = [write_model(tmp_path, steep) if a == "STEEP" else a for a in args]
    out = tmp_path / "out"
    r = run_cli("mean-curve", *args, "--y", str(y), "--out", str(out))
    assert r.returncode == 0, r.stderr
    _, rows = read_csv(out / "mean_curve.csv")
    means = [float(row[1]) for row in rows]
    assert all(map(math.isfinite, means)) and means[0] == 0 and means[-1] == y


def test_write_json_refuses_a_non_finite_value():
    # strict JSON: a runner forms its JSON text before returning, so a NaN is
    # refused before any file, temp or target, exists
    with pytest.raises(ValueError, match="JSON"):
        cli._json({"x": math.nan})


def _fail_second_curve(monkeypatch):
    """Make the second mean curve of a run fail (OutOfDomain) after the first is formed."""
    curve, calls = cli._curve_table, []

    def failing(*args):
        calls.append(args)
        if len(calls) == 2:
            raise OutOfDomain("the second curve fails")
        return curve(*args)
    monkeypatch.setattr(cli, "_curve_table", failing)


@pytest.mark.parametrize("args, message", [
    (["mean-curve", "--lambda", "1", "--lambda", "2", "--y", "5"], "the second curve fails"),
    (["verify", "--lambda", "1", "--y", "5", "--check", "dominance", "--grid-csv",
      "--check", "duality", "--replicas", "1"], "needs at least two paths"),
], ids=["mean-curve-second-tilt", "verify-duality-after-grid"])
def test_a_run_that_fails_after_its_first_file_writes_nothing(tmp_path, capsys, monkeypatch,
                                                              args, message):
    # the first curve or the dominance grid is formed before the run fails; verify
    # forms no mean curve
    _fail_second_curve(monkeypatch)
    out = tmp_path / "out"
    assert cli.main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("countbridge: error:") and message in err
    assert not out.exists()


def test_a_failing_run_leaves_an_earlier_run_in_its_directory_as_it_was(tmp_path, monkeypatch):
    # the failing run would write mean_curve_lam1.csv for y = 12 over the y = 5 one
    out = tmp_path / "out"
    assert cli.main(["mean-curve", "--lambda", "1", "--lambda", "2", "--y", "5",
                     "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    with monkeypatch.context() as patch:
        _fail_second_curve(patch)
        assert cli.main(["mean-curve", "--lambda", "1", "--lambda", "2", "--y", "12",
                         "--out", str(out)]) == 2
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    again = tmp_path / "again"
    assert cli.main(["replay", str(out / "manifest.json"), "--out", str(again)]) == 0
    outputs = read_json(out / "manifest.json")["outputs"]
    assert outputs == ["mean_curve_lam1.csv", "mean_curve_lam2.csv"]
    assert {name: (again / name).read_bytes() for name in outputs} == {
        name: before[name] for name in outputs}


EXP_AFFINE = {"family": "exp_affine", "params": {"a": 1.0, "b": 0.0, "lambda": 0.0}}


def _edited(descriptor, **params):
    return dict(descriptor, params=dict(descriptor["params"], **params))


# descriptors whose keys are not exactly family, params and an optional state_floor, or
# whose params' keys are not exactly its family's, and the refusal each reads: each
# once loaded as another model or was refused by a value ("got None", "finite numbers only")
_KEY_FAULTS = [
    ('{"family": "exp_affine", "params": {"a": 1, "b": 0, "lambda": 1, "lamda": 5}}',
     "exp_affine params: unexpected 'lamda'; missing none"),
    ('{"family": "exp_affine", "params": {"a": 1, "b": 0, "lambda": 1}, "state_flor": 3}',
     "malformed model descriptor: unexpected 'state_flor'; missing none"),
    ('{"family": "exp_affine", "params": [["a", 1], ["b", 0], ["lambda", 1]]}',
     "exp_affine params (not an object): unexpected none; missing 'a', 'b', 'lambda'"),
    ('{"family": "tabulated", "t_grid": [0, 1], "z_min": 0, "rates": [[1], [1]]}',
     "malformed model descriptor: unexpected 'rates', 't_grid', 'z_min'; missing 'params'"),
    ('{"family": "exp_affine", "a": 1, "b": 0, "lambda": 1}',
     "malformed model descriptor: unexpected 'a', 'b', 'lambda'; missing 'params'"),
]


@pytest.mark.parametrize("text, field", [
    (json.dumps(_edited(EXP_AFFINE, a="x")), "a must be a finite real number"),
    (json.dumps(_edited(EXP_AFFINE, a=None)), "a must be a finite real number"),
    (json.dumps(_edited(EXP_AFFINE, **{"lambda": math.nan})), "lambda must be a finite"),
    (json.dumps(_edited(EXP_AFFINE, a=math.inf)), "a must be a finite real number"),
    (json.dumps(_edited(PRODUCT, alpha="x")), "alpha must be a finite real number"),
    (json.dumps(dict(EXP_AFFINE, state_floor=0.5)), "state_floor must be an integer"),
    (json.dumps(_edited(TABULATED, rates=[[math.nan] + r[1:] for r in TABULATED["params"]["rates"]])),
     "rates must hold finite numbers"),
    (json.dumps(_edited(TABULATED, t_grid=[math.nan] + TABULATED["params"]["t_grid"][1:])),
     "t_grid must hold finite numbers"),
    (json.dumps(_edited(TABULATED, rates_dt=[[math.inf] * 8] * 11)),
     "rates_dt must hold finite numbers"),
    (json.dumps(_edited(TABULATED, z_min=0.5)), "z_min must be an integer"),
    (json.dumps(_edited(EXP_AFFINE, a=True)), "a must be a finite real number"),
    (json.dumps(_edited(TABULATED, z_min=True)), "z_min must be an integer"),
    (json.dumps(dict(EXP_AFFINE, state_floor=False)), "state_floor must be an integer"),
    (json.dumps({"family": "exp_affine", "params": {"a": 1.0}}),
     "exp_affine params: unexpected none; missing 'b', 'lambda'"),
    # positive at the nodes and on any probe grid, -7.3e-6 near t = 0.00166
    (json.dumps({"family": "tabulated",
                 "params": {"t_grid": [0, 1], "z_min": 0, "rates": [[1e-6, 1e-6], [1, 1]],
                            "rates_dt": [[-1e-2, -1e-2], [0, 0]]}}),
     "dip to zero between nodes: state 0 on [0, 1]"),
    # a JSON integer past the float range, which math.isfinite cannot take
    (json.dumps(_edited(EXP_AFFINE, a=10 ** 400)), "a must be a finite real number"),
    (json.dumps(_edited(TABULATED, rates=[["x"] + r[1:] for r in TABULATED["params"]["rates"]])),
     "rates must hold finite numbers"),
    # descriptor integers are JSON integers, as in manifests
    (json.dumps(dict(EXP_AFFINE, state_floor=2.0)), "state_floor must be an integer, got 2.0"),
    # integers past the float range are integers, quoted in three digits
    (json.dumps(dict(EXP_AFFINE, state_floor=10 ** 400)), "below floor 1.00e+400"),
    (json.dumps(dict(_edited(EXP_AFFINE, b=0.5), state_floor=10 ** 400)), "below floor 1.00e+400"),
    (json.dumps(dict(_edited(EXP_AFFINE, b=0.5), state_floor=-10 ** 400)),
     "rate not positive at the state floor"),
    (json.dumps(dict(_edited(TABULATED, z_min=10 ** 400), state_floor=10 ** 400)),
     "below floor 1.00e+400"),
    *_KEY_FAULTS,
], ids=["a-string", "a-null", "lambda-nan", "a-infinity", "product-alpha-string",
        "state-floor-fractional", "tabulated-rate-nan", "tabulated-t-grid-nan",
        "tabulated-rates-dt-infinity", "tabulated-z-min-fractional", "a-true",
        "tabulated-z-min-true", "state-floor-false", "b-missing", "tabulated-dip",
        "a-past-the-float-range", "tabulated-rate-string", "state-floor-integral-float",
        "state-floor-past-the-float-range", "state-floor-past-the-float-range-b-positive",
        "state-floor-below-the-float-range-b-positive", "tabulated-z-min-past-the-float-range",
        "lamda", "state-flor", "params-a-list", "tabulated-at-the-top", "exp-affine-at-the-top"])
def test_descriptors_with_unusable_values_exit_2(tmp_path, capsys, text, field):
    # a model file is outside input: a value that is not a finite number, or a state
    # that is not an integer, is a ValueError naming the field (exit 2) in one short
    # line, never a traceback or a manifest holding NaN
    mpath = tmp_path / "model.json"
    mpath.write_text(text)
    out = tmp_path / "out"
    for command in ("characteristics", "marginals"):
        assert cli.main([command, "--model", str(mpath), "--y", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("countbridge: error:") and field in err
        assert err.count("\n") == 1 and len(err) < 160, err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["sample", "--lambda", "1", "--y", "3", "--replicas", "5"],
    ["marginals", "--y", "1"],
], ids=["sample-with-lambda", "marginals"])
def test_a_null_descriptor_is_refused_not_read_as_no_model(tmp_path, capsys, args):
    # a --model file holding null once ran the --lambda model, recording "model": null,
    # or read "need --model or exactly one --lambda"
    mpath = tmp_path / "null.json"
    mpath.write_text("null")
    out = tmp_path / "out"
    assert cli.main(args + ["--model", str(mpath), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"countbridge: error: {mpath} holds null, not a model descriptor\n"
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["marginals", "--lambda", "1", "--step", "1e-300", "--y", "2"],
    ["characteristics", "--lambda", "1", "--grid-step", "1e-300", "--y", "2"],
], ids=["marginals-step", "characteristics-grid"])
def test_a_memory_refusal_prints_its_estimate_in_a_few_digits(capsys, tmp_path, args):
    # 1e300 cells: the estimate once printed as a figure of some 290 digits
    assert cli.main(args + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 120, err
    assert "e+29" in err and "GiB; the cap is 2 GiB" in err


@pytest.mark.parametrize("args", [
    ["characteristics", "--lambda", "1", "--grid-step", "1e-15", "--y", "2"],
    ["sample", "--lambda", "1", "--replicas", "1000000000000", "--y", "5"],
    ["sample", "--model", "PRODUCT", "--replicas", "1000000000000", "--y", "5"],
    ["verify", "--lambda", "1", "--y", "5", "--check", "duality", "--replicas", "1000000000000"],
    ["marginals", "--lambda", "1", "--step", "1e-9", "--y", "2"],
    ["marginals", "--lambda", "1", "--step", "1e-300", "--y", "2"],
    ["verify", "--lambda", "1", "--step", "1e-320", "--y", "2"],
    ["characteristics", "--lambda", "1", "--grid-step", "1e-320", "--y", "2"],
    ["sample", "--lambda", "1", "--step", "1e-9", "--y", "2"],
], ids=["characteristics-grid", "sample-constant", "sample-model", "verify-duality",
        "marginals-step", "marginals-step-1e-300", "verify-step-subnormal",
        "characteristics-grid-subnormal", "sample-step"])
def test_requests_over_the_memory_cap_exit_2_before_allocating(tmp_path, capsys, args):
    # petabytes of grid or terabytes of paths are refused from their sizes alone
    args = [write_model(tmp_path, PRODUCT) if a == "PRODUCT" else a for a in args]
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        assert cli.main(args + ["--out", str(out)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err.startswith("countbridge: error:") and "the cap is 2 GiB" in err
    assert peak < 16 * 2 ** 20
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("args", [
    ["mean-curve", "--lambda", "-700", "--y", "6"],
    ["verify", "--lambda", "-700", "--y", "5", "--check", "duality", "--replicas", "2000"],
], ids=["mean-curve", "verify-duality"])
def test_steeply_decaying_rates_run_without_overflow(tmp_path, args):
    # rate e^(-700 t): near u the ratio h(t, z+1) / h(t, z) is past the float range,
    # while the pinned rate is not.  Run under -W error::RuntimeWarning (PKG).
    r = run_cli(*args, "--out", str(tmp_path / "out"))
    assert r.returncode == 0, r.stderr


def test_a_pinned_rate_that_underflows_at_its_anchor_exits_2(tmp_path):
    # rate 1 + 1e100 z, tabulated so that the engine samples it: at each state's
    # anchor log h is far below the float range's reach of the gap to the state
    # above, so the pinned rate there would be 0, and the sampler once refused a
    # path that followed the pin asymptote past it.  The pin layer is now sized by
    # the largest rate at u, 6e100, which no step of 8 ulps of u brings to 1e-2:
    # the mesh refuses the bridge before anything is solved.  Run under
    # -W error::RuntimeWarning (PKG).
    knots = [0.0, 0.5, 1.0]
    rates = np.tile(1.0 + 1e100 * np.arange(7.0), (3, 1))
    model = write_model(tmp_path, Tabulated(knots, 0, rates, np.zeros((3, 7))).to_dict())
    r = run_cli("sample", "--model", model, "--y", "6", "--out", str(tmp_path / "out"))
    assert r.returncode == 2
    assert r.stderr == ("countbridge: error: the largest rate at u, 6e+100, times the pin"
                        " layer's least step, 1.78e-15, is 1.07e+86, over 0.01\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [["marginals"], ["mean-curve"], ["verify", "--check", "convexity"],
                                  ["sample"]], ids=["marginals", "mean-curve", "verify", "sample"])
def test_a_rate_too_large_for_the_pin_layer_exits_2(tmp_path, args):
    # a constant rate of 1e200: its bridge is the uniform Poisson bridge, but no pin
    # layer step of 8 ulps of u or more keeps rate x step at 1e-2.  The engine's
    # columns once overflowed exp on it (a traceback under -W error, PKG), and
    # sample left a path past its window; now the mesh refuses it before any solve
    rates = np.full((3, 6), 1e200)
    model = write_model(tmp_path, Tabulated([0.0, 0.5, 1.0], 0, rates, 0.0 * rates).to_dict())
    out = tmp_path / "out"
    r = run_cli(*args, "--model", model, "--y", "5", "--out", str(out))
    assert r.returncode == 2
    assert r.stderr == ("countbridge: error: the largest rate at u, 1e+200, times the pin"
                        " layer's least step, 1.78e-15, is 1.78e+185, over 0.01\n")
    assert not out.exists()


@pytest.mark.parametrize("top, code, err", [
    (1e13, 2, "countbridge: error: the largest rate at u, 1e+13, times the pin layer's least"
              " step, 1.78e-15, is 0.0178, over 0.01\n"),
    (1e12, 0, ""),
], ids=["refused", "admitted"])
def test_the_pin_layer_refuses_the_rates_at_u_its_least_step_cannot_hold(tmp_path, capsys, top,
                                                                         code, err):
    # rates 1 and 1e13 (or 1e12) on states 0 and 1: the pin layer's least step, 8 ulps of
    # u, keeps rate x step within STEP_BUDGET / 10 = 0.01 at 1e12, not at 1e13
    rates = np.tile([1.0, top], (3, 1))
    model = write_model(tmp_path, Tabulated([0.0, 0.5, 1.0], 0, rates, 0.0 * rates).to_dict())
    out = tmp_path / "out"
    assert cli.main(["marginals", "--model", model, "--y", "1", "--out", str(out)]) == code
    assert capsys.readouterr().err == err
    assert (out / "marginals.csv").exists() == (code == 0)


def test_verify_refuses_a_model_whose_characteristic_bounds_are_not_finite(tmp_path, capsys):
    # a rate of 1e-310, subnormal, at a knot: its cells' coefficient ratios overflow, and
    # their margins read nan.  The bounds once left those cells out and read (-4.09,
    # -3.0), so convexity claimed "concave" and failed (exit 1) on a characteristic
    # that reaches +40,000; now the bounds are infinite and refused
    model = write_model(tmp_path, Tabulated(
        [0.0, 0.5, 1.0], 0, [[1.0, 1.0, 1.0], [3.0, 1e-310, 1.0], [1.0, 1.0, 1.0]],
        [[4.0, 0.0, 0.0], [0.0, 0.0, 0.0], [-4.0, 0.0, 0.0]]).to_dict())
    out = tmp_path / "out"
    assert cli.main(["verify", "--model", model, "--y", "2", "--check", "convexity",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("countbridge: error: the characteristic's bounds, -inf"
                                       " and inf, are not finite\n")
    assert not out.exists()


def test_many_paths_without_jumps_hold_no_per_replica_labels(tmp_path):
    # a bridge without jumps writes the header only, so a million replicas need
    # no million replica labels
    out = tmp_path / "s"
    tracemalloc.start()
    try:
        assert cli.main(["sample", "--lambda", "1", "--x", "3", "--y", "3",
                         "--replicas", "1000000", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (out / "paths.csv").read_text() == "replica,jump_index,time\n"
    assert read_json(out / "summary.json")["count"] == 1000000
    assert peak < 8 * 2 ** 20


def _tree(root):
    """Every directory (as None) and file (as its bytes) under ``root``, by relative path."""
    root = pathlib.Path(root)
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


SAMPLE_RUN = ["sample", "--lambda", "1", "--y", "3", "--replicas", "5"]
VERIFY_RUN = ["verify", "--lambda", "1", "--y", "3", "--check", "convexity"]


@pytest.mark.parametrize("run, edit, message", [
    (SAMPLE_RUN, {"x": 1.5}, "--x must be an integer, got 1.5"),
    (SAMPLE_RUN, {"y": 3.9}, "--y must be an integer, got 3.9"),
    (SAMPLE_RUN, {"y": True}, "--y must be an integer, got True"),
    (SAMPLE_RUN, {"seed": 1.7}, "--seed must be an integer, got 1.7"),
    (SAMPLE_RUN, {"replicas": 3.6}, "--replicas must be an integer, got 3.6"),
    (SAMPLE_RUN, {"lambdas": "3"}, "--lambda must be a list, got '3'"),
    (SAMPLE_RUN, {"lambdas": "12"}, "--lambda must be a list, got '12'"),
    (SAMPLE_RUN, {"lambdas": 3.0}, "--lambda must be a list, got 3.0"),
    (SAMPLE_RUN, {"x": None}, "--x must be an integer, got None"),
    (SAMPLE_RUN, {"seed": None}, "--seed must be an integer, got None"),
    (SAMPLE_RUN, {"replicas": None}, "--replicas must be an integer, got None"),
    (SAMPLE_RUN, {"seed": [1]}, "--seed must be an integer, got [1]"),
    (SAMPLE_RUN, {"lambdas": {"a": 1}}, "--lambda must be a list, got {'a': 1}"),
    (SAMPLE_RUN, lambda m: [m], "is not a manifest"),
    (SAMPLE_RUN, lambda m: dict(m, options=None), "is not a manifest"),
    (SAMPLE_RUN, lambda m: dict(m, command=["sample"]), "manifest command ['sample'] unknown"),
    (VERIFY_RUN, {"checks": 5}, "--check must be a list, got 5"),
    (VERIFY_RUN, {"direction": 5}, "--direction must be a string, got 5"),
    (VERIFY_RUN, {"grid_csv": 1}, "--grid-csv must be true or false, got 1"),
    (SAMPLE_RUN, {"out": 5}, "--out must be a string, got 5"),
    (SAMPLE_RUN, lambda m: dict(m, options={k: v for k, v in m["options"].items() if k != "seed"}),
     "sample options: unexpected none; missing 'seed'"),
    (SAMPLE_RUN, lambda m: dict(m, options=dict(m["options"], extra=1)),
     "sample options: unexpected 'extra'; missing none"),
    (SAMPLE_RUN, {"step": 10 ** 400}, "--step must be a finite number, got 1.00e+400"),
    (SAMPLE_RUN, lambda m: dict(m, command=10 ** 400), "manifest command 1.00e+400 unknown"),
    # the recorded model is read by the descriptor's key rule, as a --model file is
    (SAMPLE_RUN, {"lambdas": None, "model": _edited(EXP_AFFINE, lamda=5.0)},
     "exp_affine params: unexpected 'lamda'; missing none"),
], ids=["x-fractional", "y-fractional", "y-true", "seed-fractional", "replicas-fractional",
        "lambda-string", "lambda-string-12", "lambda-number", "x-null", "seed-null",
        "replicas-null", "seed-list", "lambda-object", "manifest-list", "options-null",
        "command-list", "checks-number", "direction-number", "grid-csv-number", "out-number",
        "seed-missing", "extra-option", "step-past-the-float-range",
        "command-past-the-float-range", "model-param-misspelt"])
def test_a_manifest_option_of_the_wrong_type_exits_2_writing_nothing(tmp_path, capsys,
                                                                    monkeypatch, run, edit,
                                                                    message):
    # a hand-edited manifest is outside input: a value of the wrong type is refused
    # with the flag it stands for, never run as some other bridge or a traceback.
    # The replay takes the manifest's --out, the earlier run's, or the working
    # directory's, and changes nothing in either.
    monkeypatch.chdir(tmp_path)
    assert cli.main(run + ["--out", str(tmp_path / "run")]) == 0
    manifest = read_json(tmp_path / "run" / "manifest.json")
    if callable(edit):
        manifest = edit(manifest)
    else:
        manifest["options"].update(edit)
    (tmp_path / "edited.json").write_text(json.dumps(manifest))
    before = _tree(tmp_path)
    capsys.readouterr()
    assert cli.main(["replay", str(tmp_path / "edited.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("countbridge: error:") and len(err.splitlines()) == 1
    assert message in err
    # a refusal that quotes no path names only what is wrong, in under 90 characters
    assert len(err.rstrip("\n")) < 90 or str(tmp_path) in err
    assert _tree(tmp_path) == before


def test_an_integer_for_a_float_option_replays_and_is_recorded_as_a_float(tmp_path):
    assert cli.main(SAMPLE_RUN + ["--out", str(tmp_path / "run")]) == 0
    manifest = read_json(tmp_path / "run" / "manifest.json")
    manifest["options"]["s"] = 0
    (tmp_path / "edited.json").write_text(json.dumps(manifest))
    again = tmp_path / "again"
    assert cli.main(["replay", str(tmp_path / "edited.json"), "--out", str(again)]) == 0
    assert '"s": 0.0,' in (again / "manifest.json").read_text()
    for name in ("paths.csv", "summary.json"):
        assert (again / name).read_bytes() == (tmp_path / "run" / name).read_bytes()


_WINDOW = ["--x X", "--y Y", "--s S", "--u U"]
_SEEDED = ["--seed SEED", "--replicas REPLICAS"]
# each command's options in the order its --help lists them, the help text
# aside; each command takes -h too
_HELP_OPTIONS = {
    "characteristics": ["--model MODEL", "--lambda LAMBDAS", *_WINDOW, "--out OUT",
                        "--grid-step GRID_STEP"],
    "mean-curve": ["--model MODEL", "--lambda LAMBDAS", *_WINDOW, "--step STEP", "--out OUT",
                   "--gnuplot"],
    "marginals": ["--model MODEL", "--lambda LAMBDAS", *_WINDOW, "--step STEP", "--out OUT"],
    "sample": ["--model MODEL", "--lambda LAMBDAS", *_WINDOW, "--step STEP", "--out OUT",
               *_SEEDED],
    "verify": ["--model MODEL", "--lambda LAMBDAS", *_WINDOW, "--step STEP", "--out OUT",
               "--check {convexity,dominance,mean-bound,duality}", "--direction {lower,upper}",
               *_SEEDED, "--grid-csv", "--tol-margin TOL_MARGIN",
               "--tol-convexity TOL_CONVEXITY", "--z-max Z_MAX"],
    "lln": ["--model MODEL", "--lambda LAMBDAS", "--step STEP", "--out OUT", "--N N", *_SEEDED],
}
_HELP_TEXT = {
    "--model MODEL": "JSON model descriptor file",
    "--lambda LAMBDAS": "constant-characteristic value: the model without --model (repeatable "
                        "for mean-curve), else the bound or the limiting profile",
    "--step STEP": "marginal/h grid step",
    "--out OUT": "output directory",
    "--gnuplot": "also write a gnuplot stub",
    "--check {convexity,dominance,mean-bound,duality}":
        "repeatable; default: convexity dominance mean-bound",
    "--N N": "bridge heights; repeatable (default 50 200 800)",
    "--grid-csv": "also write the full dominance (t, i) grid as CSV",
}


@pytest.mark.parametrize("command", sorted(_HELP_OPTIONS))
def test_every_command_help_lists_the_same_options(capsys, command):
    # the flags, their order, choices and help text; compared with the line
    # breaks, which follow the terminal's width, taken out
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    options = _HELP_OPTIONS[command]
    expected = " ".join(
        [f"usage: countbridge {command} [-h]"] + [f"[{o}]" for o in options]
        + ["options: -h, --help show this help message and exit"]
        + [f"{o} {_HELP_TEXT[o]}" if o in _HELP_TEXT else o for o in options])
    assert " ".join(capsys.readouterr().out.split()) == expected


_WINDOW_DEFAULTS = {"model": None, "lambdas": [1.0], "x": 0, "y": 20, "s": 0.0, "u": 1.0}


@pytest.mark.parametrize("command, defaults", [
    ("characteristics", dict(_WINDOW_DEFAULTS, grid_step=0.01)),
    ("mean-curve", dict(_WINDOW_DEFAULTS, step=0.001, gnuplot=False)),
    ("marginals", dict(_WINDOW_DEFAULTS, step=0.001)),
    ("sample", dict(_WINDOW_DEFAULTS, step=0.001, seed=20240501, replicas=10000)),
    ("verify", dict(_WINDOW_DEFAULTS, step=0.001, checks=None, direction="lower",
                    seed=20240501, replicas=20000, grid_csv=False, tol_margin=1e-06,
                    tol_convexity=1e-08, z_max=4.0)),
    ("lln", {"model": None, "lambdas": [1.0], "step": 0.001, "N": [50, 200, 800],
             "seed": 20240501, "replicas": 200}),
], ids=lambda v: v if isinstance(v, str) else "")
def test_every_command_records_its_defaults(tmp_path, command, defaults):
    # each command's defaults, as its manifest records them
    out = tmp_path / "out"
    assert cli.main([command, "--lambda", "1", "--out", str(out)]) == 0
    assert read_json(out / "manifest.json")["options"] == dict(defaults, out=str(out))


@pytest.mark.parametrize("text, value", [
    ("-1e-05", -1e-05), ("-.5E+3", -500.0), ("-2.5e-1", -0.25), ("-2", -2.0), ("-.5", -0.5),
], ids=["exponent", "point-exponent", "signed-exponent", "integer", "point"])
def test_a_negative_number_in_exponent_form_is_a_value(text, value):
    # argparse's own rule takes only -2 and -.5 forms for a negative number,
    # and would read -1e-05 as a flag
    args = cli.build_parser().parse_args(["verify", "--lambda", text, "--tol-margin", text])
    assert args.lambdas == [value] and args.tol_margin == value


def test_sample_takes_a_negative_tilt_in_exponent_form(tmp_path):
    out = tmp_path / "s"
    assert cli.main(["sample", "--lambda", "-1e-05", "--y", "3", "--replicas", "4",
                     "--out", str(out)]) == 0
    assert read_json(out / "manifest.json")["options"]["lambdas"] == [-1e-05]


@pytest.mark.parametrize("edit, message", [
    ({"direction": "sideways"}, "--direction must be one of lower, upper, got 'sideways'"),
    ({"checks": ["bogus"]},
     "--check must be one of convexity, dominance, mean-bound, duality, got 'bogus'"),
], ids=["direction", "check"])
def test_a_manifest_value_outside_the_choices_exits_2_before_any_solve(tmp_path, capsys,
                                                                      monkeypatch, edit,
                                                                      message):
    assert cli.main(["verify", "--lambda", "1", "--y", "3", "--check", "dominance",
                     "--step", "0.01", "--out", str(tmp_path / "run")]) == 0
    manifest = read_json(tmp_path / "run" / "manifest.json")
    manifest["options"].update(edit)
    (tmp_path / "edited.json").write_text(json.dumps(manifest))
    calls = []
    real = engine.solve_h

    def spy(*a, **kwargs):
        calls.append(a)
        return real(*a, **kwargs)

    for module in (cli, engine, verify):
        monkeypatch.setattr(module, "solve_h", spy)
    before = _tree(tmp_path)
    capsys.readouterr()
    assert cli.main(["replay", str(tmp_path / "edited.json"), "--out", str(tmp_path / "again")]) == 2
    err = capsys.readouterr().err
    assert err == f"countbridge: error: {message}\n"
    assert calls == []
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("which", ["descriptor", "manifest"])
@pytest.mark.parametrize("content, reason", [
    (b"{\n", "Expecting property name enclosed in double quotes: line 2 column 1 (char 2)"),
    (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0"),
], ids=["not-json", "not-utf-8"])
def test_a_file_that_is_not_json_exits_2_naming_it(tmp_path, capsys, which, content, reason):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    out = tmp_path / "out"
    argv = (["marginals", "--model", str(bad), "--y", "3"] if which == "descriptor"
            else ["replay", str(bad)])
    assert cli.main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"countbridge: error: {bad} is not JSON: {reason}")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_an_untyped_error_is_not_taken_for_a_refusal(tmp_path, monkeypatch):
    # main prints a CountBridgeError or an OSError as one line and exits 2; any
    # other error is a defect, and goes through
    def broken(*args, **kwargs):
        raise ValueError("a defect")

    monkeypatch.setattr(verify.BridgeLaw, "table", broken)
    with pytest.raises(ValueError, match="a defect"):
        cli.main(["marginals", "--lambda", "1", "--y", "3", "--out", str(tmp_path / "out")])


POISSON = constant_characteristic_model(1.0)
_PHI, _U = verify.duality_catalog()[0]


@pytest.mark.parametrize("call", [
    lambda: model_from_dict([1, 2]),
    lambda: model_from_dict({"family": [1], "params": {}}),
    lambda: model_from_dict({"family": "exp_affine", "params": "ab"}),
    lambda: model_from_dict({"family": "nope", "params": {}}),
    lambda: model_from_dict(_edited(EXP_AFFINE, a=math.nan)),
    lambda: model_from_dict(_edited(EXP_AFFINE, lamda=5.0)),
    lambda: model_from_dict(dict(EXP_AFFINE, state_floor=0.5)),
    lambda: model_from_dict(_edited(TABULATED, rates=[[math.inf]])),
    lambda: ExpAffine(1.0, -1.0),
    lambda: Tabulated([0.0, 1.0], 0, [[1.0], [-1.0]]),
    lambda: BridgeSpec(3, 1),
    lambda: binomial_tail(-1, 0.5, 0),
    lambda: verify.lln_experiment(POISSON, 1.0, [5, 5], 3, 1),
    lambda: verify.dominance_check(POISSON, BridgeSpec(0, 3), 1.0, "sideways", table=None),
    lambda: verify.duality_check(POISSON, BridgeSpec(0, 0), _U, _PHI, None, None, paths=[]),
    lambda: sample_bridge(POISSON, BridgeSpec(0, 3), solve_h(POISSON, BridgeSpec(0, 2)), 2, 1),
    lambda: cli._json({"x": math.nan}),
], ids=["descriptor-list", "family-list", "params-string", "family-unknown", "param-nan",
        "param-misspelt", "floor-fractional", "rates-infinite", "b-negative", "rates-negative",
        "x-above-y", "binomial-n-negative", "lln-repeated-n", "dominance-direction",
        "duality-phi-too-long", "h-for-another-bridge", "json-nan"])
def test_a_refused_value_raises_a_typed_error_that_is_a_value_error(call):
    # main prints a CountBridgeError as one line and exits 2; BadParameter is a
    # ValueError too, for callers that catch one
    with pytest.raises(BadParameter) as exc:
        call()
    assert isinstance(exc.value, CountBridgeError) and isinstance(exc.value, ValueError)


# ---------------------------------------------------------------------------
# CLI fuzz: random flag sets over every command, then replays of manifests with
# one option edited

def _drawn_tabulated(seed):
    """A positive Tabulated model's descriptor, drawn from an rng seed as
    tests/test_intensity.py draws them."""
    rng = np.random.default_rng(seed)
    tg = np.cumsum(rng.uniform(0.05, 1.0, rng.integers(2, 12)))
    tg /= tg[-1]
    rates = np.exp(rng.normal(0.0, rng.uniform(0.1, 3.0), (tg.size, 5)))
    try:
        model = Tabulated(tg, 0, rates, np.gradient(rates, tg, axis=0) * rng.uniform(0.5, 3.0))
    except ValueError:
        model = Tabulated(tg, 0, rates, np.zeros_like(rates))
    return model.to_dict()


_REAL = st.floats(-3.0, 3.0)
_POSITIVE = st.floats(0.05, 3.0)
_MALFORMED = ["{", "null", "[1, 2]", '{"family": "nope", "params": {}}',
              '{"family": "exp_affine", "params": {"a": 1.0}}',
              '{"family": "tabulated", "params": {"t_grid": [0, 1], "z_min": 0}}',
              *(text for text, _ in _KEY_FAULTS)]


@st.composite
def _descriptors(draw):
    """The text of a model descriptor: exp_affine, a legacy family, a drawn
    Tabulated model, or malformed JSON; and the first time the model covers."""
    family = draw(st.sampled_from(["exp_affine", "poisson", "space_linear",
                                   "time_exponential", "product", "tabulated", "malformed"]))
    if family == "malformed":
        return draw(st.sampled_from(_MALFORMED)), 0.0
    if family == "tabulated":
        descriptor = _drawn_tabulated(draw(st.integers(0, 2 ** 32 - 1)))
        return json.dumps(descriptor), descriptor["params"]["t_grid"][0]
    names = {"exp_affine": ["a", "b", "lambda"], "poisson": ["alpha"],
             "space_linear": ["lambda", "alpha"], "time_exponential": ["alpha", "lambda"],
             "product": ["alpha", "lambda", "beta"]}[family]
    params = {name: draw(_POSITIVE if name in ("a", "alpha") else st.floats(0.0, 1.0)
                         if name in ("b", "beta") else _REAL) for name in names}
    floor = draw(st.integers(0, 1))
    return json.dumps({"family": family, "params": params, "state_floor": floor}), 0.0


def _flag(draw, flag, values):
    """``[flag=value]`` or nothing, each half the time."""
    return [f"{flag}={draw(values)}"] if draw(st.booleans()) else []


@st.composite
def _fuzz_runs(draw):
    """argv (without --out) of a small run of any command, and the text of the
    model descriptor its --model names, if it has one."""
    command = draw(st.sampled_from(list(cli._RUNNERS)))
    descriptor, t0 = draw(st.just((None, 0.0)) | _descriptors())
    argv = [command] + (["--model", "MODEL"] if descriptor is not None else [])
    # mostly a --lambda count the command takes, at times any of 0 to 3
    most, least_with, most_with, _ = cli._LAMBDAS[command]
    low, high = (least_with, most_with) if descriptor is not None else (1, min(most, 3))
    count = draw(st.integers(low, high) if draw(st.integers(0, 4)) else st.integers(0, 3))
    for _ in range(count):  # as --lambda=v, or as two items: -1e-05 is a value too
        value = draw(_REAL)
        argv += [f"--lambda={value}"] if draw(st.booleans()) else ["--lambda", str(value)]
    if command != "lln":
        x = draw(st.integers(0, 3))
        argv += ["--x", str(x), "--y", str(x + draw(st.integers(0, 12)))]
        argv += _flag(draw, "--s", st.floats(t0, 0.6 + 0.4 * t0))
        argv += _flag(draw, "--u", st.floats(0.4, 1.0))
    if command == "characteristics":
        argv.append(f"--grid-step={draw(st.floats(1e-2, 0.2))}")
    else:  # 1e-2 is the largest step a solve takes
        argv.append(f"--step={draw(st.sampled_from([1e-2] * 7 + [2e-2]))}")
    if command in ("sample", "verify", "lln"):
        argv += ["--replicas", str(draw(st.integers(0, 50)))]
        argv += _flag(draw, "--seed", st.integers(0, 2 ** 40))
    if command == "mean-curve" and draw(st.booleans()):
        argv.append("--gnuplot")
    if command == "verify":
        checks = st.sampled_from(cli._CHECKS)
        for name in draw(st.lists(checks, max_size=3, unique=draw(st.integers(0, 4)) > 0)):
            argv += ["--check", name]
        argv += _flag(draw, "--direction", st.sampled_from(["lower", "upper"]))
        argv += ["--grid-csv"] if draw(st.booleans()) else []
        argv += _flag(draw, "--tol-margin", st.floats(0.0, 1e-3))
        argv += _flag(draw, "--tol-convexity", st.floats(0.0, 1e-3))
        argv += _flag(draw, "--z-max", st.floats(0.0, 5.0))
    if command == "lln":
        for _ in range(draw(st.integers(1, 3))):
            argv += ["--N", str(draw(st.integers(1, 12)))]
    return argv, descriptor


def _checked_run(argv, root, out):
    """main(argv) under the fuzz oracle: exit 0, 1 or 2 and no traceback; exit 2
    prints one error line and changes nothing under ``root``; exit 0 or 1
    changes only the files manifest.json lists, and leaves no temp file."""
    before = _tree(root)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    after = _tree(root)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert err.getvalue().startswith("countbridge: error:"), argv
        assert len(err.getvalue().splitlines()) == 1, argv
        assert after == before, argv
        return code, None
    manifest = json.loads((out / "manifest.json").read_text())
    written = {str((out / name).relative_to(root)) for name in manifest["outputs"]}
    written.add(str((out / "manifest.json").relative_to(root)))
    changed = {path for path, text in after.items() if before.get(path, b"") != text}
    assert changed - written <= {str(out.relative_to(root))}, argv
    assert written <= set(after), argv
    assert not [path for path in after if ".tmp_" in path], argv
    return code, manifest


def _replays_the_same(root, manifest, code, out):
    """Replay ``out``'s manifest under the oracle: the same exit code, options
    and outputs, byte for byte."""
    again = root / "again"
    assert _checked_run(["replay", str(out / "manifest.json"), "--out", str(again)],
                        root, again)[0] == code
    replayed = json.loads((again / "manifest.json").read_text())
    assert dict(replayed["options"], out=None) == dict(manifest["options"], out=None)
    for name in manifest["outputs"]:
        assert (again / name).read_bytes() == (out / name).read_bytes(), name


_OTHER_TYPES = st.sampled_from([None, True, False, "x", [1], 1.5, math.nan, math.inf])


@given(st.data())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_fuzz(data):
    # every run of every command, fresh or a replay of its manifest with one
    # option given a value of another JSON type, exits 0, 1 or 2 without a
    # traceback; exit 2 writes nothing, and an accepted run writes exactly the
    # files its manifest lists, which replay reproduces byte for byte
    argv, descriptor = data.draw(_fuzz_runs())
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        os.chdir(root)  # a manifest's --out edited to a relative path is made here
        try:
            (root / "MODEL").write_text(descriptor or "")
            out = root / "out"
            if data.draw(st.booleans()):  # an earlier run's files in --out
                out.mkdir()
                for name in ("manifest.json", "marginals.csv", "verify.json", "stale.txt"):
                    (out / name).write_text("old\n")
            code, manifest = _checked_run(argv + ["--out", str(out)], root, out)
            if manifest is None:
                return
            _replays_the_same(root, manifest, code, out)
            key = data.draw(st.sampled_from(sorted(manifest["options"])))
            manifest["options"][key] = value = data.draw(_OTHER_TYPES)
            (root / "edited.json").write_text(json.dumps(manifest))
            argv = ["replay", str(root / "edited.json")]
            if key == "out":  # the replay writes to the edited --out
                edited = root / str(value)
            else:
                edited = root / "edited"
                argv += ["--out", str(edited)]
            code, manifest = _checked_run(argv, root, edited)
            if manifest is not None:
                _replays_the_same(root, manifest, code, edited)
        finally:
            os.chdir(here)
