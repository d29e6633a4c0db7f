import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from countbridge import cli, engine, verify
from countbridge.engine import BridgeSpec, solve_h
from countbridge.intensity import model_from_dict
from countbridge.sampler import jump_time_matrix, sample_bridge, sample_constant

PKG = [sys.executable, "-m", "countbridge"]


def run_cli(*args, cwd=None):
    return subprocess.run(PKG + list(args), capture_output=True, text=True, cwd=cwd)


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
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["count"] == 500 and summary["n_jumps"] == 5
    out2 = tmp_path / "s2"
    r = run_cli("replay", str(out1 / "manifest.json"), "--out", str(out2))
    assert r.returncode == 0, r.stderr
    for name in ("paths.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


PRODUCT = {"family": "product", "params": {"alpha": 1.0, "lambda": 3.0, "beta": 0.1},
           "state_floor": 0}


@pytest.mark.parametrize("sampler", ["constant", "model"])
def test_sample_writes_the_sampler_matrix(tmp_path, sampler):
    # paths.csv is the header plus one line per jump of the sampler call's matrix
    if sampler == "constant":
        args = ["--lambda", "2.5", "--y", "7", "--replicas", "3", "--seed", "99"]
        times = jump_time_matrix(sample_constant(2.5, BridgeSpec(0, 7), 3, 99))
    else:
        mpath = tmp_path / "model.json"
        mpath.write_text(json.dumps(PRODUCT))
        args = ["--model", str(mpath), "--y", "6", "--replicas", "4", "--seed", "2024"]
        model, spec = model_from_dict(PRODUCT), BridgeSpec(0, 6)
        times = jump_time_matrix(sample_bridge(model, spec, solve_h(model, spec, 1e-3), 4, 2024))
    out = tmp_path / "s"
    assert cli.main(["sample"] + args + ["--out", str(out)]) == 0
    want = "replica,jump_index,time\n" + "".join(
        f"{r},{j},{format(t, '.17g')}\n"
        for r, row in enumerate(times.tolist()) for j, t in enumerate(row, start=1))
    assert (out / "paths.csv").read_text() == want
    assert cli.main(["replay", str(out / "manifest.json"), "--out", str(tmp_path / "r")]) == 0
    assert (tmp_path / "r" / "paths.csv").read_bytes() == (out / "paths.csv").read_bytes()


def test_sample_thinning_from_model(tmp_path):
    model = {"family": "product", "params": {"alpha": 1.0, "lambda": 3.0, "beta": 0.1},
             "state_floor": 0}
    mpath = tmp_path / "model.json"
    mpath.write_text(json.dumps(model))
    out = tmp_path / "st"
    r = run_cli("sample", "--model", str(mpath), "--x", "0", "--y", "3",
                "--replicas", "200", "--seed", "7", "--out", str(out))
    assert r.returncode == 0, r.stderr
    summary = json.loads((out / "summary.json").read_text())
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
    payload = json.loads((tmp_path / "v0" / "verify.json").read_text())
    assert payload["all_pass"] and len(payload["checks"]) == 3

    bad = run_cli("verify", "--model", str(mpath), "--lambda", "4", "--x", "0", "--y", "5",
                  "--check", "dominance", "--out", str(tmp_path / "v1"))
    assert bad.returncode == 1
    payload = json.loads((tmp_path / "v1" / "verify.json").read_text())
    assert not payload["all_pass"]

    broken = run_cli("verify", "--model", str(tmp_path / "missing.json"), "--lambda", "3",
                     "--out", str(tmp_path / "v2"))
    assert broken.returncode == 2
    assert "error" in broken.stderr

    usage = run_cli("nonsense")
    assert usage.returncode == 2


def test_underflowed_start_state_exits_2(tmp_path):
    # 200 jumps under rate 1 at h_step 1e-2: the start state's log h (-864.2) is
    # exact, but the pinned route's mass drifts by 1.2e-6, over the 1e-6 allowed
    out = tmp_path / "uf"
    r = run_cli("marginals", "--lambda", "0", "--x", "0", "--y", "200", "--step", "1e-2",
                "--out", str(out))
    assert r.returncode == 2
    assert "mass drift 1.207e-06 exceeds" in r.stderr
    assert not (out / "marginals.csv").exists()


def test_sample_from_an_underflowed_start_state_exits_2(tmp_path):
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
    model = {"family": "product", "params": {"alpha": 1.0, "lambda": 3.0, "beta": 0.1},
             "state_floor": 0}
    mpath = tmp_path / "model.json"
    mpath.write_text(json.dumps(model))
    out = tmp_path / "cap"
    r = run_cli("marginals", "--model", str(mpath), "--y", "3000", "--out", str(out))
    assert r.returncode == 2
    assert "GiB" in r.stderr
    assert not (out / "marginals.csv").exists()


def test_verify_solves_h_only_for_the_checks_that_read_it(tmp_path, monkeypatch):
    calls = []
    real = engine.solve_h

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (cli, engine, verify):
        monkeypatch.setattr(module, "solve_h", spy)
    code = cli.main(["verify", "--lambda", "3", "--y", "5", "--check", "convexity",
                     "--out", str(tmp_path / "v")])
    assert code == 0
    assert len(calls) == 1  # the convexity check's own fine-mesh solve


def test_lln_command(tmp_path):
    out = tmp_path / "lln"
    r = run_cli("lln", "--lambda", "0", "--N", "50", "--N", "200", "--replicas", "80",
                "--seed", "4", "--out", str(out))
    assert r.returncode == 0, r.stderr
    rep = json.loads((out / "lln.json").read_text())
    assert rep["medians_non_increasing"]
    assert rep["inputs"]["strategy"] == "exact-order-statistics"


def test_manifest_echoes_defaults(tmp_path):
    out = tmp_path / "m"
    r = run_cli("marginals", "--lambda", "0", "--x", "0", "--y", "2", "--out", str(out))
    assert r.returncode == 0
    manifest = json.loads((out / "manifest.json").read_text())
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
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_package_imports_no_scipy(tmp_path):
    # scipy costs about 1 s to import; the package needs it only in binomial_tail
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    r = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path / "run")],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
