"""Two rules every bridge keeps, with numpy alone: one rule reads its window, wherever
a window is given, and the bridge depends on its start x only through its rates, so a
run seen from x = 2^40 writes what the run from x = 0 writes, but for the states
themselves.  This file imports no scipy, so the numpy-only CI job runs it."""

import json
import math
import re

import numpy as np
import pytest

from countbridge import cli
from countbridge.analytic import tilted_cdf_window
from countbridge.engine import BridgeSpec
from countbridge.errors import BadParameter, BadWindow
from countbridge.intensity import ExpAffine, Tabulated

SHIFT = 2 ** 40


def _tabulated(z_min):
    """Rates 1 + k / 8 in the state k above ``z_min``, constant in time: a
    characteristic of 1/8 throughout, so the mean bound at 1/8 is tight."""
    rates = np.tile(1.0 + np.arange(6.0) / 8.0, (3, 1))
    return Tabulated([0.0, 0.5, 1.0], z_min, rates, np.zeros_like(rates)).to_dict()


def _exp_affine(floor):
    """exp(t / 2) (a + b z) with b = 1/4, its a lowered by b ``floor``: the same rates,
    exactly, in the state k above the floor; a characteristic of 1/2 + e^(t / 2) / 4."""
    return ExpAffine(1.5 - 0.25 * floor, 0.25, 0.5, floor).to_dict()


def _run(tmp_path, name, descriptor, x, args):
    """The files of one CLI run on the bridge x -> x + 4 of ``descriptor``, and its
    exit code."""
    model = tmp_path / f"{name}-{x}.json"
    model.write_text(json.dumps(descriptor))
    out = tmp_path / f"{name}-{x}"
    code = cli.main(args + ["--model", str(model), "--x", str(x), "--y", str(x + 4),
                            "--out", str(out)])
    return code, out


def _rows(path):
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


@pytest.mark.parametrize("build, lam", [(_tabulated, "0.125"), (_exp_affine, "0.75")],
                         ids=["tabulated", "exp-affine"])
def test_a_bridge_depends_on_x_only_through_its_rates(tmp_path, build, lam):
    # the model raised with x by 2^40 has the same rates on the bridge's states; the
    # mean bound once read E[X_t] from x, and at x = 2^40 carried its rounding, one ulp
    # of 2^40 (2.4e-4): a tight bound then failed where the bridge from 0 passed
    checks = ["--check", "convexity", "--check", "dominance", "--check", "mean-bound",
              "--check", "duality"]
    verify = ["verify", "--lambda", lam, "--replicas", "400", "--seed", "7"] + checks
    reports = {}
    for x in (0, SHIFT):
        code, out = _run(tmp_path, "verify", build(x), x, verify)
        report = json.loads((out / "verify.json").read_text())
        for check in report["checks"]:
            check.pop("inputs")
        reports[x] = code, report
    assert reports[SHIFT] == reports[0]
    assert [c["check"] for c in reports[0][1]["checks"]][:3] == ["convexity", "dominance",
                                                                 "mean_bound"]

    tables = {}
    for x in (0, SHIFT):
        code, out = _run(tmp_path, "marginals", build(x), x, ["marginals"])
        rows = _rows(out / "marginals.csv")
        assert code == 0 and [int(z) for _, z, _ in rows] == [x + k for k in range(5)] * (
            len(rows) // 5)
        tables[x] = [(t, p) for t, _, p in rows]
    assert tables[SHIFT] == tables[0]

    paths = {}
    for x in (0, SHIFT):
        code, out = _run(tmp_path, "sample", build(x), x,
                         ["sample", "--replicas", "300", "--seed", "11"])
        assert code == 0
        paths[x] = (out / "paths.csv").read_bytes()
    assert paths[SHIFT] == paths[0]


_MODELS = [ExpAffine(1.0, 1.0, 0.5), Tabulated([0.0, 1.0], 0, np.ones((2, 3)))]


@pytest.mark.parametrize("read", [
    lambda s, u: BridgeSpec(0, 3, s, u),
    lambda s, u: tilted_cdf_window(1.0, s, u, []),
    lambda s, u: _MODELS[0].characteristic_bounds((s, u)),
    lambda s, u: _MODELS[1].characteristic_bounds((s, u)),
], ids=["bridge-spec", "tilted-cdf-window", "exp-affine-bounds", "tabulated-bounds"])
@pytest.mark.parametrize("s, u, error, message", [
    (True, 1.0, BadParameter, "s must be a finite real number, got True"),
    (0.0, "1", BadParameter, "u must be a finite real number, got '1'"),
    (None, 1.0, BadParameter, "s must be a finite real number, got None"),
    (math.nan, 1.0, BadWindow, "need 0 <= s < u <= 1, got [nan, 1.0]"),
    (0.0, math.inf, BadWindow, "need 0 <= s < u <= 1, got [0.0, inf]"),
    (0, 10 ** 400, BadWindow, "need 0 <= s < u <= 1, got [0, 1.00e+400]"),
    (-10 ** 400, 1.0, BadWindow, "need 0 <= s < u <= 1, got [-1.00e+400, 1.0]"),
    (0.6, 0.3, BadWindow, "need 0 <= s < u <= 1, got [0.6, 0.3]"),
    (np.float64(0.6), np.float64(0.3), BadWindow, "need 0 <= s < u <= 1, got [0.6, 0.3]"),
    (0.5, 0.5, BadWindow, "need 0 <= s < u <= 1, got [0.5, 0.5]"),
    (-1e-13, 1.0, BadWindow, "need 0 <= s < u <= 1, got [-1e-13, 1.0]"),
    (0.0, 1.0 + 1e-13, BadWindow, "need 0 <= s < u <= 1, got [0.0, 1.0000000000001]"),
], ids=["bool", "string", "none", "nan", "infinite", "int-past-floats", "int-below-floats",
        "reversed", "numpy-reversed", "empty", "below-0", "past-1"])
def test_every_window_is_read_by_one_rule(read, s, u, error, message):
    # an end that is no real number is named; any other window outside 0 <= s < u <= 1
    # quotes both ends.  The characteristic bounds once raised OutOfDomain for a
    # reversed window and a bare OverflowError for an int past the float range, and
    # they and the tilted CDF served windows up to 1e-12 outside [0, 1]
    with pytest.raises(error, match=re.escape(message)):
        read(s, u)
