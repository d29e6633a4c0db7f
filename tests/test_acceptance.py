"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass.  Tolerances are pinned here, not configurable.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.stats import binom, ks_2samp

from countbridge.analytic import tilted_cdf
from countbridge.engine import BridgeSpec, marginal_table, solve_h
from countbridge.intensity import Poisson, constant_characteristic_model
from countbridge.sampler import sample_bridge, sample_constant
from countbridge.verify import (convexity_check, dominance_check, duality_catalog,
                                duality_check, lln_experiment, mean_bound_check)
from oracles import (Product, SpaceLinear, characteristic_integrals, grid_index,
                     simplex_jump_time_cdf)


def _report(num, name, detail):
    print(f"ACCEPTANCE {num} {name}: PASS ({detail})")


def test_criterion_1_closed_form_equivalence():
    t0 = time.monotonic()
    worst = 0.0
    grid = np.linspace(0.0, 1.0, 101)
    for lam in (-5.0, -3.0, 0.0, 3.0, 5.0):
        model = constant_characteristic_model(lam)
        for y in (1, 5, 20):
            table = marginal_table(model, BridgeSpec(0, y), 1e-3)
            idx = [grid_index(table, t) for t in grid]
            probs = table.probs[idx]
            exact = np.array([binom.pmf(np.arange(y + 1), y, tilted_cdf(lam, t))
                              for t in grid])
            worst = max(worst, float(np.max(np.abs(probs - exact))))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-6
    assert elapsed <= 5.0
    _report(1, "closed-form equivalence", f"max abs err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_quadrature_triangle():
    t0 = time.monotonic()
    models = [Poisson(1.0), SpaceLinear(3.0, 1.0), Product(1.0, 3.0, 0.1)]
    worst = 0.0
    for model in models:
        for n in (1, 2, 3, 4):
            spec = BridgeSpec(0, n)
            pot = characteristic_integrals(model, spec)
            table = marginal_table(model, spec, 1e-3)
            tails = table.tail_matrix()
            for t in np.linspace(1.0 / 6.0, 5.0 / 6.0, 5):
                idx = grid_index(table, round(t, 3), tol=1e-12)
                for i in range(1, n + 1):
                    quad = simplex_jump_time_cdf(pot, table.times[idx], i)
                    worst = max(worst, abs(quad - float(tails[idx, i])))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-5
    assert elapsed <= 60.0
    _report(2, "quadrature triangle", f"max |quad - engine| {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_dominance_sharpness():
    worst = 0.0
    for lam in (-5.0, -3.0, 0.0, 3.0, 5.0):
        model = constant_characteristic_model(lam)
        for y in (5, 20):
            spec = BridgeSpec(0, y)
            rep = dominance_check(model, spec, lam, table=marginal_table(model, spec))
            worst = max(worst, max(abs(r[4]) for r in rep.rows))
            assert rep.passed
    assert worst <= 1e-6
    _report(3, "dominance sharpness on benchmark families", f"worst |margin| {worst:.2e}")


def test_criterion_4_dominance_strict_and_falsified():
    t0 = time.monotonic()
    model = Product(1.0, 3.0, 0.1)
    margins = {}
    tables = {y: marginal_table(model, BridgeSpec(0, y)) for y in (5, 20)}
    for y, table in tables.items():
        rep = dominance_check(model, BridgeSpec(0, y), 3.0, direction="lower", table=table)
        assert rep.passed and rep.worst_margin > 0.0 and rep.hypothesis_holds
        margins[y] = rep.worst_margin
    bad = dominance_check(model, BridgeSpec(0, 5), 4.0, direction="lower", table=tables[5])
    assert (not bad.passed) and bad.worst_margin < 0.0
    elapsed = time.monotonic() - t0
    assert elapsed <= 10.0
    _report(4, "dominance strict instance + falsification",
            f"margins {margins[5]:.2e}/{margins[20]:.2e}, lam=4 fails "
            f"({bad.worst_margin:.2e}), {elapsed:.2f}s")


def test_criterion_5_convexity_verdicts():
    spec = BridgeSpec(0, 20)
    claims = {}
    for lam in (3.0, 5.0):
        rep = convexity_check(constant_characteristic_model(lam), spec)
        assert rep.claim == "convex" and rep.passed
        claims[lam] = rep.claim
    for lam in (-5.0, -3.0):
        rep = convexity_check(constant_characteristic_model(lam), spec)
        assert rep.claim == "concave" and rep.passed
        claims[lam] = rep.claim
    rep0 = convexity_check(Poisson(1.0), spec)
    assert rep0.claim == "linear" and rep0.passed and rep0.worst_violation <= 1e-8
    _report(5, "mean-curve convexity verdicts",
            f"convex/concave as claimed, |d2|={rep0.worst_violation:.2e} at lam=0")


def test_criterion_6_mean_bound():
    strict = mean_bound_check(Product(1.0, 3.0, 0.1), BridgeSpec(0, 20), 3.0)
    assert strict.passed and strict.worst_margin >= 0.0
    interior = [b - m for (t, m, b) in strict.rows if 0.0 < t < 1.0]
    assert min(interior) > 0.0  # endpoints tie exactly; inside, the bound is strict
    eq = mean_bound_check(SpaceLinear(3.0, 1.0), BridgeSpec(0, 20), 3.0)
    assert eq.passed and abs(eq.worst_margin) <= 1e-6
    _report(6, "mean-value bound", f"interior slack >= {min(interior):.2e}, "
            f"benchmark equality within {abs(eq.worst_margin):.2e}")


def test_criterion_7_duality():
    t0 = time.monotonic()
    spec = BridgeSpec(0, 5)
    worst_z = 0.0
    for model in (Poisson(1.0), SpaceLinear(3.0, 1.0)):
        h = solve_h(model, spec, 1e-3)
        for seed in (101, 202, 303):
            paths = sample_bridge(model, spec, h, 100000, seed)
            for phi, u in duality_catalog():
                res = duality_check(model, spec, u, phi, None, None, paths=paths)
                assert abs(res.z_score) <= 4.0, (model.family, seed, phi.name, res.z_score)
                worst_z = max(worst_z, abs(res.z_score))
    elapsed = time.monotonic() - t0
    assert elapsed <= 120.0
    _report(7, "duality identity", f"worst |z| {worst_z:.2f} over 2 models x 3 seeds x 5 pairs, "
            f"{elapsed:.1f}s")


def test_criterion_8_sampler_vs_analytic():
    spec = BridgeSpec(0, 5)
    count = 100000
    T = sample_constant(constant_characteristic_model(3.0), spec, count, 20240101).times
    p = tilted_cdf(3.0, 0.5)
    exact = 1.0 - (1.0 - p) ** 5
    emp = float(np.mean(T[:, 0] <= 0.5))
    band = 3.0 * math.sqrt(exact * (1.0 - exact) / count)
    assert abs(emp - exact) <= band

    model = SpaceLinear(3.0, 1.0)
    h = solve_h(model, spec, 1e-3)
    tb = sample_bridge(model, spec, h, 10000, 555).times
    tc = sample_constant(constant_characteristic_model(3.0), spec, 10000, 556).times
    crit = 1.6276 * math.sqrt(2.0 / 10000)
    worst_ks = 0.0
    for i in range(5):
        stat = ks_2samp(tb[:, i], tc[:, i]).statistic
        worst_ks = max(worst_ks, stat)
        assert stat < crit
    _report(8, "sampler vs analytic", f"|emp-exact| {abs(emp - exact):.2e} <= {band:.2e}; "
            f"worst KS {worst_ks:.4f} < {crit:.4f}")


def test_criterion_9_lln():
    t0 = time.monotonic()
    rep0 = lln_experiment(Poisson(1.0), 0.0, [50, 200, 800], 200, 12345)
    for big_n, med in zip(rep0.n_values, rep0.medians):
        ref = 0.83 / math.sqrt(big_n)
        assert abs(med - ref) <= 0.15 * ref, (big_n, med, ref)
    rep3 = lln_experiment(SpaceLinear(3.0, 1.0), 3.0, [50, 200, 800], 200, 999)
    assert rep3.medians[0] > rep3.medians[1] > rep3.medians[2]
    assert rep3.q90s[-1] < 0.05
    elapsed = time.monotonic() - t0
    assert elapsed <= 180.0
    _report(9, "height-rescaled concentration",
            f"lam=0 medians {['%.4f' % m for m in rep0.medians]}, "
            f"lam=3 q90(800)={rep3.q90s[-1]:.4f}, {elapsed:.1f}s")


def test_criterion_10_figure_outputs(tmp_path):
    # five mean curves, pointwise strictly decreasing in the tilt
    curves = {}
    for lam in (-5.0, -3.0, 0.0, 3.0, 5.0):
        out = tmp_path / f"mc{lam:g}"
        r = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "countbridge",
                            "mean-curve", "--lambda", f"{lam:g}", "--x", "0", "--y", "20",
                            "--out", str(out)], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        rows = (out / "mean_curve.csv").read_text().strip().splitlines()[1:]
        curves[lam] = np.array([[float(c) for c in (row.split(",")[0], row.split(",")[1])]
                                for row in rows])
    lams = sorted(curves)
    interior = slice(1, -1)
    for lo, hi in zip(lams, lams[1:]):
        assert np.all(curves[lo][interior, 1] > curves[hi][interior, 1]), (lo, hi)

    out = tmp_path / "sample3"
    r = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "countbridge",
                        "sample", "--lambda", "3", "--x", "0", "--y", "20", "--replicas", "10000",
                        "--seed", "20240501", "--out", str(out)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    med = json.loads((out / "summary.json").read_text())["median_jump_time"]
    assert abs(med - 0.7765) <= 0.01
    true_median = math.log((math.exp(3.0) + 1.0) / 2.0) / 3.0
    assert abs(med - true_median) <= 0.005
    # lazy bridge: jumps pile up late
    times = np.array([float(line.split(",")[2]) for line in
                      (out / "paths.csv").read_text().strip().splitlines()[1:]])
    late = float(np.mean(times > 0.75))
    assert late >= 0.5
    _report(10, "figure reproduction", f"five curves ordered; median jump {med:.4f} "
            f"(band 0.7765 +/- 0.01); {100 * late:.1f}% of jumps after t=0.75")
