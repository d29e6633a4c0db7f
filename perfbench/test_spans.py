"""Tests of the benchmark's own arithmetic: self times, the tail rule, import times,
the closed-form reference.

Run with: python3 -m pytest perfbench/test_spans.py
"""

import pathlib
import sys
import time

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import RssWatch, Tracer, instrument, self_times  # noqa: E402


def test_self_times_on_synthetic_tree():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9] > b1 [5, 6], b2 [7, 8.5];
    # second root [11, 12] with no children.
    parent = [-1, 0, 1, 0, 3, 3, -1]
    start = [0.0, 1.0, 2.0, 5.0, 5.0, 7.0, 11.0]
    end = [10.0, 4.0, 3.0, 9.0, 6.0, 8.5, 12.0]
    got = self_times(parent, start, end)
    assert got == pytest.approx([10 - 3 - 4, 3 - 1, 1, 4 - 1 - 1.5, 1, 1.5, 1])
    # self times partition each root's interval
    assert got[:6].sum() == pytest.approx(10.0)


def test_tracer_summary_nests_wrapped_calls():
    tracer = Tracer()

    def leaf(x):
        return x + 1

    leaf_t = tracer.wrap(leaf, "m.leaf")

    def outer(x):
        return leaf_t(leaf_t(x))

    outer_t = tracer.wrap(outer, "m.outer")
    assert outer_t(1) == 3 and len(tracer.start) == 0  # inactive: no spans
    tracer.active = True
    assert outer_t(1) == 3
    summary = tracer.summary()
    assert summary["m.outer"][0] == 1 and summary["m.leaf"][0] == 2
    assert list(tracer.parent) == [-1, 0, 0]
    calls, incl, own = summary["m.outer"]
    assert own == pytest.approx(incl - summary["m.leaf"][1])


def test_tail_keeps_ten_values_beyond():
    xs = list(range(1, 41))
    value, pct = run.tail(xs)
    assert value == 30 and pct == 75.0
    assert sum(x > value for x in xs) == 10
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


def test_import_times_attribute_nested_packages():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy.integrate._quad",
        "import time:        50 |        150 |   scipy.integrate",
        "import time:       200 |        200 |     scipy.stats._x",
        "import time:        10 |        360 |   scipy.stats",
        "import time:         5 |        515 | countbridge",
        "import time:        70 |         70 | scipy.integrate._late",
    ])
    got = run.import_times(stderr)
    assert got["countbridge"] == pytest.approx(515e-6)
    assert got["scipy.stats"] == pytest.approx(360e-6)
    assert got["scipy.integrate"] == pytest.approx((150 + 70) * 1e-6)
    assert got["scipy.interpolate"] == 0.0
    assert np.isfinite(list(got.values())).all()


def test_binomial_pmf_matches_hand_values():
    got = workloads.binomial_pmf(2, [0.0, 0.5, 1.0, 0.3])
    assert got[0] == pytest.approx([1.0, 0.0, 0.0])
    assert got[1] == pytest.approx([0.25, 0.5, 0.25])
    assert got[2] == pytest.approx([0.0, 0.0, 1.0])
    assert got[3] == pytest.approx([0.49, 0.42, 0.09])
    assert workloads.binomial_pmf(200, [0.37]).sum() == pytest.approx(1.0)


def test_tracer_reset_drops_spans_and_counts():
    tracer = Tracer()
    leaf_t = tracer.wrap(lambda x: x, "m.leaf")
    tracer.active = True
    leaf_t(1)
    tracer.counts["c"] += 1
    tracer.solve_peaks.append(5)
    tracer.reset()
    assert tracer.summary() == {} and not tracer.counts and tracer.solve_peaks == [5]
    leaf_t(2)
    assert tracer.summary()["m.leaf"][0] == 1 and list(tracer.parent) == [-1]


def test_rss_watch_sees_a_large_allocation():
    watch = RssWatch()
    try:
        peaks = []
        with watch.interval(peaks):
            block = np.ones(40_000_000 // 8)
            time.sleep(0.05)  # held across several sampling periods, then freed
            del block
        assert peaks[0] >= 30e6
    finally:
        watch.close()


def test_instrument_wraps_every_binding_and_nests_layers():
    import countbridge
    from countbridge import cli, engine, verify
    from countbridge.engine import BridgeSpec
    from countbridge.intensity import Poisson

    tracer = Tracer()
    instrument(tracer)
    try:
        assert verify.solve_h is engine.solve_h is cli.solve_h is countbridge.solve_h
        tracer.active = True
        verify.mean_bound_check(Poisson(1.0), BridgeSpec(0, 2), 0.0)
        tracer.active = False
        names = [tracer.names[i] for i in tracer.name_id]
        chain = ["verify.mean_bound_check", "engine.marginal_table", "engine.solve_h"]
        idx = [names.index(n) for n in chain]
        assert tracer.parent[idx[1]] == idx[0] and tracer.parent[idx[2]] == idx[1]
        assert tracer.counts["engine.solve_h.mesh_nodes"] > 0
    finally:
        tracer.rss.close()
