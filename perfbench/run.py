"""countbridge benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload marginals-tall --seed 1 --seconds 30 --trace 0

Runs from a source checkout (the package is imported from ``src/``), in one
process and one thread.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones; the last line of standard output is the
result object.  The workloads, metrics and the layer -> end-to-end map are
described in perfbench/README.md.
"""

import argparse
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# Every native thread pool is held to one thread (nproc >= 1); this has to be
# in the environment before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"

SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
TAIL_BEYOND = 10
# Duration of reference_kernel() at the reference speed (README: "Times").
REF_KERNEL_S = 0.002
# Duration of the reference import (setup_probe.py --reference) at that speed:
# REF_KERNEL_S times the median ratio of the two over 30 alternating runs.
REF_IMPORT_S = 0.094

IMPORT_LAYERS = {
    "countbridge": "setup.import.countbridge_s",
    "scipy.stats": "setup.import.scipy_stats_s",
    "scipy.interpolate": "setup.import.scipy_interpolate_s",
    "scipy.integrate": "setup.import.scipy_integrate_s",
}
CALLS = ("engine.solve_h", "sampler.sample_bridge", "intensity.rate", "intensity.rate_grid",
         "intensity.characteristic", "analytic.binomial_tail")
SELF = ("engine.solve_h", "engine.marginal_table", "engine.marginal_table_two_sided",
        "sampler.sample_bridge", "sampler.sample_constant", "sampler.jump_time_matrix",
        "intensity.rate", "intensity.rate_grid", "intensity.characteristic",
        "intensity.characteristic_bounds", "analytic.binomial_tail",
        "verify.convexity_check", "verify.dominance_check", "verify.mean_bound_check",
        "verify.duality_check", "verify.lln_experiment",
        "cli.mean-curve", "cli.marginals", "cli.sample", "cli.verify", "cli.lln",
        "cli.characteristics", "cli.replay")
COUNTS = {
    "engine.solve_h.repeat_calls": "count",
    "engine.solve_h.mesh_nodes": "count",
    "engine.solve_h.state_steps": "count",
    "engine.solve_h.log_h_bytes": "bytes",
    "sampler.sample_bridge.jumps": "count",
    "sampler.thinning.proposals": "count",
    "sampler.thinning.accepts": "count",
    "sampler.thinning.breaches": "count",
    "sampler.sample_constant.paths": "count",
    "cli.bytes_written": "bytes",
}

_KERNEL_V = np.linspace(0.0, 1.0, 64)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["marginals-tall", "paths-thinning", "cli-pipeline"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def reference_kernel():
    """Seconds for a fixed mix of bytecode and small numpy calls (median of 3).

    The workloads spend their time in the same mix, so the kernel slows down
    with them when the machine's speed swings.
    """
    def once():
        t0 = time.perf_counter()
        acc = 0.0
        for j in range(10000):
            acc += j * 0.5
        w = _KERNEL_V
        for _ in range(1000):
            w = np.exp(-w) * 0.5 + _KERNEL_V
        return time.perf_counter() - t0

    return statistics.median(once() for _ in range(3))


class Clock:
    """Converts measured seconds into reference seconds.

    The reference kernel runs after every timed block, so each block has a
    kernel time on either side; their mean is the speed the block ran at, and
    the block's reference seconds are measured x REF_KERNEL_S / that mean.
    """

    def __init__(self):
        self.kernels = [reference_kernel()]
        self.measured = 0.0

    def scale(self, seconds):
        """Reference seconds of a block that took ``seconds`` and has just ended."""
        before = self.kernels[-1]
        self.kernels.append(reference_kernel())
        self.measured += seconds
        return seconds * REF_KERNEL_S / (0.5 * (before + self.kernels[-1]))

    def factor(self):
        """Run-wide reference/measured speed ratio."""
        return REF_KERNEL_S / statistics.median(self.kernels)


def tail(latencies):
    """Highest percentile of ``latencies`` with at least TAIL_BEYOND values above it.

    Returns (value, percentile); with too few jobs it falls back to the maximum.
    """
    xs = sorted(latencies)
    j = len(xs) - 1 - TAIL_BEYOND
    if j < 0:
        return xs[-1], 100.0
    return xs[j], 100.0 * (j + 1) / len(xs)


def probe(*args):
    """(stderr, seconds) of one setup_probe.py run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=os.environ.copy(),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr[-2000:]}")
    return proc.stderr, float(proc.stdout.split()[-1])


def setups(workload, seed, runs, flags=()):
    """[(stderr, reference seconds, speed ratio)] of ``runs`` set-ups.

    Each set-up runs in a fresh interpreter and times itself from just before
    ``import countbridge`` to the end of the build.  The reference import
    (``setup_probe.py --reference``) runs before and after every set-up; the
    set-up's seconds are scaled by REF_IMPORT_S over the mean of the two.
    Imports track the machine's speed swings far better than the bytecode
    kernel of :class:`Clock` does.
    """
    script = str(HERE / "setup_probe.py")
    refs = [probe(script, "--reference")[1]]
    out = []
    for _ in range(runs):
        stderr, seconds = probe(*flags, script, workload, str(seed))
        refs.append(probe(script, "--reference")[1])
        ratio = REF_IMPORT_S / (0.5 * (refs[-2] + refs[-1]))
        out.append((stderr, seconds * ratio, ratio))
    return out


def import_times(stderr):
    """Seconds spent importing each package of IMPORT_LAYERS, from ``-X importtime``.

    A package's time is the cumulative time of its modules' lines that have no
    ancestor line in the same package.  Summing over those lines, rather than
    reading the package's own line, also covers a package whose submodules are
    imported before (or without) the package line.
    """
    lines = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and line.startswith("import time:") and parts[1].strip().isdigit():
            label = parts[2].rstrip()
            name = label.strip()
            lines.append((len(label) - len(name), name, int(parts[1]) * 1e-6))
    out = dict.fromkeys(IMPORT_LAYERS, 0.0)
    ancestors = []
    # importtime prints a module after its children; reversed, parents come first.
    for depth, name, cumulative in reversed(lines):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        for pkg in IMPORT_LAYERS:
            inside = name == pkg or name.startswith(pkg + ".")
            if inside and not any(a == pkg or a.startswith(pkg + ".") for _, a in ancestors):
                out[pkg] += cumulative
        ancestors.append((depth, name))
    return out


def run_rounds(wl, tracer, clock, seconds, trace):
    """Run the lead jobs once, then the round of jobs ``round(seconds / wl.ROUND_S)`` times.

    In a traced run the rounds alternate untraced/traced in the pattern
    U T T U, so the first-round warm-up does not land on one side only.  The
    lead jobs run traced too, so ``engine.solve_h.peak_mb`` covers the
    tallest solve, but their spans and counters are dropped before the rounds.
    """
    res = {"latencies": [], "plain": [], "traced": [], "attempted": 0, "failed": 0}

    def run_job(k, job_id):
        tracer.job = job_id
        res["attempted"] += 1
        try:
            latency = clock.scale(wl.run(k, tracer))
        except Exception as exc:  # a failing job is counted, the run goes on
            res["failed"] += 1
            print(f"perfbench: job {job_id}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 0.0
        res["latencies"].append(latency)
        return latency

    tracer.active = trace
    for k in range(wl.LEAD):
        run_job(k, k)
    tracer.active = False
    tracer.reset()
    rounds = max(2 if trace else 1, round(seconds / wl.ROUND_S))
    for r in range(rounds):
        traced = trace and r % 4 in (1, 2)
        tracer.active = traced
        busy = sum(run_job(k, len(wl.jobs) * (r + 1) + k) for k in range(wl.LEAD, len(wl.jobs)))
        tracer.active = False
        res["traced" if traced else "plain"].append(busy)
    return res


def end_to_end(res, setup_s, clock):
    value, pct = tail(res["latencies"])
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (sum(res["latencies"]), "s"),
        "job_p50_s": (statistics.median(res["latencies"]), "s"),
        "job_tail_s": (value, "s"),
        "peak_mem_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        "ok_frac": (1.0 - res["failed"] / res["attempted"], "ratio"),
    }
    detail = {"rounds_s": res["plain"], "jobs": len(res["latencies"]),
              "job_tail_percentile": round(pct, 2), "setup_runs_s": setup_s,
              "measured_s": clock.measured, "speed_factor": clock.factor()}
    return metrics, detail


def per_layer(res, tracer, imports, factor):
    """Per-traced-round layer figures; span times scaled by the run's speed factor."""
    n = len(res["traced"])
    summary = tracer.summary()

    def stat(name, k):
        return summary.get(name, (0, 0.0, 0.0))[k]

    metrics = {}
    for name in CALLS:
        metrics[f"{name}.calls"] = (stat(name, 0) / n, "count")
    for name in SELF:
        metrics[f"{name}.self_s"] = (factor * stat(name, 2) / n, "s")
    for name, unit in COUNTS.items():
        metrics[name] = (tracer.counts[name] / n, unit)
    c = tracer.counts
    metrics["sampler.thinning.acceptance"] = (
        c["sampler.thinning.accepts"] / c["sampler.thinning.proposals"]
        if c["sampler.thinning.proposals"] else 0.0, "ratio")
    metrics["sampler.sample_bridge.us_per_jump"] = (
        factor * 1e6 * stat("sampler.sample_bridge", 1) / c["sampler.sample_bridge.jumps"]
        if c["sampler.sample_bridge.jumps"] else 0.0, "us")
    metrics["sampler.sample_constant.us_per_path"] = (
        factor * 1e6 * stat("sampler.sample_constant", 1) / c["sampler.sample_constant.paths"]
        if c["sampler.sample_constant.paths"] else 0.0, "us")
    metrics["engine.solve_h.peak_mb"] = (max(tracer.solve_peaks, default=0) / 1e6, "MB")
    metrics["trace.overhead_s"] = (
        statistics.median(res["traced"]) - statistics.median(res["plain"]), "s")
    for module, name in IMPORT_LAYERS.items():
        metrics[name] = (statistics.median(t[module] for t in imports), "s")
    detail = {"traced_rounds": n, "plain_rounds": len(res["plain"]),
              "spans": len(tracer.start), "speed_factor": factor}
    return metrics, detail


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "countbridge" / "__init__.py").is_file():
        print(f"perfbench: no countbridge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import countbridge
    if pathlib.Path(countbridge.__file__).resolve().parent != SRC / "countbridge":
        print(f"perfbench: imported countbridge from {countbridge.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        # importtime reports measured seconds; each probe's speed ratio scales them
        imports = [{k: v * ratio for k, v in import_times(stderr).items()}
                   for stderr, _, ratio in setups(args.workload, args.seed, IMPORTTIME_RUNS,
                                                  ("-X", "importtime"))]
    else:
        setup_s = [s for _, s, _ in setups(args.workload, args.seed, SETUP_RUNS)]
    clock = Clock()

    tracer = spans.Tracer()
    WORKDIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR)
    try:
        wl.build(workdir)
        if args.trace:
            spans.instrument(tracer)
        res = run_rounds(wl, tracer, clock, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()  # only when no other run is using it
        except OSError:
            pass
        if tracer.rss is not None:
            tracer.rss.close()

    if args.trace:
        metrics, detail = per_layer(res, tracer, imports, clock.factor())
    else:
        metrics, detail = end_to_end(res, setup_s, clock)
    detail.update(workload=args.workload, seed=args.seed, attempted=res["attempted"],
                  failed=res["failed"])
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
