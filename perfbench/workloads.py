"""The benchmark's seeded workloads: job lists, the timed calls, output checks.

Each workload turns ``--seed`` into one round of jobs (plain data: model
descriptors, bridge heights, CLI argument lists) and the run repeats that
round a fixed number of times, ``round(seconds / ROUND_S)``, after running
its first ``LEAD`` jobs once; so every run of one seed does the same work
and the job-latency percentiles always sit on the same jobs.  ``ROUND_S`` is
about a round's length in reference seconds (see ``run.Clock``).  A job is
timed around its calls into countbridge only; its output is checked
afterwards against the tolerances the test suite pins, and a miss raises
:class:`Miss`.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import time

import numpy as np

from countbridge import cli, engine, sampler, verify
from countbridge.engine import BridgeSpec
from countbridge.intensity import model_from_dict

# Tolerances pinned by the test suite.
CLOSED_FORM_TOL = 1e-6   # acceptance criterion 1
ROUTE_TOL = 1e-8         # test_two_sided_route_agreement
DUALITY_Z = 4.0          # acceptance criterion 7

TILTS = (-5.0, -3.0, 0.0, 3.0, 5.0)


class Miss(Exception):
    """A job's output failed its check."""


def _rng(seed, salt):
    return np.random.default_rng([int(seed) & (2 ** 64 - 1), salt])


def binomial_pmf(n, p):
    """Binomial(n, p) probabilities of 0..n, one row per entry of ``p``.

    Computed in log space from ``math.lgamma`` so that the benchmark itself
    imports no scipy: the set-up probe loads this module, and ``setup_s``
    must see only the imports the package makes.
    """
    k = np.arange(n + 1, dtype=float)
    log_choose = np.array([math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                           for j in range(n + 1)])
    p = np.asarray(p, dtype=float)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        # 0 * log(0) is taken as 0, so p = 0 and p = 1 give point masses
        log_p = np.where(k > 0, k * np.log(p), 0.0)
        log_q = np.where(k < n, (n - k) * np.log1p(-p), 0.0)
    return np.exp(log_choose + log_p + log_q)


# Rate parameters are calibrated so that the unconditioned process expects
# c * n jumps on [0, 1] with c in [0.5, 2]: the pin asks for a typical
# outcome of the model, not an astronomically rare one.  This also keeps the
# start state's pin probability representable.  Past that point
# marginal_table returns a wrong table without raising (for instance
# TimeExponential(1, -3) at n = 200); these workloads do not exercise that
# defect.

def _time_integral(lam):
    return 1.0 if lam == 0.0 else math.expm1(lam) / lam


def _time_exponential(rng, n, lam):
    c = rng.uniform(0.5, 2.0)
    return {"family": "time_exponential",
            "params": {"alpha": c * n / _time_integral(lam), "lambda": lam}}


def _space_linear(rng, n):
    lam, c = rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.0)
    return {"family": "space_linear",
            "params": {"lambda": lam, "alpha": c * n * lam / math.expm1(lam)}}


def _product(rng, n):
    lam, beta, c = rng.uniform(-2.0, 3.0), rng.uniform(0.05, 0.5), rng.uniform(0.5, 2.0)
    alpha = math.log1p(beta * c * n) / (beta * _time_integral(lam))
    return {"family": "product", "params": {"alpha": alpha, "lambda": lam, "beta": beta}}


def _tabulated(rng, n):
    """Rates a * g(t) * (1 + kappa z) on an 11-node grid, exact nodal derivatives."""
    b, w = rng.uniform(-1.5, 1.5), rng.uniform(0.0, 0.3)
    phase, kappa, c = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.05, 0.3), rng.uniform(0.5, 2.0)
    fine = np.linspace(0.0, 1.0, 2001)
    g_int = float(np.trapezoid(np.exp(b * fine + w * np.sin(2.0 * math.pi * fine + phase)), fine))
    a = math.log1p(kappa * c * n) / (kappa * g_int)
    t = np.linspace(0.0, 1.0, 11)
    g = np.exp(b * t + w * np.sin(2.0 * math.pi * t + phase))
    dg = g * (b + 2.0 * math.pi * w * np.cos(2.0 * math.pi * t + phase))
    states = 1.0 + kappa * np.arange(n + 1)
    return {"family": "tabulated",
            "params": {"t_grid": t.tolist(), "z_min": 0,
                       "rates": (a * np.outer(g, states)).tolist(),
                       "rates_dt": (a * np.outer(dg, states)).tolist()}}


class MarginalsTall:
    """Exact marginal tables of tall bridges 0 -> n, n in 25..200."""

    name = "marginals-tall"
    ROUND_S = 2.5
    # The tallest bridge with the most graded mesh (time-exponential rates,
    # lam = -3) runs once, first, on a fresh heap: the process peak memory is
    # then that job's on every seed.  A round holds five heights, the centres
    # of five equal strata of [0, 1] mapped by p -> 25 * 8^(p^2) (most jobs
    # short, the last near 136).  Heights are the same for every seed, so
    # every round does the same engine work; the seed draws the models.  The
    # three tallest, which set the round time and the latency percentiles,
    # get the state-linear family, whose mesh does not depend on its
    # parameters.
    LEAD = 1
    JOBS = (("product", 26), ("time_exponential", 30), ("space_linear", 42),
            ("space_linear", 69), ("space_linear", 136))

    def __init__(self, seed):
        rng = _rng(seed, 1)
        self.jobs = [{"n": 200, "model": _time_exponential(rng, 200, -3.0)}]
        make = {"product": lambda n: _product(rng, n),
                "space_linear": lambda n: _space_linear(rng, n),
                "time_exponential": lambda n: _time_exponential(rng, n, rng.uniform(-3.0, -0.5))}
        self.jobs += [{"n": n, "model": make[family](n)} for family, n in self.JOBS]
        self.models = None

    def build(self, workdir=None):
        self.models = [model_from_dict(job["model"]) for job in self.jobs]

    def run(self, k, tracer):
        job, model = self.jobs[k], self.models[k]
        n = job["n"]
        spec = BridgeSpec(0, n)
        t0 = time.perf_counter()
        h = engine.solve_h(model, spec)
        one = engine.marginal_table(model, spec, h=h)
        two = engine.marginal_table_two_sided(model, spec, h=h)
        latency = time.perf_counter() - t0

        one.validate()
        two.validate()
        gap = float(np.max(np.abs(one.probs - two.probs)))
        if not gap <= ROUTE_TOL:
            raise Miss(f"n={n}: marginal routes differ by {gap:.3e} > {ROUTE_TOL:g}")
        params = job["model"]["params"]
        if job["model"]["family"] in ("space_linear", "time_exponential"):
            lam = params["lambda"]
            p = np.clip(np.expm1(lam * one.times) / math.expm1(lam), 0.0, 1.0)
            ref = binomial_pmf(n, p)
            err = float(np.max(np.abs(one.probs - ref)))
            if not err <= CLOSED_FORM_TOL:
                raise Miss(f"n={n}: closed-form error {err:.3e} > {CLOSED_FORM_TOL:g}")
        return latency


class PathsThinning:
    """Thinning-sampled short bridges, then the duality checks on those paths."""

    name = "paths-thinning"
    ROUND_S = 2.1
    LEAD = 0
    # Heights are the centres of five equal strata of 5..30, the same for
    # every seed; the seed draws the models and the sampler seeds.  The two
    # tallest are Tabulated and the slowest, so the tail percentile falls on
    # one of them and the median on the tallest Product job.
    JOBS = (("product", 7), ("product", 12), ("product", 17), ("tabulated", 22),
            ("tabulated", 27))
    COUNT = {"product": 2000, "tabulated": 200}
    MAKE = {"product": _product, "tabulated": _tabulated}

    def __init__(self, seed):
        rng = _rng(seed, 2)
        self.jobs = [{"n": n, "model": self.MAKE[family](rng, n), "count": self.COUNT[family],
                      "seed": int(rng.integers(2 ** 62))} for family, n in self.JOBS]
        self.models = None

    def build(self, workdir=None):
        self.models = [model_from_dict(job["model"]) for job in self.jobs]

    def run(self, k, tracer):
        job, model = self.jobs[k], self.models[k]
        n, count = job["n"], job["count"]
        spec = BridgeSpec(0, n)
        t0 = time.perf_counter()
        h = engine.solve_h(model, spec)
        paths = sampler.sample_bridge(model, spec, h, count, job["seed"])
        results = [verify.duality_check(model, spec, u, phi, None, None, paths=paths)
                   for phi, u in verify.duality_catalog()]
        latency = time.perf_counter() - t0

        if len(paths) != count:
            raise Miss(f"n={n}: {len(paths)} paths returned, {count} asked for")
        for r, path in enumerate(paths):
            times = path.jump_times
            if len(times) != n or not 0.0 < times[0] or not times[-1] < 1.0:
                raise Miss(f"n={n}: path {r} has {len(times)} jumps or leaves the window")
        for res in results:
            if not abs(res.z_score) <= DUALITY_Z:
                raise Miss(f"n={n}: duality {res.phi_name}/{res.u_name} z={res.z_score:.2f}")
        return latency


class CliPipeline:
    """In-process ``countbridge`` commands, each followed by its replay."""

    name = "cli-pipeline"
    ROUND_S = 3.75
    LEAD = 0

    def __init__(self, seed):
        rng = _rng(seed, 3)

        def tilt():
            return f"{rng.uniform(-5.0, 5.0):.3f}"

        def seed_arg():
            return str(int(rng.integers(2 ** 62)))

        self.descriptors = {"product": _product(rng, 20), "tabulated": _tabulated(rng, 20)}
        checks = ["--check", "convexity", "--check", "dominance",
                  "--check", "mean-bound", "--check", "duality"]
        # Heights are fixed; the seed draws tilts, sampler seeds, lln heights
        # and the descriptors.  verify takes one of the tilts 0, 3, 5: for
        # those the convexity check's fine mesh has one size, so the seed does
        # not move the cost of the slowest command.
        n_low = int(rng.integers(10, 26))
        commands = [
            ["mean-curve"] + [a for lam in TILTS for a in ("--lambda", f"{lam:g}")]
            + ["--y", "12"],
            ["marginals", "--model", "product", "--y", "20"],
            ["sample", "--lambda", tilt(), "--y", "20", "--replicas", "5000",
             "--seed", seed_arg()],
            ["verify", "--lambda", f"{TILTS[int(rng.integers(2, 5))]:g}",
             "--y", "5"] + checks
            + ["--replicas", "2000", "--seed", seed_arg()],
            ["lln", "--lambda", tilt(), "--N", str(n_low), "--N", str(4 * n_low),
             "--N", str(16 * n_low), "--replicas", "200", "--seed", seed_arg()],
            ["characteristics", "--model", "tabulated", "--y", "20"],
        ]
        self.jobs = []
        for argv in commands:
            self.jobs.append({"argv": argv})
            self.jobs.append({"replay": len(self.jobs) - 1})
        self.models = None
        self.workdir = None
        self._outs = {}

    def build(self, workdir=None):
        self.models = {k: model_from_dict(d) for k, d in self.descriptors.items()}
        if workdir is not None:
            self.workdir = workdir
            for k, d in self.descriptors.items():
                with open(os.path.join(workdir, f"{k}.json"), "w", encoding="utf-8") as fh:
                    json.dump(d, fh)

    def _argv(self, argv):
        out = list(argv)
        if "--model" in out:
            i = out.index("--model") + 1
            out[i] = os.path.join(self.workdir, f"{out[i]}.json")
        return out

    def run(self, k, tracer):
        job = self.jobs[k]
        out = os.path.join(self.workdir, f"job{k}")
        if "replay" in job:
            src = self._outs.pop(job["replay"])
            argv = ["replay", os.path.join(src, "manifest.json"), "--out", out]
        else:
            argv = self._argv(job["argv"]) + ["--out", out]
        t0 = time.perf_counter()
        with tracer.span(f"cli.{argv[0]}"):
            code = cli.main(argv)
        latency = time.perf_counter() - t0

        if tracer.active and os.path.isdir(out):
            tracer.counts["cli.bytes_written"] += sum(
                os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))
        if code != 0:
            raise Miss(f"{argv[0]} exited with {code}")
        if "replay" not in job:
            self._outs[k] = out
            return latency
        try:
            with open(os.path.join(src, "manifest.json"), encoding="utf-8") as fh:
                outputs = json.load(fh)["outputs"]
            for name in outputs:
                with open(os.path.join(src, name), "rb") as a, \
                        open(os.path.join(out, name), "rb") as b:
                    if a.read() != b.read():
                        raise Miss(f"replay of {name} is not byte-identical")
        finally:
            shutil.rmtree(src)
            shutil.rmtree(out)
        return latency


WORKLOADS = {w.name: w for w in (MarginalsTall, PathsThinning, CliPipeline)}
