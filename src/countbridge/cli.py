"""Command-line front end: model loading, experiments, CSV/JSON emission.

Every run writes a ``manifest.json`` echoing the fully resolved configuration
(defaults included, the model descriptor inlined), so ``countbridge replay
manifest.json`` reproduces the outputs byte for byte.  Floats are printed
with 17 significant digits; files are written atomically (temp + rename).

Exit codes: 0 all verdicts pass, 1 a check failed, 2 configuration or domain
error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .analytic import mean_upper_bound
from .engine import (BridgeSpec, marginal_table, mean_curve, second_differences,
                     solve_h)
from .errors import CountBridgeError
from .intensity import constant_characteristic_model, model_from_dict, model_from_json
from .sampler import jump_time_matrix, sample_bridge, sample_constant
from .verify import (convexity_check, dominance_check, duality_catalog,
                     duality_check, lln_experiment, mean_bound_check)


def _fmt(x):
    return format(float(x), ".17g")


def _write_atomic(path, text):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if c is None else (c if isinstance(c, str) else _fmt(c))
                              for c in row))
    _write_atomic(path, "\n".join(lines) + "\n")


def _write_json(path, obj):
    _write_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_manifest(out_dir, command, options, outputs):
    manifest = {
        "command": command,
        "options": options,
        "outputs": sorted(outputs),
        "package_version": __version__,
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _resolve_model(options):
    if options.get("model") is not None:
        return model_from_dict(options["model"])
    lams = options.get("lambdas") or ([options["lam"]] if options.get("lam") is not None else [])
    if len(lams) != 1:
        raise ValueError("need --model or exactly one --lambda to define the process")
    return constant_characteristic_model(float(lams[0]))


def _spec(options):
    return BridgeSpec(int(options["x"]), int(options["y"]),
                      float(options["s"]), float(options["u"]))


# ---------------------------------------------------------------------------
# runners (pure functions of the resolved options; replay calls them directly)

def _run_characteristics(options):
    model = _resolve_model(options)
    spec = _spec(options)
    step = float(options["grid_step"])
    ts = np.linspace(spec.s, spec.u, max(2, int(round(spec.length / step)) + 1))
    z_hi = max(spec.x, spec.y - 1)
    rows = []
    for z in range(spec.x, z_hi + 1):
        vals = np.asarray(model.characteristic(ts, z), dtype=float)
        rows.extend((t, z, v) for t, v in zip(ts, vals))
    out = os.path.join(options["out"], "characteristics.csv")
    _write_csv(out, ["t", "z", "xi"], rows)
    _write_manifest(options["out"], "characteristics", options, ["characteristics.csv"])
    return 0


def _curve_rows(model, spec, lam, h_step):
    table = marginal_table(model, spec, h_step)
    curve = mean_curve(table)
    d2 = second_differences(curve)
    d2_col = [None] + [float(v) for v in d2[:, 1]] + [None]
    bound = None
    if lam is not None:
        bound = np.asarray(mean_upper_bound(spec, float(lam), curve[:, 0]), dtype=float)
    rows = []
    for k, (t, mval) in enumerate(curve):
        row = [t, mval, d2_col[k]]
        if bound is not None:
            row.append(bound[k])
        rows.append(row)
    return rows


def _run_mean_curve(options):
    spec = _spec(options)
    h_step = float(options["step"])
    outputs = []
    if options.get("model") is not None:
        model = model_from_dict(options["model"])
        lam = options["lambdas"][0] if options.get("lambdas") else None
        header = ["t", "mean", "second_diff"] + (["bound"] if lam is not None else [])
        name = "mean_curve.csv"
        _write_csv(os.path.join(options["out"], name), header,
                   _curve_rows(model, spec, lam, h_step))
        outputs.append(name)
    else:
        lams = options.get("lambdas") or []
        if not lams:
            raise ValueError("mean-curve needs --model or at least one --lambda")
        for lam in lams:
            model = constant_characteristic_model(float(lam))
            name = f"mean_curve_lam{lam:g}.csv" if len(lams) > 1 else "mean_curve.csv"
            _write_csv(os.path.join(options["out"], name),
                       ["t", "mean", "second_diff", "bound"],
                       _curve_rows(model, spec, float(lam), h_step))
            outputs.append(name)
    if options.get("gnuplot"):
        stub = ["# gnuplot stub; run: gnuplot -p this_file", "set datafile separator ','",
                "set xlabel 't'", "set ylabel 'E[X_t]'",
                "plot " + ", ".join(f"'{n}' using 1:2 with lines title '{n}'" for n in outputs)]
        _write_atomic(os.path.join(options["out"], "mean_curve.gp"), "\n".join(stub) + "\n")
        outputs.append("mean_curve.gp")
    _write_manifest(options["out"], "mean-curve", options, outputs)
    return 0


def _run_marginals(options):
    model = _resolve_model(options)
    spec = _spec(options)
    table = marginal_table(model, spec, float(options["step"]))
    rows = []
    for idx, t in enumerate(table.times):
        for zi, p in enumerate(table.probs[idx]):
            rows.append((t, spec.x + zi, p))
    out = os.path.join(options["out"], "marginals.csv")
    _write_csv(out, ["t", "z", "prob"], rows)
    _write_manifest(options["out"], "marginals", options, ["marginals.csv"])
    return 0


def _run_sample(options):
    spec = _spec(options)
    seed = int(options["seed"])
    count = int(options["replicas"])
    if options.get("model") is not None:
        model = model_from_dict(options["model"])
        h = solve_h(model, spec, float(options["step"]))
        stats = {}
        paths = sample_bridge(model, spec, h, count, seed, stats=stats)
        sampler = "h-transform-thinning"
    else:
        lam = float((options.get("lambdas") or [0.0])[0])
        paths = sample_constant(lam, spec, count, seed)
        sampler = "exact-tilted-order-statistics"
        stats = {}
    rows = []
    for r, path in enumerate(paths):
        for j, t in enumerate(path.jump_times, start=1):
            rows.append((str(r), str(j), _fmt(t)))
    out = os.path.join(options["out"], "paths.csv")
    _write_csv(out, ["replica", "jump_index", "time"], rows)
    all_times = jump_time_matrix(paths)
    summary = {
        "sampler": sampler,
        "seed": seed,
        "count": count,
        "n_jumps": spec.n,
        "bridge": {"x": spec.x, "y": spec.y, "s": spec.s, "u": spec.u},
        "median_jump_time": float(np.median(all_times)) if all_times.size else None,
        "thinning": stats or None,
    }
    _write_json(os.path.join(options["out"], "summary.json"), summary)
    _write_manifest(options["out"], "sample", options, ["paths.csv", "summary.json"])
    return 0


def _run_verify(options):
    model = _resolve_model(options)
    spec = _spec(options)
    h_step = float(options["step"])
    lam = None
    if options.get("lambdas"):
        lam = float(options["lambdas"][0])
    elif options.get("model") is None:
        raise ValueError("verify needs --lambda for the benchmark bound")
    checks = options["checks"] or ["convexity", "dominance", "mean-bound"]
    reports = []
    extra_outputs = []
    all_pass = True
    h = solve_h(model, spec, h_step)
    table = marginal_table(model, spec, h_step, h=h)
    for name in checks:
        if name == "convexity":
            rep = convexity_check(model, spec, h_step, tol=float(options["tol_convexity"]))
            reports.append(rep.to_dict())
            all_pass &= rep.passed
        elif name == "dominance":
            if lam is None:
                raise ValueError("dominance check needs --lambda")
            rep = dominance_check(model, spec, lam, direction=options["direction"],
                                  tol=float(options["tol_margin"]), table=table)
            reports.append(rep.to_dict())
            all_pass &= rep.passed
            if options.get("grid_csv"):
                _write_csv(os.path.join(options["out"], "dominance_grid.csv"),
                           ["t", "i", "computed_tail", "benchmark_tail", "margin"],
                           rep.rows)
                extra_outputs.append("dominance_grid.csv")
        elif name == "mean-bound":
            if lam is None:
                raise ValueError("mean-bound check needs --lambda")
            rep = mean_bound_check(model, spec, lam, tol=float(options["tol_margin"]),
                                   table=table)
            reports.append(rep.to_dict())
            all_pass &= rep.passed
        elif name == "duality":
            paths = sample_bridge(model, spec, h, int(options["replicas"]),
                                  int(options["seed"]))
            zmax = float(options["z_max"])
            for phi, u in duality_catalog():
                if phi.m > spec.n:
                    continue
                res = duality_check(model, spec, u, phi, None, None, paths=paths)
                d = res.to_dict()
                d["verdict"] = "pass" if abs(res.z_score) <= zmax else "fail"
                reports.append(d)
                all_pass &= abs(res.z_score) <= zmax
        else:
            raise ValueError(f"unknown check {name!r}")
    payload = {"checks": reports, "all_pass": bool(all_pass)}
    _write_json(os.path.join(options["out"], "verify.json"), payload)
    _write_manifest(options["out"], "verify", options, ["verify.json"] + extra_outputs)
    return 0 if all_pass else 1


def _run_lln(options):
    model = _resolve_model(options)
    if options.get("lambdas"):
        lam = float(options["lambdas"][0])
    else:
        raise ValueError("lln needs --lambda (the limiting profile)")
    rep = lln_experiment(model, lam, options["N"], int(options["replicas"]),
                         int(options["seed"]), h_step=float(options["step"]))
    _write_json(os.path.join(options["out"], "lln.json"), rep.to_dict())
    _write_manifest(options["out"], "lln", options, ["lln.json"])
    return 0 if rep.medians_non_increasing else 1


_RUNNERS = {
    "characteristics": _run_characteristics,
    "mean-curve": _run_mean_curve,
    "marginals": _run_marginals,
    "sample": _run_sample,
    "verify": _run_verify,
    "lln": _run_lln,
}


def _run_replay(manifest_path, out_override=None):
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    command = manifest["command"]
    options = dict(manifest["options"])
    if out_override:
        options["out"] = out_override
    if command not in _RUNNERS:
        raise ValueError(f"manifest command {command!r} unknown")
    return _RUNNERS[command](options)


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(p, with_step=True):
    p.add_argument("--model", help="JSON model descriptor file")
    p.add_argument("--lambda", dest="lambdas", type=float, action="append",
                   help="constant-characteristic value (benchmark family and/or bound); "
                        "repeatable for mean-curve")
    p.add_argument("--x", type=int, default=0)
    p.add_argument("--y", type=int, default=20)
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--u", type=float, default=1.0)
    if with_step:
        p.add_argument("--step", type=float, default=1e-3, help="marginal/h grid step")
    p.add_argument("--out", default=".", help="output directory")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="countbridge",
        description="Bridges of Markov counting processes: marginals, samplers, bound checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characteristics", help="dump the characteristic on a grid")
    _add_common(p, with_step=False)
    p.add_argument("--grid-step", type=float, default=1e-2)

    p = sub.add_parser("mean-curve", help="bridge mean curve with second differences")
    _add_common(p)
    p.add_argument("--gnuplot", action="store_true", help="also write a gnuplot stub")

    p = sub.add_parser("marginals", help="one-time marginal table as CSV")
    _add_common(p)

    p = sub.add_parser("sample", help="sample bridge paths")
    _add_common(p)
    p.add_argument("--seed", type=int, default=20240501)
    p.add_argument("--replicas", type=int, default=10000)

    p = sub.add_parser("verify", help="run the bridge estimate checks, exit 1 on failure")
    _add_common(p)
    p.add_argument("--check", dest="checks", action="append",
                   choices=["convexity", "dominance", "mean-bound", "duality"],
                   help="repeatable; default: convexity dominance mean-bound")
    p.add_argument("--direction", choices=["lower", "upper"], default="lower")
    p.add_argument("--seed", type=int, default=20240501)
    p.add_argument("--replicas", type=int, default=20000)
    p.add_argument("--grid-csv", dest="grid_csv", action="store_true",
                   help="also write the full dominance (t, i) grid as CSV")
    p.add_argument("--tol-margin", dest="tol_margin", type=float, default=1e-6)
    p.add_argument("--tol-convexity", dest="tol_convexity", type=float, default=1e-8)
    p.add_argument("--z-max", dest="z_max", type=float, default=4.0)

    p = sub.add_parser("lln", help="rescaled-bridge concentration experiment")
    _add_common(p)
    p.add_argument("--N", dest="N", type=int, action="append",
                   help="bridge heights; repeatable (default 50 200 800)")
    p.add_argument("--seed", type=int, default=20240501)
    p.add_argument("--replicas", type=int, default=200)

    p = sub.add_parser("replay", help="re-run a command from its manifest")
    p.add_argument("manifest")
    p.add_argument("--out", default=None)
    return parser


def _options_from_args(args):
    options = {}
    for key, val in vars(args).items():
        if key == "command":
            continue
        options[key] = val
    if options.get("model"):
        options["model"] = model_from_json(options["model"]).to_dict()
    if "N" in options:
        options["N"] = options["N"] or [50, 200, 800]
    return options


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "replay":
            return _run_replay(args.manifest, args.out)
        options = _options_from_args(args)
        return _RUNNERS[args.command](options)
    except (CountBridgeError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"countbridge: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
