"""Command-line front end: model loading, experiments, CSV/JSON emission.

Every run writes a ``manifest.json`` echoing the fully resolved configuration
(defaults included, the model descriptor inlined), so ``countbridge replay
manifest.json`` reproduces the outputs byte for byte.  Floats are printed
with 17 significant digits; tables are streamed in blocks of rows, with
unchanged text, into a temp file that is then renamed over the target.

Exit codes: 0 all verdicts pass, 1 a check failed, 2 configuration or domain
error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .analytic import mean_upper_bound
from .engine import (BridgeSpec, check_memory, marginal_table, mean_curve,
                     second_differences, solve_h)
from .errors import BadOption, BadStep, BadWindow, CountBridgeError
from .intensity import constant_characteristic_model, model_from_dict, model_from_json
from .sampler import jump_time_matrix, sample_bridge, sample_constant
from .verify import (convexity_check, dominance_check, duality_catalog,
                     duality_check, lln_experiment, mean_bound_check)


# rows, and values, of a table rendered per %-template: bound the text held at once
BLOCK_ROWS = 512
BLOCK_CELLS = 8192


def _write_atomic(path, chunks):
    """Write ``chunks`` (a string, or an iterable of strings) to ``path`` via a
    temp file and a rename; a chunk that raises leaves neither file behind."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines([chunks] if isinstance(chunks, str) else chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_table(path, header, values, row, labels=None):
    """Write a CSV table: ``header``, then one ``row`` per row of ``values``.

    ``row`` is a %-template (one ``%.17g`` per column of the 2-D array
    ``values``) of one or more lines; a row of more than BLOCK_CELLS values
    may instead be given as the list of its consecutive pieces, each the
    template of at most that many.  Its ``{o}`` marks, if any, are filled
    with ``labels[k]``, the preformatted text of row k's repeated label.  The
    text goes out in blocks of at most BLOCK_ROWS rows and BLOCK_CELLS
    values, or of one whole row or one piece of one row.
    """
    values = np.asarray(values, dtype=float)
    pieces = [row] if isinstance(row, str) else row

    def blocks():
        yield ",".join(header) + "\n"
        if len(pieces) > 1:
            ends = np.cumsum([p.count("%.17g") for p in pieces]).tolist()
            for k, vals in enumerate(values):
                for piece, a, b in zip(pieces, [0] + ends, ends):
                    template = piece if labels is None else piece.replace("{o}", labels[k])
                    yield template % tuple(vals[a:b].tolist())
            return
        row = pieces[0]
        # an empty table may come as a 1-D array, its width then 0; a row wider
        # than BLOCK_CELLS goes out as a block of its own
        step = max(1, min(BLOCK_ROWS, BLOCK_CELLS // max(1, values.shape[-1])))
        for a in range(0, len(values), step):
            block = values[a:a + step]
            template = (row * len(block) if labels is None else
                        "".join([row.replace("{o}", o) for o in labels[a:a + step]]))
            # tolist() hands % Python floats, so no numpy repr can reach the file
            yield template % tuple(block.ravel().tolist())

    _write_atomic(path, blocks())


def _texts(values):
    """The 17-digit text of each number of a 1-D array, formatted once."""
    return ["%.17g" % v for v in np.asarray(values, dtype=float).tolist()]


def _write_json(path, obj):
    """Write ``obj`` as strict JSON: a NaN or infinite value raises ValueError
    before any file is opened."""
    _write_atomic(path, json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


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
    lams = options.get("lambdas") or []
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
    if not step > 0:
        raise BadStep(f"grid step must be positive, got {step}")
    points = max(2, int(round(spec.length / step)) + 1)
    zs = range(spec.x, max(spec.x, spec.y - 1) + 1)
    # the xi rows take 8 bytes per (time, state) cell; the per-time text, the
    # times and one state's characteristic temporaries about 96 bytes per time
    check_memory(8 * points * (len(zs) + 12),
                 f"characteristics on {points} times x {len(zs)} states")
    ts = np.linspace(spec.s, spec.u, points)
    xi = np.empty((len(zs), points))
    for out, z in zip(xi, zs):
        out[:] = model.characteristic(ts, z)
    # z-major rows: the t column is the same text in every z block, cut into pieces
    # of BLOCK_CELLS times
    pieces = ["".join([t + ",{o},%.17g\n" for t in _texts(ts[a:a + BLOCK_CELLS])])
              for a in range(0, points, BLOCK_CELLS)]
    _write_table(os.path.join(options["out"], "characteristics.csv"), ["t", "z", "xi"], xi,
                 pieces, [str(z) for z in zs])
    _write_manifest(options["out"], "characteristics", options, ["characteristics.csv"])
    return 0


def _write_curve(path, model, spec, lam, h_step):
    """mean_curve.csv: t, mean, second_diff (blank in the end rows), bound with a tilt."""
    curve = mean_curve(marginal_table(model, spec, h_step))
    d2 = [""] + _texts(second_differences(curve)[:, 1]) + [""]
    cols = [curve[:, 0], curve[:, 1]]
    if lam is not None:
        cols.append(mean_upper_bound(spec, float(lam), curve[:, 0]))
    header = ["t", "mean", "second_diff", "bound"][:len(cols) + 1]
    _write_table(path, header, np.column_stack(cols),
                 "%.17g,%.17g,{o}" + ",%.17g" * (len(cols) - 2) + "\n", d2)


def _run_mean_curve(options):
    spec = _spec(options)
    h_step = float(options["step"])
    outputs = []
    lams = options.get("lambdas") or []
    if options.get("model") is not None:
        if len(lams) > 1:
            raise BadOption("mean-curve takes at most one --lambda, the bound, with --model")
        runs = [(model_from_dict(options["model"]), lams[0] if lams else None, "mean_curve.csv")]
    elif lams:
        names = ([f"mean_curve_lam{lam:g}.csv" for lam in lams] if len(lams) > 1
                 else ["mean_curve.csv"])
        clash = [lam for lam, name in zip(lams, names) if names.count(name) > 1]
        if clash:
            raise BadOption(f"the tilts {clash} would share a file name, mean_curve_lam%g.csv")
        runs = [(constant_characteristic_model(float(lam)), lam, name)
                for lam, name in zip(lams, names)]
    else:
        raise ValueError("mean-curve needs --model or at least one --lambda")
    for model, lam, name in runs:
        _write_curve(os.path.join(options["out"], name), model, spec, lam, h_step)
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
    # t-major rows: each time's text fills the {o} of its block of states
    _write_table(os.path.join(options["out"], "marginals.csv"), ["t", "z", "prob"], table.probs,
                 "".join([f"{{o}},{spec.x + zi},%.17g\n" for zi in range(table.probs.shape[1])]),
                 _texts(table.times))
    _write_manifest(options["out"], "marginals", options, ["marginals.csv"])
    return 0


def _run_sample(options):
    spec = _spec(options)
    seed = int(options["seed"])
    count = int(options["replicas"])
    model = _resolve_model(options)
    if options.get("model") is not None:
        h = solve_h(model, spec, float(options["step"]))
        paths = sample_bridge(model, spec, h, count, seed)
        sampler = "h-transform-inversion"
    else:
        paths = sample_constant(float(options["lambdas"][0]), spec, count, seed)
        sampler = "exact-tilted-order-statistics"
    all_times = jump_time_matrix(paths)
    # one line per jump, replica-major: none, so no replica labels, without jumps
    rows = all_times if spec.n else all_times[:0]
    _write_table(os.path.join(options["out"], "paths.csv"), ["replica", "jump_index", "time"],
                 rows, "".join([f"{{o}},{j},%.17g\n" for j in range(1, spec.n + 1)]),
                 [str(r) for r in range(len(rows))])
    summary = {
        "sampler": sampler,
        "seed": seed,
        "count": count,
        "n_jumps": spec.n,
        "bridge": {"x": spec.x, "y": spec.y, "s": spec.s, "u": spec.u},
        "median_jump_time": float(np.median(all_times)) if all_times.size else None,
    }
    _write_json(os.path.join(options["out"], "summary.json"), summary)
    _write_manifest(options["out"], "sample", options, ["paths.csv", "summary.json"])
    return 0


def _run_verify(options):
    model = _resolve_model(options)
    spec = _spec(options)
    h_step = float(options["step"])
    lam = float(options["lambdas"][0]) if options.get("lambdas") else None
    checks = options["checks"] or ["convexity", "dominance", "mean-bound"]
    reports = []
    extra_outputs = []
    all_pass = True
    # h and the table are solved only for the checks that read them
    h = table = None
    if {"dominance", "mean-bound", "duality"} & set(checks):
        h = solve_h(model, spec, h_step)
    if {"dominance", "mean-bound"} & set(checks):
        table = marginal_table(model, spec, h_step, h=h)
    for name in checks:
        if name in ("dominance", "mean-bound") and lam is None:
            raise ValueError(f"{name} check needs --lambda")
        if name == "convexity":
            rep = convexity_check(model, spec, h_step, tol=float(options["tol_convexity"]))
        elif name == "dominance":
            rep = dominance_check(model, spec, lam, direction=options["direction"],
                                  tol=float(options["tol_margin"]), table=table)
            if options.get("grid_csv"):
                _write_table(os.path.join(options["out"], "dominance_grid.csv"),
                             ["t", "i", "computed_tail", "benchmark_tail", "margin"],
                             rep.rows, "%.17g,%.17g,%.17g,%.17g,%.17g\n")
                extra_outputs.append("dominance_grid.csv")
        elif name == "mean-bound":
            rep = mean_bound_check(model, spec, lam, tol=float(options["tol_margin"]),
                                   table=table)
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
            continue
        else:
            raise ValueError(f"unknown check {name!r}")
        reports.append(rep.to_dict())
        all_pass &= rep.passed
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


# the float options: their flag, and the error a NaN or infinite value raises
_FLOAT_OPTIONS = {
    "step": ("--step", BadStep),
    "grid_step": ("--grid-step", BadStep),
    "s": ("--s", BadWindow),
    "u": ("--u", BadWindow),
    "lambdas": ("--lambda", BadOption),
    "tol_margin": ("--tol-margin", BadOption),
    "tol_convexity": ("--tol-convexity", BadOption),
    "z_max": ("--z-max", BadOption),
}


def _run(command, options):
    """Run ``command`` on its resolved options, fresh or replayed.

    Every float option must be finite, whether or not the command reads
    it: a NaN would otherwise land in manifest.json, which is then not
    JSON.  Nothing is written before this check.
    """
    if command not in _RUNNERS:
        raise ValueError(f"manifest command {command!r} unknown")
    for key, (flag, error) in _FLOAT_OPTIONS.items():
        value = options.get(key)
        for v in value if isinstance(value, list) else [value]:
            if v is not None and not math.isfinite(float(v)):
                raise error(f"{flag} must be a finite number, got {v}")
    return _RUNNERS[command](options)


def _run_replay(manifest_path, out_override=None):
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    options = dict(manifest["options"])
    if out_override:
        options["out"] = out_override
    return _run(manifest["command"], options)


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
        return _run(args.command, _options_from_args(args))
    except (CountBridgeError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"countbridge: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
