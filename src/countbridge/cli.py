"""Command-line front end: model loading, experiments, CSV/JSON emission.

Every run writes a ``manifest.json`` echoing the fully resolved configuration
(defaults included, the model descriptor inlined), so ``countbridge replay
manifest.json`` reproduces the outputs byte for byte.  One table, ``_OPTIONS``,
gives every option its flag, type, defaults, help and choices: the parser is
built from it, and ``_run``, the one reader of a run's options, fresh or
replayed, types them by it and builds the model once.  A run writes all of its
files or none: each runner returns its files' text, and ``_run`` alone writes
them, each to a temp file in ``--out`` that is renamed over its target only
once all are written.  A table cell prints exactly as ``format(c, ".17g")``
does, an integer column's as ``str(c)``; the text is formed in numpy one block
of rows at a time.

Exit codes: 0 all verdicts pass, 1 a check failed, 2 configuration, domain or
usage error, which leaves ``--out`` as it was.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import tempfile
from collections import namedtuple
from dataclasses import asdict

import numpy as np

from . import __version__, engine
from .analytic import tilted_cdf_window
# solve_h is not called here, but perfbench's tracer wraps every binding of it
from .engine import OUTPUT_STEP, BridgeSpec, check_memory, second_differences, solve_h  # noqa: F401
from .errors import BadOption, BadParameter, BadStep, CountBridgeError, check_keys, count_text
from .intensity import constant_characteristic_model, model_from_dict
from .verify import (CONVEXITY_TOL, MARGIN_TOL, BridgeLaw, convexity_check, dominance_check,
                     duality_catalog, duality_check, lln_experiment, mean_bound_check)

# A float cell's text is formed in a record of 44 bytes, read as 11
# little-endian words: byte 0 holds the sign; bytes 1 and 4-19 the 17 digits
# as the part before a point; bytes 2-3 and 20-22 the point, the "0.000" of
# a number below 1 or the "0" of a zero; byte 23 and bytes 24-39 the 17
# digits again as the part after the point; byte 43 the separator.  In
# scientific notation the point is byte 2 and the exponent, "e-05" to "e-324",
# bytes 20-22 and 40-41.  Every zero byte of a record is dropped from the text,
# so a key, (sign, exponent E, trailing zeros) or in scientific notation (sign,
# trailing zeros), names what a cell keeps, and E its exponent's text.
_INTEGER_AT = [1] + list(range(4, 20))
_FRACTION_AT = list(range(23, 40))
_POINT_AT = [2, 3, 20, 21, 22]
# per sign: E = -4..16 times 0..16 trailing zeros, then zero, then 0..16
# trailing zeros in scientific notation
_ZERO = 21 * 17
_KEYS = _ZERO + 18
# the decimal exponents E of the nonzero doubles
_EXPONENTS = range(-324, 309)


@functools.lru_cache(maxsize=None)
def _tables():
    """The encoder's tables, built on first use, from integers."""
    # per E: the least double whose 17 digits round to 10^E or up, the least at or
    # above (10^18 - 5) 10^(E - 18); 10^(16 - E) 2^-shift as hi + tail, correctly
    # rounded (tail = 0 where hi is exact), |x| scaled by 2^shift so that neither
    # their product nor the split of |x| leaves the float range
    tens = [10 ** p for p in range(343)]
    bounds, shift, powers, tails = [], [], [], []
    for k in _EXPONENTS:
        num, den = ((10 ** 18 - 5) * tens[k - 18], 1) if k >= 18 else (10 ** 18 - 5, tens[18 - k])
        b = num / den
        bn, bd = b.as_integer_ratio()
        bounds.append(math.nextafter(b, math.inf) if bn * den < num * bd else b)
        a = 200 if k < -270 else -200 if k > 250 else 0
        num, den = (tens[16 - k], 1 << a) if k <= 16 else (1 << -a, tens[k - 16])
        hi = num / den
        hn, hd = hi.as_integer_ratio()
        shift.append(a)
        powers.append(hi)
        tails.append((num * hd - hn * den) / (den * hd))
    # for each binary exponent of frexp, the E + 4 of the bound at or below its
    # binade's floor
    bounds = np.array(bounds + [math.inf])
    below = np.searchsorted(bounds, np.ldexp(1.0, np.arange(-1074, 1024)), "right") - 321
    powers = np.array(powers)
    c = 134217729.0 * powers
    high = c - (c - powers)
    # each E's exponent text, as words 5 and 10 of a record
    exps = np.array([f"e{k:+03d}" for k in _EXPONENTS], "S7").view(np.uint8).reshape(-1, 7)
    exps = np.insert(exps, 3, 0, axis=1)
    g = np.arange(10000, dtype=np.int32)
    quads = np.stack([48 + g // 1000, 48 + g // 100 % 10, 48 + g // 10 % 10, 48 + g % 10], 1)
    zeros = np.select([g % 10 > 0, g % 100 > 0, g % 1000 > 0, g > 0], [0, 1, 2, 3], 4)
    # per key, 255 on the digits kept and the text of the other bytes: in fixed
    # notation the first E + 1 digits before the point, the rest after it
    e, tz, j = np.ogrid[-4:17, :17, :17]
    keys = np.zeros((2, 22, 17, 44), np.uint8)
    keys[:, :21, :, _INTEGER_AT] = 255 * (j < e + 1)
    keys[:, :21, :, _FRACTION_AT] = 255 * ((j >= e + 1) & (j < 17 - tz))
    keys[:, 4:21, :, _POINT_AT[-1]] = np.where(tz < 16 - e[4:], ord("."), 0)[..., 0]
    for k in range(1, 5):  # E = -k
        keys[:, 4 - k][..., _POINT_AT[4 - k:]] = np.frombuffer(b"0.000"[:k + 1], np.uint8)
    keys[:, 21][..., _INTEGER_AT] = 255 * (j[0] < 17 - tz[0])
    keys[:, 21, :16, _POINT_AT[0]] = ord(".")
    keys = np.concatenate([keys[:, :21].reshape(2, -1, 44), np.zeros((2, 1, 44), np.uint8),
                           keys[:, 21]], 1)
    keys[:, _ZERO, _POINT_AT[-1]] = ord("0")
    keys[1, :, 0] = ord("-")
    tables = (bounds, below, np.array(shift), powers, high, powers - high, np.array(tails),
              exps.view("<u4"), quads.astype(np.uint8).view("<u4").ravel(),
              zeros.astype(np.int32), keys.reshape(-1, 44).view("<u4"))
    for table in tables:  # shared by every call
        table.flags.writeable = False
    return tables


def _significand(ax, i, tables):
    """hi and lo, the exact product of the nonnegative ``ax`` and the i-th power
    of ``tables`` (its hi), by Dekker's product: hi > 2^53 is an even integer."""
    powers, high, low = tables
    c = 134217729.0 * ax
    ah = c - (c - ax)
    al = ax - ah
    ph, pl = np.take(high, i), np.take(low, i)
    hi = ax * np.take(powers, i)
    return hi, ((ah * ph - hi) + ah * pl + al * ph) + al * pl


def _encode(x):
    """The (len(x), 11) records of a 1-D float array's cells, each as
    format(c, ".17g") prints it."""
    bounds, below, shift, *powers, tails, exps, quads, zeros, keys = _tables()
    ax = np.abs(x)
    # e = E + 4: %g's fixed notation, 1e-4 <= |x| < 1e17, is e = 0..20
    e = np.take(below, np.frexp(ax)[1] + 1073)
    e += ax >= np.take(bounds, e + 321)
    finite = np.isfinite(x)
    cells = finite & (x != 0)
    live = (e >= 0) & (e < 21) & cells
    sci = np.flatnonzero(cells ^ live)
    slow = np.flatnonzero(~finite)
    # the 17-digit significand, d = round-half-even(|x| 10^(16 - E)), from hi + lo, exact
    # in fixed notation; a scientific cell is scaled by 2^shift and adds the power's tail
    i = e + 320
    ax[slow] = 0.0
    if sci.size:
        ax[sci] = np.ldexp(ax[sci], np.take(shift, i[sci]))
    hi, lo = _significand(ax, i, powers)
    if sci.size:
        lo[sci] += ax[sci] * np.take(tails, i[sci])
        # a tail's product is rounded: a cell this near a tie is left to Python
        slow = np.concatenate([slow, sci[np.abs(lo[sci] % 1.0 - 0.5) < 1e-6]])
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # its digits: a, then four groups of four
    q = d // 10 ** 8
    r = (d - q * 10 ** 8).astype(np.int32)
    q = q.astype(np.int32)
    a = q // 10 ** 8
    q -= a * 10 ** 8
    high4, low4 = q // 10 ** 4, r // 10 ** 4
    groups = [high4, q - high4 * 10 ** 4, low4, r - low4 * 10 ** 4]
    tz = np.take(zeros, groups[3])
    run = groups[3] == 0
    for g in groups[2::-1]:
        tz += run * np.take(zeros, g)
        run &= g == 0
    key = np.where(live, e * 17 + tz, _ZERO)
    key[sci] = _ZERO + 1 + tz[sci]
    key += np.signbit(x) * _KEYS
    # the key's record ANDed with the digits, laid out with 255 on the bytes
    # that hold no digit, and a scientific cell's exponent ORed in
    out = np.take(keys, key, axis=0)
    a = (48 + a).astype("<u4")
    out[:, 0] &= a << 8 | 0xFFFF00FF
    out[:, 5] &= a << 24 | 0x00FFFFFF
    for w, g in enumerate(groups, start=1):
        quad = np.take(quads, g)
        out[:, w] &= quad
        out[:, w + 5] &= quad
    if sci.size:
        out[sci, 5] |= exps[i[sci], 0]
        out[sci, 10] |= exps[i[sci], 1]
    if len(slow):
        out.view("S44")[slow, 0] = ["%.17g" % v for v in x[slow].tolist()]
    return out


def _records(columns):
    """The text of each of a block's columns as a byte array, one record per
    cell, its last byte free for the separator; a broadcast axis is formed once,
    and the float columns' cells are encoded in one call."""
    bases = [c[tuple(slice(None) if s else slice(0, 1) for s in c.strides)] for c in columns]
    floats = [b.ravel() for b in bases if b.dtype.kind not in "iu"]
    if floats:
        encoded = _encode(np.concatenate(floats, dtype=float)).view("S44").ravel()
    records, at = [], 0
    for base in bases:
        if base.dtype.kind in "iu":
            texts = [str(c) for c in base.ravel().tolist()]
            column = np.array(texts, f"S{max(map(len, texts), default=0) + 1}")
        else:
            column, at = encoded[at:at + base.size], at + base.size
        records.append(column.view(np.uint8).reshape(base.shape + (column.itemsize,)))
    return records


def _text(columns, blank):
    """The CSV text of a block of same-shape columns, one line per cell."""
    records = _records(columns)
    widths = [r.shape[-1] for r in records]
    out = np.empty(columns[0].shape + (sum(widths),), np.uint8)
    end = 0
    for j, (r, w) in enumerate(zip(records, widths)):
        end += w
        out[..., end - w:end].view(f"V{w}")[...] = r.view(f"V{w}")
        if blank is not None:
            out[blank[..., j], end - w:end] = 0
        out[..., end - 1] = ord(",")
    out[..., -1] = ord("\n")
    text = out.ravel()
    return text[text != 0].tobytes().decode("ascii")


def _write_run(out_dir, files):
    """Write ``files``, a dict from name to text (a string, or an iterable of
    strings), into ``out_dir``, all or none: each goes to a temp file there, and
    only once all are written are they renamed over their targets, in order.  A
    chunk that raises leaves no temp file and no directory this call made."""
    made = []
    d = os.path.abspath(out_dir)
    while not os.path.isdir(d):
        made.append(d)
        d = os.path.dirname(d)
    os.makedirs(out_dir, exist_ok=True)
    temps = []
    try:
        for chunks in files.values():
            fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=".tmp_", text=True)
            temps.append(tmp)
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines([chunks] if isinstance(chunks, str) else chunks)
    except BaseException:
        for tmp in temps:
            os.unlink(tmp)
        for d in made:
            os.rmdir(d)
        raise
    for name, tmp in zip(files, temps):
        os.replace(tmp, os.path.join(out_dir, name))


def _table(header, columns, blank=None):
    """The chunks of a CSV table: ``header``, then one line per cell of ``columns``.

    ``columns`` are arrays of one shape, 1-D or 2-D, read in C order; a
    broadcast one is formed once per repeated value.  A float cell prints as
    format(float(c), ".17g") does, an integer column's as str(int(c)); the
    cells ``blank`` (the shape, then one per column) marks print empty.  The
    text is formed in blocks of at most ``engine.BLOCK_CELLS`` cells of a column,
    a row wider than that in pieces of that many.
    """
    columns = [np.asarray(c) for c in columns]
    shape = columns[0].shape
    width = math.prod(shape[1:])
    yield ",".join(header) + "\n"
    block = engine.BLOCK_CELLS
    rows = block // width if width else 0
    if rows:
        parts = [np.s_[a:a + rows] for a in range(0, shape[0], rows)]
    else:
        parts = [np.s_[r, a:a + block] for r in range(shape[0]) for a in range(0, width, block)]
    for part in parts:
        yield _text([c[part] for c in columns], None if blank is None else blank[part])


def _json(obj):
    """``obj`` as strict JSON text: a NaN or infinite value raises BadParameter."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise BadParameter(f"a result cannot be written as JSON: {exc}") from None


def _load(path):
    """The JSON value in the file ``path``; a file that is not JSON raises BadOption."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # not UTF-8, or not JSON
            raise BadOption(f"{path} is not JSON: {exc}") from None


def _spec(options):
    return BridgeSpec(options["x"], options["y"], options["s"], options["u"])


# ---------------------------------------------------------------------------
# runners: pure functions of the typed options and the model _run built, each
# returning its exit code and its files, an ordered dict from name to text;
# they write nothing

def _run_characteristics(options, model):
    spec = _spec(options)
    step = options["grid_step"]
    if not step > 0:
        raise BadStep(f"grid step must be positive, got {step}")
    cells = spec.length / step  # inf for a step below about 1e-308
    zs = range(spec.x, max(spec.x, spec.y - 1) + 1)
    # the xi rows take 8 bytes per (time, state) cell; the times and one
    # state's characteristic temporaries about 96 bytes per time
    check_memory(8 * (cells + 1) * (len(zs) + 12),
                 f"characteristics on {cells + 1:.3g} times x {len(zs)} states")
    points = max(2, int(round(cells)) + 1)
    ts = np.linspace(spec.s, spec.u, points)
    xi = np.empty((len(zs), points))
    for out, z in zip(xi, zs):
        out[:] = model.characteristic(ts, z)
    # z-major rows
    return 0, {"characteristics.csv": _table(
        ["t", "z", "xi"], [np.broadcast_to(ts, xi.shape),
                           np.broadcast_to(np.arange(zs.start, zs.stop)[:, None], xi.shape), xi])}


def _curve_table(model, spec, lam, h_step):
    """mean_curve.csv: t, mean, second_diff of E[X_t] - x (blank in the end rows), bound with a tilt."""
    curve = BridgeLaw(model, spec, h_step)._offset_curve()
    cols = [curve[:, 0], spec.x + curve[:, 1], np.r_[0.0, second_differences(curve)[:, 1], 0.0]]
    if lam is not None:
        cols.append(spec.x + spec.n * tilted_cdf_window(lam, spec.s, spec.u, curve[:, 0]))
    blank = np.zeros((len(curve), len(cols)), bool)
    blank[[0, -1], 2] = True
    return _table(["t", "mean", "second_diff", "bound"][:len(cols)], cols, blank)


def _run_mean_curve(options, model):
    spec = _spec(options)
    lams = options["lambdas"] or []
    if options["model"] is not None:
        runs = [(model, lams[0] if lams else None, "mean_curve.csv")]
    else:
        names = ([f"mean_curve_lam{lam:g}.csv" for lam in lams] if len(lams) > 1
                 else ["mean_curve.csv"])
        clash = [lam for lam, name in zip(lams, names) if names.count(name) > 1]
        if clash:
            raise BadOption(f"the tilts {clash} would share a file name, mean_curve_lam%g.csv")
        runs = [(constant_characteristic_model(lam), lam, name) for lam, name in zip(lams, names)]
    files = {name: _curve_table(model, spec, lam, options["step"]) for model, lam, name in runs}
    if options["gnuplot"]:
        stub = ["# gnuplot stub; run: gnuplot -p this_file", "set datafile separator ','",
                "set xlabel 't'", "set ylabel 'E[X_t]'",
                "plot " + ", ".join(f"'{n}' using 1:2 with lines title '{n}'" for n in files)]
        files["mean_curve.gp"] = "\n".join(stub) + "\n"
    return 0, files


def _run_marginals(options, model):
    spec = _spec(options)
    table = BridgeLaw(model, spec, options["step"]).table()
    # t-major rows
    probs = table.probs
    return 0, {"marginals.csv": _table(
        ["t", "z", "prob"],
        [np.broadcast_to(table.times[:, None], probs.shape),
         np.broadcast_to(np.arange(spec.x, spec.x + probs.shape[1]), probs.shape), probs])}


def _run_sample(options, model):
    spec = _spec(options)
    seed, count = options["seed"], options["replicas"]
    law = BridgeLaw(model, spec, options["step"])
    all_times = law.paths(count, seed).times
    # one line per jump, replica-major: none, so no replica labels, without jumps
    rows = all_times if spec.n else all_times[:0]
    paths_csv = _table(["replica", "jump_index", "time"],
                       [np.broadcast_to(np.arange(len(rows))[:, None], rows.shape),
                        np.broadcast_to(np.arange(1, spec.n + 1), rows.shape), rows])
    summary = {"sampler": law.sampler, "seed": seed, "count": count, "n_jumps": spec.n,
               "bridge": asdict(spec),
               "median_jump_time": float(np.median(all_times)) if all_times.size else None}
    return 0, {"paths.csv": paths_csv, "summary.json": _json(summary)}


def _run_verify(options, model):
    spec = _spec(options)
    h_step = options["step"]
    lam = options["lambdas"][0] if options["lambdas"] else None
    checks = options["checks"] or _CHECKS[:3]
    for name in checks:
        if checks.count(name) > 1:
            raise BadOption(f"verify runs each check once; --check {name} is given twice")
        if name in ("dominance", "mean-bound") and lam is None:
            raise BadOption(f"{name} check needs --lambda")
    reports, files, all_pass = [], {}, True
    # one law for the checks that read a table or paths: its h-field, if any, is
    # solved once, on first use
    law = BridgeLaw(model, spec, h_step)
    table = law.table() if {"dominance", "mean-bound"} & set(checks) else None
    for name in checks:
        if name == "convexity":
            rep = convexity_check(model, spec, h_step, tol=options["tol_convexity"])
        elif name == "dominance":
            rep = dominance_check(model, spec, lam, direction=options["direction"],
                                  tol=options["tol_margin"], table=table)
            if options["grid_csv"]:
                files["dominance_grid.csv"] = _table(
                    ["t", "i", "computed_tail", "benchmark_tail", "margin"], rep.rows.T)
        elif name == "mean-bound":
            rep = mean_bound_check(model, spec, lam, tol=options["tol_margin"], table=table)
        else:
            paths = law.paths(options["replicas"], options["seed"])
            for phi, u in duality_catalog():
                if phi.m > spec.n:
                    continue
                res = duality_check(model, spec, u, phi, None, None, paths=paths)
                ok = abs(res.z_score) <= options["z_max"]
                reports.append(dict(res.to_dict(), verdict="pass" if ok else "fail"))
                all_pass &= ok
            continue
        reports.append(rep.to_dict())
        all_pass &= rep.passed
    files["verify.json"] = _json({"checks": reports, "all_pass": bool(all_pass)})
    return 0 if all_pass else 1, files


def _run_lln(options, model):
    rep = lln_experiment(model, options["lambdas"][0], options["N"], options["replicas"],
                         options["seed"], h_step=options["step"])
    return 0 if rep.passed else 1, {"lln.json": _json(rep.to_dict())}


# each command's runner and help
_RUNNERS = {"characteristics": (_run_characteristics, "dump the characteristic on a grid"),
            "mean-curve": (_run_mean_curve, "bridge mean curve with second differences"),
            "marginals": (_run_marginals, "one-time marginal table as CSV"),
            "sample": (_run_sample, "sample bridge paths"),
            "verify": (_run_verify, "run the bridge estimate checks, exit 1 on failure"),
            "lln": (_run_lln, "rescaled-bridge concentration experiment, 0 -> N on [0, 1]")}


# the --lambda count of each command: without --model at least one and at most
# the first entry; beside --model the next two bounds, and what they stand for
_LAMBDAS = {"characteristics": (1, 0, 0, None), "marginals": (1, 0, 0, None),
            "sample": (1, 0, 0, None), "mean-curve": (math.inf, 0, 1, "the bound"),
            "verify": (1, 0, 1, "the bound"), "lln": (1, 1, 1, "the limiting profile")}

# verify's checks; the first three run when none is given
_CHECKS = ("convexity", "dominance", "mean-bound", "duality")

_Option = namedtuple("_Option", "flag kind defaults help choices", defaults=(None, None))
_WINDOWED = ("characteristics", "mean-curve", "marginals", "sample", "verify")

# every option of the runners, by the name a manifest records it under, in the
# order --help lists them: its flag; its type (int, float, str or bool; a list
# of it if repeatable, with None if it may be null, as when --lambda or --check
# is not given; None for --model, a file); the commands that take it, each with
# its default; its help and choices
_OPTIONS = {
    "model": _Option("--model", None, dict.fromkeys(_RUNNERS), "JSON model descriptor file"),
    "lambdas": _Option("--lambda", [float, None], dict.fromkeys(_RUNNERS),
                       "constant-characteristic value: the model without --model (repeatable "
                       "for mean-curve), else the bound or the limiting profile"),
    "x": _Option("--x", int, dict.fromkeys(_WINDOWED, 0)),
    "y": _Option("--y", int, dict.fromkeys(_WINDOWED, 20)),
    "s": _Option("--s", float, dict.fromkeys(_WINDOWED, 0.0)),
    "u": _Option("--u", float, dict.fromkeys(_WINDOWED, 1.0)),
    "step": _Option("--step", float, {c: OUTPUT_STEP for c in _RUNNERS if c != "characteristics"},
                    "marginal/h grid step"),
    "out": _Option("--out", str, dict.fromkeys(_RUNNERS, "."), "output directory"),
    "grid_step": _Option("--grid-step", float, {"characteristics": 1e-2}),
    "gnuplot": _Option("--gnuplot", bool, {"mean-curve": False}, "also write a gnuplot stub"),
    "checks": _Option("--check", [str, None], {"verify": None},
                      "repeatable; default: convexity dominance mean-bound", _CHECKS),
    "direction": _Option("--direction", str, {"verify": "lower"}, choices=("lower", "upper")),
    "N": _Option("--N", [int], {"lln": [50, 200, 800]},
                 "bridge heights; repeatable (default 50 200 800)"),
    "seed": _Option("--seed", int, dict.fromkeys(("sample", "verify", "lln"), 20240501)),
    "replicas": _Option("--replicas", int, {"sample": 10000, "verify": 20000, "lln": 200}),
    "grid_csv": _Option("--grid-csv", bool, {"verify": False},
                        "also write the full dominance (t, i) grid as CSV"),
    "tol_margin": _Option("--tol-margin", float, {"verify": MARGIN_TOL}),
    "tol_convexity": _Option("--tol-convexity", float, {"verify": CONVEXITY_TOL}),
    "z_max": _Option("--z-max", float, {"verify": 4.0}),
}
_KINDS = {int: "an integer", float: "a finite number", str: "a string", bool: "true or false"}


def _typed(option, value):
    """``value`` as ``option``'s type and among its choices, if any: an int stands
    for a float and becomes one, a bool is a flag's value only, and a float is
    finite (an int too, within the float range); else BadOption names the flag."""
    flag, kind = option.flag, option.kind
    if isinstance(kind, list):
        if value is None and None in kind:
            return None
        if type(value) is list:
            return [_typed(option._replace(kind=kind[0]), v) for v in value]
    elif type(value) is kind or kind is float and type(value) is int:
        if option.choices is not None and value not in option.choices:
            raise BadOption(f"{flag} must be one of {', '.join(option.choices)}, got {count_text(value)}")
        if kind is not float or abs(value) <= sys.float_info.max:
            return kind(value)
    raise BadOption(f"{flag} must be {'a list' if isinstance(kind, list) else _KINDS[kind]}, "
                    f"got {count_text(value)}")


def _run(command, options):
    """Run ``command`` on its options, fresh or replayed, and write its files,
    then manifest.json listing them, into ``--out``: all or none.

    The one reader of the options: they must be the command's own, each of the
    type and among the choices the one option table, _OPTIONS, gives it (a NaN
    would also leave manifest.json not JSON), with a --lambda count _LAMBDAS
    allows.  Only then is the model built, once, from the descriptor (recorded
    in its canonical form) or the first --lambda, and the runner called.  No
    other code touches --out.
    """
    if not isinstance(command, str) or command not in _RUNNERS:
        raise BadOption(f"manifest command {count_text(command)} unknown")
    check_keys(BadOption, f"{command} options", options,
               [key for key, option in _OPTIONS.items() if command in option.defaults])
    options = {key: value if key == "model" else _typed(_OPTIONS[key], value)
               for key, value in options.items()}
    count = len(options["lambdas"] or [])
    most, least_with, most_with, meaning = _LAMBDAS[command]
    if options["model"] is None:
        if not 1 <= count <= most:
            raise BadOption(f"{command} needs --model or at least one --lambda" if most > 1
                            else "need --model or exactly one --lambda to define the process")
        model = constant_characteristic_model(options["lambdas"][0])
    elif count > most_with:
        raise BadOption(f"{command} takes at most one --lambda, {meaning}, with --model"
                        if most_with else f"{command} takes no --lambda with --model")
    elif count < least_with:
        raise BadOption(f"{command} needs --lambda ({meaning})")
    else:
        model = model_from_dict(options["model"])
        options["model"] = model.to_dict()
    code, files = _RUNNERS[command][0](options, model)
    files["manifest.json"] = _json({"command": command, "options": options,
                                    "outputs": sorted(files), "package_version": __version__})
    _write_run(options["out"], files)
    return code


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise BadOption, so main prints them as one
    line and exits 2, and that reads a negative number in exponent form, such
    as -1e-05, as a value; subparsers are of the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own rule takes only -\d+ and -\d*\.\d+ for a negative number
        self._negative_number_matcher = re.compile(r"^-(\d+|\d*\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise BadOption(message)


def build_parser():
    parser = _Parser(prog="countbridge", description="Bridges of Markov counting processes: "
                     "marginals, samplers, bound checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary) in _RUNNERS.items():
        p = sub.add_parser(command, help=summary)
        for key, (flag, kind, defaults, text, choices) in _OPTIONS.items():
            if kind is bool and command in defaults:
                p.add_argument(flag, dest=key, action="store_true", help=text)
            elif command in defaults:
                # append extends a list default, so defaults are set after parsing
                many = isinstance(kind, list)
                p.add_argument(flag, dest=key, type=kind[0] if many else kind, choices=choices,
                               action="append" if many else "store", help=text)
    p = sub.add_parser("replay", help="re-run a command from its manifest")
    p.add_argument("manifest")
    p.add_argument("--out", default=None)
    return parser


# the parser, built on the first call and shared by every later one
_parser = functools.lru_cache(maxsize=None)(build_parser)


def main(argv=None):
    try:
        args = vars(_parser().parse_args(argv))
        command = args.pop("command")
        if command == "replay":
            manifest = _load(args["manifest"])
            if not isinstance(manifest, dict) or not isinstance(manifest.get("options"), dict):
                raise BadOption(f"{args['manifest']} is not a manifest: it holds no options object")
            command, options = manifest.get("command"), dict(manifest["options"])
            if args["out"]:
                options["out"] = args["out"]
        else:  # an option not given takes its default; --model names a descriptor file
            options = {key: _OPTIONS[key].defaults[command] if value is None else value
                       for key, value in args.items()}
            if options["model"] is not None:  # null is refused: _run reads None as no --model
                if (model := _load(options["model"])) is None:
                    raise BadParameter(f"{options['model']} holds null, not a model descriptor")
                options["model"] = model
        return _run(command, options)
    except (CountBridgeError, OSError) as exc:
        print(f"countbridge: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
