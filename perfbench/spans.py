"""Spans and counters recorded around calls into countbridge's layers.

The traced run replaces every public function of the library modules, under
every name it is bound to in the package, with a wrapper that records one
span per call: name, parent span, start and end.  Spans live in flat
arrays until the run ends; self time is a span's duration minus the
durations of its direct children.  Counters (mesh size, thinning proposals,
repeated solves, ...) are read at the same boundaries from the arguments and
results of the wrapped calls.  Nothing inside the library is changed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import os
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

PACKAGE = "countbridge"
LIBRARY_MODULES = ("analytic", "engine", "intensity", "sampler", "verify")
MODEL_METHODS = ("rate", "rate_dt", "rate_grid", "characteristic")
RSS_PERIOD_S = 0.002


def self_times(parent, start, end):
    """Per-span self time: duration minus the summed durations of direct children.

    ``parent`` holds the index of each span's parent, or -1 for a root span.
    Children of one span run one after another inside it, so their durations
    add up to the part of the parent's interval they cover.
    """
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    covered = np.zeros(dur.size)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


class RssWatch:
    """Peak resident set size over armed intervals, sampled by a helper thread.

    Used for the memory of single layers, where the process-wide peak RSS
    cannot be reset.  Reading ``/proc/self/statm`` every couple of
    milliseconds costs far less than tracing allocations would.
    """

    def __init__(self):
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._lock = threading.Lock()
        self._armed = False
        self._peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def rss(self):
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * self._page

    def _sample(self):
        with self._lock:
            if self._armed:
                self._peak = max(self._peak, self.rss())

    def _loop(self):
        while not self._stop.wait(RSS_PERIOD_S):
            self._sample()

    @contextlib.contextmanager
    def interval(self, sink):
        """Append to ``sink`` the peak RSS growth (bytes) over the ``with`` body."""
        with self._lock:
            base = self._peak = self.rss()
            self._armed = True
        try:
            yield
        finally:
            self._sample()
            with self._lock:
                self._armed = False
                sink.append(self._peak - base)

    def close(self):
        self._stop.set()
        self._thread.join(timeout=5.0)


class Tracer:
    """Span store plus the counters read at layer boundaries."""

    def __init__(self):
        self.active = False
        self.job = -1
        self.names = []
        self._name_ids = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.counts = defaultdict(float)
        self.solve_peaks = []
        self._solved = set()
        self.rss = None

    def reset(self):
        """Drop the spans and counters recorded so far; the ``solve_h`` peaks stay."""
        for buf in (self.name_id, self.parent, self.start, self.end):
            del buf[:]
        self.counts.clear()
        self._solved.clear()

    def _nid(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(math.nan)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """Span around a block of the benchmark's own code (a CLI command)."""
        if not self.active:
            yield
            return
        i = self._open(self._nid(name))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, fn, name, hook=None):
        """``fn`` recording a span per call; ``hook`` sees the call while tracing."""
        nid = self._nid(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return (hook or Tracer.call)(self, fn, nid, args, kwargs)

        return traced

    def call(self, fn, nid, args, kwargs):
        """Run one wrapped call inside its span; hooks call this around their counting."""
        i = self._open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(i)

    def summary(self):
        """{name: (calls, inclusive seconds, self seconds)} over all spans."""
        if not self.start:
            return {}
        nid = np.frombuffer(self.name_id, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        own = self_times(np.frombuffer(self.parent, dtype=np.int64), start, end)
        calls = np.bincount(nid, minlength=len(self.names))
        incl = np.bincount(nid, weights=end - start, minlength=len(self.names))
        excl = np.bincount(nid, weights=own, minlength=len(self.names))
        return {name: (int(calls[k]), float(incl[k]), float(excl[k]))
                for k, name in enumerate(self.names) if calls[k]}


# -- hooks: counters read where the work happens ---------------------------

def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _solve_h_hook(tracer, fn, nid, args, kwargs):
    a = _bound(fn, args, kwargs)
    spec = a["spec"]
    key = (tracer.job, json.dumps(a["model"].to_dict(), sort_keys=True),
           (spec.x, spec.y, spec.s, spec.u), float(a["h_step"]), a["step_budget"])
    if key in tracer._solved:
        tracer.counts["engine.solve_h.repeat_calls"] += 1
    tracer._solved.add(key)
    with tracer.rss.interval(tracer.solve_peaks):
        h = tracer.call(fn, nid, args, kwargs)
    nodes, width = h.logh.shape
    tracer.counts["engine.solve_h.mesh_nodes"] += nodes
    tracer.counts["engine.solve_h.state_steps"] += nodes * width
    tracer.counts["engine.solve_h.log_h_bytes"] += h.logh.nbytes
    return h


def _sample_bridge_hook(tracer, fn, nid, args, kwargs):
    a = _bound(fn, args, kwargs)
    stats = a["stats"]
    if stats is None:
        stats = a["stats"] = {}
    paths = tracer.call(fn, nid, (), a)
    for key in ("proposals", "accepts", "breaches"):
        tracer.counts[f"sampler.thinning.{key}"] += stats.get(key, 0)
    tracer.counts["sampler.sample_bridge.jumps"] += sum(p.n for p in paths)
    return paths


def _sample_constant_hook(tracer, fn, nid, args, kwargs):
    paths = tracer.call(fn, nid, args, kwargs)
    tracer.counts["sampler.sample_constant.paths"] += len(paths)
    return paths


HOOKS = {
    "engine.solve_h": _solve_h_hook,
    "sampler.sample_bridge": _sample_bridge_hook,
    "sampler.sample_constant": _sample_constant_hook,
}


def instrument(tracer):
    """Wrap every public library function under every name bound to it.

    A function imported into another module (``solve_h`` in ``verify`` and
    ``cli``, ``binomial_tail`` in ``verify``) is replaced there too, so calls
    between layers are traced the same as calls from the benchmark.  Rate
    model methods are wrapped on each class that defines them.
    """
    pkg = importlib.import_module(PACKAGE)
    mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in LIBRARY_MODULES + ("cli",)}
    namespaces = [pkg] + list(mods.values())
    for short in LIBRARY_MODULES:
        mod = mods[short]
        for name, fn in list(vars(mod).items()):
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            traced = tracer.wrap(fn, f"{short}.{name}", HOOKS.get(f"{short}.{name}"))
            for ns in namespaces:
                for attr, val in list(vars(ns).items()):
                    if val is fn:
                        setattr(ns, attr, traced)
    intensity = mods["intensity"]
    for cls in vars(intensity).values():
        if inspect.isclass(cls) and issubclass(cls, intensity._RateModel):
            for meth in MODEL_METHODS:
                if meth in cls.__dict__:
                    setattr(cls, meth, tracer.wrap(cls.__dict__[meth], f"intensity.{meth}"))
    tracer.rss = RssWatch()
