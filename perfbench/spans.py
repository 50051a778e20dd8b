"""Spans around calls into the program's layers, and the per-layer metrics.

``instrument`` replaces every public function of each layer module, and the
public methods and ``__init__`` of the classes defined there, with a wrapper
that records a span: name, parent, and four clock readings (wrapper entered,
call started, call ended, wrapper left).  Names that other modules bound
with ``from .minima import successive_minima`` are rebound to the same
wrapper, so those calls are seen too.  Spans stay in memory until the run
ends.

A span's self time is its duration minus the time its child spans cover,
wrappers included; the wrappers' own time is the tracing overhead, and the
part of the traced phase that lies outside every top-level span is time no
layer accounts for.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import time
from array import array
from collections import Counter, defaultdict

# layer name -> module under the package; ``_kernel_py`` runs inside the
# ``kernel`` wrappers, so its time is the kernel layer's self time
LAYERS = ("kernel", "minima", "body", "lattice", "_intmat", "exactarith", "bounds", "harness", "cli")
SOLVES = ("minima.successive_minima", "minima.restricted_minima")
WALKS = ("kernel.collect_passing", "kernel.count_passing")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.enter = array("d")
        self.start = array("d")
        self.end = array("d")
        self.leave = array("d")
        self.stack = []
        self.counts = Counter()
        self._walk_keys = set()
        self._solve_keys = set()

    def _open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        for arr in (self.enter, self.start, self.end, self.leave):
            arr.append(0.0)
        self.stack.append(idx)
        return idx

    def wrap(self, name, fn, hook=None):
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            t_enter = perf()
            idx = tracer._open(name)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                tracer.stack.pop()
                tracer.enter[idx] = t_enter
                tracer.start[idx] = t0
                tracer.end[idx] = t1
                tracer.leave[idx] = t1
            if hook is not None:
                hook(tracer, args, kwargs, result)
            tracer.leave[idx] = perf()
            return result

        return functools.wraps(fn)(wrapper)

    @contextlib.contextmanager
    def span(self, name):
        t_enter = time.perf_counter()
        idx = self._open(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.enter[idx], self.start[idx], self.end[idx] = t_enter, t0, t1
            self.leave[idx] = time.perf_counter()

    def write(self, path):
        """Write every span as ``name,start,end,parent`` (gzip CSV)."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,start,end,parent\n")
            for i in range(len(self.name)):
                fh.write(f"{self.names[self.name[i]]},{self.start[i]!r},{self.end[i]!r},{self.parent[i]}\n")


# ---------------------------------------------------------------------------
# counts taken at the boundaries
# ---------------------------------------------------------------------------


def _walk_hook(tracer, args, kwargs, result):
    g, t, lo, hi = args
    box = 1
    for l, h in zip(lo, hi):
        box *= max(0, h - l + 1)
    tracer.counts["kernel.box_points"] += box
    tracer.counts["kernel.passing_points"] += result if isinstance(result, int) else len(result)
    key = (tuple(map(tuple, g)), tuple(t), tuple(lo), tuple(hi))
    if key in tracer._walk_keys:
        tracer.counts["kernel.repeat_calls"] += 1
    tracer._walk_keys.add(key)


def _successive_hook(tracer, args, kwargs, result):
    body, lat = args[0], args[1]
    k = args[2] if len(args) > 2 else kwargs["k"]
    tracer._solve_keys.add((body, lat, k))


HOOKS = {
    "kernel.collect_passing": _walk_hook,
    "kernel.count_passing": _walk_hook,
    "minima.successive_minima": _successive_hook,
}


def instrument(tracer, package, modules):
    """Wrap the layers of ``package``; ``modules`` are all its loaded
    submodules, searched for names bound to a wrapped function."""
    replaced = {}

    def wrap_function(name, fn):
        w = tracer.wrap(name, fn, HOOKS.get(name))
        replaced[fn] = w
        return w

    for layer in LAYERS:
        mod = getattr(package, layer)
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                setattr(mod, attr, wrap_function(f"{layer}.{attr}", obj))
            elif inspect.isclass(obj):
                for mname, m in list(vars(obj).items()):
                    if mname.startswith("_") and mname != "__init__":
                        continue
                    name = f"{layer}.{obj.__name__}.{mname}"
                    if isinstance(m, (staticmethod, classmethod)):
                        setattr(obj, mname, type(m)(wrap_function(name, m.__func__)))
                    elif inspect.isfunction(m) and m.__code__.co_filename == mod.__file__:
                        setattr(obj, mname, wrap_function(name, m))
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, attr, replaced[obj])


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _layer(name):
    layer = name.split(".", 1)[0]
    return "intmat" if layer == "_intmat" else layer


def layer_metrics(tracer, phase):
    """Per-layer counts and times, as name -> (value, unit), from the
    recorded spans.  ``phase`` is (start, end, pauses, checking seconds)
    of the traced loop; spans opened during a pause (planning more inputs)
    are left out, and spans after the end (the campaign's report) count for
    their layer but not against the loop's duration.  Checking outputs
    calls no layer, so its time only comes off the loop's duration."""
    t_start, t_end, pauses, checking = phase
    wall = t_end - t_start - sum(b - a for a, b in pauses) - checking
    n = len(tracer.name)
    names = tracer.names
    nid = tracer.name
    parent = tracer.parent
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    total = [tracer.leave[i] - tracer.enter[i] for i in range(n)]
    covered = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            covered[parent[i]] += total[i]

    def ancestors(i):
        p = parent[i]
        while p >= 0:
            yield names[nid[p]]
            p = parent[p]

    calls = Counter()
    self_by_layer = defaultdict(float)
    self_by_name = defaultdict(float)
    busy = defaultdict(float)
    busy_names = set(WALKS) | {"body.Box.gauge", "body.SymmetricPolytope.gauge",
                               "lattice.union_covers", "harness.generate", "cli.report"}
    solves = walks_in_solves = recomputes = 0
    top = 0.0
    for i in range(n):
        if any(a <= tracer.enter[i] <= b for a, b in pauses):
            continue
        name = names[nid[i]]
        calls[name] += 1
        own = dur[i] - covered[i]
        self_by_layer[_layer(name)] += own
        self_by_name[name] += own
        if parent[i] < 0 and tracer.enter[i] <= t_end:
            top += total[i]
        if name in busy_names and name not in set(ancestors(i)):
            busy[name] += dur[i]
        if name in SOLVES:
            up = set(ancestors(i))
            if not up.intersection(SOLVES):
                solves += 1
            if name == "minima.successive_minima" and any(a.startswith("bounds.") for a in up):
                recomputes += 1
        elif name == "kernel.collect_passing" and set(ancestors(i)).intersection(SOLVES):
            walks_in_solves += 1

    def calls_matching(pred):
        return sum(c for name, c in calls.items() if pred(name))

    kernel_calls = calls["kernel.collect_passing"] + calls["kernel.count_passing"]
    kernel_busy = busy["kernel.collect_passing"] + busy["kernel.count_passing"]
    box = tracer.counts["kernel.box_points"]
    passing = tracer.counts["kernel.passing_points"]
    overhead = sum(t - d for i, (t, d) in enumerate(zip(total, dur))
                   if not any(a <= tracer.enter[i] <= b for a, b in pauses))
    out = {
        "kernel.calls": (kernel_calls, "count"),
        "kernel.collect_calls": (calls["kernel.collect_passing"], "count"),
        "kernel.count_calls": (calls["kernel.count_passing"], "count"),
        "kernel.busy_s": (kernel_busy, "s"),
        "kernel.self_s": (self_by_layer["kernel"], "s"),
        "kernel.box_points": (box, "count"),
        "kernel.passing_points": (passing, "count"),
        "kernel.pass_ratio": (passing / box if box else 0.0, "ratio"),
        "kernel.points_per_s": (box / kernel_busy if kernel_busy else 0.0, "1/s"),
        "kernel.repeat_calls": (tracer.counts["kernel.repeat_calls"], "count"),
        "minima.self_s": (self_by_layer["minima"], "s"),
        "minima.successive.calls": (calls["minima.successive_minima"], "count"),
        "minima.successive.distinct": (len(tracer._solve_keys), "count"),
        "minima.restricted.calls": (calls["minima.restricted_minima"], "count"),
        "minima.enumerations_per_solve": (walks_in_solves / solves if solves else 0.0, "ratio"),
        "body.self_s": (self_by_layer["body"], "s"),
        "body.gauge.calls": (calls_matching(lambda s: s.startswith("body.") and s.endswith(".gauge")), "count"),
        "body.gauge.busy_s": (busy["body.Box.gauge"] + busy["body.SymmetricPolytope.gauge"], "s"),
        "body.support.calls": (calls_matching(lambda s: s.startswith("body.") and s.endswith(".support")), "count"),
        "lattice.self_s": (self_by_layer["lattice"], "s"),
        "lattice.construct.calls": (calls["lattice.Lattice.__init__"], "count"),
        "lattice.union_covers.calls": (calls["lattice.union_covers"], "count"),
        "lattice.union_covers.busy_s": (busy["lattice.union_covers"], "s"),
        "intmat.self_s": (self_by_layer["intmat"], "s"),
        "intmat.frac_rank.calls": (calls["_intmat.frac_rank"], "count"),
        "intmat.hnf.calls": (calls["_intmat.hnf"], "count"),
        "intmat.snf.calls": (calls["_intmat.snf"], "count"),
        "exactarith.self_s": (self_by_layer["exactarith"], "s"),
        "exactarith.root.calls": (calls["exactarith.nth_root_enclosure"], "count"),
        "bounds.self_s": (self_by_layer["bounds"], "s"),
        "bounds.calls": (calls_matching(lambda s: s.startswith("bounds.")), "count"),
        "bounds.minima_recomputes": (recomputes, "count"),
        "harness.self_s": (self_by_layer["harness"], "s"),
        "harness.check_instance.self_s": (self_by_name["harness.check_instance"], "s"),
        "harness.generate.busy_s": (busy["harness.generate"], "s"),
        "cli.report_s": (busy["cli.report"], "s"),
        "trace.spans": (n, "count"),
        "trace.self_total_s": (sum(self_by_layer.values()), "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.unaccounted_s": (wall - top, "s"),
    }
    return out
