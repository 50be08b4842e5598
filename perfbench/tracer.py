"""Span tracer that measures the layers of ellipsf from outside.

``Tracer.install`` wraps every public function and method of the package's
modules at every name through which callers reach it: the defining module,
every module that imported it by name, and the package namespace.  Methods
are wrapped on their class.  Each call records a span (function, start,
end, parent span, job id) in memory; a few functions also record a count
taken from their arguments or result.  Nothing under ``src/`` is edited.

Per-layer metrics are derived from one traced pass by ``layer_metrics``.
A span's self time is its duration minus the durations of its direct
children; the layers' self times plus the time outside every span add up to
the pass's wall time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("matana", "digits", "trigpoly", "spectral", "cascade",
          "operators", "properties", "ioutils", "cli")
# Operators a caller reaches through syntax (p * q, p ** m), wrapped like
# public methods because mask synthesis runs through them.
OPERATOR_METHODS = ("__add__", "__sub__", "__mul__", "__rmul__", "__pow__")
# Called once per printed number, millions of times in a lattice pass: its
# spans would cost more than the work they time, so its time stays with its
# callers (grid_csv, emit_json).
UNWRAPPED = ("ioutils.format_float",)

# The property checks reported with their own time, keyed by the function
# whose spans carry that time.
CHECK_FUNCTIONS = {
    "riesz_basis": "spectral.riesz_verdict",
    "total_positivity": "properties.check_total_positivity",
    "strang_fix": "properties.check_strang_fix",
    "fourier_refinement": "properties.check_fourier_refinement",
    "non_decay": "properties.check_non_decay",
    "convolution": "properties.check_convolution",
    "partition_of_unity": "properties.check_partition_of_unity",
    "polynomial_reproduction": "properties.check_polynomial_reproduction",
}


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_frac", "_fill", "_depth")):
        return "ratio"
    return "bytes" if metric.endswith("bytes_out") else "count"


def _points(x) -> int:
    x = np.asarray(x)
    return 1 if x.ndim <= 1 else int(x.shape[0])


def _transition_size(result):
    T = result[0]
    nnz = T.nnz if hasattr(T, "nnz") else np.count_nonzero(T)
    return int(T.shape[0]), int(nnz)


def _cascade_start(args):
    A, rc = args[0], args[1]
    return A.entries.tobytes(), hash(tuple(sorted(rc.c.items()))), id(rc)


def _report_counts(report):
    statuses = [c.status for c in report.checks]
    return statuses.count("fail"), statuses.count("skip")


# Counts recorded per call: span name -> f(args, kwargs, result).
ANNOTATE = {
    "trigpoly.TrigPoly.eval": lambda a, k, r: _points(a[1]) * len(a[0]),
    "spectral.mu": lambda a, k, r: _points(a[1]),
    "spectral.phi_hat": lambda a, k, r: _points(a[1]),
    "cascade.transition_matrix": lambda a, k, r: _transition_size(r),
    "cascade.integer_values": lambda a, k, r: _cascade_start(a),
    "cascade.refine": lambda a, k, r: (id(a[1]), int(r.data.size), int(np.count_nonzero(r.inside))),
    "properties.run_all": lambda a, k, r: _report_counts(r),
    "ioutils.emit_json": lambda a, k, r: len(r),
    "ioutils.grid_csv": lambda a, k, r: len(r),
    "ioutils.field_csv": lambda a, k, r: len(r),
}


def _targets():
    """(span name, layer, function, [(namespace, attribute)]) for every
    public function and method of the layers, with every name it is bound to."""
    modules = {layer: importlib.import_module(f"ellipsf.{layer}") for layer in LAYERS}
    namespaces = [m for name, m in sorted(sys.modules.items())
                  if m is not None and (name == "ellipsf" or name.startswith("ellipsf."))]
    out = []
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and f"{layer}.{attr}" not in UNWRAPPED):
                sites = [(ns, a) for ns in namespaces for a, v in vars(ns).items() if v is obj]
                out.append((f"{layer}.{attr}", layer, obj, sites))
            elif inspect.isclass(obj):
                methods = {}  # one wrapper per function, e.g. __mul__ is also __rmul__
                for mname, meth in vars(obj).items():
                    if inspect.isfunction(meth) and (not mname.startswith("_")
                                                     or mname in OPERATOR_METHODS):
                        methods.setdefault(meth, []).append((obj, mname))
                out += [(f"{layer}.{meth.__qualname__}", layer, meth, sites)
                        for meth, sites in methods.items()]
    return out


class Tracer:
    """Records spans of the wrapped calls made while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.spans: list = []          # (function index, start, end, parent span, job, outermost)
        self.counts: dict = {}         # span index -> annotation
        self.job = -1
        self._stack: list[int] = []
        self._patches: list = []

    def install(self):
        for name, layer, fn, sites in _targets():
            wrapper = self._wrap(len(self.names), name, fn)
            self.names.append(name)
            self.layer_of.append(LAYERS.index(layer))
            for ns, attr in sites:
                self._patches.append((ns, attr, getattr(ns, attr)))
                setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def _wrap(self, idx, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        annotate = ANNOTATE.get(name)
        clock = time.perf_counter
        tracer = self
        active = [0]  # calls of this function currently open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            active[0] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                active[0] -= 1
                stack.pop()
                spans[sid] = (idx, t0, t1, parent, tracer.job, active[0] == 0)
            if annotate is not None:
                try:
                    counts[sid] = annotate(args, kwargs, result)
                except Exception:  # a count the program's types no longer carry
                    counts[sid] = None
            return result

        return wrapper

    def write(self, fh, pass_no: int):
        """Append the spans as tab-separated lines:
        pass, job, span, parent, name, start, end."""
        for sid, (idx, t0, t1, parent, job, _) in enumerate(self.spans):
            fh.write(f"{pass_no}\t{job}\t{sid}\t{parent}\t{self.names[idx]}\t{t0:.9f}\t{t1:.9f}\n")


def write_spans(path, tracers):
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("pass\tjob\tspan\tparent\tname\tstart_s\tend_s\n")
        for pass_no, tracer in enumerate(tracers):
            tracer.write(fh, pass_no)


def layer_metrics(tracer: Tracer, wall: float) -> dict:
    """Per-layer metrics of one traced pass of wall time ``wall`` seconds."""
    fn_index = {name: i for i, name in enumerate(tracer.names)}
    if tracer.spans:
        fn, t0, t1, parent, job, outer = (np.array(col) for col in zip(*tracer.spans))
    else:
        fn = parent = job = np.zeros(0, dtype=int)
        t0 = t1 = np.zeros(0)
        outer = np.zeros(0, dtype=bool)
    dur = t1 - t0
    has_parent = parent >= 0
    child_time = np.zeros(len(dur))
    np.add.at(child_time, parent[has_parent], dur[has_parent])
    self_time = dur - child_time
    parent_fn = np.full(len(fn), -1)
    parent_fn[has_parent] = fn[parent[has_parent]]

    def mask(name):
        return fn == fn_index[name]

    def total(name):
        """Time inside the function, not counting nested calls of itself twice."""
        return float(dur[mask(name) & outer].sum())

    def calls(name, under=None):
        sel = mask(name)
        if under is not None:
            sel &= parent_fn == fn_index[under]
        return int(sel.sum())

    def counted(name, under=None):
        """The recorded counts of a function's spans, in span order."""
        sel = mask(name)
        if under is not None:
            sel &= parent_fn == fn_index[under]
        counts = (tracer.counts.get(int(s)) for s in np.nonzero(sel)[0])
        return [c for c in counts if c is not None]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    layer_self = np.bincount(np.array(tracer.layer_of)[fn], weights=self_time,
                             minlength=len(LAYERS))
    for i, layer in enumerate(LAYERS):
        out[f"{layer}.self_s"] = float(layer_self[i])
    roots = float(dur[~has_parent].sum())

    out["matana.certify_s"] = total("matana.certify_isotropy")
    out["digits.digit_set_s"] = total("digits.digit_set")
    out["trigpoly.build_mask_s"] = total("trigpoly.build_mask")

    out["trigpoly.eval_calls"] = calls("trigpoly.TrigPoly.eval")
    out["trigpoly.eval_work"] = int(sum(counted("trigpoly.TrigPoly.eval")))
    out["trigpoly.eval_s"] = total("trigpoly.TrigPoly.eval")

    out["spectral.mu_points"] = int(sum(counted("spectral.mu")))
    out["spectral.mu_s"] = total("spectral.mu")
    out["spectral.M_eval_depth"] = ratio(calls("spectral.mu", under="spectral.M_eval"),
                                         calls("spectral.M_eval"))
    out["spectral.M_eval_s"] = total("spectral.M_eval")
    out["spectral.phi_hat_points"] = int(sum(counted("spectral.phi_hat")))
    out["spectral.phi_hat_s"] = total("spectral.phi_hat")
    out["spectral.tail_C_s"] = total("spectral.mu_quadratic_constant")
    out["spectral.estimate_B_points"] = int(sum(counted("spectral.mu", under="spectral.estimate_B")))
    out["spectral.estimate_B_s"] = total("spectral.estimate_B")

    sizes = counted("cascade.transition_matrix")
    out["cascade.support_box_s"] = total("cascade.support_box")
    out["cascade.transition_n"] = int(sum(n for n, _ in sizes))
    out["cascade.transition_nnz_frac"] = ratio(sum(z for _, z in sizes), sum(n * n for n, _ in sizes))
    out["cascade.transition_s"] = total("cascade.transition_matrix")
    out["cascade.eigensolve_s"] = float(self_time[mask("cascade.integer_values")].sum())
    builds, repeats = _cascade_builds(tracer, fn_index, fn, job)
    out["cascade.cascades"] = builds
    out["cascade.cascade_repeat_frac"] = ratio(repeats, builds)
    refines = counted("cascade.refine")
    out["cascade.refine_levels"] = calls("cascade.refine")
    out["cascade.refine_cells"] = int(sum(c for _, c, _ in refines))
    out["cascade.grid_fill"] = ratio(sum(i for _, _, i in refines), sum(c for _, c, _ in refines))
    out["cascade.refine_s"] = total("cascade.refine")

    for check, name in CHECK_FUNCTIONS.items():
        sel = mask(name) & outer
        if name == "spectral.riesz_verdict":
            sel &= parent_fn == fn_index["properties.run_all"]
        out[f"properties.{check}_s"] = float(dur[sel].sum())
    reports = counted("properties.run_all")
    out["properties.checks_failed"] = int(sum(f for f, _ in reports))
    out["properties.checks_skipped"] = int(sum(s for _, s in reports))

    out["operators.relation_s"] = total("operators.verify_operator_relation")

    emitters = ("ioutils.emit_json", "ioutils.grid_csv", "ioutils.field_csv")
    out["ioutils.emit_s"] = sum(total(name) for name in emitters)
    out["ioutils.bytes_out"] = int(sum(c for name in emitters for c in counted(name)))

    out["cli.jobs"] = calls("cli.main")
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - roots
    return out


def _cascade_builds(tracer, fn_index, fn, job):
    """(builds, repeats): a build is one ``integer_values`` call followed by
    the ``refine`` calls on the same coefficients; it repeats when the same
    (matrix, coefficients, depth) was already built in the same job."""
    start, step = fn_index["cascade.integer_values"], fn_index["cascade.refine"]
    builds = []          # [job, matrix bytes, coefficient hash, depth]
    open_build = {}      # id(rc) -> index into builds
    for sid in np.nonzero((fn == start) | (fn == step))[0]:
        c = tracer.counts.get(int(sid))
        if c is None:
            continue
        if fn[sid] == start:
            key_A, key_c, rc_id = c
            open_build[rc_id] = len(builds)
            builds.append([int(job[sid]), key_A, key_c, 0])
        elif c[0] in open_build:
            builds[open_build[c[0]]][3] += 1
    seen = set()
    repeats = 0
    for b in builds:
        key = tuple(b)
        repeats += key in seen
        seen.add(key)
    return len(builds), repeats
