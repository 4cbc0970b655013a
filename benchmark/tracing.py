"""Spans around the public calls into each `grtor` module.

`Tracer.install` replaces every reference to a traced function in the
`grtor` modules with a wrapper that records (name, start, end, parent);
the program itself is not edited.  Spans stay in memory; `layer_metrics`
turns the spans of one sweep into the per-layer metrics.  A span's self
time is its duration minus that of its child spans, so the self times of
one job add up to the job's wall time.
"""

import sys
import time
from functools import wraps
from statistics import median

# (span name, module, attribute); "Class.method" wraps a method
TARGETS = [
    ("cli.parse", "grtor.cli", "parse_job_file"),
    ("cli.parse", "grtor.cli", "build_ring"),
    ("cli.parse", "grtor.cli", "module_ideal"),
    ("groebner.initial_ideal", "grtor.groebner", "initial_ideal"),
    ("groebner.standard_basis", "grtor.groebner", "standard_basis"),
    ("groebner.groebner_basis", "grtor.groebner", "groebner_basis"),
    ("groebner.syzygies", "grtor.groebner", "syzygies"),
    ("resolution.tor_series", "grtor.resolution", "tor_series"),
    ("resolution.minimal_resolution", "grtor.resolution", "minimal_resolution"),
    ("resolution.pieces", "grtor.resolution", "GradedModulePieces.__init__"),
    ("filtered.resolve_local", "grtor.filtered", "resolve_local_cyclic"),
    ("filtered.lift", "grtor.filtered", "lift_resolution"),
    ("filtered.tensor", "grtor.filtered", "filtered_tensor"),
    ("filtered.validate", "grtor.filtered", "FilteredComplex._validate"),
    ("filtered.parse_fc", "grtor.filtered", "FilteredComplex.from_text"),
    ("spectral.run", "grtor.spectral", "run_to_stability"),
    ("spectral.cancellations", "grtor.spectral", "cancellations_at_page"),
    ("spectral.page", "grtor.spectral", "page"),
    ("series.verify", "grtor.series", "verify_certificate"),
    ("series.parse", "grtor.series", "BigradedSeries.from_text"),
    ("series.decide", "grtor.series", "decide_cancellation"),
]
ROOT = "cli.main"

# per-layer metric -> (span name, what): "total" sums the outermost spans
# of that name, "self" sums self times, "calls" counts spans
TIMES = {
    "cli.parse_s": ("cli.parse", "total"),
    "cli.self_s": (ROOT, "self"),
    "groebner.initial_ideal_s": ("groebner.initial_ideal", "total"),
    "groebner.standard_basis_s": ("groebner.standard_basis", "total"),
    "groebner.standard_basis_calls": ("groebner.standard_basis", "calls"),
    "groebner.groebner_basis_s": ("groebner.groebner_basis", "total"),
    "groebner.groebner_basis_calls": ("groebner.groebner_basis", "calls"),
    "groebner.syzygies_s": ("groebner.syzygies", "total"),
    "groebner.syzygies_calls": ("groebner.syzygies", "calls"),
    "resolution.tor_series_s": ("resolution.tor_series", "total"),
    "resolution.minimal_resolution_s": ("resolution.minimal_resolution", "total"),
    "resolution.minimal_resolution_calls": ("resolution.minimal_resolution", "calls"),
    "resolution.pieces_s": ("resolution.pieces", "total"),
    "resolution.homology_s": ("resolution.tor_series", "self"),
    "filtered.resolve_local_s": ("filtered.resolve_local", "total"),
    "filtered.lift_s": ("filtered.lift", "total"),
    "filtered.tensor_s": ("filtered.tensor", "self"),
    "filtered.validate_s": ("filtered.validate", "total"),
    "filtered.parse_fc_s": ("filtered.parse_fc", "total"),
    "spectral.run_s": ("spectral.run", "total"),
    "spectral.cancellations_s": ("spectral.cancellations", "total"),
    "spectral.page_s": ("spectral.page", "total"),
    "spectral.self_s": ("spectral.run", "self"),
    "spectral.pages": ("spectral.cancellations", "calls"),
    "series.verify_s": ("series.verify", "total"),
    "series.parse_s": ("series.parse", "total"),
    "series.decide_s": ("series.decide", "total"),
}
# read from the arguments and results of kept spans
DERIVED = ["resolution.betti_total", "filtered.L_dim", "filtered.L_nnz",
         "filtered.L_entries", "spectral.qq_s", "spectral.fp_s",
         "spectral.cert_steps", "series.units"]
SWEEP = ["trace.sweep_s", "trace.self_sum_s"]
PER_LAYER = list(TIMES) + DERIVED + SWEEP


def unit(metric):
    return "s" if metric.endswith("_s") else "count"


class Span:
    __slots__ = ("name", "start", "end", "parent", "children", "args", "result")

    def __init__(self, name, parent, args=None):
        self.name = name
        self.parent = parent
        self.children = []
        self.args = args
        self.result = None
        self.start = self.end = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - sum(c.duration for c in self.children)


# spans whose arguments or results DERIVED reads after the sweep
_KEEP = {"resolution.minimal_resolution", "filtered.tensor", "filtered.parse_fc",
         "spectral.run", "series.decide"}


class Tracer:
    def __init__(self):
        self.roots = []
        self._stack = []

    def _wrap(self, name, fn):
        keep = name in _KEEP
        stack = self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, args if keep else None)
            if span.parent is None:
                self.roots.append(span)
            else:
                span.parent.children.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if keep:
                span.result = result
            return result
        return traced

    def install(self):
        """Wrap every target, wherever a `grtor` module refers to it."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "grtor" or k.startswith("grtor."))]
        for name, module, attr in TARGETS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(cls, meth, self._wrap(name, raw))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def call(self, fn, *args):
        """Run one job under a root span."""
        return self._wrap(ROOT, fn)(*args)

    def take(self):
        """The root spans recorded since the last call, and forget them."""
        roots, self.roots = self.roots, []
        return roots


def _walk(spans):
    for s in spans:
        yield s
        yield from _walk(s.children)


def _outermost(span):
    p = span.parent
    while p is not None:
        if p.name == span.name:
            return False
        p = p.parent
    return True


def _complex_sizes(L):
    """(dimension, nonzeros, dense entries) of a filtered complex, read
    from its `.fc` text so that they do not depend on how it is stored."""
    dims, nnz = [], 0
    for line in L.to_text().splitlines():
        parts = line.split()
        if parts[0] == "term":
            dims.append(int(parts[3]))
        elif parts[0] == "diff":
            nnz += int(parts[3])
    return sum(dims), nnz, sum(a * b for a, b in zip(dims, dims[1:]))


def layer_metrics(roots, sweep_wall):
    """Per-layer metrics of one sweep from its root spans."""
    out = {k: 0.0 for k in PER_LAYER}
    for s in _walk(roots):
        for metric, (name, what) in TIMES.items():
            if s.name != name:
                continue
            if what == "calls":
                out[metric] += 1
            elif what == "self":
                out[metric] += s.self_time
            elif _outermost(s):
                out[metric] += s.duration
        if s.name in _KEEP and s.result is None:
            continue  # the call raised
        if s.name == "resolution.minimal_resolution":
            out["resolution.betti_total"] += sum(len(t) for t in s.result.shifts)
        elif s.name in ("filtered.tensor", "filtered.parse_fc"):
            dim, nnz, entries = _complex_sizes(s.result)
            out["filtered.L_dim"] += dim
            out["filtered.L_nnz"] += nnz
            out["filtered.L_entries"] += entries
        elif s.name == "spectral.run":
            key = "spectral.fp_s" if s.args[0].field.char else "spectral.qq_s"
            out[key] += s.duration
            out["spectral.cert_steps"] += len(s.result.certificate)
        elif s.name == "series.decide":
            source, target = s.args[:2]
            out["series.units"] += source.total_units() - target.total_units()
    out["trace.sweep_s"] = sweep_wall
    out["trace.self_sum_s"] = sum(s.self_time for s in _walk(roots))
    return out


def median_metrics(per_sweep):
    return {k: median(m[k] for m in per_sweep) for k in PER_LAYER}


def span_records(roots):
    """Flat (name, start, end, parent index) records for the trace file."""
    index = {}
    records = []
    for s in _walk(roots):
        index[id(s)] = len(records)
        records.append({"name": s.name, "start": s.start, "end": s.end,
                        "parent": index[id(s.parent)] if s.parent is not None else None})
    return records
