"""Span and counter instrumentation of zipcalc, installed from outside the
program.

`install` replaces public zipcalc functions and methods by wrappers that
record one span per call (name, start, end, parent index) in memory, counts
the element-backend `mul`/`inv` calls, and reads a few descriptors off return
values.  A module-level function is replaced in its defining module and in
every zipcalc module that imported it, so calls through an imported name are
traced too.  A name the program no longer has is skipped and reported as
absent instead of failing, so the benchmark survives refactors.

`span_metrics` turns the spans of a job into self times, call counts and
verify-check times; run.py sums them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time

# span name -> (module, attribute path) targets; all targets share the span name
SPANS = {
    "groups.hom_init": [("zipcalc.groups", "Homomorphism.__init__")],
    "groups.group_init": [
        ("zipcalc.groups", "FiniteGroup.__init__"),
        ("zipcalc.groups", "PermutationGroup.__init__"),
        ("zipcalc.groups", "MatrixGroup.__init__"),
        ("zipcalc.groups", "CayleyTableGroup.__init__"),
    ],
    "groups.closure": [
        ("zipcalc.groups", "closure"),
        ("zipcalc.groups", "PermutationGroup.from_generators"),
        ("zipcalc.groups", "PermutationGroup.symmetric"),
        ("zipcalc.groups", "MatrixGroup.from_generators"),
        ("zipcalc.groups", "MatrixGroup.general_linear"),
    ],
    "groups.double_cosets": [("zipcalc.groups", "double_cosets")],
    "groups.generating_set": [("zipcalc.groups", "Subgroup.generating_set")],
    "groups.preimage": [("zipcalc.groups", "Homomorphism.preimage"), ("zipcalc.groups", "preimage")],
    "zoo.build_witt_zip": [("zipcalc.zoo", "build_witt_zip")],
    "zoo.build_small_zoo": [("zipcalc.zoo", "build_small_zoo")],
    "zipdata.twist": [("zipcalc.zipdata", "twist")],
    "zipdata.refine": [("zipcalc.zipdata", "refine")],
    "zipdata.refine_to_stationary": [("zipcalc.zipdata", "refine_to_stationary")],
    "zipdata.action_pairs": [("zipcalc.zipdata", "ZipDatum.action_pairs")],
    "zipdata.e_infinity_characterization_check": [
        ("zipcalc.zipdata", "e_infinity_characterization_check")
    ],
    "zipdata.twist_refine_identity_check": [("zipcalc.zipdata", "twist_refine_identity_check")],
    "equivalence.zip_classes": [("zipcalc.equivalence", "zip_classes")],
    "equivalence.fine_orbits": [("zipcalc.equivalence", "fine_orbits")],
    "equivalence.torsor_check": [("zipcalc.equivalence", "torsor_check")],
    "equivalence.refinement_bijection_check": [
        ("zipcalc.equivalence", "refinement_bijection_check")
    ],
    "equivalence.groupoid_equivalence_check": [
        ("zipcalc.equivalence", "groupoid_equivalence_check")
    ],
    "equivalence.coarsening_check": [("zipcalc.equivalence", "coarsening_check")],
    "forest.build_forest": [("zipcalc.forest", "build_forest")],
    "forest.classify": [("zipcalc.forest", "classify")],
    "forest.limit_bijection_check": [("zipcalc.forest", "limit_bijection_check")],
    "verify.run_verification": [("zipcalc.verify", "run_verification")],
    "reports.render": [
        ("zipcalc.reports", "dumps_canonical"),
        ("zipcalc.reports", "members_digest"),
        ("zipcalc.reports", "class_report_document"),
        ("zipcalc.reports", "trace_document"),
        ("zipcalc.reports", "infinity_document"),
        ("zipcalc.reports", "forest_document"),
        ("zipcalc.reports", "verification_document"),
        ("zipcalc.forest", "forest_to_dot"),
    ],
    "cli.load_job": [("zipcalc.cli", "load_job")],
}

# counter name -> backend methods whose calls it counts
COUNTERS = {
    "groups.mul": [
        ("zipcalc.groups", "PermutationGroup.mul"),
        ("zipcalc.groups", "MatrixGroup.mul"),
        ("zipcalc.groups", "CayleyTableGroup.mul"),
    ],
    "groups.inv": [
        ("zipcalc.groups", "PermutationGroup.inv"),
        ("zipcalc.groups", "MatrixGroup.inv"),
        ("zipcalc.groups", "CayleyTableGroup.inv"),
    ],
}


# span name -> (descriptor metric, how to read it off the return value, combine)
DESCRIPTORS = {
    "cli.load_job": [
        ("datum.e_order", lambda job: job.datum.E.order, max),
        ("datum.g_order", lambda job: job.datum.G.order, max),
    ],
    "zoo.build_small_zoo": [
        ("datum.e_order", lambda zoo: max(z.E.order for z in zoo.values()), max),
        ("datum.g_order", lambda zoo: max(z.G.order for z in zoo.values()), max),
    ],
    "zipdata.refine_to_stationary": [("zipdata.stages", lambda trace: len(trace.stages), sum)],
    "equivalence.zip_classes": [("equivalence.classes", lambda report: report.class_count, sum)],
    "forest.build_forest": [("forest.nodes", lambda f: sum(len(g) for g in f.generations), sum)],
}

# verify check -> span names that run_verification calls directly for it
VERIFY_CHECKS = {
    "refinement-invariance": ("zipdata.refine_to_stationary", "zipdata.refine"),
    "e-infinity-characterization": ("zipdata.e_infinity_characterization_check",),
    "twist-refine-commutation": ("zipdata.twist_refine_identity_check",),
    "twisted-subgroup-conjugation": ("zipdata.twist_refine_identity_check+witnesses",),
    "coarsening": ("equivalence.zip_classes", "equivalence.fine_orbits", "equivalence.coarsening_check"),
    "refinement-bijection": ("groups.double_cosets", "equivalence.refinement_bijection_check"),
    "torsor": ("equivalence.torsor_check",),
    "groupoid-equivalence": ("equivalence.groupoid_equivalence_check",),
    "forest-limit": ("forest.build_forest", "forest.limit_bijection_check"),
}

SELF_TIMES = (
    "groups.hom_init", "groups.group_init", "groups.closure", "groups.double_cosets",
    "groups.generating_set", "groups.preimage", "zoo.build_witt_zip", "zoo.build_small_zoo",
    "zipdata.twist", "zipdata.refine", "zipdata.refine_to_stationary", "zipdata.action_pairs",
    "equivalence.zip_classes", "equivalence.fine_orbits", "equivalence.torsor_check",
    "equivalence.refinement_bijection_check", "equivalence.groupoid_equivalence_check",
    "equivalence.coarsening_check", "forest.build_forest", "forest.classify", "reports.render",
)
CALL_COUNTS = (
    "groups.hom_init", "groups.group_init", "groups.double_cosets", "zipdata.twist",
    "zipdata.refine", "zipdata.refine_to_stationary", "forest.classify",
)

# every per-layer metric with its unit; the order is the report order
LAYER_UNITS = {
    **{f"{n}.calls": "count" for n in CALL_COUNTS},
    **{f"{n}.self_s": "s" for n in SELF_TIMES},
    "groups.mul.calls": "count",
    "groups.inv.calls": "count",
    "forest.nodes": "count",
    **{f"verify.{c}.s": "s" for c in VERIFY_CHECKS},
    "reports.bytes": "bytes",
    "cli.process_start_s": "s",
    "cli.import_s": "s",
    "cli.load_job.s": "s",
    "cli.process_cpu_s": "s",
    "unattributed_s": "s",
    "datum.e_order": "count",
    "datum.g_order": "count",
    "zipdata.stages": "count",
    "equivalence.classes": "count",
    "trace.overhead_s": "s",
    "trace.repeat_mismatches": "count",
}

# metrics that must repeat exactly between two traced passes with one seed
EXACT = tuple(
    [f"{n}.calls" for n in CALL_COUNTS]
    + ["groups.mul.calls", "groups.inv.calls", "forest.nodes", "reports.bytes"]
    + ["datum.e_order", "datum.g_order", "zipdata.stages", "equivalence.classes"]
)


class Recorder:
    """Spans and counters of one job, kept in memory until the job ends."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = {}  # descriptor sums
        self.maxima = {}  # descriptor maxima
        self.tallies = {}  # counter name -> itertools.count of calls
        self.missing = []  # "module:attribute" targets the program lacks
        self.failed_descriptors = set()

    def span(self, fn, name, name_for_call=None, descriptors=()):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name_for_call(kwargs) if name_for_call else name
            index = len(spans)
            spans.append([label, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            for metric, read, combine in descriptors:
                self._describe(metric, read, combine, result)
            return result

        return wrapper

    def _describe(self, metric, read, combine, result):
        try:
            value = read(result)
        except (AttributeError, TypeError, ValueError, KeyError):
            self.failed_descriptors.add(metric)
            return
        if combine is max:
            self.maxima[metric] = max(self.maxima.get(metric, value), value)
        else:
            self.counts[metric] = self.counts.get(metric, 0) + value

    def counter(self, fn, name):
        """Count calls of a backend `mul(self, a, b)` or `inv(self, a)`.

        These run tens of millions of times, so the wrapper has a fixed
        signature and bumps a C-level itertools.count.
        """
        tally = self.tallies.setdefault(name, itertools.count())
        arity = getattr(getattr(fn, "__code__", None), "co_argcount", 0)
        if arity == 3:

            def wrapper(obj, a, b, _next=next, _tally=tally, _fn=fn):
                _next(_tally)
                return _fn(obj, a, b)

        elif arity == 2:

            def wrapper(obj, a, _next=next, _tally=tally, _fn=fn):
                _next(_tally)
                return _fn(obj, a)

        else:

            def wrapper(*args, _next=next, _tally=tally, _fn=fn):
                _next(_tally)
                return _fn(*args)

        return functools.wraps(fn)(wrapper)

    def call_counts(self) -> dict:
        return {name: next(tally) for name, tally in self.tallies.items()}


def _resolve(module_name, path):
    """(owner, attribute name, raw attribute) or None when the name is gone."""
    owner = sys.modules.get(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    raw = owner.__dict__.get(parts[-1]) if isinstance(owner, type) else getattr(owner, parts[-1], None)
    if raw is None:
        return None
    return owner, parts[-1], raw


def _replace(owner, attr, raw, make_wrapper):
    """Wrap a function, method, classmethod or cached_property in place.

    Module-level functions are also rebound in every zipcalc module that
    imported them under the same object.
    """
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make_wrapper(raw.__func__)))
        return
    if isinstance(raw, functools.cached_property):
        raw.func = make_wrapper(raw.func)
        return
    wrapped = make_wrapper(raw)
    setattr(owner, attr, wrapped)
    if not isinstance(owner, type):
        for name, module in list(sys.modules.items()):
            if name == "zipcalc" or name.startswith("zipcalc."):
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, wrapped)


def _twist_check_name(kwargs):
    if kwargs.get("witnesses") is not None:
        return "zipdata.twist_refine_identity_check+witnesses"
    return "zipdata.twist_refine_identity_check"


def _wrap_targets(recorder, targets, make_wrapper):
    for module_name, path in targets:
        found = _resolve(module_name, path)
        if found is None:
            recorder.missing.append(f"{module_name}:{path}")
        else:
            _replace(*found, make_wrapper)


def install(recorder: Recorder):
    """Wrap every target that exists; record the ones that do not."""
    for name, targets in SPANS.items():
        name_for_call = _twist_check_name if name == "zipdata.twist_refine_identity_check" else None
        descriptors = DESCRIPTORS.get(name, ())
        _wrap_targets(
            recorder, targets, lambda fn: recorder.span(fn, name, name_for_call, descriptors)
        )
    for name, targets in COUNTERS.items():
        _wrap_targets(recorder, targets, lambda fn: recorder.counter(fn, name))


def _sources() -> dict:
    """Per-layer metric -> the spans or counters it is measured from; the
    metric is absent when none of them exists."""
    sources = {}
    for name in CALL_COUNTS:
        sources[f"{name}.calls"] = {name}
    for name in SELF_TIMES:
        sources[f"{name}.self_s"] = {name}
    sources["groups.mul.calls"] = {"groups.mul"}
    sources["groups.inv.calls"] = {"groups.inv"}
    sources["cli.load_job.s"] = {"cli.load_job"}
    for check, names in VERIFY_CHECKS.items():
        sources[f"verify.{check}.s"] = {n.split("+")[0] for n in names}
    for span, descs in DESCRIPTORS.items():
        for metric, _, _ in descs:
            sources.setdefault(metric, set()).add(span)
    return sources


def absent_metrics(missing, failed_descriptors) -> list:
    """Per-layer metrics a pass could not measure because the program lacks
    every name behind them, or a return value lacked a descriptor."""
    gone = set(missing)
    lost = {
        name
        for name, targets in [*SPANS.items(), *COUNTERS.items()]
        if all(f"{m}:{p}" in gone for m, p in targets)
    }
    absent = set(failed_descriptors)
    for metric, needs in _sources().items():
        if needs <= lost or (metric.startswith("verify.") and "verify.run_verification" in lost):
            absent.add(metric)
    return sorted(absent)


def span_metrics(spans) -> dict:
    """Self times, call counts and verify-check times of one job's spans.

    A span's self time is its duration minus its children's durations.
    Calls count spans not directly nested in a span of the same name, so a
    subclass constructor chaining to its base counts once.
    """
    out = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    root_time = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        base = name.split("+")[0]
        key = f"{base}.self_s"
        out[key] = out.get(key, 0.0) + (end - start) - child_time[i]
        if parent < 0 or spans[parent][0].split("+")[0] != base:
            out[f"{base}.calls"] = out.get(f"{base}.calls", 0) + 1
        if parent < 0:
            root_time += end - start
        elif spans[parent][0] == "verify.run_verification":
            for check, names in VERIFY_CHECKS.items():
                if name in names:
                    out[f"verify.{check}.s"] = out.get(f"verify.{check}.s", 0.0) + (end - start)
        if base == "cli.load_job":
            out["cli.load_job.s"] = out.get("cli.load_job.s", 0.0) + (end - start)
    out["root_span_s"] = root_time
    return out
