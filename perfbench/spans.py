"""Span tracing of teleport-lab's layers from outside the package.

`instrument` replaces the public functions listed in `TRACED` with
wrappers that record one span per call: (name, start, end, parent, run
id). It patches every module attribute bound to the original function, so
name-imported bindings such as `harness.negativity` or
`tomography.nearest_physical` are traced too. Spans stay in memory and are
written out once, by `Tracer.dump`, when the traced process ends.

Span names are "<module>.<function>"; transport runs of
`run_teleportation` carry their mode, as in
"protocols.run_teleportation:dynamic".
"""
from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time

# Per-layer metric -> span name whose self time it reports.
LAYER_TIMES = {
    "harness.categories_s": "harness.mitigated_category_distributions",
    "mitigation.qrem_s": "mitigation.qrem_correct",
    "protocols.transport_s.dynamic": "protocols.run_teleportation:dynamic",
    "protocols.transport_s.postselect": "protocols.run_teleportation:postselect",
    "protocols.transport_s.swap": "protocols.run_swap_transport",
    "harness.pair_s": "harness.mitigated_pair_distributions",
    "mitigation.calibration_s": "mitigation.estimate_confusion_matrices",
    "mitigation.simplex_s": "mitigation.michelot_project",
    "tomography.reconstruct_s": "tomography.reconstruct",
    "metrics.nearest_physical_s": "metrics.nearest_physical",
    "metrics.eigensystem_s": "metrics.hermitian_eigensystem",
    "metrics.negativity_s": "metrics.negativity",
    "pathfinder.search_s": "pathfinder.find_best_paths",
    "harness.plan_s": "harness.plan_cells",
    "harness.csv_s": "harness.write_csv",
}
# Per-layer metric -> span name whose calls it counts.
LAYER_CALLS = {
    "mitigation.simplex_calls": "mitigation.michelot_project",
    "tomography.reconstruct_calls": "tomography.reconstruct",
    "metrics.eigensystem_calls": "metrics.hermitian_eigensystem",
    "pathfinder.search_calls": "pathfinder.find_best_paths",
}

# Public functions whose calls become spans.
TRACED = sorted({span.split(":")[0] for span in LAYER_TIMES.values()})


def _transport_counts(args, kwargs, result) -> dict:
    per_basis = result.counts_by_basis.values()
    return {"protocols.shots": result.shots_per_basis * len(result.counts_by_basis),
            "protocols.distinct_outcomes": sum(len(c) for c in per_basis)}


# Work counts recorded at the same boundaries as the spans.
COUNTERS = {
    "protocols.run_teleportation": _transport_counts,
    "protocols.run_swap_transport": _transport_counts,
    "mitigation.qrem_correct": lambda args, kwargs, result: {
        "mitigation.qrem_entries": len(result)},
    "harness.plan_cells": lambda args, kwargs, result: {"harness.cells": len(result)},
}


def _span_name(qualname: str, args, kwargs) -> str:
    if qualname == "protocols.run_teleportation":
        mode = kwargs["mode"] if "mode" in kwargs else args[1]
        return f"{qualname}:{mode}"
    return qualname


class Tracer:
    """In-memory span recorder for one single-threaded traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []  # [name, start, end, parent index or -1, run id]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, qualname: str, fn):
        counter = COUNTERS.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [_span_name(qualname, args, kwargs), 0.0, 0.0, parent, self.run_id]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                self._stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        return traced

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans, "counts": self.counts}, fh)


def instrument(tracer: Tracer):
    """Wrap every TRACED function and rebind each module attribute that names it."""
    import teleport_lab

    modules = [importlib.import_module(f"teleport_lab.{info.name}")
               for info in pkgutil.iter_modules(teleport_lab.__path__)]
    wrappers = {}
    for qualname in TRACED:
        module_name, fn_name = qualname.split(".")
        fn = getattr(importlib.import_module(f"teleport_lab.{module_name}"), fn_name)
        wrappers[id(fn)] = (fn, tracer.wrap(qualname, fn))
    for module in modules:
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])


# ---------------------------------------------------------------------------
# Reading spans back


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[str, float]:
    """Per span name: summed duration minus the part covered by child spans."""
    children: dict[int, list] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out: dict[str, float] = {}
    for index, (name, start, end, *_rest) in enumerate(spans):
        inner = [(max(s, start), min(e, end)) for s, e in children.get(index, ())]
        own = (end - start) - _covered([iv for iv in inner if iv[1] > iv[0]])
        out[name] = out.get(name, 0.0) + own
    return out


def call_counts(spans) -> dict[str, int]:
    out: dict[str, int] = {}
    for span in spans:
        out[span[0]] = out.get(span[0], 0) + 1
    return out


def top_level_covered(spans, start: float, end: float) -> float:
    """Time within [start, end] covered by spans that have no parent."""
    return _covered([(max(s[1], start), min(s[2], end)) for s in spans
                     if s[3] < 0 and min(s[2], end) > max(s[1], start)])
