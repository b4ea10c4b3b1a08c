"""Outside-in tracing of the photonloc layers.

The benchmark does not edit the package.  Instead it replaces each public
function listed in ``LAYERS`` by a wrapper in every photonloc module
namespace that holds it (the package re-exports names with ``from .x
import y``, so patching only the defining module would miss most callers).
Each call records a span (name, start, end, parent span, op id) in memory;
spans are written out once, when the run ends.  Self time is a span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

from workloads import SUITES

# What a layer reports: its calls, its self time, the bytes of its file.
CALLS, SELF, CALLS_SELF = ("calls",), ("self_s",), ("calls", "self_s")
FILE = ("calls", "self_s", "bytes")
KIND_UNITS = {"calls": "count", "self_s": "s", "bytes": "B"}

# (module, function, span name, reported); the span name is the metric
# prefix.  Layers that report nothing are traced for their hooks and so
# that their time is not charged to their callers.
LAYERS = [
    ("fields", "forward_transform", "fields.forward_transform", CALLS),
    ("fields", "inverse_transform", "fields.inverse_transform", CALLS),
    *[("operators", f, f"operators.{f}", CALLS_SELF) for f in (
        "helicity_apply", "helicity_project", "apply_frequency_power",
        "transverse_project", "transversality_residual", "curl",
        "momentum_amplitudes", "synthesize_from_amplitudes")],
    ("operators", "_unit_k", "operators._unit_k", CALLS),
    ("states", "bb_from_lp", "states.bb_from_lp", CALLS_SELF),
    ("states", "lp_from_bb", "states.lp_from_bb", CALLS_SELF),
    ("states", "evolve", "states.evolve", CALLS_SELF),
    ("states", "_check_state_field", "states.validate", CALLS_SELF),
    ("energy", "energy_density", "energy.energy_density", CALLS_SELF),
    ("energy", "knight_locality_test", "energy.knight_locality_test", SELF),
    ("energy", "detector_energy", "energy.detector_energy", CALLS),
    *[("locality", f, f"locality.{f}", SELF) for f in (
        "tail_exponent_fit", "helicity_vanishing_scan", "support_estimate",
        "antilocality_witness")],
    ("checks", "run_all_checks", "checks.run_all_checks", ()),
    ("checks", "_rel", "checks._rel", SELF),
    *[("checks", f"suite_{f}", "checks.suite", ()) for f in (
        "operator_algebra", "isomorphism", "two_path", "parseval_energy",
        "truth_table", "nonlocality_floor", "tail_quantification",
        "vector_potential", "lemma_witnesses", "determinism")],
    ("scenarios", "figure2_report", "scenarios.figure2_report", SELF),
    ("scenarios", "state_curves", "scenarios.state_curves", SELF),
    *[("serialization", f, f"serialization.{f}", FILE) for f in (
        "write_csv", "write_json", "save_state", "load_state")],
    ("svgplot", "line_plot", "svgplot.line_plot", FILE),
    ("cli", "main", "cli.main", SELF),
]

FILE_LAYERS = tuple(span for _, _, span, reported in LAYERS if "bytes" in reported)

# Metrics that are not a layer's calls, self time or file bytes.
DERIVED_UNITS = {
    "fields.transform.self_s": "s",
    "fields.transform.bytes": "B",
    "operators.transversality_residual.pretrusted_frac": "ratio",
    "energy.energy_density.alloc_per_field": "ratio",
    "locality.tail_exponent_fit.samples": "count",
    **{f"checks.suite.{suite}.s": "s" for suite in SUITES},
    "checks.min_margin_dec": "dec",
    "trace.ops_per_s": "1/s",
    "trace.spans_per_op": "count",
}


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in reporting order."""
    units = {f"{span}.{kind}": KIND_UNITS[kind]
             for _, _, span, reported in LAYERS for kind in reported}
    units.update(DERIVED_UNITS)
    return units


def _field_of(state):
    return state.psi if hasattr(state, "psi") else state.f


def _check_margin(check) -> float:
    """Decades between a check's value and its bound (inf when unmeasurable)."""
    value, bound = abs(check.value), abs(check.bound)
    if value == 0.0 or bound == 0.0:
        return math.inf
    ratio = value / bound if check.comparator == ">" else bound / value
    return math.log10(ratio)


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.stack = []
        self.op = -1
        self.counts = Counter()
        self.totals = defaultdict(float)
        self.alloc_ratio = 0.0
        self.min_margin = math.inf

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        self.stack.append(index)
        return index

    def close(self, index: int) -> float:
        self.stack.pop()
        span = self.spans[index]
        span[2] = perf_counter()
        return span[2] - span[1]

    # Hooks run outside the span they belong to, so their cost is not
    # charged to the layer.
    def _before(self, name, args):
        if name in ("fields.forward_transform", "fields.inverse_transform"):
            self.counts["fields.transform.bytes"] += 2 * args[0].data.nbytes
        elif name == "operators.transversality_residual":
            self.counts["pretrusted"] += bool(args[0].transverse)
        elif name == "energy.energy_density":
            tracemalloc.start()
        elif name == "serialization.load_state":
            self.counts["serialization.load_state.bytes"] += os.path.getsize(args[0])

    def _after(self, name, args, result, seconds, returned):
        if name == "energy.energy_density":
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            field_bytes = _field_of(args[0]).data.nbytes
            self.alloc_ratio = max(self.alloc_ratio, peak / field_bytes)
        if not returned:
            return
        if name == "checks.suite":
            self.totals[f"checks.suite.{result.name}.s"] += seconds
        elif name == "checks.run_all_checks":
            margins = [_check_margin(c) for suite in result for c in suite.checks]
            self.min_margin = min([self.min_margin, *margins])
        elif name == "locality.tail_exponent_fit":
            self.counts["locality.tail_exponent_fit.samples"] += result.n_points
        elif name == "serialization.save_state":
            self.counts[f"{name}.bytes"] += os.path.getsize(args[1])
        elif name in FILE_LAYERS and name != "serialization.load_state":
            self.counts[f"{name}.bytes"] += os.path.getsize(args[0])

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._before(name, args)
            result, returned = None, False
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                seconds = self.close(index)
                self._after(name, args, result, seconds, returned)
        return traced

    def install(self):
        """Wrap every layer function wherever a photonloc module binds it."""
        import photonloc  # noqa: F401  (loads every submodule)
        modules = [m for key, m in sys.modules.items()
                   if key == "photonloc" or key.startswith("photonloc.")]
        for module_name, func_name, span_name, _ in LAYERS:
            original = getattr(sys.modules[f"photonloc.{module_name}"], func_name)
            wrapped = self._wrap(original, span_name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

    def self_times(self):
        """(calls, self seconds) per span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls, own = Counter(), defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            own[name] += (end - start) - covered[index]
        return calls, own

    def metrics(self, n_ops: int, op_seconds: float) -> dict:
        """Per-op layer metrics, keyed as in ``metric_units``."""
        calls, own = self.self_times()
        per_op = {}
        for name in metric_units():
            layer, _, kind = name.rpartition(".")
            if kind == "calls":
                per_op[name] = calls[layer]
            elif kind == "self_s":
                per_op[name] = own[layer]
        per_op["fields.transform.self_s"] = (own["fields.forward_transform"]
                                             + own["fields.inverse_transform"])
        per_op.update(self.totals)
        per_op.update({k: v for k, v in self.counts.items() if k != "pretrusted"})
        per_op["trace.spans_per_op"] = len(self.spans)
        values = {name: per_op.get(name, 0) / n_ops for name in metric_units()}

        residuals = calls["operators.transversality_residual"]
        values["operators.transversality_residual.pretrusted_frac"] = (
            self.counts["pretrusted"] / residuals if residuals else 0.0)
        values["energy.energy_density.alloc_per_field"] = self.alloc_ratio
        values["checks.min_margin_dec"] = (
            self.min_margin if math.isfinite(self.min_margin) else 0.0)
        values["trace.ops_per_s"] = n_ops / op_seconds
        return values

    def write(self, path, header: dict):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "span_fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
            fh.write("\n")
