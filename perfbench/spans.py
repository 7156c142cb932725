"""Tracing for the benchmark: spans around brightdark's functions, taken from outside.

``Tracer.install`` replaces every function of the package, in every module
namespace that binds it (``brightdark.fock.apply_field`` and
``brightdark.classify.apply_field`` alike), with a wrapper that records a
span while the tracer is active: name, start, end, parent span and op id.
Spans stay in memory until the run ends. No source file of the package
changes.

``per_layer`` turns the spans into the per-layer metrics: calls, inclusive
and self time (span minus the time its child spans cover) of each function
and module, plus work counts computed from the arguments at the boundary.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("fock", "states", "classify", "collective", "counting", "pulses", "cavity", "cli")


def _enumerated(args, kwargs, result, error):
    if error is not None:
        return {}
    scanned = 2 ** (args[0] - 1)
    return {"vectors_scanned": scanned, "hits": len(result)}


def _unlocked(args, kwargs, result, error):
    if error is not None:
        return {}
    modes = result.metadata["m_total"]
    return {"mode_samples": len(result.t) * modes,
            "unique_mode_samples": result.metadata["samples_per_period"] * modes}


def _main_exit(args, kwargs, result, error):
    code = error.code if isinstance(error, SystemExit) else result
    return {"exit_nonzero": int(code not in (0, None))}


# Work counts taken at a function's boundary: f(args, kwargs, result, error) -> counts.
# Each cli op writes into a fresh in-memory stdout, and _emit_json is the only
# writer of a JSON command, so the stream position after it is its output size.
COUNTERS = {
    "fock.apply_field": lambda a, kw, r, e: {"terms_in": len(a[0].terms)},
    "states.coherent_state": lambda a, kw, r, e: {} if e else {"terms_out": len(r.terms)},
    "classify.scan_phase": lambda a, kw, r, e: {} if e else {"points": len(r)},
    "counting.enumerate_sign_states": _enumerated,
    "pulses.intensity_series": lambda a, kw, r, e: {} if e else {"samples": len(r.t)},
    "pulses.amplitude_closed": lambda a, kw, r, e: {"samples": np.size(a[1])},
    "pulses.unlocked_intensity": _unlocked,
    "pulses.series_to_csv": lambda a, kw, r, e: {} if e else {"bytes_out": len(r)},
    "cli._emit_json": lambda a, kw, r, e: {"bytes_out": sys.stdout.tell()},
    "cli.main": _main_exit,
}

# Functions whose calls, inclusive and self time are reported; a metric name
# may stand for several functions.
FUNCTIONS = {
    "fock.apply_field": ("fock.apply_field",),
    "states.coherent_state": ("states.coherent_state",),
    "states.single_photon_state": ("states.single_photon_state",),
    "states.two_mode": ("states.two_mode_bright", "states.two_mode_dark"),
    "classify.classify_fock": ("classify.classify_fock",),
    "classify.classify_coherent": ("classify.classify_coherent",),
    "classify.scan_phase": ("classify.scan_phase",),
    "collective.build_basis": ("collective.build_basis",),
    "collective.to_collective": ("collective.to_collective",),
    "collective.from_collective": ("collective.from_collective",),
    "counting.enumerate_sign_states": ("counting.enumerate_sign_states",),
    "counting.locked_dark_phases": ("counting.locked_dark_phases",),
    "pulses.intensity_series": ("pulses.intensity_series",),
    "pulses.pulse_metrics": ("pulses.pulse_metrics",),
    "pulses.amplitude_closed": ("pulses.amplitude_closed",),
    "pulses.unlocked_intensity": ("pulses.unlocked_intensity",),
    "pulses.series_to_csv": ("pulses.series_to_csv",),
    "cavity.ratio_report": ("cavity.ratio_report",),
    "cli.main": ("cli.main",),
    "cli.build_parser": ("cli.build_parser",),
    "cli._emit_json": ("cli._emit_json",),
}

# Every per-layer metric: (name, unit, better).
METRICS = (
    [("import.brightdark_s", "s", "lower")]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [(f"{fn}.{stat}", unit, "lower") for fn in FUNCTIONS
       for stat, unit in (("calls", "count"), ("incl_s", "s"), ("self_s", "s"))]
    + [
        ("fock.apply_field.terms_in", "count", "lower"),
        ("states.coherent_state.terms_out", "count", "lower"),
        ("classify.scan_phase.points", "count", "lower"),
        ("counting.enumerate_sign_states.vectors_scanned", "count", "lower"),
        ("counting.enumerate_sign_states.hit_ratio", "fraction", "higher"),
        ("pulses.intensity_series.samples", "count", "lower"),
        ("pulses.amplitude_closed.samples", "count", "lower"),
        ("pulses.unlocked_intensity.mode_samples", "count", "lower"),
        ("pulses.unlocked_intensity.computed_bytes", "bytes", "lower"),
        ("pulses.unlocked_intensity.unique_ratio", "fraction", "higher"),
        ("pulses.series_to_csv.bytes_out", "bytes", "lower"),
        ("pulses.peak_alloc_mb", "MB", "lower"),
        ("cli._emit_json.bytes_out", "bytes", "lower"),
        ("cli.exit_nonzero", "count", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)

# Memory is traced only inside these numeric pulses calls: tracemalloc taxes
# every allocation, and series_to_csv makes a few per row.
_ALLOC_TRACED = {"pulses.intensity_series", "pulses.unlocked_intensity",
                 "pulses.amplitude_closed", "pulses.pulse_metrics"}


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = -1
        self.spans: list[tuple] = []  # (name, start, end, parent index, op id)
        self.counts: dict[str, float] = defaultdict(float)
        self.peak_alloc = 0
        self._stack: list[int] = []
        self._alloc_depth = 0

    def install(self) -> None:
        """Wrap every brightdark function in every module namespace that binds it."""
        import brightdark

        modules = [brightdark] + [importlib.import_module(f"brightdark.{m}") for m in LAYERS]
        wrapped = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or not obj.__module__.startswith("brightdark."):
                    continue
                name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                if attr.startswith("_") and name not in COUNTERS:
                    continue
                if obj not in wrapped:
                    wrapped[obj] = self._wrap(name, obj)
                setattr(module, attr, wrapped[obj])

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        trace_alloc = name in _ALLOC_TRACED
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if trace_alloc and self._alloc_depth == 0:
                tracemalloc.start()
            self._alloc_depth += trace_alloc
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:  # recorded, then re-raised
                error = exc
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
                self._alloc_depth -= trace_alloc
                if trace_alloc and self._alloc_depth == 0:
                    self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                if counter is not None:
                    for key, value in counter(args, kwargs, result, error).items():
                        self.counts[f"{name}.{key}"] += value

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

    def per_layer(self) -> dict[str, float]:
        """Per-layer metrics from the spans and counts; overhead and import time are added by the caller."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, incl, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            calls[name] += 1
            incl[name] += end - start
            self_s[name] += end - start - covered
            self_s[name.split(".", 1)[0]] += end - start - covered
        out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        for metric, names in FUNCTIONS.items():
            out[f"{metric}.calls"] = sum(calls[n] for n in names)
            out[f"{metric}.incl_s"] = sum(incl[n] for n in names)
            out[f"{metric}.self_s"] = sum(self_s[n] for n in names)
        c = self.counts
        scanned = c["counting.enumerate_sign_states.vectors_scanned"]
        mode_samples = c["pulses.unlocked_intensity.mode_samples"]
        out.update({
            "fock.apply_field.terms_in": c["fock.apply_field.terms_in"],
            "states.coherent_state.terms_out": c["states.coherent_state.terms_out"],
            "classify.scan_phase.points": c["classify.scan_phase.points"],
            "counting.enumerate_sign_states.vectors_scanned": scanned,
            "counting.enumerate_sign_states.hit_ratio":
                c["counting.enumerate_sign_states.hits"] / scanned if scanned else 0.0,
            "pulses.intensity_series.samples": c["pulses.intensity_series.samples"],
            "pulses.amplitude_closed.samples": c["pulses.amplitude_closed.samples"],
            "pulses.unlocked_intensity.mode_samples": mode_samples,
            # Computed, not measured: the complex S*P*M temporary of the mode sum.
            "pulses.unlocked_intensity.computed_bytes": 16 * mode_samples,
            "pulses.unlocked_intensity.unique_ratio":
                c["pulses.unlocked_intensity.unique_mode_samples"] / mode_samples
                if mode_samples else 0.0,
            "pulses.series_to_csv.bytes_out": c["pulses.series_to_csv.bytes_out"],
            "pulses.peak_alloc_mb": self.peak_alloc / 2**20,
            "cli._emit_json.bytes_out": c["cli._emit_json.bytes_out"],
            "cli.exit_nonzero": c["cli.main.exit_nonzero"],
        })
        return out
