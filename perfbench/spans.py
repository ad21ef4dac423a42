"""Span recording around the public functions of each biortho layer.

Tracing is installed from outside the package: every public module-level
function of a layer module is replaced, in every biortho module namespace
that holds it, by a wrapper that records one span per call. Intra-package
calls resolve names through module globals, so nested calls become child
spans. ``uninstall`` restores the original functions.

A span is (name, layer, start, end, parent, call_id, info); ``parent`` is
the index of the enclosing span in the same list (or -1) and ``info`` holds
counts observed on the returned value at that boundary.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc

import numpy as np

LAYERS = ("fock", "models", "spectral", "antilinear", "evolution", "lorentz", "cli")
MB = 1e6

# an overlap trace whose max_drift exceeds this, or is not finite, counts
# as drifting (pairing overlaps are time-independent, so honest drift is
# roundoff)
DRIFT_FLAG = 1e-6


def _matrix_info(H) -> dict:
    H = np.asarray(getattr(H, "matrix", H))
    return {"matrix_bytes": H.nbytes, "nnz": int(np.count_nonzero(H)), "entries": H.size}


def _eigendecompose_info(system) -> dict:
    return {
        "defective": len(system.defective_indices),
        "indices": system.dimension,
        "pairing_residual": float(system.pairing_residual),
    }


def _overlap_trace_info(trace) -> dict:
    literal = int(np.count_nonzero(np.abs(trace.times) <= trace.literal_time_bound))
    drift = trace.max_drift
    return {
        "literal_steps": literal,
        "overlap_bytes": trace.overlaps.nbytes,
        "drift_flagged": int(not np.isfinite(drift) or drift > DRIFT_FLAG),
    }


# counts taken from a function's return value, keyed by (layer, name)
OBSERVERS = {
    ("models", "cubic_hamiltonian"): _matrix_info,
    ("models", "harmonic_hamiltonian"): _matrix_info,
    ("models", "pu_hamiltonian_fock"): _matrix_info,
    ("models", "dimer_hamiltonian"): _matrix_info,
    ("spectral", "eigendecompose"): _eigendecompose_info,
    ("spectral", "classify_spectrum"): lambda c: {"leftovers": len(c.leftovers)},
    ("antilinear", "commutes_with"): lambda c: {"symmetry_residual": float(c.residual)},
    ("evolution", "overlap_trace"): _overlap_trace_info,
}
# functions whose Python-heap peak (numpy buffers included) is recorded
PEAK_TRACKED = {("evolution", "overlap_trace")}


class Tracer:
    """In-memory span lists, one per pass; ``call_id`` tags the current call."""

    def __init__(self):
        self.passes: list = []
        self.spans: list = []
        self._stack: list = []
        self.call_id = -1
        # tracemalloc slows the traced function down, so peaks are taken
        # only when this is set, on a pass whose timings are not used
        self.track_peak = False
        self._patched: list = []

    def begin_pass(self):
        """Start a fresh span list; every pass's list is kept in ``passes``."""
        self.spans = []
        self._stack = []
        self.passes.append(self.spans)

    def wrap(self, layer: str, name: str, fn):
        observer = OBSERVERS.get((layer, name))
        track_peak = (layer, name) in PEAK_TRACKED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            record = [f"{layer}.{name}", layer, time.perf_counter(), 0.0,
                      parent, self.call_id, None]
            self.spans.append(record)
            self._stack.append(index)
            peaking = track_peak and self.track_peak and not tracemalloc.is_tracing()
            if peaking:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                if peaking:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()
            info = observer(result) if observer else {}
            if peaking:
                info["peak_bytes"] = peak
            record[6] = info or None
            return result

        return traced

    def install(self):
        """Replace every public layer function, wherever biortho holds it."""
        modules = {layer: importlib.import_module(f"biortho.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, value in vars(module).items():
                if (inspect.isfunction(value) and not name.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[value] = self.wrap(layer, name, value)
        for module in (*modules.values(), importlib.import_module("biortho")):
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, name, wrappers[value])
                    self._patched.append((module, name, value))

    def uninstall(self):
        for module, name, value in reversed(self._patched):
            setattr(module, name, value)
        self._patched = []


def self_times(spans) -> list:
    """Duration of each span minus the time its direct children cover."""
    out = [end - start for _, _, start, end, _, _, _ in spans]
    for _, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _info_values(spans, key, call_id):
    return [s[6][key] for s in spans
            if s[6] and key in s[6] and call_id in (None, s[5])]


def boundary_self_times(spans) -> dict:
    """Layer self time of each span that enters a layer from outside it.

    That is the span's duration minus the part covered by spans of other
    layers beneath it; same-layer helpers (``expm_series`` inside
    ``overlap_trace``) count towards the function that entered the layer.
    Returns {span index: seconds} for the boundary spans only.
    """
    entry = []
    out: dict = {}
    for index, (span, own) in enumerate(zip(spans, self_times(spans))):
        parent = span[4]
        if parent < 0 or spans[parent][1] != span[1]:
            entry.append(index)
            out[index] = 0.0
        else:
            entry.append(entry[parent])
        out[entry[index]] += own
    return out


def layer_metrics(spans, call_id=None) -> dict:
    """Per-layer metrics of one pass (or of one of its calls), named as in
    BENCHMARK.json.

    ``<layer>.busy_s`` and ``<layer>.<function>_s`` are layer self times
    (see ``boundary_self_times``); ``<layer>.calls`` counts entries into
    the layer from another layer or from the benchmark.
    """
    by_name: dict = {}
    by_layer: dict = {}
    calls: dict = {layer: 0 for layer in LAYERS}
    for index, own in boundary_self_times(spans).items():
        name, layer, _, _, _, span_call, _ = spans[index]
        if call_id not in (None, span_call):
            continue
        by_name[name] = by_name.get(name, 0.0) + own
        by_layer[layer] = by_layer.get(layer, 0.0) + own
        calls[layer] += 1

    def own(name):
        return by_name.get(name, 0.0)

    def total(key):
        return sum(_info_values(spans, key, call_id))

    def peak(key):
        return max(_info_values(spans, key, call_id), default=0.0)

    entries = total("entries")
    indices = total("indices")
    return {
        "models.busy_s": by_layer.get("models", 0.0),
        "models.calls": calls["models"],
        "models.matrix_mb": total("matrix_bytes") / MB,
        "models.nnz_frac": total("nnz") / entries if entries else 0.0,
        "fock.busy_s": by_layer.get("fock", 0.0),
        "fock.calls": calls["fock"],
        "spectral.eigendecompose_s": own("spectral.eigendecompose"),
        "spectral.classify_s": own("spectral.classify_spectrum"),
        "spectral.calls": calls["spectral"],
        "spectral.defective_count": total("defective"),
        "spectral.leftover_count": total("leftovers"),
        "spectral.pairing_residual_max": peak("pairing_residual"),
        "spectral.useful_frac": (indices - total("defective")) / indices if indices else 0.0,
        "antilinear.commutes_with_s": own("antilinear.commutes_with"),
        "antilinear.find_symmetry_s": own("antilinear.find_antilinear_symmetry"),
        "antilinear.build_c_s": own("antilinear.build_c_operator"),
        "antilinear.calls": calls["antilinear"],
        "antilinear.symmetry_residual_max": peak("symmetry_residual"),
        "evolution.overlap_trace_s": own("evolution.overlap_trace"),
        "evolution.selection_rule_s": own("evolution.selection_rule_check"),
        "evolution.euclidean_s": own("evolution.euclidean_reality"),
        "evolution.calls": calls["evolution"],
        "evolution.literal_steps": total("literal_steps"),
        "evolution.overlap_mb": total("overlap_bytes") / MB,
        "evolution.peak_mb": peak("peak_bytes") / MB,
        "evolution.drift_flagged": total("drift_flagged"),
        "lorentz.busy_s": by_layer.get("lorentz", 0.0),
        "lorentz.calls": calls["lorentz"],
        "cli.self_s": by_layer.get("cli", 0.0),
    }


def span_table(spans) -> dict:
    """name -> [calls, inclusive seconds, self seconds] over one pass."""
    table: dict = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span[0], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span[3] - span[2]
        row[2] += own
    return table
