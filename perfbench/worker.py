"""One workload in its own process: warm-up, timed passes, output checks.

Started by ``run.py`` with PYTHONPATH pointing at the checkout's ``src``.
Writes one JSON result file (and, when traced, the raw spans) and exits 0
unless the benchmark itself broke; failing program calls are counted in
the result, not raised.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --size default --root . --out RESULT.json
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import biortho
import spans
import workloads

# a median needs at least this many timed passes, whatever --seconds says
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
MAX_FAILURE_MESSAGES = 20


def run_pass(workload, tracer=None) -> tuple:
    """Run every call once; return (seconds per call, outputs)."""
    seconds, outputs = [], []
    for index, call in enumerate(workload.calls):
        if tracer is not None:
            tracer.call_id = index
        start = time.perf_counter()
        try:
            output = call.run()
        except Exception as exc:  # a failing call is a counted failure
            output = exc
            traceback.print_exc(file=sys.stderr)
        seconds.append(time.perf_counter() - start)
        outputs.append(output)
    return seconds, outputs


def check_pass(workload, outputs, reference) -> list:
    """Failure messages, one list per call (empty when the call passed)."""
    failures = []
    for call, output, first in zip(workload.calls, outputs, reference):
        if isinstance(output, Exception):
            failures.append([f"raised {type(output).__name__}: {output}"])
            continue
        found = call.check(output)
        if call.cli and not isinstance(first, Exception) and output[1] != first[1]:
            found.append("report differs from the first pass for the same config")
        failures.append(found)
    return failures


class Run:
    """Timed passes of one workload, with their outputs checked."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.messages: list = []
        self.report_bytes: list = []

    def one_pass(self, tracer=None) -> list:
        seconds, outputs = run_pass(self.workload, tracer)
        if self.reference is None:
            self.reference = outputs
        for call, found in zip(self.workload.calls, check_pass(self.workload, outputs, self.reference)):
            self.attempted += 1
            if found:
                self.failed += 1
                room = MAX_FAILURE_MESSAGES - len(self.messages)
                self.messages.extend(f"{call.name}: {m}" for m in found[:max(room, 0)])
        self.report_bytes.append(sum(len(o[1]) for c, o in zip(self.workload.calls, outputs)
                                     if c.cli and not isinstance(o, Exception)))
        return seconds

    def passes(self, budget: float, minimum: int, tracer=None) -> list:
        """Per-call seconds of each pass, while another pass of median
        length still fits in the budget (and at least ``minimum`` passes)."""
        out = []
        start = time.perf_counter()
        while len(out) < minimum or (time.perf_counter() - start
                                     + statistics.median(sum(p) for p in out) <= budget):
            if tracer is not None:
                tracer.begin_pass()
            out.append(self.one_pass(tracer))
        return out


def median_layers(passes, call_id=None) -> dict:
    """Per-layer metrics, each the median over passes of its per-pass value."""
    layers = [spans.layer_metrics(p, call_id) for p in passes]
    return {key: statistics.median_low(m[key] for m in layers) for key in layers[0]}


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "biortho": biortho.__version__,
        "biortho_path": str(Path(biortho.__file__).parent.relative_to(root)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    root = args.root.resolve()
    if not Path(biortho.__file__).resolve().is_relative_to(root / "src"):
        print(f"biortho imported from {biortho.__file__}, not from {root / 'src'}",
              file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(dir=args.out.parent) as workdir:
        workload = workloads.build(args.workload, args.seed, args.size, Path(workdir))
        run = Run(workload)
        run.one_pass()                                  # warm-up, checked
        result = {"calls": [c.name for c in workload.calls], "head": workload.head,
                  "inputs": workload.inputs}
        if args.trace:
            tracer = spans.Tracer()
            half = args.seconds / 2
            plain = run.passes(half, MIN_TRACED_PASSES)
            tracer.install()
            try:
                traced = run.passes(half, MIN_TRACED_PASSES, tracer)
                tracer.track_peak = True
                tracer.begin_pass()
                run.one_pass(tracer)
                peak_pass = tracer.passes.pop()
            finally:
                tracer.uninstall()
            plain_s = statistics.median(sum(p) for p in plain)
            traced_s = statistics.median(sum(p) for p in traced)
            result["layers"] = median_layers(tracer.passes)
            result["call_layers"] = {call.name: median_layers(tracer.passes, index)
                                     for index, call in enumerate(workload.calls)}
            result["layers"]["evolution.peak_mb"] = \
                spans.layer_metrics(peak_pass)["evolution.peak_mb"]
            result["layers"]["cli.report_kb"] = statistics.median(run.report_bytes) / 1e3
            result["layers"]["trace.overhead_frac"] = traced_s / plain_s - 1.0
            result["span_table"] = spans.span_table(tracer.passes[-1])
            timed = traced
            spans_path = args.out.with_name(args.out.stem + "-spans.json")
            spans_path.write_text(json.dumps(
                {"fields": ["name", "layer", "start", "end", "parent", "call_id", "info"],
                 "passes": tracer.passes}))
            result["spans_file"] = spans_path.name
        else:
            timed = run.passes(args.seconds, MIN_PASSES)
        result["pass_samples"] = [sum(p) for p in timed]
        result["call_samples"] = {c.name: [p[i] for p in timed]
                                  for i, c in enumerate(workload.calls)}

    result.update({
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.messages,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "environment": environment(root),
    })
    args.out.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
