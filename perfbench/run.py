"""biortho pipeline benchmark.

    python3 perfbench/run.py --workload spectrum-dense --seed 1 --seconds 35 --trace 0

Workloads (see workloads.py): ``spectrum-dense``, ``overlap-unbroken``,
``symmetry-search``. Run from the root of a source checkout; the package is
imported from its ``src`` directory, never from an installed copy.

With ``--trace 0`` the benchmark times fresh-interpreter set-up, then runs
the workload in a child process: one checked warm-up pass, then timed
passes for ``--seconds``. It prints the end-to-end metrics (medians over
set-ups, passes and head calls, plus peak RSS) and the failure fraction.
With ``--trace 1`` the child wraps every public layer function in spans
and prints the per-layer metrics and the tracing overhead instead.
Every call's output is checked on every pass; failed checks make
``correct`` false.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The full result, stamped with
the environment, is written to ``.perfbench_out/`` in the checkout.
``--size tiny`` (smoke test) and ``--size full`` (README-size inputs,
slow) change the inputs; the default is what the benchmark measures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

# the builders are in workloads.py; this process does not import numpy
WORKLOADS = ("spectrum-dense", "overlap-unbroken", "symmetry-search")
SETUP_PROBES = 5
# BLAS threads for every child. On a shared 2-CPU machine two OpenBLAS
# threads were 5-20% faster, but a busy neighbour made one call 6x slower;
# a single thread leaves the second CPU to the rest of the machine.
BLAS_THREADS = 1
# the whole run, set-up probes included, must end well within 180 s;
# README-size inputs take about 25 s per pass and get longer
DEADLINE_S = {"tiny": 170.0, "default": 170.0, "full": 900.0}

END_TO_END = {"setup_s": "s", "pass_s": "s", "head_call_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "models.busy_s": "s", "models.calls": "count", "models.matrix_mb": "MB",
    "models.nnz_frac": "frac", "fock.busy_s": "s", "fock.calls": "count",
    "spectral.eigendecompose_s": "s", "spectral.classify_s": "s",
    "spectral.calls": "count", "spectral.defective_count": "count",
    "spectral.leftover_count": "count", "spectral.pairing_residual_max": "abs",
    "spectral.useful_frac": "frac",
    "antilinear.commutes_with_s": "s", "antilinear.find_symmetry_s": "s",
    "antilinear.build_c_s": "s", "antilinear.calls": "count",
    "antilinear.symmetry_residual_max": "rel",
    "evolution.overlap_trace_s": "s", "evolution.selection_rule_s": "s",
    "evolution.euclidean_s": "s", "evolution.calls": "count",
    "evolution.literal_steps": "count", "evolution.overlap_mb": "MB",
    "evolution.peak_mb": "MB", "evolution.drift_flagged": "count",
    "lorentz.busy_s": "s", "lorentz.calls": "count",
    "cli.self_s": "s", "cli.report_kb": "kB",
    "trace.overhead_frac": "frac",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(BLAS_THREADS)
    return env


def git_commit() -> str | None:
    """HEAD of the checkout, read without running git (None outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class ChildFailed(Exception):
    pass


def run_child(argv: list, env: dict, deadline: float, stdout) -> None:
    """Run a child to completion, killing it at the deadline.

    A blocking wait, not ``subprocess.run(timeout=...)``: the latter polls
    with sleeps of up to 50 ms, which would quantize the set-up times.
    """
    proc = subprocess.Popen([sys.executable, *argv], env=env, cwd=ROOT, stdout=stdout)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    if code != 0:
        raise ChildFailed(f"{' '.join(argv[:3])} exited with {code}")


def setup_seconds(env: dict, deadline: float) -> list:
    """Wall time of fresh interpreters that import the CLI and run one call."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        run_child([str(HERE / "probe.py")], env, deadline, subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


def describe(samples: list) -> str:
    """Median with its sample count, and the highest percentile that has
    at least ten samples beyond it, where the count allows one."""
    n = len(samples)
    text = f"median of {n}"
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1 - pct / 100) >= 10:
            value = statistics.quantiles(samples, n=1000)[int(pct * 10) - 1]
            return f"{text}; p{pct:g} {value:.6g}"
    return text + "; too few samples for a tail percentile"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(DEADLINE_S), default="default")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    deadline = time.monotonic() + DEADLINE_S[args.size]
    if not (ROOT / "src" / "biortho" / "__init__.py").is_file():
        print(f"no biortho sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    env = child_env()
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    out_path = OUT_DIR / f"{stem}.json"
    out_path.unlink(missing_ok=True)

    try:
        setup = [] if args.trace else setup_seconds(env, deadline)
        run_child([str(HERE / "worker.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--size", args.size,
                   "--root", str(ROOT), "--out", str(out_path)],
                  env, deadline, sys.stderr)
    except ChildFailed as exc:
        print(f"benchmark child failed: {exc}", file=sys.stderr)
        return 1
    result = json.loads(out_path.read_text())

    if args.trace:
        values = {name: result["layers"][name] for name in PER_LAYER}
        notes = {}
    else:
        head = result["call_samples"][result["head"]]
        values = {
            "setup_s": statistics.median(setup),
            "pass_s": statistics.median(result["pass_samples"]),
            "head_call_s": statistics.median(head),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        notes = {"setup_s": describe(setup), "pass_s": describe(result["pass_samples"]),
                 "head_call_s": f"{result['head']}, " + describe(head),
                 "peak_rss_mb": "ru_maxrss of the workload's process"}
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    attempted, failed = result["attempted"], result["failed"]

    print(f"workload {args.workload} (size {args.size}, seed {args.seed}, "
          f"trace {args.trace}, {BLAS_THREADS} BLAS thread(s))")
    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:34s} {value:14.6g} {units[name]}{note}")
    print(f"  {'fail_frac':34s} {failed / attempted:14.6g} frac  ({failed}/{attempted} calls)")
    if args.trace:
        print("  spans of the last traced pass: calls, inclusive s, self s")
        for name, (count, inclusive, own) in sorted(
                result["span_table"].items(), key=lambda kv: -kv[1][2]):
            print(f"    {name:44s} {count:6d} {inclusive:10.4f} {own:10.4f}")
    for message in result["failures"]:
        print(f"  FAILED {message}")

    result.update({"workload": args.workload, "seed": args.seed, "size": args.size,
                   "seconds": args.seconds, "trace": args.trace,
                   "setup_samples": setup, "git_commit": git_commit(),
                   "source_sha256": source_digest(),
                   "metrics": metrics})
    out_path.write_text(json.dumps(result, indent=1))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
