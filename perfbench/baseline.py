"""Record the benchmark's numbers for the current sources in baseline.json.

    python3 perfbench/baseline.py [--seconds 35]

Runs every workload at seed 0 untraced and traced, and the README-size
``spectrum-dense`` inputs traced (PU 40,40 real regime: about 25 s per
call, several minutes in all). The head call's stage split is stored next
to the hand-measured split that ROADMAP.md quotes for the same call.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, OUT_DIR, ROOT, WORKLOADS

# ROADMAP.md baseline for `spectrum --model pu --truncation 40,40`, best of 1
ROADMAP_PU_40X40 = {"total_s": 24.3, "assemble_s": 1.9, "eigendecompose_s": 16.0,
                    "commutes_with_s": 3.4, "classify_s": 0.6}


def bench(workload: str, size: str, trace: int, seconds: float) -> dict:
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", "0", "--seconds", str(seconds), "--trace", str(trace),
                    "--size", size], cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    path = OUT_DIR / f"{workload}-{size}-seed0-trace{trace}.json"
    return json.loads(path.read_text())


def stage_split(result: dict) -> dict:
    """Layer self times of the head call, in the ROADMAP's stage names."""
    layers = result["call_layers"][result["head"]]
    samples = sorted(result["call_samples"][result["head"]])
    return {
        "call": result["head"],
        "traced_samples": len(samples),
        "total_s": samples[(len(samples) - 1) // 2],
        "assemble_s": layers["models.busy_s"] + layers["fock.busy_s"],
        "eigendecompose_s": layers["spectral.eigendecompose_s"],
        "commutes_with_s": layers["antilinear.commutes_with_s"],
        "classify_s": layers["spectral.classify_s"],
        "defective_count": layers["spectral.defective_count"],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=35.0)
    args = parser.parse_args()

    baseline = {"seed": 0, "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        plain = bench(workload, "default", 0, args.seconds)
        traced = bench(workload, "default", 1, args.seconds)
        baseline["workloads"][workload] = {
            "end_to_end": plain["metrics"], "per_layer": traced["metrics"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "head_stage_split": stage_split(traced),
        }
    full = bench("spectrum-dense", "full", 1, 1.0)
    measured = stage_split(full)
    baseline["readme_spectrum_pu_40x40"] = {
        "measured": measured, "roadmap": ROADMAP_PU_40X40,
        "measured_over_roadmap": {k: measured[k] / v for k, v in ROADMAP_PU_40X40.items()},
        "failed": full["failed"]}
    for key in ("git_commit", "source_sha256", "environment"):
        baseline[key] = full[key]
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
