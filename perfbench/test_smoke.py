"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload through ``run.py`` untraced and traced, checks that
each metric named in BENCHMARK.json is printed with its unit, and shows
that the output checks trip on deliberately wrong references.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import Run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_with_its_unit(workload, trace):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_level_check_trips_on_wrong_reference():
    size = workloads.SIZES["tiny"]
    load = workloads.spectrum_dense(3, size, Path("."))
    code, text = load.calls[0].run()
    evals = [complex(e["re"], e["im"]) for e in json.loads(text)["eigenvalues"]]
    real, _ = workloads._pu_params(3)
    reference, tol = workloads._pu_reference(real, size["pu_real"], size)
    assert code == 0 and workloads.check_levels(evals, reference, tol) == []
    assert workloads.check_levels(evals, reference + 10 * tol, tol)


def test_overlap_and_symmetry_checks_trip():
    report = {"selection_rule": {"ok": True}, "max_drift": 1e-3, "method_agreement": 0.0}
    assert workloads._overlap_check((0, json.dumps(report)))
    assert workloads._overlap_check((1, json.dumps(report)))
    wrong = {"residual": 1.0, "c_commutator": 0.0, "selection_rule_ok": True,
             "trace_real": True}
    assert workloads._symmetry_check(1e-8)(wrong)


def test_changed_report_counts_as_failure(tmp_path):
    load = workloads.overlap_unbroken(3, workloads.SIZES["tiny"], tmp_path)
    run = Run(load)
    run.one_pass()
    assert run.failed == 0
    code, text = run.reference[0]
    run.reference[0] = (code, text.replace("max_drift", "max_drift_"))
    run.one_pass()
    assert run.failed == 1
    assert "differs" in run.messages[0]
