"""The benchmark in ``perfbench/`` runs against the library as it stands.

Each workload is built at size ``tiny`` and run for one pass under
``spans.Tracer``, by the same ``Run(...).one_pass(tracer)`` as the
benchmark worker. The tracer's observers read library names
(``BiorthogonalSystem.pairing_residual``, ``OverlapTrace.overlaps``) and
the ``symmetry-search`` workload reads the ``tol`` default of
``find_antilinear_symmetry``; a call that fails on a missing name counts
as a failed call here.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402
from worker import Run  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_workload_traced_pass_has_no_failed_call(name, tmp_path):
    run = Run(workloads.build(name, 0, "tiny", tmp_path))
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_pass()
        run.one_pass(tracer)
    finally:
        tracer.uninstall()
    assert run.attempted == len(run.workload.calls)
    assert run.failed == 0, run.messages
    assert tracer.passes[0], "the tracer recorded no span"
