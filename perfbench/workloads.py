"""The benchmark's workloads: seeded inputs, call lists and output checks.

Every call goes through biortho's public surface (``biortho.cli.main`` or a
function exported by the package), looked up at call time so that tracing
wrappers installed by ``spans.Tracer`` see it. Inputs and reference values
are made before any pass and are never timed.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import biortho
import biortho.cli

# "default" is what the benchmark measures; "full" uses the README's
# PU 40,40 example (about 25 s per call, too slow for repeated passes) and
# is kept for baseline stage splits; "tiny" is for the smoke test.
# The default inputs are sized so that a pass takes 1-2 s and a run's
# medians rest on about 20 passes, not 6-8: an overlap matrix of 96 (160
# takes 3-4 s per call), PU 20,20 / 16,16 and a symmetry ladder up to 28.
#
# PU check ("pu_levels", per regime): every formula level with Re E at or
# below the ceiling must have a computed eigenvalue within the tolerance.
# It runs formula -> computed, so truncation-edge intruders are not
# failures. Worst misses over 30 jittered seeds: 2e-5 (real, 20x20) and
# 2.6e-4 (pair, 16x16) by default, so its tolerances are ten times those,
# still far below the level spacing; 7e-8 (real, 24x24) and 4e-6 (pair,
# 20x20) already, so the full sizes keep 1e-5 and 1e-4; 2e-4 and 3e-3 at
# the tiny cutoffs.
_CONVERGED = {"real": (6.0, 1e-5), "conjugate-pair": (3.0, 1e-4)}
SIZES = {
    "tiny": {"pu_real": (10, 10), "pu_pair": (10, 10), "cubic": 60,
             "overlap_n": 24, "broken_cubic": 20, "ladder": (8, 10, 12),
             "pu_levels": {"real": (3.0, 1e-3), "conjugate-pair": (2.0, 1e-2)}},
    "default": {"pu_real": (20, 20), "pu_pair": (16, 16), "cubic": 200,
                "overlap_n": 96, "broken_cubic": 60, "ladder": (16, 20, 24, 28),
                "pu_levels": {"real": (6.0, 2e-4), "conjugate-pair": (3.0, 3e-3)}},
    "full": {"pu_real": (40, 40), "pu_pair": (30, 30), "cubic": 200,
             "overlap_n": 160, "broken_cubic": 60,
             "ladder": (16, 20, 24, 28, 32, 36), "pu_levels": _CONVERGED},
}

# cubic check: the lowest grid-oracle levels (agreement ~1e-3 at cutoff 200)
CUBIC_ORACLE_TOL = 2e-3
# overlap check on the unbroken custom matrices
OVERLAP_GATE = 1e-9
# C operator commutation with H, relative
C_COMMUTATOR_GATE = 1e-8
EUCLIDEAN_TAU = 0.1
# condition number of the eigenvector matrix S in H = S·diag(E)·S⁻¹
OVERLAP_COND = 4.0


@dataclass
class Call:
    """One call of a pass: ``run`` returns the output ``check`` inspects.

    CLI calls return (exit code, report text); the text must be identical
    on every pass (the README promises byte-identical JSON for identical
    configs).
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    cli: bool = False


@dataclass
class Workload:
    name: str
    calls: list
    head: str                      # name of the call a user waits longest for
    inputs: dict = field(default_factory=dict)


def run_cli(argv: list) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = biortho.cli.main(argv)
    return code, buf.getvalue()


def _report(output, want_code: int = 0) -> tuple:
    """Parsed JSON report and failure messages for a CLI output."""
    code, text = output
    if code != want_code:
        return None, [f"exit code {code}, expected {want_code}"]
    try:
        return json.loads(text), []
    except json.JSONDecodeError as exc:
        return None, [f"report is not JSON: {exc}"]


def check_levels(computed, reference, tol: float) -> list:
    """Each reference level must have a computed eigenvalue within tol."""
    computed = np.asarray(computed, dtype=complex)
    failures = []
    for level in np.asarray(reference, dtype=complex):
        miss = float(np.min(np.abs(computed - level)))
        if miss > tol:
            failures.append(f"level {level:.6g}: nearest eigenvalue {miss:.3e} away > {tol:.1e}")
    return failures


def _spectrum_check(reference, tol: float):
    def check(output):
        report, failures = _report(output)
        if report is None:
            return failures
        evals = [complex(e["re"], e["im"]) for e in report["eigenvalues"]]
        return check_levels(evals, reference, tol)
    return check


def _pu_params(seed: int) -> tuple:
    """(real-regime, conjugate-pair) PU parameters; seed 0 is the README's."""
    if seed == 0:
        return {"gamma": 1.0, "omega1": 1.0, "omega2": 2.0}, \
            {"gamma": 1.0, "alpha": 1.0, "beta": 0.3}
    rng = np.random.default_rng([seed, 1])
    real = {"gamma": rng.uniform(0.95, 1.05), "omega1": rng.uniform(0.95, 1.05),
            "omega2": rng.uniform(1.9, 2.1)}
    pair = {"gamma": rng.uniform(0.95, 1.05), "alpha": rng.uniform(0.95, 1.05),
            "beta": rng.uniform(0.27, 0.33)}
    return real, pair


def _pu_reference(params: dict, truncation: tuple, size: dict) -> tuple:
    """Formula levels below the size's ceiling, and the tolerance."""
    if "alpha" in params:
        pu = biortho.PUParams.from_alpha_beta(params["gamma"], params["alpha"], params["beta"])
    else:
        pu = biortho.PUParams(params["gamma"], params["omega1"], params["omega2"])
    ceiling, tol = size["pu_levels"][pu.regime]
    levels = biortho.pu_spectrum_formula(pu, truncation[0] - 1, truncation[1] - 1).ravel()
    return levels[levels.real <= ceiling], tol


def _flags(params: dict) -> list:
    argv = []
    for key, value in params.items():
        argv += [f"--{key}", repr(float(value))]
    return argv


def spectrum_dense(seed: int, size: dict, workdir: Path) -> Workload:
    real, pair = _pu_params(seed)
    oracle = biortho.cubic_oracle().eigenvalues
    calls = []
    for label, params, trunc in (("pu-real", real, size["pu_real"]),
                                 ("pu-pair", pair, size["pu_pair"])):
        reference, tol = _pu_reference(params, trunc, size)
        argv = ["spectrum", "--model", "pu", *_flags(params),
                "--truncation", f"{trunc[0]},{trunc[1]}"]
        calls.append(Call(f"{label}-{trunc[0]}x{trunc[1]}",
                          lambda argv=argv: run_cli(argv),
                          _spectrum_check(reference, tol), cli=True))
    for realization in ("position-real", "position-imaginary"):
        argv = ["spectrum", "--model", "cubic", "--truncation", str(size["cubic"]),
                "--realization", realization]
        calls.append(Call(f"cubic-{size['cubic']}-{realization}",
                          lambda argv=argv: run_cli(argv),
                          _spectrum_check(oracle, CUBIC_ORACLE_TOL), cli=True))
    return Workload("spectrum-dense", calls, head=calls[0].name,
                    inputs={"pu_real": real, "pu_pair": pair})


def nonnormal_real_spectrum(n: int, rng) -> tuple:
    """H = S·diag(E)·S⁻¹ with cond(S) = OVERLAP_COND and distinct real E."""
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    S = (u * np.geomspace(1.0, OVERLAP_COND, n)) @ v.T
    gaps = rng.uniform(0.5, 1.5, n)
    E = np.cumsum(gaps) * (4.0 / gaps.sum()) - 2.0
    return S @ np.diag(E) @ np.linalg.inv(S), E


def _overlap_check(output) -> list:
    report, failures = _report(output)
    if report is None:
        return failures
    if not report["selection_rule"]["ok"]:
        failures.append("selection rule violated")
    for key in ("max_drift", "method_agreement"):
        if not report[key] < OVERLAP_GATE:
            failures.append(f"{key} = {report[key]:.3e} not below {OVERLAP_GATE:.0e}")
    return failures


def overlap_unbroken(seed: int, size: dict, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    H, E = nonnormal_real_spectrum(size["overlap_n"], rng)
    path = workdir / "nonnormal.txt"
    biortho.cli.write_matrix_file(str(path), H)
    custom = ["overlap", "--model", "custom", "--matrix-file", str(path)]
    broken = ["overlap", "--model", "cubic", "--truncation", str(size["broken_cubic"]),
              "--realization", "position-imaginary"]
    calls = [
        Call(f"custom-{size['overlap_n']}", lambda: run_cli(custom), _overlap_check, cli=True),
        # broken phase: the drift is a diagnostic (evolution.drift_flagged),
        # so only a clean exit is required
        Call(f"cubic-{size['broken_cubic']}-broken", lambda: run_cli(broken),
             lambda out: _report(out)[1], cli=True),
    ]
    return Workload("overlap-unbroken", calls, head=calls[0].name,
                    inputs={"n": size["overlap_n"], "energies": [float(e) for e in E]})


def gauged_cubic(n: int, rng) -> tuple:
    """D·H·D⁻¹ of the position-real cubic for a diagonal phase D, with its
    PT operator D·P·D (same spectrum, same antilinear symmetry)."""
    H = biortho.cubic_hamiltonian(n, biortho.Realization.POSITION_REAL)
    d = np.ones(n) if rng is None else np.exp(2j * np.pi * rng.uniform(size=n))
    pt = biortho.AntilinearOp(d[:, None] * biortho.parity(n) * d[None, :])
    return d[:, None] * H * np.conj(d)[None, :], pt


def _symmetry_call(H, pt) -> dict:
    op = biortho.find_antilinear_symmetry(H)
    residual = biortho.commutes_with(op, H).residual
    system = biortho.eigendecompose(H)
    C = biortho.build_c_operator(system, pt)
    return {
        "residual": residual,
        "c_commutator": float(np.linalg.norm(C @ H - H @ C) / np.linalg.norm(H)),
        "selection_rule_ok": biortho.selection_rule_check(system).ok,
        "trace_real": biortho.euclidean_reality(H, EUCLIDEAN_TAU).trace_is_real(),
    }


def _symmetry_check(tol: float):
    def check(out) -> list:
        failures = []
        if not out["residual"] < tol:
            failures.append(f"symmetry residual {out['residual']:.3e} not below {tol:.0e}")
        if not out["c_commutator"] < C_COMMUTATOR_GATE:
            failures.append(f"|[C, H]| = {out['c_commutator']:.3e}")
        if not out["selection_rule_ok"]:
            failures.append("selection rule violated")
        if not out["trace_real"]:
            failures.append("Euclidean trace not real")
        return failures
    return check


def _checks_check(output) -> list:
    report, failures = _report(output)
    if report is not None and not report["all_ok"]:
        failures.append("checks: " + ", ".join(c["name"] for c in report["checks"] if not c["ok"]))
    return failures


def symmetry_search(seed: int, size: dict, workdir: Path) -> Workload:
    rng = None if seed == 0 else np.random.default_rng([seed, 3])
    tol = inspect.signature(biortho.find_antilinear_symmetry).parameters["tol"].default
    calls = []
    for n in size["ladder"]:
        H, pt = gauged_cubic(n, rng)
        calls.append(Call(f"symmetry-{n}", lambda H=H, pt=pt: _symmetry_call(H, pt),
                          _symmetry_check(tol)))
    path = workdir / "gauged.txt"
    biortho.cli.write_matrix_file(str(path), H)
    argv = ["checks", "--matrix-file", str(path)]
    calls.append(Call("checks", lambda: run_cli(argv), _checks_check, cli=True))
    return Workload("symmetry-search", calls, head=calls[-2].name,
                    inputs={"ladder": list(size["ladder"]), "gauged": rng is not None})


BUILDERS = {
    "spectrum-dense": spectrum_dense,
    "overlap-unbroken": overlap_unbroken,
    "symmetry-search": symmetry_search,
}


def build(name: str, seed: int, size: str, workdir: Path) -> Workload:
    return BUILDERS[name](seed, SIZES[size], workdir)
