"""Batch command-line driver.

Subcommands:

* ``spectrum`` — eigenvalues, classification, residuals and flags for one
  model instance;
* ``sweep``    — classification summary per step of a one-parameter scan,
  with the exceptional-point bracket;
* ``overlap``  — overlap-trace drift and selection-rule report;
* ``checks``   — the full invariant battery (gamma identities, commutators,
  selection rule, Euclidean reality, C operator), nonzero exit on failure.

Reports are JSON (sorted keys, shortest round-trip floats, hence
byte-identical for identical configs) or CSV with a mandatory header.
Custom matrices use a plain-text format: first line n, then n rows of n
whitespace-separated "re,im" pairs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import __version__
from .antilinear import (
    anticommutator_with,
    build_c_operator,
    commutes_with,
    is_real,
)
from .errors import BiorthoError
from .evolution import euclidean_reality, overlap_trace, selection_rule_check
from .fock import Realization, commutator, parity, position_momentum, truncation_block
from .lorentz import (
    charge_conjugation_matrix,
    charge_conjugation_residual,
    complex_boost_spinor,
    coordinate_inversion,
    cpt_linear_part_check,
    dirac_basis,
    majorana_basis,
)
from .models import (
    PUParams,
    cubic_hamiltonian,
    dimer_hamiltonian,
    dimer_pt_operator,
    harmonic_hamiltonian,
    pt_operator,
    pu_dynamical_matrix,
    pu_hamiltonian_fock,
    pu_pt_operator,
)
from .spectral import classify_spectrum, defect_report, eigendecompose

MODEL_PARAMETERS = {
    "cubic": set(),
    "harmonic": set(),
    "pu": {"gamma", "omega1", "omega2", "alpha", "beta"},
    "dimer": {"g", "k"},
    "custom": set(),
}

DEFAULTS = {
    "model": "dimer",
    "parameters": {},
    "truncation": [32],
    "realization": "position-real",
    "tol_real": 1e-8,
    "tol_cluster": 1e-8,
    "format": "json",
    "out": None,
    "sweep": None,
    "matrix_file": None,
    "t_max": 10.0,
    "n_times": 101,
}


class ConfigError(BiorthoError, ValueError):
    pass


def read_matrix_file(path: str) -> np.ndarray:
    """Parse the plain-text complex matrix format; ConfigError if malformed."""
    try:
        with open(path) as fh:
            tokens = fh.read().split()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read matrix file: {exc}") from exc
    if not tokens:
        raise ConfigError(f"{path}: empty matrix file")
    n = int(tokens[0]) if tokens[0].isdecimal() else 0
    if n < 1:
        raise ConfigError(f"{path}: size must be an integer >= 1, got {tokens[0]!r}")
    entries = tokens[1:]
    if len(entries) != n * n:
        raise ConfigError(
            f"{path}: expected {n * n} entries for n={n}, found {len(entries)}"
        )
    values = []
    for tok in entries:
        try:
            re_s, im_s = tok.split(",")
            values.append(complex(float(re_s), float(im_s)))
        except ValueError:
            raise ConfigError(f"{path}: entry {tok!r} is not a 're,im' pair") from None
    matrix = np.array(values, dtype=complex).reshape(n, n)
    if not np.all(np.isfinite(matrix)):
        raise ConfigError(f"{path}: matrix has non-finite entries")
    return matrix


def write_matrix_file(path: str, matrix: np.ndarray):
    matrix = np.asarray(matrix, dtype=complex)
    n = matrix.shape[0]
    with open(path, "w") as fh:
        fh.write(f"{n}\n")
        for row in matrix:
            fh.write(" ".join(f"{float(v.real)!r},{float(v.imag)!r}" for v in row) + "\n")


def _validate_parameters(model: str, parameters: dict):
    valid = MODEL_PARAMETERS.get(model)
    if valid is None:
        raise ConfigError(
            f"unknown model {model!r}; valid models: {sorted(MODEL_PARAMETERS)}"
        )
    unknown = set(parameters) - valid
    if unknown:
        raise ConfigError(
            f"unknown parameter(s) {sorted(unknown)} for model {model!r}; "
            f"valid parameters: {sorted(valid) or '(none)'}"
        )


def build_config(args: argparse.Namespace) -> dict:
    """Merge defaults < config file < command-line flags."""
    config = dict(DEFAULTS)
    config["parameters"] = {}

    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{args.config}: cannot read config: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"{args.config}: config must be a JSON object")
        unknown = set(file_cfg) - set(DEFAULTS)
        if unknown:
            raise ConfigError(
                f"unknown config key(s) {sorted(unknown)}; "
                f"valid keys: {sorted(DEFAULTS)}"
            )
        params = file_cfg.pop("parameters", {})
        config.update(file_cfg)
        config["parameters"].update(params)

    flag_map = {
        "model": "model", "truncation": "truncation",
        "realization": "realization", "tol_real": "tol_real",
        "tol_cluster": "tol_cluster", "format": "format", "out": "out",
        "sweep": "sweep", "matrix_file": "matrix_file",
        "t_max": "t_max", "n_times": "n_times",
    }
    for attr, key in flag_map.items():
        value = getattr(args, attr, None)
        if value is not None:
            config[key] = value
    for name in ("gamma", "omega1", "omega2", "alpha", "beta", "g", "k"):
        value = getattr(args, name, None)
        if value is not None:
            config["parameters"][name] = value

    if isinstance(config["truncation"], str):
        config["truncation"] = [int(tok) for tok in config["truncation"].split(",")]
    _validate_parameters(config["model"], config["parameters"])
    if config["model"] == "custom" and not config["matrix_file"]:
        raise ConfigError("model 'custom' requires --matrix-file")
    if not isinstance(config["n_times"], int) or config["n_times"] < 1:
        raise ConfigError(f"n_times must be an integer >= 1, got {config['n_times']!r}")
    if not isinstance(config["t_max"], (int, float)) or not np.isfinite(config["t_max"]):
        raise ConfigError(f"t_max must be a finite number, got {config['t_max']!r}")
    return config


def _realization(config) -> Realization:
    return Realization(config["realization"])


def _pu_params(parameters: dict) -> PUParams:
    gamma = float(parameters.get("gamma", 1.0))
    if "alpha" in parameters or "beta" in parameters:
        return PUParams.from_alpha_beta(
            gamma, float(parameters.get("alpha", 1.0)),
            float(parameters.get("beta", 0.0)),
        )
    return PUParams(
        gamma=gamma,
        omega1=complex(parameters.get("omega1", 1.0)),
        omega2=complex(parameters.get("omega2", 2.0)),
    )


def build_model(config: dict):
    """Return (H, pt_op or None) for the configured model."""
    model = config["model"]
    trunc = config["truncation"]
    params = config["parameters"]
    if model == "dimer":
        H = dimer_hamiltonian(float(params.get("g", 0.5)), float(params.get("k", 1.0)))
        return H, dimer_pt_operator()
    if model == "harmonic":
        n = trunc[0]
        return harmonic_hamiltonian(n, _realization(config)), pt_operator(n, _realization(config))
    if model == "cubic":
        n = trunc[0]
        return cubic_hamiltonian(n, _realization(config)), pt_operator(n, _realization(config))
    if model == "pu":
        pu = _pu_params(params)
        n1, n2 = (trunc * 2)[:2]
        return pu_hamiltonian_fock(n1, n2, pu), pu_pt_operator(n1, n2)
    if model == "custom":
        return read_matrix_file(config["matrix_file"]), None
    raise ConfigError(f"unknown model {model!r}")


def _classification_dict(buckets) -> dict:
    return {
        "real_singles": [float(v) for v in buckets.real_singles],
        "conjugate_pairs": [
            [{"re": p.real, "im": p.imag}, {"re": m.real, "im": m.imag}]
            for p, m in buckets.conjugate_pairs
        ],
        "leftovers": [{"re": v.real, "im": v.imag} for v in buckets.leftovers],
        "defective_clusters": [
            {"eigenvalue": {"re": e.real, "im": e.imag},
             "algebraic": alg, "geometric": geo}
            for e, alg, geo in buckets.defective_clusters
        ],
        "warning": buckets.has_warning,
    }


# numerical rank decisions (one SVD per cluster) are only trusted, and
# affordable, on small matrices; large truncations report the flag alone
DEFECT_SCAN_MAX_DIM = 64


def _defective_clusters(H, evals, ctol: float = 1e-6) -> list:
    """(eigenvalue, algebraic, geometric) for repeated defective clusters."""
    if len(evals) > DEFECT_SCAN_MAX_DIM:
        return []
    clusters = []
    scale = max(float(np.max(np.abs(evals))), 1.0)
    seen = np.zeros(len(evals), dtype=bool)
    for i, ev in enumerate(evals):
        if seen[i]:
            continue
        members = np.abs(evals - ev) < ctol * scale
        seen |= members
        if np.sum(members) > 1:
            rep = defect_report(H, complex(np.mean(evals[members])),
                                tol_cluster=ctol)
            if rep.is_defective:
                clusters.append((rep.eigenvalue, rep.algebraic_multiplicity,
                                 rep.geometric_multiplicity))
    return clusters


def run_spectrum(config: dict) -> dict:
    H, pt = build_model(config)
    system = eigendecompose(H)
    defective = []
    if not system.is_diagonalizable:
        defective = _defective_clusters(H, system.eigenvalues)
    buckets = classify_spectrum(
        system.eigenvalues, tol_real=config["tol_real"],
        tol_cluster=config["tol_cluster"],
        defective_clusters=defective,
    )
    reality = is_real(H)
    report = {
        "config": _config_dict(config),
        "version": __version__,
        "eigenvalues": [
            {"re": e.real, "im": e.imag} for e in system.eigenvalues
        ],
        "classification": _classification_dict(buckets),
        "residuals": {
            "right": system.right_residual,
            "left": system.left_residual,
            "pairing": system.pairing_residual,
        },
        "flags": {
            "defective": not system.is_diagonalizable,
            "entrywise_real": reality.is_real,
            "max_imag_entry": reality.max_imag,
            "broken_phase": bool(buckets.conjugate_pairs),
        },
    }
    if pt is not None:
        report["residuals"]["antilinear_symmetry"] = commutes_with(pt, H).residual
    return report


def _sweep_single(config: dict, name: str, value: float) -> dict:
    step_cfg = dict(config)
    step_cfg["parameters"] = dict(config["parameters"])
    step_cfg["parameters"][name] = value
    if config["model"] == "pu":
        # regime scans classify the exact 4x4 dynamical matrix; rank
        # decisions on a large truncated matrix are unreliable at the
        # exceptional point itself
        H = pu_dynamical_matrix(_pu_params(step_cfg["parameters"])).dynamical_matrix
    else:
        H, _ = build_model(step_cfg)
    evals = np.linalg.eigvals(H)
    buckets = classify_spectrum(
        evals, tol_real=config["tol_real"], tol_cluster=config["tol_cluster"]
    )
    return {
        "value": value,
        "n_real": len(buckets.real_singles),
        "n_pairs": len(buckets.conjugate_pairs),
        "n_leftover": len(buckets.leftovers),
        "max_imag": float(np.max(np.abs(evals.imag))),
        "defective": bool(_defective_clusters(H, evals)),
    }


def run_sweep(config: dict) -> dict:
    sweep = config["sweep"]
    if not sweep:
        raise ConfigError("sweep command requires --sweep PARAM:START:STOP:STEPS")
    name, start, stop, steps = sweep
    if steps < 1:
        raise ConfigError(f"sweep needs at least one step, got {steps}")
    _validate_parameters(config["model"], {name: start})
    values = np.linspace(start, stop, steps)
    rows = [_sweep_single(config, name, float(v)) for v in values]

    bracket = None
    for prev, cur in zip(rows, rows[1:]):
        if prev["n_pairs"] != cur["n_pairs"]:
            bracket = [prev["value"], cur["value"]]
            break
    return {
        "config": _config_dict(config),
        "version": __version__,
        "sweep_parameter": name,
        "steps": rows,
        "exceptional_point_bracket": bracket,
    }


def run_overlap(config: dict) -> dict:
    H, _ = build_model(config)
    system = eigendecompose(H)
    trace = overlap_trace(system, t_max=config["t_max"], n_times=config["n_times"])
    rule = selection_rule_check(system, tol=config["tol_real"],
                                tol_cluster=config["tol_cluster"])
    return {
        "config": _config_dict(config),
        "version": __version__,
        "max_drift": trace.max_drift,
        "method_agreement": trace.method_agreement,
        "literal_time_bound": trace.literal_time_bound,
        "selection_rule": {
            "ok": rule.ok,
            "max_forbidden_overlap": rule.max_forbidden_overlap,
            "violations": [
                {"j": j, "i": i, "E_j": {"re": ej.real, "im": ej.imag},
                 "E_i": {"re": ei.real, "im": ei.imag}, "overlap": mag}
                for j, i, ej, ei, mag in rule.violations
            ],
        },
    }


def _check(name: str, measured: float, gate: float):
    return {"name": name, "residual": float(measured), "gate": gate,
            "ok": bool(measured < gate)}


def run_checks(config: dict) -> dict:
    """Invariant battery across all modules."""
    checks = []

    for basis in (majorana_basis(), dirac_basis()):
        tag = basis.name.value
        checks.append(_check(f"gamma-anticommutation-{tag}",
                             basis.anticommutator_residual(), 1e-13))
        for i in (1, 2, 3):
            boost = complex_boost_spinor(basis, i, 1j * np.pi)
            g0gi = basis.gammas[0] @ basis.gammas[i]
            checks.append(_check(
                f"spinor-boost-ipi-{tag}-{i}",
                float(np.max(np.abs(boost + 1j * g0gi))), 1e-12))
        cpt = cpt_linear_part_check(basis)
        checks.append(_check(f"three-boost-gamma5-{tag}", cpt.residual, 1e-12))
        C, _ = charge_conjugation_matrix(basis)
        checks.append(_check(f"charge-conjugation-{tag}",
                             charge_conjugation_residual(basis, C), 1e-13))
    checks.append(_check(
        "coordinate-inversion",
        float(np.max(np.abs(coordinate_inversion() + np.eye(4)))), 0.0 + 1e-300))

    n = 16
    for realization in Realization:
        x, p = position_momentum(n, realization)
        block = truncation_block(commutator(x, p) - 1j * np.eye(n))
        checks.append(_check(f"canonical-commutator-{realization.value}",
                             float(np.max(np.abs(block))), 1e-12))
    P = parity(n)
    x, p = position_momentum(n, Realization.POSITION_REAL)
    checks.append(_check("parity-anticommutes-x",
                         float(np.max(np.abs(P @ x @ P + x))), 1e-300))

    cubic_b = cubic_hamiltonian(24, Realization.POSITION_IMAGINARY)
    checks.append(_check("cubic-imaginary-realization-real",
                         is_real(cubic_b).max_imag, 1e-300))
    cubic_a = cubic_hamiltonian(24, Realization.POSITION_REAL)
    checks.append(_check("cubic-pt-residual",
                         commutes_with(pt_operator(24, Realization.POSITION_REAL),
                                       cubic_a).residual, 1e-12))
    for tau in (0.1, 1.0):
        eu = euclidean_reality(cubic_b, tau)
        checks.append(_check(f"euclidean-reality-cubic-tau{tau}", eu.max_imag, 1e-10))

    H_unbroken = dimer_hamiltonian(0.5, 1.0)
    pt = dimer_pt_operator()
    system = eigendecompose(H_unbroken)
    C = build_c_operator(system, pt)
    checks.append(_check("c-squared-identity",
                         float(np.linalg.norm(C @ C - np.eye(2))), 1e-10))
    checks.append(_check("c-commutes-hamiltonian",
                         float(np.linalg.norm(C @ H_unbroken - H_unbroken @ C)), 1e-10))
    checks.append(_check("c-commutes-pt",
                         float(np.linalg.norm(anticommutator_with(C, pt))), 1e-10))
    rule = selection_rule_check(system)
    checks.append(_check("dimer-selection-rule", rule.max_forbidden_overlap, 1e-8))

    if config.get("matrix_file"):
        H = read_matrix_file(config["matrix_file"])
        sys_custom = eigendecompose(H)
        evals = sys_custom.eigenvalues
        scale = max(float(np.max(np.abs(evals))), 1.0)
        buckets = classify_spectrum(evals, tol_real=1e-8 * scale,
                                    tol_cluster=1e-8 * scale)
        checks.append({
            "name": "custom-matrix-conjugation-closure",
            "residual": float(len(buckets.leftovers)),
            "gate": 1.0,
            "ok": not buckets.has_warning,
        })
        if sys_custom.is_diagonalizable:
            rule = selection_rule_check(sys_custom)
            checks.append(_check("custom-matrix-selection-rule",
                                 rule.max_forbidden_overlap, 1e-8))

    return {
        "config": _config_dict(config),
        "version": __version__,
        "checks": checks,
        "all_ok": all(c["ok"] for c in checks),
    }


def _config_dict(config: dict) -> dict:
    out = {}
    for key, value in sorted(config.items()):
        if isinstance(value, tuple):
            value = list(value)
        out[key] = value
    return out


def _to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _spectrum_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["index", "re", "im"])
    for idx, ev in enumerate(report["eigenvalues"]):
        writer.writerow([idx, repr(ev["re"]), repr(ev["im"])])
    return buf.getvalue()


def _sweep_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["step", "value", "n_real", "n_pairs", "n_leftover",
                     "max_imag", "defective"])
    for idx, row in enumerate(report["steps"]):
        writer.writerow([idx, repr(row["value"]), row["n_real"], row["n_pairs"],
                         row["n_leftover"], repr(row["max_imag"]),
                         row["defective"]])
    return buf.getvalue()


def _checks_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["name", "residual", "gate", "ok"])
    for row in report["checks"]:
        writer.writerow([row["name"], repr(row["residual"]), repr(row["gate"]),
                         row["ok"]])
    return buf.getvalue()


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_sweep(spec: str):
    try:
        name, start, stop, steps = spec.split(":")
        return (name, float(start), float(stop), int(steps))
    except ValueError as exc:
        raise ConfigError(
            f"bad sweep spec {spec!r}; expected PARAM:START:STOP:STEPS"
        ) from exc


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biortho",
        description="Spectral toolkit for non-Hermitian Hamiltonians "
                    "with antilinear symmetry",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--model", choices=sorted(MODEL_PARAMETERS))
        p.add_argument("--truncation", help="per-mode cutoffs, e.g. 32 or 40,40")
        p.add_argument("--realization",
                       choices=[r.value for r in Realization])
        p.add_argument("--matrix-file", dest="matrix_file")
        p.add_argument("--tol-real", dest="tol_real", type=float)
        p.add_argument("--tol-cluster", dest="tol_cluster", type=float)
        p.add_argument("--format", choices=["json", "csv"])
        p.add_argument("--out")
        for name in ("gamma", "omega1", "omega2", "alpha", "beta", "g", "k"):
            p.add_argument(f"--{name}", type=float)

    p_spec = sub.add_parser("spectrum", help="eigenvalues and classification")
    add_common(p_spec)

    p_sweep = sub.add_parser("sweep", help="one-parameter scan")
    add_common(p_sweep)
    p_sweep.add_argument("--sweep", type=_parse_sweep,
                         help="PARAM:START:STOP:STEPS")

    p_overlap = sub.add_parser("overlap", help="overlap traces and selection rule")
    add_common(p_overlap)
    p_overlap.add_argument("--t-max", dest="t_max", type=float)
    p_overlap.add_argument("--n-times", dest="n_times", type=int)

    p_checks = sub.add_parser("checks", help="full invariant suite")
    add_common(p_checks)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
        if args.command == "spectrum":
            report = run_spectrum(config)
            text = _to_json(report) if config["format"] == "json" else _spectrum_csv(report)
            _emit(text, config["out"])
            return 0
        if args.command == "sweep":
            report = run_sweep(config)
            text = _to_json(report) if config["format"] == "json" else _sweep_csv(report)
            _emit(text, config["out"])
            return 0
        if args.command == "overlap":
            report = run_overlap(config)
            _emit(_to_json(report), config["out"])
            return 0 if report["selection_rule"]["ok"] else 1
        if args.command == "checks":
            report = run_checks(config)
            text = _to_json(report) if config["format"] == "json" else _checks_csv(report)
            _emit(text, config["out"])
            return 0 if report["all_ok"] else 1
        parser.error(f"unknown command {args.command!r}")
    except BiorthoError as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stdout.write(_to_json(error))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
