"""Batch command-line driver.

Subcommands:

* ``spectrum`` — eigenvalues, classification, residuals and flags for one
  model instance;
* ``sweep``    — classification summary per step of a one-parameter scan,
  with the exceptional-point bracket;
* ``overlap``  — overlap-trace drift and selection-rule report (JSON only);
* ``checks``   — the full invariant battery (gamma identities, commutators,
  selection rule, Euclidean reality, C operator), nonzero exit on failure.

Settings merge ``OPTIONS`` defaults < a ``--config`` JSON file < flags. A
config key takes its flag's syntax or the JSON equivalent ("40,40" or
[40, 40]) through the same parser; any bad value prints a JSON
``ConfigError`` and exits 1, as does a failed check or overlap gate.
Exit code 2 is argparse's, for structural errors such as an unknown flag.

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
from contextlib import nullcontext
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .antilinear import (
    anticommutator_with,
    build_c_operator,
    commutes_with,
    is_real,
)
from .errors import BiorthoError
from .evolution import AGREEMENT_GATE, euclidean_reality, overlap_trace, selection_rule_check
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
from .spectral import classify_spectrum, eigendecompose

MODEL_PARAMETERS = {
    "cubic": set(),
    "harmonic": set(),
    "pu": {"gamma", "omega1", "omega2", "alpha", "beta"},
    "dimer": {"g", "k"},
    "custom": set(),
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


# Each parser takes a flag's text or the JSON value of its config key and
# returns the value the runners use; TypeError or ValueError means bad input.

def _count(value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"expected an integer, got {type(value).__name__}")
    if int(value) < 1:
        raise ValueError("must be >= 1")
    return int(value)


def _float(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    number = float(value)
    if not np.isfinite(number):
        raise ValueError("must be finite")
    return number


def _path(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a path, got {type(value).__name__}")
    return value


def _choice(*allowed):
    def parse(value):
        if value not in allowed:
            raise ValueError(f"expected one of {list(allowed)}")
        return value
    parse.metavar = "{" + ",".join(allowed) + "}"
    return parse


def _cutoffs(value) -> list:
    """'40,40' or [40, 40]; '32', 32 or [32]."""
    items = value.split(",") if isinstance(value, str) else value
    cutoffs = [_count(v) for v in (items if isinstance(items, list) else [items])]
    if not 1 <= len(cutoffs) <= 2:
        raise ValueError("expected one or two cutoffs")
    return cutoffs


def _sweep(value) -> tuple:
    """'g:0:2:81' or ["g", 0, 2, 81]."""
    parts = value.split(":") if isinstance(value, str) else value
    if not isinstance(parts, list) or len(parts) != 4 or not isinstance(parts[0], str):
        raise ValueError("expected PARAM:START:STOP:STEPS")
    name, start, stop, steps = parts
    return (name, _float(start), _float(stop), _count(steps))


def _parameters(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected an object of numbers, got {type(value).__name__}")
    return {name: _float(number) for name, number in value.items()}


# config key -> (default, parser, flag help); "parameters" is set by one
# flag per name in MODEL_PARAMETERS instead of a flag of its own
OPTIONS = {
    "model": ("dimer", _choice(*sorted(MODEL_PARAMETERS)), "model family"),
    "parameters": ({}, _parameters, None),
    "truncation": ([32], _cutoffs, "per-mode cutoffs, e.g. 32 or 40,40"),
    "realization": ("position-real", _choice(*(r.value for r in Realization)),
                    "position operator realization"),
    "matrix_file": (None, _path, "plain-text matrix (model custom; checks: one more)"),
    "format": ("json", _choice("json", "csv"), "report format (overlap: json only)"),
    "out": (None, _path, "write the report here instead of stdout"),
    "sweep": (None, _sweep, "PARAM:START:STOP:STEPS"),
    "t_max": (10.0, _float, "end of the overlap time grid"),
    "n_times": (101, _count, "number of overlap time-grid points"),
}


def build_config(args: argparse.Namespace) -> dict:
    """Merge defaults < config file < command-line flags, then run every
    value through its key's parser; ConfigError on any bad value."""
    merged = {key: default for key, (default, _, _) in OPTIONS.items()}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{args.config}: cannot read config: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"{args.config}: config must be a JSON object")
        unknown = set(file_cfg) - set(OPTIONS)
        if unknown:
            raise ConfigError(
                f"unknown config key(s) {sorted(unknown)}; "
                f"valid keys: {sorted(OPTIONS)}"
            )
        merged.update(file_cfg)
    merged.update({key: getattr(args, key) for key in OPTIONS
                   if getattr(args, key, None) is not None})
    flag_parameters = {name: getattr(args, name)
                       for names in MODEL_PARAMETERS.values() for name in names
                       if getattr(args, name, None) is not None}
    if isinstance(merged["parameters"], dict):
        merged["parameters"] = {**merged["parameters"], **flag_parameters}

    config = {}
    for key, value in merged.items():
        default, parse, _ = OPTIONS[key]
        try:
            config[key] = None if value is None and default is None else parse(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad {key} {value!r}: {exc}") from exc

    valid = MODEL_PARAMETERS[config["model"]]
    swept = [config["sweep"][0]] if config["sweep"] else []
    unknown = sorted(set(config["parameters"]).union(swept) - valid)
    if unknown:
        raise ConfigError(
            f"unknown parameter(s) {unknown} for model {config['model']!r}; "
            f"valid parameters: {sorted(valid) or '(none)'}"
        )
    if config["model"] == "custom" and not config["matrix_file"]:
        raise ConfigError("model 'custom' requires --matrix-file")
    if config["model"] in ("cubic", "harmonic") and len(config["truncation"]) != 1:
        raise ConfigError(
            f"model {config['model']!r} has one mode and takes one cutoff, "
            f"got {config['truncation']}"
        )
    return config


def _pu_params(parameters: dict) -> PUParams:
    gamma = parameters.get("gamma", 1.0)
    try:
        if "alpha" in parameters or "beta" in parameters:
            return PUParams.from_alpha_beta(
                gamma, parameters.get("alpha", 1.0), parameters.get("beta", 0.0))
        return PUParams(
            gamma=gamma,
            omega1=complex(parameters.get("omega1", 1.0)),
            omega2=complex(parameters.get("omega2", 2.0)),
        )
    except ValueError as exc:
        raise ConfigError(f"pu parameters {parameters}: {exc}") from exc


def build_model(config: dict):
    """Return (H, pt_op or None) for the configured model."""
    model = config["model"]
    trunc = config["truncation"]
    params = config["parameters"]
    if model == "dimer":
        try:
            H = dimer_hamiltonian(params.get("g", 0.5), params.get("k", 1.0))
        except ValueError as exc:
            raise ConfigError(f"dimer parameters {params}: {exc}") from exc
        return H, dimer_pt_operator()
    if model == "pu":
        n1, n2 = (trunc * 2)[:2]
        return pu_hamiltonian_fock(n1, n2, _pu_params(params)), pu_pt_operator(n1, n2)
    if model == "custom":
        return read_matrix_file(config["matrix_file"]), None
    n, realization = trunc[0], Realization(config["realization"])
    build = cubic_hamiltonian if model == "cubic" else harmonic_hamiltonian
    return build(n, realization), pt_operator(n, realization)


def run_spectrum(config: dict) -> dict:
    H, pt = build_model(config)
    system = eigendecompose(H)
    buckets = classify_spectrum(system.eigenvalues)
    reality = is_real(H)
    report = {
        "config": config,
        "version": __version__,
        "eigenvalues": [
            {"re": e.real, "im": e.imag} for e in system.eigenvalues
        ],
        "classification": {
            "real_singles": [float(v) for v in buckets.real_singles],
            "conjugate_pairs": [
                [{"re": p.real, "im": p.imag}, {"re": m.real, "im": m.imag}]
                for p, m in buckets.conjugate_pairs
            ],
            "leftovers": [{"re": v.real, "im": v.imag} for v in buckets.leftovers],
            "defective_clusters": [
                {"eigenvalue": {"re": d.eigenvalue.real, "im": d.eigenvalue.imag},
                 "algebraic": d.algebraic_multiplicity,
                 "geometric": d.geometric_multiplicity}
                for d in system.defects
            ],
            "warning": buckets.has_warning,
        },
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
    step_cfg = {**config, "parameters": {**config["parameters"], name: value}}
    if config["model"] == "pu":
        # regime scans classify the exact 4x4 dynamical matrix; rank
        # decisions on a large truncated matrix are unreliable at the
        # exceptional point itself
        H = pu_dynamical_matrix(_pu_params(step_cfg["parameters"])).dynamical_matrix
    else:
        H, _ = build_model(step_cfg)
    system = eigendecompose(H)
    evals = system.eigenvalues
    buckets = classify_spectrum(evals)
    return {
        "value": value,
        "n_real": len(buckets.real_singles),
        "n_pairs": len(buckets.conjugate_pairs),
        "n_leftover": len(buckets.leftovers),
        "max_imag": float(np.max(np.abs(evals.imag))),
        "defective": not system.is_diagonalizable,
    }


def run_sweep(config: dict) -> dict:
    if not config["sweep"]:
        raise ConfigError("sweep command requires --sweep PARAM:START:STOP:STEPS")
    name, start, stop, steps = config["sweep"]
    rows = [_sweep_single(config, name, float(v))
            for v in np.linspace(start, stop, steps)]

    bracket = None
    for prev, cur in zip(rows, rows[1:]):
        if prev["n_pairs"] != cur["n_pairs"]:
            bracket = [prev["value"], cur["value"]]
            break
    return {
        "config": config,
        "version": __version__,
        "sweep_parameter": name,
        "steps": rows,
        "exceptional_point_bracket": bracket,
    }


def run_overlap(config: dict) -> dict:
    H, _ = build_model(config)
    system = eigendecompose(H)
    trace = overlap_trace(system, t_max=config["t_max"], n_times=config["n_times"])
    rule = selection_rule_check(system)
    return {
        "config": config,
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

    if config["matrix_file"]:
        H = read_matrix_file(config["matrix_file"])
        sys_custom = eigendecompose(H)
        buckets = classify_spectrum(sys_custom.eigenvalues)
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
        "config": config,
        "version": __version__,
        "checks": checks,
        "all_ok": all(c["ok"] for c in checks),
    }


class _Command(NamedTuple):
    run: Callable[[dict], dict]
    help: str
    # CSV layout: (report list, index column or None, columns); None: JSON only
    csv: tuple | None
    ok: Callable[[dict], bool]       # exit code 0 if true, else 1
    flags: tuple = ()                # config keys with a flag on this command only


COMMANDS = {
    "spectrum": _Command(run_spectrum, "eigenvalues and classification",
                         ("eigenvalues", "index", ("re", "im")),
                         lambda report: True),
    "sweep": _Command(run_sweep, "one-parameter scan",
                      ("steps", "step", ("value", "n_real", "n_pairs",
                                         "n_leftover", "max_imag", "defective")),
                      lambda report: True, flags=("sweep",)),
    "overlap": _Command(run_overlap, "overlap traces and selection rule", None,
                        lambda report: (report["selection_rule"]["ok"]
                                        and report["method_agreement"] < AGREEMENT_GATE),
                        flags=("t_max", "n_times")),
    "checks": _Command(run_checks, "full invariant suite",
                       ("checks", None, ("name", "residual", "gate", "ok")),
                       lambda report: report["all_ok"]),
}


def _to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _to_csv(report: dict, rows: str, index, columns) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(([index] if index else []) + list(columns))
    for idx, row in enumerate(report[rows]):
        # Python floats print as their shortest repr, whatever numpy prints
        cells = [float(row[c]) if isinstance(row[c], float) else row[c] for c in columns]
        writer.writerow(([idx] if index else []) + cells)
    return buf.getvalue()


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biortho",
        description="Spectral toolkit for non-Hermitian Hamiltonians "
                    "with antilinear symmetry",
    )
    parser.add_argument("--version", action="version", version=__version__)
    command_only = {key for command in COMMANDS.values() for key in command.flags}
    # the options of every subcommand, declared once and copied into each
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file (flags override it)")
    for key in OPTIONS:
        if key not in command_only:
            _add_option(shared, key)
    for model, names in MODEL_PARAMETERS.items():
        for param in sorted(names):
            shared.add_argument(f"--{param}", help=f"{model} model parameter")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, parents=[shared])
        for key in command.flags:
            _add_option(p, key)
    return parser


def _add_option(parser: argparse.ArgumentParser, key: str) -> None:
    """The flag of config key ``key``, if it has one."""
    _, parse, text = OPTIONS[key]
    if text:
        parser.add_argument("--" + key.replace("_", "-"), help=text,
                            metavar=getattr(parse, "metavar", None))


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        config = build_config(args)
        if config["format"] == "csv" and command.csv is None:
            raise ConfigError(f"{args.command} writes JSON only; drop --format csv")
        # open --out before computing, so an unwritable path fails at once
        try:
            out = open(config["out"], "w") if config["out"] else nullcontext(sys.stdout)
        except OSError as exc:
            raise ConfigError(f"cannot write report: {exc}") from exc
        with out as fh:
            report = command.run(config)
            text = (_to_json(report) if config["format"] == "json"
                    else _to_csv(report, *command.csv))
            try:
                fh.write(text)
                fh.flush()
            except OSError as exc:
                raise ConfigError(f"cannot write report: {exc}") from exc
    except BiorthoError as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stdout.write(_to_json(error))
        return 1
    return 0 if command.ok(report) else 1


if __name__ == "__main__":
    sys.exit(main())
