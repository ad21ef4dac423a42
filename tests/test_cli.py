import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.csgraph import connected_components

from biortho import cli
from biortho.cli import ConfigError, main, read_matrix_file, write_matrix_file
from biortho.evolution import AGREEMENT_GATE, overlap_trace
from biortho.fock import Realization
from biortho.models import PUParams, cubic_hamiltonian, dimer_hamiltonian, pu_dynamical_matrix
from biortho.spectral import eigendecompose


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_spectrum_dimer_broken_phase(capsys):
    code, out = run_cli(capsys, "spectrum", "--model", "dimer",
                        "--g", "1", "--k", "0.5")
    assert code == 0
    report = json.loads(out)
    assert report["flags"]["broken_phase"]
    pairs = report["classification"]["conjugate_pairs"]
    assert len(pairs) == 1
    assert pairs[0][0]["im"] == pytest.approx(np.sqrt(0.75), abs=1e-9)
    assert report["residuals"]["antilinear_symmetry"] < 1e-10
    assert report["version"]


def test_spectrum_harmonic_real_levels(capsys):
    code, out = run_cli(capsys, "spectrum", "--model", "harmonic",
                        "--truncation", "32")
    assert code == 0
    report = json.loads(out)
    reals = sorted(report["classification"]["real_singles"])
    assert np.allclose(reals[:4], [0.5, 1.5, 2.5, 3.5], atol=1e-8)
    assert report["flags"]["entrywise_real"]


def test_spectrum_pu_low_levels(capsys):
    code, out = run_cli(capsys, "spectrum", "--model", "pu", "--gamma", "1",
                        "--omega1", "1", "--omega2", "2",
                        "--truncation", "16,16")
    assert code == 0
    report = json.loads(out)
    evals = sorted(
        (e["re"] for e in report["eigenvalues"]
         if abs(e["im"]) < 1e-6)
    )
    assert np.allclose(evals[:3], [1.5, 2.5, 3.5], atol=1e-4)


def test_spectrum_deterministic_output(capsys):
    args = ("spectrum", "--model", "dimer", "--g", "0.3", "--k", "1.2")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_spectrum_csv_format(capsys):
    code, out = run_cli(capsys, "spectrum", "--model", "dimer",
                        "--g", "0.5", "--k", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,re,im"
    assert len(lines) == 3


def test_sweep_dimer_brackets_exceptional_point(capsys):
    code, out = run_cli(capsys, "sweep", "--model", "dimer", "--k", "1",
                        "--sweep", "g:0:2:81")
    assert code == 0
    report = json.loads(out)
    lo, hi = report["exceptional_point_bracket"]
    step = 2.0 / 80
    assert lo <= 1.0 <= hi
    assert hi - lo == pytest.approx(step)
    # defect flagged exactly at g = k = 1
    flagged = [row["value"] for row in report["steps"] if row["defective"]]
    assert 1.0 in flagged


def test_sweep_pu_beta_scan_uses_dynamical_matrix(capsys):
    code, out = run_cli(capsys, "sweep", "--model", "pu", "--alpha", "1",
                        "--sweep", "beta:0:0.5:6")
    assert code == 0
    report = json.loads(out)
    rows = report["steps"]
    assert rows[0]["defective"]              # Jordan block at beta = 0
    assert all(row["n_pairs"] == 2 for row in rows[1:])
    assert not any(row["defective"] for row in rows[1:])


def test_spectrum_and_sweep_agree_on_pu_exceptional_point(tmp_path, capsys):
    # alpha = 1, beta = 0: Jordan blocks at ±i whose condition numbers stay
    # below the eigendecompose flag; the cluster scan still finds them
    M = pu_dynamical_matrix(PUParams.from_alpha_beta(1.0, 1.0, 0.0)).dynamical_matrix
    path = tmp_path / "ep.txt"
    write_matrix_file(path, M)
    code, out = run_cli(capsys, "spectrum", "--model", "custom",
                        "--matrix-file", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["flags"]["defective"]
    clusters = report["classification"]["defective_clusters"]
    assert [(c["algebraic"], c["geometric"]) for c in clusters] == [(2, 1), (2, 1)]
    assert sorted(c["eigenvalue"]["im"] for c in clusters) == pytest.approx([-1.0, 1.0])
    _, out = run_cli(capsys, "sweep", "--model", "pu", "--alpha", "1",
                     "--sweep", "beta:0:0:1")
    assert json.loads(out)["steps"][0]["defective"]


def _jordan_in_complex_basis():
    rng = np.random.default_rng(13)
    Q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return Q @ np.array([[1.0, 1.0], [0.0, 1.0]]) @ Q.conj().T


def _similar_to_diagonal():
    rng = np.random.default_rng(17)
    S = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    return S @ np.diag([1, 1, 1, 2 + 1j, 2 - 1j, 3]) @ np.linalg.inv(S)


# name -> (matrix builder, defective)
VERDICT_CASES = {
    "dimer-ep": (lambda: dimer_hamiltonian(1.0, 1.0), True),
    "pu-ep": (lambda: pu_dynamical_matrix(
        PUParams.from_alpha_beta(1.0, 1.0, 0.0)).dynamical_matrix, True),
    "jordan-complex-basis": (_jordan_in_complex_basis, True),
    "similar-to-diagonal": (_similar_to_diagonal, False),
    "diag-5-5": (lambda: np.diag([5.0, 5.0]), False),
    "close-distinct": (lambda: np.diag([1.0, 1.0 + 1e-7]), False),
}


def _count_eigensolver_calls(monkeypatch) -> dict:
    calls = {"eig": 0, "eigvals": 0}
    # geev runs right-only (np.linalg.eig) where H has a transposition
    # signature, two-sided (scipy.linalg.eig) otherwise: both count as "eig"
    for module, name in ((scipy.linalg, "eig"), (np.linalg, "eig"),
                         (np.linalg, "eigvals")):
        def spy(*args, _original=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("case", sorted(VERDICT_CASES))
def test_spectrum_reports_the_eigendecompose_defect_verdict(case, tmp_path, capsys,
                                                            monkeypatch):
    build, defective = VERDICT_CASES[case]
    H = build()
    assert (not eigendecompose(H).is_diagonalizable) == defective
    path = tmp_path / "H.txt"
    write_matrix_file(path, H)
    # one geev per diagonal block of H, counted here by scipy's graph
    # labeling, and no second factorization
    n_blocks, _ = connected_components(H != 0, directed=False)
    calls = _count_eigensolver_calls(monkeypatch)
    code, out = run_cli(capsys, "spectrum", "--model", "custom", "--matrix-file", str(path))
    assert code == 0
    assert json.loads(out)["flags"]["defective"] == defective
    assert calls == {"eig": n_blocks, "eigvals": 0}


def test_sweep_reports_the_eigendecompose_defect_verdict(capsys, monkeypatch):
    calls = _count_eigensolver_calls(monkeypatch)
    for args, expected in (
        (("--model", "dimer", "--k", "1", "--sweep", "g:0:2:5"),
         [False, False, True, False, False]),
        (("--model", "pu", "--alpha", "1", "--sweep", "beta:0:0.5:3"),
         [True, False, False]),
    ):
        calls.update(eig=0, eigvals=0)
        code, out = run_cli(capsys, "sweep", *args)
        assert code == 0
        assert [row["defective"] for row in json.loads(out)["steps"]] == expected
        assert calls == {"eig": len(expected), "eigvals": 0}


def test_spectrum_and_sweep_never_build_the_n_by_n_bases(capsys, monkeypatch):
    # both report eigenvalues, residuals and defect verdicts, which come
    # from eigendecompose's verdict stage: they never make the solves that
    # complete each block's L, or the n×n bases
    from biortho import spectral

    calls = []
    monkeypatch.setattr(spectral, "_assemble", lambda *args, _f=spectral._assemble:
                        calls.append("_assemble") or _f(*args))
    spectrum = ("spectrum", "--model", "pu", "--truncation", "20,20")
    code, lazy = run_cli(capsys, *spectrum)
    assert code == 0
    code, _ = run_cli(capsys, "sweep", "--model", "dimer", "--sweep", "g:0:2:81")
    assert code == 0
    assert calls == []

    # the same report, byte for byte, from the verdicts of a completed system
    verdicts, taken = spectral._verdicts, []
    monkeypatch.setattr(spectral, "_verdicts",
                        lambda *args: taken.append(verdicts(*args)) or taken[-1])

    def completed(H):
        eigendecompose(H)
        return taken.pop()

    monkeypatch.setattr(cli, "_verdicts", completed)
    code, eager = run_cli(capsys, *spectrum)
    assert code == 0
    # both bases are assembled once, after each parity sector is completed
    # on its own arrays
    assert calls == ["_assemble", "_assemble"]
    assert eager == lazy


def test_sweep_single_step_degenerates_to_spectrum(capsys):
    code, out = run_cli(capsys, "sweep", "--model", "dimer", "--k", "1",
                        "--sweep", "g:0.5:0.5:1")
    assert code == 0
    report = json.loads(out)
    assert len(report["steps"]) == 1
    assert report["exceptional_point_bracket"] is None
    assert report["steps"][0]["n_real"] == 2


def test_sweep_csv(capsys):
    code, out = run_cli(capsys, "sweep", "--model", "dimer", "--k", "1",
                        "--sweep", "g:0:2:5", "--format", "csv")
    assert code == 0
    header = out.splitlines()[0]
    assert header == "step,value,n_real,n_pairs,n_leftover,max_imag,defective"


def test_overlap_command(capsys):
    code, out = run_cli(capsys, "overlap", "--model", "dimer",
                        "--g", "1", "--k", "0.5")
    assert code == 0
    report = json.loads(out)
    assert report["max_drift"] < 1e-9
    assert report["selection_rule"]["ok"]


def test_overlap_exit_code_honours_agreement_gate(monkeypatch, capsys):
    # eigenvalues shifted by 1e-8 inside the trace: the selection rule
    # still holds, the stepped eigenvectors disagree with the phases
    def shifted_trace(system, **grid):
        return overlap_trace(replace(system, eigenvalues=system.eigenvalues + 1e-8),
                             **grid)

    monkeypatch.setattr(cli, "overlap_trace", shifted_trace)
    code, out = run_cli(capsys, "overlap", "--model", "dimer",
                        "--g", "1", "--k", "0.5")
    report = json.loads(out)
    assert report["selection_rule"]["ok"]
    assert report["method_agreement"] > AGREEMENT_GATE
    assert code == 1


def test_overlap_on_pu_exceptional_point_fails(tmp_path, capsys):
    # Jordan blocks whose condition numbers stay below the κ flag: the
    # cluster rank test in eigendecompose finds them
    M = pu_dynamical_matrix(PUParams.from_alpha_beta(1.0, 1.0, 0.0)).dynamical_matrix
    path = tmp_path / "ep.txt"
    write_matrix_file(path, M)
    code, out = run_cli(capsys, "overlap", "--model", "custom",
                        "--matrix-file", str(path))
    assert json.loads(out)["error"]["type"] == "DefectiveSystemError"
    assert code == 1


def test_overlap_selection_rule_fails_on_cubic_100(capsys):
    # cubic 100 breaks the rule (max forbidden 4.2e-7)
    code, out = run_cli(capsys, "overlap", "--model", "cubic", "--truncation", "100")
    assert not json.loads(out)["selection_rule"]["ok"]
    assert code == 1


def test_checks_pass_by_default(capsys):
    code, out = run_cli(capsys, "checks")
    assert code == 0
    report = json.loads(out)
    assert report["all_ok"]
    for check in report["checks"]:
        assert check["ok"], check


def test_spectrum_and_checks_agree_on_position_real_cubic_100(tmp_path, capsys):
    # both factorize the same gauge-real matrix with real dgeev, whose
    # conjugate pairs are exact: no leftovers in either report
    H = cubic_hamiltonian(100, Realization.POSITION_REAL)
    code, out = run_cli(capsys, "spectrum", "--model", "cubic", "--truncation", "100")
    assert code == 0
    assert json.loads(out)["classification"]["leftovers"] == []
    path = tmp_path / "cubic100.txt"
    write_matrix_file(path, H)
    _, out = run_cli(capsys, "checks", "--matrix-file", str(path))
    [closure] = [c for c in json.loads(out)["checks"]
                 if c["name"] == "custom-matrix-conjugation-closure"]
    assert closure["residual"] == 0
    assert closure["ok"]


def _classification_counts(report: dict) -> tuple:
    buckets = report["classification"]
    return tuple(len(buckets[key]) for key in ("real_singles", "conjugate_pairs", "leftovers"))


@pytest.mark.parametrize("truncation", ["100", "200"])
def test_position_real_cubic_has_no_leftovers(truncation, capsys):
    code, out = run_cli(capsys, "spectrum", "--model", "cubic", "--truncation", truncation)
    assert code == 0
    assert _classification_counts(json.loads(out))[2] == 0


def test_position_real_cubic_100_classifies_as_position_imaginary_on_two_threads():
    # complex zgeev split the pair at 51.9 ± 1.59i (κ ≈ 8e8) by 1e-8 or
    # 2e-8·max|E| depending on the BLAS thread count; the gauge-real form
    # pairs it exactly on any
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    counts = {}
    for realization in ("position-real", "position-imaginary"):
        result = subprocess.run(
            [sys.executable, "-m", "biortho.cli", "spectrum", "--model", "cubic",
             "--truncation", "100", "--realization", realization],
            capture_output=True, text=True, env=env, check=True, timeout=120)
        counts[realization] = _classification_counts(json.loads(result.stdout))
    assert counts["position-real"] == counts["position-imaginary"]
    assert counts["position-real"][2] == 0


def test_checks_flag_corrupted_custom_matrix(tmp_path, capsys):
    path = tmp_path / "corrupt.txt"
    write_matrix_file(path, np.array([[1.0, 1.0], [0.0, 1.0 + 1.0j]]))
    code, out = run_cli(capsys, "checks", "--model", "custom",
                        "--matrix-file", str(path))
    assert code == 1
    report = json.loads(out)
    failing = [c["name"] for c in report["checks"] if not c["ok"]]
    assert "custom-matrix-conjugation-closure" in failing


def test_checks_csv_format(capsys):
    code, out = run_cli(capsys, "checks", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,residual,gate,ok"
    assert all(line.endswith("True") for line in lines[1:])


def test_matrix_file_round_trip(tmp_path):
    rng = np.random.default_rng(41)
    H = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    path = tmp_path / "m.txt"
    write_matrix_file(path, H)
    assert np.array_equal(read_matrix_file(path), H)


@pytest.mark.parametrize("text, entry", [
    ("2\n1,0 2,0,0 x,1 0,0\n", "'2,0,0'"),
    # as many commas as entries: one entry's parts must not shift into
    # the next
    ("2\n1,0 2 3,4,5 0,0\n", "'2'"),
    ("2\n1,0 0,0 ,1 0,0x\n", "',1'"),
    ("1\n1,0x10\n", "'1,0x10'"),
])
def test_matrix_file_error_names_the_first_bad_entry(tmp_path, text, entry):
    path = tmp_path / "m.txt"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"entry {re.escape(entry)} is not a 're,im' pair"):
        read_matrix_file(path)


def test_matrix_file_parts_parse_as_float_does(tmp_path):
    parts = ["1_0", "infinity", "-0.0", "1e-320", "+.5", "nan", "-1E5", "7"]
    path = tmp_path / "m.txt"
    path.write_text("2\n" + " ".join(f"{a},{b}" for a, b in zip(parts[::2], parts[1::2])))
    with pytest.raises(ConfigError, match="non-finite"):
        read_matrix_file(path)
    finite = [p for p in parts if p not in ("infinity", "nan")] + ["0", "-0"]
    path.write_text("2\n" + " ".join(f"{a},{b}" for a, b in zip(finite[::2], finite[1::2])))
    expected = np.array([float(p) for p in finite]).view(complex).reshape(2, 2)
    assert read_matrix_file(path).tobytes() == expected.tobytes()


def test_spectrum_custom_matrix(tmp_path, capsys):
    path = tmp_path / "m.txt"
    write_matrix_file(path, np.diag([1.0, 2.0, 3.0]))
    code, out = run_cli(capsys, "spectrum", "--model", "custom",
                        "--matrix-file", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["classification"]["real_singles"] == [1.0, 2.0, 3.0]


def test_unknown_model_parameter_rejected(capsys):
    code, out = run_cli(capsys, "spectrum", "--model", "dimer", "--gamma", "1")
    assert code == 1
    report = json.loads(out)
    assert report["error"]["type"] == "ConfigError"
    assert "g" in report["error"]["message"]


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": "dimer",
        "parameters": {"g": 1.0, "k": 0.5},
    }))
    # flags override the config file: k becomes 2.0 -> unbroken
    code, out = run_cli(capsys, "spectrum", "--config", str(cfg), "--k", "2")
    assert code == 0
    report = json.loads(out)
    assert not report["flags"]["broken_phase"]
    assert report["config"]["parameters"]["k"] == 2.0


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"modle": "dimer"}))
    code, out = run_cli(capsys, "spectrum", "--config", str(cfg))
    assert code == 1
    assert "modle" in json.loads(out)["error"]["message"]


@pytest.mark.parametrize("key, value", [
    ("n_times", 0), ("n_times", -3), ("t_max", float("nan")),
    ("t_max", float("inf")), ("t_max", float("-inf")),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_overlap_rejects_bad_time_grid(tmp_path, capsys, source, key, value):
    args = ["overlap", "--model", "dimer", "--g", "1", "--k", "0.5"]
    if source == "flag":
        args.append(f"--{key.replace('_', '-')}={value}")
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        args += ["--config", str(cfg)]
    code, out = run_cli(capsys, *args)
    assert code == 1
    report = json.loads(out)
    assert report["error"]["type"] == "ConfigError"
    assert key in report["error"]["message"]


@pytest.mark.parametrize("argv, text", [
    (["checks", "--matrix-file"], "2\n1,0 0,0 0,0\n"),
    (["checks", "--matrix-file"], "1\n1\n"),
    (["checks", "--matrix-file"], "1.5\n1,0\n"),
    (["checks", "--matrix-file"], "0\n"),
    (["checks", "--matrix-file"], "1\nnan,0\n"),
    (["spectrum", "--model", "custom", "--matrix-file"], None),
    (["spectrum", "--config"], None),
    (["spectrum", "--config"], "{\"model\": "),
    (["spectrum", "--config"], "3"),
], ids=["entry-count", "not-re-im", "size-not-integer", "size-below-1",
        "non-finite", "missing-matrix-file", "missing-config", "invalid-json",
        "config-not-object"])
def test_bad_input_files_are_config_errors(tmp_path, capsys, argv, text):
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text)
    code, out = run_cli(capsys, *argv, str(path))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ConfigError"


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _ = run_cli(capsys, "spectrum", "--model", "dimer",
                      "--g", "0.5", "--k", "1", "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["config"]["model"] == "dimer"


def test_unwritable_out_fails_before_computing(tmp_path, capsys, monkeypatch):
    def forbidden(config):
        raise AssertionError("runner called although --out cannot be written")

    monkeypatch.setitem(cli.COMMANDS, "spectrum",
                        cli.COMMANDS["spectrum"]._replace(run=forbidden))
    code, out = run_cli(capsys, "spectrum", "--out",
                        str(tmp_path / "missing" / "r.json"))
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ConfigError"
    assert error["message"].startswith("cannot write report: ")


@pytest.mark.parametrize("command, columns", [
    (["spectrum", "--model", "cubic", "--truncation", "12"], (int, float, float)),
    (["sweep", "--model", "dimer", "--k", "1", "--sweep", "g:0:2:5"],
     (int, float, int, int, int, float, bool)),
    (["checks"], (str, float, float, bool)),
], ids=["spectrum", "sweep", "checks"])
def test_csv_fields_parse_as_numbers(capsys, command, columns):
    def parse(kind, text):
        if kind is bool:
            assert text in ("True", "False"), text
            return text == "True"
        return kind(text)

    code, out = run_cli(capsys, *command, "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert rows
    for row in rows:
        fields = row.split(",")
        assert len(fields) == len(columns), row
        for kind, text in zip(columns, fields):
            parse(kind, text)


@pytest.mark.parametrize("argv, config, same_as", [
    pytest.param(["spectrum", "--model", "cubic", "--truncation", "x"], None, None,
                 id="truncation-not-int"),
    pytest.param(["spectrum", "--model", "cubic", "--truncation", ""], None, None,
                 id="truncation-empty"),
    pytest.param(["spectrum", "--model", "pu"], {"truncation": [8, 8, 8]}, None,
                 id="truncation-three-cutoffs"),
    pytest.param(["spectrum", "--model", "harmonic", "--truncation", "6,40"], None, None,
                 id="harmonic-two-cutoffs"),
    pytest.param(["spectrum", "--model", "cubic"], {"truncation": [10, 50]}, None,
                 id="cubic-two-cutoffs"),
    pytest.param(["spectrum", "--model", "cubic"], {"truncation": 5},
                 ["spectrum", "--model", "cubic", "--truncation", "5"],
                 id="truncation-json-int"),
    pytest.param(["sweep", "--model", "dimer", "--k", "1"], {"sweep": "g:0:2:5"},
                 ["sweep", "--model", "dimer", "--k", "1", "--sweep", "g:0:2:5"],
                 id="sweep-flag-syntax-in-config"),
    pytest.param(["spectrum", "--model", "nope"], None, None, id="model-unknown"),
    pytest.param(["spectrum", "--model", "cubic"], {"realization": "foo"}, None,
                 id="realization-unknown"),
    pytest.param(["spectrum"], {"format": "xml"}, None, id="format-unknown"),
    pytest.param(["spectrum", "--model", "pu"], {"parameters": {"gamma": "x"}}, None,
                 id="parameter-not-number"),
    pytest.param(["spectrum"], {"parameters": [1]}, None, id="parameters-not-object"),
    pytest.param(["spectrum"], {"out": 5}, None, id="out-not-path"),
    pytest.param(["spectrum", "--out", "{tmp}/missing/r.json"], None, None,
                 id="out-unwritable"),
    pytest.param(["overlap", "--format", "csv"], None, None, id="overlap-csv"),
    pytest.param(["spectrum", "--model", "dimer", "--g", "-1"], None, None,
                 id="dimer-negative-gain"),
    pytest.param(["spectrum", "--model", "pu", "--gamma", "0"], None, None,
                 id="pu-zero-gamma"),
])
def test_outside_input_is_config_error_or_accepted(tmp_path, capsys, argv, config,
                                                   same_as):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    code, out = run_cli(capsys, *argv)
    if same_as is None:
        assert code == 1
        assert json.loads(out)["error"]["type"] == "ConfigError"
    else:
        assert (code, out) == run_cli(capsys, *same_as)
        assert code == 0


def test_removed_tolerance_config_key_is_unknown(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol_real": 1e-8}))
    code, out = run_cli(capsys, "spectrum", "--config", str(cfg))
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ConfigError"
    assert "tol_real" in error["message"]


def test_removed_tolerance_flag_is_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--tol-real", "1e-6"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_import_loads_no_sparse_module():
    # every scipy import sits at its call site (scipy.sparse inside
    # models.grid_eigenvalues, scipy.linalg inside the two-sided geev, the
    # Schur route of find_antilinear_symmetry and evolution's expm), and
    # the connected-component search uses no scipy.sparse.csgraph: importing
    # the CLI loads no scipy module at all
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    probe = ("import sys, biortho.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, env=env, check=True, timeout=120)
    assert result.stdout.strip() == "[]"


def _fresh_cli(*argvs) -> tuple:
    """Exit codes of ``main`` on each argv in one fresh interpreter, and
    whether scipy.linalg was loaded at the end."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    probe = ("import contextlib, io, json, sys, biortho.cli\n"
             "codes = []\n"
             f"for argv in {[list(argv) for argv in argvs]!r}:\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        codes.append(biortho.cli.main(argv))\n"
             "print(json.dumps([codes, 'scipy.linalg' in sys.modules]))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, env=env, check=True, timeout=300)
    return tuple(json.loads(result.stdout))


def test_spectrum_on_signature_models_loads_no_scipy_linalg():
    # dimer, harmonic and PU have a transposition signature: their geev is
    # numpy's right-only one, and nothing else they run needs scipy.linalg
    codes, loaded = _fresh_cli(
        ["spectrum", "--model", "dimer", "--g", "1", "--k", "0.5"],
        ["spectrum", "--model", "harmonic", "--truncation", "20"],
        ["spectrum", "--model", "pu", "--truncation", "10,10"])
    assert codes == [0, 0, 0]
    assert not loaded


def test_spectrum_on_dimer_starts_no_worker_and_probes_no_blas():
    # one block needs no worker thread: no thread pool module, no BLAS
    # thread probe (numpy itself imports ctypes), one thread
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    probe = ("import contextlib, io, json, sys, threading, biortho.cli\n"
             "from biortho import spectral\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = biortho.cli.main(['spectrum', '--model', 'dimer', '--g', '1', '--k', '0.5'])\n"
             "print(json.dumps([code, 'concurrent.futures' in sys.modules,\n"
             "                  spectral._blas_threads.cache_info().currsize,\n"
             "                  threading.active_count()]))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, env=env, check=True, timeout=120)
    assert json.loads(result.stdout) == [0, False, 0, 1]


def test_overlap_and_checks_import_scipy_linalg_when_they_need_it():
    # expm and the two-sided geev import scipy.linalg at their call sites
    codes, loaded = _fresh_cli(["overlap", "--model", "dimer", "--g", "1", "--k", "0.5"],
                               ["checks"])
    assert codes == [0, 0]
    assert loaded


# the flags every subcommand takes, and those of one subcommand only
SHARED_FLAGS = {"config", "model", "truncation", "realization", "matrix_file", "format", "out",
                "alpha", "beta", "gamma", "omega1", "omega2", "g", "k"}
COMMAND_FLAGS = {"spectrum": set(), "sweep": {"sweep"}, "overlap": {"t_max", "n_times"},
                 "checks": set()}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_every_subcommand_parses_its_own_and_the_shared_flags(command):
    flags = SHARED_FLAGS | COMMAND_FLAGS[command]
    assert vars(cli.make_parser().parse_args([command])) == {
        "command": command, **dict.fromkeys(flags)}
    argv = [command]
    for flag in sorted(flags):
        argv += ["--" + flag.replace("_", "-"), f"v-{flag}"]
    assert vars(cli.make_parser().parse_args(argv)) == {
        "command": command, **{flag: f"v-{flag}" for flag in flags}}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_every_subcommand_help_lists_its_flags(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--([a-z][\w-]*)", capsys.readouterr().out))
    assert listed == {"help"} | {flag.replace("_", "-")
                                 for flag in SHARED_FLAGS | COMMAND_FLAGS[command]}
