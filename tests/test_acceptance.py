"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers once the stated tolerances hold.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

import numpy as np
import pytest
import sympy

from biortho.antilinear import (
    anticommutator_with,
    build_c_operator,
    commutes_with,
    find_antilinear_symmetry,
    is_real,
)
from biortho.errors import NoAntilinearSymmetryError
from biortho.evolution import euclidean_reality, overlap_trace, selection_rule_check
from biortho.fock import Realization
from biortho.lorentz import (
    charge_conjugation_matrix,
    charge_conjugation_residual,
    complex_boost_spinor,
    coordinate_inversion,
    cpt_linear_part_check,
    dirac_basis,
    majorana_basis,
)
from biortho.models import (
    PUParams,
    cubic_hamiltonian,
    cubic_oracle,
    dimer_hamiltonian,
    dimer_pt_operator,
    harmonic_hamiltonian,
    pt_operator,
    pu_dynamical_matrix,
    pu_hamiltonian_fock,
    pu_spectrum_formula,
)
from biortho.spectral import classify_spectrum, eigendecompose

from oracles import charpoly_eigenvalues, match_distance


def _report(number, label, **measured):
    detail = ", ".join(f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}"
                       for k, v in measured.items())
    print(f"[acceptance] criterion {number} ({label}): PASS  {detail}")


def test_criterion_01_pu_real_regime():
    start = time.monotonic()
    params = PUParams(gamma=1.0, omega1=1.0, omega2=2.0)

    freqs = pu_dynamical_matrix(params).eigenfrequencies()
    freq_err = float(np.max(np.abs(freqs - np.array([1.0, 2.0]))))
    assert freq_err < 1e-12

    levels = pu_spectrum_formula(params, 1, 1)
    assert levels[0, 0] == 1.5
    assert levels[1, 0] == 2.5
    assert levels[0, 1] == 3.5

    # Fock cross-check at 40x40; convergence study measured 2.8e-13 here,
    # gate frozen at 1e-2. H is entrywise real, so the real eigvals (dgeev)
    # finds its spectrum in a third of the complex one's time
    H = pu_hamiltonian_fock(40, 40, params)
    assert not H.imag.any()
    evals = np.linalg.eigvals(H.real)
    evals = evals[np.argsort(evals.real)]
    fock_err = float(np.max(np.abs(evals[:4] - np.array([1.5, 2.5, 3.5, 3.5]))))
    assert fock_err < 1e-2

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(1, "PU real regime", freq_err=freq_err, fock_err=fock_err,
            seconds=elapsed)


def test_criterion_02_pu_complex_regime():
    start = time.monotonic()
    params = PUParams.from_alpha_beta(gamma=1.0, alpha=1.0, beta=0.5)

    # coefficient reality holds exactly in floating point
    assert params.sum_sq == 1.5 + 0.0j
    assert params.prod_sq == 1.5625 + 0.0j

    levels = pu_spectrum_formula(params, 1, 1).ravel()
    assert sorted(levels, key=lambda e: (e.real, e.imag)) == [
        1.0, 2.0 - 0.5j, 2.0 + 0.5j, 3.0]

    buckets = classify_spectrum(levels)
    assert buckets.real_singles == [1.0, 3.0]
    assert buckets.conjugate_pairs == [(2 + 0.5j, 2 - 0.5j)]
    assert not buckets.leftovers

    # truncated matrix reproduces the same bucket pattern
    evals = np.linalg.eigvals(pu_hamiltonian_fock(20, 20, params))
    nearest = np.array([evals[np.argmin(np.abs(evals - t))] for t in levels])
    trunc_err = float(np.max(np.abs(nearest - levels)))
    fock_buckets = classify_spectrum(nearest, tol=1e-6)
    assert len(fock_buckets.conjugate_pairs) == 1
    assert len(fock_buckets.real_singles) == 2

    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(2, "PU complex regime", trunc_err=trunc_err, seconds=elapsed)


def test_criterion_03_pu_exceptional_point():
    params = PUParams(gamma=1.0, omega1=1.0, omega2=1.0)
    M = pu_dynamical_matrix(params).dynamical_matrix

    system = eigendecompose(M)
    assert not system.is_diagonalizable
    report = next(d for d in system.defects if abs(d.eigenvalue - 1j) < 1e-6)
    assert report.algebraic_multiplicity == 2
    assert report.geometric_multiplicity == 1

    # exact rank computation, independently of floating point
    M_exact = sympy.Matrix([[0, 0, 1, 0], [1, 0, 0, 0],
                            [-2, 0, 0, -1], [0, 1, 0, 0]])
    assert np.allclose(M, np.array(M_exact, dtype=float), atol=0)
    exact_rank = (M_exact - sympy.I * sympy.eye(4)).rank()
    assert exact_rank == 3

    _report(3, "PU exceptional point",
            algebraic=report.algebraic_multiplicity,
            geometric=report.geometric_multiplicity,
            exact_rank=exact_rank)


def test_criterion_04_cubic_oscillator_reality():
    start = time.monotonic()

    H_imag = cubic_hamiltonian(32, Realization.POSITION_IMAGINARY)
    reality = is_real(H_imag)
    assert reality.max_imag == 0.0

    H_real = cubic_hamiltonian(32, Realization.POSITION_REAL)
    pt_residual = commutes_with(
        pt_operator(32, Realization.POSITION_REAL), H_real).residual
    assert pt_residual < 1e-12

    oracle = cubic_oracle(grid_points=2000, box_half_width=8.0)
    fock_errs, imag_parts = [], []
    for n in (64, 96):
        evals = np.linalg.eigvals(cubic_hamiltonian(n, Realization.POSITION_REAL))
        evals = evals[np.argsort(evals.real)]
        for level in range(2):
            fock_errs.append(abs(evals[level] - oracle.eigenvalues[level]))
            imag_parts.append(abs(evals[level].imag))
    assert max(fock_errs) < 1e-3
    assert max(imag_parts) < 1e-6
    assert float(np.max(np.abs(oracle.eigenvalues[:2].imag))) < 1e-6

    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(4, "cubic oscillator reality", pt_residual=pt_residual,
            dual_method_err=float(max(fock_errs)), seconds=elapsed)


def test_criterion_05_selection_rule_time_independence():
    start = time.monotonic()
    worst_drift, worst_forbidden = 0.0, 0.0
    for k, g in ((1.0, 0.5), (0.5, 1.0)):
        system = eigendecompose(dimer_hamiltonian(g, k))
        trace = overlap_trace(system, t_max=10.0, n_times=101)
        worst_drift = max(worst_drift, trace.max_drift)

        G0 = trace.overlaps[0]
        Ei, Ej = trace.right_eigenvalues, trace.left_eigenvalues
        allowed = (
            (np.abs(Ej.real[:, None] - Ei.real[None, :]) < 1e-8)
            & (np.abs(Ej.imag[:, None] + Ei.imag[None, :]) < 1e-8)
        )
        nonzero = np.abs(G0) > 1e-9
        assert not np.any(nonzero & ~allowed)
        rule = selection_rule_check(system, tol=1e-9)
        assert rule.ok
        worst_forbidden = max(worst_forbidden, rule.max_forbidden_overlap)
    assert worst_drift < 1e-9

    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(5, "selection rule / time independence", max_drift=worst_drift,
            max_forbidden=worst_forbidden, seconds=elapsed)


def test_criterion_06_antilinear_symmetry_existence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        H = rng.standard_normal((6, 6))
        op = find_antilinear_symmetry(H, tol=1e-8)
        residual = commutes_with(op, H).residual
        worst = max(worst, residual)
        assert residual < 1e-8
    with pytest.raises(NoAntilinearSymmetryError):
        find_antilinear_symmetry(np.diag([1 + 1j, 5.0]))
    _report(6, "antilinear symmetry existence", worst_residual=worst)


def test_criterion_07_c_operator_properties():
    pt = dimer_pt_operator()

    H = dimer_hamiltonian(0.5, 1.0)
    C = build_c_operator(eigendecompose(H), pt)
    sq = float(np.linalg.norm(C @ C - np.eye(2)))
    comm_h = float(np.linalg.norm(C @ H - H @ C))
    comm_pt = float(np.linalg.norm(anticommutator_with(C, pt)))
    assert sq < 1e-10 and comm_h < 1e-10 and comm_pt < 1e-10

    H_b = dimer_hamiltonian(1.0, 0.5)
    C_b = build_c_operator(eigendecompose(H_b), pt)
    broken_comm_pt = float(np.linalg.norm(anticommutator_with(C_b, pt)))
    assert broken_comm_pt > 0.1

    _report(7, "C operator properties", unbroken_c2=sq, unbroken_ch=comm_h,
            unbroken_cpt=comm_pt, broken_cpt=broken_comm_pt)


def test_criterion_08_euclidean_reality():
    real_models = [
        ("harmonic", harmonic_hamiltonian(16)),
        ("cubic-imag", cubic_hamiltonian(24, Realization.POSITION_IMAGINARY)),
        ("pu-fock", pu_hamiltonian_fock(10, 10, PUParams(1.0, 1.0, 2.0))),
        ("dimer-hermitian", dimer_hamiltonian(0.0, 1.0)),
    ]
    worst = 0.0
    for name, H in real_models:
        assert is_real(H).is_real, name
        for tau in (0.1, 1.0, 5.0):
            report = euclidean_reality(H, tau)
            assert report.is_real, (name, tau)
            worst = max(worst, report.max_imag)

    broken = euclidean_reality(dimer_hamiltonian(1.0, 0.5), 1.0)
    assert not broken.is_real
    assert broken.trace_is_real()

    _report(8, "Euclidean reality", worst_entry_imag=worst,
            broken_trace_imag=broken.trace_imag,
            broken_max_entry_imag=broken.max_imag)


def test_criterion_09_lorentz_identities():
    start = time.monotonic()
    worst_boost, worst_c = 0.0, 0.0
    for basis in (majorana_basis(), dirac_basis()):
        for i in (1, 2, 3):
            boost = complex_boost_spinor(basis, i, 1j * np.pi)
            target = basis.gammas[0] @ basis.gammas[i]
            worst_boost = max(worst_boost,
                              float(np.max(np.abs(boost + 1j * target))))
        assert cpt_linear_part_check(basis).residual < 1e-12
        C, _ = charge_conjugation_matrix(basis)
        worst_c = max(worst_c, charge_conjugation_residual(basis, C))
    assert worst_boost < 1e-12
    assert worst_c < 1e-13
    assert np.array_equal(coordinate_inversion(), -np.eye(4))

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(9, "Lorentz identities", boost_residual=worst_boost,
            charge_conjugation_residual=worst_c, seconds=elapsed)


def test_criterion_10_eigensolver_oracle_equivalence():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        H = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        mismatch = match_distance(np.linalg.eigvals(H), charpoly_eigenvalues(H))
        worst = max(worst, mismatch)
        assert mismatch < 1e-6

    n = 400
    H = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
    system = eigendecompose(H)
    recon = float(np.linalg.norm(system.reconstruct() - H) / np.linalg.norm(H))
    assert recon < 1e-8

    _report(10, "eigensolver oracle equivalence", worst_root_mismatch=worst,
            reconstruction=recon)
