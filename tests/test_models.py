import numpy as np
import pytest

from biortho.antilinear import commutes_with, identity_op, is_real
from biortho.errors import BoundaryResolutionError, InvalidCutoffError
from biortho.fock import Realization
from biortho.models import (
    PUParams,
    cubic_hamiltonian,
    cubic_oracle,
    dimer_hamiltonian,
    grid_eigenvalues,
    harmonic_hamiltonian,
    pt_operator,
    pu_dynamical_matrix,
    pu_hamiltonian_fock,
    pu_pt_operator,
    pu_spectrum_formula,
)
from biortho.spectral import _real_form, classify_spectrum, eigendecompose

from oracles import faddeev_leverrier, match_distance, pu_fock_kron_reference


# ---------------------------------------------------------------- cubic

def test_cubic_imaginary_realization_entrywise_real():
    H = cubic_hamiltonian(32, Realization.POSITION_IMAGINARY)
    report = is_real(H)
    assert report.max_imag == 0.0


def test_cubic_real_realization_pt_symmetric():
    H = cubic_hamiltonian(32, Realization.POSITION_REAL)
    pt = pt_operator(32, Realization.POSITION_REAL)
    assert commutes_with(pt, H).residual < 1e-12


def test_cubic_rejects_small_cutoff():
    with pytest.raises(InvalidCutoffError):
        cubic_hamiltonian(3)


def test_cubic_fock_matches_grid_oracle():
    H = cubic_hamiltonian(48, Realization.POSITION_REAL)
    evals = np.linalg.eigvals(H)
    evals = evals[np.argsort(evals.real)]
    oracle = cubic_oracle(grid_points=1000, box_half_width=7.0,
                          check_boundary=False)
    assert abs(evals[0] - oracle.eigenvalues[0]) < 1e-3


def test_oracle_harmonic_self_test():
    # swap in x²/2 with p²/2 kinetic term: spectrum k + 1/2
    evals = grid_eigenvalues(lambda x: 0.5 * x**2, 2400, 10.0,
                             kinetic_coefficient=0.5, n_eigenvalues=5,
                             shift=1.0)
    assert np.max(np.abs(evals.real - (np.arange(5) + 0.5))) < 1e-4
    assert np.max(np.abs(evals.imag)) < 1e-8


def test_oracle_grid_self_consistency():
    coarse = cubic_oracle(grid_points=2000, check_boundary=False)
    fine = cubic_oracle(grid_points=4000, check_boundary=False)
    assert abs(coarse.eigenvalues[0] - fine.eigenvalues[0]) < 1e-4


def test_oracle_boundary_doubling_check():
    result = cubic_oracle(grid_points=1000, box_half_width=7.0)
    assert result.boundary_shift < 1e-4
    with pytest.raises(BoundaryResolutionError):
        cubic_oracle(grid_points=600, box_half_width=1.5)


def test_oracle_low_lying_imaginary_parts_small():
    result = cubic_oracle(grid_points=1500, check_boundary=False,
                          n_eigenvalues=4)
    assert np.max(np.abs(result.eigenvalues[:2].imag)) < 1e-6


def test_grid_eigenvalues_rejects_coarse_grid():
    with pytest.raises(ValueError):
        grid_eigenvalues(lambda x: 1j * x**3, 400, 8.0)


# ---------------------------------------------------------------- harmonic

def test_harmonic_low_spectrum():
    H = harmonic_hamiltonian(32)
    evals = np.sort(np.linalg.eigvals(H).real)
    assert np.allclose(evals[:16], np.arange(16) + 0.5, atol=1e-10)


# ---------------------------------------------------------------- PU params

def test_pu_params_validation():
    with pytest.raises(ValueError):
        PUParams(gamma=1.0, omega1=1 + 1j, omega2=2.0)   # coefficients complex
    with pytest.raises(ValueError):
        PUParams(gamma=-1.0, omega1=1.0, omega2=2.0)
    assert PUParams(1.0, 1.0, 2.0).regime == "real"
    assert PUParams(1.0, 1.0, 1.0).regime == "degenerate"
    assert PUParams.from_alpha_beta(1.0, 1.0, 0.5).regime == "conjugate-pair"


def test_pu_coefficient_reality_conjugate_pair():
    params = PUParams.from_alpha_beta(1.0, 1.0, 0.5)
    assert params.sum_sq == 1.5 + 0j          # 2(α² − β²), exactly
    assert params.prod_sq == 1.5625 + 0j      # (α² + β²)², exactly


# ---------------------------------------------------------------- PU 4x4

def test_pu_dynamical_matrix_real_regime():
    model = pu_dynamical_matrix(PUParams(1.0, 1.0, 2.0))
    evals = np.linalg.eigvals(model.dynamical_matrix)
    # roots of λ⁴ + 5λ² + 4 = (λ² + 1)(λ² + 4)
    expected = np.array([1j, -1j, 2j, -2j])
    assert match_distance(evals, expected) < 1e-12
    assert np.allclose(model.eigenfrequencies(), [1.0, 2.0], atol=1e-12)


def test_pu_dynamical_matrix_complex_regime():
    model = pu_dynamical_matrix(PUParams.from_alpha_beta(1.0, 1.0, 0.5))
    freqs = model.eigenfrequencies()
    assert match_distance(freqs, [1 + 0.5j, 1 - 0.5j]) < 1e-12


def test_pu_dynamical_matrix_eigenvalues_pair_up():
    rng = np.random.default_rng(21)
    for _ in range(10):
        params = PUParams(float(rng.uniform(0.5, 2.0)),
                          float(rng.uniform(0.5, 3.0)),
                          float(rng.uniform(0.5, 3.0)))
        evals = np.linalg.eigvals(pu_dynamical_matrix(params).dynamical_matrix)
        assert match_distance(evals, -evals) < 1e-10


def test_pu_characteristic_polynomial_coefficients():
    rng = np.random.default_rng(22)
    for draw in range(20):
        gamma = float(rng.uniform(0.3, 3.0))
        if draw % 2 == 0:
            params = PUParams(gamma, float(rng.uniform(0.3, 3.0)),
                              float(rng.uniform(0.3, 3.0)))
        else:
            params = PUParams.from_alpha_beta(
                gamma, float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.1, 1.5)))
        M = pu_dynamical_matrix(params).dynamical_matrix
        coeffs = faddeev_leverrier(M)
        expected = np.array([1.0, 0.0, params.sum_sq.real, 0.0,
                             params.prod_sq.real])
        assert np.max(np.abs(coeffs - expected)) < 1e-12 * max(
            1.0, params.prod_sq.real)


def test_pu_equal_frequency_jordan_block():
    M = pu_dynamical_matrix(PUParams(1.0, 1.0, 1.0)).dynamical_matrix
    system = eigendecompose(M)
    assert not system.is_diagonalizable
    report = next(d for d in system.defects if abs(d.eigenvalue - 1j) < 1e-6)
    assert report.algebraic_multiplicity == 2
    assert report.geometric_multiplicity == 1


def test_pu_equal_frequency_exact_rank():
    # independent exact-arithmetic rank of (M − i·1) for γ=1, ω₁=ω₂=1
    import sympy

    M = pu_dynamical_matrix(PUParams(1.0, 1.0, 1.0)).dynamical_matrix
    M_exact = sympy.Matrix([
        [0, 0, 1, 0],
        [1, 0, 0, 0],
        [-2, 0, 0, -1],
        [0, 1, 0, 0],
    ])
    assert np.allclose(M, np.array(M_exact, dtype=float), atol=0)
    shifted = M_exact - sympy.I * sympy.eye(4)
    assert shifted.rank() == 3                 # geometric multiplicity 1
    charpoly = M_exact.charpoly().as_expr()
    lam = sympy.symbols(str(charpoly.free_symbols.pop()))
    assert sympy.expand(charpoly - (lam**2 + 1)**2) == 0


# ---------------------------------------------------------------- PU formula

def test_pu_formula_real_regime_values():
    levels = pu_spectrum_formula(PUParams(1.0, 1.0, 2.0), 1, 1)
    assert levels[0, 0] == 1.5
    assert levels[1, 0] == 2.5
    assert levels[0, 1] == 3.5


def test_pu_formula_complex_regime_values():
    levels = pu_spectrum_formula(PUParams.from_alpha_beta(1.0, 1.0, 0.5), 1, 1)
    assert levels[1, 0] == 2 + 0.5j
    assert levels[0, 1] == 2 - 0.5j


def test_pu_formula_degenerate_warns():
    with pytest.warns(UserWarning):
        levels = pu_spectrum_formula(PUParams(1.0, 1.0, 1.0), 2, 2)
    n1, n2 = np.meshgrid(np.arange(3), np.arange(3), indexing="ij")
    assert np.allclose(levels, n1 + n2 + 1.0)


# ---------------------------------------------------------------- PU Fock

def test_pu_fock_matrix_entrywise_real():
    for params in (PUParams(1.0, 1.0, 2.0),
                   PUParams.from_alpha_beta(1.0, 1.0, 0.5)):
        H = pu_hamiltonian_fock(8, 8, params)
        assert np.max(np.abs(H.imag)) == 0.0


@pytest.mark.parametrize("z_realization", list(Realization))
@pytest.mark.parametrize("n1, n2", [(8, 8), (12, 20), (20, 20)])
@pytest.mark.parametrize("params", [
    PUParams(1.0, 1.0, 2.0),
    PUParams.from_alpha_beta(1.0, 1.0, 0.5),
    PUParams(1.0, 1.0, 1.0),
], ids=lambda p: p.regime)
def test_pu_fock_matches_kron_reference(params, n1, n2, z_realization):
    # unequal cutoffs pin the mode order: x is the slow Kronecker index
    realizations = (Realization.POSITION_REAL, z_realization)
    H = pu_hamiltonian_fock(n1, n2, params, realizations=realizations)
    assert type(H) is np.ndarray
    assert H.shape == (n1 * n2, n1 * n2)
    assert not H.flags.writeable
    reference = pu_fock_kron_reference(n1, n2, params, realizations=realizations)
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(H - reference)) <= 4 * np.finfo(float).eps * scale


def test_pu_fock_pt_residual():
    for params in (PUParams(1.0, 1.0, 2.0),
                   PUParams.from_alpha_beta(2.0, 1.0, 0.7)):
        H = pu_hamiltonian_fock(10, 10, params)
        assert commutes_with(pu_pt_operator(10, 10), H).residual < 1e-10
        # a real matrix also trivially commutes with plain conjugation
        assert commutes_with(identity_op(100), H).residual == 0.0


@pytest.mark.parametrize("params", [PUParams(1.0, 1.0, 2.0),
                                    PUParams.from_alpha_beta(1.0, 1.0, 0.3)],
                         ids=lambda p: p.regime)
@pytest.mark.parametrize("n1, n2", [(12, 12), (20, 20), (16, 10)])
def test_pu_fock_splits_into_two_parity_sectors(params, n1, n2):
    # a real H with PT = (P⊗P)∘K commutes with the linear P⊗P, so its
    # nonzero pattern is exactly the two P⊗P sectors, each factorized on
    # its own by eigendecompose
    H = pu_hamiltonian_fock(n1, n2, params)
    parity = np.diagonal(pu_pt_operator(n1, n2).linear_part).real
    blocks = _real_form(np.asarray(H, dtype=complex))[2]
    assert [len(idx) for idx in blocks] == [n1 * n2 // 2] * 2
    assert [set(parity[idx]) for idx in blocks] == [{1.0}, {-1.0}]


@pytest.mark.parametrize("realization", list(Realization))
def test_cubic_fock_is_one_block(realization):
    assert len(_real_form(np.asarray(cubic_hamiltonian(200, realization), dtype=complex))[2]) == 1


def test_pu_fock_converges_to_formula():
    # convergence study fixture (scaled bases): max error of the 4 lowest
    # levels vs {1.5, 2.5, 3.5, 3.5} measured at 3.6e-07 (N=16), 2.5e-12
    # (N=24), 2.8e-13 (N=40)
    params = PUParams(1.0, 1.0, 2.0)
    expected = np.array([1.5, 2.5, 3.5, 3.5])
    errors = []
    for n in (16, 24):
        evals = np.linalg.eigvals(pu_hamiltonian_fock(n, n, params))
        evals = evals[np.argsort(evals.real)]
        errors.append(np.max(np.abs(evals[:4] - expected)))
    assert errors[0] < 1e-5
    assert errors[1] < 1e-9
    assert errors[1] < errors[0]


def test_pu_fock_complex_regime_classification():
    params = PUParams.from_alpha_beta(1.0, 1.0, 0.5)
    H = pu_hamiltonian_fock(20, 20, params)
    evals = np.linalg.eigvals(H)
    targets = pu_spectrum_formula(params, 1, 1).ravel()
    nearest = np.array([evals[np.argmin(np.abs(evals - t))] for t in targets])
    assert np.max(np.abs(nearest - targets)) < 1e-4
    buckets = classify_spectrum(nearest, tol=1e-6)
    assert len(buckets.conjugate_pairs) == 1
    assert np.allclose(sorted(buckets.real_singles), [1.0, 3.0], atol=1e-4)


def test_pu_fock_real_z_contour_is_unbounded_below():
    # comparison fixture for the realization study: the real-z contour
    # keeps the ghost sign and the truncated spectrum dives far below the
    # level formula's ground state
    params = PUParams(1.0, 1.0, 2.0)
    H = pu_hamiltonian_fock(16, 16, params,
                            realizations=(Realization.POSITION_REAL,
                                          Realization.POSITION_REAL))
    lowest = np.min(np.linalg.eigvals(H).real)
    assert lowest < -5.0


def test_pu_fock_rejects_small_cutoffs():
    with pytest.raises(InvalidCutoffError):
        pu_hamiltonian_fock(4, 16, PUParams(1.0, 1.0, 2.0))


def test_pu_mode_scales_values():
    from biortho.models import pu_mode_scales

    sx, sz = pu_mode_scales(PUParams(1.0, 1.0, 2.0))
    assert sx == pytest.approx(5.0 ** -0.25)
    assert sz == pytest.approx(0.5)


def test_pu_regime_trichotomy_sweep():
    # β scan at fixed α: defect exactly at β=0, conjugate pairs beyond
    alpha = 1.0
    for beta in (0.0, 0.05, 0.2, 0.5):
        params = PUParams.from_alpha_beta(1.0, alpha, beta)
        M = pu_dynamical_matrix(params).dynamical_matrix
        freq_evals = np.linalg.eigvals(M)
        buckets = classify_spectrum(freq_evals)
        if beta == 0.0:
            assert any(abs(d.eigenvalue - 1j * alpha) < 1e-6 and d.is_defective
                       for d in eigendecompose(M).defects)
        else:
            assert len(buckets.conjugate_pairs) == 2
    # the same transition in the truncated Fock picture
    for beta, expect_pair in ((0.3, True),):
        params = PUParams.from_alpha_beta(1.0, alpha, beta)
        evals = np.linalg.eigvals(pu_hamiltonian_fock(16, 16, params))
        target = (1.5) * (alpha + 1j * beta) + 0.5 * (alpha - 1j * beta)
        nearest = evals[np.argmin(np.abs(evals - target))]
        assert (abs(nearest.imag) > 0.1) == expect_pair


# ---------------------------------------------------------------- dimer

def test_dimer_matrix_and_spectrum():
    H = dimer_hamiltonian(0.0, 1.0)
    assert np.allclose(np.sort(np.linalg.eigvals(H).real), [-1.0, 1.0])
    H = dimer_hamiltonian(0.5, 1.0)
    evals = np.linalg.eigvals(H)
    assert match_distance(evals, [np.sqrt(0.75), -np.sqrt(0.75)]) < 1e-12


def test_dimer_exceptional_point_nilpotent():
    H = dimer_hamiltonian(1.0, 1.0)
    assert np.max(np.abs(H @ H)) == 0.0
    [report] = eigendecompose(H).defects
    assert report.is_defective


def test_dimer_rejects_negative_parameters():
    with pytest.raises(ValueError):
        dimer_hamiltonian(-1.0, 1.0)
