import numpy as np
import pytest
import scipy.linalg

from biortho.fock import Realization
from biortho.models import (
    PUParams,
    cubic_hamiltonian,
    dimer_hamiltonian,
    pu_hamiltonian_fock,
    pu_spectrum_formula,
)
from biortho.spectral import (
    classify_spectrum,
    defect_report,
    eigendecompose,
)

from oracles import charpoly_eigenvalues, greedy_classify, match_distance

DIMER_UNBROKEN = np.sqrt(0.75)  # ±sqrt(k² − g²) at k=1, g=0.5


def test_diagonal_matrix():
    system = eigendecompose(np.diag([1.0, 2.0]))
    assert np.allclose(system.eigenvalues, [1.0, 2.0])
    assert np.allclose(np.abs(system.right_vectors), np.eye(2))
    assert np.allclose(np.abs(system.left_vectors), np.eye(2))
    assert system.is_diagonalizable
    assert np.allclose(system.overlap_matrix(), np.eye(2), atol=1e-14)


def test_dimer_unbroken_closed_form():
    system = eigendecompose(dimer_hamiltonian(0.5, 1.0))
    assert np.allclose(
        sorted(system.eigenvalues.real), [-DIMER_UNBROKEN, DIMER_UNBROKEN],
        atol=1e-12,
    )
    assert np.max(np.abs(system.eigenvalues.imag)) < 1e-12


def test_nilpotent_dimer_flagged_defective():
    H = dimer_hamiltonian(1.0, 1.0)
    assert np.max(np.abs(H @ H)) == 0.0  # nilpotent by direct multiplication
    system = eigendecompose(H)
    assert not system.is_diagonalizable
    assert np.max(np.abs(system.eigenvalues)) < 1e-6


def test_pairing_matches_conjugates():
    H = dimer_hamiltonian(1.0, 0.5)
    system = eigendecompose(H)
    for i in range(2):
        ei = system.eigenvalues[i]
        ej = system.left_eigenvalues[i]
        assert abs(ej - np.conj(ei)) < 1e-12
        left = system.left_vectors[:, i]
        lhs = H.conj().T @ left
        assert np.linalg.norm(lhs - ej * left) < 1e-12 * np.linalg.norm(left)
    assert system.pairing_residual < 1e-12


def test_normalization_and_residuals():
    rng = np.random.default_rng(3)
    H = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    system = eigendecompose(H)
    G = system.overlap_matrix()
    paired = np.diag(G)
    assert np.allclose(paired, 1.0, atol=1e-10)
    assert system.right_residual < 1e-9 * np.linalg.norm(H, 2)
    assert system.left_residual < 1e-9 * np.linalg.norm(H, 2)


def test_reconstruction_random_diagonalizable():
    rng = np.random.default_rng(11)
    H = rng.standard_normal((60, 60)) + 1j * rng.standard_normal((60, 60))
    system = eigendecompose(H)
    assert np.linalg.norm(system.reconstruct() - H) < 1e-8 * np.linalg.norm(H)


def test_selection_structure_off_pair_overlaps_vanish():
    rng = np.random.default_rng(5)
    H = rng.standard_normal((8, 8))
    system = eigendecompose(H)
    G = system.overlap_matrix()
    Ei, Ej = system.eigenvalues, system.left_eigenvalues
    mismatch = np.abs(Ej[:, None] - np.conj(Ei)[None, :]) > 1e-8
    assert np.max(np.abs(G[mismatch])) < 1e-8


def test_real_matrix_spectrum_conjugation_closed():
    rng = np.random.default_rng(9)
    for _ in range(5):
        H = rng.standard_normal((7, 7))
        evals = np.linalg.eigvals(H)
        buckets = classify_spectrum(evals, tol_real=1e-8, tol_cluster=1e-8)
        assert not buckets.leftovers


def test_real_input_spectrum_exactly_conjugation_closed():
    # entrywise real: every complex eigenvalue must find its exact partner
    system = eigendecompose(cubic_hamiltonian(200, Realization.POSITION_IMAGINARY))
    assert classify_spectrum(system.eigenvalues).leftovers == []
    assert system.pairing_residual == 0.0
    rng = np.random.default_rng(29)
    for n in (7, 30, 64):
        evals = eigendecompose(rng.standard_normal((n, n))).eigenvalues
        assert np.array_equal(np.sort_complex(evals), np.sort_complex(np.conj(evals)))


def test_real_input_residuals_match_complex_gemm():
    # real input with complex eigenvalues: the residual products run as real
    # GEMMs and must match the complex-GEMM values to within GEMM rounding
    H = pu_hamiltonian_fock(8, 8, PUParams.from_alpha_beta(1.0, 1.0, 0.5))
    assert not np.any(H.imag)
    system = eigendecompose(H)
    evals, lvecs, rvecs = scipy.linalg.eig(H.real, left=True, right=True)
    assert np.any(evals.imag)
    order = np.lexsort((evals.imag, evals.real))
    evals, lvecs, rvecs = evals[order], lvecs[:, order], rvecs[:, order]
    Hc = H.astype(complex)
    right = np.max(np.linalg.norm(Hc @ rvecs - rvecs * evals, axis=0))
    left = np.max(np.linalg.norm(
        Hc.conj().T @ lvecs - lvecs * np.conj(evals), axis=0))
    rounding = H.shape[0] * np.finfo(float).eps * np.linalg.norm(H, 2)
    assert abs(system.right_residual - right) <= rounding
    assert abs(system.left_residual - left) <= rounding


def _degenerate_nonnormal(kind):
    rng = np.random.default_rng(37)
    if kind == "kron":
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        return np.kron(np.eye(2), A)
    S = rng.standard_normal((6, 6))
    if kind == "complex":
        S = S + 1j * rng.standard_normal((6, 6))
    return S @ np.diag([1.0, 1.0, 1.0, 2.0, 2.0, 3.0]) @ np.linalg.inv(S)


@pytest.mark.parametrize("kind", ["real", "complex", "kron"])
def test_repeated_eigenvalues_nonnormal_biorthonormal(kind):
    H = _degenerate_nonnormal(kind)
    assert np.linalg.norm(H @ H.conj().T - H.conj().T @ H) > 1e-3  # non-normal
    system = eigendecompose(H)
    assert system.is_diagonalizable
    n = H.shape[0]
    assert np.max(np.abs(system.overlap_matrix() - np.eye(n))) < 1e-10
    assert np.linalg.norm(system.reconstruct() - H) < 1e-10 * np.linalg.norm(H)


def test_clean_cluster_biorthonormal_beside_defective_block():
    # a Jordan block elsewhere must not stop the semisimple cluster fix
    H = scipy.linalg.block_diag([[0.0, 1.0], [0.0, 0.0]], _degenerate_nonnormal("real"))
    system = eigendecompose(H)
    assert system.defective_indices == [0, 1]
    G = system.overlap_matrix()
    assert np.max(np.abs(G[2:, 2:] - np.eye(6))) < 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_repeated_conjugate_pair_cluster_biorthonormal(seed):
    # rounding noise in Re interleaves the repeated pair in the sort
    # (0.3−i, 0.3+i, 0.3−i, 0.3+i); the clusters are found by distance
    B = np.array([[0.3, 1.0], [-1.0, 0.3]])
    S = np.random.default_rng(seed).standard_normal((6, 6))
    H = S @ scipy.linalg.block_diag(B, B, np.diag([2.0, -1.5])) @ np.linalg.inv(S)
    system = eigendecompose(H)
    assert system.is_diagonalizable
    assert np.max(np.abs(system.overlap_matrix() - np.eye(6))) < 1e-12


def test_condition_numbers():
    rng = np.random.default_rng(41)
    X = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
    hermitian = eigendecompose(X + X.conj().T).condition_numbers
    assert np.max(np.abs(hermitian - 1.0)) < 1e-12
    suite = [
        X,
        dimer_hamiltonian(1.0, 0.5),
        dimer_hamiltonian(1.0, 1.0),
        cubic_hamiltonian(200, Realization.POSITION_IMAGINARY),
    ]
    for H in suite:
        system = eigendecompose(H)
        kappa = system.condition_numbers
        # Cauchy-Schwarz; the slack is rounding in the norms and overlaps
        assert np.all(kappa >= 1.0 - 1e-12)
        assert system.defective_indices == np.flatnonzero(kappa > 1e10).tolist()
    assert eigendecompose(dimer_hamiltonian(1.0, 1.0)).defective_indices == [0, 1]


def test_eigendecompose_input_validation():
    with pytest.raises(ValueError):
        eigendecompose(np.ones((2, 3)))
    with pytest.raises(ValueError):
        eigendecompose(np.array([[np.nan, 0], [0, 1]]))


def test_eigendecompose_one_by_one():
    system = eigendecompose(np.array([[2.0 + 3.0j]]))
    assert system.eigenvalues[0] == 2.0 + 3.0j
    assert abs(system.overlap_matrix()[0, 0] - 1.0) < 1e-14


def test_residual_gate_raises_convergence_error_with_partial():
    from biortho.errors import ConvergenceError

    rng = np.random.default_rng(19)
    H = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    with pytest.raises(ConvergenceError) as excinfo:
        eigendecompose(H, tol=1e-30)
    assert excinfo.value.partial is not None


def test_oracle_equivalence_random_matrices():
    rng = np.random.default_rng(17)
    for _ in range(20):
        H = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        lapack = np.linalg.eigvals(H)
        independent = charpoly_eigenvalues(H)
        assert match_distance(lapack, independent) < 1e-6


def test_classify_real_singles():
    buckets = classify_spectrum([1.0, 2.0])
    assert buckets.real_singles == [1.0, 2.0]
    assert not buckets.conjugate_pairs
    assert not buckets.has_warning
    assert buckets.count == 2


def test_classify_pair_plus_single():
    buckets = classify_spectrum([1 + 0.5j, 1 - 0.5j, 3.0])
    assert buckets.real_singles == [3.0]
    assert buckets.conjugate_pairs == [(1 + 0.5j, 1 - 0.5j)]
    assert buckets.pair_indices == [(0, 1)]
    assert buckets.count == 3


def test_classify_pu_complex_regime_levels():
    # E(n1,n2) over {0,1}²: {1, 2±0.5i, 3}
    params = PUParams.from_alpha_beta(1.0, 1.0, 0.5)
    levels = pu_spectrum_formula(params, 1, 1).ravel()
    buckets = classify_spectrum(levels)
    assert buckets.real_singles == [1.0, 3.0]
    assert buckets.conjugate_pairs == [(2 + 0.5j, 2 - 0.5j)]


def test_classify_unpaired_complex_is_leftover():
    buckets = classify_spectrum([1 + 1j, 5.0])
    assert buckets.real_singles == [5.0]
    assert buckets.leftovers == [1 + 1j]
    assert buckets.has_warning


def test_classify_every_eigenvalue_bucketed_once():
    rng = np.random.default_rng(23)
    evals = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    evals = np.concatenate([evals, np.conj(evals), rng.standard_normal(4)])
    buckets = classify_spectrum(evals, tol_real=1e-12, tol_cluster=1e-12)
    assert buckets.count == len(evals)
    for pair, (a, b) in zip(buckets.conjugate_pairs, buckets.pair_indices):
        assert pair == (evals[a], evals[b])


def _lattice_spectrum(rng):
    """Eigenvalues on a coarse lattice (exact repeats, equal distances,
    real points) plus conjugates perturbed below 1e-8."""
    k = int(rng.integers(1, 25))
    lattice = rng.integers(0, 4, k) * 0.5 + 1j * rng.integers(-2, 3, k) * 0.5
    near = np.conj(lattice[: int(rng.integers(0, k + 1))])
    near = near + 1e-9 * rng.integers(-3, 4, len(near)) * (1 + 1j)
    return rng.permutation(np.concatenate([lattice, near]))


def test_classify_matches_greedy_oracle():
    rng = np.random.default_rng(2718)
    for _ in range(300):
        evals = _lattice_spectrum(rng)
        tol_cluster = float(rng.choice([1e-8, 0.6, 1.1]))
        fast = classify_spectrum(evals, tol_real=1e-12, tol_cluster=tol_cluster)
        slow = greedy_classify(evals, tol_real=1e-12, tol_cluster=tol_cluster)
        assert fast == slow


def test_defect_report_nilpotent():
    report = defect_report(dimer_hamiltonian(1.0, 1.0), 0.0)
    assert report.algebraic_multiplicity == 2
    assert report.geometric_multiplicity == 1
    assert report.is_defective


def test_defect_report_diagonal_degenerate():
    report = defect_report(np.diag([5.0, 5.0]), 5.0)
    assert report.algebraic_multiplicity == 2
    assert report.geometric_multiplicity == 2
    assert not report.is_defective
