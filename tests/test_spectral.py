import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse.csgraph import connected_components

from biortho.errors import ConvergenceError
from biortho.fock import Realization
from biortho.models import (
    PUParams,
    cubic_hamiltonian,
    dimer_hamiltonian,
    pu_hamiltonian_fock,
    pu_spectrum_formula,
)
from biortho.spectral import (
    OVERLAP_FLOOR,
    _blocks,
    _norm_lower_bound,
    _real_form,
    classify_spectrum,
    eigendecompose,
)

from oracles import charpoly_eigenvalues, full_geev, greedy_classify, match_distance

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
        buckets = classify_spectrum(evals, tol=1e-8)
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
    buckets = classify_spectrum(evals, tol=1e-12)
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
        tol = float(rng.choice([1e-8, 0.6, 1.1]))
        assert classify_spectrum(evals, tol) == greedy_classify(evals, tol)


def test_classify_matches_greedy_oracle_on_wide_pairs():
    # imaginary parts large against the real ones, so a wide tolerance
    # still leaves complex levels, and pairs tie at equal distances
    rng = np.random.default_rng(3141)
    for _ in range(100):
        k = int(rng.integers(1, 25))
        evals = (rng.integers(0, 4, k) * 0.5
                 + 1j * rng.choice([-3.0, -2.0, 0.0, 2.0, 3.0], k))
        for tol in (0.15, 0.3):
            assert classify_spectrum(evals, tol) == greedy_classify(evals, tol)


def _floats(bound):
    return st.floats(-bound, bound, allow_nan=False, allow_subnormal=False)


@st.composite
def spectra(draw):
    """Complex values, some followed by their conjugate nudged by a
    relative step, some by a nearly real level."""
    values = draw(st.lists(st.builds(complex, _floats(50.0), _floats(50.0)),
                           min_size=1, max_size=12))
    nudge = st.sampled_from([0.0, 1e-12, 3e-9, 2e-8, 1e-6])
    mirrored = [np.conj(v) * (1.0 + draw(nudge)) for v in values
                if draw(st.booleans())]
    nearly_real = [complex(v.real, v.real * draw(nudge)) for v in values
                   if draw(st.booleans())]
    return np.array(values + mirrored + nearly_real)


@given(spectra(), st.integers(min_value=1, max_value=60))
@settings(max_examples=200, deadline=None)
def test_classify_invariant_under_power_of_two_scaling(evals, k):
    # scaling by 2**k is exact, and so is the relative rule's verdict
    assume(np.max(np.abs(evals)) >= 1.0)
    base, scaled = classify_spectrum(evals), classify_spectrum(2.0**k * evals)
    assert scaled.pair_indices == base.pair_indices
    assert len(scaled.leftovers) == len(base.leftovers)
    assert len(scaled.real_singles) == len(base.real_singles)


def test_defect_report_nilpotent():
    system = eigendecompose(dimer_hamiltonian(1.0, 1.0))
    assert not system.is_diagonalizable
    [report] = system.defects
    assert report.algebraic_multiplicity == 2
    assert report.geometric_multiplicity == 1
    assert report.is_defective


def test_defect_report_diagonal_degenerate():
    system = eigendecompose(np.diag([5.0, 5.0]))
    # algebraic multiplicity 2, geometric 2
    assert np.array_equal(system.eigenvalues, [5.0, 5.0])
    assert np.linalg.matrix_rank(system.right_vectors) == 2
    assert system.is_diagonalizable
    assert system.defects == []


@pytest.mark.parametrize("H", [
    np.diag([1.0, 1.0 + 1e-7]),
    np.diag([1.0, 1.0 + 1e-7, 1.0 + 2e-7]),
    # two non-normal dimers whose levels sit 1.2e-7 apart
    scipy.linalg.block_diag(dimer_hamiltonian(0.5, 1.0),
                            dimer_hamiltonian(0.5, 1.0 + 1e-7)),
])
def test_close_distinct_eigenvalues_are_not_defective(H):
    # one cluster at the defect radius, but every member has its own
    # eigenvector: the rank test must not read the spread as a Jordan block
    system = eigendecompose(H)
    assert system.is_diagonalizable
    assert system.defects == []


@pytest.mark.parametrize("params", [PUParams(1.0, 1.0, 2.0),
                                    PUParams.from_alpha_beta(1.0, 1.0, 0.3)],
                         ids=lambda p: p.regime)
def test_block_factorization_matches_full_geev(params):
    H = pu_hamiltonian_fock(12, 12, params)
    assert len(_blocks(H)) == 2
    system = eigendecompose(H)
    evals, kappa = full_geev(H)
    # each eigenvalue within its own rounding disc κ_i·u·||H||₂
    disc = kappa * np.finfo(float).eps * np.linalg.norm(H, 2)
    assert np.all(np.abs(system.eigenvalues - evals) < 1e3 * disc)
    assert np.allclose(system.condition_numbers, kappa, rtol=1e-8, atol=0.0)
    assert system.defective_indices == np.flatnonzero(kappa > 1 / OVERLAP_FLOOR).tolist()
    assert np.max(np.abs(system.overlap_matrix() - np.eye(len(evals)))) < 1e-10


def test_permuted_blocks_sharing_an_eigenvalue_are_biorthonormal():
    # 3 is an eigenvalue of both blocks: the cluster spans two blocks, and
    # its rank test and biorthogonalization run on the whole matrix
    rng = np.random.default_rng(43)
    S1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    S2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    B = scipy.linalg.block_diag(S1 @ np.diag([1.0, 2.0, 3.0]) @ np.linalg.inv(S1),
                                S2 @ np.diag([3.0, -1.0]) @ np.linalg.inv(S2))
    perm = rng.permutation(5)
    H = B[np.ix_(perm, perm)]
    assert len(_blocks(H)) == 2
    system = eigendecompose(H)
    assert system.is_diagonalizable
    assert np.allclose(system.eigenvalues, [-1.0, 1.0, 2.0, 3.0, 3.0], atol=1e-12)
    assert np.max(np.abs(system.overlap_matrix() - np.eye(5))) < 1e-12
    assert np.linalg.norm(system.reconstruct() - H) < 1e-12 * np.linalg.norm(H)


@st.composite
def sparsity_patterns(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    index = st.integers(min_value=0, max_value=n - 1)
    entries = draw(st.lists(st.tuples(index, index, st.sampled_from(
        [1.0, -2.5, 1e-300, 1j, 5e-324])), max_size=2 * n))
    A = np.zeros((n, n), dtype=complex)
    for i, j, value in entries:
        A[i, j] = value
    return A


@given(sparsity_patterns())
@settings(max_examples=200, deadline=None)
def test_blocks_match_scipy_connected_components(A):
    n_blocks, labels = connected_components(A != 0, directed=False)
    blocks = _blocks(A)
    assert len(blocks) == n_blocks
    # every index once, ascending within a block, blocks by smallest index
    assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(len(A)))
    assert [idx[0] for idx in blocks] == sorted(idx[0] for idx in blocks)
    for idx in blocks:
        assert np.all(np.diff(idx) > 0)
        assert np.all(labels[idx] == labels[idx[0]])


@st.composite
def gauged_real_matrices(draw):
    """(B, d): a real B whose entries vanish outside random diagonal blocks
    on shuffled indices, and phases d in {1, i}ⁿ, with d = 1 at the
    smallest index of each block of B's nonzero pattern (the gauge is only
    fixed up to a flip of every phase of a block)."""
    n = draw(st.integers(min_value=1, max_value=12))
    labels = draw(arrays(int, n, elements=st.integers(0, 3)))
    values = draw(arrays(float, (n, n), elements=st.sampled_from([0.0, 0.0, 1.0, -1.0, 2.5])
                         | st.floats(-2.0, 2.0, allow_subnormal=False)))
    B = values * (labels[:, None] == labels[None, :])
    odd = draw(arrays(bool, n))
    _, component = connected_components(B != 0, directed=False)
    first = np.unique(component, return_index=True)[1]
    odd ^= odd[first[component]]
    return B, np.where(odd, 1j, 1.0)


@given(gauged_real_matrices())
@settings(max_examples=200, deadline=None)
def test_gauge_real_matrix_factorizes_as_its_real_form(case):
    # H = D·B·D⁻¹ runs dgeev on B itself, and maps back exactly
    B, d = case
    H = B * (d[:, None] / d[None, :])
    try:
        real = eigendecompose(B)
    except ConvergenceError:
        with pytest.raises(ConvergenceError):
            eigendecompose(H)
        return
    gauged = eigendecompose(H)
    assert gauged.matrix is H
    np.testing.assert_array_equal(gauged.eigenvalues, real.eigenvalues)
    np.testing.assert_array_equal(gauged.right_vectors, d[:, None] * real.right_vectors)
    np.testing.assert_array_equal(gauged.left_vectors, d[:, None] * real.left_vectors)
    assert gauged.right_residual == real.right_residual
    assert gauged.left_residual == real.left_residual
    np.testing.assert_array_equal(gauged.condition_numbers, real.condition_numbers)
    assert gauged.defective_indices == real.defective_indices


def test_position_real_cubic_gauge_is_the_fock_parity():
    # p² moves the Fock level by an even number and is real, i·x³ by an
    # odd number and is imaginary: d = i on the odd Fock states
    H = cubic_hamiltonian(60, Realization.POSITION_REAL)
    A, odd, blocks = _real_form(H)
    assert np.array_equal(odd, np.arange(60) % 2 == 1)
    assert len(blocks) == 1 and not np.iscomplexobj(A)
    d = np.where(odd, 1j, 1.0)
    assert np.array_equal(d[:, None] * A / d[None, :], H)


@pytest.mark.parametrize("H", [
    np.array([[1.0, 1.0 + 1.0j], [1.0, 0.0]]),
    dimer_hamiltonian(0.5, 1.0),
    np.array([[0.0, 1j, 1j], [1j, 0.0, 1j], [1j, 1j, 0.0]]),
    np.array([[0.0, 1.0, 1j], [1.0, 0.0, 1.0], [1j, 1.0, 2.0]]),
    scipy.linalg.block_diag([[0.0, 1j, 1j], [1j, 0.0, 1j], [1j, 1j, 0.0]],
                            [[1.0, 2j], [3j, 0.0]])[np.ix_([3, 0, 4, 2, 1], [3, 0, 4, 2, 1])],
], ids=["entry-both-parts", "imaginary-diagonal", "odd-imaginary-cycle",
        "one-imaginary-entry-in-a-cycle", "odd-cycle-beside-a-gauge-real-block"])
def test_matrix_without_real_gauge_stays_complex(H):
    A, odd, blocks = _real_form(np.asarray(H, dtype=complex))
    assert np.iscomplexobj(A) and odd is None
    assert [idx.tolist() for idx in blocks] == [idx.tolist() for idx in _blocks(H)]
    system = eigendecompose(H)
    assert system.right_residual < 1e-12 * np.linalg.norm(H, 2)


def test_even_imaginary_cycle_has_real_gauge():
    H = np.array([[0.0, 1j, 0.0, 2j],
                  [1j, 1.0, 3j, 0.0],
                  [0.0, 1j, 0.0, 1j],
                  [-1j, 0.0, 1j, 0.0]])
    A, odd, _ = _real_form(H)
    assert np.array_equal(odd, [False, True, False, True])
    assert not np.iscomplexobj(A)
    assert match_distance(eigendecompose(H).eigenvalues, np.linalg.eigvals(H)) < 1e-12


def test_convergence_error_partial_holds_vectors_of_h():
    # two gauge-real blocks on shuffled indices; tol 0 fails the gate
    rng = np.random.default_rng(5)
    B = scipy.linalg.block_diag(cubic_hamiltonian(30, Realization.POSITION_REAL),
                                cubic_hamiltonian(20, Realization.POSITION_REAL))
    perm = rng.permutation(50)
    H = B[np.ix_(perm, perm)]
    assert len(_real_form(H)[2]) == 2
    with pytest.raises(ConvergenceError) as info:
        eigendecompose(H, tol=0.0)
    evals, rvecs, levals, lvecs = info.value.partial
    bound = 1e-9 * np.linalg.norm(H, 2)
    assert np.max(np.linalg.norm(H @ rvecs - rvecs * evals, axis=0)) < bound
    assert np.max(np.linalg.norm(H.conj().T @ lvecs - lvecs * levals, axis=0)) < bound


@given(st.integers(min_value=1, max_value=12).flatmap(lambda n: arrays(
    complex, (n, n), elements=st.sampled_from([0, 1, -1, 1e-3, 1j])
    | st.complex_numbers(max_magnitude=1e3, allow_subnormal=False))), st.booleans())
@settings(max_examples=200, deadline=None)
def test_norm_lower_bound_is_at_most_the_norm(A, real):
    A = A.real if real else A
    assert _norm_lower_bound(A) <= np.linalg.norm(A, 2)


@pytest.mark.parametrize("build", [
    lambda: pu_hamiltonian_fock(20, 20, PUParams(1.0, 1.0, 2.0)),
    lambda: pu_hamiltonian_fock(40, 40, PUParams(1.0, 1.0, 2.0)),
    lambda: pu_hamiltonian_fock(16, 16, PUParams.from_alpha_beta(1.0, 1.0, 0.3)),
    lambda: cubic_hamiltonian(200, Realization.POSITION_REAL),
    lambda: cubic_hamiltonian(200, Realization.POSITION_IMAGINARY),
], ids=["pu-20-20", "pu-40-40", "pu-16-16-pair", "cubic-200-position-real",
        "cubic-200-position-imaginary"])
def test_norm_lower_bound_is_tight_on_the_model_blocks(build):
    # the gate's scale above DEFECT_SCAN_MAX_DIM: within 5% of ||A||₂ on
    # every block eigendecompose factorizes
    A, _, blocks = _real_form(np.asarray(build(), dtype=complex))
    for idx in blocks:
        block = A[np.ix_(idx, idx)]
        assert _norm_lower_bound(block) >= 0.95 * np.linalg.norm(block, 2)
