import contextlib
import copy
import io
import json
import os
import pickle
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse.csgraph import connected_components

from biortho import spectral
from biortho.errors import ConvergenceError
from biortho.evolution import overlap_trace, selection_rule_check
from biortho.fock import Realization
from biortho.models import (
    PUParams,
    cubic_hamiltonian,
    dimer_hamiltonian,
    pu_dynamical_matrix,
    pu_hamiltonian_fock,
    pu_spectrum_formula,
)
from biortho.spectral import (
    CONCURRENT_MIN_DIM,
    CONJUGATION_TOL,
    DEFECT_CLUSTER_TOL,
    OVERLAP_FLOOR,
    SAFE_SCALE,
    _blocks,
    _clusters,
    _concurrently,
    _factorize,
    _pattern_walk,
    _real_form,
    _relative_radius,
    classify_spectrum,
    eigendecompose,
)

from oracles import (
    charpoly_eigenvalues,
    doubled_graph_gauge,
    full_geev,
    greedy_classify,
    has_signature,
    match_distance,
    two_sided_eigendecompose,
)

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


def test_clean_cluster_biorthonormal_beside_defective_block(monkeypatch):
    # a Jordan block elsewhere must not stop the semisimple cluster fix;
    # with a J·S block beside them, its right-only L is completed by the
    # same one solve per block as the two-sided ones
    rng = np.random.default_rng(23)
    S = rng.standard_normal((10, 10))
    signed = rng.choice([-1.0, 1.0], 10)[:, None] * (S + S.T)
    blocks = [[[0.0, 1.0], [0.0, 0.0]], _degenerate_nonnormal("real")]
    routes = _geev_routes(monkeypatch)
    for H, route in ((scipy.linalg.block_diag(*blocks), []),
                     (scipy.linalg.block_diag(*blocks, signed), ["right-only"])):
        routes.clear()
        system = eigendecompose(H)
        assert sorted(routes) == route + ["two-sided"] * 2
        jordan = np.flatnonzero(np.abs(system.eigenvalues) < 1e-6)
        assert len(jordan) == 2
        assert system.defective_indices == jordan.tolist()
        kept = np.setdiff1d(np.arange(len(H)), jordan)
        G = system.overlap_matrix()[np.ix_(kept, kept)]
        assert np.max(np.abs(G - np.eye(len(kept)))) < 1e-10


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
    # any non-finite part, real or imaginary, on a contiguous or a
    # transposed array
    for bad in (np.nan, -np.inf, 1j * np.inf, complex(1.0, np.nan)):
        for H in (np.array([[bad, 0], [2, 1]]), np.array([[1, 2], [bad, 1]]).T):
            with pytest.raises(ValueError, match="non-finite"):
                eigendecompose(H)


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


def test_classify_matches_greedy_oracle_on_pu_spectra():
    # hundreds of complex truncation levels spread along the real axis:
    # each is measured only against its neighbours in real part
    for params in (PUParams(1.0, 1.0, 2.0), PUParams.from_alpha_beta(1.0, 1.0, 0.3)):
        evals = np.linalg.eigvals(pu_hamiltonian_fock(16, 16, params))
        buckets = classify_spectrum(evals)
        assert len(buckets.conjugate_pairs) > 50
        assert buckets == greedy_classify(evals, CONJUGATION_TOL)


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


# the Pais-Uhlenbeck exceptional point (ω₁ = ω₂ = 1): two 2×2 Jordan
# blocks at ±i, each κ 7.6e7, below the flag, so only the rank test sees it
PU_EP = pu_dynamical_matrix(PUParams.from_alpha_beta(1.0, 1.0, 0.0)).dynamical_matrix


@pytest.mark.parametrize("k", [64, 200])
def test_exceptional_point_beside_a_diagonal_is_defective(k):
    # the rank test reads each block's dimension, not the matrix's 4 + k
    H = scipy.linalg.block_diag(PU_EP, np.diag(3.0 * np.arange(1, k + 1)))
    system = eigendecompose(H)
    assert not system.is_diagonalizable
    assert [(d.algebraic_multiplicity, d.geometric_multiplicity)
            for d in system.defects] == [(2, 1), (2, 1)]
    assert system.defective_indices == np.flatnonzero(system.eigenvalues.imag != 0).tolist()
    assert len(system.defective_indices) == 4


def test_many_exceptional_points_are_defective():
    system = eigendecompose(scipy.linalg.block_diag(*[PU_EP] * 100))
    assert len(system.defective_indices) == 400
    assert [(d.algebraic_multiplicity, d.geometric_multiplicity)
            for d in system.defects] == [(200, 100), (200, 100)]
    # the CLI writes the counts with json
    json.dumps([[d.algebraic_multiplicity, d.geometric_multiplicity] for d in system.defects])


def test_cluster_across_a_large_block_counts_the_small_one():
    # ±i are eigenvalues of a dense 100×100 block too: each cluster spans
    # both blocks, its rank test runs on the exceptional point's alone, and
    # the whole cluster is defective
    rng = np.random.default_rng(7)
    S = rng.standard_normal((100, 100))
    rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
    dense = S @ scipy.linalg.block_diag(rotation, np.diag(np.linspace(2.0, 5.0, 98))) \
        @ np.linalg.inv(S)
    H = scipy.linalg.block_diag(PU_EP, dense)
    assert [len(idx) for idx in _blocks(H)] == [4, 100]
    system = eigendecompose(H)
    assert [(d.algebraic_multiplicity, d.geometric_multiplicity)
            for d in system.defects] == [(2, 1), (2, 1)]
    assert len(system.defective_indices) == 6
    assert np.allclose(np.abs(system.eigenvalues[system.defective_indices].imag), 1.0)


def test_identity_of_many_blocks_is_diagonalizable():
    system = eigendecompose(np.eye(1000))
    assert system.is_diagonalizable
    assert system.defects == []


@st.composite
def small_blocks(draw):
    """A Jordan block, a random block or the PU exceptional point, entries
    of magnitude 1e-3 to 1e3 or 0, so that no neighbour moves the scale
    that ``eigendecompose`` factorizes at."""
    kind = draw(st.sampled_from(["jordan", "random", "pu-ep"]))
    if kind == "pu-ep":
        return PU_EP
    m = draw(st.integers(min_value=1 if kind == "random" else 2, max_value=5))
    if kind == "jordan":
        value = draw(st.complex_numbers(max_magnitude=10.0) | st.floats(-10.0, 10.0))
        return value * np.eye(m) + np.eye(m, k=1)
    return draw(arrays(complex, (m, m), elements=st.sampled_from([0, 1, -1, 1e-3, 1j])
                       | st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                                            allow_subnormal=False)))


@given(small_blocks())
@settings(max_examples=40, deadline=None)
def test_verdicts_on_a_block_ignore_a_distant_diagonal(B):
    # a real diagonal of 0 to 200 entries, none within 1e-3·s of B's
    # eigenvalues nor of each other and none beyond 0.9·s, for
    # s = max(1, max|E_B|): neither the cluster radius nor the rank test's
    # scale moves, and B's verdicts are its own
    try:
        alone = eigendecompose(B)
    except ConvergenceError:
        assume(False)
    s = max(1.0, float(np.max(np.abs(alone.eigenvalues))))
    grid = 0.9 * s * np.linspace(-1.0, 1.0, 401)
    grid = grid[np.min(np.abs(grid[:, None] - alone.eigenvalues), axis=1) > 1e-3 * s]
    for k in (0, 60, 64, 68, 200):
        d = grid[:k]
        system = eigendecompose(scipy.linalg.block_diag(B, np.diag(d)))
        own = np.flatnonzero(~np.isin(system.eigenvalues, d))
        assert np.array_equal(system.eigenvalues[own], alone.eigenvalues)
        assert set(system.defective_indices) <= set(own.tolist())
        assert np.searchsorted(own, system.defective_indices).tolist() \
            == alone.defective_indices
        assert system.defects == alone.defects


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
    # its rank test and biorthogonalization run on each of them
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
    # a boolean pattern has the same blocks
    assert [idx.tolist() for idx in _blocks(A != 0)] == [idx.tolist() for idx in blocks]
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
    A, odd, blocks, _ = _real_form(H)
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
    A, odd, blocks, _ = _real_form(np.asarray(H, dtype=complex))
    assert np.iscomplexobj(A) and odd is None
    assert [idx.tolist() for idx in blocks] == [idx.tolist() for idx in _blocks(H)]
    system = eigendecompose(H)
    assert system.right_residual < 1e-12 * np.linalg.norm(H, 2)


def test_even_imaginary_cycle_has_real_gauge():
    H = np.array([[0.0, 1j, 0.0, 2j],
                  [1j, 1.0, 3j, 0.0],
                  [0.0, 1j, 0.0, 1j],
                  [-1j, 0.0, 1j, 0.0]])
    A, odd, _, _ = _real_form(H)
    assert np.array_equal(odd, [False, True, False, True])
    assert not np.iscomplexobj(A)
    assert match_distance(eigendecompose(H).eigenvalues, np.linalg.eigvals(H)) < 1e-12


@st.composite
def phase_patterns(draw):
    """A ``sparsity_patterns``-like H, with imaginary, mixed and subnormal
    imaginary entries in half the draws, in a random gauge d in {1, i}ⁿ:
    odd and even imaginary cycles, imaginary diagonals, mixed entries and
    gauge-real matrices."""
    n = draw(st.integers(min_value=1, max_value=12))
    index = st.integers(min_value=0, max_value=n - 1)
    values = [1.0, -2.5, 1e-300, 5e-324]
    if draw(st.booleans()):
        # 1e10 + 5e-324j has the phase of 1 to the last bit
        values += [1j, -2j, 1e-300j, 5e-324j, 1.0 + 1.0j, 1.0 + 5e-324j, 1e10 + 5e-324j]
    entries = draw(st.lists(st.tuples(index, index, st.sampled_from(values)),
                            max_size=2 * n))
    H = np.zeros((n, n), dtype=complex)
    for i, j, value in entries:
        H[i, j] = value
    d = np.where(draw(arrays(bool, n)), 1j, 1.0)
    return H * (d[:, None] / d[None, :])


@given(phase_patterns())
@settings(max_examples=300, deadline=None)
def test_real_form_matches_the_doubled_graph_gauge(H):
    A, odd, blocks, _ = _real_form(H)
    ref_odd, ref_blocks = doubled_graph_gauge(H)
    assert [idx.tolist() for idx in blocks] == [idx.tolist() for idx in ref_blocks]
    if ref_odd is None:
        assert odd is None
        assert A is H if H.imag.any() else np.array_equal(A, H.real)
    else:
        assert np.array_equal(odd, ref_odd)
        d = np.where(odd, 1j, 1.0)
        assert not np.iscomplexobj(A)
        assert np.array_equal(d[:, None] * A / d[None, :], H)


@st.composite
def signed_patterns(draw):
    """J·S for a symmetric S with zero, real, imaginary and subnormal
    entries and a random J of ±1 (Hᵀ = J·H·J), with one entry negated,
    doubled, zeroed or set to 1 in half the draws: a one-sided pattern or a
    cycle whose signs do not close."""
    n = draw(st.integers(min_value=1, max_value=7))
    S = draw(arrays(complex, (n, n), elements=st.sampled_from(
        [0.0, 0.0, 1.0, -2.5, 1j, 1.0 - 1j, 1e-300, 5e-324])))
    S = np.triu(S) + np.triu(S, 1).T
    H = np.where(draw(arrays(bool, n)), -1.0, 1.0)[:, None] * S
    if draw(st.booleans()):
        index = st.integers(min_value=0, max_value=n - 1)
        i, k = draw(index), draw(index)
        H[i, k] = draw(st.sampled_from([-H[i, k], 2 * H[i, k], 0.0, 1.0]))
    return H


@given(signed_patterns())
@settings(max_examples=300, deadline=None)
def test_pattern_walk_finds_the_transposition_signature(H):
    # per block: J exists there exactly when sign is nonzero there, and then
    # Hᵀ = J·H·J on that block; None only when no block has a J
    sign = _pattern_walk(H)[1]
    signed = []
    for idx in _blocks(H):
        block = H[np.ix_(idx, idx)]
        J = np.zeros(len(idx)) if sign is None else sign[idx]
        assert np.all(np.abs(J) == 1) or not J.any()
        signed.append(bool(J.any()))
        assert signed[-1] == has_signature(block)
        if signed[-1]:
            assert np.array_equal(block.T, J[:, None] * block * J[None, :])
    assert (sign is None) == (not any(signed))


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


@pytest.mark.parametrize("build", [
    lambda: pu_hamiltonian_fock(20, 20, PUParams(1.0, 1.0, 2.0)),
    lambda: pu_hamiltonian_fock(40, 40, PUParams(1.0, 1.0, 2.0)),
    lambda: pu_hamiltonian_fock(16, 16, PUParams.from_alpha_beta(1.0, 1.0, 0.3)),
    lambda: cubic_hamiltonian(200, Realization.POSITION_REAL),
    lambda: cubic_hamiltonian(200, Realization.POSITION_IMAGINARY),
], ids=["pu-20-20", "pu-40-40", "pu-16-16-pair", "cubic-200-position-real",
        "cubic-200-position-imaginary"])
def test_norm_lower_bound_is_tight_on_the_model_blocks(build):
    # the gate's scale above DEFECT_SCAN_MAX_DIM, max(largest column norm,
    # max|E|): within 6% of ||A||₂ on every block eigendecompose factorizes
    # (0.945 on the PU 16,16 pair)
    A, _, blocks, _ = _real_form(np.asarray(build(), dtype=complex))
    for idx in blocks:
        block = A[np.ix_(idx, idx)]
        assert _gate_scale(block) >= 0.94 * np.linalg.norm(block, 2)


def _gate_scale(block) -> float:
    """The residual gate's scale that ``_factorize`` returns for a block."""
    return _factorize(block, None, 0)[3]


def _markov_generator(n, rng):
    """Unit rates on a random 5% of the off-diagonal, rows summing to 0."""
    G = (rng.random((n, n)) < 0.05).astype(float)
    np.fill_diagonal(G, 0.0)
    return G - np.diag(G.sum(axis=1))


def _graph_laplacian(n, rng):
    adjacency = np.triu(rng.random((n, n)) < 0.05, 1).astype(float)
    adjacency += adjacency.T
    return np.diag(adjacency.sum(axis=1)) - adjacency


@pytest.mark.parametrize("build", [_markov_generator, _graph_laplacian],
                         ids=["markov-generator", "graph-laplacian"])
def test_zero_row_sum_matrix_keeps_the_gate_scale(build):
    # H maps the all-ones vector to 0; the column norms keep the gate's
    # scale near ||H||₂, not at the absolute floor 1
    H = build(256, np.random.default_rng(0)) * 2.0 ** 20
    norm = np.linalg.norm(H, 2)
    assert 0.5 * norm <= _gate_scale(H) <= norm
    system = eigendecompose(H)
    assert max(system.right_residual, system.left_residual) < 1e-9 * norm


def test_nilpotent_matrix_with_a_tiny_entry_has_infinite_condition_numbers():
    # the overlaps underflow to 0: κ is infinite, and computing it raises
    # no overflow warning
    H = np.array([[0.0, 1.7e-268, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    system = eigendecompose(H)
    assert np.all(np.isinf(system.condition_numbers))
    assert not system.is_diagonalizable


def test_overflowing_residual_fails_the_gate():
    # at 1e307 ||H||₂ is about 2e308: the power-of-two prescale keeps the
    # factorization finite, but the norm scaled back overflows to inf, which
    # fails the gate, and no RuntimeWarning escapes (1e200 factorizes: see
    # the test below)
    H = np.random.default_rng(0).standard_normal((100, 100)) * 1e307
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError):
            eigendecompose(H)


@pytest.mark.parametrize("scale", [1e150, 1e200, 1e-300])
def test_extreme_scales_factorize_as_a_power_of_two_multiple(scale):
    # geev's vectors lose all accuracy beyond about 1e±135; 2^−e·H keeps
    # them, and E comes back times 2^e, exactly
    B = np.random.default_rng(0).standard_normal((100, 100))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        system = eigendecompose(B * scale)
    R, E = system.right_vectors, system.eigenvalues / scale
    norm = np.linalg.norm(B, 2)
    assert np.max(np.linalg.norm(B @ R - R * E, axis=0)) < 1e-12 * norm
    assert match_distance(E, eigendecompose(B).eigenvalues) < 1e-12 * norm
    assert system.is_diagonalizable


@pytest.mark.parametrize("exponent", [-400, 400])
def test_the_edges_of_the_safe_scale_factorize_unscaled(exponent, monkeypatch):
    # largest entry 2^±400, inside [1/SAFE_SCALE, SAFE_SCALE]: no prescale,
    # and geev's own residual is still at rounding level
    assert SAFE_SCALE == 2.0 ** 400
    B = np.random.default_rng(0).standard_normal((100, 100))
    H = np.ldexp(B / np.max(np.abs(B)), exponent)
    scaled = []
    monkeypatch.setattr(spectral, "_ldexp", lambda *args: scaled.append(args))
    system = eigendecompose(H)
    assert scaled == []
    norm = np.linalg.norm(H, 2)
    assert max(system.right_residual, system.left_residual) < 1e-13 * norm


def _geev_routes(monkeypatch) -> list:
    """Record, per factorized block, which ``geev`` entry point runs."""
    routes = []
    for module, route in ((scipy.linalg, "two-sided"), (np.linalg, "right-only")):
        def spy(*args, _original=module.eig, _route=route, **kwargs):
            routes.append(_route)
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, "eig", spy)
    return routes


def _signature_cases() -> dict:
    """Matrices with Hᵀ = J·H·J for a diagonal J of ±1."""
    rng = np.random.default_rng(16)
    cases = {}
    for n in (6, 24, 80):
        S = rng.standard_normal((n, n))
        cases[f"real-J-S-{n}"] = rng.choice([-1.0, 1.0], n)[:, None] * (S + S.T)
        S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        cases[f"complex-symmetric-{n}"] = S + S.T
    cases["pu-20-20"] = pu_hamiltonian_fock(20, 20, PUParams(1.0, 1.0, 2.0))
    return cases


SIGNATURE_CASES = _signature_cases()


@pytest.mark.parametrize("name", sorted(SIGNATURE_CASES))
def test_signature_route_matches_the_two_sided_route(name, monkeypatch):
    # <L_i| = (J·R_i)ᵀ from a right-only geev, against the left side of a
    # two-sided geev of the same blocks
    H = SIGNATURE_CASES[name]
    n_blocks = len(_blocks(H))
    routes = _geev_routes(monkeypatch)
    signed = eigendecompose(H)
    assert routes == ["right-only"] * n_blocks
    two_sided = two_sided_eigendecompose(H)
    assert routes == ["right-only"] * n_blocks + ["two-sided"] * n_blocks

    # bitwise on one BLAS thread (the next test); on more, the two LAPACK
    # builds may round differently
    scale = np.linalg.norm(H, 2)
    np.testing.assert_allclose(signed.eigenvalues, two_sided.eigenvalues,
                               rtol=0, atol=1e-9 * scale)
    kappa, reference = signed.condition_numbers, two_sided.condition_numbers
    conditioned = reference < 1e8
    assert conditioned.any()
    np.testing.assert_allclose(kappa[conditioned], reference[conditioned], rtol=1e-6)
    assert signed.defective_indices == two_sided.defective_indices
    # the same partition into real levels, pairs and leftovers
    ours, theirs = classify_spectrum(signed.eigenvalues), classify_spectrum(two_sided.eigenvalues)
    assert ours.pair_indices == theirs.pair_indices
    assert len(ours.real_singles) == len(theirs.real_singles)
    assert len(ours.leftovers) == len(theirs.leftovers)
    assert signed.left_residual < 1e-9 * scale


# PU 28,28 has exactly degenerate levels (5.5, 7.5, ...), where the κ of a
# geev vector depends on the basis geev picks, but the κ of the dual basis
# that re-biorthogonalization leaves depends on R alone
DEGENERATE_PU = pu_hamiltonian_fock(28, 28, PUParams(1.0, 1.0, 2.0))


def _compare_routes(H) -> dict:
    """Bitwise eigenvalue agreement of the two routes, the largest relative
    gap of their κ below 1e8, and the number of cluster members."""
    signed, two_sided = eigendecompose(H), two_sided_eigendecompose(H)
    kappa, reference = signed.condition_numbers, two_sided.condition_numbers
    conditioned = reference < 1e8
    evals = two_sided.eigenvalues
    clusters = _clusters(evals, _relative_radius(evals, DEFECT_CLUSTER_TOL))
    return {"equal": bool((signed.eigenvalues == two_sided.eigenvalues).all()),
            "kappa_gap": float(np.max(np.abs(kappa - reference)[conditioned]
                                      / reference[conditioned])),
            "clustered": sum(len(c) for c in clusters)}


def _fresh_command(probe: str, blas_threads: int = 1) -> dict:
    """``subprocess`` arguments that run ``probe`` in a fresh interpreter
    with this module imported as ``t`` and OpenBLAS on ``blas_threads``."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(blas_threads),
           "PYTHONPATH": os.pathsep.join([str(Path(spectral.__file__).resolve().parents[1]),
                                          str(Path(__file__).resolve().parent)])}
    return {"args": [sys.executable, "-c", "import json, test_spectral as t\n" + probe],
            "text": True, "env": env}


def _fresh_interpreter(probe: str, blas_threads: int = 1):
    """The JSON a fresh interpreter prints after running ``probe``
    (``_fresh_command``)."""
    result = subprocess.run(**_fresh_command(probe, blas_threads), capture_output=True,
                            check=True, timeout=300)
    return json.loads(result.stdout)


def test_signature_route_matches_the_two_sided_route_on_one_thread():
    # numpy's right-only and scipy's two-sided geev share the Schur form on
    # one BLAS thread, so the eigenvalues and the bases of degenerate levels
    # agree; on two, scipy's OpenBLAS rounds the PU 20,20 blocks differently
    # from its own one-thread result (numpy's does not)
    report = _fresh_interpreter(
        "cases = {**t.SIGNATURE_CASES, 'pu-28-28': t.DEGENERATE_PU}\n"
        "print(json.dumps({name: t._compare_routes(H) for name, H in cases.items()}))")
    assert [name for name, r in report.items() if not r["equal"]] == []
    assert max(r["kappa_gap"] for r in report.values()) < 1e-6
    assert report["pu-28-28"]["clustered"] > 0


@pytest.mark.parametrize("cutoff", [16, 18, 20])
def test_signature_route_keeps_distinct_levels_biorthogonal(cutoff):
    # PU's close levels of large κ are where L = conj(J·R) alone leaves
    # overlaps up to 5e-8; a two-sided geev keeps them below 2e-11
    system = eigendecompose(pu_hamiltonian_fock(cutoff, cutoff, PUParams(1.0, 1.0, 2.0)))
    report = selection_rule_check(system)
    assert report.ok
    assert report.max_forbidden_overlap < 1e-8


def test_symmetric_pattern_without_a_signature_takes_the_two_sided_route(monkeypatch):
    # the overlap-unbroken benchmark matrix: every entry nonzero, so its
    # pattern is symmetric, but no ±1 relates H_kj to H_jk everywhere
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import SIZES, nonnormal_real_spectrum

    H, _ = nonnormal_real_spectrum(SIZES["default"]["overlap_n"],
                                   np.random.default_rng([0, 2]))
    assert np.all(H != 0)
    assert _real_form(H.astype(complex))[3] is None
    routes = _geev_routes(monkeypatch)
    eigendecompose(H)
    assert routes == ["two-sided"]


def _mixed_blocks() -> np.ndarray:
    """A block with a transposition signature beside one without."""
    rng = np.random.default_rng(17)
    S = rng.standard_normal((80, 80))
    return scipy.linalg.block_diag(S + S.T, rng.standard_normal((80, 80)))


def test_each_block_keeps_its_own_signature(monkeypatch):
    # a J·S block beside a one-sided block (upper triangular, distinct
    # diagonal) and a general one: only the first has a J, and only its
    # geev is right-only
    rng = np.random.default_rng(22)
    S = rng.standard_normal((40, 40))
    one_sided = np.triu(rng.standard_normal((6, 6)), 1) + np.diag(np.arange(1.0, 7.0))
    H = scipy.linalg.block_diag(rng.choice([-1.0, 1.0], 40)[:, None] * (S + S.T),
                                one_sided, rng.standard_normal((30, 30)))
    blocks = _blocks(H)
    sign = _pattern_walk(H)[1]
    assert [len(idx) for idx in blocks] == [40, 6, 30]
    assert [bool(sign[idx].all()) for idx in blocks] == [True, False, False]
    assert [bool(sign[idx].any()) for idx in blocks] == [True, False, False]
    routes = _geev_routes(monkeypatch)
    system = eigendecompose(H)
    assert sorted(routes) == ["right-only", "two-sided", "two-sided"]
    assert system.is_diagonalizable
    np.testing.assert_allclose(system.overlap_matrix(), np.eye(76), rtol=0, atol=1e-10)


CONCURRENT_CASES = {
    "pu-20-20": pu_hamiltonian_fock(20, 20, PUParams(1.0, 1.0, 2.0)),
    "pu-16-16-pair": pu_hamiltonian_fock(16, 16, PUParams.from_alpha_beta(1.0, 1.0, 0.3)),
    "signature-and-two-sided": _mixed_blocks(),
}


def _same_system(a, b) -> bool:
    """Bitwise equality of two eigendecompositions."""
    arrays = ("eigenvalues", "right_vectors", "left_vectors", "condition_numbers",
              "right_residual", "left_residual")
    return (all(np.asarray(getattr(a, name)).tobytes() == np.asarray(getattr(b, name)).tobytes()
                for name in arrays)
            and a.defective_indices == b.defective_indices and a.defects == b.defects)


DEFERRAL_CASES = {
    **CONCURRENT_CASES,
    "pu-12-12": pu_hamiltonian_fock(12, 12, PUParams(1.0, 1.0, 2.0)),
    "cubic-200-position-real": cubic_hamiltonian(200, Realization.POSITION_REAL),
    "cubic-200-position-imaginary": cubic_hamiltonian(200, Realization.POSITION_IMAGINARY),
    "gauged-cubic-28": (lambda d, H: d[:, None] * H * np.conj(d)[None, :])(
        np.exp(2j * np.pi * np.random.default_rng(28).uniform(size=28)),
        cubic_hamiltonian(28, Realization.POSITION_REAL)),
}


def _pending(system) -> bool:
    """Whether no deferred field of ``system`` has been read yet."""
    return all(isinstance(system.__dict__["_" + name], spectral._Completion)
               for name in spectral._DEFERRED)


@pytest.mark.parametrize("name", sorted(DEFERRAL_CASES))
def test_vectors_read_before_or_after_the_flags_agree_bitwise(name):
    # the flags are eager, the bases and κ deferred: neither order of reads
    # changes a bit of either
    H = DEFERRAL_CASES[name]
    vectors_first, flags_first = eigendecompose(H), eigendecompose(H)
    assert _pending(vectors_first) and _pending(flags_first)
    vectors = [vectors_first.right_vectors, vectors_first.left_vectors,
               vectors_first.condition_numbers]
    flags = (flags_first.defective_indices, flags_first.defects, flags_first.is_diagonalizable)
    assert _pending(flags_first)
    assert (vectors_first.defective_indices, vectors_first.defects,
            vectors_first.is_diagonalizable) == flags
    assert _same_system(vectors_first, flags_first)
    assert all(a is b for a, b in zip(vectors, (vectors_first.right_vectors,
                                                vectors_first.left_vectors,
                                                vectors_first.condition_numbers)))


def test_replace_copy_and_pickle_carry_the_deferred_fields():
    H = DEFERRAL_CASES["pu-12-12"]
    reference = eigendecompose(H)
    # replace reads every field it keeps, and so completes a pending system
    system = eigendecompose(H)
    shifted = replace(system, eigenvalues=system.eigenvalues + 1e-8)
    assert not _pending(system)
    assert shifted.right_vectors is system.right_vectors
    assert shifted.condition_numbers is system.condition_numbers
    left = 2 * system.left_vectors
    relabelled = replace(system, left_vectors=left)
    assert relabelled.left_vectors is left
    assert relabelled.right_vectors is system.right_vectors
    assert _same_system(system, reference)
    # copies and pickles carry the completed arrays
    pending = eigendecompose(H)
    twin = copy.copy(pending)
    assert twin.right_vectors is pending.right_vectors
    assert twin.left_vectors is pending.left_vectors
    assert _same_system(twin, reference)
    for clone in (copy.deepcopy(eigendecompose(H)),
                  pickle.loads(pickle.dumps(eigendecompose(H)))):
        assert not _pending(clone)
        assert _same_system(clone, reference)


def _same_trace(a, b) -> bool:
    """Bitwise equality of two overlap traces."""
    return all(np.asarray(getattr(a, name)).tobytes() == np.asarray(getattr(b, name)).tobytes()
               for name in ("times", "initial_overlaps", "right_eigenvalues",
                            "left_eigenvalues", "drift", "method_agreement",
                            "literal_time_bound"))


def _worker_probe() -> dict:
    """``_concurrently`` with a worker thread forced on, however many CPUs
    and BLAS threads: each entry answers one of the tests below."""
    threads = []
    factorize = spectral._factorize

    def spy(*args):
        threads.append(threading.current_thread().name)
        return factorize(*args)

    spectral._factorize = spy
    report = {"cases": {}}
    for name, H in CONCURRENT_CASES.items():
        systems = []
        for workers in (1, 2):
            spectral._parallelism = lambda workers=workers: workers
            threads.clear()
            systems.append(eigendecompose(H))
        report["cases"][name] = {"equal": _same_system(*systems),
                                 "worker": any(n != "MainThread" for n in threads)}

    H = CONCURRENT_CASES["pu-20-20"]
    spectral._parallelism = lambda: 2
    counts = [threading.active_count()]
    for _ in range(20):
        eigendecompose(H)
        counts.append(threading.active_count())
    report["thread_counts"] = counts

    # overlap_trace's two chains with the worker forced on: one completion
    # per system, and bitwise the plain loop's trace
    completions = []
    complete = spectral._complete

    def counted(*args):
        completions.append(threading.current_thread().name)
        return complete(*args)

    spectral._complete = counted
    traces = []
    for workers in (1, 2):
        spectral._parallelism = lambda workers=workers: workers
        traces.append(overlap_trace(eigendecompose(DEFERRAL_CASES["pu-12-12"])))
    report["overlap_trace"] = {"equal": _same_trace(*traces), "completions": len(completions)}
    spectral._complete = complete

    # the caller's factorization waits until the worker has failed in its own
    failed = threading.Event()

    def failing(*args):
        if threading.current_thread() is threading.main_thread():
            failed.wait(30)
            return factorize(*args)
        failed.set()
        raise np.linalg.LinAlgError("QR iteration did not converge")

    spectral._factorize = failing
    try:
        eigendecompose(H)
        report["worker_error"] = None
    except ConvergenceError as exc:
        report["worker_error"] = str(exc)
    spectral._factorize = spy

    # each thread takes one task, at the barrier, under the caller's errstate
    barrier = threading.Barrier(2, timeout=30)

    def task():
        barrier.wait()
        return threading.current_thread().name, np.geterr()["divide"]

    with np.errstate(divide="raise"):
        report["errstate"] = _concurrently([task, task], [CONCURRENT_MIN_DIM] * 2)

    # every task runs once, in order, with more workers than CPUs and the
    # interpreter switching threads as often as it can
    spectral._parallelism = lambda: 4
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = []
        for _ in range(20):
            ran = []
            tasks = [lambda i=i: ran.append(i) or i for i in range(200)]
            runs.append(_concurrently(tasks, [CONCURRENT_MIN_DIM] * 200) == list(range(200))
                        and sorted(ran) == list(range(200)))
    finally:
        sys.setswitchinterval(switch)
    report["stress"] = runs

    # four threads, more than the CPUs, read the deferred fields of one
    # pending system at once, the interpreter switching threads as often as
    # it can: each of 20 systems completes once, and every read of a field
    # returns the same array
    names = ["right_vectors", "left_vectors", "condition_numbers", "right_vectors"]
    spectral._complete = counted
    sys.setswitchinterval(1e-6)
    try:
        races = []
        for _ in range(20):
            system = eigendecompose(DEFERRAL_CASES["pu-12-12"])
            completions.clear()
            barrier = threading.Barrier(len(names), timeout=30)

            def read(name, system=system, barrier=barrier):
                barrier.wait()
                return getattr(system, name)

            values = _concurrently([lambda name=name: read(name) for name in names],
                                   [CONCURRENT_MIN_DIM] * len(names))
            races.append(len(completions) == 1
                         and all(v is getattr(system, name) for v, name in zip(values, names)))
    finally:
        sys.setswitchinterval(switch)
        spectral._complete = complete
    report["racing_reads"] = races

    if not hasattr(os, "fork"):
        return report
    # a forked child inherits no worker thread; it must start its own
    pid = os.fork()
    if pid == 0:
        threads.clear()
        eigendecompose(H)
        os._exit(0 if any(n != "MainThread" for n in threads) else 3)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            report["fork_exit"] = os.waitstatus_to_exitcode(status)
            break
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            report["fork_exit"] = "hung"
            break
        time.sleep(0.05)
    return report


@pytest.fixture(scope="module")
def worker_report():
    return _fresh_interpreter("print(json.dumps(t._worker_probe()))")


def test_concurrent_blocks_match_the_plain_loop_bitwise(worker_report):
    # E, both vector sets, κ, residuals and defects; scipy's two-sided geev
    # holds the GIL, so its blocks stay in the calling thread
    assert worker_report["cases"] == {
        "pu-20-20": {"equal": True, "worker": True},
        "pu-16-16-pair": {"equal": True, "worker": True},
        "signature-and-two-sided": {"equal": True, "worker": False},
    }


def test_worker_threads_persist_across_calls(worker_report):
    first, *rest = worker_report["thread_counts"]
    assert first == 2
    assert rest == [first] * 20


def test_linalg_error_in_a_worker_is_a_convergence_error(worker_report):
    assert "eigenvalue iteration failed" in worker_report["worker_error"]


def test_worker_tasks_run_under_the_callers_errstate(worker_report):
    (name_a, divide_a), (name_b, divide_b) = worker_report["errstate"]
    assert {name_a, name_b} == {"MainThread", "biortho-worker_0"}
    assert divide_a == divide_b == "raise"


def test_overlap_trace_with_a_worker_matches_the_plain_loop_bitwise(worker_report):
    assert worker_report["overlap_trace"] == {"equal": True, "completions": 2}


def test_racing_reads_complete_a_system_once(worker_report):
    # the completion scales L in place: a second run would corrupt it
    assert worker_report["racing_reads"] == [True] * 20


def test_a_failed_completion_is_never_run_again():
    runs = []

    def finish():
        runs.append(None)
        raise MemoryError("no room for the n×n bases")

    pending = spectral._Completion(finish)
    with pytest.raises(MemoryError):
        pending.result()
    with pytest.raises(RuntimeError, match="failed on an earlier read"):
        pending.result()
    assert len(runs) == 1


def test_every_task_runs_once_under_contention(worker_report):
    assert worker_report["stress"] == [True] * 20


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_starts_its_own_worker(worker_report):
    # a child that queued work for the parent's workers would wait forever
    assert worker_report["fork_exit"] == 0


def _bound_probe() -> dict:
    """Threads alive around ``_concurrently`` calls with two threads forced
    on, and the exit code of a PU 20,20 ``spectrum`` run after them."""
    from biortho import cli

    spectral._parallelism = lambda: 2
    counts = set()
    for _ in range(500):
        _concurrently([lambda: None] * 2, [CONCURRENT_MIN_DIM] * 2)
        counts.add(threading.active_count())
    report = {"back_to_back": sorted(counts)}

    # a second caller's worker task finds the one worker held by the first
    # caller's: it waits in the queue, and the second caller counts the
    # threads before it lets the first caller's tasks return
    release = threading.Event()
    first = threading.Thread(target=_concurrently,
                             args=([lambda: release.wait(30)] * 2, [CONCURRENT_MIN_DIM] * 2))
    first.start()

    def second():
        count = threading.active_count()
        release.set()
        return count

    report["two_callers"] = _concurrently([second, lambda: None], [CONCURRENT_MIN_DIM] * 2)[0]
    first.join(30)
    report["first_alive"] = first.is_alive()

    with contextlib.redirect_stdout(io.StringIO()):
        report["spectrum"] = cli.main(["spectrum", "--model", "pu", "--truncation", "20,20"])
    return report


def test_concurrent_calls_keep_one_worker_and_the_exit_prompt():
    # an executor marks a thread idle only after the thread has set its
    # future's result: unbounded, it could start a second thread on a call
    # that follows the last at once, and does on one made while the worker
    # is busy. Its threads are no daemons, so the interpreter's exit must
    # still wake and join them
    command = _fresh_command("print(json.dumps(t._bound_probe()), flush=True)")
    with subprocess.Popen(**command, stdout=subprocess.PIPE) as child:
        try:
            report = json.loads(child.stdout.readline())
            assert child.wait(timeout=30) == 0
        finally:
            child.kill()
    # one worker beside the main thread, and beside the first caller
    assert report == {"back_to_back": [2], "two_callers": 3, "first_alive": False,
                      "spectrum": 0}


def test_concurrently_is_the_plain_loop_with_one_thread(monkeypatch):
    monkeypatch.setattr(spectral, "_parallelism", lambda: 1)
    seen = []
    tasks = [lambda i=i: seen.append(i) or i for i in range(4)]
    assert _concurrently(tasks, [CONCURRENT_MIN_DIM, 1, 3 * CONCURRENT_MIN_DIM, 0]) == [0, 1, 2, 3]
    # largest first
    assert seen == [2, 0, 1, 3]


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="Linux affinity")
@pytest.mark.parametrize("blas_threads", [1, 2])
def test_blas_probe_sets_the_parallelism(blas_threads):
    # a numpy wheel whose OpenBLAS hides the thread count would silently
    # lose the concurrent blocks; the probe must read it
    threads, parallelism, affinity = _fresh_interpreter(
        "print(json.dumps([t.spectral._blas_threads(), t.spectral._parallelism(),\n"
        "                  len(t.os.sched_getaffinity(0))]))", blas_threads)
    assert threads == blas_threads
    if blas_threads == 1 and affinity < 2:
        pytest.skip("one usable CPU: no worker either way")
    assert parallelism == (affinity if blas_threads == 1 else 1)
