"""Biorthogonal eigendecomposition and spectrum classification.

Right eigenvectors solve H|R_i> = E_i|R_i>; the left vector of the same
index solves H†|L_i> = conj(E_i)|L_i>, i.e. <L_i|H = E_i<L_i|. Both sides
come from one LAPACK ``geev`` factorization (scipy.linalg.eig with
left=True), which back-transforms left and right eigenvectors from the same
Schur form, so left column i belongs to right column i: the pairing is the
identity and the H† label of |L_i> is conj(E_i) by construction. Entrywise
real input runs real ``dgeev``, whose complex eigenvalues and eigenvectors
come in exact conjugate pairs. Under this labeling <L_j(t)|R_i(t)> picks up
the phase exp(i(E_j − E_i)t), so each <L_i|R_i> is a time-independent
scalar product and <L_j|R_i> = 0 whenever E_j != E_i.

How far to trust eigenvalue i is its condition number
κ_i = ||L_i||·||R_i|| / |<L_i|R_i>| (Trefethen & Embree, *Spectra and
Pseudospectra*, 2005): 1 for a normal matrix, large for a non-normal one,
infinite at a defective eigenvalue. Normalization, defect detection and the
biorthogonalization of degenerate clusters live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ConvergenceError

DEFAULT_TOL = 1e-9
DEFAULT_TOL_REAL = 1e-8
DEFAULT_TOL_CLUSTER = 1e-8
# relative eigenvalue distance below which geev's left/right vectors of a
# cluster are re-biorthogonalized
DEGENERACY_TOL = 1e-8
# defect_report: eigenvalues within DEFECT_CLUSTER_TOL·max(1, |E|) of E
# count towards its algebraic multiplicity; singular values of H − E·I above
# DEFECT_RANK_TOL·||H|| towards the rank
DEFECT_CLUSTER_TOL = 1e-6
DEFECT_RANK_TOL = 1e-10
# an index whose condition number exceeds 1/OVERLAP_FLOOR is defective (for
# the unit geev vectors: |<L_i|R_i>| below the floor)
OVERLAP_FLOOR = 1e-10


def _sort_key(values):
    return np.lexsort((values.imag, values.real))


@dataclass
class BiorthogonalSystem:
    """Right/left eigensystem of a square complex matrix; column i of
    ``left_vectors`` belongs to column i of ``right_vectors``."""

    matrix: np.ndarray
    eigenvalues: np.ndarray          # E_i, sorted by (Re, Im)
    right_vectors: np.ndarray        # columns |R_i>, unit norm
    left_vectors: np.ndarray         # columns |L_i>, scaled so <L_i|R_i> = 1
    condition_numbers: np.ndarray    # κ_i of the unit geev vectors (>= 1)
    right_residual: float            # max_i ||H R_i - E_i R_i||
    left_residual: float             # max_i ||H† L_i - conj(E_i) L_i||
    defective_indices: list = field(default_factory=list)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_diagonalizable(self) -> bool:
        return not self.defective_indices

    @property
    def left_eigenvalues(self) -> np.ndarray:
        """H† eigenvalue of each left column: conj(E_i)."""
        return np.conj(self.eigenvalues)

    @property
    def pairing_residual(self) -> float:
        """max_i |left_eigenvalues[i] − conj(E_i)|, zero by construction."""
        return 0.0

    def overlap_matrix(self) -> np.ndarray:
        """G with G[j, i] = <L_j|R_i>."""
        return self.left_vectors.conj().T @ self.right_vectors

    def reconstruct(self) -> np.ndarray:
        """Sum_i E_i |R_i><L_i| (equals H when diagonalizable)."""
        return (self.right_vectors * self.eigenvalues) @ self.left_vectors.conj().T


def eigendecompose(H, tol: float = DEFAULT_TOL) -> BiorthogonalSystem:
    """Full biorthogonal decomposition of a square complex matrix.

    Raises ConvergenceError if the QR iteration fails or residuals exceed
    tol·||H||; indices with κ_i > 1/OVERLAP_FLOOR are flagged defective,
    not fatal.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    if H.shape[0] < 1:
        raise ValueError("empty matrix")
    if not np.all(np.isfinite(H)):
        raise ValueError("matrix has non-finite entries")

    # real dgeev for entrywise-real input: conjugate pairs come out exact
    A = H if np.any(H.imag) else H.real
    try:
        evals, lvecs, rvecs = scipy.linalg.eig(A, left=True, right=True,
                                               check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue iteration failed: {exc}") from exc

    order = _sort_key(evals)
    evals, lvecs, rvecs = evals[order], lvecs[:, order], rvecs[:, order]

    scale = max(np.linalg.norm(A, 2), 1.0)
    right_res = float(np.max(np.linalg.norm(
        _matmul(A, rvecs) - rvecs * evals, axis=0)))
    left_res = float(np.max(np.linalg.norm(
        _matmul(A.conj().T, lvecs) - lvecs * np.conj(evals), axis=0)))
    if max(right_res, left_res) > tol * scale:
        raise ConvergenceError(
            f"eigenvector residual {max(right_res, left_res):.3e} exceeds "
            f"{tol:.1e}·||H||",
            partial=(evals, rvecs, np.conj(evals), lvecs),
        )

    overlaps = np.einsum("ki,ki->i", lvecs.conj(), rvecs)
    norms = np.linalg.norm(lvecs, axis=0) * np.linalg.norm(rvecs, axis=0)
    with np.errstate(divide="ignore"):
        kappa = norms / np.abs(overlaps)
    flagged = kappa > 1.0 / OVERLAP_FLOOR
    lvecs[:, ~flagged] /= np.conj(overlaps[~flagged])
    # geev back-transforms each vector on its own, so inside a cluster of
    # (near-)equal eigenvalues the two bases need not be biorthogonal: solve
    # the small overlap system, except in clusters holding a flagged index;
    # a cluster too ill-conditioned to solve counts as defective
    defective = np.flatnonzero(flagged).tolist()
    for block in _clusters(evals, DEGENERACY_TOL * max(np.max(np.abs(evals)), 1.0)):
        if not flagged[block].any():
            O = lvecs[:, block].conj().T @ rvecs[:, block]
            if np.linalg.cond(O) < 1e8:
                lvecs[:, block] = lvecs[:, block] @ np.linalg.inv(O).conj().T
            else:
                defective.extend(block.tolist())

    return BiorthogonalSystem(
        matrix=H,
        eigenvalues=evals,
        right_vectors=rvecs,
        left_vectors=lvecs,
        condition_numbers=kappa,
        right_residual=right_res,
        left_residual=left_res,
        defective_indices=sorted(defective),
    )


def _matmul(A, X) -> np.ndarray:
    """A @ X; a real A times a complex X runs as one real GEMM on the
    interleaved (Re, Im) columns of X, where numpy would upcast A to
    complex for ``zgemm``."""
    if np.iscomplexobj(A) or not np.iscomplexobj(X):
        return A @ X
    return (A @ np.ascontiguousarray(X).view(float)).view(complex)


def _clusters(evals, radius: float) -> list:
    """Star groups of two or more eigenvalues: each index not yet grouped
    collects every ungrouped one within ``radius``, whatever the sort order
    (noise can interleave a repeated pair as 0.3−i, 0.3+i, 0.3−i, 0.3+i)."""
    # scan only indices with a neighbour within 2·radius in both parts; a
    # stable sort spares the 0.25 MB of code numpy's default sort maps in
    crowded = np.ones(len(evals), dtype=bool)
    for part in (evals.real, evals.imag):
        ranked = np.sort(part, kind="stable")
        crowded &= (np.searchsorted(ranked, part + 2 * radius)
                    - np.searchsorted(ranked, part - 2 * radius)) > 1
    seen = np.zeros(len(evals), dtype=bool)
    groups = []
    for i in np.flatnonzero(crowded):
        if seen[i]:
            continue
        members = np.flatnonzero((np.abs(evals - evals[i]) < radius) & ~seen)
        seen[members] = True
        if len(members) > 1:
            groups.append(members)
    return groups


@dataclass
class SpectrumClassification:
    """Partition of eigenvalues into real singles, conjugate pairs and
    leftovers."""

    real_singles: list
    conjugate_pairs: list            # (E, conj-partner), Im > 0 first
    pair_indices: list               # input positions of conjugate_pairs
    leftovers: list                  # unpaired complex beyond tol_cluster

    @property
    def has_warning(self) -> bool:
        return bool(self.leftovers)

    @property
    def count(self) -> int:
        return (len(self.real_singles) + 2 * len(self.conjugate_pairs)
                + len(self.leftovers))


def classify_spectrum(eigenvalues, tol_real: float = DEFAULT_TOL_REAL,
                      tol_cluster: float = DEFAULT_TOL_CLUSTER) -> SpectrumClassification:
    """Bucket eigenvalues as real / conjugate pairs / leftovers.

    Pairs are matched greedily by minimal |E - conj(E')|; an unpaired
    complex eigenvalue beyond tol_cluster lands in ``leftovers``, which
    signals a conjugation-asymmetric spectrum (or too tight a tolerance).
    ``pair_indices[k]`` holds the positions in ``eigenvalues`` of the two
    members of ``conjugate_pairs[k]``, in the same order.
    """
    evs = np.asarray(eigenvalues, dtype=complex).ravel()
    if not np.all(np.isfinite(evs)):
        raise ValueError("eigenvalues must be finite")
    order = _sort_key(evs)
    evs = evs[order]

    real_mask = np.abs(evs.imag) < tol_real
    real_singles = sorted(evs[real_mask].real.tolist())

    complex_evs = evs[~real_mask]
    complex_pos = order[~real_mask]
    # |E_a - conj(E_b)| is already symmetric in (a, b)
    dist = np.abs(complex_evs[:, None] - np.conj(complex_evs)[None, :])
    a_idx, b_idx = np.nonzero(np.triu(dist < tol_cluster, k=1))
    # nearest first; the stable sort keeps row-major order among equal
    # distances, so each accepted pair is the nearest one left open
    rank = np.argsort(dist[a_idx, b_idx], kind="stable")
    alive = np.ones(len(complex_evs), dtype=bool)
    pairs = []
    for a, b in zip(a_idx[rank], b_idx[rank]):
        if not (alive[a] and alive[b]):
            continue
        alive[a] = alive[b] = False
        if complex_evs[a].imag < complex_evs[b].imag:
            a, b = b, a
        pairs.append(((complex(complex_evs[a]), complex(complex_evs[b])),
                      (int(complex_pos[a]), int(complex_pos[b]))))
    leftovers = [complex(e) for e in complex_evs[alive]]
    pairs.sort(key=lambda p: (p[0][0].real, p[0][0].imag))

    return SpectrumClassification(
        real_singles=real_singles,
        conjugate_pairs=[values for values, _ in pairs],
        pair_indices=[positions for _, positions in pairs],
        leftovers=sorted(leftovers, key=lambda e: (e.real, e.imag)),
    )


@dataclass
class DefectReport:
    eigenvalue: complex
    algebraic_multiplicity: int
    geometric_multiplicity: int

    @property
    def is_defective(self) -> bool:
        return self.geometric_multiplicity < self.algebraic_multiplicity


def defect_report(H, eigenvalue) -> DefectReport:
    """Algebraic/geometric multiplicity of ``eigenvalue`` in H.

    Geometric multiplicity is n − rank(H − E·I), with rank decided by
    singular values above DEFECT_RANK_TOL·||H||; algebraic multiplicity
    counts eigenvalues within DEFECT_CLUSTER_TOL·max(1, |E|) of E.
    """
    H = np.asarray(H, dtype=complex)
    n = H.shape[0]
    E = complex(eigenvalue)
    scale = max(np.linalg.norm(H, 2), 1.0)

    sigma = np.linalg.svd(H - E * np.eye(n), compute_uv=False)
    rank = int(np.sum(sigma > DEFECT_RANK_TOL * scale))
    geometric = n - rank

    evals = np.linalg.eigvals(H)
    cluster_radius = DEFECT_CLUSTER_TOL * max(1.0, abs(E))
    algebraic = int(np.sum(np.abs(evals - E) < cluster_radius))

    return DefectReport(
        eigenvalue=E,
        algebraic_multiplicity=algebraic,
        geometric_multiplicity=geometric,
    )
