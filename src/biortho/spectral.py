"""Biorthogonal eigendecomposition and spectrum classification.

Right eigenvectors solve H|R_i> = E_i|R_i>; the left vector of the same
index solves H†|L_i> = conj(E_i)|L_i>, i.e. <L_i|H = E_i<L_i|. Both sides
come from one LAPACK ``geev`` factorization, so left column i belongs to
right column i: the pairing is the identity and the H† label of |L_i> is
conj(E_i) by construction. Under this labeling <L_j(t)|R_i(t)> picks up
the phase exp(i(E_j − E_i)t), so each <L_i|R_i> is a time-independent
scalar product and <L_j|R_i> = 0 whenever E_j != E_i.

Where H has a transposition signature, Hᵀ = J·H·J exactly for a diagonal
J of ±1, the ``geev`` is right-only (``np.linalg.eig``) and
<L_i| = (J·R_i)ᵀ. For real H, J is a metric of its pseudo-Hermiticity,
H† = J·H·J⁻¹ (Mostafazadeh, J. Math. Phys. 43, 205 (2002)). The models
that CPT makes "real rather than Hermitian" (arXiv 1512.03736) have one:
J = I for the dimer and the harmonic oscillator, J = P⊗1 (parity of the
slow mode) for Pais-Uhlenbeck. The cubic oscillator does not: x·x·x rounds
to a matrix symmetric only to an ulp. ``_pattern_walk`` finds J on the walk
below. Every other H takes both sides from ``scipy.linalg.eig`` with
left=True, which back-transforms them from the same Schur form; that is
the only place scipy.linalg is imported here, so a process that factorizes
only H with a signature never loads it. The Schur form both sides share
cancels R's rounding out of the overlaps <L_j|R_i> of distinct levels; J·R
carries it in, up to 5e-8 between PU's close levels of large κ, so
``_separate_levels`` clears every such overlap above OVERLAP_FLOOR.

Real ``dgeev`` runs whenever H is real up to a diagonal gauge
D = diag(d), d in {1, i}ⁿ: on entrywise-real H (D = I), and on H with a
diagonal antilinear symmetry M∘K, M = D·conj(D)⁻¹ = diag(m), m in {±1}ⁿ,
such as the position-real cubic oscillator (d = i on the odd Fock
states). That is the diagonal case of the real form S⁻¹·H·S of an H with
antilinear symmetry (S = a·I + ā·M; for M = parity and a = e^{iπ/4},
S = √2·D). D is read off M, found by ``_pattern_walk`` (the one walk over
H's nonzero pattern, which also gives the blocks below), plus an exact
reality check of A = D⁻¹·H·D. A's complex eigenvalues and eigenvectors
come in exact conjugate pairs, and R = D·R′, L = D·L′ map them back. A's
signature is M·J.

A is factorized one diagonal block at a time: the blocks are the connected
components of the graph with an edge wherever an entry of H is exactly
nonzero, so no tolerance decides them, and each block's vectors are zero
outside it. An irreducible H is one block and one ``geev``. The
Pais-Uhlenbeck matrix is two blocks: it is real and its PT is (P⊗P)∘K, so
it commutes with the linear P⊗P and each parity sector is a block of half
the dimension. Residuals, condition numbers and the left scaling are
computed on each block's own rows, and each block's columns are written
once into their sorted positions.

The blocks share nothing, so ``_concurrently`` factorizes them side by
side while numpy's OpenBLAS runs on one thread and the process may use
more than one CPU: the calling thread and persistent worker threads take
them largest first. At more BLAS threads two factorizations would fight
over the same CPUs, so they run one after the other, as they do when fewer
than two blocks reach CONCURRENT_MIN_DIM or scipy's two-sided ``geev``
(which holds the GIL) factorizes them. Each block's factorization is the
same LAPACK call on the same data either way, so the results are bitwise
those of the plain loop. On the two 800×800 sectors of PU 40,40, one BLAS
thread and 2 CPUs, the two factorizations took 0.86 s side by side against
1.42 s in turn.

How far to trust eigenvalue i is its condition number
κ_i = ||L_i||·||R_i|| / |<L_i|R_i>| (Trefethen & Embree, *Spectra and
Pseudospectra*, 2005): 1 for a normal matrix, large for a non-normal one,
infinite at a defective eigenvalue. A Jordan block can keep every κ_i
finite (the 4×4 Pais-Uhlenbeck matrix at equal frequencies reads 7.6e7), so
each cluster of eigenvalues within DEFECT_CLUSTER_TOL of each other also
gets a rank test, up to DEFECT_SCAN_MAX_DIM. ``is_diagonalizable`` is the
one verdict on defectiveness, read by the CLI and every library consumer.
Normalization, defect detection and the biorthogonalization of degenerate
clusters live here.
"""

from __future__ import annotations

import contextvars
import functools
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError

DEFAULT_TOL = 1e-9
# default tol of the conjugation rule (``classify_spectrum``), relative to
# max(1, max|E|): rounding moves an eigenvalue in proportion to ||H||
CONJUGATION_TOL = 1e-8
# eigenvalues within DEFECT_CLUSTER_TOL·max(1, max|E|) of each other form a
# cluster; singular values of H − Ē·I above DEFECT_RANK_TOL·||H|| and above
# twice the cluster's spread count towards the rank that decides its
# geometric multiplicity
DEFECT_CLUSTER_TOL = 1e-6
DEFECT_RANK_TOL = 1e-10
# the rank test (one SVD per cluster) is only trusted, and affordable, on
# small matrices; larger ones rely on the condition-number flag alone
DEFECT_SCAN_MAX_DIM = 64
# above DEFECT_SCAN_MAX_DIM the residual gate's scale is a power-iteration
# lower bound on ||H||₂ after this many steps (``_norm_lower_bound``)
NORM_STEPS = 16
# an index whose condition number exceeds 1/OVERLAP_FLOOR is defective (for
# the unit geev vectors: |<L_i|R_i>| below the floor)
OVERLAP_FLOOR = 1e-10
# ``_concurrently`` starts a worker only for two or more tasks of at least
# this dimension: below it, the GIL hand-offs between the threads cost more
# than the BLAS work they overlap (on 2 CPUs, two right-only blocks of 32
# took 3.5 ms side by side against 3.2 ms in turn, of 64 9.5 against
# 11 ms; two overlap chains of 32 took 19 against 11 ms, of 96 47 against
# 72 ms)
CONCURRENT_MIN_DIM = 64


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
    condition_numbers: np.ndarray    # κ_i = ||L_i||·||R_i||/|<L_i|R_i>| (>= 1)
    right_residual: float            # max_i ||H R_i - E_i R_i||
    left_residual: float             # max_i ||H† L_i - conj(E_i) L_i||
    defective_indices: list = field(default_factory=list)
    defects: list = field(default_factory=list)   # DefectReport per defective cluster

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
    """Full biorthogonal decomposition of a square complex matrix, one
    ``geev`` per diagonal block of its nonzero pattern (``_blocks``), real
    ``dgeev`` whenever H is real up to a diagonal gauge (``_real_form``),
    right-only wherever H has a transposition signature (``_factorize``).

    Raises ConvergenceError if the QR iteration fails or the residuals of
    any block exceed tol·||H||₂ (the largest block norm; above
    DEFECT_SCAN_MAX_DIM a lower bound on it, ``_norm_lower_bound``).
    Defects are flagged, not fatal: an index is defective when the κ_i of
    its unit geev vectors exceeds 1/OVERLAP_FLOOR, and, for
    n <= DEFECT_SCAN_MAX_DIM, every member of a cluster (eigenvalues within
    DEFECT_CLUSTER_TOL·max(1, max|E|)) whose geometric multiplicity
    n − rank(H − Ē·I) (rank rule of ``_cluster_defect``) is below its
    size, with its DefectReport in ``defects``. Every other cluster free of
    flagged indices is re-biorthogonalized, and on the right-only route so
    are the overlaps of distinct levels (``_separate_levels``).
    ``condition_numbers`` are those of the vectors returned.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    if H.shape[0] < 1:
        raise ValueError("empty matrix")
    if not np.all(np.isfinite(H)):
        raise ValueError("matrix has non-finite entries")

    # A = D⁻¹·H·D; each block of its nonzero pattern is factorized on its
    # own, and one block is A itself, not a copy
    A, odd, blocks, sign = _real_form(H)
    n = H.shape[0]
    try:
        parts = _concurrently(
            [lambda idx=idx: _factorize(A if len(blocks) == 1 else A[np.ix_(idx, idx)],
                                        n <= DEFECT_SCAN_MAX_DIM,
                                        None if sign is None else sign[idx])
             for idx in blocks],
            # scipy's two-sided geev holds the GIL: a second thread cannot
            # overlap it
            [0 if sign is None else len(idx) for idx in blocks])
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue iteration failed: {exc}") from exc
    evals, lvecs, rvecs, norms, right, left = zip(*parts)
    evals = np.concatenate(evals)
    order = _sort_key(evals)
    evals = evals[order]
    # ||A||₂ of a block-diagonal A is its largest block norm
    scale = max(*norms, 1.0)
    right_res, left_res = max(right), max(left)
    # overflow leaves inf or NaN on either side, and that fails the gate
    if not max(right_res, left_res) <= tol * scale < np.inf:
        raise ConvergenceError(
            f"eigenvector residual {max(right_res, left_res):.3e} exceeds "
            f"{tol:.1e}·||H||",
            partial=(evals, _gauge(_assemble(blocks, order, rvecs), odd),
                     np.conj(evals), _gauge(_assemble(blocks, order, lvecs), odd)),
        )

    # the geev vectors' κ (which flags a defect) and the left scaling need
    # only each block's own rows
    kappa = []
    for L, R in zip(lvecs, rvecs):
        overlaps = np.einsum("ki,ki->i", L.conj(), R)
        # κ is infinite where the overlap vanishes or underflows
        with np.errstate(divide="ignore", over="ignore"):
            k = np.linalg.norm(L, axis=0) * np.linalg.norm(R, axis=0) / np.abs(overlaps)
        kept = ~(k > 1.0 / OVERLAP_FLOOR)
        L[:, kept] /= np.conj(overlaps[kept])
        kappa.append(k)
    kappa = np.concatenate(kappa)[order]
    lvecs, rvecs = _assemble(blocks, order, lvecs), _assemble(blocks, order, rvecs)
    flagged = kappa > 1.0 / OVERLAP_FLOOR
    # a cluster whose geometric multiplicity falls short of its size is a
    # Jordan block, however well conditioned geev's vectors look. geev
    # back-transforms each vector on its own, so inside any other cluster
    # the two bases need not be biorthogonal: solve the small overlap
    # system, except in clusters holding a flagged index; a cluster too
    # ill-conditioned to solve counts as defective
    defective = set(np.flatnonzero(flagged).tolist())
    defects = []
    for block in _clusters(evals, _relative_radius(evals, DEFECT_CLUSTER_TOL)):
        if n <= DEFECT_SCAN_MAX_DIM:
            report = _cluster_defect(A, complex(np.mean(evals[block])),
                                     evals[block], scale)
            if report.is_defective:
                defects.append(report)
                defective.update(block.tolist())
                continue
        if not flagged[block].any():
            O = lvecs[:, block].conj().T @ rvecs[:, block]
            if np.linalg.cond(O) < 1e8:
                lvecs[:, block] = lvecs[:, block] @ np.linalg.inv(O).conj().T
            else:
                defective.update(block.tolist())
    if sign is not None:
        _separate_levels(lvecs, rvecs, blocks, order, defective)
    # κ of the vectors returned: in a re-biorthogonalized cluster, that of
    # the dual basis, which R alone fixes, whichever route gave L. vecdot
    # conjugates its first argument without an n×n copy
    with np.errstate(divide="ignore", over="ignore"):
        kappa = np.sqrt(np.vecdot(lvecs, lvecs, axis=0).real
                        * np.vecdot(rvecs, rvecs, axis=0).real) / np.abs(
            np.vecdot(lvecs, rvecs, axis=0))

    return BiorthogonalSystem(
        matrix=H,
        eigenvalues=evals,
        right_vectors=_gauge(rvecs, odd),
        left_vectors=_gauge(lvecs, odd),
        condition_numbers=kappa,
        right_residual=right_res,
        left_residual=left_res,
        defective_indices=sorted(defective),
        defects=defects,
    )


def _separate_levels(lvecs, rvecs, blocks, order, defective) -> None:
    """Clear the overlaps <L_j|R_i> of distinct levels that L = conj(J·R)
    leaves above OVERLAP_FLOOR, in place, on the columns outside
    ``defective``.

    Such L carry R's own rounding into them: (E_i − E_j)·<L_j|R_i> =
    <s_j|R_i> − <L_j|r_i> for the residuals s, r, large for close levels
    of large κ, where a two-sided ``geev`` cancels it through the Schur
    form both sides share. With O = L^H·R (1 on the diagonal, the clusters
    already re-biorthogonalized) and C its diagonal and its entries above
    the floor, L·C⁻ᴴ has C⁻¹·O for its overlaps: within the floor of the
    identity to first order. Only columns with such an entry take part,
    and only while C is diagonally dominant, which keeps it safely
    invertible (Gershgorin)."""
    kept = np.ones(len(order), dtype=bool)
    kept[sorted(defective)] = False
    owner = np.repeat(np.arange(len(blocks)), [len(idx) for idx in blocks])[order]
    for b, idx in enumerate(blocks):
        cols = np.flatnonzero(kept & (owner == b))
        if len(cols) > 1:
            _separate_block(lvecs, rvecs, idx, cols)


def _separate_block(lvecs, rvecs, rows, cols) -> None:
    """``_separate_levels`` on one block's ``rows`` and ``cols``; its
    copies are freed before the next block's."""
    # the rows of L^H, conjugated in the copy that indexing makes
    Lh = lvecs[np.ix_(rows, cols)].T
    O = np.conj(Lh, out=Lh) @ rvecs[np.ix_(rows, cols)]
    linked = np.abs(O) > OVERLAP_FLOOR
    np.fill_diagonal(linked, False)
    part = linked.any(axis=0) | linked.any(axis=1)
    if not part.any():
        return
    C = np.where(linked[np.ix_(part, part)], O[np.ix_(part, part)], 0.0)
    # off its diagonal (still 0 here) each row of C sums below the 1 on it
    if np.abs(C).sum(axis=1).max() < 1.0:
        np.fill_diagonal(C, np.diagonal(O)[part])
        lvecs[np.ix_(rows, cols[part])] = np.linalg.solve(C, Lh[part]).conj().T


def _real_form(H) -> tuple:
    """(A, odd, blocks, sign): A = D⁻¹·H·D for D = diag(i^odd), the
    diagonal blocks of H (``_blocks``), and A's transposition signature,
    Aᵀ = J·A·J for J = diag(sign), or None if A has none. A is real
    whenever some d in {1, i}ⁿ makes it so (odd is None for entrywise-real
    H, where D = I); otherwise A = H and odd is None.

    Such a D gives H the diagonal antilinear symmetry M = D·conj(D)⁻¹ =
    diag(m), m = d² = ±1, the only one up to a phase per block: the m of
    ``_pattern_walk``, with m = 1 (d = 1) at each block's smallest index.
    So D exists exactly when every m is ±1 and A has every imaginary part
    exactly 0. Exact: no tolerance decides it, and A only moves and
    negates parts of H's entries. For the same reason A_kj/A_jk is
    H_kj/H_jk times m_j·m_k, so A's signature is M·J for H's J."""
    m, sign, block = _pattern_walk(H)
    blocks = _split(block)
    if not np.any(H.imag):
        return H.real, None, blocks, sign
    odd = m == -1
    # with d = 1 throughout, A = H has an imaginary entry
    if not odd.any() or not (odd | (m == 1)).all():
        return H, None, blocks, sign
    # D⁻¹·H·D multiplies each nonzero entry by −i per odd row and i per odd
    # column, exactly
    nonzero = np.flatnonzero(H != 0)
    rows, cols = np.divmod(nonzero, H.shape[0])
    a = H.flat[nonzero] * np.where(odd[rows], -1j, 1.0) * np.where(odd[cols], 1j, 1.0)
    if a.imag.any():
        return H, None, blocks, sign
    A = np.array(H.real)
    A.flat[nonzero] = a.real
    return A, odd, blocks, None if sign is None else np.where(odd, -sign, sign)


def _gauge(X, odd) -> np.ndarray:
    """D·X for D = diag(i^odd): rows in ``odd`` times i, exactly."""
    if odd is None:
        return X
    X = X.astype(complex, copy=False)
    X[odd] *= 1j
    return X


def _blocks(A) -> list:
    """Index sets of the diagonal blocks of A, in order of their smallest
    index (the labels of ``_pattern_walk``)."""
    return _split(_pattern_walk(np.asarray(A != 0, dtype=float))[2])


def _pattern_walk(H) -> tuple:
    """(m, sign, block) from one depth-first walk over each connected block
    of H's nonzero pattern: block[j] is the smallest index of j's block,
    and m_j = m_k·H_jk/conj(H_jk) along the walk's tree, m = 1 at that
    index. diag(m) is the only diagonal intertwiner, up to a phase per
    block, that H can have; entries the tree does not use are left to the
    caller. Real H gives m ≡ 1 exactly.

    sign is H's transposition signature: Hᵀ = J·H·J for J = diag(sign),
    sign in {±1}ⁿ, or None if no such J exists. The tree sets
    sign_j = ±sign_k where H_kj = ±H_jk, sign = 1 at the block's smallest
    index, and every edge is then checked, exactly: no tolerance decides
    it."""
    n = H.shape[0]
    nonzero = H != 0
    # edge k–j wherever H_jk or H_kj is nonzero, grouped by k
    k, j = np.divmod(np.flatnonzero(nonzero | nonzero.T), n)
    forward, back = H[j, k], H[k, j]
    # sign_j/sign_k is ±1 where H_kj = ±H_jk, and 0 (no signature) where
    # neither holds, one of the two entries being zero included
    flips = np.where(back == forward, 1.0, np.where(back == -forward, -1.0, 0.0))
    # m_j/m_k is H_jk/conj(H_jk), or conj(H_kj)/H_kj where H_jk = 0: the
    # square of the unit phase u = h/|h|, taken part by part so that real h
    # gives u = ±1 and u² = 1 exactly, and no entry over- or underflows
    h = np.where(forward != 0, forward, np.conj(back))
    modulus = np.abs(h)
    u = h.real / modulus + 1j * (h.imag / modulus)
    steps = u * u
    start = np.searchsorted(k, np.arange(n + 1)).tolist()
    m = [None] * n
    sign = [1.0] * n
    block = [0] * n
    unset = n
    for root in range(n):
        if m[root] is not None:
            continue
        m[root] = 1.0 + 0j
        block[root] = root
        unset -= 1
        stack = [root]
        # once every m is set, the caller checks the entries not yet walked
        while stack and unset:
            node = stack.pop()
            a, b = start[node], start[node + 1]
            for nbr, step, flip in zip(j[a:b].tolist(), steps[a:b].tolist(),
                                       flips[a:b].tolist()):
                if m[nbr] is None:
                    m[nbr] = m[node] * step
                    sign[nbr] = sign[node] * flip
                    block[nbr] = root
                    unset -= 1
                    stack.append(nbr)
    sign = np.array(sign)
    # a flip of 0 anywhere rules J out; otherwise each edge must agree
    if not (flips.all() and np.array_equal(flips, sign[j] * sign[k])):
        sign = None
    return np.array(m, dtype=complex), sign, np.array(block)


def _split(root) -> list:
    """Index sets sharing a label, ascending, in order of their label."""
    order = np.argsort(root, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(root[order])) + 1)


def _factorize(A, exact_norm: bool, sign) -> tuple:
    """One ``geev`` of A: (E, L, R) sorted by (Re, Im), ||A||₂ (or, unless
    ``exact_norm``, its lower bound ``_norm_lower_bound``), and the largest
    right and left residual norms, inf or NaN where they overflow.

    With A's transposition signature Aᵀ = J·A·J, J = diag(sign), the
    ``geev`` is right-only (``np.linalg.eig``): <L_i| = (J·R_i)ᵀ solves
    <L_i|A = E_i<L_i|, since Aᵀ·J·R_i = J·A·R_i = E_i·J·R_i. With sign
    None, ``scipy.linalg.eig`` back-transforms both sides."""
    if sign is None:
        import scipy.linalg

        evals, lvecs, rvecs = scipy.linalg.eig(A, left=True, right=True,
                                               check_finite=False)
    else:
        evals, rvecs = np.linalg.eig(A)
        # an all-real spectrum of a real A comes back as a real array
        evals = evals.astype(complex, copy=False)
        lvecs = np.conj(sign[:, None] * rvecs)
    order = _sort_key(evals)
    evals, lvecs, rvecs = evals[order], lvecs[:, order], rvecs[:, order]
    with np.errstate(over="ignore", invalid="ignore"):
        right_res = float(np.max(np.linalg.norm(
            _matmul(A, rvecs) - rvecs * evals, axis=0)))
        # A^H·L − L·conj(E) is conj(J·(A·R − R·E)) on the right-only route
        left_res = right_res if sign is not None else float(np.max(np.linalg.norm(
            _matmul(A.conj().T, lvecs) - lvecs * np.conj(evals), axis=0)))
        norm = np.linalg.norm(A, 2) if exact_norm else _norm_lower_bound(A)
    return evals, lvecs, rvecs, norm, right_res, left_res


def _norm_lower_bound(A) -> float:
    """||A·x|| for the unit x that NORM_STEPS steps of power iteration on
    A^H·A reach from the all-ones vector, or A's largest column norm if
    larger (zero row sums give A·x = 0), less their rounding: a lower bound
    on ||A||₂ in O(n²) per step, where the exact norm is a full SVD.
    Deterministic, and 0.98 of ||A||₂ or more on the model matrices."""
    n = A.shape[1]
    x = np.full(n, n ** -0.5)
    for _ in range(NORM_STEPS):
        x = np.conj(np.conj(A @ x) @ A)
        size = np.linalg.norm(x)
        if not size:
            break
        x /= size
    # the products and norms round by a few n·u each
    bound = max(np.linalg.norm(A @ x), np.linalg.norm(A, axis=0).max())
    return float(bound) * (1.0 - 4 * (n + 1) * np.finfo(float).eps)


def _assemble(blocks, order, vectors) -> np.ndarray:
    """n×n array whose column p is column order[p] of the blocks'
    ``vectors`` side by side, each block in its own rows and zero
    elsewhere."""
    if len(blocks) == 1:
        # the one block is already sorted, so ``order`` is the identity
        return vectors[0]
    n = len(order)
    where = np.empty(n, dtype=int)
    where[order] = np.arange(n)
    out = np.zeros((n, n), np.result_type(*vectors))
    start = 0
    for idx, block in zip(blocks, vectors):
        out[np.ix_(idx, where[start:start + len(idx)])] = block
        start += len(idx)
    return out


def _matmul(A, X) -> np.ndarray:
    """A @ X; a real A times a complex X runs as one real GEMM on the
    interleaved (Re, Im) columns of X, where numpy would upcast A to
    complex for ``zgemm``."""
    if np.iscomplexobj(A) or not np.iscomplexobj(X):
        return A @ X
    return (A @ np.ascontiguousarray(X).view(float)).view(complex)


def _concurrently(tasks, sizes) -> list:
    """[task() for task in tasks] for independent dense ``tasks``, taken
    largest first from one shared list by the calling thread and by up to
    ``_parallelism()`` − 1 persistent workers (``_Pool``), one per task of
    at least CONCURRENT_MIN_DIM beyond the first. ``sizes`` are the tasks'
    dimensions of dense work that runs without the GIL. A worker runs the
    tasks in its own copy of the caller's ``contextvars`` context, so
    ``np.errstate`` holds there too. With no worker this is the plain loop.
    A task's exception is re-raised here once every thread is done with
    the list; no task starts after it. A task must not call this itself:
    in a worker it would wait on the queue that worker serves."""
    results = [None] * len(tasks)
    order = iter(sorted(range(len(tasks)), key=sizes.__getitem__, reverse=True))
    lock = threading.Lock()

    def drain():
        nonlocal order
        while True:
            with lock:
                i = next(order, None)
            if i is None:
                return
            try:
                results[i] = tasks[i]()
            except BaseException:
                order = iter(())
                raise

    # one large task needs no worker, and no probe of the BLAS
    large = sum(size >= CONCURRENT_MIN_DIM for size in sizes)
    helpers = min(large, _parallelism()) - 1 if large > 1 else 0
    outcomes = _pool.start(drain, helpers) if helpers else None
    try:
        drain()
    finally:
        errors = [outcomes.get() for _ in range(helpers)]
    for error in errors:
        if error is not None:
            raise error
    return results


def _parallelism() -> int:
    """Threads that may run dense tasks at once: every usable CPU while
    numpy's OpenBLAS runs on one thread, else 1, so that no two threads
    bring BLAS threads of their own to the same CPUs."""
    if _blas_threads() != 1 or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


@functools.cache
def _blas_threads() -> int | None:
    """The thread count numpy's OpenBLAS reports, read once per process, or
    None where it cannot be read. The library is looked up through numpy's
    LAPACK extension, which links it: RTLD_NOLOAD loads nothing new."""
    import ctypes

    from numpy.linalg import _umath_linalg

    try:
        lapack = ctypes.CDLL(_umath_linalg.__file__, mode=os.RTLD_NOLOAD | os.RTLD_NOW)
    except (AttributeError, OSError):
        return None
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        getter = getattr(lapack, name, None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            return getter()
    return None


class _Pool:
    """Daemon threads serving one job queue for the life of the process,
    started when a call first needs them. A forked child inherits none of
    them, so it starts with a pool of its own (``os.register_at_fork``)."""

    def __init__(self):
        self.lock = threading.Lock()
        self.jobs = None
        self.threads = 0

    def start(self, drain, count: int):
        """Hand ``drain`` to ``count`` threads, each running it in its own
        copy of the caller's context; return the queue on which each puts
        its exception, or None, when done."""
        from queue import SimpleQueue

        with self.lock:
            if self.jobs is None:
                self.jobs = SimpleQueue()
            while self.threads < count:
                threading.Thread(target=_serve, args=(self.jobs,), daemon=True,
                                 name=f"biortho-worker-{self.threads}").start()
                self.threads += 1
        outcomes = SimpleQueue()
        for _ in range(count):
            self.jobs.put((contextvars.copy_context(), drain, outcomes))
        return outcomes


def _serve(jobs) -> None:
    while True:
        _run_job(*jobs.get())


def _run_job(context, drain, outcomes) -> None:
    """One job of ``_concurrently``; its references, results included, go
    with this frame, not with the idle worker's."""
    try:
        context.run(drain)
    except BaseException as exc:
        outcomes.put(exc)
    else:
        outcomes.put(None)


def _new_pool() -> None:
    global _pool
    _pool = _Pool()


_pool = _Pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


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
    leftovers: list                  # complex eigenvalues without a partner

    @property
    def has_warning(self) -> bool:
        return bool(self.leftovers)

    @property
    def count(self) -> int:
        return (len(self.real_singles) + 2 * len(self.conjugate_pairs)
                + len(self.leftovers))


def _relative_radius(evals, tol: float = CONJUGATION_TOL) -> float:
    """tol·max(1, max|E|) over the spectrum ``evals``. At the default tol,
    |Im E| below it makes a level real and |E_a − conj(E_b)| below it pairs
    two eigenvalues."""
    return tol * max(float(np.max(np.abs(evals), initial=0.0)), 1.0)


def classify_spectrum(eigenvalues, tol: float = CONJUGATION_TOL) -> SpectrumClassification:
    """Bucket eigenvalues as real / conjugate pairs / leftovers.

    The one conjugation rule of the package, relative to the spectrum's
    scale s = max(1, max|E|): a level is real when |Im E| < tol·s, and two
    complex eigenvalues pair when |E_a − conj(E_b)| < tol·s, matched
    greedily by minimal distance. A complex eigenvalue left without a
    partner lands in ``leftovers``, which signals a conjugation-asymmetric
    spectrum (or too tight a tolerance). ``pair_indices[k]`` holds the
    positions in ``eigenvalues`` of the two members of
    ``conjugate_pairs[k]``, in the same order.
    """
    evs = np.asarray(eigenvalues, dtype=complex).ravel()
    if not np.all(np.isfinite(evs)):
        raise ValueError("eigenvalues must be finite")
    order = _sort_key(evs)
    evs = evs[order]
    radius = _relative_radius(evs, tol)

    real_mask = np.abs(evs.imag) < radius
    real_singles = sorted(evs[real_mask].real.tolist())

    complex_evs = evs[~real_mask]
    complex_pos = order[~real_mask]
    # |E_a - conj(E_b)| is already symmetric in (a, b)
    dist = np.abs(complex_evs[:, None] - np.conj(complex_evs)[None, :])
    a_idx, b_idx = np.nonzero(np.triu(dist < radius, k=1))
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


def _cluster_defect(H, E: complex, members, scale: float) -> DefectReport:
    """Multiplicities of the cluster ``members`` around E: algebraic is its
    size, geometric n − rank(H − E·I). A singular value counts towards the
    rank above DEFECT_RANK_TOL·scale (scale = max(||H||₂, 1)) and above
    twice the spread max|E_i − E|: distinct eigenvalues of a normal H
    leave singular values no larger than the spread, while a Jordan block
    that rounding split by δ leaves one of order δ², far below it."""
    n = H.shape[0]
    spread = float(np.max(np.abs(members - E), initial=0.0))
    sigma = np.linalg.svd(H - E * np.eye(n), compute_uv=False)
    rank = int(np.sum(sigma > max(DEFECT_RANK_TOL * scale, 2 * spread)))
    return DefectReport(E, len(members), n - rank)
