"""Biorthogonal eigendecomposition and spectrum classification.

Right eigenvectors solve H|R_i> = E_i|R_i>; the left vector of the same
index solves H†|L_i> = conj(E_i)|L_i>, i.e. <L_i|H = E_i<L_i|. Both sides
come from one LAPACK ``geev`` factorization, so left column i belongs to
right column i: the pairing is the identity and the H† label of |L_i> is
conj(E_i) by construction. Under this labeling <L_j(t)|R_i(t)> picks up
the phase exp(i(E_j − E_i)t), so each <L_i|R_i> is a time-independent
scalar product and <L_j|R_i> = 0 whenever E_j != E_i.

Where a diagonal block of H (below) has a transposition signature,
Hᵀ = J·H·J on it exactly for a diagonal J of ±1, its ``geev`` is
right-only (``np.linalg.eig``) and <L_i| = (J·R_i)ᵀ. For real H, J is a
metric of its pseudo-Hermiticity, H† = J·H·J⁻¹ (Mostafazadeh, J. Math.
Phys. 43, 205 (2002)). The models that CPT makes "real rather than
Hermitian" (arXiv 1512.03736) have one: J = I for the dimer and the
harmonic oscillator, J = P⊗1 (parity of the slow mode) on each
Pais-Uhlenbeck sector. The cubic oscillator does not: x·x·x rounds to a
matrix symmetric only to an ulp. ``_pattern_walk`` finds each block's J.
Every other block takes both sides from ``scipy.linalg.eig`` with
left=True, which back-transforms them from the same Schur form; that is
the only place scipy.linalg is imported here, so a process that factorizes
only blocks with a signature never loads it. The Schur form both sides
share cancels R's rounding out of the overlaps <L_j|R_i> of distinct
levels; J·R carries it in, up to 5e-8 between PU's close levels of large
κ, until the completion's solve (below) clears it.

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
more than one CPU: the calling thread and the threads of one
``concurrent.futures.ThreadPoolExecutor``, kept for the life of the
process, take them largest first. At more BLAS threads two factorizations
would fight over the same CPUs, so they run one after the other, as they
do when fewer than two blocks reach CONCURRENT_MIN_DIM or scipy's
two-sided ``geev`` (which holds the GIL) factorizes them. Each block's
factorization is the same LAPACK call on the same data either way, so the
results are bitwise those of the plain loop. On the two 800×800 sectors of PU 40,40, one BLAS
thread and 2 CPUs, the two factorizations took 0.86 s side by side against
1.42 s in turn.

How far to trust eigenvalue i is its condition number
κ_i = ||L_i||·||R_i|| / |<L_i|R_i>| (Trefethen & Embree, *Spectra and
Pseudospectra*, 2005): 1 for a normal matrix, large for a non-normal one,
infinite at a defective eigenvalue. A Jordan block can keep every κ_i
finite (the 4×4 Pais-Uhlenbeck matrix at equal frequencies reads 7.6e7), so
each cluster of eigenvalues within DEFECT_CLUSTER_TOL of each other also
gets a rank test, on each block up to DEFECT_SCAN_MAX_DIM that holds its
members, whatever the dimension of H. ``is_diagonalizable`` is the one
verdict on defectiveness, read by the CLI and every library consumer.

Normalization, defect detection and biorthonormalization live here, in
two halves. ``eigendecompose`` returns with the eigenvalues, both
residuals, the κ_i of the unit geev vectors (from R alone on the
right-only route) and the defect verdicts, clusters included: a cluster's
overlap matrix, whose condition decides whether the completion can invert
it, is block-diagonal, one part per block it spans, since overlaps across
blocks are exactly zero. That is all ``spectrum`` and ``sweep`` report.
The first read of ``right_vectors``, ``left_vectors`` or
``condition_numbers`` (``_Completion``) completes each block on its own
arrays: its L outside the defective indices becomes the dual basis of
its R, in one solve per block on either route. Only then do two
``_assemble`` calls build the n×n bases (each block's columns in their
sorted positions, zero elsewhere), and the final ``condition_numbers``
are read off them: the same code on the same data, so the same bits,
whichever is read first. On one BLAS thread and 2 CPUs the completion
takes 16 ms at PU 20,20 and 0.60 s at PU 40,40, which ``spectrum`` does
not pay: the solve is O(n³) per block. The completion runs once, under a
lock, since it scales L in place.
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
# cluster; singular values of B − Ē·I, B a block holding its members, above
# DEFECT_RANK_TOL·||H|| and above twice the cluster's spread count towards
# the rank that decides its geometric multiplicity
DEFECT_CLUSTER_TOL = 1e-6
DEFECT_RANK_TOL = 1e-10
# the rank test (one SVD per block a cluster spans) and the exact ||A||₂ of
# the residual gate are only trusted, and affordable, on small blocks;
# larger ones rely on the condition-number flag alone, and their gate on a
# lower bound on ||A||₂ (``_factorize``)
DEFECT_SCAN_MAX_DIM = 64
# an index whose condition number exceeds 1/OVERLAP_FLOOR is defective (for
# the unit geev vectors: |<L_i|R_i>| below the floor), and its L keeps its
# geev scale
OVERLAP_FLOOR = 1e-10
# ``_concurrently`` starts a worker only for two or more tasks of at least
# this dimension: below it, the GIL hand-offs between the threads cost more
# than the BLAS work they overlap (on 2 CPUs, two right-only blocks of 32
# took 3.5 ms side by side against 3.2 ms in turn, of 64 9.5 against
# 11 ms; two overlap chains of 32 took 19 against 11 ms, of 96 47 against
# 72 ms)
CONCURRENT_MIN_DIM = 64
# a matrix whose largest entry lies outside [1/SAFE_SCALE, SAFE_SCALE] has
# each block factorized as 2^−e·A (``_factorize``), which is exact: beyond
# about 1e±135 geev's vectors lose all accuracy (a 100×100 standard normal
# matrix times 1e140 fails the residual gate, times 1e-140 its relative
# residual is 8.6), while at 2^±400 they are accurate to rounding
SAFE_SCALE = 2.0 ** 400


def _sort_key(values):
    return np.lexsort((values.imag, values.real))


class _Completion:
    """The deferred half of ``eigendecompose``: ``finish()`` returns the
    three ``_DEFERRED`` fields. It runs once, under a lock, in whichever
    thread first reads one of them, and keeps the arrays for the other two
    reads; it scales L in place, so it must never run twice."""

    def __init__(self, finish):
        self.lock = threading.Lock()
        self.finish = finish
        self.values = None

    def result(self) -> dict:
        with self.lock:
            if self.values is None:
                if self.finish is None:
                    raise RuntimeError("the biorthogonal completion failed on an earlier read")
                finish, self.finish = self.finish, None
                self.values = dict(zip(_DEFERRED, finish()))
        return self.values


class _Deferred:
    """A field of ``BiorthogonalSystem`` that may hold a pending
    ``_Completion``, replaced by its array on first read. It has no class
    default, so the dataclass field stays a required argument, and
    ``dataclasses.replace`` reads (and so completes) it like any field."""

    def __set_name__(self, owner, name):
        self.name, self.slot = name, "_" + name

    def __get__(self, system, owner=None):
        if system is None:
            raise AttributeError(self.name)
        value = system.__dict__[self.slot]
        if isinstance(value, _Completion):
            value = system.__dict__[self.slot] = value.result()[self.name]
        return value

    def __set__(self, system, value):
        system.__dict__[self.slot] = value


_DEFERRED = ("right_vectors", "left_vectors", "condition_numbers")


@dataclass
class BiorthogonalSystem:
    """Right/left eigensystem of a square complex matrix; column i of
    ``left_vectors`` belongs to column i of ``right_vectors``. Those two
    and ``condition_numbers`` are built on first read (``eigendecompose``);
    every other field is there from the start."""

    matrix: np.ndarray
    eigenvalues: np.ndarray          # E_i, sorted by (Re, Im)
    right_vectors: np.ndarray = _Deferred()      # columns |R_i>, unit norm
    left_vectors: np.ndarray = _Deferred()       # columns |L_i>, <L_i|R_i> = 1
    condition_numbers: np.ndarray = _Deferred()  # κ_i = ||L_i||·||R_i||/|<L_i|R_i>| >= 1
    right_residual: float            # max_i ||H R_i - E_i R_i||
    left_residual: float             # max_i ||H† L_i - conj(E_i) L_i||
    defective_indices: list = field(default_factory=list)
    defects: list = field(default_factory=list)   # DefectReport per defective cluster

    def __getstate__(self) -> dict:
        # copies and pickles carry the arrays, not the pending completion
        return {**self.__dict__, **{"_" + name: getattr(self, name) for name in _DEFERRED}}

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
    right-only on each block with a transposition signature (``_factorize``).

    Raises ConvergenceError if the QR iteration fails or the residuals of
    any block exceed tol·||H||₂ (the largest block norm; a lower bound on
    it for blocks above DEFECT_SCAN_MAX_DIM, ``_factorize``). Defects are
    flagged, not fatal: an index is defective when the κ_i of its unit
    geev vectors exceeds 1/OVERLAP_FLOOR, and so is every member of a
    cluster (eigenvalues within DEFECT_CLUSTER_TOL·max(1, max|E|)) whose
    geometric multiplicity, summed over the blocks of at most
    DEFECT_SCAN_MAX_DIM that hold its members (m − rank(B − Ē·I) for a
    block B of dimension m, rank rule of ``_cluster_defect``), is below
    the number of its members there, with its DefectReport in
    ``defects``. So is every cluster free of flagged indices whose overlap
    matrix is too ill-conditioned to invert. On each block the left
    vectors of the other indices are the dual basis of the right ones,
    <L_j|R_i> = δ_ij, from one solve per block. ``condition_numbers`` are
    those of the vectors returned. Those vectors, their solves and
    ``condition_numbers`` are made on the first read of ``right_vectors``,
    ``left_vectors`` or ``condition_numbers`` (``_complete``); every
    verdict is there before.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    if H.shape[0] < 1:
        raise ValueError("empty matrix")
    # the largest part of any entry, real or imaginary, is finite exactly
    # when H is, and the same for A, whose entries are H's times ±1 or ±i
    components = np.ascontiguousarray(H).view(float)
    peak = float(np.maximum(components.max(), -components.min()))
    if not np.isfinite(peak):
        raise ValueError("matrix has non-finite entries")
    # outside [1/SAFE_SCALE, SAFE_SCALE] every block is factorized as
    # 2^−e·A, the scale geev itself takes from the whole matrix
    exponent = 0 if 1.0 / SAFE_SCALE <= peak <= SAFE_SCALE else int(np.frexp(peak)[1])

    # A = D⁻¹·H·D; each block of its nonzero pattern is factorized on its
    # own, and one block is A itself, not a copy
    A, odd, blocks, sign = _real_form(H)
    # sign is 0 throughout a block without a signature
    signs = [None if sign is None or not sign[idx[0]] else sign[idx] for idx in blocks]
    try:
        parts = _concurrently(
            [lambda idx=idx, s=s: _factorize(A if len(blocks) == 1 else A[np.ix_(idx, idx)],
                                              s, exponent)
             for idx, s in zip(blocks, signs)],
            # scipy's two-sided geev holds the GIL: a second thread cannot
            # overlap it
            [0 if s is None else len(idx) for idx, s in zip(blocks, signs)])
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue iteration failed: {exc}") from exc
    evals, lvecs, rvecs, norms, right, left, overlaps, kappas = zip(*parts)
    evals = np.concatenate(evals)
    order = _sort_key(evals)
    evals = evals[order]
    # ||A||₂ of a block-diagonal A is its largest block norm
    scale = max(*norms, 1.0)
    right_res, left_res = max(right), max(left)
    # overflow leaves inf or NaN on either side, and that fails the gate
    if not max(right_res, left_res) <= tol * scale < np.inf:
        lvecs = [_left(L, R, s) for L, R, s in zip(lvecs, rvecs, signs)]
        raise ConvergenceError(
            f"eigenvector residual {max(right_res, left_res):.3e} exceeds "
            f"{tol:.1e}·||H||",
            partial=(evals, _gauge(_assemble(blocks, order, rvecs), odd),
                     np.conj(evals), _gauge(_assemble(blocks, order, lvecs), odd)),
        )

    kappa = np.concatenate(kappas)[order]
    flagged = kappa > 1.0 / OVERLAP_FLOOR
    # a cluster whose geometric multiplicity falls short of its size is a
    # Jordan block, however well conditioned geev's vectors look. geev
    # back-transforms each vector on its own, so inside any other cluster
    # the two bases need not be biorthogonal, and the completion's solve
    # must invert the cluster's overlap matrix: a cluster free of flagged
    # indices that is too ill-conditioned for that counts as defective
    defective = set(np.flatnonzero(flagged).tolist())
    defects = []
    places = owner, column = _places(blocks, order)
    for cluster in _clusters(evals, _relative_radius(evals, DEFECT_CLUSTER_TOL)):
        report = _cluster_defect(A, blocks, owner[cluster], complex(np.mean(evals[cluster])),
                                 evals[cluster], scale)
        if report.is_defective:
            defects.append(report)
            defective.update(cluster.tolist())
            continue
        if flagged[cluster].any():
            continue
        # overlaps across blocks are exactly zero, so the cluster's overlap
        # matrix is block-diagonal, one O per block it spans: its singular
        # values, and so its condition number, are those of the O together
        shares = []
        for b in np.unique(owner[cluster]):
            cols = column[cluster[owner[cluster] == b]]
            L = _left(lvecs[b], rvecs[b], signs[b], cols) / np.conj(overlaps[b][cols])
            shares.append(np.linalg.svd(L.conj().T @ rvecs[b][:, cols], compute_uv=False))
        sigma = np.concatenate(shares)
        if not sigma.max() < 1e8 * sigma.min():
            defective.update(cluster.tolist())

    # the n×n bases wait for their first read: spectrum and sweep never make
    # one
    pending = _Completion(functools.partial(
        _complete, blocks, order, places, odd, signs, lvecs, rvecs, overlaps, kappas,
        defective))
    return BiorthogonalSystem(
        matrix=H,
        eigenvalues=evals,
        right_vectors=pending,
        left_vectors=pending,
        condition_numbers=pending,
        right_residual=right_res,
        left_residual=left_res,
        defective_indices=sorted(defective),
        defects=defects,
    )


def _complete(blocks, order, places, odd, signs, lvecs, rvecs, overlaps, kappas,
              defective) -> tuple:
    """The deferred half of ``eigendecompose``: the n×n (R, L, κ) from each
    block's geev vectors (L None where it is conj(J·R)), their overlaps
    <L_i|R_i> and κ_i and ``_places(blocks, order)``. Each block's L is
    formed and scaled (its geev L in place) on its own arrays, the blocks
    in turn: a read may come from a ``_concurrently`` task, which must not
    call it again. Its columns outside the defective indices then become
    the dual basis of R's, L·O⁻ᴴ for their overlap matrix O = Lᴴ·R, in
    one solve per block.

    That solve biorthonormalizes each degenerate cluster, and on the
    right-only route it also clears the overlaps <L_j|R_i> of distinct
    levels that L = conj(J·R) carries from R's rounding,
    (E_i − E_j)·<L_j|R_i> = <s_j|R_i> − <L_j|r_i> for the residuals s, r,
    which a two-sided ``geev`` cancels through the Schur form both sides
    share."""
    owner, column = places
    kept = np.ones(len(order), dtype=bool)
    kept[sorted(defective)] = False
    lefts = []
    for b, (L, R, s, overlap, k) in enumerate(zip(lvecs, rvecs, signs, overlaps, kappas)):
        L = _left(L, R, s)
        scaled = ~(k > 1.0 / OVERLAP_FLOOR)
        L[:, scaled] /= np.conj(overlap[scaled])
        cols = column[kept & (owner == b)]
        # the rows of Lᴴ, conjugated in the copy that indexing makes
        Lh = L[:, cols].T
        O = np.conj(Lh, out=Lh) @ R[:, cols]
        L[:, cols] = np.linalg.solve(O, Lh).conj().T
        lefts.append(L)
    lvecs, rvecs = _assemble(blocks, order, lefts), _assemble(blocks, order, rvecs)
    # κ of the vectors returned: on the kept columns, that of the dual
    # basis, which R alone fixes, whichever route gave L. vecdot
    # conjugates its first argument without an n×n copy
    with np.errstate(divide="ignore", over="ignore"):
        kappa = np.sqrt(np.vecdot(lvecs, lvecs, axis=0).real
                        * np.vecdot(rvecs, rvecs, axis=0).real) / np.abs(
            np.vecdot(lvecs, rvecs, axis=0))
    return _gauge(rvecs, odd), _gauge(lvecs, odd), kappa


def _left(L, R, sign, cols=slice(None)) -> np.ndarray:
    """Columns ``cols`` of a block's left vectors: geev's L, or conj(J·R)
    where L is None."""
    return np.conj(sign[:, None] * R[:, cols]) if L is None else L[:, cols]


def _real_form(H) -> tuple:
    """(A, odd, blocks, sign): A = D⁻¹·H·D for D = diag(i^odd), the
    diagonal blocks of H (``_blocks``), and A's transposition signature
    block by block (``_pattern_walk``): Aᵀ = J·A·J on each block where
    J = diag(sign) is ±1, sign 0 on a block without one, or None if no
    block has one. A is real whenever some d in {1, i}ⁿ makes it so (odd
    is None for entrywise-real H, where D = I); otherwise A = H and odd is
    None.

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

    sign is H's transposition signature per block, Hᵀ = J·H·J there for
    J = diag(sign) of ±1, 0 on a block without one; None if no block has
    one. The tree sets sign_j = ±sign_k where H_kj = ±H_jk, sign = 1 at
    the block's smallest index, and every edge is then checked, exactly:
    no tolerance decides it."""
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
    sign, block = np.array(sign), np.array(block)
    # a block loses its J to an edge with a flip of 0 (which, on a tree
    # edge, gives a 0 sign that agrees with itself) or one the tree fails
    broken = np.zeros(n, dtype=bool)
    broken[block[k[(flips == 0) | (flips != sign[j] * sign[k])]]] = True
    sign[broken[block]] = 0.0
    return np.array(m, dtype=complex), sign if sign.any() else None, block


def _split(root) -> list:
    """Index sets sharing a label, ascending, in order of their label."""
    order = np.argsort(root, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(root[order])) + 1)


def _factorize(A, sign, exponent: int) -> tuple:
    """One ``geev`` of a block A: (E, L, R) sorted by (Re, Im), the
    residual gate's scale, the largest right and left residual norms, inf
    or NaN where they overflow, and each geev pair's overlap <L_i|R_i> and
    condition number κ_i.

    The scale is ||A||₂ up to DEFECT_SCAN_MAX_DIM. Above it, where the
    exact norm is a full SVD, it is the larger of A's largest column norm
    and max|E|, two lower bounds on ||A||₂ that can only make the gate
    stricter: 0.94 of ||A||₂ or more on the model matrices, about 0.5 on
    the benchmark's non-normal ones.

    With the block's own transposition signature Aᵀ = J·A·J, J =
    diag(sign), the ``geev`` is right-only (``np.linalg.eig``): <L_i| =
    (J·R_i)ᵀ solves <L_i|A = E_i<L_i|, since Aᵀ·J·R_i = J·A·R_i =
    E_i·J·R_i. L is then None, left for ``_left`` to form, and R alone
    gives the overlap Σ_k J_k·R_ki² and ||L_i|| = ||R_i||. With sign None,
    ``scipy.linalg.eig`` back-transforms both sides.

    A nonzero ``exponent`` e factorizes 2^−e·A instead; E, the scale and
    the residuals are scaled back by 2^e, exactly. The scale is inf there
    wherever ||A||_F, an upper bound on ||A||₂, overflows: a bound that
    stays finite must not let the gate pass a block whose norm may not."""
    if exponent:
        A = _ldexp(A, -exponent)
    if sign is None:
        import scipy.linalg

        evals, lvecs, rvecs = scipy.linalg.eig(A, left=True, right=True,
                                               check_finite=False)
    else:
        evals, rvecs = np.linalg.eig(A)
        # an all-real spectrum of a real A comes back as a real array
        evals = evals.astype(complex, copy=False)
        lvecs = None
    order = _sort_key(evals)
    evals, rvecs = evals[order], rvecs[:, order]
    size = np.linalg.norm(rvecs, axis=0)
    if sign is None:
        lvecs = lvecs[:, order]
        overlaps = np.einsum("ki,ki->i", lvecs.conj(), rvecs)
        left_size = np.linalg.norm(lvecs, axis=0)
    else:
        overlaps, left_size = np.einsum("ki,ki->i", sign[:, None] * rvecs, rvecs), size
    # κ is infinite where the overlap vanishes or underflows
    with np.errstate(divide="ignore", over="ignore"):
        kappa = left_size * size / np.abs(overlaps)
    with np.errstate(over="ignore", invalid="ignore"):
        right_res = float(np.max(np.linalg.norm(
            _matmul(A, rvecs) - rvecs * evals, axis=0)))
        # A^H·L − L·conj(E) is conj(J·(A·R − R·E)) on the right-only route
        left_res = right_res if sign is not None else float(np.max(np.linalg.norm(
            _matmul(A.conj().T, lvecs) - lvecs * np.conj(evals), axis=0)))
        if A.shape[0] <= DEFECT_SCAN_MAX_DIM:
            norm = np.linalg.norm(A, 2)
        else:
            columns = np.linalg.norm(A, axis=0)
            norm = max(columns.max(), np.abs(evals).max())
            if exponent and np.isinf(np.ldexp(np.linalg.norm(columns), exponent)):
                norm = np.inf
        if exponent:
            evals = _ldexp(evals, exponent)
            norm, right_res, left_res = (float(np.ldexp(x, exponent))
                                         for x in (norm, right_res, left_res))
    return evals, lvecs, rvecs, norm, right_res, left_res, overlaps, kappa


def _ldexp(X, exponent: int) -> np.ndarray:
    """X·2^exponent, exact unless it over- or underflows; complex X part
    by part."""
    if np.iscomplexobj(X):
        return np.ldexp(np.ascontiguousarray(X).view(float), exponent).view(complex)
    return np.ldexp(X, exponent)


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


def _places(blocks, order) -> tuple:
    """(owner, column) of each sorted position p: the block that
    ``_assemble`` takes column p from, and its column in that block."""
    sizes = [len(idx) for idx in blocks]
    starts = np.repeat(np.cumsum([0, *sizes[:-1]]), sizes)
    return (np.repeat(np.arange(len(blocks)), sizes)[order],
            (np.arange(len(order)) - starts)[order])


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
    ``_parallelism()`` − 1 threads of the ``ThreadPoolExecutor`` of
    ``_executor``, one per task of at least CONCURRENT_MIN_DIM beyond the
    first. ``sizes`` are the tasks' dimensions of dense work that runs
    without the GIL. A worker runs the tasks in its own copy of the
    caller's ``contextvars`` context, so ``np.errstate`` holds there too.
    With no worker this is the plain loop. A task's exception is re-raised
    here once every thread is done with the list; no task starts after it.
    A task must not call this itself: in a worker it could wait on a
    future that no free thread can run."""
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
    workers = _parallelism() - 1 if large > 1 else 0
    futures = [_executor(workers).submit(contextvars.copy_context().run, drain)
               for _ in range(min(large - 1, workers))]
    try:
        drain()
    finally:
        errors = [future.exception() for future in futures]
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


@functools.cache
def _executor(workers: int):
    """``_concurrently``'s threads, started as calls first need them, at
    most ``workers`` = ``_parallelism()`` − 1: an executor marks a thread
    idle only after it has set its future's result, so unbounded it could
    start one more on a call that follows the last at once. A forked child
    inherits no thread, so it builds its own (``os.register_at_fork``)."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(workers, thread_name_prefix="biortho-worker")


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_executor.cache_clear)


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
    # |E_a - conj(E_b)| is symmetric in (a, b) and no less than
    # |Re E_a - Re E_b|: with the real parts ascending, each a is measured
    # only against the b > a whose real part lies within 2·radius of its
    # own, in row-major order, and not against all n² of them
    parts = complex_evs.real
    first = np.maximum(np.searchsorted(parts, parts - 2 * radius),
                       np.arange(1, len(parts) + 1))
    width = np.maximum(np.searchsorted(parts, parts + 2 * radius, side="right") - first, 0)
    a_idx = np.repeat(np.arange(len(parts)), width)
    b_idx = np.arange(len(a_idx)) + np.repeat(first - (np.cumsum(width) - width), width)
    dist = np.abs(complex_evs[a_idx] - np.conj(complex_evs[b_idx]))
    close = dist < radius
    a_idx, b_idx = a_idx[close], b_idx[close]
    # nearest first; the stable sort keeps row-major order among equal
    # distances, so each accepted pair is the nearest one left open
    rank = np.argsort(dist[close], kind="stable")
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


def _cluster_defect(A, blocks, owners, E: complex, members, scale: float) -> DefectReport:
    """Multiplicities around E of the cluster ``members``, whose indices
    lie in ``blocks[b]`` for b in ``owners``, counted on the blocks of at
    most DEFECT_SCAN_MAX_DIM among them: algebraic is the number of its
    members there, geometric the sum of each block B's nullity
    m − rank(B − E·I); both 0 if it has no member in such a block.

    A singular value counts towards a rank above DEFECT_RANK_TOL·scale
    (scale = max(||A||₂, 1)) and above twice the whole cluster's spread
    max|E_i − E|: distinct eigenvalues of a normal block leave singular
    values no larger than the spread, while a Jordan block that rounding
    split by δ leaves one of order δ², far below it."""
    spread = float(np.max(np.abs(members - E), initial=0.0))
    floor = max(DEFECT_RANK_TOL * scale, 2 * spread)
    algebraic = geometric = 0
    for b, count in zip(*np.unique(owners, return_counts=True)):
        m = len(blocks[b])
        if m > DEFECT_SCAN_MAX_DIM:
            continue
        B = A if len(blocks) == 1 else A[np.ix_(blocks[b], blocks[b])]
        sigma = np.linalg.svd(B - E * np.eye(m), compute_uv=False)
        algebraic += int(count)
        geometric += m - int(np.sum(sigma > floor))
    return DefectReport(E, algebraic, geometric)
