"""Biorthogonal eigendecomposition and spectrum classification.

Right eigenvectors solve H|R_i> = E_i|R_i>; the left vector of the same
index solves H†|L_i> = conj(E_i)|L_i>, i.e. <L_i|H = E_i<L_i|. Both sides
come from one LAPACK ``geev`` factorization (scipy.linalg.eig with
left=True), which back-transforms left and right eigenvectors from the same
Schur form, so left column i belongs to right column i: the pairing is the
identity and the H† label of |L_i> is conj(E_i) by construction. Under this
labeling <L_j(t)|R_i(t)> picks up the phase exp(i(E_j − E_i)t), so each
<L_i|R_i> is a time-independent scalar product and <L_j|R_i> = 0 whenever
E_j != E_i.

Real ``dgeev`` runs whenever H is real up to a diagonal gauge
D = diag(d), d in {1, i}ⁿ: on entrywise-real H (D = I), and on H whose
entries are each purely real or purely imaginary, with a real diagonal
and an even number of imaginary entries on every cycle of its nonzero
pattern, such as the position-real cubic oscillator (d = i on the odd
Fock states). That is the diagonal case of the real form S⁻¹·H·S of an
H with antilinear symmetry M∘K (S = a·I + ā·M; for M = parity and
a = e^{iπ/4}, S = √2·D). A = D⁻¹·H·D is built exactly, its complex
eigenvalues and eigenvectors come in exact conjugate pairs, and
R = D·R′, L = D·L′ map its eigenvectors back exactly.

A is factorized one diagonal block at a time: the blocks are the connected
components of the graph with an edge wherever an entry of H is exactly
nonzero, so no tolerance decides them, and each block's vectors are zero
outside it. An irreducible H is one block and one ``geev``. The
Pais-Uhlenbeck matrix is two blocks: it is real and its PT is (P⊗P)∘K, so
it commutes with the linear P⊗P and each parity sector is a block of half
the dimension. Residuals, condition numbers and the left scaling are
computed on each block's own rows, and each block's columns are written
once into their sorted positions.

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

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

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
    ``dgeev`` whenever H is real up to a diagonal gauge (``_real_form``).

    Raises ConvergenceError if the QR iteration fails or the residuals of
    any block exceed tol·||H||₂ (the largest block norm; above
    DEFECT_SCAN_MAX_DIM a lower bound on it, ``_norm_lower_bound``).
    Defects are flagged, not fatal: an index is defective when
    κ_i > 1/OVERLAP_FLOOR, and, for n <= DEFECT_SCAN_MAX_DIM, every member
    of a cluster (eigenvalues within DEFECT_CLUSTER_TOL·max(1, max|E|))
    whose geometric multiplicity n − rank(H − Ē·I) (rank rule of
    ``_cluster_defect``) is below its size, with its DefectReport in
    ``defects``. Every other cluster free of flagged
    indices is re-biorthogonalized.
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
    A, odd, blocks = _real_form(H)
    n = H.shape[0]
    try:
        parts = [_factorize(A if len(blocks) == 1 else A[np.ix_(idx, idx)],
                            n <= DEFECT_SCAN_MAX_DIM)
                 for idx in blocks]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue iteration failed: {exc}") from exc
    evals, lvecs, rvecs, norms, right, left = zip(*parts)
    evals = np.concatenate(evals)
    order = _sort_key(evals)
    evals = evals[order]
    # ||A||₂ of a block-diagonal A is its largest block norm
    scale = max(*norms, 1.0)
    right_res, left_res = max(right), max(left)
    if max(right_res, left_res) > tol * scale:
        raise ConvergenceError(
            f"eigenvector residual {max(right_res, left_res):.3e} exceeds "
            f"{tol:.1e}·||H||",
            partial=(evals, _gauge(_assemble(blocks, order, rvecs), odd),
                     np.conj(evals), _gauge(_assemble(blocks, order, lvecs), odd)),
        )

    # κ and the left scaling need only each block's own rows
    kappa = []
    for L, R in zip(lvecs, rvecs):
        overlaps = np.einsum("ki,ki->i", L.conj(), R)
        with np.errstate(divide="ignore"):
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


def _real_form(H) -> tuple:
    """(A, odd, blocks): A = D⁻¹·H·D for D = diag(i^odd), and the diagonal
    blocks of A (``_blocks``). A is real whenever some d in {1, i}ⁿ makes
    it so (odd is None for entrywise-real H, where D = I); otherwise A = H
    and odd is None.

    H_jk·d_k/d_j is real for every entry exactly when each entry is purely
    real or purely imaginary, the diagonal is real, and d_j and d_k agree
    across every real entry and differ across every imaginary one, i.e.
    every cycle crosses an even number of imaginary entries. Node j of a
    doubled graph stands for d_j = 1 and node n + j for d_j = i; a real
    entry joins j–k and n+j–n+k, an imaginary one j–n+k and n+j–k. D exists
    when no j shares a component with n + j; the component holding a
    block's smallest index m (with d_m = 1) then has the smaller label.
    Exact: no tolerance decides it, and A only copies or negates parts of
    H's entries."""
    if not np.any(H.imag):
        A = H.real
        return A, None, _blocks(A)
    re, im = H.real != 0, H.imag != 0
    if (re & im).any() or np.diagonal(im).any():
        return H, None, _blocks(H)
    n = H.shape[0]
    rows, cols = np.divmod(np.flatnonzero(re), n)
    imag = np.flatnonzero(im)
    i_rows, i_cols = np.divmod(imag, n)
    root = _components(np.concatenate((rows, rows + n, i_rows, i_rows + n)),
                       np.concatenate((cols, cols + n, i_cols + n, i_cols)),
                       2 * n)
    at_one, at_i = root[:n], root[n:]
    # either way, a block's smallest index labels one of its two copies
    blocks = _split(np.minimum(at_one, at_i))
    if (at_one == at_i).any():
        return H, None, blocks
    odd = at_one > at_i
    # at an imaginary entry H_jk = i·h, D⁻¹·H·D reads h where d_j = i and
    # −h where d_k = i
    A = np.array(H.real)
    A.flat[imag] = np.where(odd[i_rows], 1.0, -1.0) * H.imag.flat[imag]
    return A, odd, blocks


def _gauge(X, odd) -> np.ndarray:
    """D·X for D = diag(i^odd): rows in ``odd`` times i, exactly."""
    if odd is None:
        return X
    X = X.astype(complex, copy=False)
    X[odd] *= 1j
    return X


def _blocks(A) -> list:
    """Index sets of the diagonal blocks of A, in order of their smallest
    index: the connected components of the graph with an edge i–j wherever
    A[i, j] is exactly nonzero."""
    n = A.shape[0]
    # divmod of the flat indices is several times faster than np.nonzero's
    # row and column pass on a 400×400 matrix
    return _split(_components(*np.divmod(np.flatnonzero(A != 0), n), n))


def _components(rows, cols, n: int) -> np.ndarray:
    """Label of each of n nodes: the smallest node of its connected
    component in the graph with edges rows[k]–cols[k]. Each round hooks
    every root onto the smallest root an edge joins it to, then jumps every
    label to its root; an edge whose ends share a root is dropped for
    good."""
    root = np.arange(n)
    a, b = rows, cols
    while True:
        cross = a != b
        if not cross.any():
            break
        rows, cols, a, b = rows[cross], cols[cross], a[cross], b[cross]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = root[root]
            if (jumped == root).all():
                break
            root = jumped
        a, b = root[rows], root[cols]
    return root


def _split(root) -> list:
    """Index sets sharing a label, ascending, in order of their label."""
    if not root.any():
        return [np.arange(len(root))]
    order = np.argsort(root, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(root[order])) + 1)


def _factorize(A, exact_norm: bool) -> tuple:
    """One ``geev`` of A: (E, L, R) sorted by (Re, Im), ||A||₂ (or, unless
    ``exact_norm``, its lower bound ``_norm_lower_bound``), and the largest
    right and left residual norms."""
    evals, lvecs, rvecs = scipy.linalg.eig(A, left=True, right=True,
                                           check_finite=False)
    order = _sort_key(evals)
    evals, lvecs, rvecs = evals[order], lvecs[:, order], rvecs[:, order]
    right_res = float(np.max(np.linalg.norm(
        _matmul(A, rvecs) - rvecs * evals, axis=0)))
    left_res = float(np.max(np.linalg.norm(
        _matmul(A.conj().T, lvecs) - lvecs * np.conj(evals), axis=0)))
    norm = np.linalg.norm(A, 2) if exact_norm else _norm_lower_bound(A)
    return evals, lvecs, rvecs, norm, right_res, left_res


def _norm_lower_bound(A) -> float:
    """||A·x||, less its rounding, for the unit x that NORM_STEPS steps of
    power iteration on A^H·A reach from the all-ones vector: a lower bound
    on ||A||₂ in O(n²) per step, where the exact norm is a full SVD.
    Deterministic, and 0.98 of ||A||₂ or more on the Pais-Uhlenbeck sectors
    and the cubic oscillator."""
    n = A.shape[1]
    x = np.full(n, n ** -0.5)
    for _ in range(NORM_STEPS):
        x = np.conj(np.conj(A @ x) @ A)
        size = np.linalg.norm(x)
        if not size:
            return 0.0
        x /= size
    # the products and norms round by a few n·u each
    return float(np.linalg.norm(A @ x)) * (1.0 - 4 * (n + 1) * np.finfo(float).eps)


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
