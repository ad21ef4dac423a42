"""Antilinear operators, symmetry checks, and the spectral C operator.

An antilinear operator is stored as a linear matrix M composed with
entrywise complex conjugation K, acting as v -> M·conj(v). Composing two
such operators gives a plain linear one with matrix M1·conj(M2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConditioningError,
    ConvergenceError,
    DefectiveSystemError,
    NoAntilinearSymmetryError,
    SignAmbiguityError,
    SingularOperatorError,
)
from .spectral import (
    BiorthogonalSystem,
    _clusters,
    _pattern_walk,
    _relative_radius,
)

SYMMETRY_TOL = 1e-10
PT_NORM_FLOOR = 1e-10
# build_c_operator's gate on |C² − 1| and |[C, H]|, in every regime
C_OPERATOR_TOL = 1e-8
# eigenvalues of T within SCHUR_CLUSTER_TOL·max(1, max|E|) of each other, or
# of the other's conjugate, share a diagonal block of the Schur route
SCHUR_CLUSTER_TOL = np.finfo(float).eps ** (1 / 3)
# singular values below NULLSPACE_RTOL·‖H‖_F span a diagonal block's
# intertwiner nullspace on the Schur route
NULLSPACE_RTOL = 1e-9


@dataclass(frozen=True)
class AntilinearOp:
    """Linear matrix plus a conjugation flag (true means antilinear)."""

    linear_part: np.ndarray
    conjugates: bool = True

    def __call__(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=complex)
        return self.linear_part @ (np.conj(v) if self.conjugates else v)

    def compose(self, other: "AntilinearOp") -> "AntilinearOp":
        """self ∘ other; antilinear ∘ antilinear is linear."""
        m2 = np.conj(other.linear_part) if self.conjugates else other.linear_part
        return AntilinearOp(
            linear_part=self.linear_part @ m2,
            conjugates=self.conjugates != other.conjugates,
        )


def identity_op(n: int) -> AntilinearOp:
    """Plain complex conjugation K on C^n."""
    return AntilinearOp(np.eye(n, dtype=complex))


@dataclass(frozen=True)
class SymmetryCheck:
    residual: float
    condition_number: float

    def holds(self) -> bool:
        return self.residual < SYMMETRY_TOL


def commutes_with(op: AntilinearOp, H) -> SymmetryCheck:
    """Relative residual of [H, A] = 0 for antilinear A = M∘K.

    Returns ||M·conj(H)·M⁻¹ − H|| / ||H|| (Frobenius) together with the
    condition number of M; raises SingularOperatorError for singular M.
    A diagonal M = diag(d) costs O(n²) and keeps H's nonzero pattern: its
    singular values are |d_i| and the transform is d_i·conj(H_ij)/d_j,
    zero wherever H is.
    """
    H = np.asarray(H, dtype=complex)
    M = op.linear_part
    if M.shape != H.shape:
        raise ValueError(f"linear part of shape {M.shape} does not act on H of shape {H.shape}")
    n = len(M)
    d = _diagonal(M)
    if d is not None:
        moduli = np.abs(d)
        sigma_max, sigma_min = float(moduli.max()), float(moduli.min())
    else:
        sigma = np.linalg.svd(M, compute_uv=False)
        sigma_max, sigma_min = float(sigma[0]), float(sigma[-1])
    if sigma_min <= len(M) * np.finfo(float).eps * sigma_max:
        raise SingularOperatorError(
            f"linear part is numerically singular (sigma_min={sigma_min:.3e})"
        )
    cond = sigma_max / sigma_min
    if d is not None:
        # the boolean pattern scans far faster than complex H itself
        nonzero = np.flatnonzero(H != 0)
        rows, cols = np.divmod(nonzero, n)
        H = H.reshape(-1)[nonzero]
        Hc = np.conj(H) if op.conjugates else H
        transformed = d[rows] * Hc / d[cols]
    else:
        Hc = np.conj(H) if op.conjugates else H
        transformed = M @ Hc @ np.linalg.inv(M)
    h_norm = np.linalg.norm(H)
    residual = float(np.linalg.norm(transformed - H) / (h_norm if h_norm else 1.0))
    return SymmetryCheck(residual=residual, condition_number=cond)


def _diagonal(M: np.ndarray) -> np.ndarray | None:
    """M's diagonal if every entry off it is exactly zero, else None."""
    n = len(M)
    # after its first entry, M's n² − 1 entries fold into n − 1 rows of
    # n + 1, each ending on a diagonal entry: the rest are off the diagonal
    if M.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n].any():
        return None
    return np.diagonal(M)


def anticommutator_with(C: np.ndarray, op: AntilinearOp) -> np.ndarray:
    """Linear part of C·A − A·C for antilinear A = M∘K.

    (C·A − A·C)v = (C·M − M·conj(C))·conj(v), so the returned matrix is
    C·M − M·conj(C); its norm measures [C, A].
    """
    C = np.asarray(C, dtype=complex)
    M = op.linear_part
    Cc = np.conj(C) if op.conjugates else C
    return C @ M - M @ Cc


@dataclass(frozen=True)
class RealityReport:
    is_real: bool
    max_imag: float


def is_real(H) -> RealityReport:
    """Entrywise reality test: true iff every Im H_mn is exactly 0.

    This is the rule under which ``eigendecompose`` runs real ``dgeev`` and
    ``euclidean_reality`` works in real arithmetic.
    """
    H = np.asarray(H, dtype=complex)
    max_imag = float(np.max(np.abs(H.imag))) if H.size else 0.0
    return RealityReport(is_real=max_imag == 0.0, max_imag=max_imag)


def find_antilinear_symmetry(H, tol: float = 1e-8) -> AntilinearOp:
    """Construct an antilinear symmetry A = M∘K of H, if one exists.

    Two routes, in order; the first M to pass both gates,
    σ_min(M/‖M‖_F) ≥ 1e-8 and ``commutes_with`` residual ≤ ``tol``, is
    returned:

    1. Diagonal, O(nnz) after an O(n²) scan of H's nonzero pattern, with no
       factorization. A diagonal M = diag(m) intertwines H exactly
       when m_j/m_k = H_jk/conj(H_jk) on every nonzero entry, so each
       connected block of the pattern allows at most one m up to a phase;
       ``spectral._pattern_walk``, the walk that also gives
       ``eigendecompose`` its blocks and real gauge, finds it with m = 1 at
       the block's smallest index, and the gate decides whether that m is
       a symmetry. This covers parity, P⊗P and every rephasing D·P·D̄ of
       them in the Fock and position bases (Bender & Mannheim, Phys. Lett.
       A 374, 1616 (2010)). An entrywise-real H (every imaginary part
       exactly 0, see ``is_real``) gives m ≡ 1 and plain conjugation K,
       M = I exactly.
    2. Schur, O(n³), with no eigenvector (Bartels & Stewart, CACM 15, 820
       (1972)). From H = Q·T·Qᴴ, eigenvalues of T within
       SCHUR_CLUSTER_TOL·max(1, max|E|) of each other or of each other's
       conjugates are moved into one diagonal block (a k-fold Jordan block
       splits by about eps^(1/k)), and conj(T) is reordered to P·T′·Pᴴ so
       that each of its blocks holds the conjugates of T's block. The
       spectrum must be closed under conjugation at that radius (otherwise
       NoAntilinearSymmetryError; the diagonal route needs no such test,
       since its verified M proves closure). H·M = M·conj(H) then reads
       T·Z = Z·T′ for M = Q·Z·Pᴴ·Qᵀ, and Z is block upper triangular:
       each diagonal block is the best-conditioned element of the
       nullspace of X -> T_gg·X − X·T′_gg, times a unit phase taken along
       the block's strongest coupling T_gh to an earlier block, which
       leaves Z block diagonal and M unitary for an antiunitary symmetry;
       the blocks above the diagonal follow by back-substitution with
       ``ztrsyl``. ConvergenceError if the Schur iteration fails.

    ValueError for an H that is not square, is empty or has a non-finite
    entry, before any route runs.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    if H.shape[0] < 1:
        raise ValueError("empty matrix")
    if not np.all(np.isfinite(H)):
        raise ValueError("matrix has non-finite entries")

    try:
        return _verified_intertwiner(np.diag(_pattern_walk(H)[0]), H, tol)
    except ConditioningError:
        pass
    return _verified_intertwiner(_schur_intertwiner(H), H, tol)


def _schur_intertwiner(H: np.ndarray) -> np.ndarray:
    """An M with H·M = M·conj(H), from one Schur form of H (see
    ``find_antilinear_symmetry``)."""
    import scipy.linalg
    from scipy.linalg import lapack

    try:
        T, Q = scipy.linalg.schur(H, output="complex")
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Schur factorization failed: {exc}") from exc
    n = len(T)
    t = np.diagonal(T)
    # each star group of t ∪ conj(t) is one block: its members from t, and
    # the members of conj(T) whose conjugates lie among them
    own, partners = [], []
    paired = np.zeros(n, dtype=bool)
    for members in _clusters(np.concatenate([t, np.conj(t)]),
                             _relative_radius(t, SCHUR_CLUSTER_TOL)):
        mine = members[members < n]
        if 2 * len(mine) == len(members):
            own.append(mine)
            partners.append(members[len(mine):] - n)
            paired[mine] = True
    if not paired.all():
        raise NoAntilinearSymmetryError(
            "spectrum is not closed under complex conjugation: "
            f"unpaired eigenvalues {np.sort_complex(t[~paired]).tolist()}"
        )
    placed = np.concatenate(own)
    position = np.empty(n, dtype=int)
    position[placed] = np.arange(n)
    T, Q = _reorder(T, Q, placed)
    Tc, P = _reorder(np.conj(T), np.eye(n, dtype=complex), position[np.concatenate(partners)])
    starts = np.cumsum([0] + [len(m) for m in own[:-1]])
    blocks = [slice(a, a + len(m)) for a, m in zip(starts, own)]
    # Σ|T_ij| between every two blocks, the strength of their coupling
    W = np.add.reduceat(np.add.reduceat(np.abs(T), starts, axis=0), starts, axis=1)
    h_norm = np.linalg.norm(T)

    Z = np.zeros((n, n), dtype=complex)
    for h, b in enumerate(blocks):
        Z[b, b] = _local_intertwiner(T[b, b], Tc[b, b], h_norm)
        if h == 0:
            continue
        # the unit phase that best meets Z_gg·T′_gb = T_gb·Z_bb along b's
        # strongest coupling to an earlier block g; for an antiunitary
        # symmetry it leaves Z block diagonal and M unitary
        g = blocks[int(np.argmax(W[:h, h]))]
        Z[b, b] *= np.exp(1j * np.angle(np.vdot(T[g, b] @ Z[b, b], Z[g, g] @ Tc[g, b])))
        # the blocks above it: T[:s, :s]·Z[:s, b] − Z[:s, b]·T′_bb
        # = Z[:s, :s]·T′[:s, b] − T[:s, b]·Z_bb, by back-substitution
        lead = slice(0, b.start)
        rhs = Z[lead, lead] @ Tc[lead, b] - T[lead, b] @ Z[b, b]
        X, scale, _ = lapack.ztrsyl(T[lead, lead], Tc[b, b], rhs, isgn=-1)
        Z[lead, b] = X / scale
    return Q @ Z @ P.conj().T @ Q.T


def _reorder(T: np.ndarray, Q: np.ndarray, order) -> tuple:
    """Triangular T with its diagonal entries moved so that position p
    holds the one now at ``order[p]``, and Q updated to match, by
    ``ztrexc``."""
    from scipy.linalg import lapack

    at = list(range(len(T)))
    for p, i in enumerate(order):
        c = at.index(i, p)
        if c != p:
            T, Q, _ = lapack.ztrexc(T, Q, c + 1, p + 1)
            at.insert(p, at.pop(c))
    return T, Q


def _local_intertwiner(A: np.ndarray, B: np.ndarray, h_norm: float) -> np.ndarray:
    """Best-conditioned X with A·X = X·B for k×k blocks, scaled to
    ‖X‖_F = √k: the identity where A and B agree within
    NULLSPACE_RTOL·h_norm (a singleton, a semisimple cluster), else the
    best of an orthonormal basis of the nullspace (singular values below
    that bound, at least one vector) and its element nearest the
    identity."""
    k = len(A)
    eye = np.eye(k, dtype=complex)
    if k == 1 or np.linalg.norm(A - B) <= NULLSPACE_RTOL * h_norm:
        return eye
    # vec (column-major): vec(A X) = (I ⊗ A) vec(X), vec(X B) = (Bᵀ ⊗ I) vec(X)
    _, s, vh = np.linalg.svd(np.kron(eye, A) - np.kron(B.T, eye))
    basis = vh[min(int(np.sum(s > NULLSPACE_RTOL * h_norm)), k * k - 1):].conj()
    candidates = np.concatenate([basis, [basis.T @ (basis.conj() @ eye.ravel())]])
    mats = candidates.reshape(-1, k, k).transpose(0, 2, 1)
    s = np.linalg.svd(mats, compute_uv=False)
    X = mats[np.argmax(s[:, -1] / np.maximum(s[:, 0], np.finfo(float).tiny))]
    return X * (np.sqrt(k) / np.linalg.norm(X))


def _verified_intertwiner(M: np.ndarray, H: np.ndarray, tol: float) -> AntilinearOp:
    """AntilinearOp(M) if M is well conditioned and intertwines H within
    ``tol``; ConditioningError otherwise. A diagonal M costs no SVD."""
    # ‖M‖_F is the 2-norm of the singular values, which a diagonal M
    # carries as the moduli of its entries
    d = _diagonal(M)
    sigma = np.abs(d) if d is not None else np.linalg.svd(M, compute_uv=False)
    sigma_min = float(sigma.min() / np.linalg.norm(sigma))
    if not sigma_min >= 1e-8:
        raise ConditioningError(
            "no well-conditioned invertible intertwiner found "
            f"(best sigma_min = {sigma_min:.3e})"
        )
    op = AntilinearOp(M)
    check = commutes_with(op, H)
    # a NaN residual fails too
    if not check.residual <= tol:
        raise ConditioningError(
            f"intertwiner residual {check.residual:.3e} exceeds tol {tol:.1e}"
        )
    return op


def build_c_operator(system: BiorthogonalSystem, pt: AntilinearOp) -> np.ndarray:
    """Spectral C operator: C = Σ_n c_n |R_n><L_n|.

    An eigenvalue counts as real by the rule of ``classify_spectrum``.
    Real eigenvalues take c_n = sign of the (phase-invariant,
    bilinear) PT norm (PT·R_n)ᵀ·R_n. Members of a complex conjugate pair take c = +1 for
    Im E > 0 and c = −1 for the partner: that is the unique
    Hamiltonian-commuting involution on the pair sector beyond ±identity,
    and it reproduces the broken-phase non-commutation of C with PT. With
    biorthonormal vectors C is an involution commuting with H in both
    regimes, so |C² − 1| and |[C, H]| (relative) must stay below
    C_OPERATOR_TOL (ConditioningError otherwise). A defective system, as
    ``eigendecompose`` decides it, raises DefectiveSystemError.
    """
    if not system.is_diagonalizable:
        raise DefectiveSystemError(
            "C operator construction requires a diagonalizable system; "
            f"defective indices {system.defective_indices}"
        )
    evals, R = system.eigenvalues, system.right_vectors
    n = len(evals)
    scale = max(np.max(np.abs(evals)), 1.0)

    signs = np.where(evals.imag > 0, 1.0, -1.0)
    real = np.flatnonzero(np.abs(evals.imag) < _relative_radius(evals))
    R_real = R[:, real]
    # bilinear: invariant under r -> e^{ia} r
    pt_norms = np.sum(pt(R_real) * R_real, axis=0)
    vanishing = np.abs(pt_norms) < PT_NORM_FLOOR * np.vecdot(R_real, R_real, axis=0).real
    if vanishing.any():
        raise SignAmbiguityError(
            f"PT norm of eigenvalue {evals[real[vanishing.argmax()]]:.6g} "
            "vanishes within tolerance"
        )
    signs[real] = np.sign(pt_norms.real)

    C = (R * signs) @ system.left_vectors.conj().T

    c_scale = max(np.linalg.norm(C), 1.0)
    involution = np.linalg.norm(C @ C - np.eye(n)) / c_scale
    H = system.matrix
    commutation = np.linalg.norm(C @ H - H @ C) / (c_scale * scale)
    if max(involution, commutation) > C_OPERATOR_TOL:
        raise ConditioningError(
            f"C operator verification failed: |C^2-1|={involution:.3e}, "
            f"|[C,H]|={commutation:.3e} exceed tol {C_OPERATOR_TOL:.1e}"
        )
    return C
