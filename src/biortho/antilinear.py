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
    SizeBudgetError,
)
from .spectral import (
    BiorthogonalSystem,
    _blocks,
    _relative_radius,
    classify_spectrum,
    eigendecompose,
)

SYMMETRY_TOL = 1e-10
PT_NORM_FLOOR = 1e-10
# build_c_operator's gate on |C² − 1| and |[C, H]|, in every regime
C_OPERATOR_TOL = 1e-8
# singular values below NULLSPACE_RTOL·σ_max span the intertwiner nullspace
NULLSPACE_RTOL = 1e-9
# seeded random nullspace combinations tried after the deterministic scan
N_RANDOM_CANDIDATES = 64
# largest n²×n² intertwiner operator the nullspace fallback may build, in
# bytes (its SVD factors take twice as much again): n = 63 fits, n = 64
# does not
NULLSPACE_MAX_BYTES = 256e6


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
    d = np.diagonal(M)
    # after its first entry, M's n² − 1 entries fold into n − 1 rows of
    # n + 1, each ending on a diagonal entry: the rest are off the diagonal
    diagonal = not M.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n].any()
    if diagonal:
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
    if diagonal:
        nonzero = np.flatnonzero(H)
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


def _nullspace(A: np.ndarray):
    """Right nullspace basis of A via SVD (rows of Vh below the cutoff)."""
    _, s, vh = np.linalg.svd(A)
    cutoff = NULLSPACE_RTOL * (s[0] if len(s) and s[0] > 0 else 1.0)
    rank = int(np.sum(s > cutoff))
    return vh[rank:].conj().T


def find_antilinear_symmetry(H, tol: float = 1e-8) -> AntilinearOp:
    """Construct an antilinear symmetry A = M∘K of H, if one exists.

    Requires the spectrum to be closed under conjugation by the rule of
    ``classify_spectrum`` at ``tol``, relative to max(1, max|E|) (otherwise
    NoAntilinearSymmetryError). If H is entrywise real (every
    imaginary part exactly 0, see ``is_real``) plain conjugation K is
    returned directly. Otherwise M is written down from the
    biorthogonal eigensystem H = R·E·L† (Bender & Mannheim, Phys. Lett. A
    374, 1616 (2010)): M = R[:, π]·diag(c)·Lᵀ, where π swaps the two members
    of each conjugate pair and fixes real eigenvalues, so M·conj(R_i) =
    c_i·R_π(i) and M·conj(H) = H·M for every nonzero c. The phases c_i are
    those of the leading eigenvector of W = G ∘ G[π][:, π] with G = R†R:
    if H has an antiunitary symmetry and a simple spectrum they make M
    unitary (c = 1 can leave M nearly singular). Groups of eigenvectors
    orthogonal to all the others (block-diagonal H, or H with a unitary
    symmetry) leave W reducible; each connected block of W takes the phases
    of its own leading eigenvector. This costs O(n³).

    Either route must pass two gates: σ_min(M/‖M‖_F) ≥ 1e-8 and
    ``commutes_with`` residual ≤ ``tol``. When the eigensystem is defective
    (a Jordan block, in any basis) or fails its residual check, or the
    spectral M fails a gate (for example eigenvectors too non-normal to
    reach ``tol``), M is instead picked from the nullspace of
    X -> H·X − X·conj(H), an O(n⁶) SVD, by a deterministic scan that
    maximizes the smallest singular value, plus ``N_RANDOM_CANDIDATES``
    seeded random combinations. ConditioningError if that fails too;
    SizeBudgetError if the fallback's operator would exceed
    NULLSPACE_MAX_BYTES (from n = 64 on).
    """
    H = np.asarray(H, dtype=complex)
    n = H.shape[0]

    if is_real(H).is_real:
        return identity_op(n)

    try:
        system = eigendecompose(H)
        evals = system.eigenvalues
    except ConvergenceError as exc:
        if exc.partial is None:
            raise
        system, evals = None, exc.partial[0]
    buckets = classify_spectrum(evals, tol)
    if buckets.leftovers:
        raise NoAntilinearSymmetryError(
            "spectrum is not closed under complex conjugation: "
            f"unpaired eigenvalues {buckets.leftovers}"
        )

    if system is not None and system.is_diagonalizable:
        try:
            return _verified_intertwiner(
                _spectral_intertwiner(system, buckets.pair_indices), H, tol)
        except ConditioningError:
            pass
    return _verified_intertwiner(
        _nullspace_intertwiner(H), H, tol)


def _spectral_intertwiner(system: BiorthogonalSystem, pair_indices) -> np.ndarray:
    """M = R[:, π]·diag(c)·Lᵀ for a diagonalizable system (see
    ``find_antilinear_symmetry``)."""
    R, L = system.right_vectors, system.left_vectors
    n = system.dimension
    perm = np.arange(n)
    for a, b in pair_indices:
        perm[a], perm[b] = b, a
    G = R.conj().T @ R
    W = G * G[np.ix_(perm, perm)]
    # |W_ij| below eps·sqrt(W_ii·W_jj), i.e. |G| below √eps, is rounding
    # noise and ties no phases together: mutually orthogonal groups of
    # eigenvectors take their phases from separate leading eigenvectors
    scale = np.sqrt(np.abs(np.diagonal(W)))
    linked = np.abs(W) > np.finfo(float).eps * np.outer(scale, scale)
    c = np.empty(n, dtype=complex)
    for idx in _blocks(linked):
        lead = np.linalg.eigh(W[np.ix_(idx, idx)])[1][:, -1]
        c[idx] = np.exp(1j * np.angle(lead))
    return (R[:, perm] * c) @ L.T


def _nullspace_intertwiner(H: np.ndarray) -> np.ndarray:
    """Best-conditioned element of the nullspace of X -> H·X − X·conj(H),
    normalized to ‖M‖_F = 1. SizeBudgetError, before any allocation, when
    the n²×n² operator would exceed NULLSPACE_MAX_BYTES."""
    n = H.shape[0]
    nbytes = n**4 * np.dtype(complex).itemsize
    if nbytes > NULLSPACE_MAX_BYTES:
        raise SizeBudgetError(
            f"intertwiner nullspace operator for n = {n} needs {nbytes / 1e6:.0f} MB, "
            f"over the {NULLSPACE_MAX_BYTES / 1e6:.0f} MB budget"
        )
    # vec (column-major): vec(H X) = (I ⊗ H) vec(X), vec(X B) = (Bᵀ ⊗ I) vec(X)
    eye = np.eye(n, dtype=complex)
    A = np.kron(eye, H) - np.kron(np.conj(H).T, eye)
    basis = _nullspace(A)
    if basis.shape[1] == 0:
        raise NoAntilinearSymmetryError(
            "intertwiner equation M·conj(H) = H·M has no nonzero solution"
        )
    mats = [basis[:, k].reshape(n, n, order="F") for k in range(basis.shape[1])]

    candidates = [sum(mats)]
    candidates.extend(mats)
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            candidates.append(mats[a] + mats[b])
            candidates.append(mats[a] - mats[b])
    rng = np.random.default_rng(0)
    for _ in range(N_RANDOM_CANDIDATES):
        coeff = rng.standard_normal(len(mats)) + 1j * rng.standard_normal(len(mats))
        candidates.append(sum(c * m for c, m in zip(coeff, mats)))

    # the basis columns are orthonormal, so no candidate is zero
    best, best_sigma_min = None, -1.0
    for cand in candidates:
        cand = cand / np.linalg.norm(cand)
        sigma_min = float(np.linalg.svd(cand, compute_uv=False)[-1])
        if sigma_min > best_sigma_min:
            best, best_sigma_min = cand, sigma_min
    return best


def _verified_intertwiner(M: np.ndarray, H: np.ndarray, tol: float) -> AntilinearOp:
    """AntilinearOp(M) if M is well conditioned and intertwines H within
    ``tol``; ConditioningError otherwise."""
    sigma_min = float(np.linalg.svd(M / np.linalg.norm(M), compute_uv=False)[-1])
    if sigma_min < 1e-8:
        raise ConditioningError(
            "no well-conditioned invertible intertwiner found "
            f"(best sigma_min = {sigma_min:.3e})"
        )
    op = AntilinearOp(M)
    check = commutes_with(op, H)
    if check.residual > tol:
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
    evals = system.eigenvalues
    n = len(evals)
    scale = max(np.max(np.abs(evals)), 1.0)

    signs = np.zeros(n)
    real_mask = np.abs(evals.imag) < _relative_radius(evals)
    for i in np.nonzero(real_mask)[0]:
        r = system.right_vectors[:, i]
        pt_norm = pt(r).T @ r        # bilinear: invariant under r -> e^{ia} r
        if abs(pt_norm) < PT_NORM_FLOOR * np.vdot(r, r).real:
            raise SignAmbiguityError(
                f"PT norm of eigenvalue {evals[i]:.6g} vanishes within tolerance"
            )
        signs[i] = np.sign(pt_norm.real)

    for i in np.nonzero(~real_mask)[0]:
        signs[i] = 1.0 if evals[i].imag > 0 else -1.0

    C = (system.right_vectors * signs) @ system.left_vectors.conj().T

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
