"""Model Hamiltonians: cubic oscillator, Pais-Uhlenbeck two-oscillator,
gain/loss dimer, harmonic baseline, and the finite-difference grid oracle.

The Pais-Uhlenbeck Hamiltonian is

    H = p_x²/(2γ) + p_z·x + γ(ω₁² + ω₂²)·x²/2 − γω₁²ω₂²·z²/2,

whose level formula E(n₁,n₂) = (n₁+1/2)ω₁ + (n₂+1/2)ω₂ covers three
regimes: ω real and distinct (all levels real), ω₁ = ω₂ (Jordan block),
and ω = α ± iβ (conjugate pairs).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .antilinear import AntilinearOp
from .errors import BoundaryResolutionError, InvalidCutoffError
from .fock import Realization, ladder, parity, position_momentum

COEFF_REALITY_TOL = 1e-12


def harmonic_hamiltonian(n: int,
                         realization: Realization = Realization.POSITION_REAL) -> np.ndarray:
    """p²/2 + x²/2 at cutoff ``n`` (spectrum k + 1/2 away from the corner)."""
    x, p = position_momentum(n, realization)
    return (p @ p + x @ x) / 2.0


def cubic_hamiltonian(n: int,
                      realization: Realization = Realization.POSITION_REAL) -> np.ndarray:
    """p² + i·x³ at cutoff ``n``.

    Entrywise real in the POSITION_IMAGINARY realization; in POSITION_REAL
    it commutes with parity∘conjugation instead.
    """
    if n < 4:
        raise InvalidCutoffError(f"cubic Hamiltonian needs cutoff >= 4, got {n}")
    x, p = position_momentum(n, realization)
    return p @ p + 1j * (x @ x @ x)


def pt_operator(n: int, realization: Realization) -> AntilinearOp:
    """Antilinear PT for one mode with the standard assignment
    x → −x, p → p, i → −i: parity∘K in POSITION_REAL, plain K in
    POSITION_IMAGINARY (conjugation already flips the imaginary x)."""
    if realization is Realization.POSITION_REAL:
        return AntilinearOp(parity(n))
    return AntilinearOp(np.eye(n, dtype=complex))


def grid_eigenvalues(potential, grid_points: int, box_half_width: float,
                     kinetic_coefficient: float = 1.0, n_eigenvalues: int = 6,
                     shift: complex = 2.0) -> np.ndarray:
    """Low-lying eigenvalues of kinetic_coefficient·p² + V(x) on a box.

    Central finite differences with Dirichlet walls at ±box_half_width;
    shift-inverted Arnoldi with a deterministic start vector digs out the
    eigenvalues nearest ``shift``. Returned sorted by real part.
    """
    # imported here, at its only use, so that processes that never call the
    # oracle do not pay for it (about 2 MB of RSS and 30 ms with scipy 1.17)
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    if grid_points < 500:
        raise ValueError(f"grid_points must be >= 500, got {grid_points}")
    xs = np.linspace(-box_half_width, box_half_width, grid_points)
    dx = xs[1] - xs[0]
    v = np.asarray(potential(xs), dtype=complex)
    main = 2.0 * kinetic_coefficient / dx**2 + v
    off = np.full(grid_points - 1, -kinetic_coefficient / dx**2, dtype=complex)
    H = sp.diags([off, main, off], offsets=[-1, 0, 1], format="csc")
    v0 = np.ones(grid_points) / np.sqrt(grid_points)
    k = min(n_eigenvalues, grid_points - 2)
    evals = spla.eigs(H, k=k, sigma=shift, v0=v0, return_eigenvectors=False)
    return evals[np.argsort(evals.real)]


@dataclass
class CubicOracleResult:
    eigenvalues: np.ndarray
    boundary_shift: float            # ground-state move under box doubling


def cubic_oracle(grid_points: int = 2000, box_half_width: float = 8.0,
                 n_eigenvalues: int = 6, boundary_tol: float = 1e-4,
                 check_boundary: bool = True) -> CubicOracleResult:
    """Independent grid diagonalization of p² + i·x³ on the real line.

    Verifies boundary insensitivity by doubling the box at fixed spacing;
    raises BoundaryResolutionError if the ground state moves more than
    ``boundary_tol``.
    """
    cubic = lambda xs: 1j * xs**3
    evals = grid_eigenvalues(cubic, grid_points, box_half_width,
                             n_eigenvalues=n_eigenvalues)
    boundary_shift = 0.0
    if check_boundary:
        doubled = grid_eigenvalues(cubic, 2 * grid_points, 2 * box_half_width,
                                   n_eigenvalues=n_eigenvalues)
        boundary_shift = float(abs(evals[0] - doubled[0]))
        if boundary_shift > boundary_tol:
            raise BoundaryResolutionError(
                f"ground state moved {boundary_shift:.3e} under box doubling; "
                "enlarge box_half_width or refine the grid"
            )
    return CubicOracleResult(eigenvalues=evals, boundary_shift=boundary_shift)


@dataclass(frozen=True)
class PUParams:
    """Stiffness γ and the two oscillator frequencies.

    Frequencies may be real, equal, or a conjugate pair; in all three
    cases the Hamiltonian coefficients γ(ω₁²+ω₂²)/2 and γω₁²ω₂²/2 are
    real, which is checked at construction.
    """

    gamma: float
    omega1: complex
    omega2: complex

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        for name in ("sum_sq", "prod_sq"):
            value = getattr(self, name)
            if abs(value.imag) > COEFF_REALITY_TOL * max(1.0, abs(value)):
                raise ValueError(
                    "frequency pair must keep the Hamiltonian coefficients real "
                    f"({name} = {value:.6g}); use real or conjugate frequencies"
                )

    @classmethod
    def from_alpha_beta(cls, gamma: float, alpha: float, beta: float) -> "PUParams":
        """Conjugate-pair regime ω = α ± iβ (β = 0 reduces to equal real)."""
        return cls(gamma=gamma, omega1=alpha + 1j * beta, omega2=alpha - 1j * beta)

    @property
    def sum_sq(self) -> complex:
        return self.omega1**2 + self.omega2**2

    @property
    def prod_sq(self) -> complex:
        return self.omega1**2 * self.omega2**2

    @property
    def regime(self) -> str:
        w1, w2 = self.omega1, self.omega2
        tol = 1e-12 * max(abs(w1), abs(w2), 1.0)
        if abs(w1 - w2) < tol:
            return "degenerate"
        if abs(w1.imag) < tol and abs(w2.imag) < tol:
            return "real"
        return "conjugate-pair"


# canonical symplectic form for the ordering (x, z, p_x, p_z)
SYMPLECTIC_FORM = np.block([
    [np.zeros((2, 2)), np.eye(2)],
    [-np.eye(2), np.zeros((2, 2))],
])


@dataclass(frozen=True)
class QuadraticModel:
    """H = ½ ξᵀSξ with ξ = (x, z, p_x, p_z) and dynamical matrix M = J·S."""

    dynamical_matrix: np.ndarray

    def eigenfrequencies(self) -> np.ndarray:
        """Normal-mode frequencies ω with M-eigenvalues ±iω (Im λ > 0 half)."""
        evals = np.linalg.eigvals(self.dynamical_matrix)
        upper = evals[evals.imag > 0]
        if len(upper) < 2:
            # degenerate Jordan case: fall back to pairing by magnitude
            upper = evals[np.argsort(-evals.imag)][:2]
        freqs = -1j * upper
        return freqs[np.lexsort((freqs.imag, freqs.real))]


def pu_dynamical_matrix(params: PUParams) -> QuadraticModel:
    """First-order form of Hamilton's equations for the PU oscillator:
    ẋ = p_x/γ, ż = x, ṗ_x = −p_z − γ(ω₁²+ω₂²)x, ṗ_z = γω₁²ω₂²z."""
    ssq = params.sum_sq.real
    psq = params.prod_sq.real
    g = params.gamma
    S = np.array([
        [g * ssq, 0.0, 0.0, 1.0],
        [0.0, -g * psq, 0.0, 0.0],
        [0.0, 0.0, 1.0 / g, 0.0],
        [1.0, 0.0, 0.0, 0.0],
    ])
    return QuadraticModel(dynamical_matrix=SYMPLECTIC_FORM @ S)


def pu_spectrum_formula(params: PUParams, n1_max: int, n2_max: int) -> np.ndarray:
    """Level grid E[n1, n2] = (n1+1/2)ω₁ + (n2+1/2)ω₂, shape
    (n1_max+1, n2_max+1). Warns in the equal-frequency regime where the
    formula degenerates (Jordan block)."""
    if params.regime == "degenerate":
        warnings.warn(
            "equal frequencies: level formula is degenerate (Jordan block)",
            stacklevel=2,
        )
    n1 = np.arange(n1_max + 1)[:, None] + 0.5
    n2 = np.arange(n2_max + 1)[None, :] + 0.5
    return n1 * params.omega1 + n2 * params.omega2


def _scaled_x_mode(n: int, scale: float, realization: Realization):
    """Position/momentum with a basis length scale: x = s·x̂, p = p̂/s."""
    x, p = position_momentum(n, realization)
    return scale * x, p / scale


def _scaled_z_mode(n: int, scale: float, realization: Realization):
    """z-mode operators for the PU assembly.

    POSITION_IMAGINARY selects the imaginary-z contour z = i·s·(b+b†)/√2,
    p_z = (b†−b)/(√2 s), which turns the −γω₁²ω₂²z²/2 well right side up
    (the ghost-curing device); POSITION_REAL keeps z real, reproducing the
    Hermitian operator that is unbounded below — kept for convergence
    comparisons only.
    """
    lo, hi = ladder(n)
    if realization is Realization.POSITION_IMAGINARY:
        z = 1j * scale * (lo + hi) / np.sqrt(2.0)
        pz = (hi - lo) / (np.sqrt(2.0) * scale)
    elif realization is Realization.POSITION_REAL:
        z = scale * (lo + hi) / np.sqrt(2.0)
        pz = 1j * (hi - lo) / (np.sqrt(2.0) * scale)
    else:
        raise ValueError(f"unknown realization {realization!r}")
    return z, pz


def pu_mode_scales(params: PUParams) -> tuple[float, float]:
    """Basis length scales adapted to the PU parameters.

    x-mode: harmonic natural length (γ²(ω₁²+ω₂²))^(−1/4); z-mode:
    1/|ω₁ω₂|. Unit scales leave slowly-sweeping truncation edge states
    inside the low-lying window; these choices push them out (convergence
    study in the test fixtures).
    """
    sx = (params.gamma**2 * params.sum_sq.real) ** -0.25
    sz = params.prod_sq.real ** -0.5
    return float(sx), float(sz)


def pu_hamiltonian_fock(n1: int, n2: int, params: PUParams,
                        realizations=(Realization.POSITION_REAL,
                                      Realization.POSITION_IMAGINARY)) -> np.ndarray:
    """Two-mode truncated matrix of the PU Hamiltonian, as a read-only ndarray.

    The x mode is the slow Kronecker index and the z mode the fast one (the
    ordering ``pu_pt_operator`` builds its ``np.kron(x_part, z_part)`` for).
    Each term is a product of per-mode polynomials taken at cutoff n1 or n2
    and Kronecker-multiplied last, e.g. p_z·x = x ⊗ p_z. With the default
    realizations the matrix is entrywise real and its low-lying eigenvalues
    converge to the level formula as the cutoffs grow. The basis length
    scales are ``pu_mode_scales(params)``.
    """
    if n1 < 8 or n2 < 8:
        raise InvalidCutoffError(f"PU cutoffs must be >= 8, got ({n1}, {n2})")
    sx, sz = pu_mode_scales(params)

    x, px = _scaled_x_mode(n1, sx, realizations[0])
    z, pz = _scaled_z_mode(n2, sz, realizations[1])

    g = params.gamma
    kinetic = px @ px / (2.0 * g)
    well = g * params.sum_sq.real / 2.0 * (x @ x)
    z_well = g * params.prod_sq.real / 2.0 * (z @ z)
    # the sum K ⊗ I + x ⊗ p_z + W ⊗ I − I ⊗ Z written into one array:
    # x ⊗ p_z first (H4[i1, i2, j1, j2] is H's entry (i1·n2 + i2, j1·n2 + j2)),
    # the x-mode terms added on the blocks diagonal in the z index and the
    # z-mode term subtracted on those diagonal in the x index, in the order
    # of the sum; the entries are those of the Kronecker sum, signed zeros
    # aside
    H = np.empty((n1 * n2, n1 * n2), dtype=complex)
    H4 = H.reshape(n1, n2, n1, n2)
    np.multiply(x[:, None, :, None], pz[None, :, None, :], out=H4)
    for r in range(n2):
        H4[:, r, :, r] += kinetic
        H4[:, r, :, r] += well
    for r in range(n1):
        H4[r, :, r, :] -= z_well
    H.setflags(write=False)
    return H


def pu_pt_operator(n1: int, n2: int) -> AntilinearOp:
    """Composite PT for the default ``pu_hamiltonian_fock`` assembly (real x,
    imaginary-z contour).

    Under PT the oscillator coordinate is odd (x → −x, p_x → p_x) while
    the z coordinate is even (z → z, p_z → −p_z). Conjugation alone flips
    the real x's momentum and the contour z itself, so each mode needs
    parity on top: PT = (P ⊗ P)∘K. P ⊗ P is diagonal, so only its diagonal
    is a Kronecker product.
    """
    return AntilinearOp(np.diag(np.kron(np.diagonal(parity(n1)), np.diagonal(parity(n2)))))


def dimer_hamiltonian(g: float, k: float) -> np.ndarray:
    """Gain/loss two-mode matrix [[i·g, k], [k, −i·g]].

    Eigenvalues ±√(k² − g²): real for k > g, defective at the exceptional
    point k = g, a conjugate pair for k < g.
    """
    if g < 0 or k < 0:
        raise ValueError(f"gain rate and coupling must be >= 0, got g={g}, k={k}")
    return np.array([[1j * g, k], [k, -1j * g]], dtype=complex)


def dimer_pt_operator() -> AntilinearOp:
    """Mode-swap PT of the dimer: σ_x ∘ K."""
    return AntilinearOp(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
