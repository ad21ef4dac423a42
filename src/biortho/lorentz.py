"""Exact 4×4 gamma-matrix algebra: complex boosts, the charge-conjugation
matrix, and the spinor linear part of the coordinate inversion.

Signature is (+,−,−,−). The Majorana basis used here is the standard
all-imaginary set

    γ⁰ = [[0, σ₂], [σ₂, 0]],      γ¹ = [[iσ₃, 0], [0, iσ₃]],
    γ² = [[0, −σ₂], [σ₂, 0]],     γ³ = [[−iσ₁, 0], [0, −iσ₁]],

related to the Dirac basis by the involutive unitary
U = (1/√2)[[1, σ₂], [σ₂, −1]].
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConstraintSolveError

SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])
# singular values at or below CONSTRAINT_RTOL·σ_max span the
# charge-conjugation solution space
CONSTRAINT_RTOL = 1e-10


class BasisName(Enum):
    MAJORANA = "majorana"
    DIRAC = "dirac"


@dataclass(frozen=True)
class GammaBasis:
    gammas: tuple          # (γ⁰, γ¹, γ², γ³)
    metric: np.ndarray
    name: BasisName

    def gamma5(self) -> np.ndarray:
        g0, g1, g2, g3 = self.gammas
        return 1j * g0 @ g1 @ g2 @ g3

    def anticommutator_residual(self) -> float:
        """max_{μν} ||{γ^μ, γ^ν} − 2η^{μν}·1||."""
        worst = 0.0
        for mu in range(4):
            for nu in range(4):
                anti = (self.gammas[mu] @ self.gammas[nu]
                        + self.gammas[nu] @ self.gammas[mu])
                target = 2.0 * self.metric[mu, nu] * np.eye(4)
                worst = max(worst, float(np.max(np.abs(anti - target))))
        return worst


def _block(a, b, c, d):
    return np.block([[a, b], [c, d]])


_Z2 = np.zeros((2, 2), dtype=complex)


def majorana_basis() -> GammaBasis:
    gammas = (
        _block(_Z2, SIGMA_2, SIGMA_2, _Z2),
        _block(1j * SIGMA_3, _Z2, _Z2, 1j * SIGMA_3),
        _block(_Z2, -SIGMA_2, SIGMA_2, _Z2),
        _block(-1j * SIGMA_1, _Z2, _Z2, -1j * SIGMA_1),
    )
    return GammaBasis(gammas=gammas, metric=METRIC.copy(), name=BasisName.MAJORANA)


def dirac_basis() -> GammaBasis:
    eye2 = np.eye(2, dtype=complex)
    gammas = (
        _block(eye2, _Z2, _Z2, -eye2),
        _block(_Z2, SIGMA_1, -SIGMA_1, _Z2),
        _block(_Z2, SIGMA_2, -SIGMA_2, _Z2),
        _block(_Z2, SIGMA_3, -SIGMA_3, _Z2),
    )
    return GammaBasis(gammas=gammas, metric=METRIC.copy(), name=BasisName.DIRAC)


def majorana_from_dirac_unitary() -> np.ndarray:
    """U with γ_Majorana = U·γ_Dirac·U†; U = U† = U⁻¹."""
    eye2 = np.eye(2, dtype=complex)
    return _block(eye2, SIGMA_2, SIGMA_2, -eye2) / np.sqrt(2.0)


def boost_generator(basis: GammaBasis, i: int) -> np.ndarray:
    """Boost generator M^{0i} = i[γ⁰, γ^i]/4 for i in {1, 2, 3}."""
    if i not in (1, 2, 3):
        raise ValueError(f"spatial index must be 1, 2 or 3, got {i}")
    g0, gi = basis.gammas[0], basis.gammas[i]
    return 1j * (g0 @ gi - gi @ g0) / 4.0


def complex_boost_spinor(basis: GammaBasis, i: int, xi: complex) -> np.ndarray:
    """Spinor boost exp(−ξ·γ⁰γ^i/2).

    Since (γ⁰γ^i)² = 1 this is cosh(ξ/2) − γ⁰γ^i·sinh(ξ/2); the ξ = iπ
    point is taken exactly, giving −iγ⁰γ^i.
    """
    if i not in (1, 2, 3):
        raise ValueError(f"spatial index must be 1, 2 or 3, got {i}")
    G = basis.gammas[0] @ basis.gammas[i]
    if _is_i_pi(xi):
        return -1j * G
    half = complex(xi) / 2.0
    return np.cosh(half) * np.eye(4, dtype=complex) - np.sinh(half) * G


def _is_i_pi(xi: complex) -> bool:
    xi = complex(xi)
    return xi.real == 0.0 and abs(xi.imag - np.pi) < 4 * np.finfo(float).eps


def vector_boost(i: int, xi: complex) -> np.ndarray:
    """Coordinate boost mixing t and x^i, ordering (t, x, y, z).

    cosh ξ on the (t, t) and (i, i) entries, sinh ξ on the mixing pair;
    ξ = iπ is taken exactly: cosh(iπ) = −1, sinh(iπ) = 0.
    """
    if i not in (1, 2, 3):
        raise ValueError(f"spatial index must be 1, 2 or 3, got {i}")
    if _is_i_pi(xi):
        ch, sh = -1.0 + 0.0j, 0.0 + 0.0j
    else:
        ch, sh = np.cosh(complex(xi)), np.sinh(complex(xi))
    boost = np.eye(4, dtype=complex)
    boost[0, 0] = ch
    boost[i, i] = ch
    boost[0, i] = sh
    boost[i, 0] = sh
    return boost


def coordinate_inversion() -> np.ndarray:
    """Product of the three ξ = iπ coordinate boosts: x^μ → −x^μ."""
    out = np.eye(4, dtype=complex)
    for i in (3, 2, 1):
        out = out @ vector_boost(i, 1j * np.pi)
    return out


def charge_conjugation_matrix(basis: GammaBasis):
    """Solve C⁻¹γ^μC = −(γ^μ)ᵀ for all μ.

    The constraint is the 64-equation linear system γ^μC + C(γ^μ)ᵀ = 0
    over vec(C); its nullspace is one-dimensional for a valid basis. The
    returned matrix has largest entry of modulus one and its first nonzero
    entry phase-rotated to the positive real axis.

    Returns (C, nullspace_dimension).
    """
    eye4 = np.eye(4, dtype=complex)
    rows = [np.kron(eye4, g) + np.kron(g, eye4) for g in basis.gammas]
    A = np.vstack(rows)
    # the null vector is the last row of vh; the 64×64 U is never needed
    _, s, vh = np.linalg.svd(A, full_matrices=False)
    cutoff = CONSTRAINT_RTOL * s[0]
    null_dim = int(np.sum(s <= cutoff))
    if null_dim == 0:
        raise ConstraintSolveError(
            "charge-conjugation constraint has no solution; basis is broken"
        )
    C = vh[-1].conj().reshape(4, 4, order="F")

    C = C / np.max(np.abs(C))
    flat = C.ravel()
    first = flat[np.nonzero(np.abs(flat) > 1e-12)[0][0]]
    C = C * (np.conj(first) / abs(first))
    return C, null_dim


def charge_conjugation_residual(basis: GammaBasis, C: np.ndarray) -> float:
    """max_μ ||C⁻¹γ^μC + (γ^μ)ᵀ||."""
    Cinv = np.linalg.inv(C)
    return max(
        float(np.max(np.abs(Cinv @ g @ C + g.T))) for g in basis.gammas
    )


@dataclass(frozen=True)
class CPTLinearPart:
    residual: float          # ||Λ³(iπ)Λ²(iπ)Λ¹(iπ) − γ⁵||
    phase: complex           # the −i prefactor of the full spinor action
    gamma5_involution_residual: float


def cpt_linear_part_check(basis: GammaBasis) -> CPTLinearPart:
    """Verify the three-boost spinor product equals γ⁵.

    The coordinate-inversion action on spinors carries an extra −i phase
    on top of γ⁵, which is reported, not absorbed.
    """
    product = np.eye(4, dtype=complex)
    for i in (3, 2, 1):
        product = product @ complex_boost_spinor(basis, i, 1j * np.pi)
    g5 = basis.gamma5()
    return CPTLinearPart(
        residual=float(np.max(np.abs(product - g5))),
        phase=-1j,
        gamma5_involution_residual=float(np.max(np.abs(g5 @ g5 - np.eye(4)))),
    )
