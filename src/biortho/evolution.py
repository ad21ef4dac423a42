"""Time evolution, overlap traces, and Euclidean reality checks.

Right states evolve with ``propagator(H, t)`` = exp(−iHt); left states
pick up exp(iHt) on the right of the bra, so every paired overlap
<L_i|R_i> is constant in time. Overlap traces run on the uniform grid
linspace(0, t_max, n_times) and are computed both literally (matrix
exponential products) and from the closed-form phase exp(i(E_j − E_i)t);
the two must agree on the numerically safe time range. For an entrywise-
real H (every imaginary part exactly 0, the one reality rule of the
package), complex conjugation K is itself an antilinear symmetry,
exp(−iHt) = K·exp(iHt)·K, so the backward factor of the literal product is
the entrywise conjugate of the forward one and costs no second
exponential; ``euclidean_reality`` keeps such an H in real arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DefectiveSystemError, PropagatorRangeError
from .spectral import BiorthogonalSystem, eigendecompose

# np.exp overflows just above 709; keep headroom
MAX_EXPONENT = 700.0
# the literal product exp(iHt)·exp(−iHt) cancels e^{+gt} against e^{-gt}
# only to a relative eps·e^{2gt}; past gt = 0.5·ln(1e-9/eps) ≈ 7.66 that
# noise would exceed the 1e-9 dual-method gate, so the closed form takes over
LITERAL_EXPONENT_BOUND = 0.5 * float(np.log(1e-9 / np.finfo(float).eps))
# overlap entries below this (relative) level are roundoff seeds of exact
# zeros; propagating them through a growing closed-form phase would
# manufacture fake drift
OVERLAP_NOISE_FLOOR = 1e-13
DEFAULT_N_TIMES = 101
# euclidean_reality: exp(−H·tau) counts as entrywise real when every
# |Im| stays below EUCLIDEAN_REALITY_TOL; its trace when |Im tr| stays
# below TRACE_REALITY_TOL
EUCLIDEAN_REALITY_TOL = 1e-10
TRACE_REALITY_TOL = 1e-9


def _check_range(rate: float, t: float, what: str):
    if rate * abs(t) > MAX_EXPONENT:
        raise PropagatorRangeError(
            f"{what} at t={t:g} overflows (growth rate {rate:.3g}); "
            f"safe |t| <= {MAX_EXPONENT / rate:.6g}",
            safe_time=MAX_EXPONENT / rate,
        )


def propagator(H, t: float) -> np.ndarray:
    """Evolution operator exp(−iHt).

    H is factorized once: a diagonalizable H gets the biorthonormal
    spectral sum, a defective one ``scipy.linalg.expm``.
    """
    H = np.asarray(H, dtype=complex)
    system = eigendecompose(H)
    _check_range(float(np.max(np.abs(system.eigenvalues.imag))), t, "propagator")
    if not system.is_diagonalizable:
        return scipy.linalg.expm(-1j * t * H)

    phases = np.exp(-1j * system.eigenvalues * t)
    return (system.right_vectors * phases) @ system.left_vectors.conj().T


@dataclass
class OverlapTrace:
    """G[j, i](t) = <L_j(t)|R_i(t)> on a time grid, with drift statistics."""

    times: np.ndarray
    overlaps: np.ndarray             # shape (n_times, n, n)
    right_eigenvalues: np.ndarray    # E_i labels (columns)
    left_eigenvalues: np.ndarray     # E_j labels (rows)
    drift: np.ndarray                # max_t |G(t) - G(0)| per (j, i)
    method_agreement: float          # max |literal - closed form| on safe range
    literal_time_bound: float        # literal products used for |t| below this

    @property
    def max_drift(self) -> float:
        return float(np.max(self.drift))


def overlap_trace(system: BiorthogonalSystem, t_max: float = 10.0,
                  n_times: int = DEFAULT_N_TIMES) -> OverlapTrace:
    """Track every left-right overlap over the uniform time grid
    linspace(0, t_max, n_times); ValueError for an empty grid.

    Each entry is computed two ways: from the closed-form phase
    G(0)·exp(i(E_j − E_i)t), which is what gets recorded (it never
    overflows), and literally as <L_j(0)|exp(iHt)·exp(−iHt)|R_i(0)> with
    ``scipy.linalg.expm`` for the times where that product's cancellation
    noise eps·e^{2gt} stays below the 1e-9 agreement gate. For entrywise-real
    H the backward factor exp(−iHt) is taken as conj(exp(iHt)), since
    exp(−iHt) = K·exp(iHt)·K; complex H gets a second ``expm``.
    """
    if not system.is_diagonalizable:
        raise DefectiveSystemError(
            "overlap traces require a diagonalizable system; "
            f"defective indices {system.defective_indices}"
        )
    if n_times < 1:
        raise ValueError(f"overlap_trace needs at least one time, got n_times={n_times}")
    times = np.linspace(0.0, t_max, n_times)

    H = system.matrix
    L = system.left_vectors
    R = system.right_vectors
    G0 = system.overlap_matrix()
    # entries this far below the paired overlaps are noise on exact zeros
    floor = OVERLAP_NOISE_FLOOR * float(np.max(np.abs(G0)))
    G0 = np.where(np.abs(G0) < floor, 0.0, G0)

    # exp(−iHt) = K·exp(iHt)·K for entrywise-real H: one expm per step
    real_H = not np.any(H.imag)
    rate = float(np.max(np.abs(system.eigenvalues.imag)))
    literal_bound = np.inf if rate == 0.0 else LITERAL_EXPONENT_BOUND / rate

    # closed form: phase[j, i](t) = exp(i(E_j - E_i) t); zero seeds stay
    # zero regardless of the phase's growth, and surviving growing entries
    # are capped at the overflow bound instead of turning inf
    E = system.eigenvalues
    exponent = 1j * (E[:, None] - E[None, :])
    exponent = np.where(G0 == 0.0, 0.0, exponent)
    overlaps = np.empty((len(times), *G0.shape), dtype=complex)
    drift = np.zeros(G0.shape)
    agreement = 0.0
    for k, t in enumerate(times):
        expo = exponent * t
        expo = np.minimum(expo.real, MAX_EXPONENT) + 1j * expo.imag
        overlaps[k] = G0 * np.exp(expo)
        drift = np.maximum(drift, np.abs(overlaps[k] - overlaps[0]))
        if abs(t) <= literal_bound:
            forward = scipy.linalg.expm(1j * t * H)
            backward = (forward.conj() if real_H
                        else scipy.linalg.expm(-1j * t * H))
            literal = L.conj().T @ forward @ backward @ R
            agreement = max(agreement, float(np.max(np.abs(literal - overlaps[k]))))

    return OverlapTrace(
        times=times,
        overlaps=overlaps,
        right_eigenvalues=system.eigenvalues.copy(),
        left_eigenvalues=system.left_eigenvalues.copy(),
        drift=drift,
        method_agreement=agreement,
        literal_time_bound=float(literal_bound),
    )


@dataclass
class SelectionRuleReport:
    violations: list                 # (j, i, E_j, E_i, |G[j, i]|)
    max_forbidden_overlap: float

    @property
    def ok(self) -> bool:
        return not self.violations


def selection_rule_check(system: BiorthogonalSystem, tol: float = 1e-8,
                         tol_cluster: float = 1e-8) -> SelectionRuleReport:
    """Check that overlaps vanish wherever they must.

    With E_j the H† label of row j, a nonzero <L_j|R_i> is allowed only
    when Re E_i = Re E_j and Im E_i = −Im E_j (within the clustering
    tolerance); all other entries are reported as violations when they
    exceed ``tol``.
    """
    if not system.is_diagonalizable:
        raise DefectiveSystemError(
            "selection rule check requires a diagonalizable system"
        )
    G = system.overlap_matrix()
    Ei = system.eigenvalues
    Ej = system.left_eigenvalues
    scale = max(float(np.max(np.abs(Ei))), 1.0)

    allowed = (
        (np.abs(Ej.real[:, None] - Ei.real[None, :]) < tol_cluster * scale)
        & (np.abs(Ej.imag[:, None] + Ei.imag[None, :]) < tol_cluster * scale)
    )
    forbidden_mag = np.where(allowed, 0.0, np.abs(G))
    violations = [
        (int(j), int(i), complex(Ej[j]), complex(Ei[i]), float(forbidden_mag[j, i]))
        for j, i in zip(*np.nonzero(forbidden_mag > tol))
    ]
    return SelectionRuleReport(
        violations=violations,
        max_forbidden_overlap=float(forbidden_mag.max()) if forbidden_mag.size else 0.0,
    )


@dataclass
class EuclideanReality:
    is_real: bool
    max_imag: float
    trace_imag: float

    def trace_is_real(self) -> bool:
        return abs(self.trace_imag) < TRACE_REALITY_TOL


def euclidean_reality(H, tau: float) -> EuclideanReality:
    """Entrywise and trace reality of the Euclidean propagator exp(−H·tau).

    Entrywise reality holds whenever H itself is real (such an H is kept
    in real arithmetic, so ``max_imag`` is exactly 0); for a Hamiltonian
    with conjugate-paired spectrum only the trace need be real, so both
    are reported. ``is_real`` means every |Im| of exp(−H·tau) is below
    EUCLIDEAN_REALITY_TOL; PropagatorRangeError if it would overflow.
    """
    H = np.asarray(H, dtype=complex)
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if not np.any(H.imag):
        H = H.real
    evals = np.linalg.eigvals(H)
    decay = float(np.max(-evals.real)) if evals.size else 0.0
    _check_range(decay, tau, "exp(−H·tau)")
    K = scipy.linalg.expm(-tau * H)
    max_imag = float(np.max(np.abs(K.imag)))
    return EuclideanReality(
        is_real=max_imag < EUCLIDEAN_REALITY_TOL,
        max_imag=max_imag,
        trace_imag=float(abs(np.trace(K).imag)),
    )
