"""Time evolution, overlap traces, and Euclidean reality checks.

Right states evolve with ``propagator(H, t)`` = exp(−iHt); left states
pick up exp(iHt) on the right of the bra, so every paired overlap
<L_i|R_i> is constant in time. Overlap traces follow the closed-form phase
exp(i(E_j − E_i)t) and check the eigensystem behind it by stepping the
eigenvectors literally: the right vectors by exp(−iHΔt) and the left ones
by exp(−iH†Δt), two chains that share nothing and so run side by side
where ``spectral._concurrently`` allows. ``euclidean_reality`` keeps a
real H real. The range checks compute H's eigenvalues only where the
bound ||H||₁ on every growth rate leaves the exponent in doubt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DefectiveSystemError, PropagatorRangeError
from .spectral import BiorthogonalSystem, _concurrently, _relative_radius

# np.exp overflows just above 709; keep headroom
MAX_EXPONENT = 700.0
# relative allowance for the rounding of ||H||₁ and of computed eigenvalues
# (exact ones of H + δH, ||δH|| a few n·eps·||H||) when ||H||₁·|t| stands
# in for the largest growth rate times |t|
RANGE_MARGIN = 1e-8
# gate on OverlapTrace.method_agreement
AGREEMENT_GATE = 1e-9
# the roundoff of stepping R_k = exp(−iHΔt)·R_{k−1} grows with a mode's
# e^{gt}: 4e-12 to 4.4e-11 at gt = 0.5·ln(AGREEMENT_GATE/eps) ≈ 7.66, where
# the check stops (dimer, PU 8,8 pairs, cubic 12 and 16), near the gate by 12
LITERAL_EXPONENT_BOUND = 0.5 * float(np.log(AGREEMENT_GATE / np.finfo(float).eps))
# overlap entries below this (relative) level are roundoff seeds of exact
# zeros, which a growing closed-form phase would turn into fake drift
OVERLAP_NOISE_FLOOR = 1e-13
DEFAULT_N_TIMES = 101
# euclidean_reality: exp(−H·tau) counts as entrywise real when every
# |Im| stays below EUCLIDEAN_REALITY_TOL; its trace when |Im tr| stays
# below TRACE_REALITY_TOL
EUCLIDEAN_REALITY_TOL = 1e-10
TRACE_REALITY_TOL = 1e-9


def _check_range(H, t: float, what: str, growth) -> None:
    """PropagatorRangeError when growth(E)·|t| exceeds MAX_EXPONENT, E the
    eigenvalues of the square H and growth(E) <= max|E|. Every such growth
    is at most ρ(H) <= ||H||₁, so H's eigenvalues are computed only where
    ||H||₁·|t|, plus a margin for rounding, reaches MAX_EXPONENT."""
    if H.ndim == 2 and 0 < H.shape[0] == H.shape[1] and (
            np.linalg.norm(H, 1) * abs(t) * (1 + RANGE_MARGIN) < MAX_EXPONENT):
        return
    evals = np.linalg.eigvals(H)
    rate = float(growth(evals))
    if rate * abs(t) > MAX_EXPONENT:
        raise PropagatorRangeError(
            f"{what} at t={t:g} overflows (growth rate {rate:.3g}); "
            f"safe |t| <= {MAX_EXPONENT / rate:.6g}",
            safe_time=MAX_EXPONENT / rate,
        )


def propagator(H, t: float) -> np.ndarray:
    """Evolution operator exp(−iHt) by ``scipy.linalg.expm``, diagonalizable
    or not. PropagatorRangeError when max|Im E|·|t| exceeds MAX_EXPONENT;
    ValueError (numpy's LinAlgError) for a non-square or non-finite H."""
    H = np.asarray(H, dtype=complex)
    _check_range(H, t, "propagator", lambda E: np.max(np.abs(E.imag)))
    import scipy.linalg

    return scipy.linalg.expm(-1j * t * H)


def _closed_form(G0, E, times):
    """Nonzero entries (``np.nonzero`` order) of G0·exp(i(E_j − E_i)t) per time,
    the exponent's real part capped at MAX_EXPONENT so it never overflows."""
    rows, cols = np.nonzero(G0)
    seeds = G0[rows, cols]
    exponent = 1j * (E[rows] - E[cols])
    for t in times:
        expo = exponent * t
        yield seeds * np.exp(np.minimum(expo.real, MAX_EXPONENT) + 1j * expo.imag)


@dataclass
class OverlapTrace:
    """G[j, i](t) = <L_j(t)|R_i(t)> on a time grid, with drift statistics."""

    times: np.ndarray
    initial_overlaps: np.ndarray     # G(0), entries below the noise floor zeroed
    right_eigenvalues: np.ndarray    # E_i labels (columns)
    left_eigenvalues: np.ndarray     # E_j labels (rows)
    drift: np.ndarray                # max_t |G(t) - G(0)| per (j, i)
    method_agreement: float          # max |stepped - closed-form| eigenvectors
    literal_time_bound: float        # stepped evolution checked for |t| below this

    @property
    def max_drift(self) -> float:
        return float(np.max(self.drift))

    @property
    def overlaps(self) -> np.ndarray:
        """G(t) at every grid time, shape (n_times, n, n), built on each read."""
        G0 = self.initial_overlaps
        cube = np.zeros((len(self.times), *G0.shape), dtype=complex)
        for G, entries in zip(cube, _closed_form(G0, self.right_eigenvalues, self.times)):
            G[np.nonzero(G0)] = entries
        return cube


def overlap_trace(system: BiorthogonalSystem, t_max: float = 10.0,
                  n_times: int = DEFAULT_N_TIMES) -> OverlapTrace:
    """Track every left-right overlap over the uniform time grid
    linspace(0, t_max, n_times); ValueError for an empty grid.

    Drift is taken in closed form per nonzero entry of the noise-floored
    G(0); no array over the grid is stored. ``method_agreement`` is the
    largest gap between the stepped R_k = U·R_{k−1}, L_k = V·L_{k−1}
    (U = exp(−iHΔt), V = exp(−iH†Δt): two ``scipy.linalg.expm`` calls) and
    R·diag(e^{−iEt}), L·diag(e^{−i·conj(E)·t}) at the grid times |t| <=
    ``literal_time_bound``, 0 when only t = 0 is checked. The R chain and
    the L chain, each with its own exponential, may run concurrently; the
    maximum over both is the same either way.
    """
    if not system.is_diagonalizable:
        raise DefectiveSystemError(
            "overlap traces require a diagonalizable system; "
            f"defective indices {system.defective_indices}"
        )
    if n_times < 1:
        raise ValueError(f"overlap_trace needs at least one time, got n_times={n_times}")
    times = np.linspace(0.0, t_max, n_times)

    E = system.eigenvalues
    G0 = system.overlap_matrix()
    # zeroed, noise on exact zeros stays zero however fast its phase grows
    floor = OVERLAP_NOISE_FLOOR * float(np.max(np.abs(G0)))
    G0 = np.where(np.abs(G0) < floor, 0.0, G0)

    entries = _closed_form(G0, E, times)
    start = next(entries)
    peak = np.zeros(len(start))
    for values in entries:
        peak = np.maximum(peak, np.abs(values - start))
    drift = np.zeros(G0.shape)
    drift[np.nonzero(G0)] = peak

    rate = float(np.max(np.abs(E.imag)))
    literal_bound = np.inf if rate == 0.0 else LITERAL_EXPONENT_BOUND / rate
    # |t| grows along the grid, so the checked times are a prefix of it
    checked = times[1:int(np.count_nonzero(np.abs(times) <= literal_bound))]
    agreement = 0.0
    if len(checked):
        import scipy.linalg

        def chain(A, X, labels) -> float:
            """max over ``checked`` of |X_k − X·diag(e^{−i·labels·t})|
            for X_k = exp(−iAΔt)·X_{k−1}, X_0 = X."""
            step = scipy.linalg.expm(-1j * times[1] * A)
            X_t, gap = X, 0.0
            for t in checked:
                X_t = step @ X_t
                gap = max(gap, float(np.max(np.abs(X_t - X * np.exp(-1j * labels * t)))))
            return gap

        H = system.matrix
        # the R and the L chain share nothing, so they may run side by side
        agreement = max(_concurrently(
            [lambda: chain(H, system.right_vectors, E),
             lambda: chain(H.conj().T, system.left_vectors, np.conj(E))],
            [len(E), len(E)]))

    return OverlapTrace(times=times, initial_overlaps=G0, right_eigenvalues=E.copy(),
                        left_eigenvalues=system.left_eigenvalues, drift=drift,
                        method_agreement=agreement, literal_time_bound=float(literal_bound))


@dataclass
class SelectionRuleReport:
    violations: list                 # (j, i, E_j, E_i, |G[j, i]|)
    max_forbidden_overlap: float

    @property
    def ok(self) -> bool:
        return not self.violations


def selection_rule_check(system: BiorthogonalSystem, tol: float = 1e-8) -> SelectionRuleReport:
    """Check that overlaps vanish wherever they must.

    With E_j the H† label of row j, a nonzero <L_j|R_i> is allowed only
    when E_j = conj(E_i), i.e. when E_j and E_i pair by the conjugation
    rule of ``classify_spectrum``; all other entries are reported as
    violations when they exceed ``tol``.
    """
    if not system.is_diagonalizable:
        raise DefectiveSystemError(
            "selection rule check requires a diagonalizable system"
        )
    G = system.overlap_matrix()
    Ei = system.eigenvalues
    Ej = system.left_eigenvalues
    allowed = (np.abs(Ej[:, None] - np.conj(Ei)[None, :])
               < _relative_radius(Ei))
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
    _check_range(H, tau, "exp(−H·tau)", lambda E: np.max(-E.real, initial=-np.inf))
    import scipy.linalg

    K = scipy.linalg.expm(-tau * H)
    max_imag = float(np.max(np.abs(K.imag)))
    return EuclideanReality(
        is_real=max_imag < EUCLIDEAN_REALITY_TOL,
        max_imag=max_imag,
        trace_imag=float(abs(np.trace(K).imag)),
    )
