from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from biortho.errors import DefectiveSystemError, PropagatorRangeError
from biortho.evolution import (
    AGREEMENT_GATE,
    MAX_EXPONENT,
    OVERLAP_NOISE_FLOOR,
    euclidean_reality,
    overlap_trace,
    propagator,
    selection_rule_check,
)
from biortho.fock import Realization
from biortho.models import (
    PUParams,
    cubic_hamiltonian,
    dimer_hamiltonian,
    harmonic_hamiltonian,
    pu_hamiltonian_fock,
)
from biortho.spectral import classify_spectrum, eigendecompose


def test_propagator_diagonal_at_pi():
    P = propagator(np.diag([1.0, 2.0]), np.pi)
    assert np.allclose(P, np.diag([-1.0, 1.0]), atol=1e-12)


def test_propagator_nilpotent_series_terminates():
    H = dimer_hamiltonian(1.0, 1.0)          # H² = 0
    P = propagator(H, 1.0)
    assert np.allclose(P, np.eye(2) - 1j * H, atol=1e-15)


def test_propagator_dual_method_agreement():
    H = dimer_hamiltonian(1.0, 0.5)
    system = eigendecompose(H)
    for t in (0.3, 2.0, 7.5):
        # reference: the biorthonormal spectral sum R·diag(e^{−iEt})·L†
        spectral = ((system.right_vectors * np.exp(-1j * system.eigenvalues * t))
                    @ system.left_vectors.conj().T)
        assert np.max(np.abs(propagator(H, t) - spectral)) < 1e-9


def test_propagator_exponent_law():
    rng = np.random.default_rng(12)
    H = rng.standard_normal((6, 6)) + 1j * 0.1 * rng.standard_normal((6, 6))
    for t1, t2 in [(0.5, 0.7), (1.0, -0.4), (2.0, 3.0)]:
        lhs = propagator(H, t1) @ propagator(H, t2)
        rhs = propagator(H, t1 + t2)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_propagator_range_error_reports_safe_time():
    H = np.diag([100j, -100j])
    with pytest.raises(PropagatorRangeError) as excinfo:
        propagator(H, 10.0)
    assert np.isclose(excinfo.value.safe_time, 7.0)


def test_overlap_trace_orthonormal_case():
    system = eigendecompose(np.diag([1.0, 2.0]))
    trace = overlap_trace(system, t_max=10.0)
    assert trace.max_drift < 1e-10
    assert np.allclose(trace.overlaps[0], np.eye(2), atol=1e-12)
    assert np.allclose(trace.overlaps[-1], np.eye(2), atol=1e-10)


def test_overlap_trace_broken_dimer_growth_decay_pairing():
    mu = np.sqrt(1.0 - 0.25)
    system = eigendecompose(dimer_hamiltonian(1.0, 0.5))
    trace = overlap_trace(system, t_max=10.0)
    assert trace.max_drift < 1e-9
    assert np.array_equal(
        trace.drift, np.max(np.abs(trace.overlaps - trace.overlaps[0]), axis=0))

    G0 = trace.overlaps[0]
    Ei, Ej = trace.right_eigenvalues, trace.left_eigenvalues
    i_grow = int(np.argmax(Ei.imag))          # E = +i mu
    j_decay = int(np.argmin(Ej.imag))         # left label E_j = -i mu
    j_grow = int(np.argmax(Ej.imag))
    assert abs(Ei[i_grow] - 1j * mu) < 1e-12
    # decay <-> growth overlap is nonzero and constant; like-with-like vanishes
    assert abs(G0[j_decay, i_grow]) > 0.9
    assert abs(G0[j_grow, i_grow]) < 1e-10
    assert trace.drift[j_decay, i_grow] < 1e-9


def test_overlap_trace_rejects_defective():
    with pytest.raises(DefectiveSystemError):
        overlap_trace(eigendecompose(dimer_hamiltonian(1.0, 1.0)))


def test_overlap_trace_rejects_empty_time_grid():
    with pytest.raises(ValueError):
        overlap_trace(eigendecompose(np.diag([1.0, 2.0])), n_times=0)


def test_overlap_trace_drift_across_model_suite():
    suite = [
        dimer_hamiltonian(0.5, 1.0),
        dimer_hamiltonian(1.0, 0.5),
        harmonic_hamiltonian(10),
        cubic_hamiltonian(12, Realization.POSITION_REAL),
        pu_hamiltonian_fock(8, 8, PUParams(1.0, 1.0, 2.3)),
    ]
    for H in suite:
        trace = overlap_trace(eigendecompose(H), t_max=10.0, n_times=101)
        assert trace.max_drift < 1e-9
        assert trace.method_agreement < 1e-9


def test_right_only_pu_overlaps_vanish_below_the_noise_floor():
    # L = conj(J·R) carries R's rounding into the overlaps of distinct
    # levels; the dual-basis solve of each parity sector clears them, so
    # no forbidden overlap survives the floor to drift
    pu_12 = eigendecompose(pu_hamiltonian_fock(12, 12, PUParams(1.0, 1.0, 2.0)))
    pu_16 = eigendecompose(pu_hamiltonian_fock(16, 16, PUParams(1.0, 1.0, 2.0)))
    pair = eigendecompose(pu_hamiltonian_fock(16, 16, PUParams.from_alpha_beta(1.0, 1.0, 0.3)))
    for system in (pu_12, pair):
        assert overlap_trace(system, t_max=10.0, n_times=101).max_drift == 0.0
    for system in (pu_12, pu_16):
        assert selection_rule_check(system).max_forbidden_overlap < 1e-12


def test_overlap_trace_switches_to_closed_form_for_strong_growth():
    # rate ~ 9.95 so the literal product is only trusted up to t ~ 0.8
    system = eigendecompose(dimer_hamiltonian(10.0, 1.0))
    trace = overlap_trace(system, t_max=10.0)
    assert 0.5 < trace.literal_time_bound < 1.5
    assert trace.max_drift < 1e-9
    assert trace.method_agreement < 1e-9
    assert np.array_equal(
        trace.drift, np.max(np.abs(trace.overlaps - trace.overlaps[0]), axis=0))


def _nonnormal_real_spectrum(n, seed):
    """S·diag(E)·S⁻¹ with a real, well-separated spectrum and cond(S) = 4."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    S = (u * np.geomspace(1.0, 4.0, n)) @ v.T
    E = np.sort(rng.uniform(-2.0, 2.0, n))
    return S @ np.diag(E) @ np.linalg.inv(S)


def _expm_spy(monkeypatch):
    """Record the argument and result of every scipy.linalg.expm call."""
    calls = []
    expm = scipy.linalg.expm

    def spy(A, *args, **kwargs):
        result = expm(A, *args, **kwargs)
        calls.append((A, result))
        return result

    monkeypatch.setattr(scipy.linalg, "expm", spy)
    return calls


# (H, t_max): the truncated cubic's artifact pairs (growth rate ~100) keep
# the literal route to t <~ 0.07, so it gets a short grid that crosses that
# bound; the dimer is the complex-H control
TRACE_CASES = [
    (_nonnormal_real_spectrum(24, 3), 10.0),
    (cubic_hamiltonian(16, Realization.POSITION_IMAGINARY), 0.2),
    (dimer_hamiltonian(1.0, 0.5), 10.0),
]


@pytest.mark.parametrize("H, t_max", TRACE_CASES)
def test_overlap_trace_two_expm_per_trace(monkeypatch, H, t_max):
    # one step exponential per side, real or complex H, however many
    # grid times the literal check covers
    system = eigendecompose(H)
    calls = _expm_spy(monkeypatch)
    trace = overlap_trace(system, t_max=t_max, n_times=41)
    literal_steps = int(np.sum(np.abs(trace.times) <= trace.literal_time_bound))
    assert literal_steps > 2
    assert len(calls) == 2
    dt = trace.times[1]
    Hc = np.asarray(H, dtype=complex)
    assert np.array_equal(calls[0][0], -1j * dt * Hc)
    assert np.array_equal(calls[1][0], -1j * dt * Hc.conj().T)


def test_overlap_trace_no_expm_when_only_t0_is_checked(monkeypatch):
    # artifact pairs of the truncated cubic grow at rate ~100, so on the
    # default grid (step 0.1) the literal window holds t = 0 alone
    system = eigendecompose(cubic_hamiltonian(60, Realization.POSITION_IMAGINARY))
    calls = _expm_spy(monkeypatch)
    trace = overlap_trace(system)
    assert trace.literal_time_bound < trace.times[1]
    assert calls == []
    assert trace.method_agreement == 0.0


@pytest.mark.parametrize("H, t_max", TRACE_CASES)
def test_overlap_trace_matches_two_expm_reference(H, t_max):
    system = eigendecompose(H)
    trace = overlap_trace(system, t_max=t_max, n_times=41)

    # reference: the closed form written out over the whole grid
    G0 = system.overlap_matrix()
    G0 = np.where(np.abs(G0) < OVERLAP_NOISE_FLOOR * np.max(np.abs(G0)), 0.0, G0)
    E = system.eigenvalues
    exponent = np.where(G0 == 0.0, 0.0, 1j * (E[:, None] - E[None, :]))
    overlaps = []
    for t in trace.times:
        expo = exponent * t
        expo = np.minimum(expo.real, MAX_EXPONENT) + 1j * expo.imag
        overlaps.append(G0 * np.exp(expo))
    overlaps = np.array(overlaps)
    drift = np.max(np.abs(overlaps - overlaps[0]), axis=0)

    assert np.max(np.abs(trace.overlaps - overlaps)) <= 1e-12
    assert np.max(np.abs(trace.drift - drift)) <= 1e-12


@pytest.mark.parametrize("H, t_max", TRACE_CASES)
def test_overlap_trace_catches_shifted_eigenvalues(H, t_max):
    # a common shift cancels in every E_j − E_i, so drift and the selection
    # rule cannot see it; the stepped eigenvectors can
    system = eigendecompose(H)
    assert overlap_trace(system, t_max=t_max, n_times=41).method_agreement < AGREEMENT_GATE
    shifted = replace(system, eigenvalues=system.eigenvalues + 1e-8)
    trace = overlap_trace(shifted, t_max=t_max, n_times=41)
    assert trace.max_drift < 1e-9
    assert trace.method_agreement > AGREEMENT_GATE


def test_selection_rule_hermitian_reduces_to_orthonormality():
    rng = np.random.default_rng(14)
    A = rng.standard_normal((6, 6))
    H = A + A.T
    report = selection_rule_check(eigendecompose(H))
    assert report.ok
    assert report.max_forbidden_overlap < 1e-10


def test_selection_rule_dimer_phases():
    for g, k in ((0.5, 1.0), (1.0, 0.5)):
        report = selection_rule_check(eigendecompose(dimer_hamiltonian(g, k)))
        assert report.ok


def test_conjugation_asymmetric_spectrum_detected_by_classifier():
    # the left/right overlap structure itself satisfies the selection rule
    # for any diagonalizable matrix; what breaks here is conjugation
    # closure of the spectrum, which the classifier reports
    H = np.array([[1.0, 1.0], [0.0, 1.0 + 1.0j]])
    report = selection_rule_check(eigendecompose(H))
    assert report.ok
    buckets = classify_spectrum(np.linalg.eigvals(H))
    assert buckets.has_warning
    assert buckets.leftovers


def test_euclidean_reality_cubic_imaginary_realization():
    H = cubic_hamiltonian(32, Realization.POSITION_IMAGINARY)
    report = euclidean_reality(H, 0.5)
    assert report.is_real
    assert report.max_imag < 1e-12


def test_euclidean_reality_harmonic():
    report = euclidean_reality(harmonic_hamiltonian(16), 1.0)
    assert report.max_imag < 1e-14


def test_euclidean_reality_conjugate_pair_trace_only():
    report = euclidean_reality(np.diag([1j, -1j]), 1.0)
    assert not report.is_real                 # entries e^{∓i} are complex
    assert report.max_imag > 0.5
    assert abs(report.trace_imag) < 1e-12      # trace is 2 cos(1)


def test_reality_propagates_to_euclidean_propagator():
    models = [
        harmonic_hamiltonian(12),
        cubic_hamiltonian(16, Realization.POSITION_IMAGINARY),
        pu_hamiltonian_fock(8, 8, PUParams(1.0, 1.0, 2.0)),
    ]
    for H in models:
        assert np.max(np.abs(np.asarray(H).imag)) == 0.0
        for tau in (0.1, 1.0, 5.0):
            assert euclidean_reality(H, tau).is_real


def test_euclidean_reality_real_h_stays_real(monkeypatch):
    H = cubic_hamiltonian(24, Realization.POSITION_IMAGINARY)
    tau = 0.5
    calls = _expm_spy(monkeypatch)
    report = euclidean_reality(H, tau)
    assert report.max_imag == 0.0
    assert report.trace_imag == 0.0
    (A, K), = calls
    assert not np.iscomplexobj(A)
    reference = scipy.linalg.expm(-tau * np.asarray(H).astype(complex))
    assert np.linalg.norm(K - reference) <= 1e-12 * np.linalg.norm(reference)


def test_euclidean_reality_input_validation():
    with pytest.raises(ValueError):
        euclidean_reality(np.eye(2), 0.0)
    with pytest.raises(PropagatorRangeError):
        euclidean_reality(np.diag([-300.0, 1.0]), 5.0)


def _eigvals_spy(monkeypatch) -> list:
    calls = []
    eigvals = np.linalg.eigvals

    def spy(A):
        calls.append(A)
        return eigvals(A)

    monkeypatch.setattr(np.linalg, "eigvals", spy)
    return calls


def test_range_checks_skip_the_eigensolve_within_the_norm_bound(monkeypatch):
    # the gauged cubic of the symmetry benchmark: ||H||₁·tau = 39 at n = 28
    H = cubic_hamiltonian(28, Realization.POSITION_REAL)
    d = np.exp(2j * np.pi * np.random.default_rng(3).uniform(size=28))
    H = d[:, None] * H * np.conj(d)[None, :]
    calls = _eigvals_spy(monkeypatch)
    assert euclidean_reality(H, 0.1).trace_is_real()
    propagator(H, 0.1)
    assert calls == []


def test_range_checks_fall_back_to_the_spectrum_beyond_the_norm_bound(monkeypatch):
    # ||H||₁·t = 1e4 overflows the bound, but H is nilpotent: every growth
    # rate is 0 and neither check may raise
    H = np.array([[0.0, 1e4], [0.0, 0.0]])
    calls = _eigvals_spy(monkeypatch)
    assert euclidean_reality(H, 1.0).is_real
    np.testing.assert_array_equal(propagator(H, 1.0), [[1.0, -1e4j], [0.0, 1.0]])
    assert len(calls) == 2
