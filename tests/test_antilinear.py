from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from biortho import antilinear
from biortho.antilinear import (
    AntilinearOp,
    anticommutator_with,
    build_c_operator,
    commutes_with,
    find_antilinear_symmetry,
    identity_op,
    is_real,
)
from biortho.errors import (
    BiorthoError,
    ConditioningError,
    ConvergenceError,
    DefectiveSystemError,
    NoAntilinearSymmetryError,
    SignAmbiguityError,
    SingularOperatorError,
    SizeBudgetError,
)
from biortho.fock import Realization
from biortho.models import (
    PUParams,
    cubic_hamiltonian,
    dimer_hamiltonian,
    dimer_pt_operator,
    harmonic_hamiltonian,
    pt_operator,
    pu_dynamical_matrix,
)
from biortho.spectral import classify_spectrum, eigendecompose

complex_scalars = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


@given(complex_scalars, complex_scalars)
@settings(max_examples=50, deadline=None)
def test_antilinearity_exact(alpha, beta):
    rng = np.random.default_rng(1)
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    A = AntilinearOp(M)
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    lhs = A(alpha * u + beta * v)
    rhs = np.conj(alpha) * A(u) + np.conj(beta) * A(v)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-9)


def test_composition_of_antilinear_ops_is_linear():
    rng = np.random.default_rng(2)
    M1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    M2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    A1, A2 = AntilinearOp(M1), AntilinearOp(M2)
    composed = A1.compose(A2)
    assert not composed.conjugates
    assert np.allclose(composed.linear_part, M1 @ np.conj(M2))
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert np.allclose(composed(v), A1(A2(v)))


def test_cubic_pt_residual_position_real():
    H = cubic_hamiltonian(24, Realization.POSITION_REAL)
    check = commutes_with(pt_operator(24, Realization.POSITION_REAL), H)
    assert check.residual < 1e-12
    assert check.holds()


def test_cubic_conjugation_symmetry_position_imaginary():
    # H is entrywise real here, so plain conjugation commutes exactly
    H = cubic_hamiltonian(24, Realization.POSITION_IMAGINARY)
    check = commutes_with(identity_op(24), H)
    assert check.residual == 0.0


def test_conjugation_fails_for_unpaired_complex_diagonal():
    H = np.diag([1 + 1j, 5.0])
    check = commutes_with(identity_op(2), H)
    # conj(H) - H = diag(-2i, 0), so the residual is 2/||H||_F
    assert np.isclose(check.residual, 2.0 / np.linalg.norm(H))
    assert not check.holds()


def test_singular_linear_part_rejected():
    # zero and diag(1, 1e-20) take the diagonal path, ones((2, 2)) the SVD
    for M in (np.zeros((2, 2)), np.diag([1.0, 1e-20]), np.ones((2, 2))):
        with pytest.raises(SingularOperatorError):
            commutes_with(AntilinearOp(M), np.eye(2))


def test_diagonal_linear_part_matches_explicit_residual():
    rng = np.random.default_rng(31)
    n = 12
    d = rng.uniform(0.3, 4.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    D = np.diag(d)
    dense = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    # the diagonal route reads only H's nonzero entries
    sparse = dense * (rng.uniform(size=(n, n)) < 0.3)
    for H in (dense, sparse):
        for conjugates in (True, False):
            check = commutes_with(AntilinearOp(D, conjugates=conjugates), H)
            Hc = np.conj(H) if conjugates else H
            explicit = np.linalg.norm(D @ Hc @ np.linalg.inv(D) - H) / np.linalg.norm(H)
            assert abs(check.residual - explicit) < 1e-12
            assert abs(check.condition_number - np.linalg.cond(D)) < 1e-12


@pytest.mark.parametrize("M", [np.eye(3), np.ones((3, 3))], ids=["diagonal", "dense"])
def test_linear_part_of_another_size_rejected(M):
    with pytest.raises(ValueError):
        commutes_with(AntilinearOp(M), np.eye(2))


def test_is_real_reports():
    assert is_real(cubic_hamiltonian(32, Realization.POSITION_IMAGINARY)).max_imag == 0.0
    report = is_real(cubic_hamiltonian(32, Realization.POSITION_REAL))
    assert not report.is_real and report.max_imag > 1.0
    assert is_real(harmonic_hamiltonian(16)).is_real


def test_is_real_means_every_imaginary_part_is_zero():
    # the rule under which eigendecompose runs real dgeev: any nonzero
    # imaginary part, however small, makes H complex
    H = harmonic_hamiltonian(8) + 1e-15j * np.eye(8)
    report = is_real(H)
    assert not report.is_real
    assert report.max_imag == 1e-15


def test_find_symmetry_real_matrix_returns_identity():
    rng = np.random.default_rng(4)
    H = rng.standard_normal((6, 6))
    op = find_antilinear_symmetry(H)
    assert np.array_equal(op.linear_part, np.eye(6))
    assert commutes_with(op, H).residual < 1e-12


def test_find_symmetry_conjugate_diagonal():
    H = np.diag([1 + 1j, 1 - 1j])
    # the swap works by direct multiplication ...
    swap = AntilinearOp(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    assert commutes_with(swap, H).residual < 1e-15
    # ... and the constructed operator is an equally valid intertwiner
    op = find_antilinear_symmetry(H)
    assert commutes_with(op, H).residual < 1e-10


def test_find_symmetry_generic_complex_basis():
    # rotate a real matrix into a complex basis: spectrum stays
    # conjugation-closed but the identity shortcut no longer applies
    rng = np.random.default_rng(8)
    for _ in range(5):
        H0 = rng.standard_normal((6, 6))
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6))
                            + 1j * rng.standard_normal((6, 6)))
        H = Q @ H0 @ Q.conj().T
        op = find_antilinear_symmetry(H)
        assert commutes_with(op, H).residual < 1e-8


def test_find_symmetry_rejects_asymmetric_spectrum():
    with pytest.raises(NoAntilinearSymmetryError):
        find_antilinear_symmetry(np.diag([1 + 1j, 5.0]))


def _gauged_cubic(n, rng):
    # D·H·D⁻¹ of the position-real cubic for random diagonal phases D
    d = np.exp(2j * np.pi * rng.uniform(size=n))
    H = cubic_hamiltonian(n, Realization.POSITION_REAL)
    return d[:, None] * H * np.conj(d)[None, :]


def _nullspace_forbidden(*args, **kwargs):
    raise AssertionError("nullspace fallback ran")


def test_find_symmetry_spectral_route_gauged_cubic(monkeypatch):
    monkeypatch.setattr(antilinear, "_nullspace_intertwiner", _nullspace_forbidden)
    rng = np.random.default_rng(12)
    for n in (8, 12, 16, 20, 24, 28, 32, 36):
        H = _gauged_cubic(n, rng)
        op = find_antilinear_symmetry(H)
        assert commutes_with(op, H).residual < 1e-9
        assert np.linalg.cond(op.linear_part) < 10
    # two mutually orthogonal groups of eigenvectors (reducible phase
    # matrix W), block-diagonal and in a random complex basis
    for n1, n2 in ((8, 12), (24, 28)):
        B = scipy.linalg.block_diag(_gauged_cubic(n1, rng), 1.7 * _gauged_cubic(n2, rng))
        Q, _ = np.linalg.qr(rng.standard_normal(B.shape) + 1j * rng.standard_normal(B.shape))
        for H in (B, Q @ B @ Q.conj().T):
            op = find_antilinear_symmetry(H)
            assert commutes_with(op, H).residual < 1e-9
            assert np.linalg.cond(op.linear_part) < 10


def test_nullspace_fallback_refuses_over_its_memory_budget(monkeypatch):
    # the n²×n² operator would take 268 MB at n = 64 and 1.6 GB at n = 100;
    # the refusal comes before it is built
    rng = np.random.default_rng(15)
    inputs = [_gauged_cubic(n, rng) for n in (64, 100)]

    def kron_forbidden(*args):
        raise AssertionError("intertwiner operator was built")

    monkeypatch.setattr(np, "kron", kron_forbidden)
    for H in inputs:
        with pytest.raises(SizeBudgetError) as excinfo:
            antilinear._nullspace_intertwiner(H)
        assert isinstance(excinfo.value, BiorthoError)

    # a spectral M that misses its gate sends find_antilinear_symmetry to
    # the fallback, which refuses too
    def spectral_fails(*args):
        raise ConditioningError("spectral intertwiner missed its gate")

    monkeypatch.setattr(antilinear, "_verified_intertwiner", spectral_fails)
    with pytest.raises(SizeBudgetError):
        find_antilinear_symmetry(inputs[0])


def test_find_symmetry_jordan_and_degenerate_complex_inputs(monkeypatch):
    fallbacks = []
    nullspace = antilinear._nullspace_intertwiner

    def spy(H, *args):
        fallbacks.append(H.shape[0])
        return nullspace(H, *args)

    monkeypatch.setattr(antilinear, "_nullspace_intertwiner", spy)
    rng = np.random.default_rng(13)
    Q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    # κ ≈ 5e7 stays below the κ flag, but the cluster rank test flags it
    # defective, so the nullspace route must serve it
    jordan = Q @ np.array([[1.0, 1.0], [0.0, 1.0]]) @ Q.conj().T
    S = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    similar = S @ np.diag([1, 1, 1, 2 + 1j, 2 - 1j, 3]) @ np.linalg.inv(S)
    for H in (jordan, similar):
        op = find_antilinear_symmetry(H)
        assert commutes_with(op, H).residual < 1e-8
    assert fallbacks == [2]


def test_find_symmetry_error_types(monkeypatch):
    with pytest.raises(ValueError):
        find_antilinear_symmetry(np.array([[1j, np.nan], [0.0, 1.0]]))

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("QR iteration did not converge")

    monkeypatch.setattr(scipy.linalg, "eig", no_convergence)
    with pytest.raises(ConvergenceError):
        find_antilinear_symmetry(np.diag([1 + 1j, 1 - 1j]))


def test_spectral_and_nullspace_intertwiners_agree_on_equation():
    # the nullspace route is the reference: both must solve M·conj(H) = H·M
    rng = np.random.default_rng(14)
    for n in (2, 3, 5, 6):
        S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H = S @ rng.standard_normal((n, n)) @ np.linalg.inv(S)
        system = eigendecompose(H)
        pairs = classify_spectrum(system.eigenvalues).pair_indices
        for M in (antilinear._spectral_intertwiner(system, pairs),
                  antilinear._nullspace_intertwiner(H)):
            assert np.linalg.svd(M / np.linalg.norm(M), compute_uv=False)[-1] > 1e-8
            gap = np.linalg.norm(M @ np.conj(H) - H @ M)
            assert gap < 1e-10 * np.linalg.norm(M) * np.linalg.norm(H)


def test_eigenvector_dichotomy_under_antilinear_symmetry():
    # with [H, A] = 0: real eigenvalue -> A fixes the eigenvector ray;
    # complex eigenvalue -> A maps it to a conj(E) eigenvector. Checked on
    # simple (isolated) eigenvalues of every model family.
    from biortho.models import PUParams, pu_hamiltonian_fock, pu_pt_operator

    cases = [
        (dimer_hamiltonian(0.5, 1.0), dimer_pt_operator()),
        (dimer_hamiltonian(1.0, 0.5), dimer_pt_operator()),
        (harmonic_hamiltonian(10), identity_op(10)),
        (cubic_hamiltonian(12, Realization.POSITION_REAL),
         pt_operator(12, Realization.POSITION_REAL)),
        (pu_hamiltonian_fock(8, 8, PUParams(1.0, 1.0, 2.3)),
         pu_pt_operator(8, 8)),
    ]
    for H, A in cases:
        assert commutes_with(A, H).residual < 1e-10
        system = eigendecompose(H)
        evals = system.eigenvalues
        scale = np.max(np.abs(evals))
        for i, E in enumerate(evals):
            gap = np.min(np.abs(np.delete(evals, i) - E))
            if gap < 1e-3 * scale:
                continue                     # clustered: ray test ill-posed
            v = system.right_vectors[:, i]
            image = A(v)
            if abs(E.imag) < 1e-8 * scale:
                overlap = np.vdot(v, image) / np.vdot(v, v)
                assert np.linalg.norm(image - overlap * v) < 1e-6
            else:
                residual = H @ image - np.conj(E) * image
                assert np.linalg.norm(residual) < 1e-6 * scale


def test_basis_covariance_of_symmetry_residual():
    rng = np.random.default_rng(6)
    H = dimer_hamiltonian(0.5, 1.0)
    M = dimer_pt_operator().linear_part
    Q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    U = Q.conj().T
    H_new = U @ H @ U.conj().T
    M_new = U @ M @ U.T
    before = commutes_with(AntilinearOp(M), H).residual
    after = commutes_with(AntilinearOp(M_new), H_new).residual
    assert abs(before - after) < 1e-10


def test_c_operator_trivial_diagonal():
    system = eigendecompose(np.diag([1.0, 2.0]))
    C = build_c_operator(system, identity_op(2))
    assert np.allclose(C, np.eye(2), atol=1e-12)


def test_c_operator_unbroken_dimer():
    H = dimer_hamiltonian(0.5, 1.0)
    pt = dimer_pt_operator()
    C = build_c_operator(eigendecompose(H), pt)
    assert np.linalg.norm(C @ C - np.eye(2)) < 1e-10
    assert np.linalg.norm(C @ H - H @ C) < 1e-10
    assert np.linalg.norm(anticommutator_with(C, pt)) < 1e-10
    # matches the closed-form dimer C with sin(theta) = g/k
    sin_t = 0.5
    cos_t = np.sqrt(1 - sin_t**2)
    expected = np.array([[1j * sin_t, 1.0], [1.0, -1j * sin_t]]) / cos_t
    assert np.allclose(C, expected, atol=1e-10)


def test_c_operator_broken_dimer_breaks_pt_commutation():
    H = dimer_hamiltonian(1.0, 0.5)
    pt = dimer_pt_operator()
    C = build_c_operator(eigendecompose(H), pt)
    assert np.linalg.norm(C @ C - np.eye(2)) < 1e-10
    assert np.linalg.norm(C @ H - H @ C) < 1e-10
    assert np.linalg.norm(anticommutator_with(C, pt)) > 0.1


def test_c_operator_verified_in_conjugate_pair_regime():
    # a left vector off biorthonormality breaks C² = 1 in the broken phase
    # as in the real one
    system = eigendecompose(dimer_hamiltonian(1.0, 0.5))
    left = system.left_vectors.copy()
    left[:, 0] += 1e-3 * left[:, 1]
    with pytest.raises(ConditioningError):
        build_c_operator(replace(system, left_vectors=left), dimer_pt_operator())


def test_c_operator_rejects_defective_system():
    with pytest.raises(DefectiveSystemError):
        build_c_operator(eigendecompose(dimer_hamiltonian(1.0, 1.0)),
                         dimer_pt_operator())


def test_c_operator_rejects_pu_exceptional_point():
    # equal frequencies: Jordan blocks at ±i with every κ_i near 7.6e7
    M = pu_dynamical_matrix(PUParams.from_alpha_beta(1.0, 1.0, 0.0)).dynamical_matrix
    with pytest.raises(DefectiveSystemError):
        build_c_operator(eigendecompose(M), identity_op(4))


def test_c_operator_on_close_distinct_eigenvalues():
    # levels 1e-7 apart form one defect cluster but no Jordan block
    for H, pt in ((np.diag([1.0, 1.0 + 1e-7]), identity_op(2)),
                  (scipy.linalg.block_diag(dimer_hamiltonian(0.5, 1.0),
                                           dimer_hamiltonian(0.5, 1.0 + 1e-7)),
                   AntilinearOp(scipy.linalg.block_diag(*[dimer_pt_operator().linear_part] * 2)))):
        C = build_c_operator(eigendecompose(H), pt)
        assert np.linalg.norm(C @ C - np.eye(len(H))) < 1e-10
        assert np.linalg.norm(C @ H - H @ C) < 1e-10


def test_c_operator_zero_pt_norm_is_ambiguous():
    # swap PT-norm of a parity eigenvector vanishes identically
    system = eigendecompose(np.diag([1.0, 2.0]))
    swap = AntilinearOp(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    with pytest.raises(SignAmbiguityError):
        build_c_operator(system, swap)


def test_parity_pt_norm_signs_alternate_for_harmonic():
    # textbook case: C = parity for a real symmetric H with parity symmetry
    H = harmonic_hamiltonian(10)
    system = eigendecompose(H)
    C = build_c_operator(system, identity_op(10))
    assert np.linalg.norm(C @ C - np.eye(10)) < 1e-8
    assert np.linalg.norm(C @ H - H @ C) < 1e-8
    assert np.allclose(C, np.eye(10), atol=1e-8)
