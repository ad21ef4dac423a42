import numpy as np
import pytest

from biortho.lorentz import (
    METRIC,
    boost_generator,
    charge_conjugation_matrix,
    charge_conjugation_residual,
    complex_boost_spinor,
    coordinate_inversion,
    cpt_linear_part_check,
    dirac_basis,
    majorana_basis,
    majorana_from_dirac_unitary,
    vector_boost,
)

from oracles import complex_boost_spinor_series

BASES = [majorana_basis(), dirac_basis()]


@pytest.mark.parametrize("basis", BASES, ids=lambda b: b.name.value)
def test_anticommutation_table_exact(basis):
    assert basis.anticommutator_residual() == 0.0


def test_majorana_entries_all_imaginary():
    for g in majorana_basis().gammas:
        assert np.all(g.real == 0.0)


def test_majorana_dirac_related_by_unitary():
    U = majorana_from_dirac_unitary()
    assert np.max(np.abs(U @ U.conj().T - np.eye(4))) < 1e-15
    maj, dir_ = majorana_basis(), dirac_basis()
    for gm, gd in zip(maj.gammas, dir_.gammas):
        assert np.max(np.abs(U @ gd @ U.conj().T - gm)) < 1e-15


@pytest.mark.parametrize("basis", BASES, ids=lambda b: b.name.value)
@pytest.mark.parametrize("i", [1, 2, 3])
def test_boost_generator_squares_to_quarter_identity(basis, i):
    # M^{0i} = i·γ⁰γ^i/2 by anticommutation and (γ⁰γ^i)² = +1, so the
    # square is −1/4 (noncompact generator)
    M = boost_generator(basis, i)
    assert np.max(np.abs(M @ M + np.eye(4) / 4.0)) < 1e-15
    assert abs(np.trace(M)) < 1e-15


@pytest.mark.parametrize("basis", BASES, ids=lambda b: b.name.value)
def test_boost_generators_close_lorentz_algebra(basis):
    # [M^{01}, M^{02}] = -i·M^{12} for signature (+,-,-,-)
    M01 = boost_generator(basis, 1)
    M02 = boost_generator(basis, 2)
    g = basis.gammas
    M12 = 1j * (g[1] @ g[2] - g[2] @ g[1]) / 4.0
    comm = M01 @ M02 - M02 @ M01
    assert np.max(np.abs(comm + 1j * M12)) < 1e-15


def test_boost_generator_index_validation():
    with pytest.raises(ValueError):
        boost_generator(majorana_basis(), 0)


@pytest.mark.parametrize("basis", BASES, ids=lambda b: b.name.value)
def test_spinor_boost_identity_at_zero(basis):
    for i in (1, 2, 3):
        assert np.array_equal(complex_boost_spinor(basis, i, 0.0), np.eye(4))


@pytest.mark.parametrize("basis", BASES, ids=lambda b: b.name.value)
def test_spinor_boost_at_i_pi(basis):
    for i in (1, 2, 3):
        boost = complex_boost_spinor(basis, i, 1j * np.pi)
        target = -1j * basis.gammas[0] @ basis.gammas[i]
        assert np.max(np.abs(boost - target)) < 1e-12


@pytest.mark.parametrize("basis", BASES, ids=lambda b: b.name.value)
def test_spinor_boost_closed_form_vs_series(basis):
    rng = np.random.default_rng(31)
    for _ in range(10):
        xi = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        for i in (1, 2, 3):
            closed = complex_boost_spinor(basis, i, xi)
            series = complex_boost_spinor_series(basis, i, xi)
            assert np.max(np.abs(closed - series)) < 1e-12


@pytest.mark.parametrize("basis", BASES, ids=lambda b: b.name.value)
def test_three_boost_product_is_gamma5(basis):
    product = np.eye(4, dtype=complex)
    for i in (3, 2, 1):
        product = product @ complex_boost_spinor(basis, i, 1j * np.pi)
    g5 = basis.gamma5()
    assert np.max(np.abs(product - g5)) < 1e-12
    assert np.max(np.abs(g5 @ g5 - np.eye(4))) < 1e-14


@pytest.mark.parametrize("basis", BASES, ids=lambda b: b.name.value)
def test_gamma5_anticommutes_with_gammas(basis):
    g5 = basis.gamma5()
    for g in basis.gammas:
        assert np.max(np.abs(g5 @ g + g @ g5)) < 1e-13


def test_vector_boost_i_pi_exact():
    assert np.array_equal(vector_boost(1, 1j * np.pi),
                          np.diag([-1.0, -1.0, 1.0, 1.0]).astype(complex))


def test_coordinate_three_boost_product_exact_inversion():
    assert np.array_equal(coordinate_inversion(), -np.eye(4))


def test_vector_boost_preserves_line_element():
    rng = np.random.default_rng(32)
    boost = vector_boost(2, 0.3)
    for _ in range(10):
        v = rng.standard_normal(4)
        before = v @ METRIC @ v
        after = (boost @ v) @ METRIC @ (boost @ v)
        assert abs(before - after) < 1e-12


def test_vector_boost_index_validation():
    with pytest.raises(ValueError):
        vector_boost(4, 0.1)


def test_vector_boosts_compose_additively_on_one_axis():
    lhs = vector_boost(1, 0.4) @ vector_boost(1, 0.25)
    rhs = vector_boost(1, 0.65)
    assert np.max(np.abs(lhs - rhs)) < 1e-14


@pytest.mark.parametrize("basis", BASES, ids=lambda b: b.name.value)
def test_charge_conjugation_constraint(basis):
    C, null_dim = charge_conjugation_matrix(basis)
    assert null_dim == 1
    assert charge_conjugation_residual(basis, C) < 1e-13
    assert np.max(np.abs(C)) == pytest.approx(1.0)


def test_charge_conjugation_basis_change_consistency():
    # the defining constraint transforms with a transpose twist:
    # C_maj ∝ U C_dir Uᵀ
    U = majorana_from_dirac_unitary()
    C_dir, _ = charge_conjugation_matrix(dirac_basis())
    C_maj, _ = charge_conjugation_matrix(majorana_basis())
    mapped = U @ C_dir @ U.T
    # proportionality up to one complex scalar
    ratio = mapped[np.abs(C_maj) > 0.5] / C_maj[np.abs(C_maj) > 0.5]
    assert np.max(np.abs(ratio - ratio[0])) < 1e-12
    assert np.max(np.abs(mapped - ratio[0] * C_maj)) < 1e-12


def test_charge_conjugation_broken_basis_errors():
    from biortho.errors import ConstraintSolveError
    from biortho.lorentz import BasisName, GammaBasis

    rng = np.random.default_rng(33)
    fake = GammaBasis(
        gammas=tuple(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                     for _ in range(4)),
        metric=METRIC.copy(),
        name=BasisName.DIRAC,
    )
    with pytest.raises(ConstraintSolveError):
        charge_conjugation_matrix(fake)


@pytest.mark.parametrize("basis", BASES, ids=lambda b: b.name.value)
def test_cpt_linear_part(basis):
    report = cpt_linear_part_check(basis)
    assert report.residual < 1e-12
    assert report.phase == -1j
    assert report.gamma5_involution_residual < 1e-14


def test_spinor_and_coordinate_inversions_consistent():
    # coordinates flip sign while the spinor part is exactly gamma5
    assert np.array_equal(coordinate_inversion(), -np.eye(4))
    for basis in BASES:
        assert cpt_linear_part_check(basis).residual < 1e-12


@pytest.mark.parametrize("basis", BASES, ids=lambda b: b.name.value)
def test_charge_conjugation_reduced_svd_keeps_the_null_vector(basis, monkeypatch):
    # the 64×16 constraint's null vector is the last row of vh, which the
    # reduced SVD gives bitwise as the full one does, without the 64×64 U
    calls = []
    svd = np.linalg.svd

    def spy(A, **kwargs):
        calls.append((A, kwargs))
        return svd(A, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    charge_conjugation_matrix(basis)
    (A, kwargs), = calls
    assert A.shape == (64, 16)
    assert kwargs == {"full_matrices": False}
    _, s_full, vh_full = svd(A)
    _, s, vh = svd(A, full_matrices=False)
    assert s.tobytes() == s_full.tobytes()
    assert vh[-1].tobytes() == vh_full[-1].tobytes()
