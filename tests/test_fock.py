import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biortho.errors import InvalidCutoffError
from biortho.fock import (
    Realization,
    commutator,
    ladder,
    parity,
    position_momentum,
    truncation_block,
)

SQRT2 = np.sqrt(2.0)


def test_ladder_two_by_two():
    lo, hi = ladder(2)
    assert np.array_equal(lo, np.array([[0, 1], [0, 0]], dtype=complex))
    assert np.array_equal(hi, lo.conj().T)


def test_ladder_entries_sqrt_rule():
    lo, _ = ladder(3)
    assert lo[0, 1] == 1.0
    assert lo[1, 2] == np.sqrt(2.0)
    assert np.count_nonzero(lo) == 2


def test_ladder_commutator_block_is_identity():
    lo, hi = ladder(3)
    block = truncation_block(commutator(lo, hi))
    # sqrt(2)*sqrt(2) rounds to 2 + 4.4e-16, so not bitwise identity
    assert np.max(np.abs(block - np.eye(2))) < 1e-14


def test_ladder_rejects_small_cutoff():
    with pytest.raises(InvalidCutoffError):
        ladder(1)


def test_position_real_two_by_two():
    x, p = position_momentum(2, Realization.POSITION_REAL)
    assert np.allclose(x, [[0, 1 / SQRT2], [1 / SQRT2, 0]], atol=0)
    assert np.all(x.imag == 0)
    assert np.array_equal(x, x.T)


def test_position_imaginary_two_by_two():
    x, p = position_momentum(2, Realization.POSITION_IMAGINARY)
    assert x[0, 1] == 1j / SQRT2
    assert x[1, 0] == -1j / SQRT2
    assert np.all(x.real == 0)
    assert np.array_equal(x, -x.T)
    with pytest.raises(ValueError):
        x[0, 0] = 1.0  # frozen buffers


@pytest.mark.parametrize("realization", list(Realization))
def test_realization_entrywise_patterns(realization):
    x, p = position_momentum(9, realization)
    if realization is Realization.POSITION_REAL:
        real_one, imag_one = x, p
    else:
        real_one, imag_one = p, x
    assert np.all(real_one.imag == 0)
    assert np.array_equal(real_one, real_one.T)
    assert np.all(imag_one.real == 0)
    assert np.array_equal(imag_one, -imag_one.T)


@pytest.mark.parametrize("realization", list(Realization))
def test_canonical_commutator_block(realization):
    x, p = position_momentum(16, realization)
    block = truncation_block(commutator(x, p) - 1j * np.eye(16))
    assert np.max(np.abs(block)) < 1e-12


@given(st.integers(min_value=2, max_value=48))
@settings(max_examples=25, deadline=None)
def test_canonical_commutator_block_any_cutoff(n):
    x, p = position_momentum(n, Realization.POSITION_REAL)
    block = truncation_block(commutator(x, p) - 1j * np.eye(n))
    assert np.max(np.abs(block)) < 1e-12


def test_parity_diagonal():
    assert np.array_equal(parity(3), np.diag([1.0, -1.0, 1.0]))


def test_number_operator_is_raising_times_lowering():
    # a†a is diagonal (0..N-1) on the whole matrix, corner included
    lo, hi = ladder(5)
    assert np.max(np.abs(hi @ lo - np.diag(np.arange(5.0)))) < 1e-14


def test_parity_involution_and_anticommutation():
    P = parity(8)
    assert np.array_equal(P @ P, np.eye(8))
    x, p = position_momentum(8, Realization.POSITION_REAL)
    # x and p only connect adjacent occupation numbers, so this is exact
    assert np.max(np.abs(P @ x @ P + x)) == 0.0
    assert np.max(np.abs(P @ p @ P + p)) == 0.0


@pytest.mark.parametrize("realization", list(Realization))
def test_harmonic_spectrum_both_realizations(realization):
    # p²/2 + x²/2: off-diagonal ladder terms cancel exactly, eigenvalues
    # k + 1/2 except in the truncation corner
    n = 24
    x, p = position_momentum(n, realization)
    H = (p @ p + x @ x) / 2.0
    evals = np.sort(np.linalg.eigvals(H).real)
    expected = np.arange(n // 2) + 0.5
    assert np.max(np.abs(evals[: n // 2] - expected)) < 1e-8


def test_realizations_unitarily_equivalent_spectra():
    # b = -i a identifies the two realizations, so same-polynomial builds
    # have identical spectra including truncation effects
    from oracles import match_distance

    n = 20
    for builder in (
        lambda x, p: p @ p + 1j * x @ x @ x,
        lambda x, p: p @ p + x @ x @ x @ x,
    ):
        spectra = []
        for realization in Realization:
            x, p = position_momentum(n, realization)
            spectra.append(np.linalg.eigvals(builder(x, p)))
        assert match_distance(spectra[0], spectra[1]) < 1e-8
