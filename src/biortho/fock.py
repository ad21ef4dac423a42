"""Truncated occupation-number-space matrices for bosonic modes.

A mode truncated at cutoff N keeps the first N number states. Two position/
momentum realizations are supported:

* ``POSITION_REAL``:      x = (a + a†)/√2   (real symmetric),
                          p = i(a† − a)/√2  (imaginary antisymmetric);
* ``POSITION_IMAGINARY``: x = i(b − b†)/√2  (imaginary antisymmetric),
                          p = (b† + b)/√2   (real symmetric).

The two are unitarily equivalent (b = −i a, a diagonal phase), so spectra of
same-polynomial constructions coincide; what changes is which operators come
out entrywise real. Truncation breaks [a, a†] = 1 only in the last diagonal
entry, so commutator checks exclude the final row/column.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import InvalidCutoffError

SQRT2 = np.sqrt(2.0)


class Realization(Enum):
    POSITION_REAL = "position-real"
    POSITION_IMAGINARY = "position-imaginary"


def _freeze(arr):
    arr = np.ascontiguousarray(arr, dtype=complex)
    arr.setflags(write=False)
    return arr


def ladder(n: int):
    """Return (lowering, raising) matrices at cutoff ``n``.

    lowering[k, k+1] = √(k+1); raising is the conjugate transpose.
    """
    if n < 2:
        raise InvalidCutoffError(f"cutoff must be >= 2, got {n}")
    lowering = np.diag(np.sqrt(np.arange(1.0, n)), k=1)
    return _freeze(lowering), _freeze(lowering.T)


def position_momentum(n: int, realization: Realization = Realization.POSITION_REAL):
    """Return (position, momentum) at cutoff ``n`` in the chosen realization."""
    lo, hi = ladder(n)
    if realization is Realization.POSITION_REAL:
        x = (lo + hi) / SQRT2
        p = 1j * (hi - lo) / SQRT2
    elif realization is Realization.POSITION_IMAGINARY:
        x = 1j * (lo - hi) / SQRT2
        p = (hi + lo) / SQRT2
    else:
        raise ValueError(f"unknown realization {realization!r}")
    return _freeze(x), _freeze(p)


def parity(n: int) -> np.ndarray:
    """Diagonal parity matrix diag((−1)^k), k = 0..n−1."""
    if n < 1:
        raise InvalidCutoffError(f"cutoff must be >= 1, got {n}")
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return _freeze(np.diag(signs))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def truncation_block(matrix: np.ndarray) -> np.ndarray:
    """Principal block with the last row and column removed.

    The cutoff corrupts [a, a†] = 1 only in the last diagonal entry, so
    commutator identities are asserted on this block.
    """
    return matrix[:-1, :-1]
