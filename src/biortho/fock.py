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

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidCutoffError, ShapeMismatchError

SQRT2 = np.sqrt(2.0)


class Realization(Enum):
    POSITION_REAL = "position-real"
    POSITION_IMAGINARY = "position-imaginary"


@dataclass(frozen=True)
class MultiModeOperator:
    """Dense operator on a tensor product of truncated modes.

    Mode ordering is as listed in ``mode_dims``: leftmost mode is the
    slowest (most significant) Kronecker index.
    """

    mode_dims: tuple
    matrix: np.ndarray
    labels: tuple

    def __post_init__(self):
        expected = int(np.prod(self.mode_dims))
        if self.matrix.shape != (expected, expected):
            raise ShapeMismatchError(
                f"matrix is {self.matrix.shape}, mode dims {self.mode_dims} "
                f"require {expected}x{expected}"
            )


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


def embed(op: np.ndarray, mode_index: int, mode_dims, labels=None) -> MultiModeOperator:
    """Kronecker-embed ``op`` on mode ``mode_index``, identity elsewhere."""
    mode_dims = tuple(int(d) for d in mode_dims)
    op = np.asarray(op, dtype=complex)
    if not 0 <= mode_index < len(mode_dims):
        raise ShapeMismatchError(
            f"mode index {mode_index} out of range for {len(mode_dims)} modes"
        )
    d = mode_dims[mode_index]
    if op.shape != (d, d):
        raise ShapeMismatchError(
            f"operator is {op.shape} but mode {mode_index} has dimension {d}"
        )
    full = np.eye(1, dtype=complex)
    for k, dim in enumerate(mode_dims):
        factor = op if k == mode_index else np.eye(dim, dtype=complex)
        full = np.kron(full, factor)
    if labels is None:
        labels = tuple(f"mode{k}" for k in range(len(mode_dims)))
    return MultiModeOperator(mode_dims=mode_dims, matrix=_freeze(full), labels=tuple(labels))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def truncation_block(matrix: np.ndarray, margin: int = 1) -> np.ndarray:
    """Principal block with the last ``margin`` rows/columns removed.

    The cutoff corrupts [a, a†] = 1 only in the trailing corner, so
    commutator identities are asserted on this block.
    """
    n = matrix.shape[0]
    return matrix[: n - margin, : n - margin]
