"""Independent verification routines used only by the tests.

These deliberately avoid the library's own eigensolver path: the
characteristic polynomial comes from the Faddeev-LeVerrier trace recursion
and its roots from Durand-Kerner simultaneous iteration (no companion
matrix, no QR). The Pais-Uhlenbeck reference embeds each mode operator in
the full space before multiplying, independently of the library's
per-mode products.
"""

import numpy as np

from biortho.fock import Realization, ladder, position_momentum
from biortho.models import pu_mode_scales


def faddeev_leverrier(H):
    """Monic characteristic polynomial coefficients [1, c1, ..., cn].

    M_1 = H, c_1 = -tr(M_1); M_k = H(M_{k-1} + c_{k-1}·I), c_k = -tr(M_k)/k.
    """
    H = np.asarray(H, dtype=complex)
    n = H.shape[0]
    coeffs = [1.0 + 0.0j]
    M = np.zeros_like(H)
    c = 1.0 + 0.0j
    for k in range(1, n + 1):
        M = H @ (M + c * np.eye(n))
        c = -np.trace(M) / k
        coeffs.append(c)
    return np.array(coeffs)


def durand_kerner_roots(coeffs, max_iter=500, tol=1e-14):
    """All roots of a monic polynomial by Weierstrass simultaneous iteration."""
    coeffs = np.asarray(coeffs, dtype=complex)
    assert coeffs[0] == 1.0, "polynomial must be monic"
    n = len(coeffs) - 1
    if n == 0:
        return np.array([], dtype=complex)
    radius = 1.0 + np.max(np.abs(coeffs[1:]))
    # standard non-real, non-symmetric starting points
    roots = radius * (0.4 + 0.9j) ** np.arange(1, n + 1)

    for _ in range(max_iter):
        values = np.polyval(coeffs, roots)
        diffs = roots[:, None] - roots[None, :]
        np.fill_diagonal(diffs, 1.0)
        denom = np.prod(diffs, axis=1)
        delta = values / denom
        roots = roots - delta
        if np.max(np.abs(delta)) < tol * max(1.0, np.max(np.abs(roots))):
            break
    return roots


def charpoly_eigenvalues(H):
    """Eigenvalues of H via the two routines above."""
    return durand_kerner_roots(faddeev_leverrier(H))


def match_distance(set_a, set_b):
    """Max over a in set_a of the distance to its greedily matched b."""
    a = list(np.asarray(set_a, dtype=complex))
    b = list(np.asarray(set_b, dtype=complex))
    assert len(a) == len(b)
    worst = 0.0
    for value in a:
        dists = [abs(value - other) for other in b]
        k = int(np.argmin(dists))
        worst = max(worst, dists[k])
        b.pop(k)
    return worst


def pu_fock_kron_reference(n1, n2, params,
                           realizations=(Realization.POSITION_REAL,
                                         Realization.POSITION_IMAGINARY)):
    """PU matrix with every mode operator embedded first: X = x ⊗ I,
    P_Z = I ⊗ p_z, ..., then multiplied as dense (n1·n2)² matrices.

    The O((n1·n2)³) embed-then-multiply route, with the per-mode operators
    written out from the ladder here rather than taken from ``models``.
    """
    sx, sz = pu_mode_scales(params)
    x, px = position_momentum(n1, realizations[0])
    x, px = sx * x, px / sx
    lo, hi = ladder(n2)
    z = sz * (lo + hi) / np.sqrt(2.0)
    pz = 1j * (hi - lo) / (np.sqrt(2.0) * sz)
    if realizations[1] is Realization.POSITION_IMAGINARY:
        # imaginary-z contour: z -> i·z, p_z -> -i·p_z
        z, pz = 1j * z, -1j * pz
    eye1 = np.eye(n1, dtype=complex)
    eye2 = np.eye(n2, dtype=complex)
    X, PX = np.kron(x, eye2), np.kron(px, eye2)
    Z, PZ = np.kron(eye1, z), np.kron(eye1, pz)
    g = params.gamma
    return (PX @ PX / (2.0 * g) + PZ @ X
            + g * params.sum_sq.real / 2.0 * (X @ X)
            - g * params.prod_sq.real / 2.0 * (Z @ Z))
