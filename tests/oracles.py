"""Independent verification routines used only by the tests.

These deliberately avoid the library's own eigensolver path: the
characteristic polynomial comes from the Faddeev-LeVerrier trace recursion
and its roots from Durand-Kerner simultaneous iteration (no companion
matrix, no QR). The Pais-Uhlenbeck reference embeds each mode operator in
the full space before multiplying, independently of the library's
per-mode products. The spectrum classifier reference pairs eigenvalues by
repeated global ``argmin`` over the distance matrix. ``full_geev`` runs one
LAPACK ``geev`` on the whole matrix, the reference for the per-block
factorization in ``eigendecompose``; ``two_sided_eigendecompose`` withholds
the transposition signature, the reference for the right-only route, and
``has_signature`` searches every J for one; ``doubled_graph_gauge`` labels a
doubled graph with scipy's ``connected_components``, the reference for the
real gauge and the blocks of ``_real_form``; ``complex_boost_spinor_series``
takes the spinor boost by ``scipy.linalg.expm``.
"""

import itertools

import numpy as np
import scipy.linalg
from scipy.sparse.csgraph import connected_components

from biortho import spectral
from biortho.fock import Realization, ladder, position_momentum
from biortho.models import pu_mode_scales
from biortho.spectral import SpectrumClassification


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


def greedy_classify(eigenvalues, tol):
    """``classify_spectrum`` by the O(k³) greedy loop: with
    s = max(1, max|E|), levels with |Im E| < tol·s are real, and the
    globally closest pair |E_a − conj(E_b)| still open is taken until none
    is below tol·s."""
    evs = np.asarray(eigenvalues, dtype=complex).ravel()
    order = np.lexsort((evs.imag, evs.real))
    evs = evs[order]
    bound = tol * max(1.0, float(np.max(np.abs(evs))))
    real_mask = np.abs(evs.imag) < bound
    complex_evs = evs[~real_mask]
    complex_pos = order[~real_mask]
    pairs = []
    dist = np.abs(complex_evs[:, None] - np.conj(complex_evs)[None, :])
    np.fill_diagonal(dist, np.inf)
    alive = np.ones(len(complex_evs), dtype=bool)
    while alive.sum() >= 2:
        a, b = np.unravel_index(np.argmin(dist), dist.shape)
        if dist[a, b] >= bound:
            break
        if complex_evs[a].imag < complex_evs[b].imag:
            a, b = b, a
        pairs.append(((complex(complex_evs[a]), complex(complex_evs[b])),
                      (int(complex_pos[a]), int(complex_pos[b]))))
        for idx in (a, b):
            alive[idx] = False
            dist[idx, :] = np.inf
            dist[:, idx] = np.inf
    pairs.sort(key=lambda p: (p[0][0].real, p[0][0].imag))
    return SpectrumClassification(
        real_singles=sorted(evs[real_mask].real.tolist()),
        conjugate_pairs=[values for values, _ in pairs],
        pair_indices=[positions for _, positions in pairs],
        leftovers=sorted((complex(e) for e in complex_evs[alive]),
                         key=lambda e: (e.real, e.imag)),
    )


def full_geev(H):
    """Eigenvalues sorted by (Re, Im) and their condition numbers
    κ_i = ||L_i||·||R_i|| / |<L_i|R_i>|, from one ``geev`` on the whole of
    H, whatever its block structure (real ``dgeev`` for real input)."""
    H = np.asarray(H, dtype=complex)
    A = H if np.any(H.imag) else H.real
    evals, lvecs, rvecs = scipy.linalg.eig(A, left=True, right=True)
    order = np.lexsort((evals.imag, evals.real))
    evals, lvecs, rvecs = evals[order], lvecs[:, order], rvecs[:, order]
    overlaps = np.abs(np.einsum("ki,ki->i", lvecs.conj(), rvecs))
    kappa = np.linalg.norm(lvecs, axis=0) * np.linalg.norm(rvecs, axis=0) / overlaps
    return evals, kappa


def has_signature(H) -> bool:
    """Whether Hᵀ = J·H·J exactly for some J = diag(±1), by trying all 2ⁿ⁻¹
    of them with J_0 = 1 (−J works whenever J does)."""
    n = len(H)
    for signs in itertools.product((1.0, -1.0), repeat=n - 1):
        J = np.array((1.0, *signs))
        if np.array_equal(H.T, J[:, None] * H * J[None, :]):
            return True
    return False


def two_sided_eigendecompose(H):
    """``eigendecompose`` with H's transposition signature withheld, so that
    every block takes the left side from a two-sided ``scipy.linalg.eig``
    instead of from J·R."""
    real_form = spectral._real_form
    spectral._real_form = lambda H: (*real_form(H)[:3], None)
    try:
        return spectral.eigendecompose(H)
    finally:
        spectral._real_form = real_form


def doubled_graph_gauge(H):
    """(odd, blocks): the phases d = i^odd in {1, i}ⁿ, d = 1 at each
    block's smallest index, that make every H_jk·d_k/d_j real (odd is None
    for entrywise-real H and for H with no such d), and the index sets of
    the connected components of H's nonzero pattern, ascending, in order
    of their smallest index.

    Every entry must be purely real or purely imaginary with a real
    diagonal. Node j of a doubled graph stands for d_j = 1 and node n + j
    for d_j = i; a real entry joins j–k and n+j–n+k, an imaginary one
    j–n+k and n+j–k. d exists when no j shares a component with n + j, and
    d_j = i where n + j shares one with the block's smallest index."""
    H = np.asarray(H, dtype=complex)
    n = len(H)
    _, label = connected_components(H != 0, directed=False)
    first = np.unique(label, return_index=True)[1]
    blocks = [np.flatnonzero(label == label[j]) for j in np.sort(first)]
    re, im = H.real != 0, H.imag != 0
    if not im.any() or (re & im).any() or np.diagonal(im).any():
        return None, blocks
    _, doubled = connected_components(np.block([[re, im], [im, re]]), directed=False)
    at_one, at_i = doubled[:n], doubled[n:]
    if (at_one == at_i).any():
        return None, blocks
    # first[label[j]] is the smallest index of j's block
    return at_i == at_one[first[label]], blocks


def complex_boost_spinor_series(basis, i, xi):
    """Spinor boost exp(−ξ·γ⁰γ^i/2) by direct matrix exponential, the
    cross-check of the closed form ``lorentz.complex_boost_spinor``."""
    G = basis.gammas[0] @ basis.gammas[i]
    return scipy.linalg.expm(-complex(xi) / 2.0 * G)
