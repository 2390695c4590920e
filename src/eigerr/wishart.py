"""Scaled Wishart sampling around a PSD population matrix.

Draws C_tilde ~ W(C, n)/n through the Bartlett decomposition, so the cost is
O(p^2) random variates plus O(p^3) matrix products regardless of n. That
matters because the experiments push n up to 1e10, far past what column-wise
Gaussian simulation can do. Singular C (every graph Laplacian) is handled by
composing with a PSD square root instead of a Cholesky factor.

The root is either a matrix (C^(1/2), from ``sqrt_psd``) or, for a draw in
C's eigenbasis, the 1-D diagonal root D^(1/2) = sqrt(lambda) from
``eigenvalue_root``. W(I, n) is orthogonally invariant, so with C = U D U^T
the draw U^T C_tilde U ~ D^(1/2) W(I, n) D^(1/2) / n needs neither U nor a
dense product with the root.
"""

from __future__ import annotations

import numpy as np

from .spectral import _checked_int, eig_sym

__all__ = [
    "eigenvalue_root",
    "sqrt_psd",
    "sample_wishart_scaled",
    "child_seed",
]


def child_seed(master_seed, *key):
    """Counter-based child seed: reproducible regardless of draw order."""
    # A child seed as master extends its key: child_seed(child_seed(s, a), b)
    # is child_seed(s, a, b).
    if isinstance(master_seed, np.random.SeedSequence):
        return child_seed(master_seed.entropy, *master_seed.spawn_key, *key)
    # A key is refused, never truncated: int(1.5) and int(True) would both be key 1.
    key = tuple(_checked_int("child_seed key", x, 0) for x in key)
    return np.random.SeedSequence(master_seed, spawn_key=key)


def eigenvalue_root(w):
    """Square roots sqrt(max(lambda, 0)) of a PSD matrix's eigenvalues.

    Eigenvalues slightly below zero are clamped to 0 (solver noise on
    singular matrices); anything below -1e-8*max|lambda| means the matrix is
    not PSD and raises, and so does a NaN or infinite eigenvalue. Ties are
    legal.
    """
    w = np.asarray(w, dtype=float)
    norm = np.abs(w).max(initial=0.0)
    if not (np.isfinite(norm) and w.min(initial=0.0) >= -1e-8 * norm):
        raise ValueError(
            f"matrix is not positive semi-definite with finite eigenvalues: "
            f"min {w.min():.3e}, max |lambda| {norm:.3e}"
        )
    return np.sqrt(np.clip(w, 0.0, None))


def sqrt_psd(c):
    """Symmetric PSD square root U diag(sqrt(lambda)) U^T of the array ``c``.

    Eigenvalues are clamped or rejected as in ``eigenvalue_root``.
    """
    w, v = eig_sym(c)
    root = (v * eigenvalue_root(w)) @ v.T
    return (root + root.T) / 2.0


def sample_wishart_scaled(c_sqrt, n, seed):
    """Draw C_tilde ~ W(C, n)/n given a root of C, via the Bartlett construction.

    The Wishart(I_p, n) factor is a lower-triangular A with diagonal entries
    sqrt(chi^2_{n-i+1}) and standard-normal subdiagonal entries; chi^2 with
    huge dof comes from numpy's gamma sampler (valid for arbitrary shape).
    A p x p ``c_sqrt`` is the root R with C = R R^T and the draw is
    R (A A^T / n) R^T; a 1-D ``c_sqrt`` of length p is the diagonal root
    D^(1/2), applied as a row scaling, and the draw is D^(1/2) (A A^T / n)
    D^(1/2), i.e. C_tilde in C's eigenbasis. Requires an integer n in the
    classical regime n >= p. Deterministic per seed: the same seed draws the
    same A for either kind of root. Returns the p x p draw as an array. numpy
    computes B B^T with one SYRK call, which mirrors one triangle, so the
    draw is exactly symmetric.
    """
    c_sqrt = np.asarray(c_sqrt, dtype=float)
    if c_sqrt.ndim not in (1, 2):
        raise ValueError(f"root must be 1-D or 2-D, got shape {c_sqrt.shape}")
    p = c_sqrt.shape[0]
    if _checked_int("sample count n", n, 1) < p:
        raise ValueError(f"need n >= p (classical regime), got n={n}, p={p}")
    rng = np.random.default_rng(seed)
    a = np.zeros((p, p))
    # A boolean mask fills the strict lower triangle in the row-major order of
    # tril_indices, without its two index arrays.
    a[np.tri(p, k=-1, dtype=bool)] = rng.standard_normal(p * (p - 1) // 2)
    dof = n - np.arange(p, dtype=float)
    a[np.diag_indices(p)] = np.sqrt(rng.chisquare(dof))
    if c_sqrt.ndim == 1:
        a *= c_sqrt[:, None]
    else:
        a = c_sqrt @ a
    draw = a @ a.T
    draw /= n
    return draw

