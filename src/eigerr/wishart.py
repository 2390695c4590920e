"""Scaled Wishart sampling around a PSD population matrix.

Draws C_tilde ~ W(C, n)/n through the Bartlett decomposition, so the cost is
O(p^2) random variates plus O(p^3) matrix products regardless of n. That
matters because the experiments push n up to 1e10, far past what column-wise
Gaussian simulation can do. Singular C (every graph Laplacian) is handled by
composing with a symmetric PSD square root instead of a Cholesky factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import PopulationMatrix
from .spectral import eig_sym

__all__ = [
    "SampleCovariance",
    "sqrt_psd",
    "sample_wishart_scaled",
    "child_seed",
]


@dataclass(frozen=True)
class SampleCovariance:
    """One scaled Wishart draw C_tilde = C^(1/2) (A A^T / n) C^(1/2)."""

    matrix: np.ndarray
    n: int
    parent_seed: object = None


def child_seed(master_seed, *key):
    """Counter-based child seed: reproducible regardless of draw order."""
    return np.random.SeedSequence(master_seed, spawn_key=tuple(int(x) for x in key))


def sqrt_psd(c):
    """Symmetric PSD square root U diag(sqrt(lambda)) U^T.

    Eigenvalues within -1e-10*||C|| of zero are clamped to 0 (solver noise
    on singular matrices); anything below -1e-8*||C|| means the input is
    not PSD and raises.
    """
    if isinstance(c, PopulationMatrix):
        w, v = c.eigenvalues, c.eigenvectors
    else:
        w, v = eig_sym(c)
    norm = np.abs(w).max() if w.size else 0.0
    if norm > 0 and w.min() < -1e-8 * norm:
        raise ValueError(
            f"matrix is not positive semi-definite: min eigenvalue {w.min():.3e}"
        )
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)) @ v.T
    return (root + root.T) / 2.0


def sample_wishart_scaled(c_sqrt, n, seed):
    """Draw C_tilde ~ W(C, n)/n given C^(1/2), via the Bartlett construction.

    The Wishart(I_p, n) factor is a lower-triangular A with diagonal entries
    sqrt(chi^2_{n-i+1}) and standard-normal subdiagonal entries; chi^2 with
    huge dof comes from numpy's gamma sampler (valid for arbitrary shape).
    Requires the classical regime n >= p. Deterministic per seed.
    """
    c_sqrt = np.asarray(c_sqrt, dtype=float)
    p = c_sqrt.shape[0]
    n = int(n)
    if n < p:
        raise ValueError(f"need n >= p (classical regime), got n={n}, p={p}")
    rng = np.random.default_rng(seed)
    a = np.zeros((p, p))
    lower = np.tril_indices(p, -1)
    a[lower] = rng.standard_normal(lower[0].size)
    dof = n - np.arange(p, dtype=float)
    a[np.diag_indices(p)] = np.sqrt(rng.chisquare(dof))
    b = c_sqrt @ a
    mat = (b @ b.T) / n
    mat = (mat + mat.T) / 2.0
    return SampleCovariance(matrix=mat, n=n, parent_seed=seed)

