"""Eigenvector-error predictors and their bootstrap validation.

Two predictors for the expected scaled error n * E||u_i - u_tilde_i||^2:

* ``h_exact_all``: the full double sum over eigenvalue pairs for every index,
  needing all p eigenvalues.
* ``h_hat``: the large-p estimator built only from the eigenvalue, its two
  neighbor gaps, and the bulk density value p*rho(lambda).

``bootstrap_error`` checks either against Monte-Carlo draws from the scaled
Wishart distribution, and ``sample_size_bound`` encodes the n >= h/2 validity
threshold implied by the residual cap ||u - u_tilde||^2 <= 2.

The predictors and the bootstrap take the population's eigenvalues
(ascending, as ``eig_sym`` returns them), never its matrix: the bootstrap
draws each replicate in C's eigenbasis, so it needs no eigenvectors either.
Each checks that spectrum with ``spectral.checked_spectrum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import _checked_int, _scalar_if_0d, checked_spectrum, eig_sym
from .wishart import child_seed, eigenvalue_root, sample_wishart_scaled

# Unused here, but perfbench/spans.py wraps this binding by name.
from .wishart import sqrt_psd  # noqa: F401

__all__ = [
    "BootstrapResult",
    "h_exact_all",
    "h_hat",
    "aligned_residual",
    "replicate_residuals",
    "bootstrap_error",
    "sample_size_bound",
    "regime_violation",
]

_ROW_BLOCK = 512  # h_exact_all's rows per block: its (rows, p) temporaries stay small


@dataclass(frozen=True)
class BootstrapResult:
    """Raw (R, p) residuals, their per-index scaled statistics and crossings.

    ``crossing_count[i]`` counts replicates in which an adjacent sample
    eigenvector matched u_i better than its index partner did, the signature
    of a near-degenerate crossing where index pairing may swap vectors.
    """

    residuals: np.ndarray
    n_mean: np.ndarray
    n_std: np.ndarray
    crossing_count: np.ndarray


def h_exact_all(eigenvalues):
    """All p exact coefficients with the O(p^2) double loop, in row blocks."""
    ev = checked_spectrum(eigenvalues)
    p = ev.size
    out = np.empty(p)
    for start in range(0, p, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, p)
        lam = ev[start:stop, None]
        diff = lam - ev[None, :]
        diff[np.arange(stop - start), np.arange(start, stop)] = np.inf
        out[start:stop] = np.sum(lam * ev[None, :] / diff ** 2, axis=1)
    return out


def h_hat(lam, s_minus, s_plus, p, rho, include_correction=True):
    """Large-p error estimate from local quantities only.

    lam^2 [ (1/s-^2 + 1/s+^2) + p*rho(lam) (1/s- + 1/s+) ]; dropping the
    second bracket gives the nearest-neighbor-only variant
    (include_correction=False). Gaps must be positive (NaN is not), lam must be
    finite, p a positive integer and rho finite and nonnegative (rho = 0 at a
    bulk edge). A float lam or rho stays a float through the arithmetic; it
    gives the same bits as the 0-d or full array of its value.
    """
    _checked_int("p", p, 1)  # a negative p would flip the correction term's sign
    sm = np.asarray(s_minus, dtype=float)
    sp = np.asarray(s_plus, dtype=float)
    # The arrays' own all(): np.all's Python dispatch, some 5 us a call, would be
    # paid on every block of push_h_samples.
    if not ((sm > 0).all() and (sp > 0).all()):
        raise ValueError("gaps must be positive")
    # A float lam or rho (np.float64 is one) stays a float: the products below
    # round as their 0-d forms do, without the 0-d array dispatch that every
    # block of push_h_samples would pay.
    if isinstance(lam, float):
        lam_ok = math.isfinite(lam)
    else:
        lam = np.asarray(lam, dtype=float)
        lam_ok = np.isfinite(lam).all()
    if not lam_ok:
        raise ValueError("lam must be finite")
    if isinstance(rho, float):
        rho_ok = math.isfinite(rho) and rho >= 0
    else:
        rho_checked = np.asarray(rho)
        rho_ok = (np.isfinite(rho_checked) & (rho_checked >= 0)).all()
    if not rho_ok:
        raise ValueError("rho must be finite and nonnegative")
    out = lam * lam * (1.0 / sm ** 2 + 1.0 / sp ** 2)
    if include_correction:
        out = out + lam * lam * p * rho * (1.0 / sm + 1.0 / sp)
    return _scalar_if_0d(out)


def _residual(dots):
    # The one residual formula: ||u - u_tilde||^2 = 2(1 - |<u, u_tilde>|) from
    # the aligned |<u, u_tilde>|, clamped to [0, 2] against rounding.
    return np.clip(2.0 * (1.0 - dots), 0.0, 2.0)


def aligned_residual(u, u_tilde):
    """Squared eigenvector distance 2(1 - |<u, u_tilde>|) after sign alignment.

    Both inputs must be unit-norm within 1e-8; the result is clamped to
    [0, 2] (the bound is exact once the inner product is aligned to be
    nonnegative).
    """
    u = np.asarray(u, dtype=float).ravel()
    ut = np.asarray(u_tilde, dtype=float).ravel()
    if abs(np.linalg.norm(u) - 1.0) > 1e-8 or abs(np.linalg.norm(ut) - 1.0) > 1e-8:
        raise ValueError("inputs must be unit vectors")
    return float(_residual(abs(float(u @ ut))))


def replicate_residuals(root, n, seed):
    """One scaled Wishart replicate in C's eigenbasis: residuals and crossing flags.

    ``root`` is D^(1/2) = ``eigenvalue_root`` of C's ascending eigenvalues.
    W(I, n) is orthogonally invariant (Anderson 1963, Ann. Math. Statist.
    34:122), so with C = U D U^T the draw C_tilde = U S U^T, where
    S = D^(1/2) (A A^T / n) D^(1/2) comes from ``seed``. If S = V L V^T, the
    sample eigenvectors are u_tilde_i = U v_i, and u_j^T u_tilde_i = V_ji.
    Pairing sample and population vectors in sorted-index order, the residual
    is clip(2(1 - |V_ii|), 0, 2), and index i is flagged as a probable
    eigenvalue crossing when an adjacent sample vector matches u_i better
    than u_tilde_i does: |V_i,i-1| or |V_i,i+1| above |V_ii|. U is never
    needed.
    """
    _, v = eig_sym(sample_wishart_scaled(root, n, seed))
    dots = np.abs(np.diagonal(v))
    residuals = _residual(dots)
    # np.diagonal(v, 1)[i] = V_i,i+1 and np.diagonal(v, -1)[i] = V_i+1,i.
    crossing = np.zeros(dots.size, dtype=bool)
    crossing[:-1] |= np.abs(np.diagonal(v, 1)) > dots[:-1]
    crossing[1:] |= np.abs(np.diagonal(v, -1)) > dots[1:]
    return residuals, crossing


def bootstrap_error(eigenvalues, R, n, seed=0):
    """Monte-Carlo estimate of n * E||u_i - u_tilde_i||^2 per index.

    ``eigenvalues`` is the ascending spectrum of the population matrix C.
    Draws R scaled Wishart replicates at sample size n around C in its
    eigenbasis (``child_seed(seed, r)`` for replicate r, so each replicate is
    reproducible in isolation; ``seed`` may itself be a child seed), pairs
    sample eigenvectors with population ones in sorted-index order, and keeps
    each replicate's sign-aligned residuals; see ``replicate_residuals``.
    R and n are integers (a bool is not one), with R >= 1 and n >= p.
    """
    ev = checked_spectrum(eigenvalues)
    _checked_int("replicate count R", R, 1)
    p = ev.size
    if _checked_int("sample count n", n, 1) < p:
        raise ValueError(f"need n >= p, got n={n}, p={p}")
    root = eigenvalue_root(ev)
    residuals = np.empty((R, p))
    crossings = np.zeros(p, dtype=np.int64)
    for r in range(R):
        residuals[r], crossing = replicate_residuals(root, n, child_seed(seed, r))
        crossings += crossing
    scaled = n * residuals
    n_mean = scaled.mean(axis=0)
    n_std = scaled.std(axis=0, ddof=1) if R > 1 else np.zeros(p)
    return BootstrapResult(residuals, n_mean, n_std, crossings)


def _checked_h(h):
    # h as a float array, once every entry is finite and positive.
    h = np.asarray(h, dtype=float)
    # min and max propagate NaN, which fails both comparisons; an empty h passes.
    if h.size and not 0 < h.min() <= h.max() < np.inf:
        raise ValueError("h must be finite and positive")
    return h


def sample_size_bound(h):
    """Minimal admissible sample count n >= h/2 for the error law to hold.

    ``h`` is a scalar (returns a float) or an array.
    """
    return _scalar_if_0d(_checked_h(h) / 2.0)


def regime_violation(n, h):
    """True where the sample count n is below the h/2 validity bound.

    ``h`` is a scalar (returns a bool) or an array (returns a bool array).
    As n is positive, h <= 0 (or NaN) reads False.
    """
    return _scalar_if_0d(n < np.asarray(h, dtype=float) / 2.0)

