"""Symmetric eigendecomposition, bulk spectral densities, eigengap records,
and the GOE spacing surmises.

A bulk density rho is a function of lambda: McKay's law for the k-regular
Laplacian spectrum (``SpectralDensity.mckay(k)``), or the ensemble-averaged
histogram of ``estimate_density``, whose equal bins tile the pooled range.

The one seam to numpy's bundled OpenBLAS is ``_openblas``: ``eig_sym``'s
vector solve runs its ``dsyevd``, and ``_one_blas_thread`` holds its thread
count at one for `experiments.run` and `experiments.validate`. Under another
BLAS build it is None: numpy's ``eigh`` solves, and nothing is pinned.
Eigenvalues alone come from numpy's ``eigvalsh`` on every build.
"""

from __future__ import annotations

import ctypes
import numbers
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

__all__ = [
    "SpectralDensity",
    "GapRecords",
    "eig_sym",
    "mckay_density",
    "estimate_density",
    "extract_gap_records",
    "wigner_surmise_pdf",
    "wigner_surmise_cdf",
    "joint_gap_pdf",
]

def _scalar_if_0d(out):
    # The one return rule of every public numeric function: a scalar argument
    # (shape ()) gives a Python scalar, an array argument an array of its shape.
    return out.item() if out.ndim == 0 else out


@cache
def _openblas():
    # numpy's bundled OpenBLAS (64-bit LAPACK integers, scipy_-prefixed
    # symbols) as a ctypes library with the signatures of dsyevd and of its
    # thread count's get and set, or None under a BLAS build without all
    # three. Looked up on first use, not on import.
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        if all(hasattr(lib, "scipy_" + name) for name in (
                "dsyevd_64_", "openblas_get_num_threads64_", "openblas_set_num_threads64_")):
            i64 = np.ctypeslib.ndpointer(np.int64, shape=(1,))
            f64 = np.ctypeslib.ndpointer(np.float64, ndim=1)
            lib.scipy_dsyevd_64_.restype = None
            lib.scipy_dsyevd_64_.argtypes = [  # the last two: the lengths of jobz and uplo
                ctypes.c_char_p, ctypes.c_char_p, i64,
                np.ctypeslib.ndpointer(np.float64, ndim=2, flags="F_CONTIGUOUS"), i64,
                f64, f64, i64, np.ctypeslib.ndpointer(np.int64, ndim=1), i64, i64,
                ctypes.c_size_t, ctypes.c_size_t]
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return lib
    return None


_BLAS_PIN = threading.Lock()


@contextmanager
def _one_blas_thread():
    # More BLAS threads split LAPACK's sums differently, which moves the last
    # digits of the eigenvalues, and oversubscribe the cores under a pool.
    # Pinned calls take turns, so that none restores the count while another
    # runs. As a decorator it pins each call anew.
    lib = _openblas()
    if lib is None:
        yield
        return
    with _BLAS_PIN:
        before = lib.scipy_openblas_get_num_threads64_()
        lib.scipy_openblas_set_num_threads64_(1)
        try:
            yield
        finally:
            lib.scipy_openblas_set_num_threads64_(before)


def _dsyevd(lib, a):
    # Eigenvalues of the symmetric F-ordered square a from LAPACK dsyevd on its
    # lower triangle, as numpy's eigh calls it; LAPACK overwrites a with the
    # eigenvectors. The workspace is LAPACK's own query (lwork = liwork = -1),
    # as numpy sizes it: a smaller one that LAPACK accepts can send dsytrd to
    # its unblocked code, and other bits.
    n = np.array([a.shape[0]])
    lda = np.maximum(n, 1)
    w, info = np.empty(a.shape[0]), np.zeros(1, dtype=np.int64)
    work, iwork, query = np.empty(1), np.empty(1, dtype=np.int64), np.array([-1])
    lib.scipy_dsyevd_64_(b"V", b"L", n, a, lda, w, work, query, iwork, query, info, 1, 1)
    work, iwork = np.empty(int(work[0])), np.empty(iwork[0], dtype=np.int64)
    lib.scipy_dsyevd_64_(b"V", b"L", n, a, lda, w, work, np.array([work.size]),
                         iwork, np.array([iwork.size]), info, 1, 1)
    if info[0] > 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return w


def eig_sym(m, eigvals_only=False):
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues ascending and
    eigenvectors as orthonormal columns (column i belongs to eigenvalue i),
    or the eigenvalues alone with ``eigvals_only=True`` (a cheaper solve
    that forms no vectors). A NaN or infinite entry raises ``ValueError``
    naming it. The input must be symmetric to within 1e-10 relative to its
    largest entry; the decomposition is exactly that of (m + m.T)/2, which
    is m itself when m is exactly symmetric.

    The eigenvalues alone are ``np.linalg.eigvalsh``'s on every BLAS build.
    With vectors and numpy's bundled OpenBLAS, LAPACK's dsyevd solves one
    Fortran-ordered copy of the input and writes the eigenvectors over it,
    and that copy is V (so V is F-ordered). With the input and dsyevd's 2p^2
    workspace the solve holds 4p^2 floats, where ``np.linalg.eigh`` holds a
    separate V as well. The workspace is sized as numpy sizes it, so the bits
    are ``np.linalg.eigh``'s; under any other BLAS build ``eigh`` is the
    solve. Non-convergence raises ``np.linalg.LinAlgError``.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        i, j = np.argwhere(~np.isfinite(m))[0]
        raise ValueError(f"matrix entry ({i}, {j}) is {m[i, j]}, not finite")
    if not np.array_equal(m, m.T):
        scale = np.abs(m).max()
        if scale > 0 and np.abs(m - m.T).max() > 1e-10 * scale:
            raise ValueError("matrix is not symmetric within tolerance")
        m = (m + m.T) / 2.0
    if eigvals_only:
        return np.linalg.eigvalsh(m)
    lib = _openblas()
    if lib is None:
        return tuple(np.linalg.eigh(m))
    m = np.array(m, order="F")  # the one copy, which LAPACK overwrites with V
    return _dsyevd(lib, m), m


def _rounding(ev):
    # eps * size * max|lambda|, c = 1 in a symmetric eigensolver's backward
    # error c * eps * p * max|lambda|: rounding can split a repeated
    # eigenvalue by this much.
    return np.finfo(float).eps * ev.size * np.abs(ev).max(initial=0.0)


def _checked_int(name, value, least):
    # value, once it is an integer of at least least (0 or 1); a bool is not a count.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        kind = "positive" if least else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, not {value!r}")
    return value


def mckay_density(lam, k):
    """Bulk spectral density of random k-regular graph adjacency matrices (McKay's law).

    Zero outside |lam| < 2*sqrt(k-1), at +-inf too, and NaN at a NaN lam;
    k must be an integer of at least 2.
    """
    if _checked_int("k", k, 1) < 2:
        raise ValueError("McKay's law requires degree k >= 2")
    lam = np.asarray(lam, dtype=float)
    edge2 = 4.0 * (k - 1.0)
    with np.errstate(over="ignore"):  # a huge |lam| squares to inf: outside
        lam2 = lam * lam
    outside = lam2 >= edge2  # False for NaN, which stays NaN
    lam2 = np.where(outside, 0.0, lam2)
    rho = k * np.sqrt(edge2 - lam2) / (2.0 * np.pi * (k * k - lam2))
    return _scalar_if_0d(np.where(outside, 0.0, rho))


@dataclass(frozen=True)
class SpectralDensity:
    """Empirical bulk density: a histogram, weights[j] on [edges[j], edges[j+1]).

    The last bin is closed, and rho is 0 outside [edges[0], edges[-1]].
    """

    edges: np.ndarray
    weights: np.ndarray

    @staticmethod
    def mckay(k):
        """McKay's law of the k-regular Laplacian k*I - A (the adjacency law is even)."""
        return lambda lam: mckay_density(np.subtract(lam, k), k)

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=float)
        edges = self.edges
        # bin j holds edges[j] <= lam < edges[j+1]; the clip closes the last bin
        j = np.clip(np.searchsorted(edges, lam, side="right") - 1, 0, edges.size - 2)
        outside = (lam < edges[0]) | (lam > edges[-1])  # False for NaN, which stays NaN
        return _scalar_if_0d(np.where(outside, 0.0, np.where(np.isnan(lam), lam, self.weights[j])))


def estimate_density(pools):
    """Ensemble-averaged spectral density from per-matrix eigenvalue pools.

    The mean of the pools' histograms on shared equal bins that end exactly
    at the pooled minimum and maximum. Each histogram has mass 1, so the
    mean has too. One bin rule: the bins are no wider than the
    Freedman-Diaconis width of the pooled sample, 2 IQR / size^(1/3); an
    IQR within rounding (``checked_spectrum``'s tie scale eps * size *
    max|lambda|, here of the pooled sample) counts as zero, and then the
    width is the range over max(10, floor(sqrt(size))). A NaN or infinite
    eigenvalue, a pool of one value, a range or 2 IQR past the float range
    (both before they overflow), or a width that asks for more than 10**6
    bins raises ``ValueError``, the last before any bin is made.
    """
    pools = [np.asarray(pool, dtype=float).ravel() for pool in pools]
    pools = [pool for pool in pools if pool.size]
    if not pools:
        raise ValueError("empty eigenvalue pool")
    pooled = np.concatenate(pools)

    lo, hi = pooled.min(), pooled.max()  # both propagate NaN
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("eigenvalues must be finite")
    if hi == lo:
        raise ValueError("eigenvalues must span an interval")
    # hi - lo (in np.percentile too) and 2 IQR must stay finite; the halves are exact.
    half_max = np.finfo(float).max / 2
    if hi / 2 - lo / 2 > half_max:
        raise ValueError(f"the eigenvalue range [{lo:.6g}, {hi:.6g}] is wider than a float holds")
    q75, q25 = np.percentile(pooled, [75.0, 25.0])
    if q75 - q25 > half_max:
        raise ValueError(f"twice the IQR of the eigenvalue range [{lo:.6g}, {hi:.6g}] "
                         "is more than a float holds")
    iqr = q75 - q25 if q75 - q25 > _rounding(pooled) else 0.0
    bin_width = (2.0 * iqr / pooled.size ** (1.0 / 3.0)
                 or (hi - lo) / max(10, int(np.sqrt(pooled.size))))
    # 10**6 bins, 8 MB of edges and as much per pool, is far above a graph
    # pool's Freedman-Diaconis count (17 for three p=1000, k=20 Laplacians; it
    # grows as size^(1/3)).
    bins = np.ceil((hi - lo) / bin_width)
    if not bins <= 10 ** 6:
        raise ValueError(f"bin width {bin_width:.3g} over the range [{lo:.6g}, {hi:.6g}] asks for "
                         f"{bins:.3g} bins, more than 1000000")

    edges = np.linspace(lo, hi, int(bins) + 1)
    weights = np.mean([np.histogram(pool, bins=edges, density=True)[0] for pool in pools], axis=0)
    return SpectralDensity(edges=edges, weights=weights)


class GapRecords(NamedTuple):
    """Interior eigenvalues with their two-sided neighbor gaps, as columns.

    Four 1-D arrays of one length, one entry per eigenvalue: ``index``
    (1-based), ``lam``, ``s_minus`` = lam_i - lam_(i-1) and ``s_plus`` =
    lam_(i+1) - lam_i. ``zip(*records)`` yields the rows.
    """

    index: np.ndarray
    lam: np.ndarray
    s_minus: np.ndarray
    s_plus: np.ndarray


def checked_spectrum(eigenvalues):
    """The spectrum as a 1-D float array, once it is finite, ascending and simple.

    Every gap statistic here assumes a simple spectrum (h_i diverges as a gap
    closes), so anything else raises ``ValueError``: an array that is not 1-D,
    a NaN or infinite eigenvalue, a descending step, or a tie: a gap of at most
    eps * p * max|lambda|, within which rounding can split a repeated eigenvalue.
    """
    ev = np.asarray(eigenvalues, dtype=float)
    if ev.ndim != 1:
        raise ValueError(f"need a 1-D spectrum, got an array of shape {ev.shape}")
    gaps = np.diff(ev)
    if not (np.isfinite(ev).all() and (gaps >= 0).all()):
        raise ValueError("eigenvalues must be finite and ascending")
    tol = _rounding(ev)
    tied = np.flatnonzero(gaps <= tol)
    if tied.size:
        i = tied[0]  # the first tied pair is lambda_(i+1), lambda_(i+2), 1-based
        raise ValueError(f"tied eigenvalues: lambda_{i + 1} and lambda_{i + 2} are {gaps[i]:.3g} "
                         f"apart, within rounding ({tol:.3g}); spectrum is not simple")
    return ev


def extract_gap_records(eigenvalues, lambda0, delta):
    """Gap records for interior eigenvalues within |lambda_i - lambda0| < delta.

    Only indices with both a left and a right neighbor qualify (2 <= i <= p-1,
    1-based); ``extract_gap_records(ev, 0.0, np.inf)`` gives all of them.
    The spectrum must pass ``checked_spectrum``.
    """
    ev = checked_spectrum(eigenvalues)
    if not (0 < delta <= np.inf and np.isfinite(lambda0)):  # False for NaN too
        raise ValueError("need a finite lambda0 and a positive delta (inf for all)")
    diffs = np.diff(ev)
    inner = ev[1:-1]
    keep = np.abs(inner - lambda0) < delta
    return GapRecords(index=np.flatnonzero(keep) + 2, lam=inner[keep],
                      s_minus=diffs[:-1][keep], s_plus=diffs[1:][keep])


def _gap_scale(p, rho):
    # a = p*rho, the inverse mean gap; the chained test is False for NaN too.
    a = p * rho
    if not 0 < a < np.inf:
        raise ValueError("p * rho must be finite and positive")
    return a


def wigner_surmise_pdf(s, p, rho):
    """Wigner surmise for nearest-neighbor spacings at scale a = p*rho.

    P(s) = (pi a^2 / 2) s exp(-pi a^2 s^2 / 4); mean spacing 1/(p rho).
    """
    a = _gap_scale(p, rho)
    s = np.asarray(s, dtype=float)
    out = np.where(s >= 0, 0.5 * np.pi * a * a * s * np.exp(-0.25 * np.pi * (a * s) ** 2), 0.0)
    return _scalar_if_0d(out)


def wigner_surmise_cdf(s, p, rho):
    """Cumulative form of the Wigner surmise, 1 - exp(-pi (a s)^2 / 4)."""
    a = _gap_scale(p, rho)
    s = np.asarray(s, dtype=float)
    out = np.where(s >= 0, -np.expm1(-0.25 * np.pi * (a * s) ** 2), 0.0)
    return _scalar_if_0d(out)


def gauss_rate(a):
    """Rate b = (3a)^2 / (4 pi) of J's Gaussian factor exp(-b (s-^2 + s+^2 + s- s+))."""
    return 9.0 * a * a / (4.0 * np.pi)


def joint_gap_pdf(s_minus, s_plus, p, rho):
    """Joint density of left/right neighbor gaps, generalized GOE surmise.

    J(s-, s+) = 3^7 a^5 / (32 pi^3) * s+ s- (s+ + s-)
                * exp(-(3a)^2/(4 pi) * [s+^2 + s-^2 + s+ s-]),  a = p*rho.

    The prefactor normalizes the density exactly (verified numerically to
    1e-12), so no renormalization is applied.
    """
    a = _gap_scale(p, rho)
    sm = np.asarray(s_minus, dtype=float)
    sp = np.asarray(s_plus, dtype=float)
    coef = 3.0 ** 7 * a ** 5 / (32.0 * np.pi ** 3)
    b = gauss_rate(a)
    out = coef * sp * sm * (sp + sm) * np.exp(-b * (sp * sp + sm * sm + sp * sm))
    out = np.where((sm >= 0) & (sp >= 0), out, 0.0)
    return _scalar_if_0d(out)

