"""Symmetric eigendecomposition, bulk spectral densities, eigengap records,
and the GOE spacing surmises.

Densities come in two flavors: the analytic McKay law for k-regular graph
spectra (``SpectralDensity.mckay`` shifts it by k, so it applies to Laplacian
rather than adjacency eigenvalues) and an empirical ensemble-averaged
histogram with linear interpolation between bin centers.
"""

from __future__ import annotations

from dataclasses import dataclass
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

SYMMETRY_RTOL = 1e-10


def _scalar_if_0d(out):
    # The one return rule of every public numeric function: a scalar argument
    # (shape ()) gives a Python scalar, an array argument an array of its shape.
    return out.item() if out.ndim == 0 else out


def eig_sym(m, eigvals_only=False):
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues ascending and
    eigenvectors as orthonormal columns, or the eigenvalues alone with
    ``eigvals_only=True`` (a cheaper solve that forms no vectors).
    The input must be symmetric to within 1e-10 relative to its largest
    entry; the decomposition is exactly that of (m + m.T)/2, which is m
    itself when m is exactly symmetric (then no copy is made).
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.array_equal(m, m.T):
        scale = np.abs(m).max()
        if scale > 0 and np.abs(m - m.T).max() > SYMMETRY_RTOL * scale:
            raise ValueError("matrix is not symmetric within tolerance")
        m = (m + m.T) / 2.0
    if eigvals_only:
        return np.linalg.eigvalsh(m)
    w, v = np.linalg.eigh(m)
    return w, v


def mckay_density(lam, k, shift=0.0):
    """Bulk spectral density of random k-regular graphs (McKay's law).

    Evaluated at mu = lam - shift; with shift = k this gives the bulk
    density of the k-regular Laplacian spectrum, since L = k*I - A and the
    adjacency law is symmetric about 0. Zero outside |mu| <= 2*sqrt(k-1).
    """
    if k < 2:
        raise ValueError("McKay's law requires degree k >= 2")
    mu = np.asarray(lam, dtype=float) - shift
    edge2 = 4.0 * (k - 1.0)
    inside = mu * mu < edge2
    mu_in = np.where(inside, mu, 0.0)
    return _scalar_if_0d(np.where(
        inside,
        k * np.sqrt(edge2 - mu_in * mu_in) / (2.0 * np.pi * (k * k - mu_in * mu_in)),
        0.0,
    ))


@dataclass(frozen=True)
class SpectralDensity:
    """Evaluable bulk density rho(lambda), analytic or empirical.

    kind is "analytic-mckay" (parameters k, shift) or "empirical"
    (grid of bin centers, density weights, bandwidth = bin width).
    Evaluates to 0 outside `support`.
    """

    kind: str
    support: tuple[float, float]
    k: int | None = None
    shift: float | None = None
    grid: np.ndarray | None = None
    weights: np.ndarray | None = None
    bandwidth: float | None = None

    @classmethod
    def mckay(cls, k):
        """Analytic McKay density of the k-regular Laplacian spectrum (shift k)."""
        shift = float(k)
        half = 2.0 * np.sqrt(k - 1.0)
        return cls(kind="analytic-mckay", support=(shift - half, shift + half),
                   k=int(k), shift=shift)

    def __call__(self, lam):
        if self.kind == "analytic-mckay":
            return mckay_density(lam, self.k, self.shift)
        return _scalar_if_0d(np.interp(lam, self.grid, self.weights, left=0.0, right=0.0))


def estimate_density(pools, bin_width=None):
    """Ensemble-averaged spectral density from per-matrix eigenvalue pools.

    Each pool contributes a normalized histogram on a shared grid; the
    per-matrix histograms are averaged and the piecewise-linear interpolant
    through the bin centers is rescaled so it integrates to exactly 1.
    Default bin width follows the Freedman-Diaconis rule on the pooled
    sample.
    """
    pools = [np.asarray(pool, dtype=float).ravel() for pool in pools]
    pools = [pool for pool in pools if pool.size]
    if not pools:
        raise ValueError("empty eigenvalue pool")
    pooled = np.concatenate(pools)

    lo, hi = pooled.min(), pooled.max()
    if bin_width is None:
        q75, q25 = np.percentile(pooled, [75.0, 25.0])
        iqr = q75 - q25
        bin_width = 2.0 * iqr / pooled.size ** (1.0 / 3.0)
        if bin_width <= 0:
            bin_width = (hi - lo) / max(10, int(np.sqrt(pooled.size))) or 1.0
    if bin_width <= 0:
        raise ValueError("bin width must be positive")

    if hi - lo < bin_width:
        # Degenerate pool: a flat table of mass 1 over one bin width around the data.
        centers = 0.5 * (lo + hi) + bin_width * np.array([-0.5, 0.5])
        weights = np.full(2, 1.0 / bin_width)
    else:
        nbins = int(np.ceil((hi - lo) / bin_width))
        edges = lo + bin_width * np.arange(nbins + 1)
        edges[-1] = max(edges[-1], hi)  # guard against float shortfall
        hists = [np.histogram(pool, bins=edges, density=True)[0] for pool in pools]
        weights = np.mean(hists, axis=0)
        centers = 0.5 * (edges[:-1] + edges[1:])
        total = np.trapezoid(weights, centers)
        if total <= 0:
            raise ValueError("degenerate histogram: zero total mass")
        weights = weights / total
    return SpectralDensity(
        kind="empirical", support=(float(centers[0]), float(centers[-1])),
        grid=centers, weights=weights, bandwidth=float(bin_width),
    )


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
    a NaN or infinite eigenvalue, a descending step, or a tie (a gap of
    exactly 0).
    """
    ev = np.asarray(eigenvalues, dtype=float)
    if ev.ndim != 1:
        raise ValueError(f"need a 1-D spectrum, got an array of shape {ev.shape}")
    gaps = np.diff(ev)
    if not (np.isfinite(ev).all() and (gaps >= 0).all()):
        raise ValueError("eigenvalues must be finite and ascending")
    if not gaps.all():
        raise ValueError("tied eigenvalues: spectrum is not simple")
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

