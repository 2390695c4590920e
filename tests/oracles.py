"""Reference implementations the tests check the library against.

None of them is on a pipeline path: ``h_exact`` is the per-index form of
``h_exact_all``'s sum, and the two graph matrices and ``population`` rebuild
what ``laplacian`` assembles in one array. ``model_cdf_grid`` and
``hist_l1`` are criterion 5's comparison of an h pool with f_H, and
``poisson_spectrum`` is a population with no level repulsion.
"""

import numpy as np

from eigerr.graphs import PopulationMatrix
from eigerr.hdensity import f_H
from eigerr.spectral import SpectralDensity, checked_spectrum, eig_sym
from eigerr.wishart import child_seed


def h_exact(eigenvalues, i):
    """Exact error coefficient sum_{j != i} lam_i lam_j / (lam_i - lam_j)^2.

    ``i`` is 1-based.
    """
    ev = checked_spectrum(eigenvalues)
    p = ev.size
    if not 1 <= i <= p:
        raise ValueError(f"index {i} out of range 1..{p}")
    lam = ev[i - 1]
    diff = lam - ev
    diff[i - 1] = np.inf
    return float(np.sum(lam * ev / diff ** 2))


def adjacency_matrix(g):
    """Dense 0/1 adjacency matrix."""
    a = np.zeros((g.p, g.p))
    u, v = g.edges.T
    a[np.r_[u, v], np.r_[v, u]] = 1.0
    return a


def incidence_matrix(g):
    """Signed vertex-by-edge incidence matrix with arbitrary edge orientation.

    Satisfies X @ X.T == D - A exactly, which is the Laplacian identity
    used as a reconstruction check.
    """
    x = np.zeros((g.p, len(g.edges)))
    x[g.edges.T, np.arange(len(g.edges))] = [[1.0], [-1.0]]
    return x


def population(m):
    """Wrap a symmetric matrix with its sorted eigenvalues, as ``laplacian`` does."""
    m = np.asarray(m, dtype=float)
    return PopulationMatrix(matrix=m, eigenvalues=eig_sym(m, eigvals_only=True))


def model_cdf_grid(params, h_lo, h_hi, n=600):
    """Fine-grid cumulative of f_H (single-route: density only)."""
    grid = np.geomspace(h_lo, h_hi, n)
    fh = np.array([f_H(h, params) for h in grid])
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (fh[1:] + fh[:-1]) * np.diff(grid))])
    return grid, cum


def hist_l1(samples, grid, cum, nbins=30):
    """L1 distance between a sample histogram and the f_H bin masses."""
    bins = np.geomspace(np.quantile(samples, 0.005), np.quantile(samples, 0.995),
                        nbins + 1)
    counts, _ = np.histogram(samples, bins=bins)
    p_emp = counts / samples.size
    p_mod = np.diff(np.interp(bins, grid, cum))
    return float(np.abs(p_emp - p_mod).sum() + abs(p_emp.sum() - p_mod.sum()))


def poisson_spectrum(p, k, seed):
    """A "Poisson" spectrum with the k-regular Laplacian's density: the zero
    mode, then p - 1 sorted iid draws from McKay's law, by inverse CDF.

    Its levels are uncorrelated (Berry & Tabor 1977), so its gaps show no
    repulsion: the negative control of the GOE spacing assumption.
    """
    edge = 2.0 * np.sqrt(k - 1.0)
    grid = np.linspace(k - edge, k + edge, 20_001)
    rho = SpectralDensity.mckay(k)(grid)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (rho[1:] + rho[:-1]) * np.diff(grid))])
    draws = np.random.default_rng(child_seed(seed)).random(p - 1) * cdf[-1]
    return np.concatenate([[0.0], np.sort(np.interp(draws, cdf, grid))])
