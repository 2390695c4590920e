"""Reference implementations the tests check the library against.

None of them is on a pipeline path: ``h_exact`` is the per-index form of
``h_exact_all``'s sum, and the two graph matrices and ``population`` rebuild
what ``laplacian`` assembles in one array.
"""

import numpy as np

from eigerr.graphs import PopulationMatrix
from eigerr.spectral import checked_spectrum, eig_sym


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
