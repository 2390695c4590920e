"""Random k-regular graphs via the configuration model and their Laplacians.

The Laplacian C = D - A of a sampled graph serves as a population covariance
matrix: symmetric, positive semi-definite, sparse in structure, and with
bulk spectral statistics close to the GOE once k is moderately large.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spectral import eig_sym

__all__ = [
    "RegularGraph",
    "PopulationMatrix",
    "sample_regular_graph",
    "adjacency_matrix",
    "incidence_matrix",
    "laplacian",
    "population_matrix",
    "is_connected",
]

MAX_RESTARTS = 1000


@dataclass(frozen=True)
class RegularGraph:
    """Simple k-regular graph on p vertices; edges are sorted (u, v) pairs."""

    p: int
    k: int
    edges: tuple
    seed: int | None = None


@dataclass(frozen=True)
class PopulationMatrix:
    """Symmetric PSD matrix with its sorted eigenvalues attached.

    Every predictor needs only the eigenvalues, and the bootstrap samples in
    the matrix's eigenbasis, so no eigenvectors are computed up front.
    ``eigenvectors`` solves for them on first access (a second, full solve)
    and caches them; it serves tests as a reference.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray

    @cached_property
    def eigenvectors(self):
        """Orthonormal eigenvector columns, in the order of ``eigenvalues``."""
        return eig_sym(self.matrix)[1]


def _suitable(edges, potential):
    # Any pair of leftover stubs that could still form a new edge?
    if not potential:
        return True
    nodes = list(potential)
    for i, s1 in enumerate(nodes):
        for s2 in nodes[i + 1:]:
            u, v = (s1, s2) if s1 < s2 else (s2, s1)
            if (u, v) not in edges:
                return True
    return False


def _pairing_attempt(p, k, rng):
    # One configuration-model round: pair stubs, recycle collisions, repeat.
    # Returns None on a dead end (no leftover stub pair can form a new edge).
    edges = set()
    stubs = np.repeat(np.arange(p), k)
    while stubs.size:
        stubs = rng.permutation(stubs)
        leftover = defaultdict(int)
        pairs = stubs.reshape(-1, 2)
        for s1, s2 in pairs:
            u, v = (int(s1), int(s2)) if s1 < s2 else (int(s2), int(s1))
            if u != v and (u, v) not in edges:
                edges.add((u, v))
            else:
                leftover[u] += 1
                leftover[v] += 1
        if not leftover:
            return edges
        if not _suitable(edges, leftover):
            return None
        stubs = np.array([node for node, cnt in leftover.items() for _ in range(cnt)])
    return edges


def sample_regular_graph(p, k, seed):
    """Sample a simple k-regular graph on p vertices (configuration model).

    Stub pairing with recycling of collided stubs; a full restart happens
    only when no leftover pair can form a new edge. Deterministic per seed.
    Requires p > k >= 1 and p*k even.
    """
    p, k = int(p), int(k)
    if k < 1 or p <= k:
        raise ValueError(f"need p > k >= 1, got p={p}, k={k}")
    if (p * k) % 2 != 0:
        raise ValueError(f"p*k must be even, got p={p}, k={k}")
    rng = np.random.default_rng(seed)
    for _ in range(MAX_RESTARTS):
        edges = _pairing_attempt(p, k, rng)
        if edges is not None:
            return RegularGraph(p=p, k=k, edges=tuple(sorted(edges)),
                                seed=seed if isinstance(seed, int) else None)
    raise RuntimeError(
        f"could not build a simple {k}-regular graph on {p} vertices "
        f"after {MAX_RESTARTS} restarts"
    )


def adjacency_matrix(g):
    """Dense 0/1 adjacency matrix."""
    a = np.zeros((g.p, g.p))
    for u, v in g.edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    return a


def incidence_matrix(g):
    """Signed vertex-by-edge incidence matrix with arbitrary edge orientation.

    Satisfies X @ X.T == D - A exactly, which is the Laplacian identity
    used as a reconstruction check.
    """
    x = np.zeros((g.p, len(g.edges)))
    for e, (u, v) in enumerate(g.edges):
        x[u, e] = 1.0
        x[v, e] = -1.0
    return x


def laplacian(g):
    """Unnormalized Laplacian C = D - A with its eigenvalues attached."""
    a = adjacency_matrix(g)
    c = np.diag(a.sum(axis=1)) - a
    return population_matrix(c)


def population_matrix(matrix):
    """Wrap a symmetric matrix with its sorted eigenvalues."""
    return PopulationMatrix(matrix=np.asarray(matrix, dtype=float),
                            eigenvalues=eig_sym(matrix, eigvals_only=True))


def is_connected(g):
    """BFS connectivity check; disconnected samples are kept but flagged."""
    if g.p == 0:
        return True
    neighbors = defaultdict(list)
    for u, v in g.edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    seen = np.zeros(g.p, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        node = stack.pop()
        for nxt in neighbors[node]:
            if not seen[nxt]:
                seen[nxt] = True
                stack.append(nxt)
    return bool(seen.all())

