"""Random k-regular graphs via the configuration model, their Laplacians and
their connected components, all in numpy.

The Laplacian C = D - A of a sampled graph serves as a population covariance
matrix: symmetric, positive semi-definite, sparse in structure, and with
bulk spectral statistics close to the GOE once k is moderately large.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spectral import eig_sym

__all__ = [
    "RegularGraph",
    "PopulationMatrix",
    "sample_regular_graph",
    "laplacian",
    "component_count",
    "is_connected",
]

MAX_RESTARTS = 1000


@dataclass(frozen=True, eq=False)
class RegularGraph:
    """Simple k-regular graph on p vertices.

    ``edges`` is a read-only (E, 2) int64 array, one edge per row with
    u < v, rows in ascending (u, v) order. The generated ``__eq__`` would
    compare arrays elementwise, so graphs compare by identity.
    """

    p: int
    k: int
    edges: np.ndarray


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


def _pairing_attempt(p, k, rng):
    # One configuration-model round per pass: pair the shuffled stubs, keep
    # the first occurrence of each new non-loop pair as an edge, recycle the
    # stubs of the rest (nodes in order of first appearance, each repeated by
    # its count) and repeat. Edge (u, v), u < v, is entry u*p + v of a flat
    # p-by-p table of taken pairs; returns the table, or None on a dead end
    # (no leftover stub pair can form a new edge).
    taken = np.zeros(p * p, dtype=bool)
    stubs = np.repeat(np.arange(p), k)
    while True:
        pairs = np.sort(rng.permutation(stubs).reshape(-1, 2), axis=1)
        u, v = pairs.T
        keys = u * p + v
        first = np.zeros(keys.size, dtype=bool)
        first[np.unique(keys, return_index=True)[1]] = True
        ok = first & (u != v) & ~taken[keys]
        taken[keys[ok]] = True
        left = pairs[~ok].ravel()
        if not left.size:
            return taken
        nodes, at, counts = np.unique(left, return_index=True, return_counts=True)
        iu, iv = np.triu_indices(nodes.size, 1)
        if taken[nodes[iu] * p + nodes[iv]].all():
            return None
        order = np.argsort(at)
        stubs = np.repeat(nodes[order], counts[order])


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
        taken = _pairing_attempt(p, k, rng)
        if taken is not None:
            edges = np.column_stack(np.divmod(np.flatnonzero(taken), p))
            edges.flags.writeable = False
            return RegularGraph(p=p, k=k, edges=edges)
    raise RuntimeError(
        f"could not build a simple {k}-regular graph on {p} vertices "
        f"after {MAX_RESTARTS} restarts"
    )


def laplacian(g):
    """Unnormalized Laplacian C = D - A with its eigenvalues attached."""
    # One array: -1 on both entries of each edge, the degrees on the diagonal.
    c = np.zeros((g.p, g.p))
    u, v = g.edges.T
    c[u, v] = c[v, u] = -1.0
    c[np.diag_indices(g.p)] = np.bincount(g.edges.ravel(), minlength=g.p)
    return PopulationMatrix(matrix=c, eigenvalues=eig_sym(c, eigvals_only=True))


def component_count(g):
    """Number of connected components, isolated vertices included.

    Min-label propagation with pointer jumping on the edge array. Every label
    is a vertex of its own component and starts as the vertex itself. Each
    round hooks the label on one end of every edge to the smaller label on
    the other end, then jumps every label to its label's label until nothing
    moves. At the fixed point the two ends of every edge share a label, and
    each component is labelled by its smallest vertex.
    """
    labels = np.arange(g.p)
    u, v = g.edges.T
    while True:
        lu, lv = labels[u], labels[v]
        if np.array_equal(lu, lv):
            return int(np.count_nonzero(labels == np.arange(g.p)))
        np.minimum.at(labels, np.r_[lu, lv], np.r_[lv, lu])
        while not np.array_equal(jumped := labels[labels], labels):
            labels = jumped


def is_connected(g):
    """Whether the graph has one connected component (``component_count``).

    Disconnected samples are kept but flagged; a graph without vertices
    counts as connected.
    """
    return component_count(g) <= 1
