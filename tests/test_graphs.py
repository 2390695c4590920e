"""Configuration-model sampling and Laplacian construction."""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

from eigerr import (
    RegularGraph,
    component_count,
    is_connected,
    laplacian,
    sample_regular_graph,
)
from eigerr.graphs import MAX_RESTARTS
from oracles import adjacency_matrix, incidence_matrix, population


def degrees(g):
    return np.bincount(g.edges.ravel(), minlength=g.p)


# The per-pair sampler the array rounds replace, kept as the oracle: it
# draws the same RNG stream and must give the same edges.
def _oracle_suitable(edges, potential):
    if not potential:
        return True
    nodes = list(potential)
    for i, s1 in enumerate(nodes):
        for s2 in nodes[i + 1:]:
            u, v = (s1, s2) if s1 < s2 else (s2, s1)
            if (u, v) not in edges:
                return True
    return False


def _oracle_pairing_attempt(p, k, rng):
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
        if not _oracle_suitable(edges, leftover):
            return None
        stubs = np.array([node for node, cnt in leftover.items() for _ in range(cnt)])
    return edges


def oracle_edges(p, k, seed):
    rng = np.random.default_rng(seed)
    for _ in range(MAX_RESTARTS):
        edges = _oracle_pairing_attempt(p, k, rng)
        if edges is not None:
            return tuple(sorted(edges))
    raise RuntimeError("oracle found no graph")


def oracle_adjacency(p, edges):
    a = np.zeros((p, p))
    for u, v in edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    return a


class TestOracle:
    @pytest.mark.parametrize("p,k", [(1000, 20), (200, 20), (12, 2), (50, 3),
                                     (30, 29), (10, 3), (4, 3)])
    def test_edges_match_per_pair_sampler(self, p, k):
        for seed in range(20):
            g = sample_regular_graph(p, k, seed=seed)
            assert g.edges.dtype == np.int64 and g.edges.shape == (p * k // 2, 2)
            assert np.array_equal(g.edges, np.array(oracle_edges(p, k, seed)))

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(shape=st.integers(2, 24)
           .flatmap(lambda p: st.tuples(st.just(p), st.integers(1, p - 1)))
           .filter(lambda pk: pk[0] * pk[1] % 2 == 0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_edges_and_adjacency_match_oracle(self, shape, seed):
        p, k = shape
        g = sample_regular_graph(p, k, seed=seed)
        expected = oracle_edges(p, k, seed)
        assert np.array_equal(g.edges, np.array(expected).reshape(-1, 2))
        assert np.array_equal(adjacency_matrix(g), oracle_adjacency(p, expected))

    def test_edges_are_read_only(self):
        g = sample_regular_graph(10, 3, seed=0)
        with pytest.raises(ValueError):
            g.edges[0, 0] = 5


class TestSampling:
    def test_pk_odd_rejected(self):
        with pytest.raises(ValueError, match="even"):
            sample_regular_graph(5, 3, seed=0)

    def test_degree_bounds_rejected(self):
        with pytest.raises(ValueError):
            sample_regular_graph(4, 4, seed=0)
        with pytest.raises(ValueError):
            sample_regular_graph(4, 0, seed=0)

    def test_k4_is_unique_3_regular_graph(self):
        # Only one simple 3-regular graph exists on 4 vertices.
        g = sample_regular_graph(4, 3, seed=11)
        assert g.edges.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]

    def test_two_regular_is_cycle_cover(self):
        g = sample_regular_graph(6, 2, seed=5)
        assert (degrees(g) == 2).all()
        assert len(g.edges) == 6
        assert len(np.unique(g.edges, axis=0)) == 6

    def test_determinism(self):
        a = sample_regular_graph(100, 20, seed=42)
        b = sample_regular_graph(100, 20, seed=42)
        assert np.array_equal(a.edges, b.edges)
        c = sample_regular_graph(100, 20, seed=43)
        assert not np.array_equal(a.edges, c.edges)

    @pytest.mark.parametrize("p,k", [(60, 7), (100, 20), (51, 4)])
    def test_degree_histogram_is_point_mass(self, p, k):
        g = sample_regular_graph(p, k, seed=1)
        assert (degrees(g) == k).all()
        # simple graph: no duplicate edges, no self loops
        assert len(np.unique(g.edges, axis=0)) == len(g.edges)
        assert (g.edges[:, 0] != g.edges[:, 1]).all()

    def test_connectivity_diagnostic(self):
        # k >= 3 graphs are connected for nearly every seed (not a hard rule).
        hits = sum(is_connected(sample_regular_graph(100, 3, seed=s)) for s in range(50))
        assert hits >= 49

    def test_two_disjoint_k4_are_disconnected(self):
        k4 = [[u, v] for u in range(4) for v in range(u + 1, 4)]
        edges = np.array(k4 + [[u + 4, v + 4] for u, v in k4])
        g = RegularGraph(p=8, k=3, edges=edges)
        assert (degrees(g) == 3).all()
        assert is_connected(g) is False
        assert is_connected(RegularGraph(p=4, k=3, edges=np.array(k4))) is True


def _scipy_component_count(g):
    # The csgraph route component_count replaces, kept as the oracle.
    u, v = g.edges.T
    adjacency = coo_array((np.ones(u.size), (u, v)), shape=(g.p, g.p))
    return connected_components(adjacency, directed=False)[0]


class TestComponentCount:
    @pytest.mark.parametrize("p,k", [(10, 1), (1000, 1), (12, 2), (200, 2), (1000, 2),
                                     (8, 3), (100, 3), (1000, 3), (50, 4), (1000, 4),
                                     (21, 20), (1000, 20)])
    def test_matches_scipy_on_regular_graphs(self, p, k):
        for seed in range(3):
            g = sample_regular_graph(p, k, seed)
            assert component_count(g) == _scipy_component_count(g)

    def test_disjoint_union_of_two_copies(self):
        for p, k in [(12, 2), (100, 3), (500, 20)]:
            g = sample_regular_graph(p, k, seed=7)
            union = RegularGraph(p=2 * p, k=k, edges=np.vstack([g.edges, g.edges + p]))
            assert component_count(union) == _scipy_component_count(union) \
                == 2 * component_count(g)

    def test_single_long_cycle(self):
        # Path-like labels: min-label propagation alone would need p/2 rounds.
        ring = np.arange(1000)
        edges = np.sort(np.column_stack([ring, np.roll(ring, -1)]), axis=1)
        for order in (edges, edges[::-1], edges[np.random.default_rng(0).permutation(1000)]):
            g = RegularGraph(p=1000, k=2, edges=order)
            assert component_count(g) == _scipy_component_count(g) == 1
            assert is_connected(g) is True

    def test_no_edges(self):
        empty = np.zeros((0, 2), dtype=np.int64)
        for p in (0, 1, 5):
            g = RegularGraph(p=p, k=0, edges=empty)
            assert component_count(g) == _scipy_component_count(g) == p
            assert is_connected(g) is (p <= 1)


class TestLaplacian:
    def test_k4_spectrum(self):
        g = sample_regular_graph(4, 3, seed=0)
        c = laplacian(g)
        # oracle: direct dense eigensolve of the explicitly built 4x4
        direct = np.linalg.eigvalsh(np.diag([3.0] * 4) - (np.ones((4, 4)) - np.eye(4)))
        np.testing.assert_allclose(c.eigenvalues, direct, atol=1e-12)
        np.testing.assert_allclose(c.eigenvalues, [0.0, 4.0, 4.0, 4.0], atol=1e-12)
        assert (np.diag(c.matrix) == 3.0).all()
        off = c.matrix[~np.eye(4, dtype=bool)]
        assert (off == -1.0).all()

    def test_row_sums_zero_and_kernel(self):
        g = sample_regular_graph(80, 6, seed=9)
        c = laplacian(g)
        np.testing.assert_allclose(c.matrix.sum(axis=1), 0.0, atol=1e-12)
        assert c.eigenvalues[0] <= 1e-10
        # constant vector spans the kernel of a connected graph Laplacian
        v0 = c.eigenvectors[:, 0]
        np.testing.assert_allclose(np.abs(v0), 1.0 / np.sqrt(80), atol=1e-8)

    def test_regular_laplacian_is_shifted_adjacency(self):
        g = sample_regular_graph(60, 8, seed=2)
        c = laplacian(g)
        adj_spec = np.linalg.eigvalsh(adjacency_matrix(g))
        np.testing.assert_allclose(np.sort(c.eigenvalues),
                                   np.sort(8.0 - adj_spec), atol=1e-9)

    def test_incidence_reconstruction_exact(self):
        g = sample_regular_graph(40, 5, seed=3)
        x = incidence_matrix(g)
        c = laplacian(g)
        # integer identity: X X^T == D - A with no floating error
        assert (x @ x.T == c.matrix).all()

    def test_population_matrix_invariants(self):
        g = sample_regular_graph(50, 6, seed=4)
        c = laplacian(g)
        p = 50
        assert (np.diff(c.eigenvalues) >= 0).all()
        np.testing.assert_allclose(c.eigenvectors.T @ c.eigenvectors, np.eye(p), atol=1e-8)
        resid = c.matrix @ c.eigenvectors - c.eigenvectors * c.eigenvalues
        norm = np.abs(c.eigenvalues).max()
        assert np.abs(resid).max() <= 1e-8 * norm

    @pytest.mark.parametrize("p, k", [(3, 2), (50, 6), (1000, 20)])
    def test_matrix_equals_degree_minus_adjacency(self, p, k):
        # The one-array assembly against the former np.diag(a.sum(1)) - a, bit
        # for bit (sign bits included: every zero stays +0.0).
        g = sample_regular_graph(p, k, seed=p)
        a = adjacency_matrix(g)
        former = np.diag(a.sum(axis=1)) - a
        c = laplacian(g).matrix
        assert c.tobytes() == former.tobytes()

    def test_population_matrix_from_raw(self):
        m = np.diag([3.0, 1.0, 2.0])
        c = population(m)
        np.testing.assert_allclose(c.eigenvalues, [1.0, 2.0, 3.0])
