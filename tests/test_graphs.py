"""Configuration-model sampling and Laplacian construction."""

import numpy as np
import pytest

from eigerr import is_connected, laplacian, population_matrix, sample_regular_graph
from eigerr.graphs import adjacency_matrix, incidence_matrix


def degrees(g):
    deg = np.zeros(g.p, dtype=int)
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    return deg


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
        assert g.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

    def test_two_regular_is_cycle_cover(self):
        g = sample_regular_graph(6, 2, seed=5)
        assert (degrees(g) == 2).all()
        assert len(g.edges) == 6
        assert len(set(g.edges)) == 6

    def test_determinism(self):
        a = sample_regular_graph(100, 20, seed=42)
        b = sample_regular_graph(100, 20, seed=42)
        assert a.edges == b.edges
        c = sample_regular_graph(100, 20, seed=43)
        assert a.edges != c.edges

    @pytest.mark.parametrize("p,k", [(60, 7), (100, 20), (51, 4)])
    def test_degree_histogram_is_point_mass(self, p, k):
        g = sample_regular_graph(p, k, seed=1)
        assert (degrees(g) == k).all()
        # simple graph: no duplicate edges, no self loops
        assert len(set(g.edges)) == len(g.edges)
        assert all(u != v for u, v in g.edges)

    def test_connectivity_diagnostic(self):
        # k >= 3 graphs are connected for nearly every seed (not a hard rule).
        hits = sum(is_connected(sample_regular_graph(100, 3, seed=s)) for s in range(50))
        assert hits >= 49


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

    def test_population_matrix_from_raw(self):
        m = np.diag([3.0, 1.0, 2.0])
        c = population_matrix(m)
        np.testing.assert_allclose(c.eigenvalues, [1.0, 2.0, 3.0])
