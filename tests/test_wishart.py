"""PSD square root and scaled Wishart sampling via Bartlett."""

import re

import numpy as np
import pytest

from eigerr import laplacian, sample_regular_graph, sqrt_psd
from eigerr.wishart import child_seed, eigenvalue_root, sample_wishart_scaled


class TestSqrtPsd:
    def test_identity(self):
        np.testing.assert_allclose(sqrt_psd(np.eye(4)), np.eye(4), atol=1e-12)

    def test_diagonal(self):
        np.testing.assert_allclose(sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]),
                                   atol=1e-12)

    def test_k4_laplacian_reconstruction(self):
        c = laplacian(sample_regular_graph(4, 3, seed=0))
        root = sqrt_psd(c.matrix)
        norm = np.abs(c.eigenvalues).max()
        assert np.abs(root @ root - c.matrix).max() <= 1e-8 * norm

    def test_small_negative_clamped(self):
        m = np.diag([1.0, -1e-12])
        root = sqrt_psd(m)
        np.testing.assert_allclose(root, np.diag([1.0, 0.0]), atol=1e-10)

    def test_not_psd_rejected(self):
        with pytest.raises(ValueError, match="semi-definite"):
            sqrt_psd(np.diag([1.0, -0.5]))


class TestEigenvalueRoot:
    def test_values_and_clamp(self):
        np.testing.assert_array_equal(eigenvalue_root([-1e-12, 0.0, 4.0, 9.0]),
                                      [0.0, 0.0, 2.0, 3.0])

    def test_not_psd_rejected(self):
        with pytest.raises(ValueError, match="semi-definite"):
            eigenvalue_root([-0.5, 1.0])

    @pytest.mark.parametrize("w", [[np.nan, 1.0], [1.0, np.inf], [-np.inf, 1.0]])
    def test_nonfinite_rejected(self, w):
        # These came back as [nan, 1.] and [1., inf].
        with pytest.raises(ValueError, match="finite"):
            eigenvalue_root(w)

    def test_ties_and_zeros_legal(self):
        np.testing.assert_array_equal(eigenvalue_root(np.ones(3)), np.ones(3))
        np.testing.assert_array_equal(eigenvalue_root(np.zeros(3)), np.zeros(3))
        np.testing.assert_array_equal(eigenvalue_root([]), [])

    def test_diagonal_root_is_a_row_scaling(self):
        # A 1-D root draws D^(1/2) (A A^T / n) D^(1/2) from the same A as the
        # matrix np.diag(root).
        root = eigenvalue_root([0.0, 1.0, 2.0, 5.0])
        for r in range(5):
            seed = child_seed(17, r)
            np.testing.assert_allclose(sample_wishart_scaled(root, 40, seed),
                                       sample_wishart_scaled(np.diag(root), 40, seed),
                                       rtol=1e-14, atol=0.0)

    def test_bad_root_shape_rejected(self):
        # a non-square 2-D root was refused only by matmul, after the draw
        for shape in [(2, 2, 2), (3, 2), (2, 3)]:
            with pytest.raises(ValueError, match=re.escape(f"(p x p), got shape {shape}")):
                sample_wishart_scaled(np.ones(shape), 10, seed=0)


def _former_draw(c_sqrt, n, seed):
    # The Bartlett draw as built before the in-place form: index arrays for the
    # lower triangle and a separate scaled copy of A. Kept as the oracle.
    p = c_sqrt.shape[0]
    rng = np.random.default_rng(seed)
    a = np.zeros((p, p))
    lower = np.tril_indices(p, -1)
    a[lower] = rng.standard_normal(lower[0].size)
    a[np.diag_indices(p)] = np.sqrt(rng.chisquare(n - np.arange(p, dtype=float)))
    b = c_sqrt[:, None] * a if c_sqrt.ndim == 1 else c_sqrt @ a
    return (b @ b.T) / n


class TestBartlettSampling:
    @pytest.mark.parametrize("p", [3, 50, 1000])
    def test_matches_former_form_bitwise(self, p):
        w = np.linspace(0.0, 4.0, p)
        roots = [eigenvalue_root(w)]
        if p <= 50:
            roots.append(sqrt_psd(laplacian(sample_regular_graph(p, 2, seed=1)).matrix))
        for root in roots:
            for n in (p, 10 ** 8):
                draw = sample_wishart_scaled(root, n, child_seed(5, p))
                assert draw.tobytes() == _former_draw(root, n, child_seed(5, p)).tobytes()

    @pytest.mark.parametrize("seed", [np.int64(5), child_seed(5, 1)], ids=["int64", "child"])
    def test_seed_draws_default_rng_stream(self, seed):
        # _former_draw seeds default_rng(seed) itself.
        root = eigenvalue_root(np.linspace(0.0, 4.0, 6))
        assert sample_wishart_scaled(root, 30, seed).tobytes() == _former_draw(root, 30, seed).tobytes()


    def test_n_below_p_rejected(self):
        with pytest.raises(ValueError, match="n >= p"):
            sample_wishart_scaled(np.eye(5), 4, seed=0)

    def test_determinism(self):
        root = sqrt_psd(np.diag([1.0, 2.0, 3.0]))
        a = sample_wishart_scaled(root, 50, seed=9)
        b = sample_wishart_scaled(root, 50, seed=9)
        np.testing.assert_array_equal(a, b)
        c = sample_wishart_scaled(root, 50, seed=10)
        assert np.abs(a - c).max() > 0

    def test_child_seed_order_independent(self):
        # child seeds are keyed, not sequential: replicate 7 is the same
        # whether or not other replicates were drawn first
        root = np.eye(3)
        direct = sample_wishart_scaled(root, 20, child_seed(5, 7))
        for r in (0, 3, 7):
            again = sample_wishart_scaled(root, 20, child_seed(5, r))
        np.testing.assert_array_equal(
            direct, sample_wishart_scaled(root, 20, child_seed(5, 7)))

    def test_child_seed_composes(self):
        # a child seed as master extends its key: bootstrap_error keys its
        # replicates from a child seed that bound-scatter passes in
        np.testing.assert_array_equal(child_seed(child_seed(5, 2, 1), 3).generate_state(4),
                                      child_seed(5, 2, 1, 3).generate_state(4))
        big = 2 ** 70 + 3  # an int master above 64 bits keeps all of its entropy
        np.testing.assert_array_equal(child_seed(child_seed(big, 1), 2).generate_state(4),
                                      child_seed(big, 1, 2).generate_state(4))

    def test_scalar_chi2_moments(self):
        # p=1: C_tilde = c * chi2_n / n
        c, n, reps = 2.5, 50, 10000
        root = sqrt_psd(np.array([[c]]))
        draws = np.array([sample_wishart_scaled(root, n, child_seed(21, r))[0, 0]
                          for r in range(reps)])
        se_mean = c * np.sqrt(2.0 / n) / np.sqrt(reps)
        assert abs(draws.mean() - c) <= 3 * se_mean
        assert abs(draws.var(ddof=1) / (2 * c * c / n) - 1.0) <= 0.10

    def test_concentration_large_n(self):
        g = sample_regular_graph(5, 2, seed=1)
        c = laplacian(g)
        root = sqrt_psd(c.matrix)
        draw = sample_wishart_scaled(root, 10 ** 8, seed=77)
        rel = np.linalg.norm(draw - c.matrix) / np.linalg.norm(c.matrix)
        assert rel <= 1e-3

    def test_psd_every_draw(self):
        c = laplacian(sample_regular_graph(12, 3, seed=6))
        root = sqrt_psd(c.matrix)
        for r in range(50):
            draw = sample_wishart_scaled(root, 20, child_seed(91, r))
            w = np.linalg.eigvalsh(draw)
            assert w.min() >= -1e-10 * max(abs(w).max(), 1.0)
            np.testing.assert_array_equal(draw, draw.T)

    def test_laplacian_kernel_preserved(self):
        # C^(1/2) annihilates the constant vector, so every draw does too
        c = laplacian(sample_regular_graph(30, 4, seed=8))
        root = sqrt_psd(c.matrix)
        ones = np.ones(30)
        for r in range(10):
            draw = sample_wishart_scaled(root, 64, child_seed(15, r))
            rel = np.linalg.norm(draw @ ones) / (
                np.linalg.norm(draw) * np.linalg.norm(ones))
            assert rel <= 1e-7

    def test_unbiased_mean_small(self):
        # elementwise Monte-Carlo mean against the population matrix
        c = laplacian(sample_regular_graph(6, 3, seed=13))
        root = sqrt_psd(c.matrix)
        reps, n = 4000, 12
        draws = np.empty((reps, 6, 6))
        for r in range(reps):
            draws[r] = sample_wishart_scaled(root, n, child_seed(33, r))
        se = draws.std(axis=0, ddof=1) / np.sqrt(reps)
        z = np.abs(draws.mean(axis=0) - c.matrix) / se
        assert z.max() < 4.0

    def test_huge_n_runs(self):
        root = np.eye(3)
        draw = sample_wishart_scaled(root, 10 ** 10, seed=1)
        assert np.abs(draw - np.eye(3)).max() < 1e-4
