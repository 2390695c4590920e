"""Exact and local error predictors, aligned residuals, bootstrap validation."""

import numpy as np
import pytest

from eigerr import (
    BootstrapConfig,
    aligned_residual,
    bootstrap_error,
    h_exact,
    h_exact_all,
    h_hat,
    population_matrix,
    regime_violation,
    sample_size_bound,
)


class TestHExact:
    def test_two_term_case(self):
        assert h_exact([1.0, 2.0], 1) == pytest.approx(2.0)

    def test_middle_of_three(self):
        # direct summation: 2*1/1 + 2*3/1 = 8
        assert h_exact([1.0, 2.0, 3.0], 2) == pytest.approx(8.0)

    def test_first_of_three(self):
        # 1*2/1 + 1*4/9 = 22/9
        assert h_exact([1.0, 2.0, 4.0], 1) == pytest.approx(22.0 / 9.0)

    def test_matches_bruteforce(self, rng):
        ev = np.sort(rng.uniform(1.0, 10.0, size=40))
        for i in (1, 7, 40):
            brute = sum(ev[i - 1] * ev[j] / (ev[i - 1] - ev[j]) ** 2
                        for j in range(40) if j != i - 1)
            assert h_exact(ev, i) == pytest.approx(brute, rel=1e-12)

    def test_all_matches_single(self, rng):
        ev = np.sort(rng.uniform(0.5, 5.0, size=30))
        alls = h_exact_all(ev)
        for i in range(1, 31):
            assert alls[i - 1] == pytest.approx(h_exact(ev, i), rel=1e-12)

    def test_all_chunking(self, rng):
        ev = np.sort(rng.uniform(0.5, 5.0, size=23))
        np.testing.assert_allclose(h_exact_all(ev, chunk=4), h_exact_all(ev, chunk=100))

    def test_ties_rejected(self):
        # a tie involving the queried eigenvalue divides by zero
        with pytest.raises(ValueError, match="tied"):
            h_exact([1.0, 2.0, 2.0], 2)
        with pytest.raises(ValueError, match="tied"):
            h_exact_all([1.0, 2.0, 2.0])

    def test_index_range(self):
        with pytest.raises(ValueError):
            h_exact([1.0, 2.0], 3)


class TestHHat:
    def test_zero_density_matches_three_point_exact(self):
        # with no bulk correction only the neighbors count; coincides with
        # the exact three-eigenvalue case (1,2,3) at i=2
        assert h_hat(2.0, 1.0, 1.0, 100, 0.0) == pytest.approx(8.0)
        assert h_hat(2.0, 1.0, 1.0, 100, 0.0) == pytest.approx(h_exact([1, 2, 3], 2))

    def test_corrected_evaluation(self):
        # lam^2 [(1+1) + 1*(1+1)] = 4 * 4 = 16
        assert h_hat(2.0, 1.0, 1.0, 1, 1.0) == pytest.approx(16.0)

    def test_small_gap_divergence(self):
        lam = 2.0
        for sp in (1e-3, 1e-5, 1e-7):
            val = h_hat(lam, 1.0, sp, 10, 0.1)
            assert val == pytest.approx(lam * lam / sp ** 2, rel=1e-2)

    def test_symmetry(self):
        assert h_hat(3.0, 0.2, 0.9, 50, 0.3) == pytest.approx(h_hat(3.0, 0.9, 0.2, 50, 0.3))

    def test_monotone_in_gaps(self):
        base = h_hat(3.0, 0.2, 0.5, 50, 0.3)
        assert h_hat(3.0, 0.25, 0.5, 50, 0.3) < base
        assert h_hat(3.0, 0.2, 0.55, 50, 0.3) < base

    def test_correction_dominance(self):
        args = (3.0, 0.2, 0.5, 50, 0.3)
        assert h_hat(*args, include_correction=True) > h_hat(*args, include_correction=False)
        args0 = (3.0, 0.2, 0.5, 50, 0.0)
        assert h_hat(*args0, include_correction=True) == \
            pytest.approx(h_hat(*args0, include_correction=False))

    def test_nonpositive_gap_rejected(self):
        with pytest.raises(ValueError, match="gap"):
            h_hat(2.0, 0.0, 1.0, 10, 0.1)

    def test_vectorized(self):
        sm = np.array([0.5, 1.0])
        sp = np.array([0.5, 2.0])
        out = h_hat(2.0, sm, sp, 10, 0.1)
        assert out.shape == (2,)
        assert out[0] == pytest.approx(h_hat(2.0, 0.5, 0.5, 10, 0.1))


class TestAlignedResidual:
    def test_identical(self):
        u = np.ones(4) / 2.0
        assert aligned_residual(u, u) == 0.0

    def test_sign_flip(self):
        u = np.ones(4) / 2.0
        assert aligned_residual(u, -u) == 0.0

    def test_orthogonal(self):
        e1 = np.eye(3)[:, 0]
        e2 = np.eye(3)[:, 1]
        assert aligned_residual(e1, e2) == 2.0

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            aligned_residual(np.ones(3), np.eye(3)[:, 0])

    def test_bounds_and_flip_invariance(self, rng):
        for _ in range(200):
            u = rng.standard_normal(7)
            v = rng.standard_normal(7)
            u /= np.linalg.norm(u)
            v /= np.linalg.norm(v)
            r = aligned_residual(u, v)
            assert 0.0 <= r <= 2.0
            assert aligned_residual(-u, -v) == pytest.approx(r)
            assert aligned_residual(u, -v) == pytest.approx(r)


class TestBootstrap:
    def test_diagonal_matches_h_exact(self):
        # well-separated spectrum, huge n: the asymptotic law is tight
        ev = np.array([1.0, 2.0, 3.5, 5.5, 8.0, 11.0])
        c = population_matrix(np.diag(ev))
        cfg = BootstrapConfig(R=50, n=10 ** 6, seed=31)
        res = bootstrap_error(c, cfg)
        hx = h_exact_all(ev)
        se = res.n_std / np.sqrt(cfg.R)
        assert (np.abs(res.n_mean - hx) <= 3.0 * se).all()

    def test_single_replicate_is_identity(self):
        # R=1: the mean is the lone sample, recomputable by hand from the
        # same child seed
        from eigerr.spectral import eig_sym
        from eigerr.wishart import child_seed, sample_wishart_scaled, sqrt_psd

        c = population_matrix(np.diag([1.0, 2.0, 4.0]))
        cfg = BootstrapConfig(R=1, n=100, seed=5)
        res = bootstrap_error(c, cfg)
        assert (res.n_std == 0).all()

        draw = sample_wishart_scaled(sqrt_psd(c), 100, child_seed(5, 0))
        _, v_tilde = eig_sym(draw.matrix)
        manual = [100 * aligned_residual(c.eigenvectors[:, i], v_tilde[:, i])
                  for i in range(3)]
        np.testing.assert_allclose(res.n_mean, manual, rtol=1e-12)

    def test_n_scaling(self):
        # doubling n leaves n * mean residual statistically unchanged
        ev = np.array([1.0, 2.0, 3.5, 5.5, 8.0])
        c = population_matrix(np.diag(ev))
        a = bootstrap_error(c, BootstrapConfig(R=60, n=10 ** 6, seed=8))
        b = bootstrap_error(c, BootstrapConfig(R=60, n=2 * 10 ** 6, seed=9))
        se = np.sqrt(a.n_std ** 2 + b.n_std ** 2) / np.sqrt(60)
        assert (np.abs(a.n_mean - b.n_mean) <= 4.0 * se).all()

    def test_residual_cap(self):
        c = population_matrix(np.diag([1.0, 1.01, 1.02, 1.03]))
        cfg = BootstrapConfig(R=20, n=10, seed=2)
        res = bootstrap_error(c, cfg)
        assert (res.n_mean <= 2.0 * cfg.n).all()

    def test_n_below_p_rejected(self):
        c = population_matrix(np.eye(5))
        with pytest.raises(ValueError):
            bootstrap_error(c, BootstrapConfig(R=2, n=3, seed=0))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            BootstrapConfig(R=0, n=10)


class TestConvergenceTrend:
    def test_estimate_error_shrinks_with_p(self):
        # with rho taken from the ensemble-averaged density, the median
        # relative error of the local estimate falls as p grows; the floor
        # (~0.17 for this ensemble) is the estimator's intrinsic bias
        from eigerr import estimate_density, laplacian, sample_regular_graph
        from eigerr.wishart import child_seed

        medians = []
        for p in (100, 500, 1000):
            mats = [laplacian(sample_regular_graph(p, 20, child_seed(404, 0, m)))
                    for m in range(20)]
            density = estimate_density([m.eigenvalues[1:] for m in mats])
            per_matrix = []
            for c in mats[:5]:
                ev = c.eigenvalues
                lam, sm, sp = ev[1:-1], np.diff(ev)[:-1], np.diff(ev)[1:]
                hx = h_exact_all(ev)[1:-1]
                hh = h_hat(lam, sm, sp, p, density(lam))
                per_matrix.append(np.median(np.abs(hh / hx - 1.0)))
            medians.append(float(np.median(per_matrix)))
        assert medians[0] > medians[1] > medians[2]


class TestBound:
    def test_values(self):
        assert sample_size_bound(2.0) == 1.0
        assert sample_size_bound(1e6) == 5e5

    def test_violation_flag(self):
        assert regime_violation(10, 30.0)
        assert not regime_violation(1000, 30.0)

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            sample_size_bound(0.0)
