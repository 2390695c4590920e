"""Exact and local error predictors, aligned residuals, bootstrap validation."""

import numpy as np
import pytest

from eigerr import (
    aligned_residual,
    bootstrap_error,
    h_exact_all,
    h_hat,
    regime_violation,
    replicate_residuals,
    sample_size_bound,
)
from oracles import h_exact, population


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
        # p = 1000 spans two row blocks of 512; each row matches the oracle.
        ev = np.sort(rng.uniform(0.5, 5.0, size=1000))
        expected = [h_exact(ev, i) for i in range(1, ev.size + 1)]
        np.testing.assert_allclose(h_exact_all(ev), expected, rtol=1e-12, atol=0.0)

    def test_ties_rejected(self):
        # a tie involving the queried eigenvalue divides by zero
        with pytest.raises(ValueError, match="tied"):
            h_exact([1.0, 2.0, 2.0], 2)
        with pytest.raises(ValueError, match="tied"):
            h_exact_all([1.0, 2.0, 2.0])

    def test_index_range(self):
        with pytest.raises(ValueError, match="out of range"):
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

    def test_nan_and_nonfinite_inputs_rejected(self):
        # NaN fails np.any(gap <= 0): a check in that form lets h_hat(20, nan, ...) return nan.
        nan, inf = float("nan"), float("inf")
        for sm, sp in [(nan, 0.1), (0.1, nan), (np.array([0.1, nan]), 0.1)]:
            with pytest.raises(ValueError, match="gaps must be positive"):
                h_hat(20.0, sm, sp, 1000, 0.09)
        # Floats (np.float64 too) and arrays, 0-d or not, take separate checks.
        for lam in (nan, inf, -inf, np.float64(nan), np.array(inf), np.array([20.0, -inf])):
            with pytest.raises(ValueError, match="lam must be finite"):
                h_hat(lam, 0.1, 0.1, 1000, 0.09)
        for rho in (nan, inf, -0.01, -1.0, np.float64(nan), np.array(-1.0),
                    np.array([0.09, nan])):
            with pytest.raises(ValueError, match="rho must be finite and nonnegative"):
                h_hat(20.0, 0.1, 0.1, 1000, rho)
        # rho = 0 at a bulk edge stays legal: the nearest-neighbour terms only.
        assert h_hat(20.0, 0.1, 0.2, 1000, 0.0) == h_hat(20.0, 0.1, 0.2, 1000, 0.09,
                                                         include_correction=False)

    @pytest.mark.parametrize("size", [1, 8192])
    @pytest.mark.parametrize("correction", [True, False])
    def test_float_lam_equals_array_lam(self, rng, size, correction):
        # A float lam or rho is multiplied as a float, an array one as an array:
        # the same IEEE products in the same order, so the values agree bitwise.
        sm, sp = rng.uniform(1e-3, 2.0, size=(2, size))
        lam, rho = 17.3, 0.0693740313
        expected = h_hat(np.full(size, lam), sm, sp, 1000, np.array(rho),
                         include_correction=correction)
        for lam_form in (float, np.float64, np.array):
            for rho_form in (float, np.array):
                np.testing.assert_array_equal(
                    h_hat(lam_form(lam), sm, sp, 1000, rho_form(rho),
                          include_correction=correction), expected, strict=True)
        scalar = h_hat(lam, sm[0], sp[0], 1000, rho, include_correction=correction)
        assert type(scalar) is float and scalar == expected[0]

    @pytest.mark.parametrize("p", [-1000, 0, 1000.5, True])
    def test_p_must_be_a_positive_integer(self, p):
        # p = -1000 flipped the correction term's sign: h_hat read 2.4e6, not 1.36e7.
        for correction in (True, False):
            with pytest.raises(ValueError, match="^p must be a positive integer"):
                h_hat(20.0, 0.01, 0.01, p, 0.07, include_correction=correction)

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
        c = population(np.diag(ev))
        res = bootstrap_error(c.eigenvalues, R=50, n=10 ** 6, seed=31)
        hx = h_exact_all(ev)
        se = res.n_std / np.sqrt(50)
        assert (np.abs(res.n_mean - hx) <= 3.0 * se).all()

    def test_single_replicate_is_identity(self):
        # R=1: the mean is the lone sample, recomputable by hand from the
        # same child seed
        from eigerr.spectral import eig_sym
        from eigerr.wishart import child_seed, sample_wishart_scaled, sqrt_psd

        c = population(np.diag([1.0, 2.0, 4.0]))
        res = bootstrap_error(c.eigenvalues, R=1, n=100, seed=5)
        assert (res.n_std == 0).all()

        draw = sample_wishart_scaled(sqrt_psd(c.matrix), 100, child_seed(5, 0))
        _, v_tilde = eig_sym(draw)
        manual = [100 * aligned_residual(c.eigenvectors[:, i], v_tilde[:, i])
                  for i in range(3)]
        np.testing.assert_allclose(res.n_mean, manual, rtol=1e-12)

    def test_residuals_are_raw(self):
        # residuals[r] is replicate r's unscaled residuals, and the statistics
        # are taken from n * residuals
        ev, n = np.array([1.0, 2.0, 3.5, 5.5, 8.0]), 10 ** 4
        res = bootstrap_error(ev, R=3, n=n, seed=8)
        assert res.residuals.shape == (3, 5)
        assert ((res.residuals >= 0) & (res.residuals <= 2)).all()
        np.testing.assert_array_equal(res.n_mean, (n * res.residuals).mean(axis=0))
        np.testing.assert_array_equal(res.n_std, (n * res.residuals).std(axis=0, ddof=1))

    def test_n_scaling(self):
        # doubling n leaves n * mean residual statistically unchanged
        ev = np.array([1.0, 2.0, 3.5, 5.5, 8.0])
        c = population(np.diag(ev))
        a = bootstrap_error(c.eigenvalues, R=60, n=10 ** 6, seed=8)
        b = bootstrap_error(c.eigenvalues, R=60, n=2 * 10 ** 6, seed=9)
        se = np.sqrt(a.n_std ** 2 + b.n_std ** 2) / np.sqrt(60)
        assert (np.abs(a.n_mean - b.n_mean) <= 4.0 * se).all()

    def test_residual_cap(self):
        c = population(np.diag([1.0, 1.01, 1.02, 1.03]))
        res = bootstrap_error(c.eigenvalues, R=20, n=10, seed=2)
        assert (res.n_mean <= 2.0 * 10).all()

    def test_n_below_p_rejected(self):
        c = population(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]))
        with pytest.raises(ValueError, match="n >= p"):
            bootstrap_error(c.eigenvalues, R=2, n=3, seed=0)

    def test_invalid_config(self):
        with pytest.raises(ValueError, match="replicate"):
            bootstrap_error(np.array([1.0, 2.0]), R=0, n=10)
        with pytest.raises(ValueError, match="positive"):
            bootstrap_error(np.array([1.0, 2.0]), R=1, n=0)

    def test_matrix_or_unsorted_spectrum_rejected(self):
        # The bootstrap reads only C's ascending spectrum; a matrix or a
        # reversed spectrum must not run as if it were one.
        c = population(np.diag([1.0, 2.0, 4.0]))
        with pytest.raises(ValueError, match="1-D"):
            bootstrap_error(c.matrix, R=2, n=100)
        with pytest.raises(ValueError, match="ascending"):
            bootstrap_error(c.eigenvalues[::-1], R=2, n=100)


def _rotated(ev, seed):
    # C = Q diag(ev) Q^T with a Haar-random orthogonal Q, so U != I.
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(ev), len(ev))))
    q = q * np.sign(np.diag(r))
    m = (q * ev) @ q.T
    return population((m + m.T) / 2.0)


class TestEigenbasisBootstrap:
    """Non-diagonal populations, where the eigenbasis and original-basis
    routes differ (for diagonal C they coincide)."""

    EV = np.array([1.0, 1.15, 1.3, 2.0, 2.2, 3.0, 3.1])

    def test_replicate_matches_original_basis(self):
        from eigerr.spectral import eig_sym
        from eigerr.wishart import child_seed, eigenvalue_root, sample_wishart_scaled

        c = _rotated(self.EV, seed=7)
        u = c.eigenvectors
        root = eigenvalue_root(c.eigenvalues)
        crossed = 0
        for r in range(40):
            seed = child_seed(12, r)
            res, crossing = replicate_residuals(root, 30, seed)
            # The identity u_i^T (U v_i) = V_ii ...
            _, v = eig_sym(sample_wishart_scaled(root, 30, seed))
            np.testing.assert_allclose(
                res, [aligned_residual(u[:, i], u @ v[:, i]) for i in range(7)],
                rtol=0.0, atol=1e-10)
            # ... and the same draw A rotated into the original basis:
            # (U D^(1/2)) A A^T (U D^(1/2))^T / n, solved there.
            _, v_full = eig_sym(sample_wishart_scaled(u * root, 30, seed))
            np.testing.assert_allclose(
                res, [aligned_residual(u[:, i], v_full[:, i]) for i in range(7)],
                rtol=0.0, atol=1e-10)
            dots = np.abs(np.einsum("ij,ij->j", u, v_full))
            up = np.abs(np.einsum("ij,ij->j", u[:, :-1], v_full[:, 1:]))
            down = np.abs(np.einsum("ij,ij->j", u[:, 1:], v_full[:, :-1]))
            expected = np.zeros(7, dtype=bool)
            expected[:-1] |= up > dots[:-1]
            expected[1:] |= down > dots[1:]
            np.testing.assert_array_equal(crossing, expected)
            crossed += int(crossing.sum())
        assert crossed > 0  # the close pairs do cross at n = 30

    def test_residual_formula_shared_bit_for_bit(self):
        # Diagonal C (U = I): u_i = e_i, so the eigenbasis residual of each
        # replicate and aligned_residual(e_i, v_i) read the same |V_ii| and
        # must agree exactly, not just to rounding.
        from eigerr.spectral import eig_sym
        from eigerr.wishart import child_seed, eigenvalue_root, sample_wishart_scaled

        root = eigenvalue_root(self.EV)
        eye = np.eye(self.EV.size)
        for r in range(40):
            seed = child_seed(12, r)
            res, _ = replicate_residuals(root, 30, seed)
            _, v = eig_sym(sample_wishart_scaled(root, 30, seed))
            assert res.tolist() == [aligned_residual(eye[i], v[:, i]) for i in range(7)]

    def test_nondiagonal_matches_h_exact(self):
        ev = np.array([1.0, 2.0, 3.5, 5.5, 8.0, 11.0])
        c = _rotated(ev, seed=3)
        res = bootstrap_error(c.eigenvalues, R=50, n=10 ** 6, seed=31)
        hx = h_exact_all(ev)
        se = res.n_std / np.sqrt(50)
        assert (np.abs(res.n_mean - hx) <= 3.0 * se).all()


class TestEigenvaluesOnly:
    """Population matrices carry eigenvalues only; nothing on the laplacian,
    bootstrap or bound-scatter paths computes eigenvectors."""

    @staticmethod
    def _check(c):
        from eigerr.spectral import eig_sym

        assert "eigenvectors" not in vars(c)
        w = eig_sym(c.matrix)[0]
        assert np.abs(c.eigenvalues - w).max() <= 1e-12 * np.abs(w).max()

    def test_laplacian_and_bootstrap(self):
        from eigerr import laplacian, sample_regular_graph

        c = laplacian(sample_regular_graph(60, 6, seed=4))
        self._check(c)
        bootstrap_error(c.eigenvalues, R=2, n=1000, seed=1)
        self._check(c)

    def test_bound_scatter(self, tmp_path, monkeypatch):
        from eigerr import experiments

        built = []
        original = experiments.laplacian

        def recording(g):
            built.append(original(g))
            return built[-1]

        monkeypatch.setattr(experiments, "laplacian", recording)
        experiments.run("bound-scatter", experiments.ExperimentConfig(
            p=60, k=4, M=1, R=2, n=(100, 1000), seed=5, out=tmp_path))
        assert len(built) == 1
        self._check(built[0])

    def test_eigenvectors_on_demand(self):
        c = _rotated(np.array([1.0, 2.0, 4.0, 8.0]), seed=1)
        v = c.eigenvectors
        assert vars(c)["eigenvectors"] is v  # computed once, then cached
        assert np.abs(c.matrix @ v - v * c.eigenvalues).max() <= 1e-12 * 8.0


class TestConvergenceTrend:
    def test_estimate_error_shrinks_with_p(self):
        # with rho taken from the ensemble-averaged density, the median
        # relative error of the local estimate falls as p grows; the floor
        # (~0.17 for this ensemble) is the estimator's intrinsic bias
        from eigerr import estimate_density, laplacian, sample_regular_graph
        from eigerr.wishart import child_seed

        medians = []
        for p in (100, 500, 1000):
            spectra = [laplacian(sample_regular_graph(p, 20, child_seed(404, 0, m))).eigenvalues
                       for m in range(20)]
            density = estimate_density([ev[1:] for ev in spectra])
            per_matrix = []
            for ev in spectra[:5]:
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
        for h in (0.0, -1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="^h must be finite and positive$"):
                sample_size_bound(h)
