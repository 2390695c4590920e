"""Eigensolver contract, density models, gap records, and spacing surmises."""

import numpy as np
import pytest
from scipy import integrate

from eigerr import (
    SpectralDensity,
    eig_sym,
    estimate_density,
    extract_gap_records,
    joint_gap_pdf,
    laplacian,
    mckay_density,
    sample_regular_graph,
    wigner_surmise_cdf,
    wigner_surmise_pdf,
)


class TestEigSym:
    def test_diagonal(self):
        w, v = eig_sym(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(w, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]], atol=1e-14)

    def test_2x2_closed_form(self):
        w, v = eig_sym(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(w, [1.0, 3.0])
        expect = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2)
        for col in range(2):
            got = v[:, col]
            ref = expect[:, col]
            assert min(np.abs(got - ref).max(), np.abs(got + ref).max()) < 1e-12

    @pytest.mark.parametrize("size", [2, 3, 5, 17, 64, 200])
    def test_reconstruction_random(self, size, rng):
        m = rng.standard_normal((size, size))
        m = m + m.T
        w, v = eig_sym(m)
        norm = np.abs(w).max()
        assert np.abs(v @ np.diag(w) @ v.T - m).max() <= 1e-8 * norm
        np.testing.assert_allclose(v.T @ v, np.eye(size), atol=1e-8)
        assert (np.diff(w) >= 0).all()

    def test_rejects_nonsymmetric(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            eig_sym(m)
        with pytest.raises(ValueError, match="symmetric"):
            eig_sym(m, eigvals_only=True)

    def test_eigvals_only(self, rng):
        m = rng.standard_normal((50, 50))
        m = m + m.T
        w = eig_sym(m, eigvals_only=True)
        assert isinstance(w, np.ndarray) and w.shape == (50,)
        full = eig_sym(m)[0]
        assert np.abs(w - full).max() <= 1e-12 * np.abs(full).max()

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            eig_sym(np.ones((2, 3)))

    def test_exactly_symmetric_input_is_solved_as_is(self, rng):
        m = rng.standard_normal((40, 40))
        m = m + m.T
        assert np.array_equal(eig_sym(m, eigvals_only=True), np.linalg.eigvalsh(m))
        w, v = eig_sym(m)
        w_ref, v_ref = np.linalg.eigh(m)
        assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)

    def test_tiny_asymmetry_is_symmetrized(self, rng):
        m = rng.standard_normal((40, 40))
        m = m + m.T
        skewed = m.copy()
        skewed[3, 7] += 1e-12
        sym = (skewed + skewed.T) / 2.0
        assert np.array_equal(eig_sym(skewed, eigvals_only=True), np.linalg.eigvalsh(sym))
        # solving the skewed input as it stands would give other bits
        assert not np.array_equal(np.linalg.eigvalsh(skewed), np.linalg.eigvalsh(sym))

    def test_asymmetry_past_tolerance_raises(self, rng):
        m = rng.standard_normal((40, 40))
        m = m + m.T
        m[3, 7] += 1e-6
        with pytest.raises(ValueError, match="symmetric"):
            eig_sym(m, eigvals_only=True)


def _shifted_mckay(lam, k, shift):
    # McKay's law evaluated at lam - shift, as mckay_density computed it while
    # it took a shift: the oracle that SpectralDensity.mckay(k) must match.
    mu = np.asarray(lam, dtype=float) - shift
    edge2 = 4.0 * (k - 1.0)
    inside = mu * mu < edge2
    mu_in = np.where(inside, mu, 0.0)
    out = np.where(
        inside,
        k * np.sqrt(edge2 - mu_in * mu_in) / (2.0 * np.pi * (k * k - mu_in * mu_in)),
        0.0,
    )
    return out.item() if out.ndim == 0 else out


class TestMcKay:
    def test_center_value(self):
        # at the band center the law evaluates to 2*sqrt(19)/(40*pi)
        expect = 2.0 * np.sqrt(19.0) / (40.0 * np.pi)
        assert mckay_density(0.0, 20) == pytest.approx(expect, rel=1e-12)
        assert SpectralDensity.mckay(20)(20.0) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 20, 100])
    def test_laplacian_law_is_the_shifted_law_bit_for_bit(self, k):
        # a grid through both edges k -+ 2 sqrt(k-1), their neighboring floats,
        # the center and points beyond the support on both sides
        half = 2.0 * np.sqrt(k - 1.0)
        edges = np.array([k - half, k + half])
        grid = np.concatenate([np.linspace(k - 1.5 * half, k + 1.5 * half, 1001), edges,
                               np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
        d = SpectralDensity.mckay(k)
        np.testing.assert_array_equal(d(grid), _shifted_mckay(grid, k, float(k)), strict=True)
        for lam in grid[-6:].tolist() + [float(k), 0.0]:
            np.testing.assert_array_equal(d(lam), _shifted_mckay(lam, k, float(k)), strict=True)
            assert type(d(lam)) is float

    def test_outside_support_zero(self):
        edge = 2.0 * np.sqrt(19.0)
        assert mckay_density(edge + 0.1, 20) == 0.0
        assert mckay_density(-edge - 0.1, 20) == 0.0
        assert mckay_density(edge, 20) == 0.0  # support endpoint

    def test_normalization(self):
        k = 20
        edge = 2.0 * np.sqrt(k - 1.0)
        total, _ = integrate.quad(lambda x: mckay_density(x, k), -edge, edge)
        assert abs(total - 1.0) < 1e-6

    def test_requires_k_at_least_2(self):
        with pytest.raises(ValueError):
            mckay_density(0.0, 1)

    def test_density_object_support(self):
        # zero at and beyond the edges k -+ 2 sqrt(k-1), positive just inside. An
        # edge is its nearest float outside the support: where k -+ 2 sqrt(k-1)
        # rounds inward, the next float outward.
        for k in (2, 3, 20, 100):
            d = SpectralDensity.mckay(k)
            half = 2.0 * np.sqrt(k - 1.0)
            for edge, outward in ((k - half, -1.0), (k + half, 1.0)):
                if abs(edge - k) < half:
                    edge = np.nextafter(edge, outward * np.inf)
                assert d(edge) == 0.0
                for beyond in (1e-9, 1e-3, 1.0, half):
                    assert d(edge + outward * beyond) == 0.0
                assert d(edge - outward * 1e-6) > 0.0
            assert d(float(k)) > 0.0
            assert d(0.0) == 0.0


def _mass(d):
    # The histogram's total mass, sum of weight times bin width.
    return float(np.sum(d.weights * np.diff(d.edges)))


class TestEstimateDensity:
    def test_degenerate_pool(self):
        # one value has no density; refused before the bin width is judged
        # (Freedman-Diaconis and its fallback both give 0 here)
        for bin_width in (None, 0.5):
            with pytest.raises(ValueError, match="eigenvalues must span an interval"):
                estimate_density([np.zeros(40)], bin_width=bin_width)

    @pytest.mark.parametrize("pool", [[0.0, 1.0], [0.0, 0.5, 1.0]])
    def test_span_of_one_bin_width(self, pool):
        # hi - lo == bin_width makes one bin, closed at both ends: density 1
        d = estimate_density([np.array(pool)], bin_width=1.0)
        np.testing.assert_array_equal(d.edges, [0.0, 1.0])
        np.testing.assert_array_equal(d.weights, [1.0])
        assert d(0.0) == d(0.5) == d(1.0) == 1.0
        assert abs(_mass(d) - 1.0) < 1e-12

    def test_zero_iqr_bin_width_fallback(self):
        # Freedman-Diaconis gives 0 here (IQR 0): the width becomes the range
        # over max(10, sqrt(size)) bins, and the mass is still 1
        d = estimate_density([np.array([0.0] * 40 + [1.0, 3.0])])
        np.testing.assert_allclose(np.diff(d.edges), 0.3, rtol=1e-12)
        assert abs(_mass(d) - 1.0) < 1e-12

    def test_bins_tile_the_pooled_range(self, rng):
        # equal bins no wider than bin_width, ending exactly at min and max
        pools = [rng.normal(size=50), rng.normal(size=70)]
        d = estimate_density(pools, bin_width=0.3)
        pooled = np.concatenate(pools)
        assert (d.edges[0], d.edges[-1]) == (pooled.min(), pooled.max())
        widths = np.diff(d.edges)
        assert widths.max() <= 0.3
        np.testing.assert_allclose(widths, widths[0], rtol=1e-9)
        assert d.weights.size == int(np.ceil(np.ptp(pooled) / 0.3))

    def test_averaging_idempotence(self):
        ev = np.linspace(0.0, 5.0, 60)
        one = estimate_density([ev], bin_width=0.5)
        two = estimate_density([ev, ev], bin_width=0.5)
        grid = np.linspace(-1.0, 6.0, 200)
        np.testing.assert_allclose(one(grid), two(grid), atol=1e-12)

    def test_integrates_to_one_exactly(self, rng):
        # each pool's histogram has mass 1 on the shared bins, so their mean has
        pools = [rng.normal(size=300) for _ in range(4)]
        d = estimate_density(pools)
        assert abs(_mass(d) - 1.0) < 1e-12

    def test_zero_outside_support(self, rng):
        d = estimate_density([rng.uniform(0, 1, size=500)])
        assert d(-0.5) == 0.0
        assert d(1.5) == 0.0
        assert np.isnan(d(np.nan))  # no number for a NaN lambda

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            estimate_density([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("bin_width", [None, 0.5])
    def test_non_finite_eigenvalue_rejected(self, bad, bin_width):
        # refused by name, with no RuntimeWarning on the way (warnings are errors)
        pools = [np.linspace(0.0, 5.0, 60), np.array([1.0, bad, 2.0])]
        with pytest.raises(ValueError, match="eigenvalues must be finite"):
            estimate_density(pools, bin_width=bin_width)

    @pytest.mark.parametrize("bin_width", [0.0, -0.5, np.nan, np.inf])
    def test_bin_width_must_be_positive_and_finite(self, bin_width):
        with pytest.raises(ValueError, match="bin width must be positive and finite"):
            estimate_density([np.linspace(0.0, 5.0, 60)], bin_width=bin_width)

    def test_l1_against_mckay_bulk(self):
        # ensemble-averaged histogram converges to the shifted McKay law
        mats = [laplacian(sample_regular_graph(500, 20, seed=s)) for s in range(50)]
        pools = [m.eigenvalues[1:] for m in mats]  # drop the zero outlier
        d = estimate_density(pools, bin_width=0.25)
        lo = 20.0 - 2.0 * np.sqrt(19.0)
        hi = 20.0 + 2.0 * np.sqrt(19.0)
        grid = np.linspace(lo, hi, 4001)
        l1 = np.trapezoid(np.abs(d(grid) - SpectralDensity.mckay(20)(grid)), grid)
        assert l1 <= 0.08


class TestGapRecords:
    def test_arithmetic_progression(self):
        recs = extract_gap_records([1.0, 2.0, 3.0, 4.0], 2.5, 1.0)
        assert list(zip(recs.index, recs.s_minus, recs.s_plus)) == \
            [(2, 1.0, 1.0), (3, 1.0, 1.0)]

    def test_window_outside_spectrum(self):
        assert extract_gap_records([1.0, 2.0, 3.0], 10.0, 0.5).index.size == 0

    def test_direct_differences(self):
        recs = extract_gap_records([0.0, 1.0, 1.1, 4.0], 1.05, 0.2)
        assert recs.index.size == 2
        assert recs.lam[0] == pytest.approx(1.0)
        assert (recs.s_minus[0], recs.s_plus[0]) == (1.0, pytest.approx(0.1))
        assert recs.lam[1] == pytest.approx(1.1)
        assert (recs.s_minus[1], recs.s_plus[1]) == (pytest.approx(0.1), 2.9)

    def test_boundary_indices_excluded(self):
        recs = extract_gap_records([1.0, 2.0, 3.0], 2.0, 10.0)
        assert recs.index.tolist() == [2]
        # delta = inf is the all-interior call
        assert extract_gap_records([1.0, 2.0, 3.0, 4.0], 0.0, np.inf).index.tolist() == [2, 3]

    def test_ties_rejected(self):
        with pytest.raises(ValueError, match="tied eigenvalues: lambda_2 and lambda_3 are 0 apart"):
            extract_gap_records([1.0, 2.0, 2.0, 3.0], 2.0, 5.0)
        # A tie is a gap within eps * p * max|lambda|, here 12 eps: 12 ulps of
        # 1.0 is tied, 13 ulps is simple.
        eps = np.finfo(float).eps
        with pytest.raises(ValueError, match="lambda_2 and lambda_3 are 2.66e-15 apart"):
            extract_gap_records([0.0, 1.0, 1.0 + 12 * eps, 3.0], 2.0, 5.0)
        assert extract_gap_records([0.0, 1.0, 1.0 + 13 * eps, 3.0], 2.0, 5.0).index.tolist() == [2, 3]

    def test_nonpositive_delta_rejected(self):
        # NaN passes a bare `delta <= 0` test, and a NaN lambda0 gave empty records.
        for lambda0, delta in ((2.0, 0.0), (2.0, -1.0), (2.0, np.nan), (np.nan, 1.0),
                               (np.inf, 1.0), (-np.inf, np.inf)):
            with pytest.raises(ValueError, match="finite lambda0 and a positive delta"):
                extract_gap_records([1.0, 2.0, 3.0], lambda0, delta)


class TestWignerSurmise:
    def test_level_repulsion_at_zero(self):
        assert wigner_surmise_pdf(0.0, 100, 0.1) == 0.0

    def test_normalization(self):
        a = 100 * 0.1
        total, _ = integrate.quad(lambda s: wigner_surmise_pdf(s, 100, 0.1), 0, 50 / a)
        assert abs(total - 1.0) < 1e-9

    def test_mean_gap(self):
        # analytic moment of the surmise equals 1/(p rho)
        p, rho = 100, 0.1
        a = p * rho
        mean, _ = integrate.quad(lambda s: s * wigner_surmise_pdf(s, p, rho), 0, 60 / a)
        assert mean == pytest.approx(1.0 / a, rel=1e-9)

    def test_cdf_matches_pdf(self):
        p, rho = 37, 0.21
        for s in (0.01, 0.1, 0.3):
            num, _ = integrate.quad(lambda x: wigner_surmise_pdf(x, p, rho), 0, s)
            assert wigner_surmise_cdf(s, p, rho) == pytest.approx(num, rel=1e-9)

    def test_rescaling_invariance(self):
        # s -> c s with rho -> rho/c leaves P(s)*s invariant
        p, rho, s, c = 50, 0.2, 0.08, 3.7
        lhs = wigner_surmise_pdf(s, p, rho) * s
        rhs = wigner_surmise_pdf(c * s, p, rho / c) * c * s
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_invalid_scale(self):
        # NaN passes a bare `a <= 0` test and inf made the cdf 1.0.
        for surmise in (wigner_surmise_pdf, wigner_surmise_cdf):
            for rho in (0.0, -0.1, np.nan, np.inf):
                with pytest.raises(ValueError, match="finite and positive"):
                    surmise(1.0, 10, rho)


class TestJointSurmise:
    def test_invalid_scale(self):
        for rho in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                joint_gap_pdf(1.0, 1.0, 10, rho)

    def test_vanishes_on_axes(self):
        assert joint_gap_pdf(0.0, 1.0, 10, 0.1) == 0.0
        assert joint_gap_pdf(1.0, 0.0, 10, 0.1) == 0.0

    def test_symmetry(self):
        v1 = joint_gap_pdf(0.3, 0.9, 10, 0.1)
        v2 = joint_gap_pdf(0.9, 0.3, 10, 0.1)
        assert v1 == pytest.approx(v2, rel=1e-14)

    def test_normalization_2d(self):
        # 2-D quadrature oracle; the constant turns out exactly normalizing
        p, rho = 10, 0.1
        hi = 12.0 / (p * rho)
        total, err = integrate.dblquad(
            lambda x, y: joint_gap_pdf(x, y, p, rho), 0, hi, 0, hi)
        assert abs(total - 1.0) < 1e-3
        assert abs(total - 1.0) < 1e-9  # no renormalization needed

    def test_rescaled_constant(self):
        # equivalent dimensionless form: integral of uv(u+v)e^{-(u^2+v^2+uv)}
        val, _ = integrate.dblquad(
            lambda u, v: u * v * (u + v) * np.exp(-(u * u + v * v + u * v)),
            0, 12, 0, 12)
        assert val == pytest.approx(np.sqrt(np.pi) / 9.0, rel=1e-7)

    def test_rescaling_invariance(self):
        p, rho, c = 40, 0.15, 2.3
        u, v = 0.1, 0.25
        lhs = joint_gap_pdf(u, v, p, rho) * (u + v) ** 2
        rhs = joint_gap_pdf(c * u, c * v, p, rho / c) * (c * u + c * v) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_marginal_unimodal(self):
        p, rho = 10, 0.1
        a = p * rho
        vgrid = np.linspace(1e-4 / a, 8 / a, 120)
        marginal = [integrate.quad(lambda u: joint_gap_pdf(u, v, p, rho),
                                   0, 14 / a)[0] for v in vgrid]
        marginal = np.array(marginal)
        mode = marginal.argmax()
        assert 0 < mode < marginal.size - 1
        assert (np.diff(marginal[:mode + 1]) > 0).all()
        assert (np.diff(marginal[mode:]) < 0).all()
