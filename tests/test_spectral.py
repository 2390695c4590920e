"""Eigensolver contract, density models, gap records, and spacing surmises."""

import re
import tracemalloc
from types import SimpleNamespace

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
    spectral,
    sqrt_psd,
    wigner_surmise_cdf,
    wigner_surmise_pdf,
)
from eigerr.wishart import child_seed, eigenvalue_root, sample_wishart_scaled


@pytest.fixture(scope="module")
def solver_cases():
    # name -> matrix: the p=1000 population and sample solves of the runs,
    # small random symmetric matrices, and one that takes the symmetrizing branch
    rng = np.random.default_rng(2024)
    c = laplacian(sample_regular_graph(1000, 20, child_seed(3, 0, 0)))
    root = eigenvalue_root(c.eigenvalues)
    cases = {"laplacian": c.matrix,
             "wishart-1e3": sample_wishart_scaled(root, 10 ** 3, child_seed(3, 1, 0)),
             "wishart-1e10": sample_wishart_scaled(root, 10 ** 10, child_seed(3, 1, 1))}
    for size in (1, 2, 3, 50):
        m = rng.standard_normal((size, size))
        cases[f"symmetric-{size}"] = m + m.T
    skewed = cases["symmetric-50"].copy()
    skewed[3, 7] += 1e-12
    cases["near-symmetric"] = skewed
    return cases


def _without_openblas(monkeypatch):
    monkeypatch.setattr(spectral, "_openblas", lambda: None)


def _needs_openblas():
    if spectral._openblas() is None:
        pytest.skip("numpy's BLAS is not its bundled OpenBLAS")


class TestEigSym:
    @pytest.mark.parametrize("path", ["lapack", "numpy"])
    @pytest.mark.parametrize("case", ["laplacian", "wishart-1e3", "wishart-1e10", "symmetric-1",
                                      "symmetric-2", "symmetric-3", "symmetric-50",
                                      "near-symmetric"])
    def test_bits_equal_numpy(self, solver_cases, case, path, monkeypatch):
        # eig_sym gives np.linalg.eigh's and eigvalsh's bits of the symmetrized
        # input, on the LAPACK path and on the numpy fallback alike.
        if path == "lapack":
            _needs_openblas()
        else:
            _without_openblas(monkeypatch)
        m = solver_cases[case]
        sym = m if np.array_equal(m, m.T) else (m + m.T) / 2.0
        w, v = eig_sym(m)
        w_ref, v_ref = np.linalg.eigh(sym)
        assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)
        assert np.array_equal(eig_sym(m, eigvals_only=True), np.linalg.eigvalsh(sym))
        if path == "lapack":  # V is the solved copy itself
            assert v.flags.f_contiguous

    def test_nonconvergence_raises(self, monkeypatch, rng):
        _needs_openblas()
        real = spectral._openblas()

        def failing(*args):
            real.scipy_dsyevd_64_(*args)
            args[10][0] = 1  # info, as dsyevd sets it when it does not converge

        monkeypatch.setattr(spectral, "_openblas",
                            lambda: SimpleNamespace(scipy_dsyevd_64_=failing))
        m = rng.standard_normal((10, 10))
        # eigenvalues alone come from np.linalg.eigvalsh, which raises its own
        with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
            eig_sym(m + m.T)

    @pytest.mark.parametrize("path", ["lapack", "numpy"])
    @pytest.mark.parametrize("bad, where", [
        ([[np.nan, 1.0], [1.0, 0.0]], r"entry \(0, 0\) is nan"),
        ([[np.inf, 1.0], [1.0, 0.0]], r"entry \(0, 0\) is inf"),
        ([[0.0, 1.0], [-np.inf, 0.0]], r"entry \(1, 0\) is -inf"),
    ], ids=["nan", "inf", "off-diagonal"])
    def test_non_finite_entry_refused(self, bad, where, path, monkeypatch):
        # At the parent the NaN case solved to finite eigenvalues +-sqrt(2).
        if path == "numpy":
            _without_openblas(monkeypatch)
        for eigvals_only in (False, True):
            with pytest.raises(ValueError, match=f"{where}, not finite"):
                eig_sym(bad, eigvals_only=eigvals_only)
        with pytest.raises(ValueError, match=f"{where}, not finite"):
            sqrt_psd(bad)

    def test_one_buffer_for_the_solve(self, rng):
        # The F-ordered copy that LAPACK overwrites with V, and dsyevd's
        # (1 + 6p + 2p^2)-float workspace: 3p^2 + O(p) floats of traced
        # allocation. A second copy or a separate V adds p^2 more.
        _needs_openblas()
        p = 400
        m = rng.standard_normal((p, p))
        m = m + m.T
        eig_sym(m)  # the lookup, outside the trace
        tracemalloc.start()
        try:
            eig_sym(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (3 * p * p + 20 * p)

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

    def test_nan_in_nan_out(self, rng):
        # Both densities: no number for a NaN lambda, 0 at -+inf and at -+1e200,
        # whose square is past the float range, and no RuntimeWarning on the
        # way (warnings are errors).
        lam = np.array([np.nan, -np.inf, np.inf, -1e200, 1e200, 20.0])
        for d in (lambda x: mckay_density(np.subtract(x, 20.0), 20), SpectralDensity.mckay(20),
                  estimate_density([rng.uniform(15.0, 25.0, size=500)])):
            out = d(lam)
            assert np.isnan(out[0]) and (out[1:5] == 0.0).all() and out[5] > 0.0
            assert np.isnan(d(np.nan))
            assert [d(x) for x in lam[1:5].tolist()] == [0.0] * 4

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
        with pytest.raises(ValueError, match="eigenvalues must span an interval"):
            estimate_density([np.zeros(40)])

    @pytest.mark.parametrize("pool", [[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 0.5, 1.0, 1.0]])
    def test_span_of_one_bin_width(self, pool):
        # IQR 1: the Freedman-Diaconis widths, 2 / 4^(1/3) = 1.26 and
        # 2 / 5^(1/3) = 1.17, are wider than the range, which makes one bin,
        # closed at both ends: density 1
        d = estimate_density([np.array(pool)])
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

    def test_iqr_within_rounding_counts_as_zero(self):
        # Two disjoint K_4 less one zero mode: the six-fold eigenvalue 4 comes
        # back split by rounding, here by 2 ulps. The IQR, 2.7e-15, lies within
        # eps * size * max|lambda| = 6.2e-15, so it counts as zero: the range
        # fallback makes 10 bins of 0.4, where Freedman-Diaconis asks 1.4e15.
        split = 2 * np.spacing(4.0)
        pool = np.array([0.0, 4.0 - split, 4.0 - split, 4.0, 4.0, 4.0 + split, 4.0 + split])
        assert np.subtract(*np.percentile(pool, [75.0, 25.0])) == 1.5 * split
        d = estimate_density([pool])
        np.testing.assert_allclose(np.diff(d.edges), 0.4, rtol=1e-12)
        assert d.edges.size == 11 and abs(_mass(d) - 1.0) < 1e-12

    def test_bin_count_is_bounded(self):
        # A tight cluster and one far value: Freedman-Diaconis asks 1.3e11
        # bins, or 1.05e6 for a looser cluster. Each is refused by its count
        # before any bin is made; 524,196 bins are still made.
        def clustered(span, far):
            return [np.concatenate([np.linspace(0.0, span, 20), [far]])]

        for span, far, count in ((2e-8, 1000.0, "1.31e+11"), (2.5e-6, 1.0, "1.05e+06")):
            with pytest.raises(ValueError, match=rf"asks for {re.escape(count)} bins, more than 1000000"):
                estimate_density(clustered(span, far))
        assert estimate_density(clustered(5e-6, 1.0)).weights.size == 524_196

    def test_bins_tile_the_pooled_range(self, rng):
        # equal bins no wider than the Freedman-Diaconis width of the pooled
        # sample, ending exactly at min and max
        pools = [rng.normal(size=50), rng.normal(size=70)]
        d = estimate_density(pools)
        pooled = np.concatenate(pools)
        width = 2.0 * np.subtract(*np.percentile(pooled, [75.0, 25.0])) / pooled.size ** (1.0 / 3.0)
        assert (d.edges[0], d.edges[-1]) == (pooled.min(), pooled.max())
        widths = np.diff(d.edges)
        assert widths.max() <= width
        np.testing.assert_allclose(widths, widths[0], rtol=1e-9)
        assert d.weights.size == int(np.ceil(np.ptp(pooled) / width))

    def test_averaging_idempotence(self):
        # the mean over two copies of a pool is the histogram of the two
        # concatenated, bit for bit: both pool the same sample, so share
        # their bins, and doubling every count moves no density
        ev = np.linspace(0.0, 5.0, 60)
        two = estimate_density([ev, ev])
        joined = estimate_density([np.concatenate([ev, ev])])
        np.testing.assert_array_equal(two.edges, joined.edges)
        np.testing.assert_array_equal(two.weights, joined.weights)

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
    def test_non_finite_eigenvalue_rejected(self, bad):
        # refused by name, with no RuntimeWarning on the way (warnings are errors)
        pools = [np.linspace(0.0, 5.0, 60), np.array([1.0, bad, 2.0])]
        with pytest.raises(ValueError, match="eigenvalues must be finite"):
            estimate_density(pools)

    @pytest.mark.parametrize("pools, message", [
        ([[-1e308, 1e308]], r"range \[-1e\+308, 1e\+308\] is wider than a float holds"),
        ([[-1e308], [1e308]], r"range \[-1e\+308, 1e\+308\] is wider than a float holds"),
        ([[0.0, 0.0, 1.7e308, 1.7e308]], r"twice the IQR of the eigenvalue range \[0, 1.7e\+308\]"),
        ([[-8e307, 8e307]], None),
        ([[0.0, 1.7e308]], None),
    ], ids=["range", "range-two-pools", "iqr", "wide-range-runs", "wide-iqr-runs"])
    def test_overflowing_range_rejected(self, pools, message):
        # refused by name before the overflow (warnings are errors); a range
        # whose width arithmetic stays finite runs, on the whole range
        if message is None:
            density = estimate_density(pools)
            assert density.edges[0] == min(map(min, pools))
            assert density.edges[-1] == max(map(max, pools))
            assert np.isfinite(density.weights).all()
        else:
            with pytest.raises(ValueError, match=message):
                estimate_density(pools)

    def test_l1_against_mckay_bulk(self):
        # ensemble-averaged histogram converges to the shifted McKay law
        mats = [laplacian(sample_regular_graph(500, 20, seed=s)) for s in range(50)]
        pools = [m.eigenvalues[1:] for m in mats]  # drop the zero outlier
        d = estimate_density(pools)
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
