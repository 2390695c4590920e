"""Semi-analytical density of the local error estimate: roots, quadrature,
tail law, and the Monte-Carlo pushforward oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize, special, stats
from scipy.integrate import quad

from eigerr import SpectralDensity, h_hat, joint_gap_pdf
from eigerr import hdensity
from eigerr.experiments import _fh_grid, _joint_cell_masses
from eigerr.hdensity import (
    _MC_BLOCK,
    F_H,
    HDensityParams,
    _erfc,
    _fixed_rule,
    _half_arc_rule,
    _upper_mass,
    ds_star_dh,
    f_H,
    f_H_mass,
    h_min_scale,
    phi,
    push_h_samples,
    s0,
    s_star,
    sample_joint_gaps,
    tail_integral,
    tail_report,
)
from eigerr.spectral import gauss_rate
from eigerr.wishart import child_seed

UNIT = HDensityParams(lam=2.0, p=4, rho=0.25)  # a = 1, dimensionless workhorse
# Reference point of the fh-density and tail experiments: McKay_20 at lam=20.
LAM20 = HDensityParams(lam=20.0, p=1000, rho=SpectralDensity.mckay(20)(20.0))


def params_grid():
    # (lam, a) spread over three orders of magnitude via (p, rho) pairs
    return [
        HDensityParams(lam=0.5, p=3, rho=0.1),
        UNIT,
        HDensityParams(lam=20.0, p=1000, rho=0.0693740313),
    ]


class TestParams:
    def test_caches_a(self):
        assert UNIT.a == 1.0

    def test_rejects_bad_values(self):
        nan, inf = float("nan"), float("inf")
        # A NaN rho would make f_H and F_H read 0.0 for every h.
        for lam, p, rho in [(0.0, 4, 0.25), (1.0, 4, 0.0), (1.0, 10, nan), (nan, 4, 0.25),
                            (inf, 4, 0.25), (-inf, 4, 0.25), (1.0, 4, inf)]:
            with pytest.raises(ValueError, match="positive"):
                HDensityParams(lam=lam, p=p, rho=rho)
        # p and rho are checked apart: p = -1000, rho = -0.01 gives a = 10, but
        # tail_report's plateau carries p^3 and would flip its sign.
        for p, rho, name in [(-1000, -0.01, "p"), (0, 0.25, "p"), (0.5, 1.0, "p"),
                             (1000.0, 0.01, "p"), (4, -0.25, "rho"), (4, -inf, "rho")]:
            with pytest.raises(ValueError, match=f"^{name} must be .*positive"):
                HDensityParams(lam=1.0, p=p, rho=rho)
        assert HDensityParams(lam=1.0, p=np.int64(4), rho=0.25).a == 1.0


class TestS0:
    def test_closed_form_anchor(self):
        # root-finding oracle on the defining equation lam^2/s^2 + a lam^2/s = h
        val = s0(5.0, UNIT)
        assert val == pytest.approx(0.4 * (1.0 + np.sqrt(6.0)), rel=1e-12)
        root = optimize.brentq(lambda s: 4.0 / s ** 2 + 4.0 / s - 5.0, 1e-6, 100.0)
        assert val == pytest.approx(root, rel=1e-10)
        assert 4.0 / val ** 2 + 4.0 / val == pytest.approx(5.0, rel=1e-12)

    def test_zero_density_limit(self):
        # a -> 0 gives s0 = lam / sqrt(h)
        near0 = HDensityParams(lam=2.0, p=4, rho=1e-12)
        assert s0(25.0, near0) == pytest.approx(2.0 / 5.0, rel=1e-6)

    def test_monotone_to_zero(self):
        hs = np.geomspace(0.1, 1e9, 40)
        vals = [s0(h, UNIT) for h in hs]
        assert (np.diff(vals) < 0).all()
        assert vals[-1] < 1e-4

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            s0(0.0, UNIT)

    def test_elementwise_over_arrays(self):
        # s0, s_star and ds_star_dh take array h (and s+) elementwise, like f_H.
        h = 16.0 * np.geomspace(0.01, 1e6, 12).reshape(3, 4)
        sp = s0(h, UNIT) * np.linspace(1.01, 40.0, 12).reshape(3, 4)
        assert type(s0(16.0, UNIT)) is float and type(s_star(16.0, 1.0, UNIT)) is float
        np.testing.assert_array_equal(s0(h, UNIT), np.vectorize(lambda v: s0(v, UNIT))(h))
        np.testing.assert_array_equal(s_star(h, sp, UNIT),
                                      np.vectorize(lambda v, w: s_star(v, w, UNIT))(h, sp))
        np.testing.assert_allclose(ds_star_dh(h, sp, UNIT),
                                   np.vectorize(lambda v, w: ds_star_dh(v, w, UNIT))(h, sp),
                                   rtol=4 * np.finfo(float).eps, atol=0.0)
        sp[1, 2] = 0.99 * s0(h[1, 2], UNIT)
        for func in (s_star, ds_star_dh):
            with pytest.raises(ValueError, match="s0"):
                func(h, sp, UNIT)


class TestSStar:
    def test_anchor(self):
        # substitution oracle: s_star(16, 1) = 1 and h_hat(1, 1) = 16
        assert s_star(16.0, 1.0, UNIT) == pytest.approx(1.0, rel=1e-12)
        assert h_hat(2.0, 1.0, 1.0, 4, 0.25) == pytest.approx(16.0)

    def test_diverges_at_s0(self):
        h = 16.0
        edge = s0(h, UNIT)
        assert s_star(h, edge * (1.0 + 1e-10), UNIT) > 1e6

    def test_limit_large_s_plus(self):
        h = 16.0
        assert s_star(h, 1e9, UNIT) == pytest.approx(s0(h, UNIT), rel=1e-6)

    def test_rejects_below_s0(self):
        h = 16.0
        with pytest.raises(ValueError, match="s0"):
            s_star(h, s0(h, UNIT) * 0.99, UNIT)

    @pytest.mark.parametrize("params", params_grid())
    def test_defining_root_identity(self, params):
        # central correctness anchor: h_hat(s_star(h, s+), s+) = h to 1e-10
        h_typ = 4.0 * (params.lam * params.a) ** 2
        for hm in (0.1, 1.0, 10.0, 1e3, 1e6):
            h = hm * h_typ
            edge = s0(h, params)
            for sf in (1.0 + 1e-6, 1.01, 1.5, 3.0, 50.0):
                sp = edge * sf
                ss = s_star(h, sp, params)
                back = h_hat(params.lam, ss, sp, params.p, params.rho)
                assert abs(back / h - 1.0) <= 1e-10


class TestDsStarDh:
    @pytest.mark.parametrize("params", params_grid())
    def test_matches_finite_difference(self, params):
        h_typ = 4.0 * (params.lam * params.a) ** 2
        for hm in (0.5, 2.0, 30.0):
            h = hm * h_typ
            for sf in (1.05, 1.5, 4.0):
                sp = s0(h, params) * sf
                step = 1e-6 * h
                fd = (s_star(h + step, sp, params) - s_star(h - step, sp, params)) / (2 * step)
                assert ds_star_dh(h, sp, params) == pytest.approx(fd, rel=1e-5)

    def test_always_negative(self):
        for hm in np.geomspace(0.1, 1e4, 15):
            h = hm * 16.0
            for sf in (1.01, 2.0, 10.0):
                assert ds_star_dh(h, s0(h, UNIT) * sf, UNIT) < 0

    def test_large_h_asymptote(self):
        # approaches -s_star^3 / (2 lam^2) once the correction term is negligible
        h = 1e9
        sp = s0(h, UNIT) * 2.0
        ss = s_star(h, sp, UNIT)
        assert ds_star_dh(h, sp, UNIT) == pytest.approx(-ss ** 3 / (2 * 4.0), rel=1e-3)


class TestFH:
    def test_vanishes_at_small_h(self):
        assert f_H(1e-3, UNIT) == 0.0
        assert f_H(0.05, UNIT) < 1e-12

    def test_nonnegative(self):
        for h in np.geomspace(0.5, 1e5, 25):
            assert f_H(h, UNIT) >= 0.0

    def test_total_mass(self):
        assert f_H_mass(UNIT) == pytest.approx(1.0, abs=1e-3)

    def test_mass_scale_invariant(self):
        other = HDensityParams(lam=7.0, p=100, rho=0.02)
        assert f_H_mass(other) == pytest.approx(1.0, abs=1e-3)

    def test_tail_prefactor_scales_as_p_squared(self):
        # doubling p at fixed rho multiplies the h^-2 tail constant by 4
        base = HDensityParams(lam=2.0, p=50, rho=0.02)
        double = HDensityParams(lam=2.0, p=100, rho=0.02)
        h = 3e3 * h_min_scale(double)  # far out on both tails
        ratio = (f_H(h, double) * h * h) / (f_H(h, base) * h * h)
        assert ratio == pytest.approx(4.0, rel=0.05)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            f_H(-1.0, UNIT)


class TestCumulative:
    def test_limits(self):
        assert F_H(0.05, UNIT) < 1e-12
        assert F_H(4e4, UNIT) == pytest.approx(1.0, abs=1e-3)

    def test_nondecreasing(self):
        hs = np.geomspace(1.0, 1e4, 20)
        vals = [F_H(h, UNIT) for h in hs]
        assert (np.diff(vals) >= -1e-12).all()

    def test_derivative_matches_density(self):
        # consistency oracle between the two independent quadrature routes
        for h in (4.0, 8.0, 16.0, 40.0):
            step = 1e-4 * h
            fd = (F_H(h + step, UNIT) - F_H(h - step, UNIT)) / (2 * step)
            assert fd == pytest.approx(f_H(h, UNIT), rel=1e-3)

    def test_matches_integrated_density(self):
        # F_H(h) vs cumulative trapezoid of f_H on a fine grid
        grid = np.geomspace(0.2, 60.0, 800)
        fh = np.array([f_H(h, UNIT) for h in grid])
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (fh[1:] + fh[:-1]) * np.diff(grid))])
        for target in (8.0, 16.0, 40.0):
            approx = np.interp(target, grid, cum)
            assert F_H(target, UNIT) == pytest.approx(approx, abs=1e-3)


class TestTailLaw:
    # f_H's tail in closed form, in u = h/(lam a)^2: as one gap closes,
    #   f_H = K (lam a)^2 / h^2 (1 + 1.5/sqrt(u)) + O(h^-3),
    #   1 - F_H = K (lam a)^2 / h (1 + 1/sqrt(u)) + O(h^-2),
    # with K = 81/(16 pi) from J's one-gap marginal near a zero gap, on either
    # side. An oracle of its own: it shares no route with the quadrature,
    # where the other f_H tests compare two routes to the same integral.
    K = 81.0 / (16.0 * math.pi)
    U = np.geomspace(1e3, 1e8, 26)

    @pytest.mark.parametrize("params", [
        LAM20,
        HDensityParams(lam=20.0, p=2000, rho=SpectralDensity.mckay(20)(20.0)),
        HDensityParams(lam=0.5, p=3, rho=0.1),
        HDensityParams(lam=5.0, p=200, rho=0.05),
    ], ids=["lam20-p1000", "lam20-p2000", "lam0.5-p3", "lam5-p200"])
    def test_two_term_tail(self, params):
        # the residuals fall as 1/u: u |rel| peaks at 5.2 for f_H and 2.6 for
        # 1 - F_H; past u = 1e6, rounding in 1 - F_H dominates
        scale = (params.lam * params.a) ** 2
        u = self.U
        h = u * scale
        rel = f_H(h, params) * h * h / (self.K * scale * (1.0 + 1.5 / np.sqrt(u))) - 1.0
        assert (np.abs(rel) <= 8.0 / u).all()
        u, h = u[u <= 1e6], h[u <= 1e6]
        rel = (1.0 - F_H(h, params)) * h / (self.K * scale * (1.0 + 1.0 / np.sqrt(u))) - 1.0
        assert (np.abs(rel) <= 4.0 / u).all()


def _upper_mass_erfcx(lo, x, params):
    # The erfcx form of I(lo, x) = int_lo^inf J(y, x) dy that the erfc form
    # replaces, kept as the oracle; returns the value, |T1| + |T2| (the size of
    # its two terms before they cancel) and the Gaussian exponent E.
    a = params.a
    c = 2187.0 * a ** 5 / (32.0 * math.pi ** 3)
    b = 9.0 * a * a / (4.0 * math.pi)
    t0 = lo + 0.5 * x
    gauss = c * x * np.exp(-b * (lo * lo + lo * x + x * x))
    t1 = t0 / (2.0 * b) * gauss
    t2 = (0.5 / b - 0.25 * x * x) * 0.5 * math.sqrt(math.pi / b) \
        * special.erfcx(math.sqrt(b) * t0) * gauss
    return t1 + t2, np.abs(t1) + np.abs(t2), b * (lo * lo + lo * x + x * x)


def _tail_grid(params):
    # The h grid of the tail experiment's fh_tail.csv.
    return tail_report(params).h_grid


def _physical_route(h, params, cumulative):
    # f_H (or F_H) on the half-arc route in gaps s that the mean-gap form
    # replaces, kept as the oracle: s_star from the roots of
    # lam^2/s^2 + lam^2 a/s = d, the panels s_eq + (0, 0.1, 1, 12)/a built for
    # each h, and the 64-node sum of the integrand on its own nodes.
    a = params.a
    a_c, b_c = params.lam ** 2, params.lam ** 2 * a
    b = 9.0 * a * a / (4.0 * math.pi)
    c = 2187.0 * a ** 5 / (32.0 * math.pi ** 3)

    def root(d):
        return (b_c + np.sqrt(b_c * b_c + 4.0 * a_c * d)) / (2.0 * d)

    def upper(lo, x):
        # I(lo, x) in its erfc form.
        t0 = lo + 0.5 * x
        tail = t0 / (2.0 * b) * np.exp(-b * t0 * t0) \
            + (0.5 / b - 0.25 * x * x) * 0.5 * math.sqrt(math.pi / b) * _erfc(math.sqrt(b) * t0)
        return c * x * tail * np.exp(-0.75 * b * x * x)

    h = np.asarray(h, dtype=float)
    h_col = h.reshape(-1, 1)
    s_eq = root(h_col / 2.0)
    live = (s_eq <= math.sqrt(746.0 / b)).ravel()
    out = np.zeros(h_col.shape[0])
    if live.any():
        h_col, s_eq = h_col[live], s_eq[live]
        edges = s_eq + np.array([0.0, 0.1, 1.0, 12.0]) / a
        half = 0.5 * np.diff(edges, axis=1)[:, :, None]
        mid = 0.5 * (edges[:, 1:] + edges[:, :-1])[:, :, None]
        nodes, weights = np.polynomial.legendre.leggauss(64)
        x = (mid + half * nodes).reshape(len(edges), -1)
        s = root(h_col - a_c / (x * x) - b_c / x)
        if cumulative:
            terms = 2.0 * upper(s, x) - upper(s_eq, x)
        else:
            terms = 2.0 * joint_gap_pdf(s, x, params.p, params.rho) * s ** 3 / (2.0 * a_c + b_c * s)
        out[live] = np.sum(terms * (half * weights).reshape(len(edges), -1), axis=1)
    return out.reshape(h.shape)


class TestErfcForm:
    @pytest.mark.parametrize("params", params_grid())
    @pytest.mark.parametrize("grid", [_fh_grid, _tail_grid], ids=["fh-density", "tail"])
    def test_upper_mass_matches_erfcx_form(self, params, grid):
        # On every (lo, x) node of the half arc: lo = s_star(h, x) and s_eq.
        nodes = []

        def record(s, s_eq, x):
            nodes.extend([(s, x), (np.broadcast_to(s_eq, x.shape), x)])
            return np.ones_like(x)

        _half_arc_rule(grid(params), params, record)
        assert nodes
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        a = params.a
        for lo, x in nodes:
            # The nodes are in mean gaps; the oracle takes gaps s = x / a.
            oracle, size, expo = _upper_mass_erfcx(lo / a, x / a, params)
            # 1e-13 of the terms' size, plus the rounding both forms carry in an
            # exponent argument of size E (up to ~746 on the half arc); values
            # below the smallest normal float keep only a few digits.
            tol = (1e-13 + 4.0 * eps * expo) * size + tiny
            # _upper_mass leaves out I~'s factor e^(-3 B x^2 / 4), which F_H shares.
            value = _upper_mass(lo, x) * np.exp(-0.75 * hdensity._B * x * x)
            assert np.all(np.abs(a * value - oracle) <= tol)

    @pytest.mark.parametrize("params", params_grid())
    @pytest.mark.parametrize("grid", [_fh_grid, _tail_grid], ids=["fh-density", "tail"])
    def test_cumulative_matches_erfcx_form(self, params, grid):
        h = grid(params)
        value = F_H(h, params)
        # F_H's integrand 2 I~(x_star, x) - I~(x_eq, x) on the same half-arc rule,
        # with I~ in its erfcx form; in mean gaps I~ is I at a = 1.
        oracle = _half_arc_rule(h, params, lambda x_star, x_eq, x: (
            2.0 * _upper_mass_erfcx(x_star, x, UNIT)[0] - _upper_mass_erfcx(x_eq, x, UNIT)[0]))
        assert np.any(oracle > 0)
        np.testing.assert_allclose(value, oracle, rtol=1e-12, atol=0.0)

    def test_libm_erfc_matches_scipy(self):
        # scipy's erfc returns 0 where libm's is still subnormal (z > 26.6).
        z = np.linspace(0.0, 27.0, 54001)
        np.testing.assert_allclose(_erfc(z), special.erfc(z), rtol=1e-13,
                                   atol=np.finfo(float).tiny)


def _assert_matches_physical_route(h, params):
    # Values past the cut on x_eq = a s_eq are exactly 0 on both routes. Else
    # the routes differ by rounding: a few ulp in x_eq or x_star move the
    # Gaussian exponent E = B x_eq^2 (up to ~746 on the half arc) by a few
    # eps E. Measured: at most 7 eps (1 + E) relative (1.8e-13 at E ~ 700) on
    # the fh-density and tail grids of params_grid and on 6,000 random
    # (lam, a, u); values below the smallest normal float keep few digits.
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    x_eq = hdensity._root((params.lam * params.a) ** 2 / h)
    expo = hdensity._B * x_eq ** 2
    cut = x_eq > hdensity._X_CUT
    for func, cumulative in ((f_H, False), (F_H, True)):
        value, oracle = func(h, params), _physical_route(h, params, cumulative)
        assert np.all(value[cut] == 0.0) and np.all(oracle[cut] == 0.0)
        assert np.all(np.abs(value - oracle) <= 16.0 * eps * (1.0 + expo) * oracle + tiny)


class TestMeanGapForm:
    @pytest.mark.parametrize("params", params_grid())
    @pytest.mark.parametrize("grid", [_fh_grid, _tail_grid], ids=["fh-density", "tail"])
    def test_matches_physical_route(self, params, grid):
        h = grid(params)
        _assert_matches_physical_route(h, params)
        assert np.any(f_H(h, params) > 0.0)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(lam=st.floats(0.05, 100.0), p=st.integers(1, 5000), rho=st.floats(1e-3, 1.0),
           log_u=st.lists(st.floats(-3.0, 8.0), min_size=1, max_size=8))
    def test_matches_physical_route_property(self, lam, p, rho, log_u):
        # h = u (lam a)^2: u = 10^-3 sits past the cut, 10^8 deep in the tail.
        params = HDensityParams(lam=lam, p=p, rho=rho)
        _assert_matches_physical_route(10.0 ** np.array(log_u) * (lam * params.a) ** 2, params)


# The half-arc nodes and fine-order weights of the former implementation, built
# apart from hdensity's.
_FORMER_EDGES = np.array([0.0, 0.1, 1.0, 12.0])
_FORMER_HALF = 0.5 * np.diff(_FORMER_EDGES)[:, None]
_GL64 = np.polynomial.legendre.leggauss(64)
_FORMER_NODES = (0.5 * (_FORMER_EDGES[1:] + _FORMER_EDGES[:-1])[:, None]
                 + _FORMER_HALF * _GL64[0]).ravel()
_FORMER_W = (_FORMER_HALF * _GL64[1]).ravel()


def _former_route(h, params, cumulative):
    # f_H (or F_H) as computed before the fused integrands, kept as their oracle:
    # u = h / (lam a)^2, the roots from d = u/2 and d = u - 1/x^2 - 1/x, J~ through
    # joint_gap_pdf times x_star^3 / (2 + x_star), the closed form I~ on math.erfc
    # mapped over the nodes, and the fine order's sum on its own.
    b, unit = hdensity._B, (params.lam * params.a) ** 2

    def root(d):
        r = 0.5 / d
        return r + np.sqrt(r) * np.sqrt(r + 2.0)

    def upper(lo, x):
        t0 = lo + 0.5 * x
        erfc = np.reshape([math.erfc(v) for v in (math.sqrt(b) * t0).ravel()], t0.shape)
        tail = t0 / (2.0 * b) * np.exp(-b * t0 * t0) \
            + (0.5 / b - 0.25 * x * x) * 0.5 * math.sqrt(math.pi / b) * erfc
        return hdensity._J_COEF * x * tail * np.exp(-0.75 * b * x * x)

    u = h.reshape(-1, 1) / unit
    live = u[:, 0] > hdensity._U_CUT
    out = np.zeros(len(u))
    u = u[live]
    x_eq = root(0.5 * u)
    x = x_eq + _FORMER_NODES
    r = 1.0 / x
    x_star = root(u - r * (1.0 + r))
    if cumulative:
        terms = 2.0 * upper(x_star, x) - upper(x_eq, x)
    else:
        terms = 2.0 * joint_gap_pdf(x_star, x, 1, 1.0) * x_star ** 3 / (2.0 + x_star) / unit
    out[live] = terms @ _FORMER_W
    return out.reshape(h.shape)


def _assert_matches_former_route(h, params):
    # Values at or below the cut are exactly 0 on both routes. Else the fused
    # integrands and the roots from r = (lam a)^2 / h move values by rounding,
    # which a few ulp in x_eq or x_star carry into the Gaussian exponent
    # E = B x_eq^2 (up to ~746). Measured: at most 4.6 eps (1 + E) relative
    # (2.3e-13 at most; 7.9e-14 on the fh-density grids) on the
    # fh-density and tail grids of params_grid and on 12,000 random (lam, a, u);
    # values below the smallest normal float keep few digits.
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    unit = (params.lam * params.a) ** 2
    expo = hdensity._B * hdensity._root(unit / h) ** 2
    cut = h <= hdensity._U_CUT * unit
    for func, cumulative in ((f_H, False), (F_H, True)):
        value, oracle = func(h, params), _former_route(h, params, cumulative)
        assert np.all(value[cut] == 0.0) and np.all(oracle[cut] == 0.0)
        assert np.all(np.abs(value - oracle) <= 8.0 * eps * (1.0 + expo) * oracle + tiny)


class TestFormerRoute:
    @pytest.mark.parametrize("params", params_grid())
    @pytest.mark.parametrize("grid", [_fh_grid, _tail_grid], ids=["fh-density", "tail"])
    def test_matches_former_route(self, params, grid):
        h = grid(params)
        _assert_matches_former_route(h, params)
        assert np.any(f_H(h, params) > 0.0) and np.any(F_H(h, params) > 0.0)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(lam=st.floats(0.05, 100.0), p=st.integers(1, 5000), rho=st.floats(1e-3, 1.0),
           log_u=st.lists(st.floats(-3.0, 8.0), min_size=1, max_size=8))
    def test_matches_former_route_property(self, lam, p, rho, log_u):
        params = HDensityParams(lam=lam, p=p, rho=rho)
        _assert_matches_former_route(10.0 ** np.array(log_u) * (lam * params.a) ** 2, params)


class TestHRule:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_h_rejected(self, bad):
        # F_H(inf) used to read 0.0, and tail_integral(inf) to warn, then report
        # a quadrature that did not converge; s0(nan) read nan.
        for func in (f_H, F_H, tail_integral, s0):
            for h in (bad, np.float64(bad), np.array([bad]), np.array([1.0, bad])):
                with pytest.raises(ValueError, match="^h must be finite and positive$"):
                    func(h, UNIT)
        for func in (s_star, ds_star_dh):
            with pytest.raises(ValueError, match="^h must be finite and positive$"):
                func(bad, 1.0, UNIT)

    @pytest.mark.filterwarnings("error")
    def test_huge_h(self):
        # The gap-unit root overflowed in B^2 + 4 A h, so F_H read 0.0 with a
        # RuntimeWarning from h = 3e305 on at lam = 20, p = 1000.
        h = np.geomspace(1e290, 1e308, 40)
        assert np.all(np.abs(F_H(h, LAM20) - 1.0) <= 1e-12)
        values = f_H(h, LAM20)
        assert np.all(np.isfinite(values) & (values >= 0.0))
        assert np.all(s0(h, LAM20) > 0.0)

    @pytest.mark.filterwarnings("error")
    def test_huge_h_at_small_unit(self):
        # (lam a)^2 = 0.0225 < 1, so u = h / (lam a)^2 overflows at h = 1e308 (s0
        # and s_star would read 0.0, f_H and F_H warn); r = (lam a)^2 / h only
        # underflows.
        params = params_grid()[0]
        assert s0(1e308, params) == pytest.approx(0.5 / 1e154, rel=1e-12)
        assert s_star(1e308, 1.0, params) == pytest.approx(0.5 / 1e154, rel=1e-12)
        assert f_H(1e308, params) == 0.0
        assert abs(F_H(1e308, params) - 1.0) <= 1e-12


def _joint(sm, sp, a):
    # Scalar joint_gap_pdf, fast enough for nested adaptive quad.
    b = 9.0 * a * a / (4.0 * math.pi)
    return 2187.0 * a ** 5 / (32.0 * math.pi ** 3) * sm * sp * (sm + sp) \
        * math.exp(-b * (sm * sm + sp * sp + sm * sp))


def _quad(func, lo, hi, points=None, epsrel=1e-10):
    return quad(func, lo, hi, points=points, epsabs=0.0, epsrel=epsrel, limit=400,
                full_output=1)[0]


def _arc_quad(h, params, lo, hi, points, epsrel=1e-10):
    # Adaptive oracle: int J(s_star, s+) |ds_star/dh| ds+ over (lo, hi).
    def integrand(sp):
        return -_joint(s_star(h, sp, params), sp, params.a) * ds_star_dh(h, sp, params)

    return _quad(integrand, lo, hi, points, epsrel)


def _adaptive_f(h, params):
    # The former f_H route: the full level-set arc s+ > s0(h).
    lo = s0(h, params)
    hi = lo + 12.0 / params.a
    return _arc_quad(h, params, lo, hi,
                     sorted(x for x in (2.0 * lo, 1.0 / params.a) if lo < x < hi))


def _adaptive_F(h, params):
    # The former F_H route: nested quad of J over s+ > s0(h), s- > s_star(h, s+).
    lo = s0(h, params)
    cut = 12.0 / params.a

    def inner(sp):
        start = s_star(h, sp, params)
        return _quad(lambda sm: _joint(sm, sp, params.a), start, max(start, lo) + cut)

    return _quad(inner, lo, lo + cut,
                 sorted(x for x in (2.0 * lo, 1.0 / params.a) if lo < x < lo + cut))


class TestFixedRule:
    def test_tail_matches_half_arc_oracle(self):
        # The four tail-grid points where adaptive quad over the full arc
        # misses the mirror half (h / h_min = 3831 ... 6813): twice the
        # right half arc s+ > s0(h/2) is the oracle.
        hms = h_min_scale(LAM20)
        for h in np.geomspace(100.0 * hms, 1e4 * hms, 25)[19:23]:
            lo = s0(h / 2.0, LAM20)
            oracle = 2.0 * _arc_quad(h, LAM20, lo, lo + 12.0 / LAM20.a,
                                     [lo + 1.0 / LAM20.a], epsrel=1e-12)
            assert f_H(h, LAM20) == pytest.approx(oracle, rel=1e-9, abs=0.0)

    def test_matches_adaptive_routes_on_bulk_grid(self):
        assert _joint(0.01, 0.02, LAM20.a) == pytest.approx(
            joint_gap_pdf(0.01, 0.02, LAM20.p, LAM20.rho), rel=1e-14)
        for h in _fh_grid(LAM20)[::6]:
            assert f_H(h, LAM20) == pytest.approx(_adaptive_f(h, LAM20), rel=1e-10, abs=1e-8)
            assert F_H(h, LAM20) == pytest.approx(_adaptive_F(h, LAM20), rel=1e-10, abs=1e-8)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(lam=st.floats(0.05, 200.0), p=st.integers(1, 5000), rho=st.floats(1e-3, 1.0),
           logs=st.lists(st.floats(math.log(0.01), math.log(1000.0)), min_size=2, max_size=12))
    @example(lam=LAM20.lam, p=LAM20.p, rho=LAM20.rho, logs=[math.log(0.01), math.log(1000.0)])
    def test_array_equals_scalar(self, lam, p, rho, logs):
        # A float h (np.float64 too) is summed in floats, every array, a 0-d or
        # size-1 one too, in blocks of 64 rows: all must agree bitwise, from
        # h_typ / 100 to 1000 h_typ, on the tail window, past one block, and one
        # ulp either side of the cut.
        params = HDensityParams(lam=lam, p=p, rho=rho)
        h_unit = (lam * params.a) ** 2
        cut = hdensity._U_CUT * h_unit
        grid = np.concatenate([4.0 * h_unit * np.exp(logs), _fh_grid(params), _tail_grid(params),
                               [np.nextafter(cut, 0.0), cut, np.nextafter(cut, np.inf)]])
        for func in (f_H, F_H):
            scalars = [func(h, params) for h in grid.tolist()]
            for h_scalar in (np.float64, np.array):
                values = [func(h_scalar(h), params) for h in grid.tolist()]
                assert all(type(v) is float for v in scalars + values)
                np.testing.assert_array_equal(values, scalars, strict=True)
            for shape in ((1,), (1, 1)):
                np.testing.assert_array_equal(
                    [func(np.full(shape, h), params) for h in grid],
                    np.reshape(scalars, (-1, *shape)))
            np.testing.assert_array_equal(func(grid, params), scalars)
            np.testing.assert_array_equal(func(grid[None, :], params), [scalars])

    def test_tail_integral_array_equals_scalar(self):
        hms = h_min_scale(LAM20)
        tail_grid = np.geomspace(100.0 * hms, 1e4 * hms, 25)
        scalars = [tail_integral(h, LAM20) for h in tail_grid]
        assert all(type(v) is float for v in scalars)
        np.testing.assert_array_equal(tail_integral(tail_grid, LAM20), scalars)
        np.testing.assert_array_equal(tail_integral(tail_grid.reshape(5, 5), LAM20),
                                      np.reshape(scalars, (5, 5)))

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_array_with_nonpositive_raises(self, bad):
        for func in (f_H, F_H, tail_integral):
            with pytest.raises(ValueError, match="positive"):
                func(np.array([1.0, bad, 2.0]), UNIT)
        # The float path keeps the array path's message.
        for func in (f_H, F_H):
            with pytest.raises(ValueError, match="^h must be finite and positive$"):
                func(bad, UNIT)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("params", [UNIT, LAM20], ids=["unit", "lam20"])
    def test_far_below_support_is_exactly_zero(self, params):
        # At h <= 1e-100 h_typ, s^3 (f_H) and x^2 (F_H) overflow on the arc
        # while J's Gaussian factor is 0.0; both used to fail their checks.
        h_typ = 4.0 * (params.lam * params.a) ** 2
        for scale in (1e-2, 1e-10, 1e-110, 1e-160, 1e-300):
            assert f_H(scale * h_typ, params) == 0.0
            assert F_H(scale * h_typ, params) == 0.0
        mixed = np.array([[1e-300, 1e-160], [0.3, 1e-110], [1.0, 30.0]]) * h_typ
        for func in (f_H, F_H):
            values = func(mixed, params)
            np.testing.assert_array_equal(values, [[func(h, params) for h in row]
                                                   for row in mixed])
            assert (values[[0, 0, 1], [0, 1, 1]] == 0.0).all()
            assert (values[2] > 0.0).all()
            with pytest.raises(ValueError, match="positive"):
                func(np.array([1e-160 * h_typ, 0.0]), params)

    def test_values_next_to_the_cut_are_already_zero(self):
        # Just above the cut the sums are already exactly 0.0, so the cut
        # changes no value: b s_eq^2 = 746 sits past exp's underflow.
        from eigerr.hdensity import _EXP_UNDERFLOW

        s_cut = math.sqrt(_EXP_UNDERFLOW / gauss_rate(LAM20.a))
        a_c, b_c = LAM20.lam ** 2, LAM20.lam ** 2 * LAM20.a
        h_cut = 2.0 * (a_c / s_cut ** 2 + b_c / s_cut)  # s0(h_cut / 2) = s_cut
        assert math.exp(-_EXP_UNDERFLOW) == 0.0
        for h in h_cut * np.array([1.0 + 1e-9, 1.01, 1.1]):
            assert f_H(h, LAM20) == 0.0 and F_H(h, LAM20) == 0.0

    def test_fixed_rule_gate_is_relative(self):
        # An unresolved Lorentzian of half-width 1e-10: both sums are far
        # below an absolute 1e-8 floor, but they differ by more than 1e-6
        # of their value.
        with pytest.raises(RuntimeError, match="did not converge"):
            _fixed_rule(lambda x: 1e-20 / ((x - 0.3) ** 2 + 1e-20), np.array([[0.0, 1.0]]))

    @pytest.mark.parametrize("h", [1.0, np.array([1.0]), np.array([1.0, 2.0])],
                             ids=["scalar", "size-1", "two-point"])
    def test_half_arc_rule_nan_sum_raises(self, h):
        # The one-point float sums face the same check as a block's rows.
        with pytest.raises(RuntimeError, match="did not converge"):
            _half_arc_rule(h, UNIT, lambda x_star, x_eq, x: np.full_like(x, np.nan))


def _whole_array_gaps(params, size, seed):
    # The sampler in whole-array expressions: the blocked one must give its
    # values bit for bit.
    rng = np.random.default_rng(seed)
    r = 2.0 * np.sqrt(rng.gamma(2.5, size=size) / (3.0 * gauss_rate(params.a)))
    theta = np.arccos(1.0 - 2.0 * rng.random(size)) / 3.0
    return r * np.sin(theta), r * np.sin(np.pi / 3.0 - theta)


def _whole_array_push(params, size, seed):
    return h_hat(params.lam, *_whole_array_gaps(params, size, seed), params.p, params.rho)


def _assert_blocked_equals_whole(params, size, seed):
    sm, sp = sample_joint_gaps(params, size, seed)
    want_sm, want_sp = _whole_array_gaps(params, size, seed)
    np.testing.assert_array_equal(sm, want_sm, strict=True)
    np.testing.assert_array_equal(sp, want_sp, strict=True)
    np.testing.assert_array_equal(push_h_samples(params, size, seed),
                                  _whole_array_push(params, size, seed), strict=True)


class TestSampler:
    @pytest.mark.parametrize("size", [0, 1, _MC_BLOCK - 1, _MC_BLOCK, _MC_BLOCK + 1,
                                      3 * _MC_BLOCK + 17])
    @pytest.mark.parametrize("params", [UNIT, LAM20], ids=["unit", "lam20"])
    def test_blocked_equals_whole_array(self, params, size):
        _assert_blocked_equals_whole(params, size, seed=5)

    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2 ** 63), lam=st.floats(0.05, 200.0), p=st.integers(1, 5000),
           rho=st.floats(1e-3, 1.0))
    def test_blocked_equals_whole_array_property(self, seed, lam, p, rho):
        _assert_blocked_equals_whole(HDensityParams(lam=lam, p=p, rho=rho), 2 * _MC_BLOCK + 5,
                                     seed)

    @pytest.mark.parametrize("seed", [np.int64(5), child_seed(5, 1)], ids=["int64", "child"])
    def test_seed_draws_default_rng_stream(self, seed):
        # _whole_array_gaps seeds default_rng(seed) itself.
        _assert_blocked_equals_whole(LAM20, 100, seed)

    def test_standard_gamma_is_unit_scale_gamma(self):
        # The sampler draws standard_gamma; gamma's scale 1.0 multiplies exactly.
        np.testing.assert_array_equal(np.random.default_rng(3).standard_gamma(2.5, 1000),
                                      np.random.default_rng(3).gamma(2.5, size=1000))

    @pytest.mark.parametrize("size", [(2, 3), -1, 2.0, True])
    def test_size_must_be_a_count(self, size):
        for draw in (sample_joint_gaps, push_h_samples):
            with pytest.raises(ValueError, match="^size must be a non-negative integer"):
                draw(UNIT, size, seed=0)

    def test_determinism(self):
        a1 = sample_joint_gaps(UNIT, 500, seed=4)
        a2 = sample_joint_gaps(UNIT, 500, seed=4)
        np.testing.assert_array_equal(a1[0], a2[0])
        np.testing.assert_array_equal(a1[1], a2[1])

    def test_marginal_moments(self):
        sm, sp = sample_joint_gaps(UNIT, 200_000, seed=9)
        # oracle: mean of the s- marginal of J by 2-D quadrature
        from scipy import integrate
        mean, _ = integrate.dblquad(
            lambda u, v: u * (2187.0 / (32 * np.pi ** 3)) * u * v * (u + v)
            * np.exp(-(9.0 / (4 * np.pi)) * (u * u + v * v + u * v)),
            0, 14, 0, 14)
        assert sm.mean() == pytest.approx(mean, rel=5e-3)
        assert sp.mean() == pytest.approx(mean, rel=5e-3)

    def test_joint_law_chi_square(self):
        # 2-D chi-square of 1e6 draws at a = 1 against J's cell masses; a
        # uniform angle or a Gamma(2) radius both give chi-square > 1e5.
        size = 1_000_000
        sm, sp = sample_joint_gaps(UNIT, size, seed=17)
        edges = np.linspace(0.0, 3.5, 11)
        counts, _, _ = np.histogram2d(sm, sp, bins=[edges, edges])
        expected = size * _joint_cell_masses(edges, UNIT.p, UNIT.rho)
        cells = expected >= 5.0
        chi2 = float(((counts[cells] - expected[cells]) ** 2 / expected[cells]).sum())
        assert chi2 < stats.chi2.ppf(0.999, int(cells.sum()))

    def test_pushforward_matches_cumulative(self):
        # KS between Monte-Carlo h draws and the quadrature CDF
        hs = push_h_samples(UNIT, 4000, seed=12)
        grid = np.geomspace(hs.min() * 0.9, hs.max() * 1.1, 300)
        cdf_grid = np.array([F_H(h, UNIT) for h in grid])
        ks = stats.kstest(hs, lambda x: np.interp(x, grid, cdf_grid))
        assert ks.statistic < 0.03

    @pytest.mark.parametrize("params", params_grid())
    def test_pushforward_matches_density(self, params):
        # L1 between histogrammed pushforward draws and f_H bin masses,
        # checked on three well-separated parameter triples
        hs = push_h_samples(params, 50_000, seed=21)
        grid = np.geomspace(np.quantile(hs, 5e-4) / 4.0,
                            np.quantile(hs, 1 - 5e-4) * 8.0, 500)
        fh = np.array([f_H(h, params) for h in grid])
        cum = np.concatenate(
            [[0.0], np.cumsum(0.5 * (fh[1:] + fh[:-1]) * np.diff(grid))])
        bins = np.geomspace(np.quantile(hs, 0.005), np.quantile(hs, 0.995), 31)
        counts, _ = np.histogram(hs, bins=bins)
        p_emp = counts / hs.size
        p_mod = np.diff(np.interp(bins, grid, cum))
        l1 = np.abs(p_emp - p_mod).sum() + abs(p_emp.sum() - p_mod.sum())
        assert l1 <= 0.05


class TestTail:
    def test_phi_minimum(self):
        # phi attains (27/2pi)(lam a)^2 at u = lam^2
        for params in params_grid():
            lam2 = params.lam ** 2
            assert phi(lam2, params) == pytest.approx(h_min_scale(params), rel=1e-12)
            u = np.geomspace(lam2 / 50, lam2 * 50, 300)
            assert phi(u, params).min() >= h_min_scale(params) * (1 - 1e-9)

    def test_integral_asymptote(self):
        # I(h) -> sqrt(pi) (h/c)^(3/2): both endpoint regions of the u
        # integral contribute Gamma(3/2) each (verified against linear-space
        # brute-force quadrature), confirming the h^(3/2) scaling law
        params = UNIT
        c = (3.0 * params.a) ** 2 / (4.0 * np.pi)
        h = 1e6 * h_min_scale(params)
        expect = np.sqrt(np.pi) * (h / c) ** 1.5
        assert tail_integral(h, params) == pytest.approx(expect, rel=0.01)

    def test_integral_matches_linear_quadrature(self):
        # independent oracle: piecewise linear-space quadrature of the same
        # integrand without the log substitution
        from scipy.integrate import quad as _quad

        params = UNIT
        lam, lam2 = params.lam, params.lam ** 2
        c = (3.0 * params.a) ** 2 / (4.0 * np.pi)
        h = 300.0 * h_min_scale(params)

        def raw(u):
            return (1 + lam2 / u) ** 2.5 * (np.sqrt(u) + lam) * np.exp(-phi(u, params) / h)

        total = 0.0
        for lo, hi in [(1e-10, 1.0), (1.0, 100.0), (100.0, 700.0 * h / c)]:
            total += _quad(raw, lo, hi, limit=400)[0]
        assert tail_integral(h, params) == pytest.approx(total, rel=1e-6)

    def test_report_unit_params(self):
        rep = tail_report(UNIT)
        assert rep.fitted_slope == pytest.approx(-2.0, abs=0.15)
        assert rep.plateau_ratio_spread < 0.2
        assert rep.u1_phi_ratio == pytest.approx(1.0, abs=0.01)
        assert rep.u2_phi_ratio == pytest.approx(1.0, abs=0.01)
        assert rep.window[1] == pytest.approx(1e4 * h_min_scale(UNIT), rel=1e-9)
