"""Ensemble density of the local error estimate h at a fixed eigenvalue.

With the eigenvalue lam, matrix size p, and bulk density value rho(lam)
fixed, the two neighbor gaps follow the joint GOE surmise, and pushing them
through the local estimate

    h_hat(s-, s+) = lam^2 [1/s-^2 + 1/s+^2 + p rho (1/s- + 1/s+)]

induces a probability density f_H(h). This module evaluates f_H and its
cumulative F_H semi-analytically: the level set h_hat = h is solved in
closed form (``s0``, ``s_star``), and both reduce to one-dimensional
integrals over half of it, summed by a fixed Gauss-Legendre rule checked at
two orders. The large-h tail obeys f_H = O(p^2/h^2), which ``tail_report``
verifies numerically; its tail integral runs on the same fixed rule.

Everything is a function of (lam, a = p*rho) only. ``sample_joint_gaps``
draws the joint gap surmise exactly, as the spacings of three GOE levels,
and serves as an independent Monte-Carlo oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfcx

from .estimators import h_hat
from .spectral import gauss_rate, joint_gap_pdf

__all__ = [
    "HDensityParams",
    "TailReport",
    "s0",
    "s_star",
    "ds_star_dh",
    "f_H",
    "F_H",
    "f_H_mass",
    "sample_joint_gaps",
    "h_min_scale",
    "phi",
    "tail_integral",
    "tail_report",
]

@dataclass(frozen=True)
class HDensityParams:
    """Evaluation point of the ensemble: eigenvalue lam, size p, density rho.

    Only the combination a = p * rho enters together with lam; it is cached
    on construction.
    """

    lam: float
    p: int
    rho: float
    a: float = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError("lam must be finite and positive")
        a = float(self.p * self.rho)
        if not (math.isfinite(a) and a > 0):
            raise ValueError("p * rho must be finite and positive")
        object.__setattr__(self, "a", a)


def _coefs(params):
    # One-sided estimate g(s) = A/s^2 + B/s.
    lam2 = params.lam * params.lam
    return lam2, lam2 * params.a


def _root(d, params):
    # Positive root of A/s^2 + B/s = d for d > 0.
    a_c, b_c = _coefs(params)
    return (b_c + np.sqrt(b_c * b_c + 4.0 * a_c * d)) / (2.0 * d)


def s0(h, params):
    """Gap below which a single side already pushes the estimate past h.

    Positive root of A/s^2 + B/s = h with A = lam^2, B = lam^2 p rho:
    s0 = (B + sqrt(B^2 + 4 A h)) / (2h). Decreases monotonically in h.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    return _root(h, params)


def _residual(h, s_plus, params):
    a_c, b_c = _coefs(params)
    return h - a_c / (s_plus * s_plus) - b_c / s_plus


def s_star(h, s_plus, params):
    """Left gap that makes h_hat(s-, s+) equal h, at fixed right gap s+.

    Defined through the root identity h_hat(s_star, s+) = h: the residual
    D = h - A/s+^2 - B/s+ must be positive (i.e. s+ > s0(h)), and then
    s_star = (B + sqrt(B^2 + 4 A D)) / (2 D).
    """
    d = _residual(h, s_plus, params)
    if d <= 0:
        raise ValueError("s_plus must exceed s0(h) for a positive root to exist")
    return _root(d, params)


def ds_star_dh(h, s_plus, params):
    """Analytic derivative of s_star in h; negative on the whole domain.

    Implicit differentiation of A/s^2 + B/s = D gives
    ds/dh = -s^3 / (2A + B s), which stays numerically stable as D -> 0+.
    """
    s = s_star(h, s_plus, params)
    a_c, b_c = _coefs(params)
    return -s ** 3 / (2.0 * a_c + b_c * s)


# Fixed Gauss-Legendre rules: every integral is summed at both orders on the
# same panels, and the two sums must agree to _RULE_RTOL.
_RULES = [np.polynomial.legendre.leggauss(n) for n in (64, 40)]
_RULE_RTOL = 1e-6
# Half-arc panels in units of the mean gap 1/a, measured from the symmetric
# point s_eq; the Gaussian factor of J is below 1e-40 past 12 mean gaps.
_ARC_EDGES = np.array([0.0, 0.1, 1.0, 12.0])
# exp(-x) rounds to 0.0 in double precision for every x above this
# (2^-1075 = e^-745.13 is half the smallest subnormal).
_EXP_UNDERFLOW = 746.0
# f_H_mass panels in log(h / h_typ), h_typ = 4 (lam a)^2; f_H depends on h only
# through h / (lam a)^2, so one set of edges serves every (lam, a).
_MASS_EDGES = np.log([1e-3, 1e-1, 1.0, 10.0, 2e4])


def _fixed_rule(integrand, edges):
    # Integrate integrand(nodes) along the panels of each row of edges (m, k+1).
    half = 0.5 * np.diff(edges, axis=1)[:, :, None]
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])[:, :, None]
    sums = []
    for x, w in _RULES:
        nodes = (mid + half * x).reshape(len(edges), -1)
        weights = (half * w).reshape(len(edges), -1)
        sums.append(np.sum(integrand(nodes) * weights, axis=1))
    fine, coarse = sums
    # Relative above the underflow scale, where sums lose digits; NaN fails.
    tol = np.maximum(_RULE_RTOL * np.abs(fine), np.finfo(float).tiny)
    bad = ~(np.abs(fine - coarse) <= tol)
    if bad.any():
        raise RuntimeError(
            f"quadrature did not converge at {int(bad.sum())} of {bad.size} points: "
            f"the two orders differ by more than {_RULE_RTOL:g} or the sum is not finite")
    return fine


def _over_h(h, rule):
    # rule(h_col) -> one value per row of the (m, 1) column h_col; the result
    # takes the shape of h, and a scalar h gives a float.
    h = np.asarray(h, dtype=float)
    if not np.all(h > 0):
        raise ValueError("h must be positive")
    values = rule(h.reshape(-1, 1))
    return float(values[0]) if h.ndim == 0 else values.reshape(h.shape)


def _half_arc_rule(h, params, integrand):
    # Sum integrand(s_star, s_eq, s+) over s+ in [s_eq, s_eq + 12/a] for every
    # h; s_star = s_star(h, s+) <= s_eq there.
    def rule(h_col):
        s_eq = _root(h_col / 2.0, params)
        # On the half arc s+ >= s_eq, so J's Gaussian factor e^(-b (s-^2 + s+^2 +
        # s- s+)) is below e^(-b s_eq^2). Where that is 0.0, so is every term of
        # the sum, and the value is exactly 0; summing anyway gives inf * 0 once
        # s^3 or x^2 overflow (h below ~1e-100 h_typ). The test b s_eq^2 <= 746
        # is taken on s_eq, as s_eq^2 itself overflows below ~1e-150 h_typ.
        live = (s_eq <= math.sqrt(_EXP_UNDERFLOW / gauss_rate(params.a))).ravel()
        values = np.zeros(h_col.shape[0])
        if live.any():
            h_live, s_live = h_col[live], s_eq[live]
            values[live] = _fixed_rule(
                lambda s_plus: integrand(
                    _root(_residual(h_live, s_plus, params), params), s_live, s_plus),
                s_live + _ARC_EDGES / params.a)
        return values

    return _over_h(h, rule)


def f_H(h, params):
    """Semi-analytical density of the local error estimate at fixed lam.

    f_H(h) = -int J(s_star(h, s+), s+) ds_star/dh ds+ along the level set
    h_hat = h. J and the level set are symmetric in (s-, s+), so this is
    twice the integral over the half arc s+ >= s_eq = s0(h/2), where the
    integrand is smooth. ``h`` is a scalar (returns a float) or an array.
    """
    a_c, b_c = _coefs(params)

    def integrand(s, _, x):
        # Twice J(s, x) |ds/dh| at s+ = x, with |ds/dh| = s^3 / (2A + B s).
        return 2.0 * joint_gap_pdf(s, x, params.p, params.rho) * s ** 3 / (2.0 * a_c + b_c * s)

    return _half_arc_rule(h, params, integrand)


def _upper_mass(lo, x, params):
    # int_lo^inf J(y, x) dy, J = c x y (x + y) e^(-b (x^2 + y^2 + x y)): with
    # t = y + x/2 the exponent is -b (t^2 + 3 x^2 / 4) and y (y + x) = t^2 - x^2 / 4;
    # erfc is written as erfcx times its Gaussian, which joins J's.
    a = params.a
    c = 2187.0 * a ** 5 / (32.0 * math.pi ** 3)  # 3^7 = 2187
    b = gauss_rate(a)
    t0 = lo + 0.5 * x
    tail = t0 / (2.0 * b) + (0.5 / b - 0.25 * x * x) * 0.5 * math.sqrt(math.pi / b) \
        * erfcx(math.sqrt(b) * t0)
    return c * x * tail * np.exp(-b * (lo * lo + lo * x + x * x))


def F_H(h, params):
    """Cumulative probability P(h_hat < h) of the joint gap surmise J.

    The region s+ > s0(h), s- > s_star(h, s+) is split at s_eq = s0(h/2);
    mirroring the part s+ < s_eq and swapping its order of integration gives
    F_H(h) = int_{s_eq}^inf [2 I(s_star(h, x), x) - I(s_eq, x)] dx with the
    closed form I(lo, x) = int_lo^inf J(y, x) dy. Nondecreasing in h and
    -> 1 as h -> inf. ``h`` is a scalar (returns a float) or an array.
    """
    def integrand(s, s_eq, x):
        return 2.0 * _upper_mass(s, x, params) - _upper_mass(s_eq, x, params)

    return _half_arc_rule(h, params, integrand)


def f_H_mass(params):
    """Total mass of f_H: a fixed rule in t = log h plus the 1/h^2 tail closure.

    The integral runs over h in (1e-3, 2e4) h_typ; the mass beyond the top is
    completed as f_H(h_hi) * h_hi, exact for a pure h^-2 tail. Mass below the
    lower cutoff is doubly-exponentially small and ignored.
    """
    edges = math.log(4.0 * (params.lam * params.a) ** 2) + _MASS_EDGES
    h_hi = math.exp(edges[-1])
    mass = _fixed_rule(lambda t: f_H(np.exp(t), params) * np.exp(t), edges[None, :])[0]
    return float(mass + f_H(h_hi, params) * h_hi)


def sample_joint_gaps(params, size, seed):
    """Draw (s-, s+) pairs from the joint gap surmise J, exactly.

    J is the spacing law of three GOE levels (Mehta, Random Matrices, ch. 4).
    With s- = r sin(theta) and s+ = r sin(pi/3 - theta), theta in (0, pi/3),
    the form Q = s-^2 + s+^2 + s- s+ is 3 r^2 / 4, ds- ds+ is proportional
    to r dr dtheta, and s- s+ (s- + s+) = r^3 sin(3 theta) / 4. So J factors:
    g = b Q ~ Gamma(5/2), b = gauss_rate(a), gives r = 2 sqrt(g / (3b)), and
    theta = arccos(1 - 2U) / 3 has density proportional to sin(3 theta).
    This sampler is the Monte-Carlo oracle for f_H and deliberately avoids
    the s0/s_star machinery.
    """
    rng = np.random.default_rng(seed)
    r = 2.0 * np.sqrt(rng.gamma(2.5, size=size) / (3.0 * gauss_rate(params.a)))
    theta = np.arccos(1.0 - 2.0 * rng.random(size)) / 3.0
    return r * np.sin(theta), r * np.sin(np.pi / 3.0 - theta)


def push_h_samples(params, size, seed):
    """Monte-Carlo oracle: map joint-surmise gap draws through h_hat."""
    sm, sp = sample_joint_gaps(params, size, seed)
    return h_hat(params.lam, sm, sp, params.p, params.rho)


def phi(u, params):
    """Exponent profile of the tail integral; minimal at u = lam^2."""
    u = np.asarray(u, dtype=float)
    lam2 = params.lam * params.lam
    out = gauss_rate(params.a) * (u + lam2) * (1.0 + params.lam / np.sqrt(u) + lam2 / u)
    return float(out) if out.ndim == 0 else out


def h_min_scale(params):
    """Minimum of phi: (27 / 2 pi) (lam p rho)^2, the tail-window unit."""
    return 27.0 / (2.0 * np.pi) * (params.lam * params.a) ** 2


def tail_integral(h, params):
    """I(h) = int_0^inf (1 + lam^2/u)^(5/2) (sqrt(u) + lam) e^(-phi(u)/h) du.

    Carries the large-h scaling of f_H beyond the explicit h^(-7/2) factor;
    I(h) * p^3 / h^(3/2) plateaus for h far above the phi minimum. Summed by
    the fixed rule in t = log u, on a range cut where the exponent passes
    ~700 and split at the asymptotic roots c lam^4 / h and h / c of
    phi(u) = h, c = gauss_rate(a), and at the minimum u = lam^2. ``h`` is a
    scalar (returns a float) or an array.
    """
    lam2 = params.lam * params.lam
    c = gauss_rate(params.a)

    def rule(h_col):
        breaks = np.log(np.hstack([c * lam2 * lam2 / h_col, np.full_like(h_col, lam2),
                                   h_col / c]))
        t_lo = breaks[:, :1] - math.log(700.0)
        t_hi = breaks[:, 2:] + math.log(700.0)
        edges = np.hstack([t_lo, np.sort(np.clip(breaks, t_lo, t_hi), axis=1), t_hi])

        def integrand(t):
            u = np.exp(t)
            return (1.0 + lam2 / u) ** 2.5 * (np.sqrt(u) + params.lam) \
                * np.exp(-phi(u, params) / h_col) * u

        return _fixed_rule(integrand, edges)

    return _over_h(h, rule)


@dataclass(frozen=True)
class TailReport:
    """Numeric verification of the large-h power law of f_H.

    fitted_slope: least-squares slope of log f_H against log h.
    window: (h_lo, h_hi) of the fitted grid.
    plateau_ratio_spread: (max - min)/median of I(h) p^3 / h^(3/2).
    u1_phi_ratio / u2_phi_ratio: phi at the small/large asymptotic roots of
    phi(u) = h, divided by h, evaluated at the top of the window (both -> 1).
    """

    fitted_slope: float
    window: tuple[float, float]
    plateau_ratio_spread: float
    u1_phi_ratio: float
    u2_phi_ratio: float


def tail_report(params, h_grid=None, n_points=25):
    """Fit the tail exponent of f_H and check the plateau of I(h).

    The default grid spans [1e2, 1e4] times the phi-minimum scale; a custom
    grid must start past 100x that scale and cover at least two decades.
    """
    hms = h_min_scale(params)
    if h_grid is None:
        h_grid = np.geomspace(100.0 * hms, 1e4 * hms, n_points)
    h_grid = np.asarray(h_grid, dtype=float)
    if h_grid[0] < 100.0 * hms * (1.0 - 1e-9):
        raise ValueError("tail grid must start at or above 100x the phi-minimum scale")
    if h_grid[-1] < 100.0 * h_grid[0] * (1.0 - 1e-9):
        raise ValueError("tail grid too narrow: need at least two decades")

    fh = f_H(h_grid, params)
    slope = float(np.polyfit(np.log(h_grid), np.log(fh), 1)[0])

    plateau = tail_integral(h_grid, params) * params.p ** 3 / h_grid ** 1.5
    spread = float((plateau.max() - plateau.min()) / np.median(plateau))

    h_top = float(h_grid[-1])
    lam2 = params.lam ** 2
    c = gauss_rate(params.a)
    u1 = c * lam2 * lam2 / h_top
    u2 = h_top / c
    return TailReport(
        fitted_slope=slope,
        window=(float(h_grid[0]), h_top),
        plateau_ratio_spread=spread,
        u1_phi_ratio=float(phi(u1, params) / h_top),
        u2_phi_ratio=float(phi(u2, params) / h_top),
    )

