"""Ensemble density of the local error estimate h at a fixed eigenvalue.

With the eigenvalue lam, matrix size p, and bulk density value rho(lam)
fixed, the two neighbor gaps follow the joint GOE surmise, and pushing them
through the local estimate

    h_hat(s-, s+) = lam^2 [1/s-^2 + 1/s+^2 + p rho (1/s- + 1/s+)]

induces a probability density f_H(h). This module evaluates f_H and its
cumulative F_H semi-analytically: the level set h_hat = h is solved in
closed form (``s0``, ``s_star``), and the remaining one- or two-dimensional
integrals are done by adaptive Gauss-Kronrod quadrature. The large-h tail
obeys f_H = O(p^2/h^2), which ``tail_report`` verifies numerically.

Everything is a function of (lam, a = p*rho) only; sampling utilities for
the joint gap surmise are included as an independent Monte-Carlo oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .estimators import h_hat
from .spectral import joint_gap_pdf, wigner_surmise_pdf

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

_QUAD_OPTS = dict(epsabs=0.0, epsrel=1e-10, limit=200)


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
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        a = self.p * self.rho
        if a <= 0:
            raise ValueError("p * rho must be positive")
        object.__setattr__(self, "a", float(a))


def _coefs(params):
    # One-sided estimate g(s) = A/s^2 + B/s.
    lam2 = params.lam * params.lam
    return lam2, lam2 * params.a


def _root(d, params):
    # Positive root of A/s^2 + B/s = d for d > 0.
    a_c, b_c = _coefs(params)
    return (b_c + math.sqrt(b_c * b_c + 4.0 * a_c * d)) / (2.0 * d)


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


def _gap_cut(params):
    # Beyond ~12 mean gaps the Gaussian factor of J is below 1e-40.
    return 12.0 / params.a


def _joint_scalar(sm, sp, a):
    # Scalar fast path of joint_gap_pdf for the quadrature hot loop.
    if sm <= 0.0 or sp <= 0.0:
        return 0.0
    b = 9.0 * a * a / (4.0 * math.pi)
    expo = -b * (sm * sm + sp * sp + sm * sp)
    if expo < -745.0:
        return 0.0
    coef = 2187.0 * a ** 5 / (32.0 * math.pi ** 3)  # 3^7 = 2187
    return coef * sm * sp * (sm + sp) * math.exp(expo)


def _log_fh_integrand(h, s_plus, params):
    d = _residual(h, s_plus, params)
    if d <= 0:
        return -math.inf
    s = _root(d, params)
    if not math.isfinite(s):
        return -math.inf
    a_c, b_c = _coefs(params)
    a = params.a
    log_coef = 7.0 * math.log(3.0) + 5.0 * math.log(a) - math.log(32.0) - 3.0 * math.log(math.pi)
    b_exp = 9.0 * a * a / (4.0 * math.pi)
    quad_form = s * s + s_plus * s_plus + s * s_plus
    # J(s, s+) * |ds/dh| with |ds/dh| = s^3 / (2A + B s), all in log space so
    # huge s near the lower endpoint cannot overflow the polynomial factors.
    return (log_coef + math.log(s_plus) + 4.0 * math.log(s) + math.log(s + s_plus)
            - math.log(2.0 * a_c + b_c * s) - b_exp * quad_form)


def _checked_quad(func, lo, hi, points=None, epsrel=None):
    opts = _QUAD_OPTS if epsrel is None else dict(_QUAD_OPTS, epsrel=epsrel)
    res = quad(func, lo, hi, points=points, full_output=1, **opts)
    value, abserr = res[0], res[1]
    if len(res) > 3 and abserr > max(1e-8, 1e-6 * abs(value)):
        raise RuntimeError(f"quadrature did not converge: {res[3]}")
    return value


def f_H(h, params):
    """Semi-analytical density of the local error estimate at fixed lam.

    f_H(h) = -int_{s0(h)}^inf J(s_star(h, s+), s+) ds_star/dh ds+, evaluated
    by adaptive quadrature with the semi-infinite tail truncated where the
    Gaussian factor of J is negligible. The integrand is 0 at the lower
    endpoint (s_star diverges but J wins) and is evaluated in log space.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    lo = s0(h, params)
    hi = lo + _gap_cut(params)

    def integrand(s_plus):
        log_val = _log_fh_integrand(h, s_plus, params)
        return 0.0 if log_val < -745.0 else math.exp(log_val)

    points = [x for x in (2.0 * lo, 1.0 / params.a) if lo < x < hi]
    return _checked_quad(integrand, lo, hi, points=sorted(points))


def F_H(h, params):
    """Cumulative probability P(h_hat < h) as a double integral of J.

    Integrates the joint gap surmise over the region s+ in (s0(h), inf),
    s- in (s_star(h, s+), inf); nondecreasing in h and -> 1 as h -> inf.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    lo = s0(h, params)
    cut = _gap_cut(params)
    outer_hi = lo + cut

    a = params.a

    def inner(s_plus):
        d = _residual(h, s_plus, params)
        if d <= 0:
            return 0.0
        start = s_star(h, s_plus, params)
        stop = max(start, lo) + cut
        if start >= stop:
            return 0.0
        return _checked_quad(
            lambda s_minus: _joint_scalar(s_minus, s_plus, a),
            start, stop, epsrel=1e-9,
        )

    points = [x for x in (2.0 * lo, 1.0 / params.a) if lo < x < outer_hi]
    return _checked_quad(inner, lo, outer_hi, points=sorted(points), epsrel=1e-9)


def f_H_mass(params, h_hi=None):
    """Total mass of f_H: log-domain quadrature plus the 1/h^2 tail closure.

    The integral over (0, h_hi) is done in t = log h; the mass beyond h_hi
    is completed as f_H(h_hi) * h_hi, exact for a pure h^-2 tail. Mass below
    the lower cutoff is doubly-exponentially small and ignored.
    """
    h_typ = 4.0 * (params.lam * params.a) ** 2
    if h_hi is None:
        h_hi = 2e4 * h_typ
    t_lo, t_hi = np.log(1e-3 * h_typ), np.log(h_hi)

    def integrand(t):
        h = math.exp(t)
        return f_H(h, params) * h

    mass = _checked_quad(integrand, t_lo, t_hi, points=[np.log(h_typ)], epsrel=1e-7)
    return mass + f_H(h_hi, params) * h_hi


def sample_joint_gaps(params, size, seed, batch=None):
    """Draw (s-, s+) pairs from the joint gap surmise by rejection sampling.

    Proposal: product of two independent Wigner-surmise marginals at a
    slightly widened scale (0.9 a), so the density ratio stays bounded; the
    envelope constant is computed numerically once per call. This sampler is
    the Monte-Carlo oracle for f_H and deliberately avoids the s0/s_star
    machinery.
    """
    rng = np.random.default_rng(seed)
    a = params.a
    a_prop = 0.9 * a
    p_eff = a_prop / params.rho  # wigner_surmise_pdf takes (p, rho) with a = p*rho

    grid = np.linspace(1e-5 / a, 14.0 / a, 400)
    gm, gp = np.meshgrid(grid, grid, indexing="ij")
    proposal = wigner_surmise_pdf(gm, p_eff, params.rho) * \
        wigner_surmise_pdf(gp, p_eff, params.rho)
    ratio = joint_gap_pdf(gm, gp, params.p, params.rho) / proposal
    envelope = 1.3 * float(ratio.max())

    if batch is None:
        batch = int(2 * size * envelope) + 64
    out_m = np.empty(0)
    out_p = np.empty(0)
    scale = 2.0 / (a_prop * np.sqrt(np.pi))
    while out_m.size < size:
        sm = scale * np.sqrt(-np.log1p(-rng.random(batch)))
        sp = scale * np.sqrt(-np.log1p(-rng.random(batch)))
        accept_prob = joint_gap_pdf(sm, sp, params.p, params.rho) / (
            envelope
            * wigner_surmise_pdf(sm, p_eff, params.rho)
            * wigner_surmise_pdf(sp, p_eff, params.rho)
        )
        keep = rng.random(batch) < accept_prob
        out_m = np.concatenate([out_m, sm[keep]])
        out_p = np.concatenate([out_p, sp[keep]])
    return out_m[:size], out_p[:size]


def push_h_samples(params, size, seed):
    """Monte-Carlo oracle: map joint-surmise gap draws through h_hat."""
    sm, sp = sample_joint_gaps(params, size, seed)
    return h_hat(params.lam, sm, sp, params.p, params.rho)


def phi(u, params):
    """Exponent profile of the tail integral; minimal at u = lam^2."""
    u = np.asarray(u, dtype=float)
    lam2 = params.lam * params.lam
    c = (3.0 * params.a) ** 2 / (4.0 * np.pi)
    out = c * (u + lam2) * (1.0 + params.lam / np.sqrt(u) + lam2 / u)
    return float(out) if out.ndim == 0 else out


def h_min_scale(params):
    """Minimum of phi: (27 / 2 pi) (lam p rho)^2, the tail-window unit."""
    return 27.0 / (2.0 * np.pi) * (params.lam * params.a) ** 2


def tail_integral(h, params):
    """I(h) = int_0^inf (1 + lam^2/u)^(5/2) (sqrt(u) + lam) e^(-phi(u)/h) du.

    Carries the large-h scaling of f_H beyond the explicit h^(-7/2) factor;
    I(h) * p^3 / h^(3/2) plateaus for h far above the phi minimum. Evaluated
    in log-u with the integration range cut where the exponent passes ~700.
    """
    lam = params.lam
    lam2 = lam * lam
    c = (3.0 * params.a) ** 2 / (4.0 * math.pi)
    u_lo = c * lam2 * lam2 / (700.0 * h)
    u_hi = 700.0 * h / c

    def integrand(t):
        u = math.exp(t)
        expo = c * (u + lam2) * (1.0 + lam / math.sqrt(u) + lam2 / u) / h
        if expo > 700.0:
            return 0.0
        g = (1.0 + lam2 / u) ** 2.5 * (math.sqrt(u) + lam)
        return g * math.exp(-expo) * u

    pts = sorted(math.log(x) for x in (c * lam2 * lam2 / h, lam2, h / c)
                 if u_lo < x < u_hi)
    return _checked_quad(integrand, math.log(u_lo), math.log(u_hi), points=pts)


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

    fh = np.array([f_H(h, params) for h in h_grid])
    slope = float(np.polyfit(np.log(h_grid), np.log(fh), 1)[0])

    ivals = np.array([tail_integral(h, params) for h in h_grid])
    plateau = ivals * params.p ** 3 / h_grid ** 1.5
    spread = float((plateau.max() - plateau.min()) / np.median(plateau))

    h_top = float(h_grid[-1])
    lam2 = params.lam ** 2
    c = (3.0 * params.a) ** 2 / (4.0 * np.pi)
    u1 = c * lam2 * lam2 / h_top
    u2 = h_top / c
    return TailReport(
        fitted_slope=slope,
        window=(float(h_grid[0]), h_top),
        plateau_ratio_spread=spread,
        u1_phi_ratio=float(phi(u1, params) / h_top),
        u2_phi_ratio=float(phi(u2, params) / h_top),
    )

