"""Ensemble density of the local error estimate h at a fixed eigenvalue.

With the eigenvalue lam, matrix size p, and bulk density value rho(lam)
fixed, the two neighbor gaps follow the joint GOE surmise, and pushing them
through the local estimate

    h_hat(s-, s+) = lam^2 [1/s-^2 + 1/s+^2 + p rho (1/s- + 1/s+)]

induces a probability density f_H(h). In mean gaps x = a s, a = p rho, the
level set is 1/x-^2 + 1/x+^2 + 1/x- + 1/x+ = u = h / (lam a)^2, solved in
closed form (``s0``, ``s_star``) from v = 1/u = (lam a)^2 / h, which cannot
overflow, and f_H(h) = g(u) / (lam a)^2, F_H(h) = G(u) with g and G integrals
over the half arc x in [x_eq, x_eq + 12] that take no parameters: their
Gauss-Legendre panels and nodes are built once at import, each integrand is
one array expression, both orders are summed by one product with a (nodes, 2)
weight matrix and checked against each other, and the value is exactly 0 where
x_eq passes one constant cut. A float h, the unit of a density plot or a
quantile search, takes one pass over the nodes with v and x_eq in floats and
stays a float to the return value; every array, a 0-d or size-1 one too, is
summed in blocks of 64 rows, and each h gets the same value, bit for bit,
either way. ``tail_report`` verifies the large-h tail f_H = O(p^2/h^2) with a
tail integral on the same two-order rule.
``sample_joint_gaps`` draws the joint gap surmise exactly, as the spacings of
three GOE levels, and serves as an independent Monte-Carlo oracle. It draws its
gammas whole and then its uniforms, in that stream order, and transforms them
(and ``push_h_samples`` maps them through ``h_hat``) in place, in blocks of
8192 draws that stay in cache: each value is the one the whole-array
expressions give, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimators import _checked_h, h_hat
from .spectral import _checked_int, _gap_scale, _scalar_if_0d, gauss_rate

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
    "push_h_samples",
    "h_min_scale",
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
        # tail_report's plateau carries p^3, so a negative p would flip its sign.
        _checked_int("p", self.p, 1)
        for name, value in (("lam", self.lam), ("rho", self.rho)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive")
        object.__setattr__(self, "a", float(_gap_scale(self.p, self.rho)))


def _h_unit(params):
    # (lam a)^2: in mean gaps x = a s, h_hat = (lam a)^2 (1/x-^2 + 1/x+^2 + 1/x- + 1/x+).
    return (params.lam * params.a) ** 2


def _root(r):
    # Positive root x = r + sqrt(r (r + 2)) of 1/x^2 + 1/x = 1/(2r), r > 0. Callers
    # form r = (lam a)^2 / (2 h) or a multiple of it, never u = h / (lam a)^2, which
    # overflows near the largest h when (lam a)^2 < 1.
    return r + np.sqrt(r) * np.sqrt(r + 2.0)


def _unit_residual(v, x):
    # d / u = 1 - v/x - v/x^2 for v = 1/u: the left root at right gap x has
    # r = 1/(2d) = v / (2 d / u), and no step squares a tiny x.
    t = v / x
    return 1.0 - t - t / x


def s0(h, params):
    """Gap below which a single side already pushes the estimate past h.

    Root of lam^2/s^2 + lam^2 a/s = h: in mean gaps x = a s and u = h/(lam a)^2,
    s0 = x(u) / a with x(u) = (1 + sqrt(1 + 4u)) / (2u). Decreases in h.
    ``h`` is a scalar (returns a float) or an array.
    """
    return _scalar_if_0d(_root(0.5 * _h_unit(params) / _checked_h(h)) / params.a)


def s_star(h, s_plus, params):
    """Left gap that makes h_hat(s-, s+) equal h, at fixed right gap s+.

    Defined through the root identity h_hat(s_star, s+) = h: the unit residual
    d = u - 1/x+^2 - 1/x+ must be positive (i.e. s+ > s0(h)), and then
    s_star = x(d) / a with the root x of ``s0``. ``h`` and ``s_plus`` broadcast.
    """
    v = _h_unit(params) / _checked_h(h)  # 1/u
    d_v = _unit_residual(v, params.a * np.asarray(s_plus, dtype=float))
    if not np.all(d_v > 0):
        raise ValueError("s_plus must exceed s0(h) for a positive root to exist")
    return _scalar_if_0d(_root(0.5 * v / d_v) / params.a)


def ds_star_dh(h, s_plus, params):
    """Analytic derivative of s_star in h; negative on the whole domain.

    Implicit differentiation of lam^2/s^2 + lam^2 a/s = D gives
    -s^3 / (lam^2 (2 + a s)), stable as D -> 0+. Arguments as for ``s_star``.
    """
    s = s_star(h, s_plus, params)
    return -s ** 3 / (params.lam ** 2 * (2.0 + params.a * s))


# Every fixed Gauss-Legendre rule sums at both orders; the sums must agree to _RULE_RTOL.
_RULES = [np.polynomial.legendre.leggauss(n) for n in (64, 40)]
_RULE_RTOL = 1e-6
_TINY = float(np.finfo(float).tiny)
# f_H_mass panels in log(h / h_typ), h_typ = 4 (lam a)^2; f_H depends on h only
# through h / (lam a)^2, so one set of edges serves every (lam, a).
_MASS_EDGES = np.log([1e-3, 1e-1, 1.0, 10.0, 2e4])
# J in mean gaps (a = 1): J~ = _J_COEF x- x+ (x- + x+) e^(-_B (x-^2 + x+^2 + x- x+)).
_J_COEF = 2187.0 / (32.0 * math.pi ** 3)  # 3^7 = 2187
_B = gauss_rate(1.0)


def _panels(edges):
    # Each order's (nodes, weights) on the panels of each row of edges (m, k+1).
    half = 0.5 * np.diff(edges, axis=1)[:, :, None]
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])[:, :, None]
    return [((mid + half * x).reshape(len(edges), -1), (half * w).reshape(len(edges), -1))
            for x, w in _RULES]


def _agreed(fine, coarse):
    # The fine sums (arrays or floats), once each agrees with its coarse sum:
    # relative above the underflow scale, where sums lose digits; NaN fails.
    # Two floats are compared by the builtins, with no 0-d array in between.
    if isinstance(fine, float):
        failed, size = int(not abs(fine - coarse) <= max(_RULE_RTOL * abs(fine), _TINY)), 1
    else:
        ok = abs(fine - coarse) <= np.maximum(_RULE_RTOL * abs(fine), _TINY)
        failed, size = int((~ok).sum()), ok.size
    if failed:
        raise RuntimeError(
            f"quadrature did not converge at {failed} of {size} points: "
            f"the two orders differ by more than {_RULE_RTOL:g} or the sum is not finite")
    return fine


def _fixed_rule(integrand, edges):
    # Integrate integrand(nodes) along the panels of each row of edges (m, k+1).
    return _agreed(*[(integrand(x) * w).sum(axis=1) for x, w in _panels(edges)])


def _over_h(h, rule):
    # rule(h_col) -> one value per row of the column h_col (m, 1), shaped as the
    # checked h; in blocks of 64 rows, whose (rows, nodes) temporaries stay in
    # cache (an empty h is one empty block).
    col = h.reshape(-1, 1)
    values = [rule(col[i:i + 64]) for i in range(0, max(len(col), 1), 64)]
    return _scalar_if_0d(np.concatenate(values).reshape(h.shape))


# The half arc x in [x_eq, x_eq + 12] has the panels x_eq + (0, 0.1, 1, 12)
# for every h (J's Gaussian factor is below 1e-40 past 12 mean gaps), so its
# nodes, as offsets from x_eq, are built once: both orders' nodes side by side
# take one integrand call, and one product with the (nodes, 2) weights _ARC_W
# (each order's column zero on the other's nodes) gives both sums.
(_FINE, _FINE_W), (_COARSE, _COARSE_W) = _panels(np.array([[0.0, 0.1, 1.0, 12.0]]))
_ARC_NODES = np.hstack([_FINE[0], _COARSE[0]])
_ARC_W = np.zeros((_ARC_NODES.size, 2))
_ARC_W[:_FINE.shape[1], 0], _ARC_W[_FINE.shape[1]:, 1] = _FINE_W[0], _COARSE_W[0]
# exp(-x) is 0.0 for every x above _EXP_UNDERFLOW (2^-1075 = e^-745.13 is half the
# smallest subnormal). On the half arc x+ >= x_eq, J~'s Gaussian factor is below
# e^(-B x_eq^2), 0.0 once x_eq reaches _X_CUT: at u = _U_CUT, h = h_typ / 63.
_EXP_UNDERFLOW = 746.0
_X_CUT = math.sqrt(_EXP_UNDERFLOW / _B)
_U_CUT = 2.0 * (1.0 / _X_CUT ** 2 + 1.0 / _X_CUT)
# Draws per block of the gap sampler and push_h_samples: 64 KB of floats a
# buffer, so each block's in-place passes stay in cache.
_MC_BLOCK = 8192


def _half_arc_rule(h, params, terms):
    # Sum terms(x_star, x_eq, x) over the half arc at each h, from v = 1/u: x_eq has
    # r = v, x_star <= x_eq. h is raised to the cut _U_CUT (lam a)^2 first, where
    # every term is already 0.0; below it, x_star^4 or x^2 overflow into inf * 0.
    h_unit = _h_unit(params)
    h_cut = _U_CUT * h_unit

    def on_arc(v, x_eq):
        # terms at the arc's nodes: (nodes,) from floats, (m, nodes) from columns.
        x = x_eq + _ARC_NODES
        return terms(_root(0.5 * v / _unit_residual(v, x)), x_eq, x)

    if isinstance(h, float):
        # A float h (np.float64 is one) takes one pass over the nodes and stays a
        # float: v and x_eq in floats, x_eq by _root's formula with math.sqrt, which
        # rounds as np.sqrt does, so the value equals the same h's row in a block,
        # bit for bit. The chained test is False for NaN too.
        if not 0 < h < math.inf:
            raise ValueError("h must be finite and positive")
        v = h_unit / max(h, h_cut)
        return _agreed(*(on_arc(v, v + math.sqrt(v) * math.sqrt(v + 2.0)) @ _ARC_W).tolist())

    def rule(h_col):
        v = h_unit / np.maximum(h_col, h_cut)
        # One product per row, so that a row's sums do not depend on the block.
        return _agreed(*(on_arc(v, _root(v))[:, None, :] @ _ARC_W)[:, 0].T)

    return _over_h(_checked_h(h), rule)


def f_H(h, params):
    """Semi-analytical density of the local error estimate at fixed lam.

    f_H(h) = -int J(s_star(h, s+), s+) ds_star/dh ds+ along the level set
    h_hat = h. J and the level set are symmetric in (s-, s+), so this is
    twice the integral over the half arc s+ >= s_eq = s0(h/2), where the
    integrand is smooth; in mean gaps, g(u) / (lam a)^2 with u = h / (lam a)^2.
    ``h`` is a scalar (returns a float) or an array.
    """
    def terms(x_star, _, x):
        # Twice J~(x_star, x) |dx_star/du|, with |dx/du| = x^3 / (2 + x), as one
        # product; x^2 + x_star^2 + x x_star = x (x + x_star) + x_star^2.
        xs = x * (x + x_star)
        x2 = x_star * x_star
        return 2.0 * _J_COEF * xs * (x2 * x2) / (2.0 + x_star) * np.exp(-_B * (xs + x2))

    return _half_arc_rule(h, params, terms) / _h_unit(params)


def _erfc(z):
    # The C library's erfc, mapped over the array z.
    return np.fromiter(map(math.erfc, z.ravel().tolist()), float, z.size).reshape(z.shape)


def _upper_mass(lo, x):
    # I~(lo, x) e^(3 B x^2 / 4), where I~(lo, x) = int_lo^inf J~(y, x) dy: with
    # t = y + x/2 the exponent is -B (t^2 + 3 x^2 / 4) and y (y + x) = t^2 - x^2 / 4,
    # so I~ = c x [t0/(2B) e^(-B t0^2) + (1/(2B) - x^2/4) sqrt(pi/B)/2 erfc(sqrt(B) t0)]
    # e^(-3 B x^2 / 4) with t0 = lo + x/2. In gaps s, I(lo, x) = a I~(a lo, a x).
    t0 = lo + 0.5 * x
    tail = t0 / (2.0 * _B) * np.exp(-_B * t0 * t0) \
        + (0.5 / _B - 0.25 * x * x) * 0.5 * math.sqrt(math.pi / _B) * _erfc(math.sqrt(_B) * t0)
    return _J_COEF * x * tail


def F_H(h, params):
    """Cumulative probability P(h_hat < h) of the joint gap surmise J.

    The region s+ > s0(h), s- > s_star(h, s+) is split at s_eq = s0(h/2);
    mirroring the part s+ < s_eq and swapping its order of integration gives
    F_H(h) = int_{s_eq}^inf [2 I(s_star(h, x), x) - I(s_eq, x)] dx with the
    closed form I(lo, x) = int_lo^inf J(y, x) dy; in mean gaps, G(u). Nondecreasing
    in h and -> 1 as h -> inf. ``h`` is a scalar (returns a float) or an array.
    """
    # _upper_mass leaves out e^(-3 B x^2 / 4), applied once to both terms.
    return _half_arc_rule(h, params, lambda x_star, x_eq, x: (
        2.0 * _upper_mass(x_star, x) - _upper_mass(x_eq, x)) * np.exp(-0.75 * _B * x * x))


def f_H_mass(params):
    """Total mass of f_H: a fixed rule in t = log h plus the 1/h^2 tail closure.

    The integral runs over h in (1e-3, 2e4) h_typ; the mass beyond the top is
    completed as f_H(h_hi) * h_hi, exact for a pure h^-2 tail. Mass below the
    lower cutoff is doubly-exponentially small and ignored.
    """
    edges = math.log(4.0 * _h_unit(params)) + _MASS_EDGES
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
    the s0/s_star machinery. ``size`` is a non-negative integer.
    """
    size = _checked_int("size", size, 0)
    rng = np.random.default_rng(seed)
    # All size gammas first, then the uniforms block by block: the stream order
    # of rng.gamma(2.5, size) (scale 1.0 multiplies exactly) and rng.random(size).
    # Each block turns gammas into r in the s- buffer and uniforms into theta in
    # the s+ buffer, with no temporary of size floats.
    sm = rng.standard_gamma(2.5, size)
    sp = np.empty(size)
    sin_theta = np.empty(min(size, _MC_BLOCK))
    rate = 3.0 * gauss_rate(params.a)
    for start in range(0, size, _MC_BLOCK):
        r, theta = sm[start:start + _MC_BLOCK], sp[start:start + _MC_BLOCK]
        sin_t = sin_theta[:r.size]
        np.multiply(2.0, np.sqrt(np.divide(r, rate, out=r), out=r), out=r)
        rng.random(out=theta)
        np.subtract(1.0, np.multiply(2.0, theta, out=theta), out=theta)
        np.divide(np.arccos(theta, out=theta), 3.0, out=theta)
        np.sin(theta, out=sin_t)
        np.sin(np.subtract(np.pi / 3.0, theta, out=theta), out=theta)
        np.multiply(r, theta, out=theta)
        np.multiply(r, sin_t, out=r)
    return sm, sp


def push_h_samples(params, size, seed):
    """Monte-Carlo oracle: map joint-surmise gap draws through h_hat.

    h replaces s+ in its buffer, one cache-sized block at a time.
    """
    sm, sp = sample_joint_gaps(params, size, seed)
    for start in range(0, sp.size, _MC_BLOCK):
        block = slice(start, start + _MC_BLOCK)
        sp[block] = h_hat(params.lam, sm[block], sp[block], params.p, params.rho)
    return sp


def phi(u, params):
    """Exponent profile of the tail integral; minimal at u = lam^2."""
    u = np.asarray(u, dtype=float)
    lam2 = params.lam * params.lam
    out = gauss_rate(params.a) * (u + lam2) * (1.0 + params.lam / np.sqrt(u) + lam2 / u)
    return _scalar_if_0d(out)


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

    return _over_h(_checked_h(h), rule)


@dataclass(frozen=True)
class TailReport:
    """Numeric verification of the large-h power law of f_H.

    h_grid, fh: the fitted grid of h and f_H on it.
    fitted_slope: least-squares slope of log f_H against log h.
    plateau_ratio_spread: (max - min)/median of I(h) p^3 / h^(3/2).
    u1_phi_ratio / u2_phi_ratio: phi at the small/large asymptotic roots of
    phi(u) = h, divided by h, evaluated at the top of the window (both -> 1).
    """

    h_grid: np.ndarray
    fh: np.ndarray
    fitted_slope: float
    plateau_ratio_spread: float
    u1_phi_ratio: float
    u2_phi_ratio: float

    @property
    def window(self):
        """(h_lo, h_hi) of the fitted grid."""
        return float(self.h_grid[0]), float(self.h_grid[-1])


def tail_report(params):
    """Fit the tail exponent of f_H and check the plateau of I(h).

    The grid is 25 points spanning [1e2, 1e4] times the phi-minimum scale.
    """
    hms = h_min_scale(params)
    h_grid = np.geomspace(100.0 * hms, 1e4 * hms, 25)

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
        h_grid=h_grid,
        fh=fh,
        fitted_slope=slope,
        plateau_ratio_spread=spread,
        u1_phi_ratio=float(phi(u1, params) / h_top),
        u2_phi_ratio=float(phi(u2, params) / h_top),
    )

