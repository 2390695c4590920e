"""One return rule for the public numeric functions: a scalar argument (a
Python float, a numpy scalar or a 0-d array) gives a Python scalar, and an
array argument an array of its shape."""

import numpy as np
import pytest

from eigerr import (
    HDensityParams,
    SpectralDensity,
    F_H,
    estimate_density,
    f_H,
    h_hat,
    joint_gap_pdf,
    mckay_density,
    regime_violation,
    sample_size_bound,
    wigner_surmise_cdf,
    wigner_surmise_pdf,
)
from eigerr.hdensity import ds_star_dh, phi, s0, s_star, tail_integral

RHO = SpectralDensity.mckay(20)(20.0)
PARAMS = HDensityParams(lam=20.0, p=1000, rho=RHO)
H = 4.0 * (PARAMS.lam * PARAMS.a) ** 2
S_PLUS = 2.0 * s0(H, PARAMS)
EMPIRICAL = estimate_density([np.linspace(0.0, 40.0, 200)], bin_width=2.0)

# name: (function of one argument, argument, type of a scalar result)
CASES = {
    "mckay_density": (lambda x: mckay_density(x, 20), 1.0, float),
    "SpectralDensity.mckay": (SpectralDensity.mckay(20), 20.0, float),
    "SpectralDensity.empirical": (EMPIRICAL, 20.0, float),
    "wigner_surmise_pdf": (lambda s: wigner_surmise_pdf(s, 1000, RHO), 0.02, float),
    "wigner_surmise_cdf": (lambda s: wigner_surmise_cdf(s, 1000, RHO), 0.02, float),
    "joint_gap_pdf": (lambda s: joint_gap_pdf(s, s, 1000, RHO), 0.02, float),
    "h_hat": (lambda lam: h_hat(lam, 0.02, 0.03, 1000, RHO), 20.0, float),
    "sample_size_bound": (sample_size_bound, 1e6, float),
    "regime_violation": (lambda h: regime_violation(10 ** 5, h), 1e6, bool),
    "s0": (lambda h: s0(h, PARAMS), H, float),
    "s_star": (lambda h: s_star(h, S_PLUS, PARAMS), H, float),
    "ds_star_dh": (lambda h: ds_star_dh(h, S_PLUS, PARAMS), H, float),
    "f_H": (lambda h: f_H(h, PARAMS), H, float),
    "F_H": (lambda h: F_H(h, PARAMS), H, float),
    "tail_integral": (lambda h: tail_integral(h, PARAMS), 1e3 * H, float),
    "phi": (lambda u: phi(u, PARAMS), 400.0, float),
}


@pytest.mark.parametrize("name", CASES)
def test_scalar_in_scalar_out(name):
    fn, x, kind = CASES[name]
    expected = fn(x)
    for arg in (x, np.float64(x), np.array(x)):
        out = fn(arg)
        assert type(out) is kind and out == expected, type(arg)
    out = fn(np.array([x]))
    assert isinstance(out, np.ndarray) and out.shape == (1,) and out[0] == expected
