"""Can the gates tell right from wrong? Statistics run on a wrong model.

The negative control is a population with no level repulsion:
``poisson_spectrum``, iid draws from McKay's law of the 20-regular
Laplacian, at p=1000, M=20, seeds ``child_seed(11, 9, m)``. Its gaps are
exponential, so one gap x near 0 has density 1 where J's marginal vanishes,
and with u = h / (lam p rho)^2 ~ 1/x^2 and either gap small,
P(u > U) ~ 2 / sqrt(U): tail index 1/2, where the GOE model's is 1.

The ensemble statistics of h reject it. The per-index statistics of
criteria 1 and 2 pass it (a recorded blind spot): they check Anderson's
law E||u_i - u~_i||^2 ~ h_i / n, which holds for any spectrum.
"""

import numpy as np
import pytest
from scipy import stats

import eigerr as eg
from eigerr.hdensity import F_H, HDensityParams
from eigerr.wishart import child_seed
from oracles import hist_l1, model_cdf_grid, poisson_spectrum

P, K, M, LAMBDA0, DELTA = 1000, 20, 20, 20.0, 1.0
MCKAY = eg.SpectralDensity.mckay(K)
PARAMS = HDensityParams(lam=LAMBDA0, p=P, rho=MCKAY(LAMBDA0))


def window_h(spectra):
    """Per spectrum, h_exact and lam of the indices within LAMBDA0 +- DELTA."""
    for ev in spectra:
        records = eg.extract_gap_records(ev, LAMBDA0, DELTA)
        yield eg.h_exact_all(ev)[records.index - 1], records.lam


@pytest.fixture(scope="module")
def control():
    """The control's per-spectrum (h_exact, lam) in the window (0.2 s)."""
    return list(window_h(poisson_spectrum(P, K, child_seed(11, 9, m)) for m in range(M)))


def hill_index(h, top=100):
    """Hill's estimate of the tail index from the top order statistics."""
    largest = np.sort(h)[::-1][:top + 1]
    return float(1.0 / np.mean(np.log(largest[:top] / largest[top])))


def ks_against_F_H(h):
    return float(stats.kstest(h, lambda x: F_H(x, PARAMS)).statistic)


def test_ensemble_statistics_reject_the_control(control, bulk_spectra):
    # Control / the graph fixture: Hill 0.53 / 0.92, KS 0.325 / 0.082.
    h = np.concatenate([h for h, _ in control])
    assert h.size == 2790
    assert hill_index(h) <= 0.75
    assert ks_against_F_H(h) >= 0.2
    graphs = np.concatenate([h for h, _ in window_h(bulk_spectra)])
    assert hill_index(graphs) > 0.75
    assert ks_against_F_H(graphs) < 0.2


def test_criterion_5_l1_rejects_the_control(control):
    # Criterion 5's own call and bound (0.25); the control reads 0.736.
    h = np.concatenate([h for h, _ in control])
    grid, cum = model_cdf_grid(PARAMS, h.min() / 4.0, h.max() * 8.0)
    assert hist_l1(h, grid, cum, nbins=30) > 0.25


def test_control_tail_is_two_over_root_u(control):
    # P(u > 100) against 2/sqrt(100) = 0.2, within 3 standard errors of the
    # pooled fraction, taken over the M independent spectra (a small gap is
    # shared by two indices, so the indices are not independent). Reads 0.195,
    # standard error 0.013.
    exceed = [h / (lam * P * MCKAY(lam)) ** 2 > 100.0 for h, lam in control]
    frac = np.concatenate(exceed).mean()
    se = np.std([e.mean() for e in exceed], ddof=1) / np.sqrt(M)
    assert abs(frac - 0.2) <= 3.0 * se


def test_criteria_1_and_2_pass_the_control():
    # A blind spot, recorded: at p=200, one control spectrum, criterion 1's
    # log correlation reads 0.9973 (>= 0.99) and criterion 2's median
    # |n_mean / h_hat - 1| at R=40, n=1e8 reads 0.174 (<= 0.20).
    ev = poisson_spectrum(200, K, child_seed(11, 9, 0))
    lam, sm, sp = ev[1:-1], np.diff(ev)[:-1], np.diff(ev)[1:]
    hx = eg.h_exact_all(ev)[1:-1]
    hh = eg.h_hat(lam, sm, sp, 200, MCKAY(lam))
    assert np.corrcoef(np.log(hx), np.log(hh))[0, 1] >= 0.99
    n = 10 ** 8
    n_mean = eg.bootstrap_error(ev, R=40, n=n, seed=7).n_mean[1:-1]
    in_regime = hx <= 2.0 * n
    assert np.median(np.abs(n_mean[in_regime] / hh[in_regime] - 1.0)) <= 0.20
