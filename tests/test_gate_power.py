"""Can the gates tell right from wrong? Statistics run on a wrong model.

The negative control is a population with no level repulsion:
``poisson_spectrum``, iid draws from McKay's law of the 20-regular
Laplacian, at p=1000, M=20, seeds ``child_seed(11, 9, m)``. Its gaps are
exponential, so one gap x near 0 has density 1 where J's marginal vanishes,
and with u = h / (lam p rho)^2 ~ 1/x^2 and either gap small,
P(u > U) ~ 2 / sqrt(U): tail index 1/2, where the GOE model's is 1.

The ensemble statistics of h reject it, and so do the runners' own
statistics of `spacing` and `joint-gaps`, handed the control's spectra as
`run` hands them an ensemble's. The per-index statistics of criteria 1 and 2
pass it, and so does `hhat-vs-h` (a recorded blind spot): they check
Anderson's law E||u_i - u~_i||^2 ~ h_i / n, which holds for any spectrum.
"""

import numpy as np
import pytest
from scipy import stats

import eigerr as eg
from eigerr import experiments
from eigerr.experiments import ExperimentConfig
from eigerr.hdensity import F_H, HDensityParams
from eigerr.wishart import child_seed
from oracles import hist_l1, model_cdf_grid, poisson_spectrum

P, K, M, LAMBDA0, DELTA = 1000, 20, 20, 20.0, 1.0
MCKAY = eg.SpectralDensity.mckay(K)
PARAMS = HDensityParams(lam=LAMBDA0, p=P, rho=MCKAY(LAMBDA0))
CONFIG = ExperimentConfig(p=P, k=K, M=M, lambda0=LAMBDA0, delta=DELTA)


def window_h(spectra):
    """Per spectrum, h_exact and lam of the indices within LAMBDA0 +- DELTA."""
    for ev in spectra:
        records = eg.extract_gap_records(ev, LAMBDA0, DELTA)
        yield eg.h_exact_all(ev)[records.index - 1], records.lam


@pytest.fixture(scope="module")
def control_spectra():
    """The control's (M, P) spectra, one row per spectrum."""
    return np.array([poisson_spectrum(P, K, child_seed(11, 9, m)) for m in range(M)])


@pytest.fixture(scope="module")
def control(control_spectra):
    """The control's per-spectrum (h_exact, lam) in the window (0.2 s)."""
    return list(window_h(control_spectra))


def runner_stats(runner, spectra):
    """A runner's stats.json on these spectra, with McKay's rho and no
    connectivity flags (the control is no graph)."""
    return runner(CONFIG, spectra, (), MCKAY)["stats.json"]


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


def test_spacing_ks_rejects_the_control(control_spectra, bulk_spectra):
    # spacing's own KS statistic, against criterion 3's bound 0.05: the
    # control reads 0.213, above 3 times the bound, and the graph fixture
    # 0.0144, below half of it.
    assert runner_stats(experiments._run_spacing, control_spectra)["ks_statistic"] >= 3 * 0.05
    assert runner_stats(experiments._run_spacing, bulk_spectra)["ks_statistic"] <= 0.05 / 2


def test_joint_gaps_l1_rejects_the_control(control_spectra, bulk_spectra):
    # joint-gaps' own L1 distance, against criterion 4's bound 0.2: the
    # control reads 0.845, above 3 times the bound, and the graph fixture
    # 0.068, below half of it.
    assert runner_stats(experiments._run_joint_gaps, control_spectra)["l1_distance"] >= 3 * 0.2
    assert runner_stats(experiments._run_joint_gaps, bulk_spectra)["l1_distance"] <= 0.2 / 2


def test_hhat_vs_h_passes_the_control(control_spectra, bulk_spectra):
    # A blind spot, recorded: hhat-vs-h's own statistics cannot tell the
    # control from the graph fixture. The log correlation reads 0.9967 on the
    # control and 0.9970 on the fixture, both above criterion 1's bound 0.99
    # by 0.006 or more (the test asks 0.995). The corrected lower-half
    # median error reads 0.141 and 0.149, 0.33 and 0.36 of the uncorrected
    # one (0.433 and 0.413), where criterion 1 asks for less than 1 (the test
    # asks 0.4).
    for spectra in (control_spectra, bulk_spectra):
        stats = runner_stats(experiments._run_hhat_vs_h, spectra)
        assert stats["log_pearson_corr"] >= 0.995
        assert stats["median_rel_err_corrected_lower_half"] \
            <= 0.4 * stats["median_rel_err_uncorrected_lower_half"]
