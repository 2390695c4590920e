"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Every Monte-Carlo criterion runs at a fixed seed so the suite is
deterministic; the budget asserts mirror the stated runtime limits.
"""

import time

import numpy as np
import pytest
from scipy import integrate, stats

import eigerr as eg
from eigerr.experiments import _joint_cell_masses
from eigerr.hdensity import (
    F_H,
    HDensityParams,
    ds_star_dh,
    f_H,
    f_H_mass,
    h_min_scale,
    push_h_samples,
    s0,
    s_star,
    tail_report,
)
from eigerr.spectral import eig_sym
from eigerr.wishart import child_seed, sample_wishart_scaled

MCKAY = eg.SpectralDensity.mckay(20)
RHO20 = MCKAY(20.0)


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)


def interior(ev):
    """Two-sided-gap view of a spectrum: lam, s-, s+ for indices 2..p-1."""
    return ev[1:-1], np.diff(ev)[:-1], np.diff(ev)[1:]


def model_cdf_grid(params, h_lo, h_hi, n=600):
    """Fine-grid cumulative of f_H (single-route: density only)."""
    grid = np.geomspace(h_lo, h_hi, n)
    fh = np.array([f_H(h, params) for h in grid])
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (fh[1:] + fh[:-1]) * np.diff(grid))])
    return grid, cum


def hist_l1(samples, grid, cum, nbins=30):
    """L1 distance between a sample histogram and the f_H bin masses."""
    bins = np.geomspace(np.quantile(samples, 0.005), np.quantile(samples, 0.995),
                        nbins + 1)
    counts, _ = np.histogram(samples, bins=bins)
    p_emp = counts / samples.size
    p_mod = np.diff(np.interp(bins, grid, cum))
    return float(np.abs(p_emp - p_mod).sum() + abs(p_emp.sum() - p_mod.sum()))


def test_criterion_1_hhat_accuracy():
    """Main result 1: log-log correlation and the value of the corrections."""
    t0 = time.perf_counter()
    c = eg.laplacian(eg.sample_regular_graph(100, 20, seed=101))
    lam, sm, sp = interior(c.eigenvalues)
    hx = eg.h_exact_all(c.eigenvalues)[1:-1]
    rho = MCKAY(lam)
    hh = eg.h_hat(lam, sm, sp, 100, rho, include_correction=True)
    hh0 = eg.h_hat(lam, sm, sp, 100, rho, include_correction=False)

    corr = float(np.corrcoef(np.log(hx), np.log(hh))[0, 1])
    lower = hx <= np.median(hx)
    med_corr = float(np.median(np.abs(hh[lower] / hx[lower] - 1.0)))
    med_plain = float(np.median(np.abs(hh0[lower] / hx[lower] - 1.0)))
    elapsed = time.perf_counter() - t0

    ok = corr >= 0.99 and med_corr < med_plain and elapsed < 30.0
    report("criterion-1 hhat-accuracy", ok,
           f"log-corr={corr:.4f} (>=0.99), lower-half rel err "
           f"corrected={med_corr:.3f} < uncorrected={med_plain:.3f}, {elapsed:.1f}s")
    assert corr >= 0.99
    assert med_corr < med_plain
    assert elapsed < 30.0


def test_criterion_2_error_law():
    """Bootstrap error law: n * mean residual tracks h_hat in-regime."""
    t0 = time.perf_counter()
    n = 10 ** 7
    c = eg.laplacian(eg.sample_regular_graph(100, 20, seed=202))
    result = eg.bootstrap_error(c, eg.BootstrapConfig(R=100, n=n, seed=2020))
    lam, sm, sp = interior(c.eigenvalues)
    hx = eg.h_exact_all(c.eigenvalues)[1:-1]
    hh = eg.h_hat(lam, sm, sp, 100, MCKAY(lam))
    in_regime = hx <= 2.0 * n
    rel = np.abs(result.n_mean[1:-1][in_regime] / hh[in_regime] - 1.0)
    med = float(np.median(rel))
    elapsed = time.perf_counter() - t0

    ok = med <= 0.20 and elapsed < 300.0
    report("criterion-2 error-law", ok,
           f"median rel dev={med:.4f} (<=0.20) over {int(in_regime.sum())} indices, "
           f"{elapsed:.1f}s")
    assert med <= 0.20
    assert elapsed < 300.0


def test_criterion_3_spacing_ks(bulk_gap_records):
    """Normalized right gaps against the spacing surmise (KS)."""
    t0 = time.perf_counter()
    t = 1000 * bulk_gap_records.s_plus
    ks = stats.kstest(t, lambda x: eg.wigner_surmise_cdf(x, 1.0, RHO20))
    elapsed = time.perf_counter() - t0

    ok = ks.statistic <= 0.05
    report("criterion-3 spacing-ks", ok,
           f"KS={ks.statistic:.4f} (<=0.05) over {t.size} gaps, {elapsed:.1f}s")
    assert ks.statistic <= 0.05
    assert elapsed < 600.0


def test_criterion_4_joint_surmise(bulk_gap_records):
    """2-D gap histogram against the joint surmise (L1)."""
    a = 1000 * RHO20
    sm, sp = bulk_gap_records.s_minus, bulk_gap_records.s_plus
    edges = np.linspace(0.0, 3.5 / a, 11)
    counts, _, _ = np.histogram2d(sm, sp, bins=[edges, edges])
    p_emp = counts / sm.size
    p_mod = _joint_cell_masses(edges, 1000, RHO20)
    l1 = float(np.abs(p_emp - p_mod).sum() + abs(p_emp.sum() - p_mod.sum()))

    ok = l1 <= 0.2
    report("criterion-4 joint-surmise", ok,
           f"L1={l1:.4f} (<=0.2) over {sm.size} gap pairs")
    assert l1 <= 0.2


def test_criterion_5_fh_correctness(bulk_ensemble):
    """f_H: normalization, Monte-Carlo pushforward, and the empirical h pool."""
    params = HDensityParams(lam=20.0, p=1000, rho=RHO20)

    mass = f_H_mass(params)
    ok_a = abs(mass - 1.0) <= 1e-3

    h_mc = push_h_samples(params, 200_000, seed=505)
    grid, cum = model_cdf_grid(params, np.quantile(h_mc, 5e-4) / 4.0,
                               np.quantile(h_mc, 1 - 5e-4) * 8.0)
    l1_mc = hist_l1(h_mc, grid, cum, nbins=40)
    ok_b = l1_mc <= 0.05

    h_emp = []
    for mat in bulk_ensemble:
        recs = eg.extract_gap_records(mat.eigenvalues, 20.0, 1.0)
        h_emp.append(eg.h_exact_all(mat.eigenvalues)[recs.index - 1])
    h_emp = np.concatenate(h_emp)
    grid_e, cum_e = model_cdf_grid(params, h_emp.min() / 4.0, h_emp.max() * 8.0)
    l1_emp = hist_l1(h_emp, grid_e, cum_e, nbins=30)
    med_emp = float(np.median(h_emp))
    med_model = float(np.interp(0.5 * cum_e[-1], cum_e, grid_e))
    ok_c = l1_emp <= 0.25 and med_emp < med_model

    ok = ok_a and ok_b and ok_c
    report("criterion-5 fh-correctness", ok,
           f"mass={mass:.5f} (1 +- 1e-3), L1(MC)={l1_mc:.4f} (<=0.05), "
           f"L1(empirical)={l1_emp:.4f} (<=0.25), medians emp={med_emp:.3e} < "
           f"model={med_model:.3e}")
    assert ok_a and ok_b and ok_c


def test_criterion_6_tail_law():
    """Power-law tail: fitted slope -2 and the plateau of the tail integral."""
    rho = MCKAY(20.0)
    params = HDensityParams(lam=20.0, p=2000, rho=rho)
    rep = tail_report(params)

    ok = abs(rep.fitted_slope + 2.0) <= 0.15 and rep.plateau_ratio_spread < 0.2
    report("criterion-6 tail-law", ok,
           f"slope={rep.fitted_slope:.4f} (-2 +- 0.15), "
           f"plateau spread={rep.plateau_ratio_spread:.4f} (<0.2), "
           f"phi ratios=({rep.u1_phi_ratio:.4f}, {rep.u2_phi_ratio:.4f})")
    assert abs(rep.fitted_slope + 2.0) <= 0.15
    assert rep.plateau_ratio_spread < 0.2
    assert abs(rep.u1_phi_ratio - 1.0) <= 0.01
    assert abs(rep.u2_phi_ratio - 1.0) <= 0.01


def test_criterion_7_validity_bound():
    """Residual cap at 2 and saturation of far-out-of-regime samples."""
    t0 = time.perf_counter()
    c = eg.laplacian(eg.sample_regular_graph(200, 5, seed=99))
    hx = eg.h_exact_all(c.eigenvalues)
    root = eg.sqrt_psd(c)

    over_cap = 0
    saturated = 0
    far_out = 0
    for ni, n in enumerate((10 ** 3, 10 ** 4, 10 ** 5)):
        for r in range(100):
            draw = sample_wishart_scaled(root, n, child_seed(9900, ni, r))
            _, v_tilde = eig_sym(draw)
            dots = np.abs(np.einsum("ij,ij->j", c.eigenvectors, v_tilde))
            res = np.clip(2.0 * (1.0 - dots), 0.0, 2.0)
            over_cap += int((res > 2.0).sum())
            hi = hx > 10.0 * 2.0 * n
            far_out += int(hi.sum())
            saturated += int((res[hi] >= 1.5).sum())
    frac = saturated / far_out
    elapsed = time.perf_counter() - t0

    ok = over_cap == 0 and frac >= 0.90
    report("criterion-7 validity-bound", ok,
           f"residuals>2: {over_cap} (=0), saturation {100 * frac:.1f}% "
           f"(>=90%) of {far_out} samples, {elapsed:.1f}s")
    assert over_cap == 0
    assert frac >= 0.90


def test_criterion_8_sampler_soundness():
    """Bartlett route: unbiased mean and distributional match to direct draws."""
    t0 = time.perf_counter()
    c = eg.laplacian(eg.sample_regular_graph(20, 5, seed=88))
    root = eg.sqrt_psd(c)
    reps = 10_000
    draws = np.empty((reps, 20, 20))
    for r in range(reps):
        draws[r] = sample_wishart_scaled(root, 100, child_seed(3, r))
    se = draws.std(axis=0, ddof=1) / np.sqrt(reps)
    z = np.abs(draws.mean(axis=0) - c.matrix) / se
    ok_mean = float(z.max()) < 3.0

    c2 = np.array([[2.0, 0.7], [0.7, 1.0]])
    root2 = eg.sqrt_psd(c2)
    bart = np.empty((reps, 2, 2))
    for r in range(reps):
        bart[r] = sample_wishart_scaled(root2, 5, child_seed(41, r))
    rng = np.random.default_rng(42)
    direct = np.empty((reps, 2, 2))
    for r in range(reps):
        x = root2 @ rng.standard_normal((2, 5))
        direct[r] = (x @ x.T) / 5
    pvals = [stats.ks_2samp(bart[:, i, j], direct[:, i, j]).pvalue
             for i, j in ((0, 0), (0, 1), (1, 1))]
    ok_ks = min(pvals) > 0.01
    elapsed = time.perf_counter() - t0

    ok = ok_mean and ok_ks
    report("criterion-8 sampler-soundness", ok,
           f"max |z|={z.max():.3f} (<3) over 400 entries, "
           f"KS p-values={['%.3f' % p for p in pvals]} (>0.01), {elapsed:.1f}s")
    assert ok_mean
    assert ok_ks


def test_criterion_9_identity_suite():
    """Pure property identities, no ensemble sampling."""
    t0 = time.perf_counter()
    grids = [
        HDensityParams(lam=0.5, p=3, rho=0.1),
        HDensityParams(lam=2.0, p=4, rho=0.25),
        HDensityParams(lam=20.0, p=1000, rho=RHO20),
    ]

    # defining-root identity to 1e-10 relative
    worst_root = 0.0
    for params in grids:
        h_typ = 4.0 * (params.lam * params.a) ** 2
        for hm in (0.1, 1.0, 10.0, 1e3):
            h = hm * h_typ
            for sf in (1.0 + 1e-6, 1.1, 2.0, 25.0):
                sp = s0(h, params) * sf
                back = eg.h_hat(params.lam, s_star(h, sp, params), sp,
                                params.p, params.rho)
                worst_root = max(worst_root, abs(back / h - 1.0))
    ok_root = worst_root <= 1e-10

    # derivative vs finite differences to 1e-5 relative
    worst_deriv = 0.0
    for params in grids:
        h_typ = 4.0 * (params.lam * params.a) ** 2
        for hm in (0.5, 5.0):
            h = hm * h_typ
            for sf in (1.05, 2.0):
                sp = s0(h, params) * sf
                step = 1e-6 * h
                fd = (s_star(h + step, sp, params)
                      - s_star(h - step, sp, params)) / (2.0 * step)
                worst_deriv = max(worst_deriv,
                                  abs(ds_star_dh(h, sp, params) / fd - 1.0))
    ok_deriv = worst_deriv <= 1e-5

    # cumulative derivative matches the density to 1e-3 relative
    unit = grids[1]
    worst_cum = 0.0
    for h in (6.0, 12.0, 30.0):
        step = 1e-4 * h
        fd = (F_H(h + step, unit) - F_H(h - step, unit)) / (2.0 * step)
        worst_cum = max(worst_cum, abs(fd / f_H(h, unit) - 1.0))
    ok_cum = worst_cum <= 1e-3

    # surmise normalizations to 1e-3
    one_d, _ = integrate.quad(lambda s: eg.wigner_surmise_pdf(s, 10, 0.1), 0, 50)
    two_d, _ = integrate.dblquad(
        lambda x, y: eg.joint_gap_pdf(x, y, 10, 0.1), 0, 12, 0, 12)
    ok_norm = abs(one_d - 1.0) <= 1e-3 and abs(two_d - 1.0) <= 1e-3

    # aligned-residual bounds
    rng = np.random.default_rng(6)
    ok_resid = True
    for _ in range(300):
        u = rng.standard_normal(11)
        v = rng.standard_normal(11)
        r = eg.aligned_residual(u / np.linalg.norm(u), v / np.linalg.norm(v))
        ok_resid &= 0.0 <= r <= 2.0

    # eigensolver reconstruction to 1e-8
    ok_eig = True
    for size in (20, 120):
        m = rng.standard_normal((size, size))
        m = m + m.T
        w, v = eig_sym(m)
        ok_eig &= np.abs(v @ np.diag(w) @ v.T - m).max() <= 1e-8 * np.abs(w).max()
        ok_eig &= np.abs(v.T @ v - np.eye(size)).max() <= 1e-8

    elapsed = time.perf_counter() - t0
    ok = (ok_root and ok_deriv and ok_cum and ok_norm and ok_resid and ok_eig
          and elapsed < 60.0)
    report("criterion-9 identity-suite", ok,
           f"root-id={worst_root:.2e} (<=1e-10), ds/dh={worst_deriv:.2e} (<=1e-5), "
           f"F'=f {worst_cum:.2e} (<=1e-3), norms ok={ok_norm}, "
           f"bounds ok={ok_resid}, eig ok={ok_eig}, {elapsed:.1f}s")
    assert ok_root
    assert ok_deriv
    assert ok_cum
    assert ok_norm
    assert ok_resid
    assert ok_eig
    assert elapsed < 60.0
