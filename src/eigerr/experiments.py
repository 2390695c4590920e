"""Experiment orchestration: desk-scale reproductions of the validation runs.

Each experiment is a deterministic function of (config, seed) that writes
analysis-ready CSV/JSON files plus a manifest with content hashes. Child RNG
seeds are derived from the master seed by counter-based keys per (matrix,
replicate), so results are independent of execution order and thread count.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .estimators import (
    bootstrap_error,
    h_exact_all,
    h_hat,
    regime_violation,
    sample_size_bound,
)
from .graphs import is_connected, laplacian, sample_regular_graph
from .hdensity import F_H, HDensityParams, f_H, tail_report
from .spectral import (
    GapRecords,
    SpectralDensity,
    estimate_density,
    extract_gap_records,
    joint_gap_pdf,
    wigner_surmise_cdf,
    wigner_surmise_pdf,
)
from .wishart import child_seed

# Unused here, but perfbench/spans.py wraps these three bindings by name.
from .spectral import eig_sym  # noqa: F401
from .wishart import sample_wishart_scaled, sqrt_psd  # noqa: F401

__all__ = ["ExperimentConfig", "ConfigError", "EXPERIMENTS", "run", "validate"]


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 1)."""


def _integral(name, value):
    # 1e3 is 1000, but 1000.5 is not a count: refuse it, never round it.
    try:
        if value == int(value):
            return int(value)
    except (OverflowError, TypeError, ValueError):  # inf, None, nan
        pass
    raise ConfigError(f"{name} must be integral, not {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments; `n` may carry several sample sizes.

    Valid by construction: counts become ints, and one ``ConfigError`` names
    every value out of range. Frozen, so it stays valid.
    """

    p: int = 100
    k: int = 20
    n: tuple = (10_000_000,)
    R: int = 10
    M: int = 10
    lambda0: float = 20.0
    delta: float = 1.0
    seed: int = 0
    out: Path = field(default_factory=lambda: Path("out"))
    threads: int = 1

    def __post_init__(self):
        # A string is iterable too: "100" would become n=(1, 0, 0).
        if isinstance(self.n, (str, bytes)):
            raise ConfigError(f"n must be an integer or a sequence of integers, not {self.n!r}")
        n = self.n if hasattr(self.n, "__iter__") else (self.n,)
        object.__setattr__(self, "n", tuple(_integral("n", v) for v in n))
        for name in ("p", "k", "R", "M", "seed", "threads"):
            object.__setattr__(self, name, _integral(name, getattr(self, name)))
        object.__setattr__(self, "out", Path(self.out))
        problems = []
        if self.p < 2:
            problems.append("p must be >= 2")
        # k = 1 is a perfect matching, whose spectrum is only 0s and 2s: it has
        # no simple spectrum and no McKay law.
        if not 2 <= self.k < self.p:
            problems.append("need p > k >= 2")
        if (self.p * self.k) % 2 != 0:
            problems.append("p*k must be even")
        if not self.n or any(v < self.p for v in self.n):
            problems.append("every n must satisfy n >= p")
        if self.R < 1 or self.M < 1:
            problems.append("R and M must be >= 1")
        if not np.isfinite(self.lambda0):
            problems.append("lambda0 must be finite")
        if not 0 < self.delta < np.inf:  # False for NaN too
            problems.append("delta must be positive and finite")
        if self.threads < 1:
            problems.append("threads must be >= 1")
        if problems:
            raise ConfigError("; ".join(problems))

    def as_dict(self):
        d = asdict(self)
        d["n"] = list(self.n)
        d["out"] = str(self.out)
        return d


def _map_indexed(fn, count, threads):
    # Deterministic parallel map: results land in index order.
    if threads <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(count)))


def _sample_ensemble(config, count=None):
    # (count, p) Laplacian spectra, one row per graph, and the graphs'
    # connectivity. Each dense Laplacian is dropped once its eigensolve is
    # done: every runner needs only eigenvalues.
    count = config.M if count is None else count

    def build(m):
        g = sample_regular_graph(config.p, config.k, child_seed(config.seed, 0, m))
        return laplacian(g).eigenvalues, is_connected(g)

    spectra, connected = zip(*_map_indexed(build, count, config.threads))
    return np.array(spectra), connected


def _ensemble_density(spectra):
    # Laplacian spectra minus the zero (Perron) eigenvalue each matrix carries.
    return estimate_density(spectra[:, 1:])


def _pool_gap_records(spectra, lambda0, delta):
    # Each matrix's records in turn, and the matrix (row of spectra) of each.
    records = [extract_gap_records(ev, lambda0, delta) for ev in spectra]
    matrix = np.repeat(np.arange(len(records)), [r.index.size for r in records])
    return GapRecords(*map(np.concatenate, zip(*records))), matrix


def _window_records(config, spectra):
    # The pooled records within delta of lambda0; a runner needs at least one.
    records, matrix = _pool_gap_records(spectra, config.lambda0, config.delta)
    if not records.index.size:
        raise RuntimeError(f"no eigenvalues within delta of lambda0={config.lambda0}")
    return records, matrix


def _mckay_at_lambda0(config):
    rho = SpectralDensity.mckay(config.k)(config.lambda0)
    if rho <= 0:
        raise RuntimeError(f"McKay density vanishes at lambda0={config.lambda0}")
    return rho


ESTIMATE_COLUMNS = ["index", "lambda", "h_exact", "h_hat", "h_hat_uncorrected",
                    "n_mean_error", "n_std_error", "regime_violation"]
HDENSITY_COLUMNS = ["h", "f_H", "F_H"]


def _at(per_matrix, matrix, index):
    # Row `matrix`, 1-based `index` of a list of per-matrix (p,) arrays: the
    # one place a per-index table reads a matrix's values.
    return np.array(per_matrix)[matrix, index - 1]


def _index_columns(config, spectra, density, records, matrix):
    # One row per gap record; `matrix` indexes rows of `spectra`. The bootstrap
    # columns stay empty until _bootstrap_columns fills them.
    hx = _at([h_exact_all(ev) for ev in spectra], matrix, records.index)
    local = (records.lam, records.s_minus, records.s_plus, config.p, density(records.lam))
    return {
        "matrix": matrix,
        "index": records.index,
        "lambda": records.lam,
        "h_exact": hx,
        "h_hat": h_hat(*local),
        "h_hat_uncorrected": h_hat(*local, include_correction=False),
        "n_mean_error": [None] * hx.size,
        "n_std_error": [None] * hx.size,
        "regime_violation": regime_violation(config.n[0], hx),
    }


def _bootstrap_columns(config, spectra, cols):
    # Bootstraps each matrix from its own child seed, fills each row from its
    # matrix's result and returns the results.
    def boot(m):
        seed = int(child_seed(config.seed, 1, m).generate_state(1)[0])
        return bootstrap_error(spectra[m], config.R, config.n[0], seed=seed)

    boots = _map_indexed(boot, len(spectra), config.threads)
    cols["n_mean_error"] = _at([b.n_mean for b in boots], cols["matrix"], cols["index"])
    cols["n_std_error"] = _at([b.n_std for b in boots], cols["matrix"], cols["index"])
    return boots


def _cell(v):
    # The one cell rule of every CSV file: None -> empty, bool or integer ->
    # decimal integer, any other number -> shortest round-trip float.
    if v is None:
        return ""
    if isinstance(v, (int, np.integer, np.bool_)):  # bool is an int
        return str(int(v))
    return repr(float(v))


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _write_columns(path, names, cols):
    _write_csv(path, names, zip(*(cols[c] for c in names)))


def _write_json(path, payload):
    # A non-finite number is not JSON: it raises here, before the file is
    # opened (exit 2). A statistic without data is None, written as null.
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _run_density(config, out):
    spectra, connected = _sample_ensemble(config)
    density = _ensemble_density(spectra)
    grid = density.grid
    mckay = SpectralDensity.mckay(config.k)
    _write_csv(out / "density.csv", ["lambda", "rho_empirical", "rho_mckay"],
               zip(grid.tolist(), density(grid).tolist(), mckay(grid).tolist()))
    _write_json(out / "stats.json", {
        "matrices": config.M,
        "disconnected": int(sum(not c for c in connected)),
        "bin_width": density.bandwidth,
    })
    return ["density.csv", "stats.json"]


def _run_spacing(config, out):
    rho = _mckay_at_lambda0(config)
    spectra, _ = _sample_ensemble(config)
    records, _ = _window_records(config, spectra)
    _write_csv(out / "gaps.csv", ["index", "lambda", "s_minus", "s_plus"], zip(*records))
    normalized = config.p * records.s_plus
    # KS against the surmise for t = p*s with scale rho(lambda0).
    t_sorted = np.sort(normalized)
    cdf = wigner_surmise_cdf(t_sorted, 1.0, rho)
    steps = np.arange(1, t_sorted.size + 1) / t_sorted.size
    ks = float(np.max(np.maximum(np.abs(steps - cdf),
                                 np.abs(steps - 1.0 / t_sorted.size - cdf))))
    hist, edges = np.histogram(normalized, bins=50, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    _write_csv(out / "spacing.csv", ["s_normalized", "empirical_pdf", "surmise_pdf"],
               zip(centers.tolist(),
                   hist.tolist(),
                   np.asarray(wigner_surmise_pdf(centers, 1.0, rho)).tolist()))
    _write_json(out / "stats.json", {
        "ks_statistic": ks,
        "gap_count": records.index.size,
        "rho_mckay": rho,
    })
    return ["gaps.csv", "spacing.csv", "stats.json"]


def _run_joint_gaps(config, out):
    rho = _mckay_at_lambda0(config)
    spectra, _ = _sample_ensemble(config)
    records, _ = _window_records(config, spectra)
    count = records.index.size
    a = config.p * rho
    hi = 3.5 / a
    nb = 10
    edges = np.linspace(0.0, hi, nb + 1)
    counts, _, _ = np.histogram2d(records.s_minus, records.s_plus, bins=[edges, edges])
    p_emp = counts / count
    centers = 0.5 * (edges[:-1] + edges[1:])
    p_mod = _joint_cell_masses(edges, config.p, rho)
    l1 = float(np.abs(p_emp - p_mod).sum() + abs(p_emp.sum() - p_mod.sum()))
    c_minus, c_plus = np.meshgrid(centers, centers, indexing="ij")
    _write_csv(out / "joint_gaps.csv",
               ["s_minus_center", "s_plus_center", "cell_prob_empirical", "cell_prob_surmise"],
               zip(c_minus.ravel(), c_plus.ravel(), p_emp.ravel(), p_mod.ravel()))
    _write_json(out / "stats.json", {"l1_distance": l1, "gap_count": count})
    return ["joint_gaps.csv", "stats.json"]


def _joint_cell_masses(edges, p, rho, refine=6):
    # Cell probabilities of J by midpoint refinement inside each cell: the
    # pdf on an (nb, nb, refine, refine) grid of cell-by-cell midpoints.
    nb = len(edges) - 1
    xs = np.linspace(edges[:-1], edges[1:], refine + 1, axis=1)
    mid = 0.5 * (xs[:, :-1] + xs[:, 1:])
    dx = xs[:, 1] - xs[:, 0]
    pdf = joint_gap_pdf(mid[:, None, :, None], mid[None, :, None, :], p, rho)
    return pdf.reshape(nb, nb, -1).sum(axis=-1) * dx[:, None] * dx[None, :]


def _run_hhat_vs_h(config, out):
    spectra, _ = _sample_ensemble(config)
    # Every interior index of the first matrix, against the ensemble density.
    cols = _index_columns(config, spectra[:1], _ensemble_density(spectra),
                          *_pool_gap_records(spectra[:1], 0.0, np.inf))
    _write_columns(out / "estimates.csv", ESTIMATE_COLUMNS, cols)
    hx, hh, hh0 = cols["h_exact"], cols["h_hat"], cols["h_hat_uncorrected"]
    log_corr = float(np.corrcoef(np.log(hx), np.log(hh))[0, 1])
    lower = hx <= np.median(hx)
    _write_json(out / "stats.json", {
        "log_pearson_corr": log_corr,
        "median_rel_err_corrected_lower_half": float(np.median(np.abs(hh[lower] / hx[lower] - 1.0))),
        "median_rel_err_uncorrected_lower_half": float(np.median(np.abs(hh0[lower] / hx[lower] - 1.0))),
        "bulk_indices": int(hx.size),
    })
    return ["estimates.csv", "stats.json"]


def _run_bootstrap_vs_hhat(config, out):
    spectra, _ = _sample_ensemble(config)
    cols = _index_columns(config, spectra[:1], _ensemble_density(spectra),
                          *_pool_gap_records(spectra[:1], 0.0, np.inf))
    (result,) = _bootstrap_columns(config, spectra[:1], cols)
    _write_columns(out / "estimates.csv", ESTIMATE_COLUMNS, cols)
    ok = ~cols["regime_violation"]
    rel = np.abs(cols["n_mean_error"][ok] / cols["h_hat"][ok] - 1.0)
    _write_json(out / "stats.json", {
        "median_rel_deviation": float(np.median(rel)) if rel.size else None,
        "indices_in_regime": int(ok.sum()),
        "crossing_indices": int((result.crossing_count > 0).sum()),
    })
    return ["estimates.csv", "stats.json"]


def _fh_grid(params, n_points=60):
    h_typ = 4.0 * (params.lam * params.a) ** 2
    return np.geomspace(h_typ / 100.0, h_typ * 1000.0, n_points)


def _write_fh_table(path, grid, fh, params):
    _write_csv(path, HDENSITY_COLUMNS, zip(grid, fh, F_H(grid, params)))


def _run_fh_density(config, out):
    spectra, _ = _sample_ensemble(config)
    density = _ensemble_density(spectra)
    rho0 = float(density(config.lambda0))
    if rho0 <= 0:
        raise RuntimeError(
            f"empirical density vanishes at lambda0={config.lambda0}; "
            "choose a window inside the bulk")
    params = HDensityParams(lam=config.lambda0, p=config.p, rho=rho0)
    cols = _index_columns(config, spectra, density, *_window_records(config, spectra))
    _write_columns(out / "h_empirical.csv", ["matrix", "index", "lambda", "h_exact", "h_hat"], cols)
    _bootstrap_columns(config, spectra, cols)
    _write_columns(out / "bootstrap.csv",
                   ["matrix", "index", "lambda", "n_mean_error", "n_std_error"], cols)
    grid = _fh_grid(params)
    _write_fh_table(out / "fh.csv", grid, f_H(grid, params), params)
    _write_json(out / "stats.json", {
        "rho_at_lambda0": rho0,
        "window_count": cols["h_exact"].size,
        "median_h_empirical": float(np.median(cols["h_exact"])),
        "regime_violation_fraction": float(np.mean(cols["regime_violation"])),
    })
    return ["h_empirical.csv", "bootstrap.csv", "fh.csv", "stats.json"]


def _run_tail(config, out):
    rho = _mckay_at_lambda0(config)
    params = HDensityParams(lam=config.lambda0, p=config.p, rho=rho)
    report = tail_report(params)
    _write_json(out / "tail.json", {
        "slope": report.fitted_slope,
        "window": list(report.window),
        "plateau_spread": report.plateau_ratio_spread,
    })
    _write_fh_table(out / "fh_tail.csv", report.h_grid, report.fh, params)
    return ["tail.json", "fh_tail.csv"]


def _run_bound_scatter(config, out):
    spectra, _ = _sample_ensemble(config, count=1)
    ev = spectra[0]
    hx = h_exact_all(ev)
    index = np.arange(1, ev.size + 1)
    blocks = []  # the columns of each (n, replicate) pair, in file order
    for ni, n in enumerate(config.n):
        violation = regime_violation(n, hx)
        boot = bootstrap_error(ev, config.R, n, seed=child_seed(config.seed, 2, ni))
        for r, res in enumerate(boot.residuals):
            blocks.append(zip(repeat(n), repeat(r), index, ev, hx, res, n * res, violation))
    _write_csv(out / "bound_scatter.csv",
               ["n", "replicate", "index", "lambda", "h_exact",
                "residual", "n_residual", "regime_violation"], chain.from_iterable(blocks))
    return ["bound_scatter.csv"]


EXPERIMENTS = {
    "density": _run_density,
    "spacing": _run_spacing,
    "joint-gaps": _run_joint_gaps,
    "hhat-vs-h": _run_hhat_vs_h,
    "bootstrap-vs-hhat": _run_bootstrap_vs_hhat,
    "fh-density": _run_fh_density,
    "tail": _run_tail,
    "bound-scatter": _run_bound_scatter,
}


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def run(experiment, config):
    """Run one named experiment; returns the manifest dict.

    Writes the experiment's data files plus `manifest.json` (config echo,
    output hashes, wall time) into config.out. Deterministic per seed and
    thread count. Only `bound-scatter` reads several n.
    """
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; "
                          f"choose from {sorted(EXPERIMENTS)}")
    if experiment in ("hhat-vs-h", "bootstrap-vs-hhat", "fh-density") and len(config.n) > 1:
        raise ConfigError(f"{experiment} reads one n, got {len(config.n)}: {list(config.n)}")
    out = config.out
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    outputs = EXPERIMENTS[experiment](config, out)
    manifest = {
        "experiment": experiment,
        "config": config.as_dict(),
        "outputs": [{"path": name, "sha256": _sha256(out / name)} for name in outputs],
        "wall_time_s": time.perf_counter() - started,
    }
    _write_json(out / "manifest.json", manifest)
    return manifest


def validate(config):
    """Pre-flight checks; returns a report dict with warnings only.

    Flags `regime_violation` when any configured n falls below the h/2 bound
    for a pilot estimate at lambda0, and `delta_sensitivity` when the
    delta-normalized gap-record rate shifts by more than 20% under halving
    or doubling of delta.
    """
    pilot_count = min(config.M, 5)
    spectra, _ = _sample_ensemble(config, count=pilot_count)
    density = _ensemble_density(spectra)
    warnings = []

    records, _ = _pool_gap_records(spectra, config.lambda0, config.delta)
    pilot_h = bound_n = None
    if records.index.size:
        rho0 = float(density(config.lambda0))
        if rho0 > 0:
            hh = h_hat(records.lam, records.s_minus, records.s_plus, config.p, rho0)
            pilot_h = float(np.median(hh))
            bound_n = sample_size_bound(pilot_h)
            for n in config.n:
                if regime_violation(n, pilot_h):
                    warnings.append(
                        f"regime_violation: n={n} is below the bound "
                        f"{bound_n:.3g} implied by the pilot estimate")
        else:
            warnings.append("window_outside_bulk: density vanishes at lambda0")
    else:
        warnings.append("empty_window: no eigenvalues within delta of lambda0")

    rates = {}
    for label, d in (("half", config.delta / 2), ("base", config.delta), ("double", config.delta * 2)):
        pooled = records if label == "base" else _pool_gap_records(spectra, config.lambda0, d)[0]
        rates[label] = pooled.index.size / (2.0 * d * pilot_count)
    if rates["base"] > 0:
        for label in ("half", "double"):
            shift = abs(rates[label] / rates["base"] - 1.0)
            if shift > 0.2:
                warnings.append(
                    f"delta_sensitivity: {label} delta shifts the normalized "
                    f"record rate by {100 * shift:.0f}%")

    return {
        "config": config.as_dict(),
        "pilot_h_hat": pilot_h,
        "bound_n": bound_n,
        "record_rates_per_unit_delta": rates,
        "warnings": warnings,
        "ok": not warnings,
    }
