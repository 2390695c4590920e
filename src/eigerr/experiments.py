"""Experiment orchestration: desk-scale reproductions of the validation runs.

`run` samples an experiment's ensemble once (the M, one or no spectra its
runner reads, each graph's connectivity, and rho, the ensemble's closed-form
density: McKay's law) and hands it to the runner, a pure analysis that
returns its CSV/JSON outputs; `run` alone serializes them, writes them and
records their content hashes in a manifest. Every seeded unit of a run
draws from ``child_seed(seed, stream, i)``, and replicate r within it from
``child_seed(seed, stream, i, r)``. The stream keys are 0 for the i-th graph
of an ensemble, and 1 and 2 for `_bootstraps`, the one bootstrap step: 1 for
the i-th matrix, 2 for `bound-scatter`'s i-th n. So results do not depend on
execution order or pool width, and `run` and `validate` hold numpy's bundled
OpenBLAS to one thread (`spectral._one_blas_thread`), so nor on the host's
BLAS thread count.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import numbers
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict
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
    _one_blas_thread,
    checked_spectrum,
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
    # 1e3 is 1000, but 1000.5 is not a count: refuse it, never round it. Nor
    # is a bool, or seed=True would silently reuse seed 1's streams.
    try:
        if not isinstance(value, (bool, np.bool_)) and value == int(value):
            return int(value)
    except (OverflowError, TypeError, ValueError):  # inf, None, nan
        pass
    raise ConfigError(f"{name} must be integral, not {value!r}")


def _real(name, value):
    # A Python float, which the manifest's JSON can hold (np.int64 is not
    # JSON). A bool is no real number here, nor is a complex, None, a string,
    # a list or an int beyond the float range.
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_)):
            return float(value)
    except OverflowError:
        pass
    raise ConfigError(f"{name} must be a real number, not {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments; `n` may carry several sample sizes.

    Valid by construction: counts become ints, ``lambda0`` and ``delta``
    floats, and one ``ConfigError`` names every value out of range. Frozen,
    so it stays valid.
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
    threads: int = field(default_factory=lambda: os.cpu_count() or 1)

    def __post_init__(self):
        # A string is iterable too: "100" would become n=(1, 0, 0).
        if isinstance(self.n, (str, bytes)):
            raise ConfigError(f"n must be an integer or a sequence of integers, not {self.n!r}")
        n = self.n if hasattr(self.n, "__iter__") else (self.n,)
        object.__setattr__(self, "n", tuple(_integral("n", v) for v in n))
        for name in ("p", "k", "R", "M", "seed", "threads"):
            object.__setattr__(self, name, _integral(name, getattr(self, name)))
        for name in ("lambda0", "delta"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        # Path(None) is a TypeError, and Path("") is the current directory.
        if not isinstance(self.out, (str, os.PathLike)) or not os.fspath(self.out):
            raise ConfigError(f"out must be a path, not {self.out!r}")
        object.__setattr__(self, "out", Path(self.out))
        problems = []
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
        if self.seed < 0:  # numpy's seed sequences take no negative entropy
            problems.append("seed must be >= 0")
        if self.threads < 1:
            problems.append("threads must be >= 1")
        if problems:
            raise ConfigError("; ".join(problems))

    def as_dict(self):
        d = asdict(self)
        d["n"] = list(self.n)
        d["out"] = str(self.out)
        return d


def _fan_out(config, stream, count, fn):
    # The one place where a run's units get their seeds and a pool:
    # [fn(i, child_seed(config.seed, stream, i)) for i in range(count)], in
    # index order. One unit or one worker runs on the calling thread, where a
    # pool does no parallel work yet costs peak RSS: 12-33 MB for a one-worker
    # pool on the bootstrap workload, 93 against 81 MB for one-task pools on
    # p=1000 bound-scatter with one n (likely a worker thread's malloc arena).
    seeds = [child_seed(config.seed, stream, i) for i in range(count)]
    if min(config.threads, count) <= 1:
        return list(map(fn, range(count), seeds))
    with ThreadPoolExecutor(max_workers=config.threads) as pool:
        return list(pool.map(fn, range(count), seeds))


def _sample_ensemble(config, count):
    # (count, p) Laplacian spectra, one row per graph, and the graphs'
    # connectivity. Each dense Laplacian is dropped once its eigensolve is
    # done: every runner needs only eigenvalues.
    def build(i, seed):
        g = sample_regular_graph(config.p, config.k, seed)
        spectra[i] = laplacian(g).eigenvalues
        return is_connected(g)

    spectra = np.empty((count, config.p))
    return spectra, _fan_out(config, 0, count, build)


def _ensemble_density(spectra):
    # Laplacian spectra minus the zero (Perron) eigenvalue each matrix carries.
    return estimate_density(spectra[:, 1:])


def _window_records(spectra, lambda0, delta):
    # Each matrix's records within delta of lambda0 in turn, and the matrix
    # (row of spectra) of each; a runner needs at least one record.
    records = [extract_gap_records(ev, lambda0, delta) for ev in spectra]
    matrix = np.repeat(np.arange(len(records)), [r.index.size for r in records])
    if not matrix.size:
        raise RuntimeError(f"no eigenvalues within delta of lambda0={lambda0}")
    return GapRecords(*map(np.concatenate, zip(*records))), matrix


def _density_at(density, name, lambda0, delta):
    """rho(lambda0), once rho is positive at lambda0 and at both window ends.

    Otherwise raises ``RuntimeError`` naming the first of these points where
    rho vanishes. For a density whose support is one interval, such as
    McKay's law or the ensemble histogram of one bulk (its support is
    [min lambda, max lambda] of its pool), that is rho > 0 on the whole window
    [lambda0 - delta, lambda0 + delta]. A runner that reads no window passes
    delta = 0.
    """
    for label, at in (("lambda0", lambda0), ("lambda", lambda0 - delta), ("lambda", lambda0 + delta)):
        if not density(at) > 0:
            raise RuntimeError(f"{name} density vanishes at {label}={at}; "
                               "choose a window inside the bulk")
    return float(density(lambda0))


def _bootstraps(config, stream, units):
    # The one bootstrap step, streams 1 and 2 of the module docstring: one
    # BootstrapResult per (spectrum, n) unit, from child_seed(seed, stream, i).
    def boot(i, seed):
        ev, n = units[i]
        return bootstrap_error(ev, config.R, n, seed=seed)

    return _fan_out(config, stream, len(units), boot)


def _index_columns(config, spectra, density, records, matrix, boots=()):
    # The finished per-index table: one row per gap record, the columns in
    # file order. `matrix` indexes rows of `spectra` and of `boots`; with no
    # `boots` the two bootstrap columns stay empty. `estimates.csv` is this
    # table without `matrix`, so a new predictor is one more entry here.
    row = (matrix, records.index - 1)
    hx = np.array([h_exact_all(ev) for ev in spectra])[row]
    local = (records.lam, records.s_minus, records.s_plus, config.p, density(records.lam))
    empty = [None] * hx.size
    return {
        "matrix": matrix,
        "index": records.index,
        "lambda": records.lam,
        "h_exact": hx,
        "h_hat": h_hat(*local),
        "h_hat_uncorrected": h_hat(*local, include_correction=False),
        "n_mean_error": np.array([b.n_mean for b in boots])[row] if boots else empty,
        "n_std_error": np.array([b.n_std for b in boots])[row] if boots else empty,
        "regime_violation": regime_violation(config.n[0], hx),
    }


def _cell(v):
    # The one cell rule of every CSV file: None -> empty, bool or integer ->
    # decimal integer, any other number -> shortest round-trip float.
    if v is None:
        return ""
    if isinstance(v, (int, np.integer, np.bool_)):  # bool is an int
        return str(int(v))
    return repr(float(v))


def _csv_bytes(columns):
    # One table shape: {name: column} in file order. A ragged table raises
    # ValueError here, before run() opens any file.
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(columns)
    writer.writerows([_cell(v) for v in row] for row in zip(*columns.values(), strict=True))
    return text.getvalue().encode()


def _json_bytes(payload):
    # A non-finite number is not JSON: it raises here, before any file is
    # opened (exit 2). A statistic without data is None, written as null.
    return (json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


def _run_density(config, spectra, connected, rho):
    density = _ensemble_density(spectra)
    edges = density.edges
    grid = 0.5 * (edges[:-1] + edges[1:])
    return {
        "density.csv": {"lambda": grid, "rho_empirical": density.weights, "rho_mckay": rho(grid)},
        "stats.json": {"matrices": config.M, "bin_width": float(edges[1] - edges[0]),
                       "disconnected": int(sum(not c for c in connected))},
    }


def _run_spacing(config, spectra, connected, rho):
    rho0 = _density_at(rho, "McKay", config.lambda0, config.delta)
    records, _ = _window_records(spectra, config.lambda0, config.delta)
    normalized = config.p * records.s_plus
    # KS against the surmise for t = p*s with scale rho(lambda0).
    t_sorted = np.sort(normalized)
    cdf = wigner_surmise_cdf(t_sorted, 1.0, rho0)
    steps = np.arange(1, t_sorted.size + 1) / t_sorted.size
    ks = float(np.max(np.maximum(np.abs(steps - cdf),
                                 np.abs(steps - 1.0 / t_sorted.size - cdf))))
    hist, edges = np.histogram(normalized, bins=50, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return {
        "gaps.csv": dict(zip(["index", "lambda", "s_minus", "s_plus"], records)),
        "spacing.csv": {"s_normalized": centers, "empirical_pdf": hist,
                        "surmise_pdf": wigner_surmise_pdf(centers, 1.0, rho0)},
        "stats.json": {"ks_statistic": ks, "gap_count": records.index.size, "rho_mckay": rho0},
    }


def _run_joint_gaps(config, spectra, connected, rho):
    rho0 = _density_at(rho, "McKay", config.lambda0, config.delta)
    records, _ = _window_records(spectra, config.lambda0, config.delta)
    count = records.index.size
    a = config.p * rho0
    hi = 3.5 / a
    nb = 10
    edges = np.linspace(0.0, hi, nb + 1)
    counts, _, _ = np.histogram2d(records.s_minus, records.s_plus, bins=[edges, edges])
    p_emp = counts / count
    centers = 0.5 * (edges[:-1] + edges[1:])
    p_mod = _joint_cell_masses(edges, config.p, rho0)
    l1 = float(np.abs(p_emp - p_mod).sum() + abs(p_emp.sum() - p_mod.sum()))
    c_minus, c_plus = np.meshgrid(centers, centers, indexing="ij")
    return {
        "joint_gaps.csv": {"s_minus_center": c_minus.ravel(), "s_plus_center": c_plus.ravel(),
                           "cell_prob_empirical": p_emp.ravel(), "cell_prob_surmise": p_mod.ravel()},
        "stats.json": {"l1_distance": l1, "gap_count": count},
    }


def _joint_cell_masses(edges, p, rho):
    # Cell probabilities of J by midpoint refinement inside each cell: the
    # pdf on an (nb, nb, 6, 6) grid of cell-by-cell midpoints.
    nb = len(edges) - 1
    xs = np.linspace(edges[:-1], edges[1:], 7, axis=1)
    mid = 0.5 * (xs[:, :-1] + xs[:, 1:])
    dx = xs[:, 1] - xs[:, 0]
    pdf = joint_gap_pdf(mid[:, None, :, None], mid[None, :, None, :], p, rho)
    return pdf.reshape(nb, nb, -1).sum(axis=-1) * dx[:, None] * dx[None, :]


def _first_matrix(spectra):
    # The inputs of the first matrix's per-index table: its spectrum as a
    # one-row array, the density of all M spectra, and the records of every
    # interior index (the window 0 -+ inf, never empty as p > k >= 2) with
    # their matrix index. Each spectrum passes the gap guard, as a window's
    # records do: a disconnected matrix would put a second zero mode into
    # the density.
    spectra = np.array([checked_spectrum(ev) for ev in spectra])
    return (spectra[:1], _ensemble_density(spectra),
            *_window_records(spectra[:1], 0.0, np.inf))


def _run_hhat_vs_h(config, spectra, connected, rho):
    cols = _index_columns(config, *_first_matrix(spectra))
    hx, hh, hh0 = cols["h_exact"], cols["h_hat"], cols["h_hat_uncorrected"]
    log_corr = float(np.corrcoef(np.log(hx), np.log(hh))[0, 1])
    lower = hx <= np.median(hx)
    return {
        "estimates.csv": {c: v for c, v in cols.items() if c != "matrix"},
        "stats.json": {
            "log_pearson_corr": log_corr,
            "median_rel_err_corrected_lower_half": float(np.median(np.abs(hh[lower] / hx[lower] - 1.0))),
            "median_rel_err_uncorrected_lower_half": float(np.median(np.abs(hh0[lower] / hx[lower] - 1.0))),
            "bulk_indices": int(hx.size),
        },
    }


def _run_bootstrap_vs_hhat(config, spectra, connected, rho):
    first, *rest = _first_matrix(spectra)
    (result,) = boots = _bootstraps(config, 1, [(first[0], config.n[0])])
    cols = _index_columns(config, first, *rest, boots)
    ok = ~cols["regime_violation"]
    rel = np.abs(cols["n_mean_error"][ok] / cols["h_hat"][ok] - 1.0)
    return {
        "estimates.csv": {c: v for c, v in cols.items() if c != "matrix"},
        "stats.json": {
            "median_rel_deviation": float(np.median(rel)) if rel.size else None,
            "indices_in_regime": int(ok.sum()),
            "crossing_indices": int((result.crossing_count > 0).sum()),
        },
    }


def _fh_grid(params):
    h_typ = 4.0 * (params.lam * params.a) ** 2
    return np.geomspace(h_typ / 100.0, h_typ * 1000.0, 60)


def _fh_table(grid, fh, params):
    return {"h": grid, "f_H": fh, "F_H": F_H(grid, params)}


def _run_fh_density(config, spectra, connected, rho):
    density = _ensemble_density(spectra)
    rho0 = _density_at(density, "empirical", config.lambda0, config.delta)
    params = HDensityParams(lam=config.lambda0, p=config.p, rho=rho0)
    window = _window_records(spectra, config.lambda0, config.delta)
    boots = _bootstraps(config, 1, [(ev, config.n[0]) for ev in spectra])
    cols = _index_columns(config, spectra, density, *window, boots)
    grid = _fh_grid(params)
    return {
        "h_empirical.csv": {c: cols[c] for c in ("matrix", "index", "lambda", "h_exact", "h_hat")},
        "bootstrap.csv": {c: cols[c] for c in ("matrix", "index", "lambda", "n_mean_error",
                                               "n_std_error")},
        "fh.csv": _fh_table(grid, f_H(grid, params), params),
        "stats.json": {
            "rho_at_lambda0": rho0,
            "window_count": cols["h_exact"].size,
            "median_h_empirical": float(np.median(cols["h_exact"])),
            "regime_violation_fraction": float(np.mean(cols["regime_violation"])),
        },
    }


def _run_tail(config, spectra, connected, rho):
    # None of its outputs reads delta, so the window is lambda0 alone.
    rho0 = _density_at(rho, "McKay", config.lambda0, 0.0)
    params = HDensityParams(lam=config.lambda0, p=config.p, rho=rho0)
    report = tail_report(params)
    return {
        "tail.json": {"slope": report.fitted_slope, "window": list(report.window),
                      "plateau_spread": report.plateau_ratio_spread},
        "fh_tail.csv": _fh_table(report.h_grid, report.fh, params),
    }


def _run_bound_scatter(config, spectra, connected, rho):
    (ev,) = spectra
    hx = h_exact_all(ev)
    boots = _bootstraps(config, 2, [(ev, n) for n in config.n])
    # One (n, replicate, index) cell per row, in file order. The n column
    # holds the configured ints, which print exactly at any size.
    res = np.array([boot.residuals for boot in boots])
    n = np.array(config.n, dtype=float)[:, None, None]
    columns = {
        "n": np.array(config.n, dtype=object)[:, None, None],
        "replicate": np.arange(config.R)[:, None],
        "index": np.arange(1, ev.size + 1),
        "lambda": ev,
        "h_exact": hx,
        "residual": res,
        "n_residual": n * res,
        "regime_violation": regime_violation(n, hx),
    }
    return {"bound_scatter.csv": {c: np.broadcast_to(v, res.shape).ravel()
                                  for c, v in columns.items()}}


EXPERIMENTS = {  # name -> (spectra its runner reads, None for M; runner)
    "density": (None, _run_density),
    "spacing": (None, _run_spacing),
    "joint-gaps": (None, _run_joint_gaps),
    "hhat-vs-h": (None, _run_hhat_vs_h),
    "bootstrap-vs-hhat": (None, _run_bootstrap_vs_hhat),
    "fh-density": (None, _run_fh_density),
    "tail": (0, _run_tail),
    "bound-scatter": (1, _run_bound_scatter),
}


@_one_blas_thread()
def run(experiment, config):
    """Run one named experiment; returns the manifest dict.

    Writes the experiment's data files plus `manifest.json` (config echo,
    output hashes, wall time) into config.out, and only once every output
    has been computed and serialized: a run that raises writes no file.
    Deterministic per seed, whatever the pool width (`threads`) or the host's
    BLAS thread count: numpy's bundled OpenBLAS runs on one thread for the
    call and gets its previous count back after. The pin covers `run()` and
    `validate()` only; under another BLAS build they run unpinned. Only
    `bound-scatter` reads several n.
    """
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; "
                          f"choose from {sorted(EXPERIMENTS)}")
    if experiment in ("hhat-vs-h", "bootstrap-vs-hhat", "fh-density") and len(config.n) > 1:
        raise ConfigError(f"{experiment} reads one n, got {len(config.n)}: {list(config.n)}")
    out = config.out
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    count, runner = EXPERIMENTS[experiment]
    spectra, connected = _sample_ensemble(config, config.M if count is None else count)
    outputs = runner(config, spectra, connected, SpectralDensity.mckay(config.k))
    data = {name: _csv_bytes(content) if name.endswith(".csv") else _json_bytes(content)
            for name, content in outputs.items()}
    manifest = {
        "experiment": experiment,
        "config": config.as_dict(),
        "outputs": [{"path": name, "sha256": hashlib.sha256(raw).hexdigest()}
                    for name, raw in data.items()],
        "wall_time_s": time.perf_counter() - started,
    }
    data["manifest.json"] = _json_bytes(manifest)
    for name, raw in data.items():
        (out / name).write_bytes(raw)
    return manifest


@_one_blas_thread()
def validate(config):
    """Pre-flight checks on a pilot of min(M, 5) matrices; returns a report dict.

    The pilot runs the runners' own window guards on its empirical density
    and gap records. Each guard that fails adds a warning with its message:
    `window_outside_bulk` when the density vanishes at lambda0 or at a window
    end, `non_simple_spectrum` when a pilot spectrum has a tie, and
    `empty_window` when no eigenvalue lies within delta of lambda0. When all
    pass, `pilot_h_hat` is the median h_hat over the window's records,
    `bound_n` its h/2 bound, and each configured n below that bound adds a
    `regime_violation` warning. `ok` is true when there is no warning.
    """
    spectra, _ = _sample_ensemble(config, min(config.M, 5))
    warnings = []
    try:
        rho0 = _density_at(_ensemble_density(spectra), "empirical", config.lambda0, config.delta)
    except RuntimeError as error:
        warnings.append(f"window_outside_bulk: {error}")
    try:
        records, _ = _window_records(spectra, config.lambda0, config.delta)
    except RuntimeError as error:
        warnings.append(f"empty_window: {error}")
    except ValueError as error:  # the spectrum guard of extract_gap_records
        warnings.append(f"non_simple_spectrum: {error}")

    pilot_h = bound_n = None
    if not warnings:
        pilot_h = float(np.median(h_hat(records.lam, records.s_minus, records.s_plus,
                                         config.p, rho0)))
        bound_n = sample_size_bound(pilot_h)
        warnings += [f"regime_violation: n={n} is below the bound {bound_n:.3g} "
                     "implied by the pilot estimate"
                     for n in config.n if regime_violation(n, pilot_h)]

    return {
        "config": config.as_dict(),
        "pilot_h_hat": pilot_h,
        "bound_n": bound_n,
        "warnings": warnings,
        "ok": not warnings,
    }
