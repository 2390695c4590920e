"""Experiment runner and CLI: schemas, determinism, flags, exit codes."""

import csv
import ctypes
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from eigerr import HDensityParams, SpectralDensity, extract_gap_records, tail_report
from eigerr import estimate_density, h_hat
from eigerr import bootstrap_error, eigenvalue_root, replicate_residuals
from eigerr import experiments, laplacian, sample_regular_graph, spectral
from eigerr.wishart import child_seed
from eigerr.cli import _resolve, build_parser, main
from eigerr.experiments import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    _csv_bytes,
    _json_bytes,
    run,
    validate,
)
from oracles import h_exact

SMALL = dict(p=60, k=4, M=3, R=2, lambda0=4.0, delta=1.0, seed=5)
SRC = Path(__file__).resolve().parent.parent / "src"
README = Path(__file__).resolve().parent.parent / "README.md"


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestConfig:
    def test_pk_odd(self):
        with pytest.raises(ConfigError, match="even"):
            ExperimentConfig(p=5, k=3)

    def test_frozen(self):
        # Valid by construction stays valid: no field can be set afterwards.
        cfg = ExperimentConfig(p=10, k=2, n=(100,))
        for name, value in (("p", 5), ("n", (1,)), ("threads", 0)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, name, value)

    def test_threads_default_to_the_core_count(self, monkeypatch):
        # No byte depends on the pool width, so a default run uses every core.
        assert ExperimentConfig().threads == (os.cpu_count() or 1)
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # a count it cannot tell
        assert ExperimentConfig().threads == 1

    def test_k_below_two(self):
        # A 1-regular graph has only the eigenvalues 0 and 2: every runner fails.
        for k in (1, 0, -2):
            with pytest.raises(ConfigError, match="need p > k >= 2"):
                ExperimentConfig(p=20, k=k, n=(1000,))
        ExperimentConfig(p=20, k=2, n=(1000,))

    @pytest.mark.parametrize("name, message", [
        ("R", "R and M must be >= 1"), ("M", "R and M must be >= 1"),
        ("threads", "threads must be >= 1"),
    ])
    def test_count_below_one_rejected(self, name, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            ExperimentConfig(**{"p": 10, "k": 2, name: 0})

    def test_n_below_p(self):
        with pytest.raises(ConfigError, match="n >= p"):
            ExperimentConfig(p=100, k=4, n=(50,))

    def test_bad_delta(self):
        for delta in (0.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="delta"):
                ExperimentConfig(p=10, k=2, n=(100,), delta=delta)
        for lambda0 in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="lambda0 must be finite"):
                ExperimentConfig(p=10, k=2, n=(100,), lambda0=lambda0)

    @pytest.mark.parametrize("name, raw", [
        ("lambda0", None), ("delta", "1"), ("lambda0", True), ("delta", np.bool_(True)),
        ("lambda0", 4 + 0j), ("delta", [1.0]), ("lambda0", 10 ** 400),
    ], ids=["None", "string", "bool", "numpy-bool", "complex", "list", "huge-int"])
    def test_non_real_window_rejected(self, name, raw):
        # lambda0=True must not run as 1.0, nor delta="1" die on a TypeError
        with pytest.raises(ConfigError, match=f"^{name} must be a real number"):
            ExperimentConfig(**{"p": 10, "k": 2, name: raw})

    @pytest.mark.parametrize("out", [None, 5], ids=["None", "int"])
    def test_non_path_out_rejected(self, out):
        # Path(None) and Path(5) raised TypeError, not the one ConfigError
        with pytest.raises(ConfigError, match="^out must be a path, not "):
            ExperimentConfig(p=10, k=2, out=out)

    def test_window_stored_as_float(self):
        cfg = ExperimentConfig(p=10, k=2, lambda0=4, delta=np.float32(1.0))
        assert type(cfg.lambda0) is float and cfg.lambda0 == 4.0
        assert type(cfg.delta) is float and cfg.delta == 1.0

    def test_numpy_lambda0_manifest_round_trips(self, tmp_path):
        # np.int64 is not JSON: the manifest used to fail after every output
        cfg = ExperimentConfig(p=60, k=4, M=1, n=1000, lambda0=np.int64(4), out=tmp_path)
        manifest = run("tail", cfg)
        written = json.loads((tmp_path / "manifest.json").read_text())["config"]
        assert written == manifest["config"] == cfg.as_dict()
        assert type(written["lambda0"]) is float and written["lambda0"] == 4.0

    def test_scalar_n_normalized(self):
        cfg = ExperimentConfig(p=10, k=2, n=1000)
        assert cfg.n == (1000,)
        cfg = ExperimentConfig(p=10.0, k=2, n=1000)
        assert cfg.p == 10 and type(cfg.p) is int

    @pytest.mark.parametrize("raw", ["100", "1e7", b"100"], ids=["int", "float", "bytes"])
    def test_string_n_rejected(self, raw):
        # a string would iterate into digits: "100" -> (1, 0, 0)
        with pytest.raises(ConfigError, match="^n must be"):
            ExperimentConfig(p=10, k=2, n=raw)

    @pytest.mark.parametrize("name, raw", [
        ("n", 1000.7), ("n", (1000, 2500.5)), ("n", float("inf")), ("n", float("nan")),
        ("p", 10.5), ("k", 2.5), ("R", 1.5), ("M", 2.5), ("seed", 0.5), ("threads", 1.5),
        ("seed", True), ("M", True), ("threads", True), ("R", np.bool_(True)), ("n", (True,)),
    ], ids=["scalar", "in-list", "inf", "nan", "p", "k", "R", "M", "seed", "threads",
            "seed-bool", "M-bool", "threads-bool", "R-numpy-bool", "n-bool"])
    def test_non_integral_n_rejected(self, name, raw):
        # never truncated: n=1000.7 must not run as n=1000, nor p=10.5 as 10;
        # and a bool is no count: seed=True must not run as seed 1
        with pytest.raises(ConfigError, match=f"^{name} must be integral"):
            ExperimentConfig(**{"p": 10, "k": 2, name: raw})

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="^seed must be >= 0$"):
            ExperimentConfig(p=10, k=2, seed=-1)
        assert ExperimentConfig(p=10, k=2, seed=0).seed == 0

    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown experiment"):
            run("nope", ExperimentConfig(out=tmp_path, **SMALL))


class TestRunners:
    def test_density_schema_and_manifest(self, tmp_path):
        cfg = ExperimentConfig(out=tmp_path, n=(1000,), **SMALL)
        manifest = run("density", cfg)
        rows = read_csv(tmp_path / "density.csv")
        assert rows[0] == ["lambda", "rho_empirical", "rho_mckay"]
        assert len(rows) > 2
        assert (tmp_path / "manifest.json").exists()
        listed = {o["path"]: o["sha256"] for o in manifest["outputs"]}
        assert set(listed) == {"density.csv", "stats.json"}
        digest = hashlib.sha256((tmp_path / "density.csv").read_bytes()).hexdigest()
        assert listed["density.csv"] == digest
        assert manifest["config"]["p"] == 60

    def test_spacing_outputs(self, tmp_path):
        cfg = ExperimentConfig(out=tmp_path, n=(1000,), **SMALL)
        run("spacing", cfg)
        gaps = read_csv(tmp_path / "gaps.csv")
        assert gaps[0] == ["index", "lambda", "s_minus", "s_plus"]
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert 0.0 <= stats["ks_statistic"] <= 1.0
        assert stats["gap_count"] == len(gaps) - 1

    def test_joint_gaps_outputs(self, tmp_path):
        cfg = ExperimentConfig(out=tmp_path, n=(1000,), **SMALL)
        run("joint-gaps", cfg)
        rows = read_csv(tmp_path / "joint_gaps.csv")
        assert rows[0] == ["s_minus_center", "s_plus_center",
                           "cell_prob_empirical", "cell_prob_surmise"]
        assert len(rows) == 1 + 100  # 10x10 grid
        # every data cell is a plain number (no "np.float64(...)" reprs)
        for row in rows[1:]:
            assert len(row) == 4
            for cell in row:
                float(cell)

    def test_bound_scatter_multi_n(self, tmp_path):
        cfg = ExperimentConfig(out=tmp_path, n=(100, 200), **SMALL)
        run("bound-scatter", cfg)
        rows = read_csv(tmp_path / "bound_scatter.csv")
        assert rows[0][:3] == ["n", "replicate", "index"]
        ns = {row[0] for row in rows[1:]}
        assert ns == {"100", "200"}
        # residuals never exceed the geometric cap
        residuals = np.array([float(r[5]) for r in rows[1:]])
        assert residuals.max() <= 2.0

    def test_fh_density_outputs(self, tmp_path):
        cfg = ExperimentConfig(out=tmp_path, n=(10 ** 6,), **SMALL)
        run("fh-density", cfg)
        for name in ("fh.csv", "h_empirical.csv", "bootstrap.csv", "stats.json"):
            assert (tmp_path / name).exists()
        fh = read_csv(tmp_path / "fh.csv")
        assert fh[0] == ["h", "f_H", "F_H"]
        cdf = np.array([float(r[2]) for r in fh[1:]])
        assert (np.diff(cdf) >= -1e-9).all()

    def test_tail_outputs(self, tmp_path):
        cfg = ExperimentConfig(out=tmp_path, n=(1000,), **SMALL)
        run("tail", cfg)
        payload = json.loads((tmp_path / "tail.json").read_text())
        assert payload["slope"] == pytest.approx(-2.0, abs=0.15)
        lam = SMALL["lambda0"]
        params = HDensityParams(lam=lam, p=SMALL["p"], rho=SpectralDensity.mckay(SMALL["k"])(lam))
        report = tail_report(params)
        assert payload == {"slope": report.fitted_slope, "window": list(report.window),
                           "plateau_spread": report.plateau_ratio_spread}
        # fh_tail.csv carries the report's own grid and f_H values.
        rows = read_csv(tmp_path / "fh_tail.csv")[1:]
        assert [(float(h), float(fh)) for h, fh, _ in rows] == list(zip(report.h_grid, report.fh))

    def test_graphs_sampled_per_entry_point(self, tmp_path, monkeypatch):
        # run() samples each ensemble once, as many graphs as its runner reads,
        # and validate() its own pilot of min(M, 5): no byte would show a
        # runner that samples more than it needs.
        calls = []
        sample = experiments.sample_regular_graph
        monkeypatch.setattr(experiments, "sample_regular_graph",
                            lambda *args: calls.append(args) or sample(*args))
        counts = {}
        for experiment in EXPERIMENTS:
            calls.clear()
            run(experiment, ExperimentConfig(out=tmp_path / experiment, n=(10 ** 6,), **SMALL))
            counts[experiment] = len(calls)
        for m in (SMALL["M"], 7):
            calls.clear()
            validate(ExperimentConfig(n=(10 ** 6,), **{**SMALL, "M": m}))
            counts[f"validate-M{m}"] = len(calls)
        M = SMALL["M"]
        assert counts == {**{e: M for e in EXPERIMENTS}, "tail": 0, "bound-scatter": 1,
                          f"validate-M{M}": M, "validate-M7": 5}

    def test_tail_ignores_delta(self, tmp_path):
        # No output of tail reads delta: a window at lambda0 = 7 that crosses
        # McKay's upper edge 4 + 2 sqrt(3) is not refused, and delta moves no byte.
        data = []
        for delta in (0.5, 1.0):
            out = tmp_path / str(delta)
            run("tail", ExperimentConfig(out=out, n=(1000,),
                                         **{**SMALL, "lambda0": 7.0, "delta": delta}))
            data.append({name: (out / name).read_bytes() for name in ("tail.json", "fh_tail.csv")})
        assert data[0] == data[1]

    def test_every_scored_index_reads_a_positive_density(self):
        # At the README reference config, hhat-vs-h and bootstrap-vs-hhat score
        # the first matrix's 198 interior indices: each lies inside the pooled
        # range, so none reads rho = 0 and loses h_hat's correction term.
        cfg = ExperimentConfig(p=200, k=20, M=3, R=3, n=(10 ** 8,), lambda0=20.0,
                               delta=2.0, seed=11)
        spectra, _ = experiments._sample_ensemble(cfg, cfg.M)
        _, density, records, _ = experiments._first_matrix(spectra)
        assert records.index.size == 198
        assert (density(records.lam) > 0).all()

    @pytest.mark.parametrize("experiment, extra", [
        *(pytest.param(e, {}, id=e) for e in ["hhat-vs-h", "bootstrap-vs-hhat", "fh-density",
                                               "bound-scatter", "spacing"]),
        # one-unit stages, which run on the calling thread at any width
        pytest.param("bound-scatter", {"n": (10 ** 6,)}, id="bound-scatter-one-n"),
        pytest.param("fh-density", {"M": 1}, id="fh-density-M1"),
    ])
    def test_determinism_across_runs_and_threads(self, tmp_path, experiment, extra):
        # The pool width never moves a byte; bootstrap-vs-hhat and fh-density
        # also bootstrap their matrices on the pool, and bound-scatter its n.
        n = (60, 10 ** 6) if experiment == "bound-scatter" else (1000,)
        cfg = {**SMALL, "n": n, **extra}
        out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        run(experiment, ExperimentConfig(out=out1, threads=1, **cfg))
        run(experiment, ExperimentConfig(out=out2, threads=1, **cfg))
        run(experiment, ExperimentConfig(out=out3, threads=3, **cfg))
        data = sorted(f.name for f in out1.iterdir() if f.name != "manifest.json")
        assert data
        for name in data:
            ref = (out1 / name).read_bytes()
            assert (out2 / name).read_bytes() == ref
            assert (out3 / name).read_bytes() == ref

    def test_pool_only_for_two_units(self, tmp_path, monkeypatch):
        # At width 2, a stage with one unit runs on the calling thread: no
        # pool is started for a single task. A stage with more units than
        # one still gets a pool, with one task per unit.
        tasks = []

        class Recording(ThreadPoolExecutor):
            def map(self, fn, *iterables):
                args = [list(it) for it in iterables]
                tasks.append(len(args[0]))
                return super().map(fn, *args)

        monkeypatch.setattr(experiments, "ThreadPoolExecutor", Recording)
        cfg = {**SMALL, "threads": 2}
        # one graph and one n: both stages have one unit
        run("bound-scatter", ExperimentConfig(out=tmp_path / "a", n=(10 ** 6,), **cfg))
        assert tasks == []
        # M graphs on a pool, then the first matrix's one bootstrap without
        run("bootstrap-vs-hhat", ExperimentConfig(out=tmp_path / "b", n=(1000,), **cfg))
        assert tasks == [SMALL["M"]]
        # one graph without a pool, then two n on one
        run("bound-scatter", ExperimentConfig(out=tmp_path / "c", n=(60, 10 ** 6), **cfg))
        assert tasks == [SMALL["M"], 2]

    def test_no_index_in_regime_writes_null(self, tmp_path):
        # n = p puts every index out of regime, so the median has no data:
        # stats.json must hold null, not NaN, and parse under a strict parser
        cfg = ExperimentConfig(out=tmp_path, p=200, k=20, M=2, R=2, n=(200,), seed=3)
        run("bootstrap-vs-hhat", cfg)

        def reject(name):
            raise ValueError(f"non-finite JSON constant {name}")

        stats = json.loads((tmp_path / "stats.json").read_text(), parse_constant=reject)
        assert stats["indices_in_regime"] == 0
        assert stats["median_rel_deviation"] is None

    def test_rows_belong_to_their_index(self, tmp_path):
        # Each per-index row holds its own matrix's values at its own index,
        # recomputed here one matrix and one index at a time.
        n, cfg = 10 ** 6, ExperimentConfig(**SMALL)
        spectra = [laplacian(sample_regular_graph(cfg.p, cfg.k, child_seed(cfg.seed, 0, m)))
                   .eigenvalues for m in range(cfg.M)]
        boots = [bootstrap_error(ev, cfg.R, n, seed=child_seed(cfg.seed, 1, m))
                 for m, ev in enumerate(spectra)]
        for experiment in ("fh-density", "bootstrap-vs-hhat"):
            run(experiment, ExperimentConfig(out=tmp_path / experiment, n=(n,), **SMALL))

        def rows(name):
            return list(csv.DictReader((tmp_path / name).read_text().splitlines()))

        h_rows, b_rows = rows("fh-density/h_empirical.csv"), rows("fh-density/bootstrap.csv")
        assert [(r["matrix"], r["index"]) for r in h_rows] == [(r["matrix"], r["index"]) for r in b_rows]
        assert {r["matrix"] for r in h_rows} == {"0", "1", "2"}
        # bootstrap-vs-hhat tabulates every interior index of matrix 0.
        estimates = rows("bootstrap-vs-hhat/estimates.csv")
        assert [int(r["index"]) for r in estimates] == list(range(2, cfg.p))
        for h_row, b_row in [*zip(h_rows, b_rows), *((dict(r, matrix="0"), r) for r in estimates)]:
            m, i = int(h_row["matrix"]), int(h_row["index"])
            assert float(h_row["lambda"]) == float(b_row["lambda"]) == spectra[m][i - 1]
            assert float(h_row["h_exact"]) == pytest.approx(h_exact(spectra[m], i), rel=1e-12)
            assert float(b_row["n_mean_error"]) == boots[m].n_mean[i - 1]
            assert float(b_row["n_std_error"]) == boots[m].n_std[i - 1]

    def test_bound_scatter_rows_belong_to_their_replicate(self, tmp_path):
        # Each (n, replicate) block of bound_scatter.csv holds that replicate's
        # residuals in index order, recomputed here from its own child seed.
        cfg = ExperimentConfig(out=tmp_path, n=(100, 10 ** 6), **SMALL)
        run("bound-scatter", cfg)
        ev = laplacian(sample_regular_graph(cfg.p, cfg.k, child_seed(cfg.seed, 0, 0))).eigenvalues
        rows = list(csv.DictReader((tmp_path / "bound_scatter.csv").read_text().splitlines()))
        assert len(rows) == len(cfg.n) * cfg.R * cfg.p
        for ni, n in enumerate(cfg.n):
            for r in range(cfg.R):
                res, _ = replicate_residuals(eigenvalue_root(ev), n, child_seed(cfg.seed, 2, ni, r))
                block = rows[(ni * cfg.R + r) * cfg.p:][:cfg.p]
                assert [(int(b["n"]), int(b["replicate"]), int(b["index"])) for b in block] \
                    == [(n, r, i) for i in range(1, cfg.p + 1)]
                assert [float(b["residual"]) for b in block] == res.tolist()
                assert [float(b["n_residual"]) for b in block] == (n * res).tolist()

    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_manifest_lists_every_data_file(self, tmp_path, experiment):
        # The manifest names exactly the files the run wrote, in the runner's
        # output order, each with the sha256 of the bytes on disk.
        cfg = ExperimentConfig(out=tmp_path, n=(10 ** 6,), **SMALL)
        manifest = run(experiment, cfg)
        listed = [o["path"] for o in manifest["outputs"]]
        count, runner = EXPERIMENTS[experiment]
        spectra, connected = experiments._sample_ensemble(cfg, cfg.M if count is None else count)
        assert listed == list(runner(cfg, spectra, connected, SpectralDensity.mckay(cfg.k)))
        assert sorted(listed) == sorted(f.name for f in tmp_path.iterdir() if f.name != "manifest.json")
        for entry in manifest["outputs"]:
            digest = hashlib.sha256((tmp_path / entry["path"]).read_bytes()).hexdigest()
            assert entry["sha256"] == digest
        assert json.loads((tmp_path / "manifest.json").read_text())["outputs"] == manifest["outputs"]

    def test_every_output_has_header(self, tmp_path):
        # Each CSV of every runner starts with the header that README "Output
        # schemas" lists for it, and every row has that many cells.
        schemas = {}
        section = README.read_text().split("\n## Output schemas\n")[1].split("\n## ")[0]
        for line in section.splitlines():
            files, _, columns = line.rpartition("| `")
            for name in files.split("`")[1::2]:
                schemas[name] = columns.rstrip("` |").split(",")
        written = set()
        for experiment in EXPERIMENTS:
            n = (60, 10 ** 6) if experiment == "bound-scatter" else (10 ** 6,)
            out = tmp_path / experiment
            for name in [o["path"] for o in run(experiment, ExperimentConfig(
                    out=out, n=n, **SMALL))["outputs"] if o["path"].endswith(".csv")]:
                header, *rows = read_csv(out / name)
                assert header == schemas[name], name
                assert rows and {len(row) for row in rows} == {len(header)}, name
                written.add(name)
        assert written == {name for name in schemas if name.endswith(".csv")}


def _csv_text(*rows):
    return "".join(",".join(row) + "\r\n" for row in rows)


_DENSITY_GRID = np.array([15.0, 20.0])
_GAP_RECORDS = extract_gap_records([1.0, 2.0, 3.0, 4.0], 2.5, 1.0)

_ESTIMATES = ["index", "lambda", "h_exact", "h_hat", "h_hat_uncorrected",
              "n_mean_error", "n_std_error", "regime_violation"]
_HDENSITY = ["h", "f_H", "F_H"]

# name -> (serializer, arguments, exact file text)
WRITER_CASES = {
    "estimates": (
        _csv_bytes,
        (dict(zip(_ESTIMATES, [[2], [1.5], [3.25], [3.5], [3.0], [None], [None], [False]])),),
        _csv_text(_ESTIMATES, ["2", "1.5", "3.25", "3.5", "3.0", "", "", "0"])),
    "density": (
        _csv_bytes,
        ({"lambda": _DENSITY_GRID, "rho": SpectralDensity.mckay(20)(_DENSITY_GRID)},),
        _csv_text(["lambda", "rho"], ["15.0", "0.06061832720744432"],
                  ["20.0", "0.06937403133025387"])),
    "gaps": (
        _csv_bytes,
        (dict(zip(["index", "lambda", "s_minus", "s_plus"], _GAP_RECORDS)),),
        _csv_text(["index", "lambda", "s_minus", "s_plus"], ["2", "2.0", "1.0", "1.0"],
                  ["3", "3.0", "1.0", "1.0"])),
    "hdensity": (
        _csv_bytes,
        (dict(zip(_HDENSITY, [[1.0, 2.0], [0.1, 0.2], [0.3, 0.5]])),),
        _csv_text(_HDENSITY, ["1.0", "0.1", "0.3"], ["2.0", "0.2", "0.5"])),
    "numpy_scalars": (
        _csv_bytes,
        ({"f64": [np.float64(0.012612788722549187), np.float32(0.5)],
          "i64": [np.int64(7), np.int32(-3)], "bool": [np.bool_(True), np.bool_(False)],
          "none": [None, None]},),
        _csv_text(["f64", "i64", "bool", "none"], ["0.012612788722549187", "7", "1", ""],
                  ["0.5", "-3", "0", ""])),
    "tail_json": (
        _json_bytes,
        ({"slope": -2.0, "window": [1.0, 100.0], "plateau_spread": 0.25},),
        '{\n  "plateau_spread": 0.25,\n  "slope": -2.0,\n'
        '  "window": [\n    1.0,\n    100.0\n  ]\n}\n'),
}


def _openblas():
    # (get, set) of numpy's bundled OpenBLAS thread count, found apart from
    # the runner's own lookup
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, "scipy_openblas_get_num_threads64_"):
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    pytest.skip("numpy's BLAS is not its bundled OpenBLAS")


class TestBlasPin:
    """run() and validate() hold BLAS to one thread for the call, so no byte
    depends on the host's BLAS thread count."""

    def test_files_equal_at_one_and_two_blas_threads(self, tmp_path):
        # At p=1000 a second BLAS thread moved the last digits of all four
        # data files (p=200 is too small to show it). Each run is a fresh
        # process started at its count, with a RuntimeWarning as an error.
        data = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            subprocess.run(
                [sys.executable, "-W", "error::RuntimeWarning", "-m", "eigerr.cli", "run",
                 "fh-density", "--p", "1000", "--k", "20", "--M", "2", "--R", "1",
                 "--n", "1e8", "--seed", "3", "--out", str(out)],
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(SRC)},
                capture_output=True, timeout=300, check=True)
            data.append({f.name: f.read_bytes() for f in out.iterdir()
                         if f.name != "manifest.json"})
        assert len(data[0]) == 4
        assert data[0] == data[1]

    @staticmethod
    def _counts(monkeypatch, call):
        # BLAS threads seen inside the call, which starts at 2, and after it
        get, put = _openblas()
        seen = []
        sample = experiments._sample_ensemble

        def recording(*args, **kwargs):
            seen.append(get())
            return sample(*args, **kwargs)

        monkeypatch.setattr(experiments, "_sample_ensemble", recording)
        before = get()
        put(2)
        try:
            call()
            return seen, get()
        finally:
            put(before)

    @pytest.mark.parametrize("entry", ["run", "validate"])
    def test_pinned_for_the_call_and_restored(self, tmp_path, monkeypatch, entry):
        cfg = ExperimentConfig(out=tmp_path, **SMALL)
        call = (lambda: run("density", cfg)) if entry == "run" else (lambda: validate(cfg))
        assert self._counts(monkeypatch, call) == ([1], 2)

    def test_other_blas_runs_unpinned(self, tmp_path, monkeypatch):
        # Without the OpenBLAS symbols the run goes on at the host's count.
        monkeypatch.setattr(spectral, "_openblas", lambda: None)
        cfg = ExperimentConfig(out=tmp_path, **SMALL)
        assert self._counts(monkeypatch, lambda: run("density", cfg)) == ([2], 2)
        assert (tmp_path / "density.csv").is_file()

    def test_concurrent_calls_take_turns(self, tmp_path, monkeypatch):
        # Runs at once must not restore the count under each other: each
        # reads one thread throughout, and the count before is back after.
        get, put = _openblas()
        seen = []

        def slow(config, spectra, connected, rho):
            seen.append(get())
            time.sleep(0.05)
            seen.append(get())
            return {}

        monkeypatch.setitem(experiments.EXPERIMENTS, "density", (None, slow))
        before = get()
        put(2)
        try:
            for _ in range(3):
                with ThreadPoolExecutor(max_workers=4) as pool:
                    for done in [pool.submit(run, "density", ExperimentConfig(
                            out=tmp_path / str(i), **SMALL)) for i in range(4)]:
                        done.result(timeout=60)
            after = get()
        finally:
            put(before)
        assert seen == [1] * 24
        assert after == 2


class TestWriters:
    @pytest.mark.parametrize("case", sorted(WRITER_CASES))
    def test_writer(self, case):
        serialize, args, expected = WRITER_CASES[case]
        assert serialize(*args) == expected.encode()

    def test_ragged_table_raises_before_any_file(self, tmp_path, monkeypatch):
        # A column one row short would lose rows silently under a plain zip.
        ragged = {"h": [1.0, 2.0], "f_H": [0.1, 0.2], "F_H": [0.3]}
        with pytest.raises(ValueError, match="zip"):
            _csv_bytes(ragged)
        monkeypatch.setitem(experiments.EXPERIMENTS, "tail",
                            (0, lambda config, *_: {"tail.json": {}, "fh_tail.csv": ragged}))
        with pytest.raises(ValueError, match="zip"):
            run("tail", ExperimentConfig(out=tmp_path / "out", **SMALL))
        assert not any(f.is_file() for f in tmp_path.rglob("*"))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_json_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="JSON compliant"):
            _json_bytes({"statistic": value})


class TestValidate:
    def test_regime_violation_warning(self):
        cfg = ExperimentConfig(n=(100,), **SMALL)
        report = validate(cfg)
        assert any(w.startswith("regime_violation") for w in report["warnings"])
        assert report["pilot_h_hat"] is not None

    def test_clean_report_for_large_n(self):
        cfg = ExperimentConfig(n=(10 ** 9,), **SMALL)
        report = validate(cfg)
        assert not any(w.startswith("regime_violation") for w in report["warnings"])

    def test_empty_window_warning(self):
        cfg = ExperimentConfig(p=60, k=4, M=2, R=1, n=(10 ** 9,),
                               lambda0=300.0, delta=0.5, seed=5)
        report = validate(cfg)
        assert any(w.startswith("empty_window") for w in report["warnings"])

    def test_both_window_guards_reported(self):
        # Far past the bulk the density vanishes and the window is empty: one
        # warning per failing guard, and no pilot estimate.
        cfg = ExperimentConfig(p=60, k=4, M=2, R=1, n=(10 ** 9,),
                               lambda0=300.0, delta=0.5, seed=5)
        report = validate(cfg)
        assert report["warnings"] == [
            "window_outside_bulk: empirical density vanishes at lambda0=300.0; "
            "choose a window inside the bulk",
            "empty_window: no eigenvalues within delta of lambda0=300.0"]
        assert report["pilot_h_hat"] is None and not report["ok"]

    def test_bulk_centre_window_is_clean(self):
        cfg = ExperimentConfig(p=500, k=20, M=5, n=(10 ** 12,),
                               lambda0=20.0, delta=1.0, seed=5)
        report = validate(cfg)
        assert report["warnings"] == [] and report["ok"]

    def test_window_outside_bulk_near_edge(self):
        # McKay's upper edge is 20 + 2 sqrt(19) = 28.72: the window 28.5 -+ 1
        # holds eigenvalues, but its upper end lies past the bulk.
        cfg = ExperimentConfig(p=500, k=20, M=5, n=(10 ** 12,),
                               lambda0=28.5, delta=1.0, seed=5)
        report = validate(cfg)
        assert report["warnings"] == [
            "window_outside_bulk: empirical density vanishes at lambda=29.5; "
            "choose a window inside the bulk"]
        assert report["pilot_h_hat"] is None and not report["ok"]

    def test_one_extraction_per_pilot_matrix(self, monkeypatch):
        # The pilot pools each matrix's window records once, as the runners do.
        cfg = ExperimentConfig(n=(10 ** 9,), **SMALL)
        graphs = [sample_regular_graph(cfg.p, cfg.k, child_seed(cfg.seed, 0, m)) for m in range(cfg.M)]
        spectra = np.array([laplacian(g).eigenvalues for g in graphs])
        records = [extract_gap_records(ev, cfg.lambda0, cfg.delta) for ev in spectra]
        lam, s_minus, s_plus = (np.concatenate([getattr(r, name) for r in records])
                                for name in ("lam", "s_minus", "s_plus"))
        rho0 = estimate_density(spectra[:, 1:])(cfg.lambda0)
        calls = []
        extract = experiments.extract_gap_records
        monkeypatch.setattr(experiments, "extract_gap_records",
                            lambda *args: calls.append(args) or extract(*args))
        report = validate(cfg)
        assert report["pilot_h_hat"] == float(np.median(h_hat(lam, s_minus, s_plus, cfg.p, rho0)))
        assert report["ok"] and "record_rates_per_unit_delta" not in report
        assert len(calls) == cfg.M

    def test_non_simple_pilot_spectrum_warning(self, capsys):
        # At seed 149 the second of three 3-regular graphs on 10 vertices is
        # disconnected: its tied zero modes are a warning, not exit 2.
        code = main(["validate", "--p", "10", "--k", "3", "--M", "3", "--n", "1e3",
                     "--lambda0", "3", "--seed", "149"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["warnings"]) == 1
        assert report["warnings"][0].startswith(
            "non_simple_spectrum: tied eigenvalues: lambda_1 and lambda_2 are ")
        assert report["pilot_h_hat"] is None and report["ok"] is False


class TestCli:
    def test_run_density_exit_zero(self, tmp_path, capsys):
        code = main(["run", "density", "--p", "60", "--k", "4", "--M", "2",
                     "--n", "1e3", "--lambda0", "4", "--seed", "5",
                     "--out", str(tmp_path)])
        assert code == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["experiment"] == "density"

    def test_disconnected_density_runs(self, tmp_path, capsys):
        # Two disjoint K_4: rounding splits the six-fold eigenvalue 4, and the
        # density's bins come from the range, not from the split (4.3e15 bins).
        flags = ["--p", "8", "--k", "3", "--M", "1", "--seed", "18"]
        assert main(["run", "density", *flags, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert json.loads((tmp_path / "stats.json").read_text())["disconnected"] == 1
        assert main(["validate", *flags, "--n", "1e3", "--lambda0", "4", "--delta", "1"]) == 0
        warned = [w.split(":")[0] for w in json.loads(capsys.readouterr().out)["warnings"]]
        assert warned == ["window_outside_bulk", "non_simple_spectrum"]

    def test_config_error_exit_one(self, tmp_path, capsys):
        code = main(["run", "density", "--p", "5", "--k", "3",
                     "--out", str(tmp_path)])
        assert code == 1
        assert "config error" in capsys.readouterr().err
        # A non-finite window is refused before any file is written.
        for flag, value in (("--lambda0", "nan"), ("--delta", "nan"), ("--delta", "inf")):
            out = tmp_path / f"{flag[2:]}-{value}"
            code = main(["run", "hhat-vs-h", "--p", "60", "--k", "4", "--M", "2",
                         "--n", "1e3", flag, value, "--out", str(out)])
            assert code == 1
            assert "config error" in capsys.readouterr().err
            assert not out.exists()
        # k = 1 is refused before the output directory is made.
        for experiment in ("density", "tail", "spacing", "bound-scatter"):
            out = tmp_path / f"k1-{experiment}"
            code = main(["run", experiment, "--p", "20", "--k", "1", "--M", "2",
                         "--n", "1e3", "--lambda0", "1", "--out", str(out)])
            assert code == 1
            assert "need p > k >= 2" in capsys.readouterr().err
            assert not out.exists()

    def test_non_integral_n_exit_one(self, tmp_path, capsys):
        # the CLI parses every count as the API takes it: ExperimentConfig refuses
        for flags, name in ((["--p", "60", "--n", "1000.5"], "n"),
                            (["--p", "60.5", "--n", "1000"], "p")):
            code = main(["run", "density", *flags, "--k", "4", "--out", str(tmp_path)])
            assert code == 1
            assert f"{name} must be integral" in capsys.readouterr().err
            assert not (tmp_path / "density.csv").exists()

    def test_negative_seed_exit_one(self, tmp_path, capsys):
        # refused as a config error, before the output directory is made
        for experiment in ("tail", "spacing"):
            out = tmp_path / experiment
            code = main(["run", experiment, "--p", "60", "--k", "4", "--lambda0", "4",
                         "--seed", "-1", "--out", str(out)])
            assert code == 1
            assert "config error: seed must be >= 0" in capsys.readouterr().err
            assert not out.exists()

    def test_single_n_experiments_refuse_an_n_list(self, tmp_path, capsys):
        # Each of these reads one n; a list would silently drop all but the
        # first. The refusal names the experiment and comes before any file.
        for experiment in ("hhat-vs-h", "bootstrap-vs-hhat", "fh-density"):
            out = tmp_path / experiment
            code = main(["run", experiment, "--p", "60", "--k", "4", "--M", "2", "--R", "2",
                         "--n", "1e3,1e12", "--lambda0", "4", "--seed", "5", "--out", str(out)])
            assert code == 1
            err = capsys.readouterr().err
            assert "config error" in err and experiment in err
            assert not out.exists()

    def test_n_list_in_scientific_notation(self):
        args = build_parser().parse_args(["validate", "--n", "1e3,2.5e3"])
        assert _resolve(args).n == (1000, 2500)
        # every count flag takes the same notation, and an int keeps every digit
        args = build_parser().parse_args(["validate", "--p", "1e2", "--seed", "9007199254740993"])
        config = _resolve(args)
        assert (config.p, config.seed) == (100, 2 ** 53 + 1)
        assert type(config.p) is int

    def test_unknown_flag_value_exit_one(self, tmp_path, capsys):
        code = main(["run", "density", "--p", "abc", "--out", str(tmp_path)])
        assert code == 1

    def test_runtime_error_exit_two(self, tmp_path, capsys):
        cases = [
            # lambda0 far outside the bulk: fh-density cannot evaluate the density
            ("fh-density", "50", "1", "empirical density vanishes at lambda0=50.0;"),
            # just past the McKay edge 4 + 2 sqrt(3), with eigenvalues in the window
            ("spacing", "7.6", "1", "McKay density vanishes at lambda0=7.6"),
            ("joint-gaps", "7.6", "1", "McKay density vanishes at lambda0=7.6"),
            # inside the bulk, but too narrow a window to hold an eigenvalue
            ("spacing", "4", "1e-9", "no eigenvalues within delta of lambda0=4.0"),
            ("joint-gaps", "4", "1e-9", "no eigenvalues within delta of lambda0=4.0"),
            ("fh-density", "4", "1e-9", "no eigenvalues within delta of lambda0=4.0"),
            # lambda0 inside the bulk, one window end past it: McKay's edges are
            # 4 -+ 2 sqrt(3), and the empirical density of these two matrices is
            # positive on the range of their eigenvalues, about [0.68, 7.37]
            ("spacing", "7", "1", "McKay density vanishes at lambda=8.0;"),
            ("joint-gaps", "7", "1", "McKay density vanishes at lambda=8.0;"),
            ("spacing", "1", "1", "McKay density vanishes at lambda=0.0;"),
            ("joint-gaps", "1", "1", "McKay density vanishes at lambda=0.0;"),
            ("fh-density", "7", "1", "empirical density vanishes at lambda=8.0;"),
            ("fh-density", "1", "1", "empirical density vanishes at lambda=0.0;"),
            # a lambda0 whose square overflows is outside McKay's support
            ("spacing", "1e308", "1e308", "McKay density vanishes at lambda0=1e+308;"),
        ]
        for i, (experiment, lambda0, delta, message) in enumerate(cases):
            code = main(["run", experiment, "--p", "60", "--k", "4", "--M", "2",
                         "--R", "1", "--n", "1e3", "--lambda0", lambda0, "--delta", delta,
                         "--seed", "5", "--out", str(tmp_path / str(i))])
            assert code == 2
            record = json.loads(capsys.readouterr().err)
            assert record["error"] == "RuntimeError"
            assert record["message"].startswith(message)
            assert record["experiment"] == experiment
            assert not any((tmp_path / str(i)).iterdir())

    def test_window_inside_the_pooled_range_runs(self, tmp_path, capsys):
        # The window 6 -+ 1 ends inside [0.68, 7.37], the range of these two
        # matrices' eigenvalues, where their histogram density is positive:
        # fh-density runs and validate finds the window inside the bulk.
        flags = ["--p", "60", "--k", "4", "--M", "2", "--R", "1", "--n", "1e3",
                 "--lambda0", "6", "--delta", "1", "--seed", "5"]
        assert main(["run", "fh-density", *flags, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["validate", *flags]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pilot_h_hat"] is not None
        assert not any(w.startswith("window_outside_bulk") for w in report["warnings"])

    @pytest.mark.parametrize("experiment", ["hhat-vs-h", "bootstrap-vs-hhat", "bound-scatter"])
    def test_failed_run_writes_nothing(self, tmp_path, capsys, experiment):
        # A 2-regular graph on 12 vertices is a union of cycles: at seed 2 the
        # first one is disconnected, so its second zero eigenvalue lies within
        # rounding of the first. The spectrum guard refuses it before any file
        # is written, and before a divergent h_exact can warn or reach a row.
        flags = ["--M", "2", "--R", "2", "--n", "1e3", "--out"]
        failing = ["run", experiment, "--p", "12", "--k", "2", "--lambda0", "2", "--seed", "2"]
        empty, earlier = tmp_path / "empty", tmp_path / "earlier"
        assert main(["run", experiment, "--p", "60", "--k", "4", "--lambda0", "4",
                     "--seed", "5", *flags, str(earlier)]) == 0
        before = {f.name: f.read_bytes() for f in earlier.iterdir()}
        capsys.readouterr()
        for out in (empty, earlier):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([*failing, *flags, str(out)]) == 2
            record = json.loads(capsys.readouterr().err)
            assert record["error"] == "ValueError"
            assert record["message"].startswith("tied eigenvalues: lambda_1 and lambda_2 are ")
            assert record["message"].endswith("; spectrum is not simple")
        assert not any(empty.iterdir())
        assert {f.name: f.read_bytes() for f in earlier.iterdir()} == before

    def test_later_disconnected_matrix_refused(self, tmp_path, capsys):
        # At seed 149 the first of three 3-regular graphs on 10 vertices is
        # connected and the second is not. hhat-vs-h and bootstrap-vs-hhat take
        # their rows from the first matrix but their density from all three, so
        # the guard must refuse the second one's tied zero modes; density
        # counts the disconnected graph instead.
        flags = ["--p", "10", "--k", "3", "--M", "3", "--n", "1e3", "--lambda0", "3",
                 "--seed", "149", "--out"]
        for experiment in ("hhat-vs-h", "bootstrap-vs-hhat"):
            assert main(["run", experiment, *flags, str(tmp_path / experiment)]) == 2
            record = json.loads(capsys.readouterr().err)
            assert record["error"] == "ValueError"
            assert record["message"].startswith("tied eigenvalues: lambda_1 and lambda_2 are ")
            assert not any((tmp_path / experiment).iterdir())
        assert main(["run", "density", *flags, str(tmp_path / "density")]) == 0
        stats = json.loads((tmp_path / "density" / "stats.json").read_text())
        assert stats["disconnected"] == 1

    def test_no_environment_channel(self, tmp_path, capsys, monkeypatch):
        # A run's config is its command line: --help names no variable, and
        # an exported EIGERR_P leaves p at ExperimentConfig's default.
        for command in ("run", "validate"):
            assert main([command, "--help"]) == 0
            assert "EIGERR_" not in capsys.readouterr().out
        monkeypatch.setenv("EIGERR_P", "10")
        assert main(["run", "density", "--k", "4", "--M", "1", "--seed", "5",
                     "--out", str(tmp_path)]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["config"]["p"] == ExperimentConfig().p

    @pytest.mark.parametrize("flag, value, message", [
        ("--p", "abc", "error: argument --p: invalid integer value: 'abc'"),
        ("--n", ",", "error: argument --n: invalid integer list value: ','"),
        ("--seed", "-1", "config error: seed must be >= 0"),
    ], ids=["p", "n", "seed"])
    def test_bad_flag_value_exit_one(self, tmp_path, capsys, flag, value, message):
        # a bad value is refused before any file is written
        out = tmp_path / "out"
        assert main(["run", "density", "--k", "4", flag, value, "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip() == message
        assert not out.exists()

    def test_validate_subcommand(self, capsys):
        code = main(["validate", "--p", "60", "--k", "4", "--M", "2",
                     "--n", "1e9", "--lambda0", "4", "--seed", "5"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert "warnings" in report
