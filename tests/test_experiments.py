"""Experiment runner and CLI: schemas, determinism, env overrides, exit codes."""

import csv
import hashlib
import json
import os

import numpy as np
import pytest

from eigerr import HDensityParams, SpectralDensity, extract_gap_records, tail_report
from eigerr import experiments, laplacian, sample_regular_graph
from eigerr.wishart import child_seed
from eigerr.cli import _resolve, build_parser, main
from eigerr.experiments import (
    ESTIMATE_COLUMNS,
    HDENSITY_COLUMNS,
    ConfigError,
    ExperimentConfig,
    _write_csv,
    _write_json,
    run,
    validate,
)

SMALL = dict(p=60, k=4, M=3, R=2, lambda0=4.0, delta=1.0, seed=5)


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestConfig:
    def test_pk_odd(self):
        with pytest.raises(ConfigError, match="even"):
            ExperimentConfig(p=5, k=3).check()

    def test_n_below_p(self):
        with pytest.raises(ConfigError, match="n >= p"):
            ExperimentConfig(p=100, k=4, n=(50,)).check()

    def test_bad_delta(self):
        with pytest.raises(ConfigError, match="delta"):
            ExperimentConfig(p=10, k=2, n=(100,), delta=0.0).check()

    def test_scalar_n_normalized(self):
        cfg = ExperimentConfig(p=10, k=2, n=1000)
        assert cfg.n == (1000,)

    @pytest.mark.parametrize("raw", ["100", "1e7", b"100"], ids=["int", "float", "bytes"])
    def test_string_n_rejected(self, raw):
        # a string would iterate into digits: "100" -> (1, 0, 0)
        with pytest.raises(ConfigError, match="^n must be"):
            ExperimentConfig(p=10, k=2, n=raw)

    @pytest.mark.parametrize("raw", [1000.7, (1000, 2500.5), float("inf"), float("nan")],
                             ids=["scalar", "in-list", "inf", "nan"])
    def test_non_integral_n_rejected(self, raw):
        # never truncated: n=1000.7 must not run as n=1000
        with pytest.raises(ConfigError, match="^n must be integral"):
            ExperimentConfig(p=10, k=2, n=raw)

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

    def test_determinism_across_runs_and_threads(self, tmp_path):
        out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        run("hhat-vs-h", ExperimentConfig(out=out1, n=(1000,), **SMALL))
        run("hhat-vs-h", ExperimentConfig(out=out2, n=(1000,), **SMALL))
        cfg3 = dict(SMALL)
        run("hhat-vs-h", ExperimentConfig(out=out3, n=(1000,), threads=3, **cfg3))
        ref = (out1 / "estimates.csv").read_bytes()
        assert (out2 / "estimates.csv").read_bytes() == ref
        assert (out3 / "estimates.csv").read_bytes() == ref

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

    def test_every_output_has_header(self, tmp_path):
        cfg = ExperimentConfig(out=tmp_path, n=(10 ** 6,), **SMALL)
        run("bootstrap-vs-hhat", cfg)
        for name in ("estimates.csv",):
            rows = read_csv(tmp_path / name)
            assert not any(ch.isdigit() for ch in rows[0][0])


def _csv_text(*rows):
    return "".join(",".join(row) + "\r\n" for row in rows)


_DENSITY_GRID = np.array([15.0, 20.0])
_GAP_RECORDS = extract_gap_records([1.0, 2.0, 3.0, 4.0], 2.5, 1.0)

# name -> (writer, arguments after the path, exact file text)
WRITER_CASES = {
    "estimates": (
        _write_csv,
        (ESTIMATE_COLUMNS, [[2, 1.5, 3.25, 3.5, 3.0, None, None, False]]),
        _csv_text(ESTIMATE_COLUMNS, ["2", "1.5", "3.25", "3.5", "3.0", "", "", "0"])),
    "density": (
        _write_csv,
        (["lambda", "rho"],
         list(zip(_DENSITY_GRID, SpectralDensity.mckay(20)(_DENSITY_GRID)))),
        _csv_text(["lambda", "rho"], ["15.0", "0.06061832720744432"],
                  ["20.0", "0.06937403133025387"])),
    "gaps": (
        _write_csv,
        (["index", "lambda", "s_minus", "s_plus"],
         zip(*_GAP_RECORDS)),
        _csv_text(["index", "lambda", "s_minus", "s_plus"], ["2", "2.0", "1.0", "1.0"],
                  ["3", "3.0", "1.0", "1.0"])),
    "hdensity": (
        _write_csv,
        (HDENSITY_COLUMNS, list(zip([1.0, 2.0], [0.1, 0.2], [0.3, 0.5]))),
        _csv_text(HDENSITY_COLUMNS, ["1.0", "0.1", "0.3"], ["2.0", "0.2", "0.5"])),
    "numpy_scalars": (
        _write_csv,
        (["f64", "i64", "bool", "none"],
         [(np.float64(0.012612788722549187), np.int64(7), np.bool_(True), None),
          (np.float32(0.5), np.int32(-3), np.bool_(False), None)]),
        _csv_text(["f64", "i64", "bool", "none"], ["0.012612788722549187", "7", "1", ""],
                  ["0.5", "-3", "0", ""])),
    "tail_json": (
        _write_json,
        ({"slope": -2.0, "window": [1.0, 100.0], "plateau_spread": 0.25},),
        '{\n  "plateau_spread": 0.25,\n  "slope": -2.0,\n'
        '  "window": [\n    1.0,\n    100.0\n  ]\n}\n'),
}


class TestWriters:
    @pytest.mark.parametrize("case", sorted(WRITER_CASES))
    def test_writer(self, tmp_path, case):
        writer, args, expected = WRITER_CASES[case]
        path = tmp_path / "out"
        writer(path, *args)
        assert path.read_bytes().decode() == expected


    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_json_rejects_non_finite(self, tmp_path, value):
        with pytest.raises(ValueError, match="JSON compliant"):
            _write_json(tmp_path / "out", {"statistic": value})


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

    def test_delta_sensitivity_flat_bulk_is_clean(self):
        # at the bulk center the delta-normalized record rate is stable,
        # so rescaling delta raises no warning
        cfg = ExperimentConfig(p=500, k=20, M=5, n=(10 ** 12,),
                               lambda0=20.0, delta=1.0, seed=5)
        report = validate(cfg)
        assert not any(w.startswith("delta_sensitivity") for w in report["warnings"])

    def test_delta_sensitivity_warns_near_edge(self):
        # a window straddling the spectral edge makes the rate delta-dependent
        cfg = ExperimentConfig(p=500, k=20, M=5, n=(10 ** 12,),
                               lambda0=28.5, delta=1.0, seed=5)
        report = validate(cfg)
        assert any(w.startswith("delta_sensitivity") for w in report["warnings"])

    def test_three_extractions_per_pilot_matrix(self, monkeypatch):
        # The base-delta records serve both the pilot estimate and the base
        # rate, so each pilot matrix is scanned once per delta.
        cfg = ExperimentConfig(n=(10 ** 9,), **SMALL)
        mats = [laplacian(sample_regular_graph(cfg.p, cfg.k, child_seed(cfg.seed, 0, m)))
                for m in range(cfg.M)]
        expected = {}
        for label, d in (("half", 0.5), ("base", 1.0), ("double", 2.0)):
            count = sum(extract_gap_records(m.eigenvalues, cfg.lambda0, d).index.size
                        for m in mats)
            expected[label] = count / (2.0 * d * cfg.M)
        calls = []
        extract = experiments.extract_gap_records
        monkeypatch.setattr(experiments, "extract_gap_records",
                            lambda *args: calls.append(args) or extract(*args))
        report = validate(cfg)
        assert list(report["record_rates_per_unit_delta"].items()) == list(expected.items())
        assert report["pilot_h_hat"] is not None and report["ok"]
        assert len(calls) == 3 * cfg.M


class TestCli:
    def test_run_density_exit_zero(self, tmp_path, capsys):
        code = main(["run", "density", "--p", "60", "--k", "4", "--M", "2",
                     "--n", "1e3", "--lambda0", "4", "--seed", "5",
                     "--out", str(tmp_path)])
        assert code == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["experiment"] == "density"

    def test_config_error_exit_one(self, tmp_path, capsys):
        code = main(["run", "density", "--p", "5", "--k", "3",
                     "--out", str(tmp_path)])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_non_integral_n_exit_one(self, tmp_path, capsys):
        code = main(["run", "density", "--p", "60", "--k", "4", "--n", "1000.5",
                     "--out", str(tmp_path)])
        assert code == 1
        assert "n must be integral" in capsys.readouterr().err
        assert not (tmp_path / "density.csv").exists()

    def test_n_list_in_scientific_notation(self):
        args = build_parser().parse_args(["validate", "--n", "1e3,2.5e3"])
        assert _resolve(args).n == (1000, 2500)

    def test_unknown_flag_value_exit_one(self, tmp_path, capsys):
        code = main(["run", "density", "--p", "abc", "--out", str(tmp_path)])
        assert code == 1

    def test_runtime_error_exit_two(self, tmp_path, capsys):
        # lambda0 far outside the bulk: fh-density cannot evaluate the density
        code = main(["run", "fh-density", "--p", "60", "--k", "4", "--M", "2",
                     "--R", "1", "--n", "1e3", "--lambda0", "50", "--seed", "5",
                     "--out", str(tmp_path)])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "RuntimeError"
        assert record["experiment"] == "fh-density"

    def test_env_override_and_flag_precedence(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EIGERR_P", "10")
        monkeypatch.setenv("EIGERR_K", "2")
        monkeypatch.setenv("EIGERR_M", "2")
        monkeypatch.setenv("EIGERR_N", "1e3")
        monkeypatch.setenv("EIGERR_LAMBDA0", "2")
        monkeypatch.setenv("EIGERR_SEED", "5")
        monkeypatch.setenv("EIGERR_OUT", str(tmp_path / "envout"))
        code = main(["run", "density", "--p", "20"])  # flag beats env
        assert code == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["config"]["p"] == 20
        assert manifest["config"]["k"] == 2
        assert (tmp_path / "envout" / "density.csv").exists()

    def test_validate_subcommand(self, capsys):
        code = main(["validate", "--p", "60", "--k", "4", "--M", "2",
                     "--n", "1e9", "--lambda0", "4", "--seed", "5"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert "warnings" in report
