"""eigerr benchmark: run one workload in this process and print one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Imports eigerr from the checkout's `src/`, makes the workload's inputs from
--seed, warms up, then repeats the workload's operation (same inputs) for
--seconds and checks every output. The last line of stdout is
`{"correct", "attempted", "failed", "metrics"}`; the line before it is a
diagnostic record (environment, per-operation times, check details and
`hash_match`, the share of operations whose output digest equals the one
recorded in `reference_digests.json` for this seed).

BLAS runs on one thread: on a machine of few shared cores, a second BLAS
thread makes every eigensolve wait on whichever core the host slows.

--trace 0 reports the end-to-end metrics: run_s (mean seconds per operation)
and setup_s (median over fresh interpreters of import plus the warm-up
operation), both scaled to the reference host speed by a calibration kernel
timed between them (see `Calibration`), and peak_rss_mb and ok_frac.
--trace 1 alternates traced and untraced operations and reports per-layer
self times and counts from spans recorded around eigerr's public functions
(see spans.py); the spans are written to `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

# Before numpy is imported here or in a set-up probe (which inherits it).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
# After each operation, calibration chunks run until they add up to this
# share of the operation's wall time, so they sample the host's speed over
# the same stretch of the run as the operations do.
CALIBRATION_SHARE = 0.25
# Mean seconds of one calibration chunk on the reference host (2-vCPU x86_64
# VM, OpenBLAS 0.3.31 on one thread); times are reported at that speed.
CALIBRATION_REF_S = 0.35


def _import_eigerr():
    if not (SRC / "eigerr" / "__init__.py").is_file():
        raise SystemExit(f"eigerr sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import eigerr

    if not Path(eigerr.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported eigerr from {eigerr.__file__}, not from {SRC}")


def _blas_threads():
    import ctypes

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def _bytes_in(directory):
    return sum(f.stat().st_size for f in directory.rglob("*") if f.is_file())


class Calibration:
    """Fixed work that calls nothing in eigerr, timed in chunks between the
    operations it calibrates.

    A shared host slows this machine by up to 1.9x for seconds to minutes at
    a time, and the guest's CPU time slows with its wall time, so two runs of
    the same code minutes apart disagree. A chunk does the two kinds of work
    the workloads do: a LAPACK eigensolve at the workloads' p = 1000, whose
    working set feels the host's memory contention as theirs does, and
    adaptive quadrature of a Python integrand. The mean chunk time over a
    run, against CALIBRATION_REF_S, is the host's speed during that run. A
    change to eigerr cannot move it.
    """

    def __init__(self):
        import numpy as np

        self._matrix = np.random.default_rng(0).standard_normal((1000, 1000))
        self._matrix += self._matrix.T
        self.samples = []

    def chunk(self):
        import numpy as np
        from scipy.integrate import quad

        start = time.perf_counter()
        np.linalg.eigh(self._matrix)
        for c in (1.0, 2.0):
            for k in range(1, 41):
                quad(lambda x: math.sin(k * x) ** 2 / (c + x * x), 0.0, 20.0, limit=200)
        self.samples.append(time.perf_counter() - start)

    def share_of(self, seconds):
        spent = 0.0
        while spent < CALIBRATION_SHARE * seconds:
            self.chunk()
            spent += self.samples[-1]

    def to_reference(self, seconds):
        return seconds * CALIBRATION_REF_S / statistics.mean(self.samples)


def _setup_seconds(workload, seed, calibration):
    cmd = [sys.executable, str(Path(__file__)), "--probe",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        calibration.chunk()
        start = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=PROBE_TIMEOUT_S, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


def _run_once(workload, seed, out, expected, tracer):
    """One timed operation, then its check. The result is dropped on return,
    so the next operation's peak memory does not include it."""
    op = {"traced": tracer is not None}
    with tracer.installed() if tracer is not None else nullcontext():
        t0 = time.perf_counter()
        try:
            result = workload.run(seed, out)
        except Exception as exc:  # a failed operation is counted, not fatal
            result, op["error"] = None, f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
        op["wall_s"] = time.perf_counter() - t0
    op["ok"] = False
    if result is not None:
        try:
            op["ok"], op["check"] = workload.check(result, out)
            op["hash_match"] = None if expected is None else workload.digest(result) == expected
        except Exception as exc:  # a check that cannot read the outputs fails the op
            op["error"] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
    op["bytes_written"] = _bytes_in(out)
    return op


def _operations(name, workload, seed, seconds, out, tracer, calibration):
    """Repeat the operation for `seconds`; in trace mode every other one is
    traced, otherwise each one is followed by its share of calibration."""
    reference = json.loads((HERE / "reference_digests.json").read_text())
    expected = reference["digests"].get(name, {}).get(str(seed))
    ops = []
    min_ops = 1 if tracer is None else 2
    started = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - started < seconds:
        traced = tracer is not None and len(ops) % 2 == 0
        if traced:
            tracer.op = len(ops)
        ops.append(_run_once(workload, seed, out, expected, tracer if traced else None))
        if calibration is not None:
            calibration.share_of(ops[-1]["wall_s"])
    return ops


# The run() span's self time is the orchestration layer's own work.
_TIME_METRIC = {"experiments.run": "experiments.self_s"}


def _layer_metrics(tracer, ops):
    traced = [op for op in ops if op["traced"]]
    plain = [op for op in ops if not op["traced"]]
    n = len(traced)
    metrics = {}
    total_self = 0.0
    times = tracer.self_times()
    for name, (secs, calls) in times.items():
        metrics[_TIME_METRIC.get(name, f"{name}_s")] = (secs / n, "s")
        metrics[f"{name}_calls"] = (calls / n, "count")
        total_self += secs / n
    counters = tracer.counters
    eig_s = times["spectral.pop_eig"][0] + times["spectral.sample_eig"][0]
    gemm_s = times["wishart.draw"][0] + times["wishart.sqrt_psd"][0]
    metrics["spectral.eig_gflop"] = (counters["spectral.eig_gflop"] / n, "GFLOP")
    metrics["spectral.eig_gflop_per_s"] = (
        counters["spectral.eig_gflop"] / eig_s if eig_s > 0 else 0.0, "GFLOP/s")
    metrics["wishart.gemm_gflop"] = (counters["wishart.gemm_gflop"] / n, "GFLOP")
    metrics["wishart.gemm_gflop_per_s"] = (
        counters["wishart.gemm_gflop"] / gemm_s if gemm_s > 0 else 0.0, "GFLOP/s")
    indices = counters["estimators.bootstrap_indices"]
    metrics["estimators.crossing_frac"] = (
        counters["estimators.crossing_indices"] / indices if indices > 0 else 0.0, "ratio")
    metrics["experiments.bytes_written"] = (
        statistics.mean(op["bytes_written"] for op in traced), "bytes")
    traced_s = statistics.mean(op["wall_s"] for op in traced)
    plain_s = statistics.mean(op["wall_s"] for op in plain)
    metrics["trace.run_s"] = (traced_s, "s")
    metrics["trace.untraced_run_s"] = (plain_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    # Time inside an operation that no span covers; near 0 when every call
    # path of the workload is wrapped.
    metrics["trace.unattributed_s"] = (traced_s - total_self, "s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="only import and warm up (timed by the parent for setup_s)")
    args = parser.parse_args(argv)

    _import_eigerr()
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    workload = WORKLOADS[args.workload]
    out = WORK / f"{args.workload}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        workload.run(args.seed, out, warm=True)
        if args.probe:
            return 0
        tracer = Tracer() if args.trace else None
        calibration = None if args.trace else Calibration()
        setup = [] if args.trace else _setup_seconds(args.workload, args.seed, calibration)
        ops = _operations(args.workload, workload, args.seed, args.seconds, out, tracer,
                          calibration)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    attempted = len(ops)
    failed = sum(not op["ok"] for op in ops)
    walls = [op["wall_s"] for op in ops if not op["traced"]]
    hashed = [op["hash_match"] for op in ops if op.get("hash_match") is not None]
    env = environment()
    diagnostic = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "run_s_samples": walls,
        "setup_s_samples": setup,
        "calibration_s_samples": [] if calibration is None else calibration.samples,
        "fail_frac": failed / attempted,
        "hash_match": sum(hashed) / len(hashed) if hashed else None,
        "checks": [op.get("check") for op in ops],
        "errors": [op["error"] for op in ops if "error" in op],
    }
    if args.trace:
        metrics = _layer_metrics(tracer, ops)
        WORK.mkdir(exist_ok=True)
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({"env": env, "spans": tracer.dump()}) + "\n")
        diagnostic["spans"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {
            "run_s": (calibration.to_reference(statistics.mean(walls)), "s"),
            "setup_s": (calibration.to_reference(statistics.median(setup)), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
        }
    print(json.dumps(diagnostic))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
