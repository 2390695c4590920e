"""Benchmark-side tracing: spans around calls into eigerr's public functions.

Nothing inside `src/` is instrumented. Each module binds the names it imports
(`from .spectral import eig_sym`), so wrapping the binding in the importing
module separates callers: `eigerr.graphs.eig_sym` is the population
eigensolve, `eigerr.estimators.eig_sym` and `eigerr.experiments.eig_sym` are
sample eigensolves. Spans (name, start, end, parent, op) stay in memory and
are written out once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# span name -> the (module, attribute) bindings it wraps. What run() does
# between wrapped calls (row building, writers, sha256) is the self time of
# "experiments.run", so the self times of an operation's spans sum to its wall
# time.
LAYERS = {
    "experiments.run": [("eigerr.experiments", "run")],
    "graphs.pairing": [("eigerr.experiments", "sample_regular_graph")],
    "graphs.laplacian": [("eigerr.experiments", "laplacian")],
    "graphs.connected": [("eigerr.experiments", "is_connected")],
    "spectral.pop_eig": [("eigerr.graphs", "eig_sym")],
    "spectral.sample_eig": [("eigerr.estimators", "eig_sym"),
                            ("eigerr.experiments", "eig_sym")],
    "spectral.gap_records": [("eigerr.experiments", "extract_gap_records")],
    "spectral.density": [("eigerr.experiments", "estimate_density")],
    "wishart.draw": [("eigerr.estimators", "sample_wishart_scaled"),
                     ("eigerr.experiments", "sample_wishart_scaled")],
    "wishart.sqrt_psd": [("eigerr.estimators", "sqrt_psd"),
                         ("eigerr.experiments", "sqrt_psd")],
    # Self time of bootstrap_error is its residual and crossing kernel.
    "estimators.residual": [("eigerr.experiments", "bootstrap_error")],
    "estimators.h_exact_all": [("eigerr.experiments", "h_exact_all")],
    "hdensity.f_H": [("eigerr.hdensity", "f_H"), ("eigerr.experiments", "f_H")],
    "hdensity.F_H": [("eigerr.hdensity", "F_H"), ("eigerr.experiments", "F_H")],
    "hdensity.tail_integral": [("eigerr.hdensity", "tail_integral")],
    "hdensity.tail_report": [("eigerr.hdensity", "tail_report"),
                             ("eigerr.experiments", "tail_report")],
    "hdensity.gap_sampler": [("eigerr.hdensity", "sample_joint_gaps")],
    "hdensity.push": [("eigerr.hdensity", "push_h_samples")],
}


def _eig_gflop(args, _result):
    p = args[0].shape[0]
    return {"spectral.eig_gflop": 9.0 * p ** 3 / 1e9}


def _draw_gflop(args, _result):
    # C^(1/2) A is a GEMM (2 p^3); B B^T goes to SYRK (p^3).
    p = args[0].shape[0]
    return {"wishart.gemm_gflop": 3.0 * p ** 3 / 1e9}


def _sqrt_gflop(args, _result):
    p = getattr(args[0], "matrix", args[0]).shape[0]  # PopulationMatrix or array
    return {"wishart.gemm_gflop": 2.0 * p ** 3 / 1e9}


def _crossings(_args, result):
    p = result.crossing_count.size
    return {"estimators.crossing_indices": float((result.crossing_count > 0).sum()),
            "estimators.bootstrap_indices": float(p)}


# Counters computed from each call's arguments or result. The GFLOP counts
# are nominal operation counts, not hardware counters: 9 p^3 for a symmetric
# eigensolve with vectors (Golub and Van Loan), 2 p^3 per GEMM.
COUNTERS = {
    "spectral.pop_eig": _eig_gflop,
    "spectral.sample_eig": _eig_gflop,
    "wishart.draw": _draw_gflop,
    "wishart.sqrt_psd": _sqrt_gflop,
    "estimators.residual": _crossings,
}


class Tracer:
    """Span recorder; `installed()` swaps the wrappers in for one block."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, op]
        self.counters = defaultdict(float)
        self.op = None
        self._open = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, time.perf_counter(), None,
                      self._open[-1] if self._open else None, self.op]
            self._open.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.counters[key] += value
            return result

        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for name, bindings in LAYERS.items():
                for module_name, attr in bindings:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self):
        """Per span name: (total self seconds, call count).

        Calls run on one thread, so child spans nest inside their parent
        without overlapping; self time is duration minus children's durations.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = {name: [0.0, 0] for name in LAYERS}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            totals[name][0] += end - start - inner
            totals[name][1] += 1
        return totals

    def dump(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "op": op}
                for n, s, e, p, op in self.spans]
