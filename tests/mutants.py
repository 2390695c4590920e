"""A standing table of code mutants, each with the tests that must kill it.

Run ``python tests/mutants.py`` from any directory (stdlib only; pytest is
not collecting this file). For each row it copies ``src/``, ``tests/``,
``pyproject.toml`` (which puts the copied ``src`` first on the path) and
``README.md`` (which tests read) to a temporary directory, replaces the
row's old text, which must occur exactly once in its file, and runs
``python -m pytest -x -q`` on the row's killer node IDs. A mutant is
killed when pytest reports a failing test (exit 1). It prints each
mutant's outcome and wall time, and exits 1 when a mutant survives, a row
is refused (its old text is absent or repeated) or pytest ends any other
way (a node ID not found, a collection error).

A new guard or check lands with its mutant in this table.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/eigerr, exact old text, new text, killer node IDs)
MUTANTS = [
    # dsyevd's documented minimum workspace for jobz 'N' sends dsytrd to its
    # unblocked code: other eigenvalue bits than numpy's eigvalsh.
    ("eigenvalue-only workspace at its minimum", "spectral.py",
     "work, iwork = np.empty(int(work[0])), np.empty(iwork[0], dtype=np.int64)",
     "work, iwork = (np.empty(int(work[0]) if jobz == b\"V\" else 2 * a.shape[0] + 1),\n"
     "                   np.empty(iwork[0], dtype=np.int64))",
     ["tests/test_spectral.py::TestEigSym::test_bits_equal_numpy"]),
    ("dsyevd info ignored", "spectral.py",
     "if info[0] > 0:",
     "if False:",
     ["tests/test_spectral.py::TestEigSym::test_nonconvergence_raises"]),
    ("eig_sym finiteness check dropped", "spectral.py",
     "if not np.isfinite(m).all():",
     "if False:",
     ["tests/test_spectral.py::TestEigSym::test_non_finite_entry_refused"]),
    ("tie tolerance", "spectral.py",
     "tied = np.flatnonzero(gaps <= tol)",
     "tied = np.flatnonzero(gaps < tol)",
     ["tests/test_spectral.py::TestGapRecords::test_ties_rejected"]),
    ("no tie below a nonzero gap", "spectral.py",
     "tied = np.flatnonzero(gaps <= tol)",
     "tied = np.flatnonzero(gaps <= 0)",
     ["tests/test_spectral.py::TestGapRecords::test_ties_rejected"]),
    ("tie scale doubled", "spectral.py",
     "tol = _rounding(ev)",
     "tol = 2 * _rounding(ev)",
     ["tests/test_spectral.py::TestGapRecords::test_ties_rejected"]),
    ("_rounding without the factor ev.size", "spectral.py",
     "np.finfo(float).eps * ev.size * np.abs(ev).max(initial=0.0)",
     "np.finfo(float).eps * np.abs(ev).max(initial=0.0)",
     ["tests/test_spectral.py::TestGapRecords::test_ties_rejected"]),
    # The one-thread pin of run() and validate() lives beside the library.
    ("BLAS pin keeps the count it read", "spectral.py",
     "lib.scipy_openblas_set_num_threads64_(1)",
     "lib.scipy_openblas_set_num_threads64_(before)",
     ["tests/test_experiments.py::TestBlasPin::test_pinned_for_the_call_and_restored[run]"]),
    ("BLAS pin never restores", "spectral.py",
     "        finally:\n            lib.scipy_openblas_set_num_threads64_(before)\n",
     "        finally:\n            pass\n",
     ["tests/test_experiments.py::TestBlasPin::test_pinned_for_the_call_and_restored[run]"]),
    ("BLAS pin without its lock", "spectral.py",
     "with _BLAS_PIN:",
     "if True:",
     ["tests/test_experiments.py::TestBlasPin::test_concurrent_calls_take_turns"]),
    ("residual abs", "estimators.py",
     "dots = np.abs(np.diagonal(v))",
     "dots = np.diagonal(v)",
     ["tests/test_estimators.py::TestBootstrap::test_diagonal_matches_h_exact"]),
    ("h_hat correction", "estimators.py",
     "if include_correction:",
     "if False:",
     ["tests/test_estimators.py::TestHHat::test_corrected_evaluation"]),
    ("seed keys", "wishart.py",
     "spawn_key=key)",
     "spawn_key=key[::-1])",
     ["tests/test_wishart.py::TestBartlettSampling::test_child_seed_composes"]),
    ("_agreed never raises", "hdensity.py",
     "    if failed:\n",
     "    if False:\n",
     ["tests/test_hdensity.py::TestFixedRule::test_fixed_rule_gate_is_relative"]),
    ("_density_at centre only", "experiments.py",
     '(("lambda0", lambda0), ("lambda", lambda0 - delta), ("lambda", lambda0 + delta))',
     '(("lambda0", lambda0),)',
     ["tests/test_experiments.py::TestCli::test_runtime_error_exit_two"]),
    ("_density_at without the lower end", "experiments.py",
     '("lambda", lambda0 - delta), ',
     "",
     ["tests/test_experiments.py::TestCli::test_runtime_error_exit_two"]),
    ("_density_at without the upper end", "experiments.py",
     ', ("lambda", lambda0 + delta))',
     ")",
     ["tests/test_experiments.py::TestValidate::test_window_outside_bulk_near_edge"]),
    # hhat-vs-h and bootstrap-vs-hhat take their records from the first
    # matrix alone: unchecked, a tie in a later one reaches the density.
    ("_first_matrix without checked_spectrum", "experiments.py",
     "spectra = np.array([checked_spectrum(ev) for ev in spectra])",
     "spectra = np.array(spectra)",
     ["tests/test_experiments.py::TestCli::test_later_disconnected_matrix_refused"]),
    ("tail reads delta", "experiments.py",
     'rho0 = _density_at(rho, "McKay", config.lambda0, 0.0)',
     'rho0 = _density_at(rho, "McKay", config.lambda0, config.delta)',
     ["tests/test_experiments.py::TestRunners::test_tail_ignores_delta"]),
    # A pool costs peak RSS and does no parallel work with one worker or one
    # unit: --threads 1 starts none, and neither does a one-unit stage.
    ("pool at width 1", "experiments.py",
     "if min(config.threads, count) <= 1:",
     "if count <= 1:",
     ["tests/test_experiments.py::TestRunners::test_pool_only_for_two_units"]),
    ("pool for one unit", "experiments.py",
     "if min(config.threads, count) <= 1:",
     "if config.threads <= 1:",
     ["tests/test_experiments.py::TestRunners::test_pool_only_for_two_units"]),
    ("pool seeds reversed", "experiments.py",
     "seeds = [child_seed(config.seed, stream, i) for i in range(count)]",
     "seeds = [child_seed(config.seed, stream, i) for i in range(count)][::-1]",
     ["tests/test_experiments.py::TestRunners::test_rows_belong_to_their_index"]),
    ("sampler block one short", "hdensity.py",
     "r, theta = sm[start:start + _MC_BLOCK], sp[start:start + _MC_BLOCK]",
     "r, theta = sm[start:start + _MC_BLOCK - 1], sp[start:start + _MC_BLOCK - 1]",
     ["tests/test_hdensity.py::TestSampler::test_blocked_equals_whole_array[unit-8192]"]),
    # The float path's x_eq must round as the array path's _root does.
    ("float x_eq under one sqrt", "hdensity.py",
     "v + math.sqrt(v) * math.sqrt(v + 2.0)",
     "v + math.sqrt(v * (v + 2.0))",
     ["tests/test_hdensity.py::TestFixedRule::test_array_equals_scalar"]),
    ("float h check skipped", "hdensity.py",
     "        if not 0 < h < math.inf:\n            raise",
     "        if False:\n            raise",
     ["tests/test_hdensity.py::TestFixedRule::test_array_with_nonpositive_raises"]),
    ("float h below the cut not clamped", "hdensity.py",
     "v = h_unit / max(h, h_cut)",
     "v = h_unit / h",
     ["tests/test_hdensity.py::TestFixedRule::test_far_below_support_is_exactly_zero"]),
    # All the uniforms drawn first, then the gammas: another stream order.
    ("sampler draws its uniforms before its gammas", "hdensity.py",
     "    sm = rng.standard_gamma(2.5, size)\n"
     "    sp = np.empty(size)\n"
     "    sin_theta = np.empty(min(size, _MC_BLOCK))\n"
     "    rate = 3.0 * gauss_rate(params.a)\n"
     "    for start in range(0, size, _MC_BLOCK):\n"
     "        r, theta = sm[start:start + _MC_BLOCK], sp[start:start + _MC_BLOCK]\n"
     "        sin_t = sin_theta[:r.size]\n"
     "        np.multiply(2.0, np.sqrt(np.divide(r, rate, out=r), out=r), out=r)\n"
     "        rng.random(out=theta)\n",
     "    sp = rng.random(size)\n"
     "    sm = rng.standard_gamma(2.5, size)\n"
     "    sin_theta = np.empty(min(size, _MC_BLOCK))\n"
     "    rate = 3.0 * gauss_rate(params.a)\n"
     "    for start in range(0, size, _MC_BLOCK):\n"
     "        r, theta = sm[start:start + _MC_BLOCK], sp[start:start + _MC_BLOCK]\n"
     "        sin_t = sin_theta[:r.size]\n"
     "        np.multiply(2.0, np.sqrt(np.divide(r, rate, out=r), out=r), out=r)\n",
     ["tests/test_hdensity.py::TestSampler::test_blocked_equals_whole_array"]),
    ("sampler returns s+ as s-", "hdensity.py",
     "    return sm, sp\n",
     "    return sp, sm\n",
     ["tests/test_hdensity.py::TestSampler::test_blocked_equals_whole_array"]),
    # f_H x (1 + 0.05 u / (u + 1000)): 5% more tail past u ~ 1000, which the 9
    # acceptance criteria all pass; the closed-form tail law rejects it.
    ("f_H 5% tail", "hdensity.py",
     "    return _half_arc_rule(h, params, terms) / _h_unit(params)\n",
     "    u = np.asarray(h, dtype=float) / _h_unit(params)\n"
     "    return _half_arc_rule(h, params, terms) / _h_unit(params) * (1.0 + 0.05 * u / (u + 1000.0))\n",
     ["tests/test_hdensity.py::TestTailLaw"]),
]


def run_mutant(file, old, new, killers):
    """'killed', 'survived', or why the row could not be judged."""
    with tempfile.TemporaryDirectory(prefix="eigerr-mutant-") as tmp:
        tmp = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, tmp / tree, ignore=skip)
        for name in ("pyproject.toml", "README.md"):
            shutil.copy2(ROOT / name, tmp)
        target = tmp / "src" / "eigerr" / file
        text = target.read_text()
        if text.count(old) != 1:
            return f"refused: old text found {text.count(old)} times in {file}"
        target.write_text(text.replace(old, new))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *killers],
            cwd=tmp, env={**os.environ, "PYTHONPATH": str(tmp / "src")},
            capture_output=True, text=True)
    if done.returncode == 1:
        return "killed"
    if done.returncode == 0:
        return "survived"
    return f"pytest exited {done.returncode}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}"


def main():
    bad = []
    for name, file, old, new, killers in MUTANTS:
        start = time.perf_counter()
        outcome = run_mutant(file, old, new, killers)
        print(f"{time.perf_counter() - start:6.1f} s  {name}: {outcome}", flush=True)
        if outcome != "killed":
            bad.append(name)
    if bad:
        print(f"{len(bad)} of {len(MUTANTS)} mutants not killed: {', '.join(bad)}")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
