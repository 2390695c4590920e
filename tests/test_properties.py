"""Property tests: array routes against per-element scalar oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eigerr import (
    HDensityParams,
    SpectralDensity,
    bootstrap_error,
    estimate_density,
    extract_gap_records,
    h_exact_all,
    mckay_density,
    regime_violation,
    sample_joint_gaps,
    sample_regular_graph,
    sample_size_bound,
    sample_wishart_scaled,
)
from eigerr.wishart import child_seed
from oracles import h_exact

# Fixed example sequence and no example database, so every run draws the same cases.
PROPERTY = settings(max_examples=200, derandomize=True, database=None, deadline=None)


def _beyond_rounding(ev):
    # The spectrum guard's accepting side: every gap above eps * p * max|lambda|.
    ev = np.array(ev)
    return bool((np.diff(ev) > np.finfo(float).eps * ev.size * np.abs(ev).max(initial=0.0)).all())


# Ascending simple spectra: distinct floats, sorted, no two within rounding.
spectra = st.lists(st.floats(-1e3, 1e3), max_size=40, unique=True).map(sorted).filter(
    _beyond_rounding)
positive_spectra = st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=40,
                            unique=True).map(sorted).filter(_beyond_rounding)


def _gap_rows(ev, lambda0, delta):
    # The per-index loop the column form replaces.
    rows = []
    for i in range(1, len(ev) - 1):
        if abs(ev[i] - lambda0) < delta:
            rows.append((i + 1, ev[i], ev[i] - ev[i - 1], ev[i + 1] - ev[i]))
    return rows


@PROPERTY
@given(ev=spectra, lambda0=st.floats(-1.2e3, 1.2e3),
       delta=st.floats(1e-6, 1e4) | st.just(np.inf))
@example(ev=[], lambda0=0.0, delta=1.0)
@example(ev=[1.0], lambda0=1.0, delta=np.inf)
@example(ev=[1.0, 2.0], lambda0=1.5, delta=np.inf)
@example(ev=[1.0, 2.0, 3.0], lambda0=10.0, delta=0.5)
def test_gap_records_match_per_index_loop(ev, lambda0, delta):
    recs = extract_gap_records(ev, lambda0, delta)
    assert list(zip(*recs)) == _gap_rows(ev, lambda0, delta)
    assert all(col.ndim == 1 and col.size == recs.index.size for col in recs)
    assert recs.index.dtype.kind == "i"


@PROPERTY
@given(ev=spectra.filter(len), at=st.integers(0, 40), lambda0=st.floats(-1.2e3, 1.2e3),
       delta=st.floats(1e-6, 1e4) | st.just(np.inf))
@example(ev=[0.0, 1.0, 3.0], at=2, lambda0=1.0, delta=5.0)
def test_gap_records_reject_nan(ev, at, lambda0, delta):
    # A NaN anywhere in a spectrum of two or more values has a NaN gap next to it.
    ev = list(ev)
    ev.insert(at % (len(ev) + 1), np.nan)
    with pytest.raises(ValueError, match="ascending"):
        extract_gap_records(ev, lambda0, delta)


@PROPERTY
@given(n=st.integers(1, 10 ** 12),
       h=st.lists(st.floats(-1e15, 1e15) | st.sampled_from([0.0, -0.0]), max_size=20))
@example(n=15, h=[30.0, 30.000000000000004, 29.999999999999996, 0.0, -0.0, -30.0])
def test_regime_violation_array_matches_scalar(n, h):
    flags = regime_violation(n, np.array(h))
    assert flags.dtype == bool and flags.shape == (len(h),)
    for x, flag in zip(h, flags):
        assert regime_violation(n, x) is bool(flag)
        assert bool(flag) == (x > 0 and n < sample_size_bound(x))


@PROPERTY
@given(ev=positive_spectra)
@example(ev=np.geomspace(1e-3, 1e3, 1000).tolist())  # crosses a row block boundary
def test_h_exact_all_matches_h_exact(ev):
    expected = [h_exact(ev, i) for i in range(1, len(ev) + 1)]
    np.testing.assert_allclose(h_exact_all(ev), expected, rtol=1e-12, atol=0.0)


def _swapped(ev, k):
    out = ev.copy()
    out[[k, k + 1]] = out[[k + 1, k]]
    return out


# Each turns an ascending simple spectrum ev (p >= 2) into one the gap
# statistics do not cover; ``at`` picks the place.
CORRUPTIONS = {
    "nan": lambda ev, at: np.insert(ev, at % (len(ev) + 1), np.nan),
    "inf": lambda ev, at: np.insert(ev, at % (len(ev) + 1), np.inf),
    "-inf": lambda ev, at: np.insert(ev, at % (len(ev) + 1), -np.inf),
    "duplicate": lambda ev, at: np.insert(ev, at % len(ev), ev[at % len(ev)]),
    # One ulp above a neighbour: a repeated eigenvalue that rounding split.
    "rounding": lambda ev, at: np.insert(ev, at % len(ev) + 1,
                                         np.nextafter(ev[at % len(ev)], np.inf)),
    "swap": lambda ev, at: _swapped(ev, at % (len(ev) - 1)),
    "2-D": lambda ev, at: ev.reshape((1, -1) if at % 2 else (-1, 1)),
}


def _gap_statistics(ev):
    # The four entry points that read a whole spectrum.
    return [lambda: extract_gap_records(ev, 0.0, np.inf), lambda: h_exact(ev, 1),
            lambda: h_exact_all(ev), lambda: bootstrap_error(ev, R=1, n=10 ** 6, seed=0)]


@PROPERTY
@given(ev=positive_spectra.filter(lambda ev: len(ev) >= 2),
       kind=st.sampled_from(sorted(CORRUPTIONS)), at=st.integers(0, 40))
@example(ev=[0.0, 1.0, 2.0], kind="inf", at=3)
@example(ev=[1.0, 2.0, 3.0], kind="duplicate", at=1)
@example(ev=[1.0, 2.0, 3.0], kind="rounding", at=1)
def test_one_spectrum_guard(ev, kind, at):
    ev = np.array(ev)
    for statistic in _gap_statistics(ev):
        statistic()
    messages = set()
    for statistic in _gap_statistics(CORRUPTIONS[kind](ev, at)):
        with pytest.raises(ValueError) as raised:
            statistic()
        messages.add(str(raised.value))
    assert len(messages) == 1


# One count argument of each function that takes counts, the others valid.
COUNTS = {
    "bootstrap_error R": lambda v: bootstrap_error([1.0, 2.0], R=v, n=10, seed=0),
    "bootstrap_error n": lambda v: bootstrap_error([1.0, 2.0], R=2, n=v, seed=0),
    "sample_wishart_scaled n": lambda v: sample_wishart_scaled(np.ones(2), v, 0),
    "sample_regular_graph p": lambda v: sample_regular_graph(v, 1, 0),
    "sample_regular_graph k": lambda v: sample_regular_graph(12, v, 0),
    "mckay_density k": lambda v: mckay_density(0.0, v),
    "SpectralDensity.mckay k": lambda v: SpectralDensity.mckay(v)(20.0),
    # A key counts from 0, so it is a non-negative integer, not a positive one.
    "child_seed key": lambda v: child_seed(5, 0, v),
}


@pytest.mark.parametrize("value", [1000.5, 10.7, 2.0, np.nan, np.inf, True], ids=str)
@pytest.mark.parametrize("count", COUNTS)
def test_one_count_rule(count, value):
    # A count that is not an integer is refused, never truncated: 2 runs, 2.0 does not.
    COUNTS[count](2)
    kind = "non-negative" if count == "child_seed key" else "positive"
    with pytest.raises(ValueError, match=f"must be a {kind} integer, not "):
        COUNTS[count](value)


# The seed argument of each seeded function, the others valid.
SEEDED = {
    "child_seed": lambda s: child_seed(s, 0),
    "bootstrap_error": lambda s: bootstrap_error([1.0, 2.0], R=2, n=10, seed=s),
    "sample_regular_graph": lambda s: sample_regular_graph(12, 2, s),
    "sample_wishart_scaled": lambda s: sample_wishart_scaled(np.ones(2), 10, s),
    "sample_joint_gaps": lambda s: sample_joint_gaps(HDensityParams(lam=2.0, p=4, rho=0.25), 10, s),
}


@pytest.mark.parametrize("seed", [True, np.True_, None], ids=["bool", "numpy-bool", "None"])
@pytest.mark.parametrize("seeded", SEEDED)
def test_one_seed_rule(seeded, seed):
    # True would run seed 1's stream, and None a fresh one on every call.
    SEEDED[seeded](5)
    with pytest.raises(ValueError, match="^master seed must be an int or a SeedSequence, not "):
        SEEDED[seeded](seed)


# Integer spectra: every gap is at least 1e-3 of the largest eigenvalue, so
# rounding c * lambda moves each term of h by well under 1e-12.
integer_spectra = st.lists(st.integers(1, 1000), max_size=40, unique=True).map(sorted)


@PROPERTY
@given(ev=integer_spectra, c=st.floats(1e-3, 1e3))
def test_h_invariant_under_scaling(ev, c):
    ev = np.array(ev, dtype=float)
    np.testing.assert_allclose(h_exact_all(c * ev), h_exact_all(ev), rtol=1e-12, atol=0.0)


# Eigenvalue pools on a lattice of step c, at least two distinct values in
# all: Freedman-Diaconis then gives at most a few thousand bins.
lattice_pools = st.lists(st.lists(st.integers(-1000, 1000), max_size=30), min_size=1,
                         max_size=4).filter(lambda pools: len(set(sum(pools, []))) >= 2)


@PROPERTY
@given(pools=lattice_pools, c=st.floats(1e-3, 1e3))
@example(pools=[[0, 0, 1, 1]], c=1.0)  # one bin: the width 1.26 is past the range
def test_histogram_density_support_is_the_pooled_range(pools, c):
    pools = [c * np.array(pool, dtype=float) for pool in pools]
    pooled = np.concatenate(pools)
    lo, hi = pooled.min(), pooled.max()
    d = estimate_density(pools)
    assert (d(pooled) > 0).all()
    assert d(np.nextafter(lo, -np.inf)) == 0.0
    assert d(np.nextafter(hi, np.inf)) == 0.0
    assert abs(np.sum(d.weights * np.diff(d.edges)) - 1.0) < 1e-12
