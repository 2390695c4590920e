"""Property tests: array routes against per-element scalar oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eigerr import (
    bootstrap_error,
    extract_gap_records,
    h_exact_all,
    regime_violation,
    sample_size_bound,
)
from oracles import h_exact

# Fixed example sequence and no example database, so every run draws the same cases.
PROPERTY = settings(max_examples=200, derandomize=True, database=None, deadline=None)

# Ascending simple spectra: distinct floats, sorted.
spectra = st.lists(st.floats(-1e3, 1e3), max_size=40, unique=True).map(sorted)
positive_spectra = st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=40,
                            unique=True).map(sorted)


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
    "swap": lambda ev, at: _swapped(ev, at % (len(ev) - 1)),
    "2-D": lambda ev, at: ev.reshape((1, -1) if at % 2 else (-1, 1)),
}


def _gap_statistics(ev):
    # The four entry points that read a whole spectrum.
    return [lambda: extract_gap_records(ev, 0.0, np.inf), lambda: h_exact(ev, 1),
            lambda: h_exact_all(ev), lambda: bootstrap_error(ev, R=1, n=10 ** 6, seed=0)]


@PROPERTY
@given(ev=st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=40, unique=True).map(sorted),
       kind=st.sampled_from(sorted(CORRUPTIONS)), at=st.integers(0, 40))
@example(ev=[0.0, 1.0, 2.0], kind="inf", at=3)
@example(ev=[1.0, 2.0, 3.0], kind="duplicate", at=1)
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


# Integer spectra: every gap is at least 1e-3 of the largest eigenvalue, so
# rounding c * lambda moves each term of h by well under 1e-12.
integer_spectra = st.lists(st.integers(1, 1000), max_size=40, unique=True).map(sorted)


@PROPERTY
@given(ev=integer_spectra, c=st.floats(1e-3, 1e3))
def test_h_invariant_under_scaling(ev, c):
    ev = np.array(ev, dtype=float)
    np.testing.assert_allclose(h_exact_all(c * ev), h_exact_all(ev), rtol=1e-12, atol=0.0)
