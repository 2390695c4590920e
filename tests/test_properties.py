"""Property tests: array routes against per-element scalar oracles."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eigerr import (
    extract_gap_records,
    h_exact,
    h_exact_all,
    regime_violation,
    sample_size_bound,
)

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
@given(ev=positive_spectra, chunk=st.integers(1, 64))
def test_h_exact_all_matches_h_exact(ev, chunk):
    expected = [h_exact(ev, i) for i in range(1, len(ev) + 1)]
    np.testing.assert_allclose(h_exact_all(ev, chunk=chunk), expected, rtol=1e-12, atol=0.0)
