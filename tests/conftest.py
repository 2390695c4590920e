import numpy as np
import pytest

from eigerr import laplacian, sample_regular_graph
from eigerr.wishart import child_seed

ENSEMBLE_SEED = 20240
ENSEMBLE_P = 1000
ENSEMBLE_K = 20
ENSEMBLE_M = 50


@pytest.fixture(scope="session")
def bulk_spectra():
    """(50, 1000) Laplacian spectra of 20-regular graphs, one row per graph (built once, ~5 s).

    Each dense Laplacian is dropped once its eigensolve is done: every user
    reads eigenvalues alone.
    """
    return np.array([
        laplacian(sample_regular_graph(ENSEMBLE_P, ENSEMBLE_K, child_seed(ENSEMBLE_SEED, 0, m)))
        .eigenvalues for m in range(ENSEMBLE_M)])


@pytest.fixture(scope="session")
def bulk_gap_records(bulk_spectra):
    """Pooled two-sided gap records near lambda0=20 with delta=1."""
    from eigerr import GapRecords, extract_gap_records

    records = [extract_gap_records(ev, 20.0, 1.0) for ev in bulk_spectra]
    return GapRecords(*map(np.concatenate, zip(*records)))


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
