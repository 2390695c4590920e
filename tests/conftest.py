import numpy as np
import pytest

from eigerr import laplacian, sample_regular_graph
from eigerr.wishart import child_seed

ENSEMBLE_SEED = 20240
ENSEMBLE_P = 1000
ENSEMBLE_K = 20
ENSEMBLE_M = 50


@pytest.fixture(scope="session")
def bulk_ensemble():
    """50 Laplacians of 20-regular graphs on 1000 vertices (built once, ~15 s)."""
    mats = []
    for m in range(ENSEMBLE_M):
        g = sample_regular_graph(ENSEMBLE_P, ENSEMBLE_K, child_seed(ENSEMBLE_SEED, 0, m))
        mats.append(laplacian(g))
    return mats


@pytest.fixture(scope="session")
def bulk_gap_records(bulk_ensemble):
    """Pooled two-sided gap records near lambda0=20 with delta=1."""
    from eigerr import GapRecords, extract_gap_records

    records = [extract_gap_records(mat.eigenvalues, 20.0, 1.0) for mat in bulk_ensemble]
    return GapRecords(*map(np.concatenate, zip(*records)))


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
