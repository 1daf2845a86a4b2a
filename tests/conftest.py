import os

# one BLAS thread for the whole suite, set before anything imports numpy:
# OpenBLAS's own pool makes the dense-oracle SVDs many times slower whenever
# other processes compete for the cores
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import json
import pathlib

import pytest

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def pinned():
    """Seeds and residual bounds shared across the oracle-facing suites."""
    with open(FIXTURES / "oracle_seeds.json", "r", encoding="utf-8") as fh:
        return json.load(fh)
