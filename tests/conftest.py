"""Test-session settings and fixtures shared by the test modules."""

import pytest
from hypothesis import settings

from seqrouter.tasks import data

# Derandomized: each property test draws the same examples on every run, so
# the suite passes or fails the same way each time. No example database, so
# a run leaves no state behind that could change the next one.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace multiprocessing.Pool with a fake that records its size and
    maps in this process, starting none; return the recorded sizes."""
    sizes = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, jobs):
            return [fn(job) for job in jobs]

    monkeypatch.setattr(data.multiprocessing, "Pool", RecordingPool)
    return sizes
