import sys
import tracemalloc

import pytest
from hypothesis import settings

import su2kam.cli  # noqa: F401  (imports every module of the package)

# every property test is reproducible: examples derive from the test itself,
# nothing is read from or saved to an example database, and no per-example
# deadline makes a slow machine fail a test
settings.register_profile("su2kam", derandomize=True, database=None, deadline=None)
settings.load_profile("su2kam")


def traced_peak(fn, *args):
    """fn(*args) and its tracemalloc peak above the traced memory at entry."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture
def memoised_tables():
    """Every per-process table cache of the package, once each."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("su2kam."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    found[id(value)] = value
    return list(found.values())


@pytest.fixture
def cold_tables(memoised_tables):
    """Clears every per-process table, so the test builds each one afresh."""
    for table in memoised_tables:
        table.cache_clear()
