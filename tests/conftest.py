from hypothesis import settings

# every property test is reproducible: examples derive from the test itself,
# nothing is read from or saved to an example database, and no per-example
# deadline makes a slow machine fail a test
settings.register_profile("su2kam", derandomize=True, database=None, deadline=None)
settings.load_profile("su2kam")
