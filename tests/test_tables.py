"""The per-process tables: read-only, and invisible in the outputs.

The pure tables of a box, of a grid and of a frequency are memoised per
process with `functools.lru_cache`.  These tests check that no caller can
write to one, that a run's report and CSV do not depend on which tables the
runs before it left behind, and that the memoised Diophantine witness is the
record of a direct scan.
"""

import math

import pytest

from su2kam import arithmetic, fourier, kam
from su2kam.arithmetic import DiophParams, Frequency, diophantine_witness, least_winding
from su2kam.cli import EXIT_OK, ExperimentConfig, run_experiment

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SQRT2 = math.sqrt(2.0) - 1.0
PAIR = Frequency((GOLDEN, SQRT2))

# one key of each memoised table that holds arrays
ARRAY_TABLES = (
    (arithmetic.box_axes, (2, 3)),
    (arithmetic.box_shells, (2, 3)),
    (fourier._sobolev_weight, (2, 3, -5.0)),
    (fourier._half_index, (3, 16, 2)),
    (fourier._coset_tables, (8, -5.0, (1, 0))),
    (kam._divisor_tables, (PAIR, 3)),
)


def test_every_memoised_array_is_read_only(memoised_tables):
    # every table cache is listed above, but the witness's, which holds
    # frozen records
    listed = {id(table) for table, _args in ARRAY_TABLES} | {id(diophantine_witness)}
    assert {id(table) for table in memoised_tables} == listed
    for table, args in ARRAY_TABLES:
        entry = table(*args)
        assert table(*args) is entry
        for array in entry if isinstance(entry, tuple) else (entry,):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0


def _one_dimensional(preset, theta, seed):
    return {"frequency": {"preset": preset}, "theta": theta,
            "chain": [{"kind": "torus", "winding": [3]},
                      {"kind": "exp", "band": 3, "amplitude": 1e-3}],
            "perturbation": {"band": 4, "amplitude": 1e-4}, "seed": seed}


def _two_dimensional(seed, exp_factor=False):
    chain = [{"kind": "torus", "winding": [1, 1]}]
    if exp_factor:
        chain.append({"kind": "exp", "band": 3, "amplitude": 1e-3})
    return {"frequency": {"value": [GOLDEN, SQRT2]}, "theta": 0.1, "chain": chain,
            "perturbation": {"band": 2, "amplitude": 1e-5},
            "scheme": {"n0": 4, "max_steps": 8},
            "dioph": {"gamma": 32.0, "tau": 3.0, "horizon": 60}, "seed": seed}


# the two-frequency config of the benchmark, and a sweep config whose
# constant is resonant at step 0 (theta within 1e-6 of 2 alpha mod 1)
CONFIGS = {"two-freq-2d": _two_dimensional(5),
           "resonant-1d": _one_dimensional("golden", (2.0 * GOLDEN) % 1.0 + 4e-7, 9)}

# runs at other frequencies, bands and scales, which leave their own tables
OTHERS = (_one_dimensional("golden", 0.17, 3), _one_dimensional("sqrt2", 0.3, 4),
          _two_dimensional(6, exp_factor=True))


def _outputs(config, folder):
    """report.json and diag.csv of one run, written to the folder."""
    paths = {"report_path": str(folder / "report.json"), "csv_path": str(folder / "diag.csv")}
    _report, code = run_experiment(ExperimentConfig.from_dict(config | paths))
    assert code == EXIT_OK
    return (folder / "report.json").read_bytes(), (folder / "diag.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_do_not_depend_on_the_tables_left_behind(name, memoised_tables, tmp_path):
    config = CONFIGS[name]
    for table in memoised_tables:
        table.cache_clear()
    cold = _outputs(config, tmp_path)
    # the tables the other runs build first are the ones this run finds
    for table in memoised_tables:
        table.cache_clear()
    other = tmp_path / "other"
    other.mkdir()
    for other_config in OTHERS:
        _outputs(other_config, other)
    assert _outputs(config, tmp_path) == cold


# 1D at the configs' default constants, where both frequencies pass, and the
# 2D pair at the two-frequency horizon, where gamma 3 finds a witness and
# gamma 32 does not
WITNESS_CASES = ((Frequency((GOLDEN,)), DiophParams(3.0, 2.0, 10000)),
                 (Frequency((SQRT2,)), DiophParams(3.0, 2.0, 10000)),
                 (PAIR, DiophParams(3.0, 3.0, 60)),
                 (PAIR, DiophParams(32.0, 3.0, 60)))


def test_memoised_witness_is_the_record_of_a_direct_scan(cold_tables):
    direct = [least_winding(alpha, p.horizon, bound=p.bound, canonical=True)
              for alpha, p in WITNESS_CASES]
    assert [record is None for record in direct] == [True, True, False, True]
    first = [diophantine_witness(alpha, p) for alpha, p in WITNESS_CASES]
    assert first == direct
    hits = diophantine_witness.cache_info().hits
    again = [diophantine_witness(alpha, p) for alpha, p in WITNESS_CASES]
    assert all(a is b for a, b in zip(again, first))
    assert diophantine_witness.cache_info().hits == hits + len(WITNESS_CASES)
