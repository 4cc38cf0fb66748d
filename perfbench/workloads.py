"""Experiment lists of the benchmark workloads, derived from the seed.

Every list is a list of plain config dicts, as they would appear in a
`su2kam run --config` file, without the output paths; the runner adds
`report_path` and `csv_path` per experiment.  This module imports only the
standard library, so generating the lists is part of the measured set-up
but never imports the package under test.
"""

from __future__ import annotations

import math
import random

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SQRT2 = math.sqrt(2.0) - 1.0

DEFAULT_SEED = 5

# exp-2d always runs these config seeds; see `exp_2d`.
EXP_2D_SEEDS = (5, 6, 7)


def _sweep_config(seed: int, theta: float) -> dict:
    return {
        "frequency": {"preset": "golden"},
        "theta": theta,
        "chain": [{"kind": "torus", "winding": [3]},
                  {"kind": "exp", "band": 3, "amplitude": 1e-3}],
        "perturbation": {"band": 4, "amplitude": 1e-4},
        "seed": seed,
    }


def _two_freq_config(seed: int, exp_factor: bool = False,
                     stop_tolerance: float = None, horizon: int = 60) -> dict:
    """The config of `test_run_experiment_two_dimensional`, optionally with
    an exp factor, another stop tolerance or another Diophantine horizon."""
    chain = [{"kind": "torus", "winding": [1, 1]}]
    if exp_factor:
        chain.append({"kind": "exp", "band": 3, "amplitude": 1e-3})
    scheme = {"n0": 4, "max_steps": 8}
    if stop_tolerance is not None:
        scheme["stop_tolerance"] = stop_tolerance
    return {
        "frequency": {"value": [GOLDEN, SQRT2]},
        "theta": 0.1,
        "chain": chain,
        "perturbation": {"band": 2, "amplitude": 1e-5},
        "scheme": scheme,
        "dioph": {"gamma": 32.0, "tau": 3.0, "horizon": horizon},
        "seed": seed,
    }


def sweep_1d(seed: int) -> list:
    """32 config seeds x 2 thetas: 0.17, and a theta within 1e-6 of
    2 alpha mod 1, whose constant is resonant at step 0."""
    rng = random.Random(seed)
    resonant = (2.0 * GOLDEN) % 1.0
    out = []
    for i in range(32):
        out.append(_sweep_config(seed + i, 0.17))
        out.append(_sweep_config(seed + i, resonant + rng.uniform(-1e-6, 1e-6)))
    return out


def two_freq_2d(seed: int) -> list:
    return [_two_freq_config(seed + i) for i in range(3)]


def exp_2d(seed: int) -> list:
    """stop_tolerance in {1e-12, 1e-13} x the three config seeds 5, 6, 7.

    The list does not depend on `seed`.  At 1e-13 the outcome flips with
    the config seed (26 of seeds 0-29 diverge at the round-off floor, and
    seeds 16 and 23 run a fifth step for about 35 s before diverging), so
    a seed-drawn list would make goodput and run length measure the seed,
    not the code.  Seeds 5 and 6 diverge and stay in the list.
    """
    del seed
    return [_two_freq_config(s, exp_factor=True, stop_tolerance=tol, horizon=15)
            for s in EXP_2D_SEEDS for tol in (1e-12, 1e-13)]


WORKLOADS = {"sweep-1d": sweep_1d, "two-freq-2d": two_freq_2d, "exp-2d": exp_2d}

# Nominal seconds of one pass over the list, checks included, on a 2-core
# x86-64 VM.  A run makes round(seconds / PASS_SECONDS) passes, at least
# one, so every run of a workload does the same work at any host speed: the
# sample count, and with it the tail percentile, stays fixed.
PASS_SECONDS = {"sweep-1d": 1.3, "two-freq-2d": 4.0, "exp-2d": 15.0}

# Leading experiments taken by the memory pass: one per variant of the list
# (theta for sweep-1d, stop tolerance for exp-2d).
MEMORY_SPAN = {"sweep-1d": 2, "two-freq-2d": 1, "exp-2d": 2}


def warmup_config(workload: str) -> dict:
    """A small experiment in the workload's dimension that runs every stage
    of the pipeline once, so lazy set-up is done before timing starts."""
    if workload == "sweep-1d":
        return _sweep_config(0, 0.17)
    cfg = _two_freq_config(0, exp_factor=(workload == "exp-2d"), horizon=6)
    cfg["scheme"]["stop_tolerance"] = 1e-8
    cfg["equivalence_horizon"] = 8
    return cfg
