#!/usr/bin/env python3
"""Paired timing of two checkouts on the same experiments, in lockstep.

    python3 tools/lockstep.py OLD NEW --workload W [--rounds R]

OLD and NEW are checkouts of this repository.  One worker process per
checkout imports the package from its `src/` and warms up on the
workload's first two experiments.  Round i then times experiment i (mod the
workload's length) on both workers, one after the other, in an order drawn
at random (from a fixed seed), so both sides see the same host state.  A worker times
`cli.run_experiment` alone, as perfbench does, writing the report and CSV
to a temporary directory.

The workloads are those of `same_results.py`: `sweep-1d`, `two-freq-2d`,
`exp-2d` (the benchmark's experiments at its default seed) and `3d` (the
3D configs, at 1e-12, at 1e-13 and the resonant twin).  The tool prints the
median ratio NEW/OLD of the paired times, its 5-95% range by nearest rank,
the count of rounds where NEW was faster, the two-sided sign-test p-value
of that count (ties left out), and the count of rounds whose two reports
differ; its last line is the same as one JSON object.  An A/A run, a
checkout against itself, reads a median near 1 and a large p.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import same_results

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
WARM_UP = 2  # experiments each worker runs before the first round
ORDER_SEED = 0


def experiments(workload: str) -> list:
    """The workload's configs in their fixed order, without the warm-up."""
    return [cfg for name, cfg in same_results.configs()
            if name.startswith(workload + "/") and not name.endswith("/warmup")]


def nearest_rank(sorted_values: list, percent: float) -> float:
    """The percentile of sorted values by nearest rank."""
    return sorted_values[max(0, math.ceil(percent / 100.0 * len(sorted_values)) - 1)]


def sign_test(faster: int, slower: int) -> float:
    """Two-sided p-value of `faster` wins against `slower` losses when each
    side is as likely to win."""
    n = faster + slower
    tail = sum(math.comb(n, i) for i in range(min(faster, slower) + 1))
    return min(1.0, 2.0 * tail / 2.0 ** n)


def summary(old: list, new: list) -> dict:
    """Statistics of the paired times old[i], new[i]."""
    ratios = sorted(b / a for a, b in zip(old, new))
    faster = sum(b < a for a, b in zip(old, new))
    slower = sum(b > a for a, b in zip(old, new))
    return {"rounds": len(ratios), "median_ratio": statistics.median(ratios),
            "ratio_p5": nearest_rank(ratios, 5), "ratio_p95": nearest_rank(ratios, 95),
            "new_faster": faster, "sign_test_p": sign_test(faster, slower)}


def worker(checkout: str) -> int:
    """Read one config per line, run it, answer with its time and digest."""
    sys.path.insert(0, str(Path(checkout).resolve() / "src"))
    from su2kam import cli

    answer = sys.stdout
    with tempfile.TemporaryDirectory() as folder, same_results._chdir(folder), \
            contextlib.redirect_stdout(sys.stderr):
        for line in sys.stdin:
            cfg = cli.ExperimentConfig.from_dict(
                json.loads(line) | {"report_path": "report.json", "csv_path": "diag.csv"})
            start = perf_counter()
            try:
                _report, code = cli.run_experiment(cfg)
            except Exception:  # a crash is an outcome, compared like an exit code
                traceback.print_exc()
                code = -1
            seconds = perf_counter() - start
            answer.write(json.dumps({"seconds": seconds, "exit": code,
                                     "report": same_results._sha256("report.json")}) + "\n")
            answer.flush()
    return 0


class Worker:
    """A worker process on one checkout."""

    def __init__(self, checkout: str):
        env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--worker", checkout],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)

    def run(self, cfg: dict) -> dict:
        self.proc.stdin.write(json.dumps(cfg) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("a worker exited with code %s" % self.proc.wait())
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def lockstep(old: str, new: str, workload: str, rounds: int) -> dict:
    configs = experiments(workload)
    if not configs:
        raise ValueError("no experiments for workload %r" % workload)
    order = random.Random(ORDER_SEED)
    workers = {"old": Worker(old), "new": Worker(new)}
    times = {"old": [], "new": []}
    differ = 0
    try:
        for cfg in configs[:WARM_UP]:
            for side in workers.values():
                side.run(cfg)
        for i in range(rounds):
            cfg = configs[i % len(configs)]
            sides = sorted(workers)
            order.shuffle(sides)
            results = {side: workers[side].run(cfg) for side in sides}
            for side, result in results.items():
                times[side].append(result["seconds"])
            differ += ({k: results["old"][k] for k in ("exit", "report")}
                       != {k: results["new"][k] for k in ("exit", "report")})
    finally:
        for side in workers.values():
            side.close()
    return {"workload": workload, **summary(times["old"], times["new"]),
            "reports_differ": differ}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("old", nargs="?")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--workload", choices=("sweep-1d", "two-freq-2d", "exp-2d", "3d"))
    parser.add_argument("--rounds", type=int, default=40)
    args = parser.parse_args(argv)
    if args.worker:
        return worker(args.worker)
    if not (args.old and args.new and args.workload) or args.rounds < 1:
        parser.error("OLD, NEW, --workload and a positive --rounds are required")
    result = lockstep(args.old, args.new, args.workload, args.rounds)
    print("%s: %d rounds, NEW/OLD median %.3f (5-95%% %.3f-%.3f), NEW faster in %d, "
          "sign test p %.3g, reports differ in %d"
          % (result["workload"], result["rounds"], result["median_ratio"],
             result["ratio_p5"], result["ratio_p95"], result["new_faster"],
             result["sign_test_p"], result["reports_differ"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
