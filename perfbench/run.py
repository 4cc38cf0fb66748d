#!/usr/bin/env python3
"""Benchmark of the su2kam experiment pipeline, end to end and per layer.

    python3 perfbench/run.py --workload sweep-1d --seed 5 --seconds 20 --trace 0

Runs the workload's experiment list through `su2kam.cli.run_experiment`,
one experiment at a time from one process (a closed loop with one caller),
each writing its report.json and diag.csv as `su2kam run` does.  Every
experiment's outputs are checked outside the timed region.  The last line
of standard output is one JSON object: with `--trace 0` it holds the
end-to-end metrics, with `--trace 1` the per-layer metrics of a traced pass.
Times are scaled to the reference host's speed by a reference kernel timed
between experiments (calibrate.py); the log prints raw times beside them.
The package is imported from `src/` next to this directory; without it the
benchmark exits with code 2.  See perfbench/README.md.
"""

import os

# Pinned before numpy is imported, here and in the set-up probes.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import statistics
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from time import perf_counter

import calibrate
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = Path(".perfbench_out")  # relative to ROOT, the working directory

CSV_HEADER = "n,N,resonant,k,F_H0,F_H1,Hprefix_Hneg"
SETUP_PROBES = 4    # set-up samples in fresh processes, besides this one
TAIL_BEYOND = 10    # samples required above the tail percentile
REFERENCE_SHARE = 0.05  # reference-kernel time per second of experiments


def import_cli():
    """Import su2kam.cli from SRC, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import su2kam.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "su2kam":
        raise ImportError("su2kam imported from %s, not %s" % (cli.__file__, SRC))
    return cli


def experiment_list(workload: str, seed: int) -> list:
    """The workload's configs, each with its own report and CSV paths."""
    configs = workloads.WORKLOADS[workload](seed)
    for i, cfg in enumerate(configs):
        folder = OUT / workload / ("%03d" % i)
        folder.mkdir(parents=True, exist_ok=True)
        cfg["report_path"] = str(folder / "report.json")
        cfg["csv_path"] = str(folder / "diag.csv")
    return configs


def set_up(workload: str, seed: int):
    """Import, list generation and warm-up; returns (cli, configs, seconds)."""
    start = perf_counter()
    cli = import_cli()
    configs = experiment_list(workload, seed)
    warm = workloads.warmup_config(workload)
    folder = OUT / workload / "warmup"
    folder.mkdir(parents=True, exist_ok=True)
    warm["report_path"] = str(folder / "report.json")
    warm["csv_path"] = str(folder / "diag.csv")
    _report, code = cli.run_experiment(cli.ExperimentConfig.from_dict(warm))
    if code != cli.EXIT_OK:
        raise RuntimeError("warm-up experiment exited with code %d" % code)
    return cli, configs, perf_counter() - start


def probe_set_up(workload: str, seed: int) -> float:
    """Set-up time of a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Run:
    """Runs experiments, checks their outputs and keeps the outcomes."""

    def __init__(self, cli, workload, configs):
        self.cli = cli
        self.workload = workload
        self.configs = configs
        self.digests = {}       # experiment index -> report SHA-256
        self.problems = []      # failed output checks: the run is incorrect
        self.printed = set()
        self.tracer = None

    def experiment(self, index: int):
        """Run one experiment; returns (outcome, wall seconds)."""
        cli = self.cli
        cfg_dict = self.configs[index]
        report_path, csv_path = Path(cfg_dict["report_path"]), Path(cfg_dict["csv_path"])
        report_path.unlink(missing_ok=True)
        csv_path.unlink(missing_ok=True)
        cfg = cli.ExperimentConfig.from_dict(cfg_dict)
        report, code, error = None, None, None
        start = perf_counter()
        try:
            report, code = cli.run_experiment(cfg)
        except cli.SchemeError as exc:
            code, error = cli.EXIT_SCHEME, exc
        except cli.UnresolvedRotation as exc:
            code, error = cli.EXIT_ROTATION, exc
        except Exception as exc:  # any other crash is an outcome to count
            code, error = -1, exc
        wall = perf_counter() - start

        if code == cli.EXIT_OK:
            outcome = self.check(index, report, report_path, csv_path)
        else:
            outcome = {cli.EXIT_TRUTH_MISMATCH: "truth_mismatch",
                       cli.EXIT_SCHEME: "scheme_error",
                       cli.EXIT_ROTATION: "unresolved_rotation"}.get(code, "exception")
        if self.tracer is not None:
            self.tracer.count_output(report_path, csv_path)
        if index not in self.printed:
            self.printed.add(index)
            self.describe(index, outcome, code, wall, report, error)
        return outcome, wall

    def check(self, index, report, report_path, csv_path) -> str:
        """Output checks of an experiment that exited 0; 'ok' or 'check_failed'."""
        found = []
        steps = None
        try:
            nf = report["normal_form"]
            steps = nf["steps"]
            if not nf["converged"]:
                found.append("not converged")
            if not nf["final_residual_h0"] <= report["thresholds"]["stop_tolerance"]:
                found.append("final residual above stop_tolerance")
            if not report["truth_comparison"]["equivalent"]:
                found.append("not equivalent to the ground truth")
        except (KeyError, TypeError) as exc:
            found.append("report lacks %s" % exc)
        try:
            rows = csv_path.read_text().splitlines()
            data = report_path.read_bytes()
        except OSError as exc:
            found.append("output missing: %s" % exc)
        else:
            if not rows or rows[0] != CSV_HEADER:
                found.append("CSV header %r" % (rows[:1],))
            if steps is not None and len(rows) - 1 != steps + 1:
                found.append("CSV has %d rows for %d steps" % (len(rows) - 1, steps))
            digest = hashlib.sha256(data).hexdigest()
            if self.digests.setdefault(index, digest) != digest:
                found.append("report bytes differ from an earlier repeat")
        for problem in found:
            self.problems.append("experiment %d: %s" % (index, problem))
        return "check_failed" if found else "ok"

    def describe(self, index, outcome, code, wall, report, error) -> None:
        cfg = self.configs[index]
        line = "exp %03d seed=%d theta=%.9g tol=%s outcome=%s code=%d wall_s=%.4f" % (
            index, cfg["seed"], cfg["theta"],
            cfg.get("scheme", {}).get("stop_tolerance", "default"), outcome, code, wall)
        if index in self.digests:
            line += " sha256=%s" % self.digests[index]
        if report is not None and "classification" in report:
            line += " rho=%r class=%s" % (report["rotation"]["representative"],
                                          report["classification"]["classification"])
        if error is not None:
            line += " error=%r" % ("%s: %s" % (type(error).__name__, error))[:160]
        print(line, flush=True)

    def passes(self, count: int):
        """`count` whole passes over the list.  Returns [(outcome, wall)] and
        the host factor, from reference-kernel samples taken between
        experiments: one at the start, then about REFERENCE_SHARE of the
        experiment time."""
        nominal = calibrate.KERNELS[self.workload][1]
        samples, reference = [], [calibrate.sample(self.workload)]
        owed = 0.0
        for pass_index in range(count):
            for index in range(len(self.configs)):
                if self.tracer is not None:
                    self.tracer.pass_index = pass_index
                    self.tracer.experiment = "%d/%03d" % (pass_index, index)
                outcome, wall = self.experiment(index)
                samples.append((outcome, wall))
                owed += REFERENCE_SHARE * wall / nominal
                while owed >= 1.0:
                    reference.append(calibrate.sample(self.workload))
                    owed -= 1.0
        return samples, calibrate.host_factor(self.workload, reference), len(reference)

    def memory_peak(self, span: int) -> float:
        """Largest tracemalloc peak of one experiment among the first `span`,
        in MiB.  Kept out of the timed pass: tracing allocations slows the
        pure-Python scans several times over."""
        peak = 0
        tracemalloc.start()
        try:
            for index in range(min(span, len(self.configs))):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                self.experiment(index)
                peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        return peak / 2**20


def tail(values):
    """(value, percentile, count): the highest whole percentile with at
    least TAIL_BEYOND samples above it, by nearest rank.  With too few
    samples for any percentile the maximum stands in, labelled p100."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return (xs[-1] if xs else math.nan), 100, n
    p = 100 * (n - TAIL_BEYOND) // n
    rank = max(1, math.ceil(p * n / 100))
    return xs[rank - 1], p, n


def host_facts(workload: str, seed: int) -> dict:
    import numpy

    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / workloads.PASS_SECONDS[workload]))


def end_to_end(run: Run, args, own_setup: float) -> tuple:
    setups = [own_setup] + [probe_set_up(args.workload, args.seed)
                            for _ in range(SETUP_PROBES)]
    samples, factor, references = run.passes(pass_count(args.workload, args.seconds))
    memory_start = perf_counter()
    peak = run.memory_peak(workloads.MEMORY_SPAN[args.workload])
    memory_s = perf_counter() - memory_start

    walls = [wall for outcome, wall in samples if outcome == "ok"]
    failures = Counter(outcome for outcome, _ in samples if outcome != "ok")
    attempted = len(samples)
    failed = sum(failures.values())
    tail_s, tail_p, tail_n = tail(walls)
    raw = {
        "experiments_per_s": len(walls) / sum(wall for _, wall in samples),
        "experiment_p50_s": statistics.median(walls) if walls else math.nan,
        "experiment_tail_s": tail_s,
        "setup_s": statistics.median(setups),
    }
    metrics = {
        "experiments_per_s": (raw["experiments_per_s"] * factor, "1/s"),
        "experiment_p50_s": (raw["experiment_p50_s"] / factor, "s"),
        "experiment_tail_s": (raw["experiment_tail_s"] / factor, "s"),
        "peak_mib": (peak, "MiB"),
        "setup_s": (raw["setup_s"] / factor, "s"),
    }
    notes = {name: "raw %.6g" % value for name, value in raw.items()}
    notes["experiment_tail_s"] += "; p%d of %d verified samples" % (tail_p, tail_n)
    notes["setup_s"] += "; median of %d set-ups: %s" % (
        len(setups), " ".join("%.3f" % s for s in setups))
    notes["peak_mib"] = "first %d experiments, own pass of %.1f s" % (
        workloads.MEMORY_SPAN[args.workload], memory_s)
    notes["host_factor"] = "%.4f from %d reference-kernel samples" % (factor, references)
    print("metric failed_share %.4f ratio (%d of %d attempted; %s)" % (
        failed / attempted, failed, attempted,
        ", ".join("%s=%d" % kv for kv in sorted(failures.items())) or "none"))
    return metrics, notes, attempted, failed


def per_layer(run: Run, args) -> tuple:
    passes = pass_count(args.workload, args.seconds / 2.0)
    base, base_factor, _ = run.passes(passes)
    tracer = Tracer()
    run.tracer = tracer
    tracer.install()
    try:
        samples, factor, _ = run.passes(passes)
    finally:
        tracer.uninstall()
        run.tracer = None
    metrics = tracer.metrics(passes, factor)
    # each phase's pass time at reference speed
    untraced = sum(wall for _, wall in base) / passes / base_factor
    traced = sum(wall for _, wall in samples) / passes / factor
    metrics["bench.trace_overhead"] = (traced / untraced - 1.0, "ratio")
    spans_path = OUT / args.workload / ("spans-seed%d.jsonl" % args.seed)
    written = tracer.write_spans(spans_path)
    notes = {"bench.trace_overhead": "pass %.3f s traced vs %.3f s untraced, at reference speed"
                                     % (traced, untraced),
             "host_factor": "%.4f over the traced passes" % factor,
             "spans": "%d spans of %d passes in %s" % (written, passes, spans_path)}
    failed = sum(1 for outcome, _ in samples if outcome != "ok")
    return metrics, notes, len(samples), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="nominal measured time; fixes the number of passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, default=None,
                        help="run only the first LIMIT experiments (smoke checks)")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "su2kam" / "__init__.py").is_file():
        print("perfbench: no package source at %s" % SRC, file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.probe_setup:
        _cli, _configs, seconds = set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0

    cli, configs, own_setup = set_up(args.workload, args.seed)
    if args.limit is not None:
        configs = configs[:args.limit]
    facts = host_facts(args.workload, args.seed)
    print("host " + " ".join("%s=%s" % kv for kv in sorted(facts.items())), flush=True)
    print("workload %s: %d experiments" % (args.workload, len(configs)))

    run = Run(cli, args.workload, configs)
    if args.trace:
        metrics, notes, attempted, failed = per_layer(run, args)
    else:
        metrics, notes, attempted, failed = end_to_end(run, args, own_setup)

    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print("metric %s %.6g %s%s" % (name, value, unit, " (%s)" % note if note else ""))
    for name in sorted(set(notes) - set(metrics)):
        print("note %s: %s" % (name, notes[name]))
    for problem in run.problems:
        print("check failed: %s" % problem)

    print(json.dumps({"correct": not run.problems, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
