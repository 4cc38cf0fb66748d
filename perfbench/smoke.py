#!/usr/bin/env python3
"""Smoke check of the benchmark itself on shortened experiment lists.

    python3 perfbench/smoke.py

Runs every workload with `--limit 1 --seconds 1`, untraced and traced, and
checks that the last line is the result object with exactly the metrics
BENCHMARK.json names and correct outputs.  Then runs the benchmark in a
directory that holds only BENCHMARK.json and perfbench/, where it must exit
with a nonzero code and print no result.  Takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out" / "smoke"


def run(cwd, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--limit", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            before = len(failures)
            proc = run(ROOT, workload, trace)
            label = "%s trace=%d" % (workload, trace)
            if proc.returncode != 0:
                failures.append("%s: exit %d: %s" % (label, proc.returncode, proc.stderr[-500:]))
                print("FAIL", label, flush=True)
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append("%s: result keys %s" % (label, sorted(result)))
            if result["correct"] is not True or result["attempted"] < 1:
                failures.append("%s: correct=%r attempted=%r" % (
                    label, result["correct"], result["attempted"]))
            names = set(result["metrics"])
            if names != expected[trace]:
                failures.append("%s: missing %s, unexpected %s" % (
                    label, sorted(expected[trace] - names), sorted(names - expected[trace])))
            print("ok" if len(failures) == before else "FAIL", label, flush=True)

    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
    shutil.copytree(HERE, SCRATCH / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(SCRATCH, spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("without src/: exit %d, stdout %r" % (proc.returncode, proc.stdout[-200:]))
    shutil.rmtree(SCRATCH)

    for failure in failures:
        print("FAIL", failure)
    print("smoke: %s" % ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
