"""The benchmark must still run against the package as it is.

`perfbench/tracer.py` locates its targets by module and attribute name and
silently skips a name that no longer exists, so a rename would drop a
per-layer metric without any error.  One test imports the tracer as it is
and checks that every target binds; another runs one shortened benchmark
pass of each workload and checks its verdict and metric names, never its
timings.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import su2kam.cli  # noqa: F401  (imports every module the tracer wraps)

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_binds():
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        bound = set(tracer.calls)
    finally:
        tracer.uninstall()
    names = [metric for metric, _module, _path in tracer_module.TARGETS]
    assert len(names) == 25
    assert [name for name in names if name not in bound] == []


@pytest.mark.parametrize("workload", ["sweep-1d", "two-freq-2d", "exp-2d"])
def test_benchmark_smoke_run_is_correct(workload):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "1", "--limit", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
