"""tools/lockstep.py: its statistics on fixed inputs, and an A/A run of one
experiment per side.  No timing is asserted."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "lockstep.py"


def _tool():
    sys.path.insert(0, str(TOOL.parent))  # lockstep imports same_results
    try:
        spec = importlib.util.spec_from_file_location("lockstep", TOOL)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path.remove(str(TOOL.parent))


def test_sign_test_is_the_two_sided_binomial_tail():
    tool = _tool()
    assert tool.sign_test(10, 0) == tool.sign_test(0, 10) == 2.0 / 1024
    assert tool.sign_test(3, 1) == 2.0 * (1 + 4) / 16
    assert tool.sign_test(2, 2) == 1.0  # the doubled tail passes 1
    assert tool.sign_test(0, 0) == 1.0


def test_summary_of_fixed_pairs():
    tool = _tool()
    old = [1.0, 2.0, 4.0, 1.0, 1.0]
    new = [0.5, 1.8, 4.4, 1.0, 0.9]
    # ratios 0.5, 0.9, 1.1, 1.0, 0.9; one tie, three wins, one loss
    assert tool.summary(old, new) == {
        "rounds": 5, "median_ratio": pytest.approx(0.9), "ratio_p5": 0.5,
        "ratio_p95": pytest.approx(1.1), "new_faster": 3,
        "sign_test_p": 2.0 * (1 + 4) / 16}
    # nearest rank: 5% of 40 rounds is the 2nd, 95% the 38th
    values = [float(i) for i in range(1, 41)]
    assert (tool.nearest_rank(values, 5), tool.nearest_rank(values, 95)) == (2.0, 38.0)
    assert tool.nearest_rank([3.0], 5) == tool.nearest_rank([3.0], 95) == 3.0


def test_an_a_a_run_of_one_round_exits_0():
    proc = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT),
                           "--workload", "sweep-1d", "--rounds", "1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["rounds"] == 1 and result["reports_differ"] == 0
    assert result["ratio_p5"] == result["median_ratio"] == result["ratio_p95"] > 0
