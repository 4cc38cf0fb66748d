"""The fixed runs of tools/same_results.py against their record in
tests/data/fixed_runs.json: every run but the 3D ones at 1e-13 and the
resonant twin, which take seconds each and run in `same_results.py check`.

Exit codes, steps, ledgers, classes and truth witnesses must match exactly,
rho within 1e-14 and the final residual within a factor of 10.  The
digests of report.json and diag.csv are compared only on the recorded
platform; elsewhere the test warns that it left them out.
"""

import importlib.util
import json
import warnings
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_results.py"
SLOW = ("3d/1e-13", "3d/resonant-twin")


def _tool():
    spec = importlib.util.spec_from_file_location("same_results", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fixed_runs_match_their_record():
    tool = _tool()
    record = json.loads(tool.RECORD.read_text())
    runs = [(name, cfg) for name, cfg in tool.configs() if name not in SLOW]
    observed = dict(tool.observe(runs))
    assert set(record["runs"]) == set(observed) | set(SLOW)
    assert tool.compare(record, observed) == []
    # the two-resonance run reaches a ledger of two, which no other run does
    assert observed["two-resonance/seed-0"]["ledger"] == [[0, [3], 8], [1, [41], 52]]
    if record["platform"] != tool.this_platform():
        warnings.warn("digests not compared: recorded on %s, running on %s"
                      % (record["platform"], tool.this_platform()))


def test_compare_names_each_moved_result():
    tool = _tool()
    record = json.loads(tool.RECORD.read_text())
    name = "two-resonance/seed-0"
    want = record["runs"][name]
    rho = float.fromhex(want["rho"])
    near = want | {"rho": float.hex(rho + 5e-15), "final_residual": 9 * want["final_residual"]}
    assert tool.compare(record, {name: near}) == []
    moved = want | {"exit": 4, "ledger": want["ledger"][:1], "rho": float.hex(rho + 5e-14),
                    "final_residual": want["final_residual"] / 11}
    problems = tool.compare(record, {name: moved, "unrecorded": want})
    assert [line.split(": ")[:2] for line in problems] == [
        [name, "exit recorded 0, observed 4"],
        [name, "ledger recorded %r, observed %r" % (want["ledger"], moved["ledger"])],
        [name, "rho recorded %r, observed %r" % (want["rho"], moved["rho"])],
        [name, "final_residual recorded %r, observed %r" % (want["final_residual"],
                                                           moved["final_residual"])],
        ["unrecorded", "not in the record"]]
