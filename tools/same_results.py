#!/usr/bin/env python3
"""The checks of a change that must keep every result (code lines, output
digests, and the results of the fixed runs against their record), and the
peak memory of the largest runs.

    python3 tools/same_results.py lines
    python3 tools/same_results.py digests
    python3 tools/same_results.py record
    python3 tools/same_results.py check
    python3 tools/same_results.py peaks

`lines` prints the code lines of each module of `src/su2kam` and their
total.  A code line holds a token that is not a comment, outside the
docstrings.

`digests` runs the fixed configs through `su2kam run --config`, with the
package of the checkout that holds this file, in a temporary directory
with relative output paths.  It prints one SHA-256 per `report.json` and
per `diag.csv`, with the exit code of each run.  The configs are the
benchmark experiments at seed 5 and the warm-up of each workload, read from
`perfbench/workloads.py`, plus the 3D config of the tests at stop
tolerances 1e-12 and 1e-13, its resonant twin, and a 1D config whose
ledger removes two resonances.  It exits non-zero if any run does.  Two
checkouts give the same results when the outputs of `digests` in each are
equal, so

    diff <(python3 old/tools/same_results.py digests) \\
         <(python3 new/tools/same_results.py digests)

is the check.  A full pass takes about 20 s on a 2-core x86-64 VM.

`record` runs the same configs and writes `tests/data/fixed_runs.json`: a
platform header (machine, Python and NumPy versions, and the SIMD targets
NumPy dispatches its float64 functions to), then one line per run with its
exit code, steps, ledger (step, winding, scale), classification, truth witness
(sign, k, m), rho as `float.hex`, final H^0 residual, report size and the
two digests.  A change that means to move a result records again, and the
diff of that file shows what moved.

`check` runs the same configs and compares them with the record: exit
codes, steps, ledgers, classes and witnesses exactly, rho within 1e-14, the
residual within a factor of 10, and the digests only on the recorded
platform, since NumPy's SIMD `exp`, `log` and `sin` may round differently
on another CPU.  It prints each mismatch, and whether it compared the
digests, and exits non-zero on any mismatch.  The tier-1 test
`tests/test_fixed_runs.py` makes the same comparison over every run but
the two slowest 3D ones.

`peaks` runs the first two exp-2d experiments and the three 3D configs as
`digests` does, each twice in one process, and prints the tracemalloc peak
of the repeat above the traced memory at its start, in MiB: the repeat
reads the per-process tables that the first run built, as a benchmark pass
does, so the figure is the run's own working memory.  The runs and their
order are fixed, so the figures are too.  It puts on record the memory of
the 3D runs, which no benchmark workload covers.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import sys
import tempfile
import tokenize
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "su2kam"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
RECORD = ROOT / "tests" / "data" / "fixed_runs.json"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
ALPHA_3D = [2.0 ** 0.25 - 1.0, 2.0 ** 0.5 - 1.0, 2.0 ** 0.75 - 1.0]
PEAK_RUNS = ("exp-2d/000", "exp-2d/001", "3d/1e-12", "3d/1e-13", "3d/resonant-twin")
RHO_TOL = 1e-14
RESIDUAL_FACTOR = 10.0
# what must match exactly; rho, the residual and the digests are compared apart
EXACT = ("exit", "steps", "ledger", "classification", "witness")


def code_lines(path: Path) -> int:
    """Lines that hold a token other than a comment, outside docstrings."""
    source = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    rows = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            rows.update(range(token.start[0], token.end[0] + 1))
    return len(rows - docstrings)


def lines() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path)
        total += count
        print("%-14s %5d" % (path.stem, count))
    print("%-14s %5d" % ("total", total))
    return 0


def _three_dimensional(stop_tolerance: float, theta: float = 0.1) -> dict:
    """The 3D config of the tests: a frequency of the 2^(1/4) field."""
    return {"frequency": {"value": ALPHA_3D}, "theta": theta,
            "chain": [{"kind": "torus", "winding": [1, 0, 1]},
                      {"kind": "exp", "band": 1, "amplitude": 1e-3}],
            "perturbation": {"band": 1, "amplitude": 1e-5},
            "scheme": {"n0": 6, "nu": 8.0, "stop_tolerance": stop_tolerance},
            "dioph": {"gamma": 32.0, "tau": 4.0, "horizon": 20}}


# A 1D run that removes two resonances.  alpha = [0; 2, 1, 1, 3, 2, 800, ...]
# has |41 alpha|_Z = 3.0e-5, so theta near 3 alpha + (41 alpha mod 1) is
# resonant at winding 3 at scale 8, then at winding 41 at scale 52.  At
# seed 2 the perturbation moves the constant past 52^-5, and only the first
# resonance is removed, so the seed is pinned.
TWO_RESONANCES = {"frequency": {"value": [0.3902431598152732]},
                  "theta": 0.17069903197202052,
                  "chain": [{"kind": "exp", "band": 2, "amplitude": 1e-4}],
                  "perturbation": {"band": 3, "amplitude": 1e-6},
                  "scheme": {"n0": 8, "sigma": 0.9, "nu": 5.0},
                  "dioph": {"gamma": 2.6, "tau": 3.0, "horizon": 5000}, "seed": 0}


def configs() -> list:
    """(name, config) of every run, in a fixed order."""
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out = []
    for name, make in workloads.WORKLOADS.items():
        out.append(("%s/warmup" % name, workloads.warmup_config(name)))
        out += [("%s/%03d" % (name, i), cfg)
                for i, cfg in enumerate(make(workloads.DEFAULT_SEED))]
    out += [("3d/1e-12", _three_dimensional(1e-12)), ("3d/1e-13", _three_dimensional(1e-13)),
            ("3d/resonant-twin",
             _three_dimensional(1e-12, (ALPHA_3D[0] + ALPHA_3D[2]) % 1.0 + 1e-6)),
            ("two-resonance/seed-0", TWO_RESONANCES)]
    return out


def _sha256(path: str) -> str:
    if not os.path.exists(path):
        return "missing"
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run(cfg: dict) -> int:
    """`su2kam run --config` on cfg, writing report.json and diag.csv in the
    working directory; returns the exit code."""
    from su2kam import cli

    with open("config.json", "w") as fh:
        json.dump(cfg | {"report_path": "report.json", "csv_path": "diag.csv"}, fh)
    for path in ("report.json", "diag.csv"):
        if os.path.exists(path):
            os.remove(path)
    return cli.main(["run", "--config", "config.json"])


def _entry(code: int) -> dict:
    """What the record keeps of a run that exited with code, read from the
    report.json and diag.csv it left in the working directory."""
    entry = {"exit": code}
    if os.path.exists("report.json"):
        with open("report.json", "rb") as fh:
            raw = fh.read()
        report = json.loads(raw)
        nf = report["normal_form"]
        witness = (report.get("truth_comparison") or {}).get("witness")
        rho = report["rotation"].get("representative")
        entry.update({
            "steps": nf["steps"],
            "ledger": [[e["step"], e["winding"], e["scale"]] for e in nf["ledger"]],
            "classification": report.get("classification", {}).get("classification"),
            "witness": witness and {key: witness[key] for key in ("sign", "k", "m")},
            "rho": None if rho is None else float.hex(rho),
            "final_residual": nf["final_residual_h0"],
            "report_bytes": len(raw),
        })
    return entry | {"report.json": _sha256("report.json"), "diag.csv": _sha256("diag.csv")}


def observe(runs):
    """(name, entry) of each (name, config) of runs, each run by `_run` in
    one temporary directory."""
    with tempfile.TemporaryDirectory() as folder, _chdir(folder):
        for name, cfg in runs:
            yield name, _entry(_run(cfg))


def this_platform() -> dict:
    """What the digests of a run depend on besides the code: the machine,
    the versions, and the SIMD target of each float64 function of NumPy,
    which differs between CPUs of one machine type."""
    import numpy as np
    from numpy.lib.introspect import opt_func_info

    targets = {info["current"] for signatures in opt_func_info(signature="float64").values()
               for info in signatures.values()}
    return {"machine": platform.machine(), "python": "%d.%d" % sys.version_info[:2],
            "numpy": np.__version__, "simd": sorted(targets)}


def _close(key: str, want, got) -> bool:
    """rho within RHO_TOL, the residual within RESIDUAL_FACTOR either way; a
    run without the value matches only a run without it."""
    if want is None or got is None:
        return want is got
    if key == "rho":
        return abs(float.fromhex(want) - float.fromhex(got)) <= RHO_TOL
    low, high = sorted((want, got))
    return high <= RESIDUAL_FACTOR * low


def compare(recorded: dict, observed: dict) -> list:
    """Mismatches between the record and the observed {name: entry}, one
    line each.  The digests count only on the recorded platform."""
    digests = recorded["platform"] == this_platform()
    problems = []
    for name, entry in observed.items():
        want = recorded["runs"].get(name)
        if want is None:
            problems.append("%s: not in the record" % name)
            continue
        keys = [key for key in EXACT if want.get(key) != entry.get(key)]
        keys += [key for key in ("rho", "final_residual")
                 if not _close(key, want.get(key), entry.get(key))]
        if digests:
            keys += [key for key in ("report.json", "diag.csv") if want[key] != entry[key]]
        problems += ["%s: %s recorded %r, observed %r" % (name, key, want.get(key), entry.get(key))
                     for key in keys]
    return problems


def digests() -> int:
    failed = 0
    for name, entry in observe(configs()):
        failed += entry["exit"] != 0
        print("%-20s exit %d  report.json %s" % (name, entry["exit"], entry["report.json"]))
        print("%-20s exit %d  diag.csv    %s" % (name, entry["exit"], entry["diag.csv"]),
              flush=True)
    return 1 if failed else 0


def record() -> int:
    """Write RECORD, one line per run, so that its diff names each run that
    moved."""
    runs = dict(observe(configs()))
    lines = ",\n".join("  %s: %s" % (json.dumps(name), json.dumps(entry))
                        for name, entry in runs.items())
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text('{"platform": %s,\n "runs": {\n%s\n}}\n'
                      % (json.dumps(this_platform()), lines))
    print("%d runs recorded in %s" % (len(runs), RECORD.relative_to(ROOT)))
    return 1 if any(entry["exit"] != 0 for entry in runs.values()) else 0


def check() -> int:
    recorded = json.loads(RECORD.read_text())
    observed = dict(observe(configs()))
    problems = compare(recorded, observed)
    problems += ["%s: recorded, but no longer run" % name
                 for name in recorded["runs"] if name not in observed]
    for line in problems:
        print(line)
    here = this_platform()
    if recorded["platform"] == here:
        print("digests compared: the platform is the recorded one")
    else:
        print("digests not compared: recorded on %s, running on %s"
              % (recorded["platform"], here))
    print("%d runs, %d mismatches" % (len(observed), len(problems)))
    return 1 if problems else 0


def peaks() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as folder, _chdir(folder):
        for name, cfg in configs():
            if name not in PEAK_RUNS:
                continue
            _run(cfg)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                code = _run(cfg)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            failed += code != 0
            print("%-20s exit %d  peak %.3f MiB" % (name, code, peak / 2**20), flush=True)
    return 1 if failed else 0


@contextlib.contextmanager
def _chdir(folder):
    """contextlib.chdir, which Python 3.10 lacks."""
    before = os.getcwd()
    os.chdir(folder)
    try:
        yield
    finally:
        os.chdir(before)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = {"lines": lines, "digests": digests, "record": record, "check": check,
                "peaks": peaks}
    parser.add_argument("command", choices=tuple(commands))
    args = parser.parse_args(argv)
    if args.command != "lines":
        sys.path.insert(0, str(ROOT / "src"))
    return commands[args.command]()


if __name__ == "__main__":
    sys.exit(main())
