#!/usr/bin/env python3
"""The two checks of a change that must keep every result (code lines and
output digests), and the peak memory of the largest runs.

    python3 tools/same_results.py lines
    python3 tools/same_results.py digests
    python3 tools/same_results.py peaks

`lines` prints the code lines of each module of `src/su2kam` and their
total.  A code line holds a token that is not a comment, outside the
docstrings.

`digests` runs the fixed configs through `su2kam run --config`, with the
package of the checkout that holds this file, in a temporary directory
with relative output paths.  It prints one SHA-256 per `report.json` and
per `diag.csv`, with the exit code of each run.  The configs are the benchmark experiments at seed 5 and the warm-up of each
workload, read from `perfbench/workloads.py`, plus the 3D config of the
tests at stop tolerances 1e-12 and 1e-13 and its resonant twin.  It exits
non-zero if any run does.  Two checkouts give the same results when the
outputs of `digests` in each are equal, so

    diff <(python3 old/tools/same_results.py digests) \\
         <(python3 new/tools/same_results.py digests)

is the check.  A full pass takes about 20 s on a 2-core x86-64 VM.

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
import sys
import tempfile
import tokenize
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "su2kam"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
ALPHA_3D = [2.0 ** 0.25 - 1.0, 2.0 ** 0.5 - 1.0, 2.0 ** 0.75 - 1.0]
PEAK_RUNS = ("exp-2d/000", "exp-2d/001", "3d/1e-12", "3d/1e-13", "3d/resonant-twin")


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
             _three_dimensional(1e-12, (ALPHA_3D[0] + ALPHA_3D[2]) % 1.0 + 1e-6))]
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


def digests() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as folder, _chdir(folder):
        for name, cfg in configs():
            code = _run(cfg)
            failed += code != 0
            print("%-20s exit %d  report.json %s" % (name, code, _sha256("report.json")))
            print("%-20s exit %d  diag.csv    %s" % (name, code, _sha256("diag.csv")),
                  flush=True)
    return 1 if failed else 0


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
    parser.add_argument("check", choices=("lines", "digests", "peaks"))
    args = parser.parse_args(argv)
    if args.check != "lines":
        sys.path.insert(0, str(ROOT / "src"))
    return {"lines": lines, "digests": digests, "peaks": peaks}[args.check]()


if __name__ == "__main__":
    sys.exit(main())
