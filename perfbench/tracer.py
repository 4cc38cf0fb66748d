"""Per-layer tracing by wrapping public functions of the package modules.

The layers are the `su2kam` modules.  Each traced function is replaced, in
every module namespace that binds it, by a wrapper that records a span
(name, start, end, parent span, experiment id) and adds the call to the
function's call count, busy time and self time (busy time minus the time
covered by wrapped children).  No source file is edited; `uninstall`
restores every binding.

Besides timings the tracer keeps work counts at the same boundaries.  Some
are read from return values (scheme steps, chain length); others are
computed from the arguments and are labelled as computed in the README:
grid points per FFT, prefix factor grids per chain diagnostic and windings
per lattice scan.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter

PACKAGE = "su2kam"

# (metric name, module, attribute path).  The metric name is what the report
# prints; the module and path locate the object the wrapper replaces.
TARGETS = (
    ("arithmetic.diophantine_witness", "arithmetic", "diophantine_witness"),
    ("arithmetic.relative_defect_minimum", "arithmetic", "relative_defect_minimum"),
    ("su2.quat_mul", "su2", "quat_mul"),
    ("su2.alg_exp_quat", "su2", "alg_exp_quat"),
    ("su2.alg_log_quat", "su2", "alg_log_quat"),
    ("fourier.synthesize", "fourier", "synthesize"),
    ("fourier.analyze", "fourier", "analyze"),
    ("fourier.sobolev_norm", "fourier", "sobolev_norm"),
    ("fourier.chain_sobolev_partial", "fourier", "chain_sobolev_partial"),
    ("cocycle.conjugate_raw", "cocycle", "conjugate_raw"),
    ("cocycle.normalize", "cocycle", "normalize"),
    ("kam.run_scheme", "kam", "run_scheme"),
    ("kam.kam_step", "kam", "kam_step"),
    ("kam.detect_resonance", "kam", "detect_resonance"),
    ("kam.remove_resonance", "kam", "remove_resonance"),
    ("kam.solve_homological", "kam", "solve_homological"),
    ("kam.NormalForm.write_csv", "kam", "NormalForm.write_csv"),
    ("kam.NormalForm.to_dict", "kam", "NormalForm.to_dict"),
    ("rotation.rotation_vector", "rotation", "rotation_vector"),
    ("rotation.classify_arithmetic", "rotation", "classify_arithmetic"),
    ("rotation.finite_resonance_audit", "rotation", "finite_resonance_audit"),
    ("rotation.equivalence_witness", "rotation", "equivalence_witness"),
    ("cli.synthesize_cocycle", "cli", "synthesize_cocycle"),
    ("cli.run_experiment", "cli", "run_experiment"),
    # the one call that writes report.json; if it is renamed the metric
    # goes missing instead of timing something else
    ("cli.report_write", "cli", "_dump_report"),
)

# work counts and their units
COUNTS = {
    "kam.steps": "count", "kam.resonant_steps": "count", "kam.chain_length": "count",
    "cli.report_bytes": "B", "cli.csv_bytes": "B",
    "fourier.grid_points": "points", "fourier.prefix_factor_grids": "grids",
    "arithmetic.windings_scanned": "windings", "rotation.windings_scanned": "windings",
}


def _box(d: int, n: int) -> int:
    """Nonzero windings with max-norm at most n in dimension d."""
    return (2 * n + 1) ** d - 1


class Tracer:
    """Wraps the targets and accumulates what they record."""

    def __init__(self):
        self.calls = {}
        self.busy = {}
        self.self_time = {}
        self.counts = dict.fromkeys(COUNTS, 0)
        self.classify_inputs = set()
        self.spans = []
        # set by the caller: spans carry the experiment, classification
        # inputs are told apart per pass of the list
        self.experiment = None
        self.pass_index = 0
        self._stack = []
        self._next_id = 0
        self._restore = []
        self._hooks = {
            "fourier.synthesize": self._count_synthesize,
            "fourier.analyze": self._count_analyze,
            "fourier.chain_sobolev_partial": self._count_prefixes,
            "arithmetic.diophantine_witness": self._count_witness,
            "arithmetic.relative_defect_minimum": self._count_defect_minimum,
            "rotation.classify_arithmetic": self._count_classify,
            "kam.run_scheme": self._count_scheme,
        }

    # -- installation

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        for metric, module, path in TARGETS:
            owner = modules.get("%s.%s" % (PACKAGE, module))
            if owner is None:
                continue
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            self.calls[metric] = 0
            self.busy[metric] = 0.0
            self.self_time[metric] = 0.0
            wrapper = self._wrap(metric, original)
            if cls_path:
                self._rebind(owner, attr, original, wrapper)
                continue
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, name, original, wrapper)

    def _rebind(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._restore.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _wrap(self, metric, fn):
        tracer = self
        hook = self._hooks.get(metric)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                busy = end - start
                tracer.calls[metric] += 1
                tracer.busy[metric] += busy
                tracer.self_time[metric] += busy - frame[1]
                if stack:
                    stack[-1][1] += busy
                tracer.spans.append((span_id, metric, start, end, parent,
                                     tracer.experiment))
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    # -- computed work counts

    def _count_synthesize(self, args, result) -> None:
        amap, m = args[0], args[1]
        self.counts["fourier.grid_points"] += m ** amap.dimension

    def _count_analyze(self, args, result) -> None:
        samples = args[0]
        self.counts["fourier.grid_points"] += samples.shape[0] ** (samples.ndim - 1)

    def _count_prefixes(self, args, result) -> None:
        length = len(args[0])
        self.counts["fourier.prefix_factor_grids"] += length * (length + 1) // 2

    def _count_witness(self, args, result) -> None:
        alpha, p = args[0], args[1]
        d = alpha.dimension
        if d == 1:  # one vectorised scan of the whole horizon
            scanned = p.horizon
        else:  # canonical windings shell by shell up to the witness
            scanned = _box(d, p.horizon if result is None else result.knorm) // 2
        self.counts["arithmetic.windings_scanned"] += scanned

    def _count_defect_minimum(self, args, result) -> None:
        alpha, n = args[1], args[2]
        self.counts["arithmetic.windings_scanned"] += _box(alpha.dimension, n)

    def _count_classify(self, args, result) -> None:
        r, p = args[0], args[1]
        self.classify_inputs.add((self.pass_index, r.representative, r.alpha.components,
                                  p.gamma, p.tau, p.horizon))
        self.counts["rotation.windings_scanned"] += _box(r.alpha.dimension, p.horizon)

    def _count_scheme(self, args, result) -> None:
        self.counts["kam.steps"] += result.steps
        self.counts["kam.resonant_steps"] += result.resonant_count
        self.counts["kam.chain_length"] += len(result.chain)

    def count_output(self, report_path, csv_path) -> None:
        for key, path in (("cli.report_bytes", report_path), ("cli.csv_bytes", csv_path)):
            if os.path.exists(path):
                self.counts[key] += os.path.getsize(path)

    # -- results

    def metrics(self, passes: int, factor: float) -> dict:
        """Per-layer metrics per pass of the experiment list, with times
        divided by the host factor of the traced passes."""
        out = {}
        for name in self.calls:
            out[name + ".calls"] = (self.calls[name] / passes, "count")
            out[name + ".busy_s"] = (self.busy[name] / passes / factor, "s")
            out[name + ".self_s"] = (self.self_time[name] / passes / factor, "s")
        for name, value in self.counts.items():
            out[name] = (value / passes, COUNTS[name])
        calls = self.calls.get("rotation.classify_arithmetic", 0)
        if calls:
            out["rotation.classify_arithmetic.distinct_ratio"] = (
                len(self.classify_inputs) / calls, "ratio")
        return out

    def write_spans(self, path) -> int:
        """Write the spans as JSON lines; returns how many were written."""
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, exp in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "exp": exp}))
                fh.write("\n")
        return len(self.spans)
