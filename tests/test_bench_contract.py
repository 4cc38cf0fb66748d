"""The benchmark's per-layer tracer must still find every function it wraps.

`perfbench/tracer.py` locates its targets by module and attribute name and
silently skips a name that no longer exists, so a rename would drop a
per-layer metric without any error.  This test imports the tracer as it is
and checks that every target binds.
"""

import importlib.util
from pathlib import Path

import su2kam.cli  # noqa: F401  (imports every module the tracer wraps)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
