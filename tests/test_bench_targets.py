"""The benchmark tracer must find every function it wraps by name.

perfbench/tracing.py times the layers from outside by replacing module
attributes; a target that no longer exists is skipped and its per-layer
metrics read 0. This test turns such a rename into a failure.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_finds_every_target():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
