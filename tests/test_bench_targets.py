"""The benchmark's tracer targets and workloads must match the package.

perfbench/tracing.py times the layers from outside by replacing module
attributes; a target that no longer exists is skipped and its per-layer
metrics read 0. perfbench/workloads.py builds its inputs and checks its
results through the package's public names and the oracles in
tests/conftest.py. These tests turn a rename, or a result its oracle
refuses, into a failure.
"""

import importlib.util
import os
from pathlib import Path

from modnls import _runtime

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_target():
    tracer = _load("tracing").Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_every_workload_op_passes_its_check(tmp_path, monkeypatch):
    # one set-up and one repetition of each workload at seed 101; the
    # workloads set the worker count and the CLI pins the BLAS variables
    monkeypatch.setattr(_runtime, "_workers", _runtime.get_workers())
    for var in BLAS_ENV:
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    workloads = _load("workloads")
    for name, cls in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        wl = cls(101, workdir)
        for label, op in wl.ops:
            ratio = wl.check(label, op())
            assert ratio <= 1.0, (name, label, ratio)
