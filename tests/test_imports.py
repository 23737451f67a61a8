"""Importing modnls costs its own modules and nothing more.

The benchmark's set-up time is process start plus imports, so a module
that the package starts to load shows up there on every workload.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
# beyond numpy and scipy.fft, only what the size messages (Decimal) and the
# phase walker's thread pool need
STDLIB = {"decimal", "_decimal", "queue", "_queue", "concurrent.futures.thread"}


def _newly_loaded(names) -> set:
    """The modules that importing modnls.<name> for each name adds to numpy and scipy.fft."""
    code = "\n".join([
        f"import sys; sys.path.insert(0, {str(SRC)!r})",
        "import numpy, scipy.fft",
        "before = set(sys.modules)",
        f"for name in {names!r}:",
        "    __import__('modnls' if name == '__init__' else 'modnls.' + name)",
        "print(*sorted(set(sys.modules) - before))",
    ])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    return set(run.stdout.split())


def test_package_loads_only_its_own_modules():
    names = sorted(p.stem for p in (SRC / "modnls").glob("*.py"))
    assert {"cli", "young", "phi"} <= set(names)
    loaded = _newly_loaded(names)
    assert {f"modnls.{n}" for n in names if n != "__init__"} <= loaded
    assert {n for n in loaded if n.split(".")[0] != "modnls"} <= STDLIB


def test_kernel_loads_neither_probes_nor_fold():
    # the kernel sums phases on the walker alone; the resonance probes and
    # the fold stay unloaded until something asks for them
    loaded = _newly_loaded(["young"])
    assert "modnls.young" in loaded
    assert not {"modnls.resonance", "modnls._fold"} & loaded
