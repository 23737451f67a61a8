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


def test_package_loads_only_its_own_modules():
    names = sorted(p.stem for p in (SRC / "modnls").glob("*.py"))
    assert {"cli", "young", "phi"} <= set(names)
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
    loaded = set(run.stdout.split())
    assert {f"modnls.{n}" for n in names if n != "__init__"} <= loaded
    assert {n for n in loaded if n.split(".")[0] != "modnls"} <= STDLIB
