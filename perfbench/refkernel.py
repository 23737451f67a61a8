"""Fixed reference kernel, timed next to every repetition to cancel host drift.

On a shared host the speed of a vCPU drifts by up to 2x over minutes, and
a workload's wall time follows it. The reference kernel is the
benchmark's own code and never changes, so its time follows only the
host. It mixes the kinds of work modnls does, each for roughly a tenth
of a second on a 2-vCPU Xeon VM:

  * a pure-Python integer loop;
  * strided complex slice updates into a 40 KB and a 1.6 MB array;
  * a chain of shifted slice-adds that grows its accumulator the way
    the dense fold does (d=1, N=16, four slots), with fixed values;
  * an elementwise exp and multiply over 16 MB arrays;
  * a 64^3 complex FFT on one worker.

worker.py runs it before the first timed repetition and after each one,
and reports `wall_rel`: a repetition's time divided by the mean of the
two reference times around it. Its arrays (up to about 50 MB) are
allocated on each call and freed before it returns, so it holds no
memory while the workload runs; worker.py reads the peak resident size
before the kernel first runs.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.fft import fftn


def _interpreter() -> int:
    total = 0
    for i in range(500_000):
        total += i * i % 7
    return total


def _strided(rows: int, cols: int, shifts: int, rounds: int) -> None:
    tile = np.full((rows, cols), 0.25 + 0.5j)
    out = np.zeros((2 * rows, 2 * cols - 1), dtype=complex)
    for _ in range(rounds):
        out[:] = 0
        for i in range(shifts):
            for j in range(32):
                out[i:i + rows, j:j + cols] += tile * (0.5 + 0.1j)


def _fold_chain(rounds: int = 8, N: int = 16, slots: int = 4) -> None:
    vals = np.exp(1j * np.arange(2 * N + 1))
    for _ in range(rounds):
        acc, R = np.ones((1, 1), dtype=complex), 0
        for slot in range(slots):
            new = np.zeros((acc.shape[0] + N * N, 2 * (R + N) + 1), dtype=complex)
            for idx in range(2 * N + 1):
                m = idx - N
                q0 = m * m if slot % 2 == 0 else N * N - m * m
                new[q0:q0 + acc.shape[0], idx:idx + 2 * R + 1] += acc * vals[idx]
            acc, R = new, R + N


def _stream() -> None:
    x = np.linspace(0.0, 1.0, 1 << 20)
    for _ in range(2):
        z = np.exp(1j * x)
        z *= x


def _fft() -> None:
    cube = np.exp(1j * np.linspace(0.0, 1.0, 64 ** 3)).reshape(64, 64, 64)
    for _ in range(8):
        fftn(cube, workers=1)


def reference_seconds() -> float:
    """Wall time of one pass of the reference kernel."""
    t0 = time.perf_counter()
    _interpreter()
    _strided(40, 33, 32, 8)
    _strided(400, 65, 24, 2)
    _fold_chain()
    _stream()
    _fft()
    return time.perf_counter() - t0
