"""Worker-count plumbing for the FFT-heavy kernels.

The library defaults to a single worker so test runs are deterministic
and quiet; the CLI raises it to its --threads value, or to all cores
without one. BLAS threading is controlled separately through the usual
*_NUM_THREADS variables, which the CLI sets before numpy is imported.
This module imports nothing but the standard library.
"""

from __future__ import annotations

_workers = 1


def get_workers() -> int:
    return _workers


def set_workers(n) -> None:
    """Set the FFT worker count."""
    global _workers
    if int(n) != n or n < 1:
        raise ValueError(f"worker count must be a positive integer, got {n}")
    _workers = int(n)
