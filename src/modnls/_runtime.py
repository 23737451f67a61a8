"""Worker-count plumbing: the thread count of the one pool, spectral.walk_phases.

The library defaults to a single worker so test runs are quiet; the CLI
raises it to its --threads value, or to all cores without one, and pins
BLAS to one thread. Every FFT runs on one pocketfft worker, so results do
not depend on the count. Beyond errors, it imports only the standard library.
"""

from __future__ import annotations

from .errors import ConfigError

_workers = 1


def get_workers() -> int:
    return _workers


def set_workers(n) -> None:
    """Set the worker count (the phase walker's threads); the one check of --threads."""
    global _workers
    if int(n) != n or n < 1:
        raise ConfigError(f"worker count (--threads) must be a positive integer, got {n}")
    _workers = int(n)
