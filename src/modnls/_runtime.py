"""Worker-count plumbing for the FFT-heavy kernels.

The library defaults to a single worker so test runs are deterministic
and quiet; the CLI raises it (all cores unless --threads or the
YNLS_THREADS environment variable says otherwise). BLAS threading is
controlled separately through the usual *_NUM_THREADS variables, which
the CLI sets before numpy is imported. This module is the only reader
of YNLS_THREADS and imports nothing but the standard library.
"""

from __future__ import annotations

import os

from .errors import ConfigError

_workers: int | None = None


def resolve_threads(flag=None, default: int = 1) -> int:
    """Worker count from a --threads value, else YNLS_THREADS, else default.

    ConfigError when the value in use is not an integer.
    """
    source, val = "--threads", flag
    if flag is None:
        source, val = "YNLS_THREADS", os.environ.get("YNLS_THREADS", "")
        if not val:
            return default
    try:
        return max(1, int(val))
    except ValueError:
        raise ConfigError(f"{source} expects an integer, got {val!r}") from None


def get_workers() -> int:
    global _workers
    if _workers is None:
        _workers = resolve_threads()
    return _workers


def set_workers(n) -> None:
    """Set the FFT worker count; None re-reads YNLS_THREADS on next use."""
    global _workers
    if n is None:
        _workers = None
        return
    if int(n) != n or n < 1:
        raise ValueError(f"worker count must be a positive integer, got {n}")
    _workers = int(n)
