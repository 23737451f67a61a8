"""Exception types shared across the package, and its one integer rule.

ConfigError maps to CLI exit code 2, NumericsError (and subclasses) to 3.

The integer rule: an integer input (a dimension, power, cutoff, grid size,
box bound, block, resonance offset, count or sign) is a Python or numpy
integer. Bools, numpy's included, and floats, integral ones included, are
refused with ConfigError, never truncated; check_int applies it.
"""

from __future__ import annotations

import operator


class ConfigError(ValueError):
    """A configuration value violates a validated precondition."""


def _is_int(v) -> bool:
    """True for Python and numpy integers; False for bools, floats and the rest."""
    try:
        return not isinstance(v, bool) and operator.index(v) == v
    except TypeError:
        return False


def check_int(value, what: str, lo: int | None = 1) -> int:
    """value as an int; ConfigError unless it is an integer >= lo (1, 0 or None for any)."""
    if not _is_int(value) or (lo is not None and value < lo):
        kind = {1: "a positive integer", 0: "a nonnegative integer", None: "an integer"}[lo]
        raise ConfigError(f"{what} must be {kind}, got {value}")
    return operator.index(value)


class NumericsError(RuntimeError):
    """A numerical procedure failed in a diagnosable way."""


class BlowUpError(NumericsError):
    """Solution norm exceeded the blow-up guard during time stepping."""

    def __init__(self, step: int, norm: float, limit: float):
        self.step = step
        self.norm = norm
        self.limit = limit
        super().__init__(
            f"norm {norm:.3e} exceeded blow-up guard {limit:.3e} at step {step}"
        )


class NonConvergenceError(NumericsError):
    """Fixed-point iteration failed to reach tolerance."""

    def __init__(self, iterations: int, residuals: list[float], tol: float):
        self.iterations = iterations
        self.residuals = list(residuals)
        self.tol = tol
        last = residuals[-1] if residuals else float("nan")
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(last residual {last:.3e}, tol {tol:.1e}); "
            "the contraction argument needs a smaller time horizon - try halving T"
        )
