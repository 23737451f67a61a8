"""Modulation paths driving the dispersion clock.

A path is a piecewise-linear real function on [0, T] stored by its node
values, normalized so w(0) = 0.  The constant path keeps its level in
``offset``: downstream oscillatory integrals evaluate e^{i a w} with the
offset added back, which is the only place the level matters.

Generators: linear (w = t), constant, fractional Brownian motion via
circulant embedding of the increment covariance, and a fast-oscillation
path w(t) = integral of eps^{-1} m(r/eps^2) for a tabulated periodic
profile m.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericsError, check_int

__all__ = [
    "SamplePath",
    "make_linear_path",
    "make_constant_path",
    "make_fbm_path",
    "make_modulated_path",
    "save_path_csv",
    "load_path_csv",
    "horizon_limit",
]


# rows of a CSV formatted and written at once by _write_csv
_CSV_BLOCK_ROWS = 1 << 12


@dataclass
class SamplePath:
    """Piecewise-linear path on [0, T] sampled at strictly increasing nodes."""

    t_grid: np.ndarray
    values: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        self.t_grid = np.asarray(self.t_grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.t_grid.ndim != 1 or self.t_grid.shape != self.values.shape:
            raise ConfigError("t_grid and values must be 1d arrays of equal length")
        if self.t_grid.size < 2:
            raise ConfigError("a path needs at least one segment (M >= 1)")
        if not (np.all(np.isfinite(self.t_grid)) and np.all(np.isfinite(self.values))
                and np.isfinite(self.offset)):
            raise ConfigError(f"path nodes and offset must be finite (offset {self.offset})")
        if self.t_grid[0] != 0.0:
            raise ConfigError("the time grid must start at t = 0")
        if not np.all(np.diff(self.t_grid) > 0):
            raise ConfigError("the time grid must be strictly increasing")
        if self.values[0] != 0.0:
            raise ConfigError("paths are normalized to w(0) = 0; shift into offset")

    @property
    def T(self) -> float:
        return float(self.t_grid[-1])

    @property
    def M(self) -> int:
        return self.t_grid.size - 1

    def segments(self, s: float, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(dt, w) for 0 <= s <= t <= T: the lengths of the segments from s to t and the clock
        values + offset at their ends (s, the nodes strictly inside, t), on that slice alone."""
        lo, hi = np.searchsorted(self.t_grid, s, "right") - 1, np.searchsorted(self.t_grid, t) + 1
        g, w = self.t_grid[lo:hi], self.values[lo:hi] + self.offset
        return (np.diff(np.concatenate([[s], g[1:-1], [t]])),
                np.concatenate([np.interp([s], g, w), w[1:-1], np.interp([t], g, w)]))


def horizon_limit(T: float) -> float:
    """The latest time read as the horizon T: the one tolerance, 1e-12 max(1, T) past T."""
    return T + 1e-12 * max(1.0, T)


def make_linear_path(T: float, M: int) -> SamplePath:
    """The identity clock w(t) = t on a uniform grid of M segments."""
    _check_T_M(T, M)
    t = np.linspace(0.0, T, M + 1)
    return SamplePath(t_grid=t, values=t.copy())


def make_constant_path(c: float, T: float, M: int) -> SamplePath:
    """Frozen clock at level c; the level is stored as offset, values are 0."""
    _check_T_M(T, M)
    t = np.linspace(0.0, T, M + 1)
    return SamplePath(t_grid=t, values=np.zeros(M + 1), offset=float(c))


def make_fbm_path(H: float, T: float, M: int, seed: int) -> SamplePath:
    """Fractional Brownian motion, exact in law via circulant embedding.

    M must be a power of two.  Increments are stationary Gaussians with
    Var = (T/M)^{2H}; the same seed always reproduces the same path.
    """
    _check_T_M(T, M)
    if not (0.0 < H < 1.0):
        raise ConfigError(f"Hurst index must lie in (0, 1), got {H}")
    if M & (M - 1) != 0:
        raise ConfigError(f"fbm grid size M must be a power of two, got {M}")
    rng = np.random.default_rng(check_int(seed, "seed", 0))
    fgn = _fgn_unit_step(H, M, rng)
    values = np.concatenate([[0.0], np.cumsum(fgn)]) * (T / M) ** H
    values[0] = 0.0
    t = np.linspace(0.0, T, M + 1)
    return SamplePath(t_grid=t, values=values)


def _fgn_unit_step(H: float, n: int, rng) -> np.ndarray:
    """n samples of unit-step fractional Gaussian noise; NumericsError if the
    circulant embedding is not nonnegative definite (never seen for H in (0, 1))."""
    k = np.arange(n + 1, dtype=float)
    gamma = 0.5 * ((k + 1) ** (2 * H) - 2 * k ** (2 * H) + np.abs(k - 1) ** (2 * H))
    row = np.concatenate([gamma, gamma[-2:0:-1]])  # circulant embedding, length 2n
    lam = np.fft.fft(row).real
    if lam.min() < -1e-8 * lam.max():
        raise NumericsError(
            f"circulant embedding of fBm with H={H}, M={n} has a negative eigenvalue")
    lam = np.clip(lam, 0.0, None)
    u = rng.standard_normal(n + 1)
    v = rng.standard_normal(n - 1)
    y = np.zeros(2 * n, dtype=complex)
    y[0] = np.sqrt(lam[0]) * u[0]
    y[n] = np.sqrt(lam[n]) * u[n]
    y[1:n] = np.sqrt(lam[1:n] / 2.0) * (u[1:n] + 1j * v)
    y[n + 1:] = np.conj(y[1:n][::-1])
    x = np.fft.fft(y).real / np.sqrt(2 * n)
    return x[:n]


def make_modulated_path(profile, eps: float, T: float, M: int) -> SamplePath:
    """Fast-oscillation clock w(t) = integral_0^t eps^{-1} m(r/eps^2) dr.

    `profile` tabulates m on a uniform grid over one period [0, 1); it is
    interpolated piecewise-linearly and extended periodically, and the
    integral of that interpolant is accumulated exactly.  Requires
    eps^2 >= 4 T/M so each grid step resolves the oscillation.
    """
    _check_T_M(T, M)
    if eps <= 0:
        raise ConfigError(f"eps must be positive, got {eps}")
    if eps * eps < 4.0 * T / M:
        raise ConfigError(
            f"eps too small for the grid: need eps^2 >= 4 T/M, "
            f"got eps^2 = {eps * eps:.3e} < {4.0 * T / M:.3e}"
        )
    prof = np.atleast_1d(np.asarray(profile, dtype=float))
    if prof.ndim != 1 or prof.size < 1 or not np.all(np.isfinite(prof)):
        raise ConfigError("profile must be a finite 1d table of samples")
    P = prof.size
    closed = np.concatenate([prof, prof[:1]])
    cell = (closed[:-1] + closed[1:]) / (2.0 * P)  # exact integral per cell
    prefix = np.concatenate([[0.0], np.cumsum(cell)])
    per_period = prefix[P]

    def antiderivative(x):
        n_per, frac = np.divmod(x, 1.0)
        idx = np.minimum((frac * P).astype(int), P - 1)
        u = frac - idx / P
        m0 = closed[idx]
        m1 = closed[idx + 1]
        part = m0 * u + 0.5 * (m1 - m0) * P * u * u
        return n_per * per_period + prefix[idx] + part

    t = np.linspace(0.0, T, M + 1)
    values = eps * antiderivative(t / (eps * eps))
    values[0] = 0.0
    return SamplePath(t_grid=t, values=values)


def save_path_csv(path: SamplePath, filename) -> None:
    """Write the header "t,w" and one row "t,w" per node, both with "%.17g" (17
    significant digits), through _write_csv's row blocks.

    The w column carries the actual clock level values + offset, so a
    reload through load_path_csv recovers the same modulation values.
    """
    data = np.column_stack([path.t_grid, path.values + path.offset])
    _write_csv(filename, "t,w", ["%.17g", "%.17g"], data)


def load_path_csv(filename) -> SamplePath:
    """Read a "t,w" CSV; any initial level is moved into the offset."""
    data = _csv_rows(filename, 1)
    if data.shape[1] != 2:
        raise ConfigError(f"path CSV must have two columns, got {data.shape[1]}")
    t_grid = data[:, 0]
    values = data[:, 1]
    offset = float(values[0])
    return SamplePath(t_grid=t_grid, values=values - offset, offset=offset)


def _write_csv(filename, header: str, fmt: list[str], data: np.ndarray) -> None:
    """Write the line `header`, then each row of the 2d array `data` with the column formats
    `fmt` joined by commas, byte for byte as numpy's savetxt writes them with
    delimiter="," and comments="". Rows go in blocks of at most _CSV_BLOCK_ROWS, each one
    % format of the repeated row format and one write, not one of each per row."""
    row = ",".join(fmt) + "\n"
    with open(filename, "w") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(data), _CSV_BLOCK_ROWS):
            block = data[lo:lo + _CSV_BLOCK_ROWS]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def _csv_rows(filename, header: int, required: bool = True) -> np.ndarray | None:
    """The rows of a numeric CSV after its `header` lines, blank and comment lines dropped,
    as a 2d array; None when no row is left, or if `required` a ConfigError naming the file."""
    body = [ln for ln in Path(str(filename)).read_text().splitlines()[header:]
            if ln.split("#", 1)[0].strip()]
    if not body and required:
        raise ConfigError(f"{filename} holds no data rows")
    return np.loadtxt(body, delimiter=",", ndmin=2) if body else None


def _check_T_M(T: float, M: int) -> None:
    if not (T > 0 and np.isfinite(T)):
        raise ConfigError(f"horizon T must be positive and finite, got {T}")
    check_int(M, "grid size M")
