"""Oscillatory integrals Phi_t(a) = int_0^t e^{i a w(r)} dr and irregularity norms.

Because paths are piecewise linear, each segment integrates in closed form:
a segment from (t0, w0) with increment (dt, dw) contributes

    e^{i a w0} * dt * (e^{i a dw} - 1)/(i a dw)

and the ratio is evaluated in the cancellation-free half-angle form
e^{ix/2} sinc(x/2pi), which is uniformly accurate including x -> 0.
There is no quadrature error anywhere in this module, only splitting logic.

The (rho, gamma)-irregularity norm

    sup_a sup_{s<t} (1+|a|)^rho |Phi_t(a) - Phi_s(a)| / (t-s)^gamma

is estimated from below by maximizing over a finite frequency grid and a
finite family of time pairs; reports carry the norm per frequency-cutoff
doubling ("trend") so boundedness in a can be diagnosed from the slope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .paths import SamplePath

__all__ = [
    "OscillatoryTable",
    "IrregularityReport",
    "phi_increment",
    "build_phi_table",
    "save_table",
    "load_table",
    "export_table_csv",
    "estimate_irregularity",
    "default_a_grid",
    "default_pairs",
    "trend_slope",
    "largest_bounded_rho",
]


def _cis_ratio(x):
    """(e^{ix} - 1)/(ix) as e^{ix/2} sinc(x/2pi); exact value 1 at x = 0."""
    x = np.asarray(x, dtype=float)
    return np.exp(0.5j * x) * np.sinc(x / (2.0 * np.pi))


def phi_increment(path: SamplePath, a: float, s: float, t: float) -> complex:
    """Exact Phi_t(a) - Phi_s(a) for the piecewise-linear path."""
    if not 0.0 <= s <= t:
        raise ValueError(f"need 0 <= s <= t, got s={s}, t={t}")
    if t > path.T * (1 + 1e-12) + 1e-300:
        raise ValueError(f"t={t} beyond the path horizon T={path.T}")
    t = min(t, path.T)
    if s == t:
        return 0.0 + 0.0j
    grid = path.t_grid
    i0 = np.searchsorted(grid, s, side="right")
    i1 = np.searchsorted(grid, t, side="left")
    ts = np.concatenate([[s], grid[i0:i1], [t]])
    ws = np.interp(ts, grid, path.values) + path.offset
    dt = np.diff(ts)
    dw = np.diff(ws)
    seg = np.exp(1j * a * ws[:-1]) * dt * _cis_ratio(a * dw)
    return complex(seg.sum())


def _phi_at_times(path: SamplePath, a_values, times):
    """Phi_{tau}(a) for every a in a_values and tau in times, shape (A, T).

    Exact: the requested times are merged into the node grid so every
    segment is integrated in closed form.
    """
    t_req = np.asarray(times, dtype=float)
    if t_req.size == 0:
        raise ConfigError("empty time list")
    if np.any(t_req < 0) or np.any(t_req > path.T * (1 + 1e-12)):
        raise ValueError("requested times outside the path domain")
    tmax = t_req.max()
    inner = path.t_grid[(path.t_grid > 0) & (path.t_grid < tmax)]
    merged = np.unique(np.concatenate([[0.0], inner, t_req]))
    w = np.interp(merged, path.t_grid, path.values) + path.offset
    dt = np.diff(merged)
    dw = np.diff(w)
    w0 = w[:-1]
    pos = np.searchsorted(merged, t_req)
    a = np.atleast_1d(np.asarray(a_values, dtype=float))
    out = np.empty((a.size, t_req.size), dtype=complex)
    chunk = max(1, int(4_000_000 // max(1, dt.size)))
    for lo in range(0, a.size, chunk):
        ab = a[lo:lo + chunk, None]
        seg = np.exp(1j * ab * w0) * dt * _cis_ratio(ab * dw)
        pref = np.concatenate(
            [np.zeros((seg.shape[0], 1), dtype=complex), np.cumsum(seg, axis=1)],
            axis=1,
        )
        out[lo:lo + chunk] = pref[:, pos]
    return out


@dataclass
class OscillatoryTable:
    """Phi_{t_i}(mu) for integer frequencies |mu| <= mu_max on a time grid."""

    t_grid: np.ndarray
    mu_max: int
    values: np.ndarray  # shape (len(t_grid), 2*mu_max+1), column index mu + mu_max
    path: SamplePath | None = None

    def phi(self, i_t: int, mu: int) -> complex:
        return complex(self.values[i_t, mu + self.mu_max])

    def column(self, mu: int) -> np.ndarray:
        if abs(mu) > self.mu_max:
            raise KeyError(f"|mu|={abs(mu)} exceeds table mu_max={self.mu_max}")
        return self.values[:, mu + self.mu_max]

    def increment(self, i_s: int, i_t: int) -> np.ndarray:
        """Phi_{t}(mu) - Phi_{s}(mu) over all tabulated mu."""
        return self.values[i_t] - self.values[i_s]

    def index_of_time(self, t: float) -> int:
        i = int(np.searchsorted(self.t_grid, t))
        for j in (i - 1, i, i + 1):
            if 0 <= j < self.t_grid.size and abs(self.t_grid[j] - t) <= 1e-12 * max(1.0, self.t_grid[-1]):
                return j
        raise KeyError(f"t={t} is not a table grid time")


def build_phi_table(path: SamplePath, mu_max: int, t_grid=None) -> OscillatoryTable:
    """Tabulate Phi on a grid (default: the path's own nodes).

    Only mu >= 0 is computed; negative frequencies follow from
    Phi(-mu) = conj(Phi(mu)) since w is real.
    """
    if int(mu_max) != mu_max or mu_max < 0:
        raise ConfigError(f"mu_max must be a nonnegative integer, got {mu_max}")
    mu_max = int(mu_max)
    if t_grid is None:
        t_grid = path.t_grid.copy()
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size < 1 or t_grid[0] != 0.0 or not np.all(np.diff(t_grid) > 0):
        raise ConfigError("table grid must start at 0 and increase strictly")
    if t_grid[-1] > path.T * (1 + 1e-12):
        raise ConfigError("table grid extends beyond the path horizon")
    pos = _phi_at_times(path, np.arange(mu_max + 1), t_grid)  # (mu_max+1, n_t)
    n_t = t_grid.size
    values = np.empty((n_t, 2 * mu_max + 1), dtype=complex)
    values[:, mu_max:] = pos.T
    values[:, :mu_max] = np.conj(pos[1:, :][::-1].T)
    return OscillatoryTable(t_grid=t_grid, mu_max=mu_max, values=values, path=path)


def save_table(table: OscillatoryTable, filename) -> None:
    np.savez(filename, t_grid=table.t_grid, mu_max=np.array(table.mu_max),
             values=table.values)


def load_table(filename) -> OscillatoryTable:
    with np.load(filename) as data:
        return OscillatoryTable(t_grid=data["t_grid"], mu_max=int(data["mu_max"]),
                                values=data["values"])


def export_table_csv(table: OscillatoryTable, filename) -> None:
    """Interchange form: rows "t_index,mu,re,im"."""
    n_t, n_mu = table.values.shape
    ti, mu = np.meshgrid(np.arange(n_t), np.arange(n_mu) - table.mu_max,
                         indexing="ij")
    flat = table.values.ravel()
    data = np.column_stack([ti.ravel(), mu.ravel(), flat.real, flat.imag])
    np.savetxt(filename, data, fmt=["%d", "%d", "%.17g", "%.17g"],
               delimiter=",", header="t_index,mu,re,im", comments="")


@dataclass
class IrregularityReport:
    """Grid estimate of the (rho, gamma)-irregularity norm of Phi."""

    rho: float
    gamma: float
    norm_estimate: float
    a_max: float
    pair_count: int
    trend: list[float]
    trend_a_max: list[float] = field(default_factory=list, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "rho": self.rho,
            "gamma": self.gamma,
            "norm_estimate": self.norm_estimate,
            "a_max": self.a_max,
            "pair_count": self.pair_count,
            "trend": list(self.trend),
        }


def _van_der_corput(i: int) -> float:
    x, f = 0.0, 0.5
    while i:
        x += f * (i & 1)
        i >>= 1
        f *= 0.5
    return x


def default_a_grid(a_max: float) -> np.ndarray:
    """Integers plus 16 low-discrepancy interior points per unit, up to a_max.

    Only a >= 0 appears: |Phi(-a)| = |Phi(a)|, so the negative half-axis
    adds nothing to the norm.
    """
    if a_max <= 0:
        raise ConfigError(f"a_max must be positive, got {a_max}")
    ints = np.arange(0.0, np.floor(a_max) + 1)
    frac = np.array([_van_der_corput(i) for i in range(1, 17)])
    units = np.arange(0.0, np.ceil(a_max))
    interior = (units[:, None] + frac[None, :]).ravel()
    grid = np.unique(np.concatenate([ints, interior[interior <= a_max]]))
    return grid


def default_pairs(path: SamplePath, per_scale: int = 8,
                  n_scales: int | None = None) -> np.ndarray:
    """Dyadic family of (s, t) node pairs spanning T down to a few grid steps."""
    M = path.M
    if n_scales is None:
        n_scales = max(1, int(np.floor(np.log2(max(2, M)))) - 1)
    pairs = set()
    for level in range(n_scales):
        span = max(1, int(round(M / 2 ** level)))
        if span > M:
            span = M
        n_start = min(per_scale, M - span + 1)
        starts = np.unique(np.round(np.linspace(0, M - span, n_start)).astype(int))
        for s_idx in starts:
            pairs.add((int(s_idx), int(s_idx + span)))
    t = path.t_grid
    out = np.array(sorted((t[i], t[j]) for i, j in pairs))
    return out


def _ratio_profile(path: SamplePath, a_grid, pairs, gamma: float):
    """Per-frequency best increment ratio R(a) = max_pairs |dPhi| / (t-s)^gamma."""
    a = np.unique(np.abs(np.asarray(a_grid, dtype=float)))
    pairs = np.asarray(pairs, dtype=float)
    if a.size == 0 or pairs.size == 0:
        raise ConfigError("empty frequency grid or pair list")
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ConfigError("pairs must be an (n, 2) array of (s, t)")
    if np.any(pairs[:, 0] >= pairs[:, 1]):
        raise ConfigError("every pair needs s < t")
    times, inv = np.unique(pairs.ravel(), return_inverse=True)
    inv = inv.reshape(pairs.shape)
    phi = _phi_at_times(path, a, times)  # (A, n_times)
    dphi = np.abs(phi[:, inv[:, 1]] - phi[:, inv[:, 0]])  # (A, P)
    span = (pairs[:, 1] - pairs[:, 0]) ** gamma
    return a, (dphi / span).max(axis=1)


def _trend_from_profile(a, r_star, rho: float, levels) -> list[float]:
    weighted = (1.0 + a) ** rho * r_star
    out = []
    for lv in levels:
        mask = a <= lv * (1 + 1e-12)
        out.append(float(weighted[mask].max()) if mask.any() else 0.0)
    return out


def estimate_irregularity(path: SamplePath, gamma: float, a_max: float,
                          n_levels: int = 5, rho_grid=None, a_grid=None,
                          pairs=None) -> list[IrregularityReport]:
    """Sweep rho at fixed gamma, sharing one frequency/pair profile.

    Returns one report per rho; feed them to largest_bounded_rho to read
    off the biggest exponent whose trend stays flat across cutoff
    doublings. A one-entry rho_grid gives the single-rho report.
    """
    if not (0.0 < gamma <= 1.0):
        raise ConfigError(f"gamma must lie in (0, 1], got {gamma}")
    if rho_grid is None:
        # step 0.1 keeps the 0.05 slope threshold decisive at both ends
        rho_grid = np.arange(0.0, 1.501, 0.1)
    rho_grid = np.asarray(rho_grid, dtype=float)
    if np.any(rho_grid < 0):
        raise ConfigError(f"rho must be nonnegative, got {rho_grid.min()}")
    if a_grid is None:
        a_grid = default_a_grid(a_max)
    if pairs is None:
        pairs = default_pairs(path)
    a, r_star = _ratio_profile(path, a_grid, pairs, gamma)
    a_top = float(a.max())
    levels = [a_top / 2 ** j for j in range(n_levels - 1, -1, -1)]
    reports = []
    for rho in rho_grid:
        trend = _trend_from_profile(a, r_star, rho, levels)
        reports.append(IrregularityReport(
            rho=float(rho), gamma=float(gamma), norm_estimate=trend[-1],
            a_max=a_top, pair_count=int(np.asarray(pairs).shape[0]),
            trend=trend, trend_a_max=levels,
        ))
    return reports


def trend_slope(report: IrregularityReport) -> float:
    """Log-log slope of the norm trend against the frequency cutoff."""
    y = np.asarray(report.trend, dtype=float)
    x = np.asarray(report.trend_a_max, dtype=float)
    keep = y > 0
    if keep.sum() < 2:
        return 0.0
    lx, ly = np.log(x[keep]), np.log(y[keep])
    lx = lx - lx.mean()
    return float(lx @ (ly - ly.mean()) / (lx @ lx))


def largest_bounded_rho(reports: list[IrregularityReport],
                        slope_threshold: float = 0.05) -> float | None:
    """Largest swept rho whose trend slope stays below the threshold."""
    best = None
    for rep in reports:
        if trend_slope(rep) < slope_threshold:
            if best is None or rep.rho > best:
                best = rep.rho
    return best
