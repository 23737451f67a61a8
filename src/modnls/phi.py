"""Oscillatory integrals Phi_t(a) = int_0^t e^{i a w(r)} dr and irregularity norms.

Because paths are piecewise linear, each segment integrates in closed form:
a segment from (t0, w0) with increment (dt, dw) contributes

    dt * e^{i a (w0 + dw/2)} * sinc(a dw / 2pi),

a midpoint phase times a real amplitude, free of cancellation as a dw -> 0.
Phi at a list of times sums the segments between consecutive requested
times and accumulates only those block sums. There is no quadrature error
anywhere in this module, only splitting logic. An OscillatoryTable holds
Phi at the path's own nodes for the integer frequencies the kernel reads;
it lives in memory only.

The (rho, gamma)-irregularity norm

    sup_a sup_{s<t} (1+|a|)^rho |Phi_t(a) - Phi_s(a)| / (t-s)^gamma

is estimated from below by maximizing over a finite frequency grid and a
finite family of time pairs; reports carry the norm at five frequency
cutoffs a_max / 2^j ("trend"), and a rho counts as bounded while the
log-log slope of that trend stays below 0.05.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, check_int
from .paths import SamplePath

__all__ = [
    "OscillatoryTable",
    "IrregularityReport",
    "phi_increment",
    "build_phi_table",
    "estimate_irregularity",
    "default_a_grid",
    "default_pairs",
    "trend_slope",
    "largest_bounded_rho",
]


# (frequency, segment) entries per chunk of _phi_at_times: its float64
# temporaries stay in cache whatever the number of segments or frequencies
_PHI_BLOCK_ENTRIES = 2 ** 16


def _segments(a, dt, w0, dw):
    """(Re, Im) of dt e^{i a (w0 + dw/2)} sinc(a dw / 2pi), the integral of
    e^{i a w} over linear segments (dt, w0 -> w0 + dw); `a` broadcasts."""
    phase = a * (w0 + 0.5 * dw)
    amp = np.sinc(a * dw / (2.0 * np.pi)) * dt
    return amp * np.cos(phase), amp * np.sin(phase)


def phi_increment(path: SamplePath, a: float, s: float, t: float) -> complex:
    """Exact Phi_t(a) - Phi_s(a) for the piecewise-linear path."""
    if not 0.0 <= s <= t:
        raise ValueError(f"need 0 <= s <= t, got s={s}, t={t}")
    if t > path.T * (1 + 1e-12) + 1e-300:
        raise ValueError(f"t={t} beyond the path horizon T={path.T}")
    phi_s, phi_t = _phi_at_times(path, [a], [s, min(t, path.T)])[0]
    return complex(phi_t - phi_s)


def _phi_at_times(path: SamplePath, a_values, times):
    """Phi_{tau}(a) for every a in a_values and tau in times, shape (A, T).

    Exact: the requested times are merged into the node grid so every
    segment is integrated in closed form; only the block sums between
    consecutive requested times are accumulated.
    """
    t_req = np.asarray(times, dtype=float)
    if t_req.size == 0:
        raise ConfigError("empty time list")
    if not np.all((t_req >= 0) & (t_req <= path.T * (1 + 1e-12))):  # NaN too
        raise ValueError("requested times outside the path domain")
    tmax = t_req.max()
    inner = path.t_grid[(path.t_grid > 0) & (path.t_grid < tmax)]
    merged = np.unique(np.concatenate([[0.0], inner, t_req]))
    w = np.interp(merged, path.t_grid, path.values) + path.offset
    dt, dw = np.diff(merged), np.diff(w)
    pos = np.searchsorted(merged, t_req)
    # block b holds segments bounds[b]..bounds[b+1]-1, none of them empty
    bounds = np.unique(np.concatenate([[0], pos]))
    at = np.searchsorted(bounds, pos)
    a = np.atleast_1d(np.asarray(a_values, dtype=float))
    out = np.zeros((a.size, t_req.size), dtype=complex)
    rows = max(1, _PHI_BLOCK_ENTRIES // max(1, dt.size))
    for lo in range(0, a.size, rows):
        re, im = _segments(a[lo:lo + rows, None], dt, w[:-1], dw)
        acc = np.zeros((re.shape[0], bounds.size), dtype=complex)
        acc.real[:, 1:] = np.add.reduceat(re, bounds[:-1], axis=1)
        acc.imag[:, 1:] = np.add.reduceat(im, bounds[:-1], axis=1)
        out[lo:lo + rows] = np.cumsum(acc, axis=1)[:, at]
    return out


@dataclass
class OscillatoryTable:
    """Phi_{t_i}(mu) for integer frequencies |mu| <= mu_max on a time grid."""

    t_grid: np.ndarray
    mu_max: int
    values: np.ndarray  # shape (len(t_grid), 2*mu_max+1), column index mu + mu_max

    def increment(self, i_s: int, i_t: int) -> np.ndarray:
        """Phi_{t}(mu) - Phi_{s}(mu) over all tabulated mu."""
        return self.values[i_t] - self.values[i_s]

    def index_of_time(self, t: float) -> int:
        i = int(np.searchsorted(self.t_grid, t))
        for j in (i - 1, i, i + 1):
            if 0 <= j < self.t_grid.size and abs(self.t_grid[j] - t) <= 1e-12 * max(1.0, self.t_grid[-1]):
                return j
        raise KeyError(f"t={t} is not a table grid time")


def build_phi_table(path: SamplePath, mu_max: int) -> OscillatoryTable:
    """Tabulate Phi on the path's own nodes.

    Only mu >= 0 is computed; negative frequencies follow from
    Phi(-mu) = conj(Phi(mu)) since w is real.
    """
    mu_max = check_int(mu_max, "mu_max", 0)
    t_grid = path.t_grid.copy()
    pos = _phi_at_times(path, np.arange(mu_max + 1), t_grid).T  # (n_t, mu_max+1)
    values = np.concatenate([np.conj(pos[:, :0:-1]), pos], axis=1)
    return OscillatoryTable(t_grid=t_grid, mu_max=mu_max, values=values)


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


def default_a_grid(a_max: float) -> np.ndarray:
    """Integers plus the points j/16 (j = 1..15) and 1/32 in each unit, up to a_max.

    Only a >= 0 appears: |Phi(-a)| = |Phi(a)|, so the negative half-axis
    adds nothing to the norm.
    """
    if a_max <= 0:
        raise ConfigError(f"a_max must be positive, got {a_max}")
    ints = np.arange(0.0, np.floor(a_max) + 1)
    frac = np.append(np.arange(1.0, 16.0) / 16, 1 / 32)
    units = np.arange(0.0, np.ceil(a_max))
    interior = (units[:, None] + frac[None, :]).ravel()
    return np.unique(np.concatenate([ints, interior[interior <= a_max]]))


def default_pairs(path: SamplePath, per_scale: int = 8) -> np.ndarray:
    """Dyadic family of (s, t) node pairs spanning T down to a few grid steps."""
    M, per_scale = path.M, check_int(per_scale, "pairs per scale")
    scales = max(1, int(np.floor(np.log2(max(2, M)))) - 1)
    pairs = set()
    for level in range(scales):
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
    if not np.all(pairs[:, 0] < pairs[:, 1]):  # NaN fails too
        raise ConfigError("every pair needs s < t")
    times, inv = np.unique(pairs.ravel(), return_inverse=True)
    inv = inv.reshape(pairs.shape)
    phi = _phi_at_times(path, a, times)  # (A, n_times)
    dphi = np.abs(phi[:, inv[:, 1]] - phi[:, inv[:, 0]])  # (A, P)
    span = (pairs[:, 1] - pairs[:, 0]) ** gamma
    return a, (dphi / span).max(axis=1)


def estimate_irregularity(path: SamplePath, gamma: float, a_max: float, *,
                          rho_grid=None, a_grid=None,
                          pairs=None) -> list[IrregularityReport]:
    """Sweep rho at fixed gamma, sharing one frequency/pair profile.

    Returns one report per rho, its trend over five cutoffs a_max / 2^j;
    feed them to largest_bounded_rho to read off the biggest exponent
    whose trend stays flat across cutoff doublings. A one-entry rho_grid
    gives the single-rho report.
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
    levels = [a_top / 2 ** j for j in range(4, -1, -1)]
    reports = []
    for rho in rho_grid:
        weighted = (1.0 + a) ** rho * r_star  # >= 0, so 0 is the empty max
        trend = [float(weighted[a <= lv * (1 + 1e-12)].max(initial=0.0))
                 for lv in levels]
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


def largest_bounded_rho(reports: list[IrregularityReport]) -> float | None:
    """Largest swept rho whose trend slope stays below 0.05."""
    return max((rep.rho for rep in reports if trend_slope(rep) < 0.05),
               default=None)
