"""Oscillatory integrals Phi_t(a) = int_0^t e^{i a w(r)} dr and irregularity norms.

Because paths are piecewise linear, each segment integrates in closed form:
a segment from (t0, w0) with increment (dt, dw) contributes

    dt * e^{i a (w0 + dw/2)} * sinc(a dw / 2pi),

a midpoint phase times a real amplitude, free of cancellation as a dw -> 0.
Phi at a list of times sums the segments between consecutive requested
times and accumulates only those block sums. There is no quadrature error
anywhere in this module, only splitting logic. An OscillatoryTable holds a
path's nodes and its clock there; its increment between any two times walks
the integer frequencies the kernel reads on the segments between them alone.

The frequencies are walked in increasing |a| (Phi(-a) = conj Phi(a)),
holding per segment G = e^{i a (w0 + dw/2)} and H = e^{i a dw/2}; the
amplitude is dt Im(H) / (a dw/2), and dt where dw = 0. When the gap g to
the previous frequency recurs in the grid (1/32 and 1/16 in default_a_grid,
1 in an increment), the row is two complex multiplies by e^{i g (w0 + dw/2)}
and e^{i g dw/2}, precomputed once per gap, instead of a cos and a sin.
Every 64th row, every row whose gap does not recur, and a = 0 are anchors
evaluated in closed form, so rounding grows over at most 64 steps (at most
about 64 ulp per segment) and an arbitrary grid is all anchors. One cumprod
walks a block of about 2^14 (row, segment) entries: one row of a long clock,
the rows from several anchors of a short one. For |a dw| < pi both terms of
Im(H e^{i g dw/2}) have the sign of dw (g <= a), so the amplitude keeps its
relative accuracy as a dw -> 0 without a Taylor branch.

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
from .spectral import _refuse_oversized

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


# rows of the frequency walk between closed-form anchors, the most distinct
# frequency gaps it keeps per-segment step factors for, and a block's entries
_WALK_ANCHOR_EVERY = 64
_WALK_GAPS = 4
_WALK_BLOCK_ENTRIES = 1 << 14


def _cis(x):
    """e^{ix} for a real array x."""
    out = np.empty(x.shape, dtype=complex)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


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
    consecutive requested times are accumulated. The distinct |a| are
    walked upwards, in blocks of rows (module docstring).
    """
    t_req = np.asarray(times, dtype=float)
    if not np.all((t_req >= 0) & (t_req <= path.T * (1 + 1e-12))):  # NaN too
        raise ValueError("requested times outside the path domain")
    tmax = t_req.max()
    inner = path.t_grid[(path.t_grid > 0) & (path.t_grid < tmax)]
    merged = np.unique(np.concatenate([[0.0], inner, t_req]))
    w = np.interp(merged, path.t_grid, path.values) + path.offset
    pos = np.searchsorted(merged, t_req)
    # block b holds segments bounds[b]..bounds[b+1]-1, none of them empty
    bounds = np.unique(np.concatenate([[0], pos]))
    at = np.searchsorted(bounds, pos)
    a = np.atleast_1d(np.asarray(a_values, dtype=float))
    # w is real, so Phi(-a) = conj(Phi(a)): only the distinct |a| are computed
    freqs, inv = np.unique(np.abs(a), return_inverse=True)
    sums = _block_sums(freqs, np.diff(merged), w, bounds[:-1])
    phi = np.cumsum(sums, axis=1, out=sums)[:, at]
    if freqs.size == a.size and np.array_equal(freqs, a):
        return phi
    phi = phi[inv]
    np.conjugate(phi, out=phi, where=(a < 0)[:, None])
    return phi


def _block_sums(freqs, dt, w, starts):
    """int e^{i a w(r)} dr on the segments starts[b] to starts[b + 1] - 1 (the last
    to the end) of the clock w at segment ends, for sorted distinct a >= 0, in
    columns 1.. of an (A, len(starts) + 1) array (module docstring)."""
    dw = w[1:] - w[:-1]
    mid, half = w[:-1] + 0.5 * dw, 0.5 * dw
    # dt sin(x)/x = Im e^{ix} (dt / half) / a at x = a half; flat segments take dt
    flat = np.flatnonzero(half == 0)
    scale = np.divide(dt, half, out=np.zeros_like(dt), where=half != 0)
    gap = np.concatenate([[np.nan], freqs[1:] - freqs[:-1]])
    vals, counts = np.unique(gap[1:], return_counts=True)
    kept = [i for i in np.argsort(-counts, kind="stable")[:_WALK_GAPS] if counts[i] > 1]
    # each row's slot: its gap's step factors, or the last, zeros, for an anchor
    # (or a padding row)
    factors = np.zeros((len(kept) + 1, 2, mid.size), dtype=complex)
    for j, v in enumerate(vals[kept]):
        factors[j, 0], factors[j, 1] = _cis(v * mid), _cis(v * half)
    slot = np.full(vals.size + 1, len(kept))
    slot[kept] = range(len(kept))
    slot = slot[np.searchsorted(vals, np.append(gap, [np.nan] * _WALK_ANCHOR_EVERY))]
    # pieces of at most `per` rows from each anchor; a block stacks pieces of one length
    per = max(1, _WALK_BLOCK_ENTRIES // max(1, dt.size))
    walked = (np.arange(freqs.size) % _WALK_ANCHOR_EVERY > 0) & (slot[:freqs.size] < len(kept))
    anchors = np.flatnonzero(~walked).tolist() + [freqs.size]
    edges = [e for r, q in zip(anchors, anchors[1:]) for e in range(r, q, per)] + [freqs.size]
    sums = np.zeros((freqs.size, len(starts) + 1), dtype=complex)
    b = 0
    while b < len(edges) - 1:
        lo, size, m = edges[b], edges[b + 1] - edges[b], 1
        while (size <= per // (m + 1) and not walked[lo] and b + m + 1 < len(edges)
               and (edges[b + m + 1] - edges[b + m] == size  # or the last, shorter, padded
                    or freqs.size == edges[b + m + 1] < edges[b + m] + size)):
            m += 1
        hi, b = min(lo + m * size, freqs.size), b + m
        if walked[lo]:  # the head row on from the row before, in place
            g *= factors[slot[lo], 0]
            h *= factors[slot[lo], 1]
            G, H = g, h
        else:
            G, H = (_cis(np.multiply.outer(freqs[lo:hi:size], mid)),
                    _cis(np.multiply.outer(freqs[lo:hi:size], half)))
        if size > 1:  # then each row the one before times its factors: one cumprod
            step = factors[slot[lo:lo + m * size]].reshape(m, size, 2, -1)
            step[:, 0, 0], step[:, 0, 1] = G, H
            rows = np.cumprod(step, axis=1, out=step).reshape(-1, 2, mid.size)[:hi - lo]
            G, H = rows[:, 0], rows[:, 1]
        g, h = (G[-1], H[-1]) if G.ndim > 1 else (G, H)
        amp = H.imag * scale
        if flat.size:
            amp[..., flat] = freqs[lo:hi, None] * dt[flat]
        if lo == 0 and not freqs[0]:  # a = 0: x = 0 on every segment
            amp[0] = dt
        sums[lo:hi, 1:] = np.add.reduceat(G * amp, starts, -1)
    sums[:, 1:] /= np.where(freqs, freqs, 1.0)[:, None]
    return sums


@dataclass
class OscillatoryTable:
    """A path's nodes t_i and clock w(t_i), for Phi increments at |mu| <= mu_max."""

    t_grid: np.ndarray
    mu_max: int
    clock: np.ndarray  # w(t_i), offset included; linear between nodes

    def segments(self, s: float, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(dt, w) for 0 <= s <= t <= T: the lengths of the clock's segments from s
        to t and the clock at their ends, the nodes strictly inside plus s and t."""
        g = self.t_grid
        inner = slice(np.searchsorted(g, s, "right"), np.searchsorted(g, t, "left"))
        ends = np.interp([s, t], g, self.clock)
        return (np.diff(np.concatenate([[s], g[inner], [t]])),
                np.concatenate([ends[:1], self.clock[inner], ends[1:]]))

    def increment(self, s: float, t: float, mu_max: int | None = None) -> np.ndarray:
        """Phi_{t}(mu) - Phi_{s}(mu) for |mu| <= mu_max (the table's by default), index
        mu + mu_max, integrated on the clock's segments from s to t."""
        mu = self.mu_max if mu_max is None else mu_max
        pos = _block_sums(np.arange(mu + 1.0), *self.segments(s, t), [0])[:, 1]
        return np.concatenate([np.conj(pos[:0:-1]), pos])


def build_phi_table(path: SamplePath, mu_max: int) -> OscillatoryTable:
    """The table of a path for Phi increments at |mu| <= mu_max: its nodes and
    clock, O(M); each increment integrates its own segments when asked."""
    return OscillatoryTable(t_grid=path.t_grid.copy(), mu_max=check_int(mu_max, "mu_max", 0),
                            clock=path.values + path.offset)


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
    if not 0 < a_max < np.inf:  # NaN too
        raise ConfigError(f"a_max must be positive and finite, got {a_max}")
    _refuse_oversized("memory", 17 * np.ceil(a_max) + 1,
                      f"frequency grid points (a_max {a_max})", "lower a_max (--amax)")
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
    if not np.all(rho_grid >= 0):  # NaN too
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
