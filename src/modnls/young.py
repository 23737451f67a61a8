"""The multilinear operator increment X_{s;t} in Fourier variables.

For factors psi_1..psi_{2k+1} the output coefficient at n is

    X_{s;t}(n) = -i sum_{n = sum_j zeta_j n_j}
                    [Phi_t(Omega) - Phi_s(Omega)] prod_j (J_j psi_j)(n_j)

with zeta_j = +/-1 alternating (odd slots +), J conjugating even slots,
and Omega = |n|^2 - sum_j zeta_j |n_j|^2. Phi increments come from a
precomputed OscillatoryTable. Two exact paths evaluate the sum:

  * tuples: the in-box interaction tuples (n; n_1..n_{2k+1}) are listed
    once per kernel config as int32 rows (slot indices, output index,
    Omega); each call gathers Phi increments and slot values and sums
    them into the output modes with np.bincount.
  * fold: one q-bucketed convolution (_fold.fold) per call, contracted
    by FoldResult.contract with the Phi increment of each bucket
    Omega = |n|^2 - q.

The config takes the tuple path when its table needs no more bytes than
the complex (q, n) fold table it replaces,
count (2k+3) 4 <= ((2k+1) d N^2 + 1) (2(2k+1)N + 1)^d 16: every d=1,
k=1 box, while k >= 2 or d >= 2 stays on the fold.

With w identically zero every Phi increment equals t - s and X_{s;t}
collapses to -i (t - s) times the plain nonlinearity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._fold import alternating_slots, fold
from .errors import ConfigError
from .phi import OscillatoryTable
from .resonance import _range_modes, _zero_sum_scan
from .spectral import (SpectralState, _check_box, hs_norm, random_state,
                       zero_state)

__all__ = ["YoungKernelConfig", "x_increment", "x_norm_estimate"]

# desk-scale caps on N per (d, k); anything above needs allow_large
_N_CAPS = {(1, 1): 32, (1, 2): 10, (2, 1): 8}
_DEFAULT_CAP = 4


@dataclass
class YoungKernelConfig:
    """Validated (d, k, N) box plus the Phi table driving the kernel."""

    d: int
    k: int
    N: int
    table: OscillatoryTable
    allow_large: bool = False
    _tuples: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        _check_box(self.d, self.N, self.k)
        cap = _N_CAPS.get((self.d, self.k), _DEFAULT_CAP)
        if self.N > cap and not self.allow_large:
            raise ConfigError(
                f"N={self.N} exceeds the desk-scale cap {cap} for (d,k)=({self.d},{self.k}); "
                "pass allow_large=True to override")
        required = (2 * self.k + 2) * self.d * self.N * self.N
        if self.table.mu_max < required:
            raise ConfigError(
                f"table mu_max={self.table.mu_max} is too small for the mode box; "
                f"need at least (2k+2) d N^2 = {required}")
        d, m, N = self.d, self.n_factors, self.N
        tuple_bytes = _tuple_count(d, self.k, N) * (m + 2) * 4
        fold_bytes = (m * d * N * N + 1) * (2 * m * N + 1) ** d * 16
        self._tuples = _tuple_table(d, self.k, N) if tuple_bytes <= fold_bytes else None

    @property
    def n_factors(self) -> int:
        return 2 * self.k + 1


def _tuple_count(d: int, k: int, N: int) -> int:
    """Number of in-box tuples: the per-dimension signed-sum count to the power d.

    Per dimension, the count is the number of (n_1..n_{2k+1}) in
    [-N, N]^{2k+1} whose signed sum lands in [-N, N]; the signs do not
    matter on a symmetric range.
    """
    ones = np.ones(2 * N + 1, dtype=np.int64)
    ways = ones
    for _ in range(2 * k):
        ways = np.convolve(ways, ones)
    centre = (2 * k + 1) * N
    return int(ways[centre - N:centre + N + 1].sum()) ** d


def _tuple_table(d: int, k: int, N: int) -> np.ndarray:
    """In-box interaction tuples as int32 rows (j_1..j_{2k+1}, output index, Omega).

    The j are flat indices into the slot coefficient arrays. Slot 0 of
    the zero-sum scan is the output mode n, so the mu it yields is Omega.
    """
    modes = _range_modes(-N, N, d)
    place = (2 * N + 1) ** np.arange(d - 1, -1, -1)
    blocks = []
    for a, n0, _, omega in _zero_sum_scan([modes] * (2 * k + 1), d):
        hit = np.nonzero(np.all(np.abs(n0) <= N, axis=-1))
        blocks.append(np.stack([np.full(hit[0].size, a), *hit,
                                (n0[hit] + N) @ place, omega[hit]]).astype(np.int32))
    return np.concatenate(blocks, axis=1)


def x_increment(cfg: YoungKernelConfig, s: float, t: float, states) -> SpectralState:
    """X_{s;t}(psi_1, ..., psi_{2k+1}) for table grid times s <= t."""
    if len(states) != cfg.n_factors:
        raise ConfigError(f"need 2k+1 = {cfg.n_factors} factors, got {len(states)}")
    if any((st.d, st.N) != (cfg.d, cfg.N) for st in states):
        raise ConfigError("factor state does not match the kernel box")
    try:
        i_s = cfg.table.index_of_time(s)
        i_t = cfg.table.index_of_time(t)
    except KeyError as exc:
        raise ConfigError(f"kernel times must lie on the table grid: {exc}") from exc
    if i_t < i_s:
        raise ConfigError(f"need s <= t, got s={s}, t={t}")
    out = zero_state(cfg.d, cfg.N)
    if i_s == i_t:
        return out
    dphi = cfg.table.increment(i_s, i_t)
    slots = alternating_slots([st.coeffs for st in states])
    # written in place, not re-validated: an overflow to inf or NaN is
    # left for the solver's blow-up guard to report
    if cfg._tuples is not None:
        *slot_idx, out_idx, omega = cfg._tuples
        # np.take: fancy indexing with int32 indices runs about 2x slower
        terms = np.take(dphi, omega + cfg.table.mu_max)
        for sl, idx in zip(slots, slot_idx):
            terms *= np.take(sl.values.ravel(), idx)
        size = out.coeffs.size
        flat = (np.bincount(out_idx, terms.real, size)
                + 1j * np.bincount(out_idx, terms.imag, size))
        out.coeffs[...] = -1j * flat.reshape(out.coeffs.shape)
        return out
    res = fold(slots, cfg.d).crop_spatial(cfg.N)
    out.coeffs[...] = -1j * res.contract(dphi, cfg.table.mu_max)
    return out


def x_norm_estimate(cfg: YoungKernelConfig, gamma: float, s: float,
                    trials: int, seed) -> float:
    """Lower bound on the C^gamma L_{2k+1}(H^s) norm from random probes.

    Each trial draws 2k+1 random H^s states and one grid pair (t_1, t_2)
    and evaluates hs_norm(X_{t_1;t_2}) / (|t_2-t_1|^gamma prod_j
    hs_norm(psi_j)); the max over trials is returned. The trial sequence
    is a deterministic function of the seed, so enlarging `trials`
    extends (never reshuffles) the sampled set.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if not (0.0 < gamma <= 1.0):
        raise ConfigError(f"gamma must lie in (0, 1], got {gamma}")
    rng = np.random.default_rng(seed)
    t_grid = cfg.table.t_grid
    if t_grid.size < 2:
        raise ConfigError("table grid needs at least two times")
    best = 0.0
    for _ in range(trials):
        psis = [random_state(cfg.d, cfg.N, s, rng) for _ in range(cfg.n_factors)]
        i, j = sorted(rng.choice(t_grid.size, size=2, replace=False))
        inc = x_increment(cfg, float(t_grid[i]), float(t_grid[j]), psis)
        denom = (t_grid[j] - t_grid[i]) ** gamma
        for p in psis:
            denom *= hs_norm(p, s)
        if denom > 0:
            best = max(best, hs_norm(inc, s) / denom)
    return best
