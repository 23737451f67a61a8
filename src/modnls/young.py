"""The multilinear operator increment X_{s;t} in Fourier variables.

For factors psi_1..psi_{2k+1} the output coefficient at n is

    X_{s;t}(n) = -i sum_{n = sum_j zeta_j n_j}
                    [Phi_t(Omega) - Phi_s(Omega)] prod_j (J_j psi_j)(n_j)

with zeta_j = +/-1 alternating (odd slots +), J conjugating even slots,
and Omega = |n|^2 - sum_j zeta_j |n_j|^2. Phi increments come from a
precomputed OscillatoryTable. Two exact paths evaluate the sum:

  * tuples: the in-box interaction tuples (n; n_1..n_{2k+1}) are listed
    once per kernel config by resonance's in-box zero-sum scan, with the
    output mode n as its forced slot 0 and the box priced against the
    enumeration budget, as int32 rows (slot indices, output index,
    Omega); each call gathers Phi increments and slot values and sums
    them into the output modes with np.bincount.
  * phases: for an output mode in the box the integer Omega lies in
    [-R, R], R = (k+1) d N^2, so on that range the Phi increment is
    exactly a sum of L >= 2R + 1 equispaced phases e^{i theta_l Omega},
    theta_l = 2 pi l / L, with the DFT of the increments as weights.
    Each phase is one free-Schroedinger conjugation
    U^{-theta} N(U^{theta} psi_1, ..., U^{theta} psi_{2k+1}): the slot
    product is taken in physical space on a padded P^d grid,
    P >= (2k+2) N + 1, and cropped to |n_i| <= N; the sum is one reduction
    over spectral.walk_phases, shared with the fold, so no table is kept.

The phase grid (R, L, P) of _phase_grid sets every kernel size. A box
is admitted iff the phase path's L x P^d entries fit spectral's memory
budget, shared with the fft fold. The rule depends on (d, k, N) alone,
so the solver and the CLI apply it through check_kernel_box before any
Phi table is built; the largest admitted N is 134, 103, 23 and 8 for
(d, k) = (1, 1), (1, 2), (2, 1), (3, 1). A Phi table needs the window
|mu| <= R. d=1, k=1 boxes contract tuples, the faster path there; every
other box sums phases.

With w identically zero every Phi increment equals t - s and X_{s;t}
collapses to -i (t - s) times the plain nonlinearity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.fft import fft, next_fast_len

from .errors import ConfigError, check_int
from .phi import OscillatoryTable
from .resonance import _priced_modes, _zero_sum_scan
from .spectral import (SpectralState, _check_box, _refuse_oversized, hs_norm, random_state,
                       walk_phases, zero_state)

__all__ = ["YoungKernelConfig", "check_kernel_box", "table_mu_max", "x_increment",
           "x_norm_estimate"]

# phase-product entries per summation chunk of the phase path: 2^14 complex
# entries are 256 KB, so a chunk's few arrays stay in a 2 MB L2 cache
_PHASE_CHUNK_ENTRIES = 1 << 14


def check_kernel_box(d: int, k: int, N: int) -> None:
    """ConfigError for a malformed box, NumericsError when its phase grid exceeds the budget."""
    _check_box(d, N, k)
    _, L, P = _phase_grid(d, k, N)
    _refuse_oversized("memory", L * P ** d, f"kernel phase-grid entries ({L} x {P}^{d})")


def table_mu_max(d: int, k: int, N: int) -> int:
    """The Phi-table size rule: a kernel table on the box holds |mu| <= R."""
    _check_box(d, N, k)
    return _phase_grid(d, k, N)[0]


def _phase_grid(d: int, k: int, N: int) -> tuple[int, int, int]:
    """(R, L, P): the in-box |Omega| bound, the phase count and the padded side."""
    R = (k + 1) * d * N * N
    return R, next_fast_len(2 * R + 1), next_fast_len((2 * k + 2) * N + 1)


@dataclass
class YoungKernelConfig:
    """Validated (d, k, N) box plus the Phi table driving the kernel."""

    d: int
    k: int
    N: int
    table: OscillatoryTable
    _tuples: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        d, k, N = self.d, self.k, self.N
        check_kernel_box(d, k, N)
        R = table_mu_max(d, k, N)
        if self.table.mu_max < R:
            raise ConfigError(f"table mu_max={self.table.mu_max} is too small for the mode "
                              f"box; need at least R = (k+1) d N^2 = {R}")
        self._tuples = _tuple_table(d, k, N) if (d, k) == (1, 1) else None

    @property
    def n_factors(self) -> int:
        return 2 * self.k + 1


def _tuple_table(d: int, k: int, N: int) -> np.ndarray:
    """In-box interaction tuples as int32 rows (j_1..j_{2k+1}, output index, Omega).

    The j are flat indices into the slot coefficient arrays. Slot 0 of
    the zero-sum scan is the output mode n, so the mu it yields is Omega.
    """
    frees, _ = _priced_modes((-N, N), 2 * k + 1, d)
    place = (2 * N + 1) ** np.arange(d - 1, -1, -1)
    return np.concatenate([
        np.stack([np.full(n0.shape[0], a), *rows, (n0 + N) @ place, omega]).astype(np.int32)
        for a, rows, n0, omega in _zero_sum_scan(frees, d, (-N, N))], axis=1)


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
    # written in place, not re-validated: an overflow to inf or NaN is
    # left for the solver's blow-up guard to report
    if cfg._tuples is None:
        out.coeffs[...] = -1j * _phase_sum(cfg, dphi, states)
        return out
    *slot_idx, out_idx, omega = cfg._tuples
    # np.take: fancy indexing with int32 indices runs about 2x slower
    terms = np.take(dphi, omega + cfg.table.mu_max)
    for j, (st, idx) in enumerate(zip(states, slot_idx)):
        vals = st.coeffs.ravel() if j % 2 == 0 else np.conj(st.coeffs).ravel()
        terms *= np.take(vals, idx)
    size = out.coeffs.size
    flat = (np.bincount(out_idx, terms.real, size)
            + 1j * np.bincount(out_idx, terms.imag, size))
    out.coeffs[...] = -1j * flat.reshape(out.coeffs.shape)
    return out


def _phase_sum(cfg: YoungKernelConfig, dphi: np.ndarray, states) -> np.ndarray:
    """sum_l c_l e^{i theta_l |n|^2} [prod_j slot_j(theta_l)]^(n) on |n_i| <= N.

    w[Omega mod L] = dPhi(Omega) for |Omega| <= R and c = fft(w) / L give
    dPhi(Omega) = sum_l c_l e^{i theta_l Omega} on every in-box Omega.
    Slot j at theta is the field of U^{theta} psi_j, conjugated on even
    slots; the terms are summed in walk_phases chunk order.
    """
    d, N, mu = cfg.d, cfg.N, cfg.table.mu_max
    R, L, P = _phase_grid(d, cfg.k, N)
    w = np.zeros(L, dtype=complex)
    w[:R + 1] = dphi[mu:mu + R + 1]
    w[L - R:] = dphi[mu - R:mu]
    c = fft(w) / L
    # mode n sits at index n + N of the padded input and, because the
    # product holds one more plain than conjugate field, of the output
    crop = (slice(None),) + (slice(0, 2 * N + 1),) * d
    sources, conj = [st.coeffs for st in states], [j % 2 for j in range(len(states))]
    return sum(walk_phases(sources, conj, L, P, crop,
                           lambda l, phases, F: np.tensordot(c[l], np.conj(phases) * F, axes=1),
                           rows=max(1, _PHASE_CHUNK_ENTRIES // P ** d)))


def x_norm_estimate(cfg: YoungKernelConfig, gamma: float, s: float,
                    trials: int, seed) -> float:
    """Lower bound on the C^gamma L_{2k+1}(H^s) norm from random probes.

    Each trial draws 2k+1 random H^s states and one grid pair (t_1, t_2)
    and evaluates hs_norm(X_{t_1;t_2}) / (|t_2-t_1|^gamma prod_j
    hs_norm(psi_j)); the max over trials is returned. The trial sequence
    is a deterministic function of the seed, so enlarging `trials`
    extends (never reshuffles) the sampled set.
    """
    check_int(trials, "trials")
    if not (0.0 < gamma <= 1.0):
        raise ConfigError(f"gamma must lie in (0, 1], got {gamma}")
    rng = np.random.default_rng(check_int(seed, "seed", 0))
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
