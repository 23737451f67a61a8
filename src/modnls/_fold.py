"""Bucketed multilinear convolution over Z^d.

For slots j = 1..m with dense value arrays v_j on |n| <= N and signs
zeta_j, the fold is

    T[q, n] = sum { prod_j v_j(n_j) :
                    sum_j zeta_j n_j = n,  sum_j zeta_j |n_j|^2 = q }

i.e. an ordinary convolution refined by the signed square-sum q. The q
bucket is what turns resonance-weighted sums (weights depending on
|n|^2 - q) into a single table contraction, FoldResult.contract.

Two backends produce identical tables:
  * dense: explicit shift-accumulate over nonzero slot entries; cheap for
    sparse slots (shells, point masses) and small grids. _dense_cost is its
    work, which both the operation budget and the dispatch (prefers_dense) read.
  * fft: the phase spectra F_l(n) = sum_q T[q, n] e^{-2 pi i l q / Q} are
    products of free-Schroedinger phased slot fields; fold_fft inverts them
    over l.

Every tuple has q = sum_j zeta_j |n_j|^2 = |n|^2 (mod 2), as m^2 = m and
-m = m (mod 2), so T[q, n] vanishes at every q of the other parity. Q is
even, and F_{l+Q/2}(n) = (-1)^{|n|^2} F_l(n): half the phases determine
the rest.

map_phase_chunks maps the F_l through the caller's reduction a chunk of l
at a time on spectral.walk_phases, the kernel's phase walker, so no output
depends on the thread count.

Internal module for resonance.py: dyadic_block_ratio's eq26 reads the fold
table (eq26_mu_sweep sums its classes on the shell scan instead), eq21
contracts each chunk of phase spectra in its task (prefers_dense inputs
excepted), eq27 takes F_0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import ifft, irfft, next_fast_len

from .errors import ConfigError, _is_int
from .spectral import _SIZE_LIMITS, _refuse_oversized, _sq_norms, walk_phases

# table entries per row chunk of FoldResult.contract
_CONTRACT_CHUNK_ENTRIES = 1 << 18


@dataclass
class Slot:
    """One factor of the fold: dense values on |n_i| <= N and its sign."""

    values: np.ndarray
    sign: int

    def __post_init__(self):
        if not _is_int(self.sign) or self.sign not in (+1, -1):
            raise ConfigError(f"slot sign must be +1 or -1, got {self.sign}")
        self.values = np.asarray(self.values)
        side = self.values.shape[0]
        if side % 2 == 0 or any(s != side for s in self.values.shape):
            raise ConfigError("slot array must be a centered cube with odd side")


@dataclass
class FoldResult:
    """Dense fold table indexed [q - q_min, n_1 + N_out, ..., n_d + N_out]."""

    table: np.ndarray
    q_min: int
    N_out: int
    d: int

    @property
    def q_values(self) -> np.ndarray:
        return np.arange(self.q_min, self.q_min + self.table.shape[0])

    def crop_spatial(self, N: int) -> "FoldResult":
        off = self.N_out - N
        sl = (slice(None),) + tuple(slice(off, off + 2 * N + 1) for _ in range(self.d))
        return FoldResult(self.table[sl], self.q_min, N, self.d)

    def contract(self, weight: np.ndarray, offset: int) -> np.ndarray:
        """sum_q weight[|n|^2 - q + offset] T[q, n] for every output mode n.

        q runs in row chunks of at most _CONTRACT_CHUNK_ENTRIES entries,
        so no (Q, n)-sized temporary is built.
        """
        sq = _sq_norms(self.d, self.N_out)
        rows = max(1, _CONTRACT_CHUNK_ENTRIES // sq.size)
        q = self.q_values.reshape((-1,) + (1,) * self.d)
        parts = [(weight[sq - q[lo:lo + rows] + offset]
                  * self.table[lo:lo + rows]).sum(axis=0)
                 for lo in range(0, len(q), rows)]
        return sum(parts[1:], parts[0])


def alternating_slots(values) -> list[Slot]:
    """Slots of signs +, -, +, ... with the even (1-based) slots conjugated."""
    return [Slot(v, 1) if j % 2 == 0 else Slot(v if np.isrealobj(v) else np.conj(v), -1)
            for j, v in enumerate(values)]


def _cutoff(slots: list[Slot], d: int) -> int:
    N = (slots[0].values.shape[0] - 1) // 2
    for sl in slots:
        if sl.values.ndim != d or sl.values.shape[0] != 2 * N + 1:
            raise ConfigError("all slots must share dimension and cutoff")
    return N


def _dense_cost(slots: list[Slot], d: int) -> int:
    """fold_dense's work: slot j's nonzeros times the accumulator before it."""
    N = _cutoff(slots, d)
    return sum(np.count_nonzero(sl.values) * (j * d * N * N + 1) * (2 * j * N + 1) ** d
               for j, sl in enumerate(slots))


def fold_dense(slots: list[Slot], d: int) -> FoldResult:
    _refuse_oversized("operation", _dense_cost(slots, d), "dense fold operations")
    N = _cutoff(slots, d)
    sq = _sq_norms(d, N)
    dtype = float if all(np.isrealobj(sl.values) for sl in slots) else complex
    acc = np.zeros((1,) + (1,) * d, dtype=dtype)
    acc[(0,) * (d + 1)] = 1.0
    acc_qlo, acc_R = 0, 0
    for sl in slots:
        vals = sl.values if sl.sign > 0 else np.flip(sl.values)  # indexed by zeta n
        nz = np.argwhere(vals != 0)
        new_R = acc_R + N
        if sl.sign > 0:
            new_qlo, new_qhi = acc_qlo, acc_qlo + (acc.shape[0] - 1) + d * N * N
        else:
            new_qlo, new_qhi = acc_qlo - d * N * N, acc_qlo + (acc.shape[0] - 1)
        new_shape = (new_qhi - new_qlo + 1,) + (2 * new_R + 1,) * d
        new = np.zeros(new_shape, dtype=dtype)
        for idx in nz:
            m = idx - N
            dq = sl.sign * int(sq[tuple(idx)])
            q0 = (acc_qlo + dq) - new_qlo
            sp = tuple(slice(mi + N, mi + N + 2 * acc_R + 1) for mi in m)
            new[(slice(q0, q0 + acc.shape[0]),) + sp] += acc * vals[tuple(idx)]
        acc, acc_qlo, acc_R = new, new_qlo, new_R
    return FoldResult(acc, acc_qlo, acc_R, d)


def fft_grid(m: int, d: int, N: int, rows: int | None = None) -> tuple[int, int]:
    """(Q, P) of an m-slot fft fold, Q even and above the m d N^2 + 1 values of q;
    NumericsError when its phase grid, or only its first `rows` rows if given,
    exceeds the memory budget."""
    Q, P = 2 * next_fast_len(m * d * N * N // 2 + 1), next_fast_len(2 * m * N + 1)
    rows = Q if rows is None else rows
    _refuse_oversized("memory", rows * P ** d,
                      f"fft fold phase-grid entries ({rows} x {P}^{d})")
    return Q, P


def map_phase_chunks(slots: list[Slot], d: int, reduce, n: int | None = None):
    """reduce(l, F_l) for each walk_phases chunk (one task) of l, in order, where
    F_l(n) = sum_q T[q, n] e^{-2 pi i l q / Q} on the (2mN+1)^d output cube,
    for l < n or by default every l that determines the rest by
    F_{l+Q/2}(n) = (-1)^{|n|^2} F_l(n): l <= Q/4 for real slots, whose
    F_{Q-l} is conj(F_l), else l < Q/2."""
    N, m = _cutoff(slots, d), len(slots)
    Q, P = fft_grid(m, d, N, n)  # priced by the rows it walks when n is given
    real = all(np.isrealobj(sl.values) for sl in slots)
    # a sign -1 slot is the conjugate field of its conjugated values; real
    # values are their own conjugate, so slots sharing an array share a transform
    sources = [sl.values if sl.sign > 0 or real else np.conj(sl.values) for sl in slots]
    conj = [sl.sign < 0 for sl in slots]
    # output mode n sits at index (n + (#plus - #minus) N) mod P
    idx = (np.arange(-m * N, m * N + 1) + sum(sl.sign for sl in slots) * N) % P
    crop = (slice(None),) + np.ix_(*[idx] * d)
    n = (Q // 4 + 1 if real else Q // 2) if n is None else n
    return walk_phases(sources, conj, Q, P, crop, lambda l, phases, F: reduce(l, F), n=n)


def fold_fft(slots: list[Slot], d: int) -> FoldResult:
    """The phase spectra F_l of map_phase_chunks, completed by parity and
    inverted over l."""
    N, m = _cutoff(slots, d), len(slots)
    Q, _ = fft_grid(m, d, N)
    real = all(np.isrealobj(sl.values) for sl in slots)
    spec = np.concatenate(list(map_phase_chunks(slots, d, lambda l, F: F)))
    parity = 1 - 2 * (_sq_norms(d, m * N) % 2)  # (-1)^{|n|^2}
    if real:  # l in (Q/4, Q/2]: F_l = (-1)^{|n|^2} conj(F_{Q/2-l})
        spec = np.concatenate([spec, parity * np.conj(spec[Q // 2 - Q // 4 - 1::-1])])
    else:  # l in [Q/2, Q): F_l = (-1)^{|n|^2} F_{l-Q/2}
        spec = np.concatenate([spec, parity * spec])
    q_lo = -d * N * N * sum(sl.sign < 0 for sl in slots)
    # e^{2 pi i l q_lo / Q} moves row 0 of the inverse to q = q_lo
    ls = np.arange(len(spec)).reshape((-1,) + (1,) * d)
    spec *= np.exp(2j * np.pi / Q * (ls * q_lo % Q))
    table = irfft(spec, Q, axis=0) if real else ifft(spec, axis=0)
    return FoldResult(table[:m * d * N * N + 1], q_lo, m * N, d)


def prefers_dense(slots: list[Slot], d: int) -> bool:
    """fold_dense's cost is a quarter of its budget or less."""
    return _dense_cost(slots, d) <= _SIZE_LIMITS["operation"] / 4


def fold(slots: list[Slot], d: int) -> FoldResult:
    """Dispatch between the dense and fft backends by prefers_dense."""
    return fold_dense(slots, d) if prefers_dense(slots, d) else fold_fft(slots, d)
