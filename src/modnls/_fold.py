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
    sparse slots (shells, point masses) and small grids.
  * fft: sum_q T[q, n] e^{-i theta q} at Q equispaced theta is a product
    of free-Schroedinger phased slot fields (spectral._phase_products, the
    kernel's primitive); one inverse DFT over theta recovers T.

Internal module: resonance.py folds through it for the eq21, eq26 and
eq27 probes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import ifft, irfft, next_fast_len

from ._runtime import get_workers
from .errors import ConfigError, NumericsError
from .spectral import _check_phase_grid, _phase_products, _sq_norms

_DENSE_OP_LIMIT = 4e7
# phase-product entries per theta chunk of fold_fft
_PHASE_CHUNK_ENTRIES = 1 << 18
# table entries per row chunk of FoldResult.contract
_CONTRACT_CHUNK_ENTRIES = 1 << 18


@dataclass
class Slot:
    """One factor of the fold: dense values on |n_i| <= N and its sign."""

    values: np.ndarray
    sign: int

    def __post_init__(self):
        if self.sign not in (+1, -1):
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
        if N > self.N_out:
            raise ConfigError(f"cannot crop to N={N} beyond table extent {self.N_out}")
        off = self.N_out - N
        sl = (slice(None),) + tuple(slice(off, off + 2 * N + 1) for _ in range(self.d))
        return FoldResult(self.table[sl], self.q_min, N, self.d)

    def collapse_q(self) -> np.ndarray:
        """Plain convolution: sum the table over q."""
        return self.table.sum(axis=0)

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


def fold_dense(slots: list[Slot], d: int) -> FoldResult:
    N = _cutoff(slots, d)
    sq = _sq_norms(d, N)
    dtype = float if all(np.isrealobj(sl.values) for sl in slots) else complex
    acc = np.zeros((1,) + (1,) * d, dtype=dtype)
    acc[(0,) * (d + 1)] = 1.0
    acc_qlo, acc_R = 0, 0
    ops = 0.0
    for sl in slots:
        vals = sl.values if sl.sign > 0 else np.flip(sl.values)  # indexed by zeta n
        nz = np.argwhere(vals != 0)
        new_R = acc_R + N
        if sl.sign > 0:
            new_qlo, new_qhi = acc_qlo, acc_qlo + (acc.shape[0] - 1) + d * N * N
        else:
            new_qlo, new_qhi = acc_qlo - d * N * N, acc_qlo + (acc.shape[0] - 1)
        new_shape = (new_qhi - new_qlo + 1,) + (2 * new_R + 1,) * d
        ops += float(len(nz)) * acc.size
        if ops > _DENSE_OP_LIMIT:
            raise NumericsError(
                "dense fold would exceed the operation budget; use the fft backend")
        new = np.zeros(new_shape, dtype=dtype)
        for idx in nz:
            m = idx - N
            dq = sl.sign * int(sq[tuple(idx)])
            q0 = (acc_qlo + dq) - new_qlo
            sp = tuple(slice(mi + N, mi + N + 2 * acc_R + 1) for mi in m)
            new[(slice(q0, q0 + acc.shape[0]),) + sp] += acc * vals[tuple(idx)]
        acc, acc_qlo, acc_R = new, new_qlo, new_R
    return FoldResult(acc, acc_qlo, acc_R, d)


def fft_grid(m: int, d: int, N: int) -> tuple[int, int]:
    """(Q, P) of an m-slot fft fold; NumericsError past the phase-grid budget."""
    Q, P = next_fast_len(m * d * N * N + 1), next_fast_len(2 * m * N + 1)
    _check_phase_grid("fft fold", Q, P, d)
    return Q, P


def fold_fft(slots: list[Slot], d: int) -> FoldResult:
    """F_l(n) = sum_q T[q, n] e^{-2 pi i l q / Q} by phase products, inverted over l."""
    N, m = _cutoff(slots, d), len(slots)
    Q, P = fft_grid(m, d, N)
    real = all(np.isrealobj(sl.values) for sl in slots)
    # a sign -1 slot is the conjugate field of its conjugated values; real
    # values are their own conjugate, so slots sharing an array share a transform
    sources = [sl.values if sl.sign > 0 or real else np.conj(sl.values) for sl in slots]
    conj = [sl.sign < 0 for sl in slots]
    q_lo = -d * N * N * sum(conj)
    # output mode n sits at index (n + (#plus - #minus) N) mod P
    idx = (np.arange(-m * N, m * N + 1) + sum(sl.sign for sl in slots) * N) % P
    crop = (slice(None),) + np.ix_(*[idx] * d)
    ls = np.arange(Q // 2 + 1 if real else Q)
    rows = max(1, _PHASE_CHUNK_ENTRIES // P ** d)
    spec = np.empty((ls.size,) + (idx.size,) * d, dtype=complex)
    for lo in range(0, ls.size, rows):
        turns = np.multiply.outer(ls[lo:lo + rows], _sq_norms(d, N)) % Q
        spec[lo:lo + rows] = _phase_products(sources, conj,
                                             np.exp(-2j * np.pi / Q * turns), P, crop)
    # e^{2 pi i l q_lo / Q} moves row 0 of the inverse to q = q_lo
    spec *= np.exp(2j * np.pi / Q * (ls * q_lo % Q)).reshape((-1,) + (1,) * d)
    table = (irfft(spec, Q, axis=0, workers=get_workers()) if real
             else ifft(spec, axis=0, workers=get_workers()))
    return FoldResult(table[:m * d * N * N + 1], q_lo, m * N, d)


def fold(slots: list[Slot], d: int) -> FoldResult:
    """Dispatch between the dense and fft backends.

    Predicts the dense cost as fold_dense pays it, slot j's nonzero count
    times the accumulator built from the slots before it, and falls back
    to fft when it would blow the budget.
    """
    if len(slots) < 1:
        raise ConfigError("fold needs at least one slot")
    N = _cutoff(slots, d)
    est = 0.0
    for j, sl in enumerate(slots):
        nnz = int(np.count_nonzero(sl.values))
        acc_size = (j * d * N * N + 1) * (2 * j * N + 1) ** d
        est += nnz * acc_size
    if est <= _DENSE_OP_LIMIT / 4:
        return fold_dense(slots, d)
    return fold_fft(slots, d)
