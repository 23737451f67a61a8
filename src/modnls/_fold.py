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
  * fft: embeds each slot into a (d+1)-array with an integer q axis and
    convolves by zero-padded FFT; real input uses the real transform.

Internal module: resonance.py folds through it, and young.py admits
kernel boxes by its fft_grid size rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import fftn, ifftn, irfftn, next_fast_len, rfftn

from ._runtime import get_workers
from .errors import ConfigError, NumericsError
from .spectral import _sq_norms

_DENSE_OP_LIMIT = 4e7
_FFT_ENTRY_LIMIT = 4e7
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
    return [Slot(v, 1) if j % 2 == 0 else Slot(np.conj(v), -1)
            for j, v in enumerate(values)]


def _geometry(slots: list[Slot], d: int):
    N = (slots[0].values.shape[0] - 1) // 2
    for sl in slots:
        if sl.values.ndim != d or sl.values.shape[0] != 2 * N + 1:
            raise ConfigError("all slots must share dimension and cutoff")
    dn2 = d * N * N
    q_lo = sum(-dn2 for sl in slots if sl.sign < 0)
    q_hi = sum(+dn2 for sl in slots if sl.sign > 0)
    return N, q_lo, q_hi


def _oriented(slot: Slot) -> np.ndarray:
    """Values reindexed by the additive variable m = zeta * n."""
    return slot.values if slot.sign > 0 else np.flip(slot.values)


def fold_dense(slots: list[Slot], d: int) -> FoldResult:
    N, q_lo, q_hi = _geometry(slots, d)
    sq = _sq_norms(d, N)
    all_real = all(not np.iscomplexobj(sl.values) for sl in slots)
    dtype = float if all_real else complex
    acc = np.zeros((1,) + (1,) * d, dtype=dtype)
    acc[(0,) * (d + 1)] = 1.0
    acc_qlo, acc_R = 0, 0
    ops = 0.0
    for sl in slots:
        vals = _oriented(sl)
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
    """Padded q and spatial FFT lengths (Q, P) of an m-slot fold on |n_i| <= N.

    The size rule of every fold: NumericsError when the Q x P^d array
    exceeds _FFT_ENTRY_LIMIT entries.
    """
    Q = next_fast_len(m * d * N * N + 1)
    P = next_fast_len(2 * m * N + 1)
    if Q * P ** d > _FFT_ENTRY_LIMIT:
        raise NumericsError(
            f"fft fold array of {Q} x {P}^{d} entries exceeds the memory budget "
            f"of {_FFT_ENTRY_LIMIT:.0e}; shrink the box")
    return Q, P


def fold_fft(slots: list[Slot], d: int) -> FoldResult:
    N, q_lo, q_hi = _geometry(slots, d)
    m = len(slots)
    q_full = q_hi - q_lo + 1
    s_full = 2 * m * N + 1
    Q, P = fft_grid(m, d, N)
    all_real = all(not np.iscomplexobj(sl.values) for sl in slots)
    shape = (Q,) + (P,) * d
    sq = _sq_norms(d, N)
    dn2 = d * N * N
    spec = None
    for sl in slots:
        vals = _oriented(sl)
        # q offset within the slot: sigma|m|^2 shifted to start at 0
        qi = (sq if sl.sign > 0 else dn2 - sq).ravel()
        embed = np.zeros((dn2 + 1,) + vals.shape,
                         dtype=float if all_real else complex)
        np.add.at(embed.reshape(dn2 + 1, -1), (qi, np.arange(vals.size)),
                  vals.ravel())
        f = (rfftn(embed, s=shape, workers=get_workers()) if all_real
             else fftn(embed, s=shape, workers=get_workers()))
        spec = f if spec is None else spec * f
        del embed, f
    conv = (irfftn(spec, s=shape, workers=get_workers()) if all_real
            else ifftn(spec, workers=get_workers()))
    sl_out = (slice(0, q_full),) + (slice(0, s_full),) * d
    return FoldResult(np.ascontiguousarray(conv[sl_out]), q_lo, m * N, d)


def fold(slots: list[Slot], d: int) -> FoldResult:
    """Dispatch between the dense and fft backends.

    Predicts the dense cost as fold_dense pays it, slot j's nonzero count
    times the accumulator built from the slots before it, and falls back
    to fft when it would blow the budget.
    """
    if len(slots) < 1:
        raise ConfigError("fold needs at least one slot")
    N = _geometry(slots, d)[0]
    est = 0.0
    for j, sl in enumerate(slots):
        nnz = int(np.count_nonzero(sl.values))
        acc_size = (j * d * N * N + 1) * (2 * j * N + 1) ** d
        est += nnz * acc_size
    if est <= _DENSE_OP_LIMIT / 4:
        return fold_dense(slots, d)
    return fold_fft(slots, d)
