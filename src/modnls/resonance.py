"""Resonance classes A(mu) and desk-scale convolution-estimate probes.

A(mu) collects the integer tuples (n_0, ..., n_{2k+1}) with alternating
sums n_0 - n_1 + ... - n_{2k+1} = 0 and |n_0|^2 - |n_1|^2 + ... -
|n_{2k+1}|^2 = mu; the classes partition the zero-sum set. The
estimators here (ids eq21, eq26, eq27) sample nonnegative test
sequences, evaluate both sides of the corresponding weighted
convolution bound exactly (eq21 and eq27 on the fold's phase spectra,
eq26 on its in-shell scan, or on the fold's q-bucketed table in
dyadic_block_ratio), and report the worst observed LHS/RHS ratio. They
probe boundedness; they prove nothing.

Every enumeration (enumerate_A, verify_counting_partition and the eq26
shell scan) is one in-box zero-sum scan,
_zero_sum_scan: n_0 is forced by the linear constraint, and the scan
yields only the tuples whose n_0 lies in slot 0's box, as index rows
into the other slots' mode lists. Each has one size rule: the product of
its slot mode counts, the number of candidate tuples it visits, must fit
spectral's enumeration budget. It is priced from the box bounds or shell
counts, and refused with NumericsError before any mode list is built.
The eq26 shell scan also sums every trial's lhs on every class as it
goes, so eq26_mu_sweep never folds; its arrays grow with the trials and
are priced against the memory budget before any profile is drawn.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import asdict, dataclass
from functools import cache
from math import isqrt, prod

import numpy as np

from ._fold import (alternating_slots, fft_grid, fold, fold_dense, map_phase_chunks,
                    prefers_dense)
from .errors import ConfigError, NumericsError, _is_int, check_int
from .spectral import _check_box, _cube_modes, _refuse_oversized, _sq_norms

__all__ = [
    "CountingReport",
    "EstimateReport",
    "enumerate_A",
    "verify_counting_partition",
    "eq21_ratio",
    "estimate_ratio_eq21",
    "dyadic_block_ratio",
    "eq26_mu_sweep",
]


def _box_range(box, d: int, k: int) -> tuple[int, int]:
    """The (lo, hi) coordinate range of every slot, once d and k are checked: a box
    is a half-width b >= 0, meaning (-b, b), or one (lo, hi) pair; lo > hi is empty."""
    check_int(d, "dimension d")
    check_int(k, "nonlinearity index k")
    if isinstance(box, (tuple, list)) and len(box) == 2:
        return tuple(check_int(v, "box bound", None) for v in box)
    b = check_int(box, "box half-width", 0)
    return -b, b


def _priced_modes(box, slots: int, d: int) -> tuple[list[np.ndarray], int]:
    """The mode list of the range box = (lo, hi), once per slot, and the candidate
    count (hi - lo + 1)^(d slots), priced against the enumeration budget first."""
    lo, hi = box
    total = max(0, hi - lo + 1) ** (d * slots)
    _refuse_oversized("enumeration", total, "candidate tuples")
    return [_cube_modes(d, lo, hi)] * slots, total


def _zero_sum_scan(frees: list[np.ndarray], d: int, box0):
    """Walk the zero-sum tuples over mode lists for slots 1..2k+1 whose forced
    mode n_0 = n_1 - n_2 + ... + n_{2k+1} lies in slot 0's box (lo, hi).

    Slot 1 is a loop over its modes a; slots 2..2k+1 broadcast, slot i
    carrying sign (-1)^i. Yields (a, rows, n0, mu) for the in-box tuples:
    rows indexes slots 2..2k+1 in C order of their broadcast shape, n0 is
    (count, d) and mu the alternating square sum of each tuple.
    """
    lo0, hi0 = box0
    rest = frees[1:]
    # coordinate-major (d, *shape): the in-box test reduces over contiguous planes
    sum_rest = np.zeros((d,) + tuple(f.shape[0] for f in rest), dtype=np.int64)
    sq_rest = np.zeros(sum_rest.shape[1:], dtype=np.int64)
    for j, f in enumerate(rest):
        sgn = 1 if j % 2 == 0 else -1
        view = (1,) * j + (f.shape[0],) + (1,) * (len(rest) - 1 - j)
        sum_rest = sum_rest + sgn * f.T.reshape((d,) + view)
        sq_rest = sq_rest + sgn * (f ** 2).sum(axis=1).reshape(view)
    f1 = frees[0]
    sq1 = (f1 ** 2).sum(axis=1)
    for a in range(f1.shape[0]):
        n0 = f1[a].reshape((d,) + (1,) * len(rest)) - sum_rest
        rows = np.nonzero(np.all((n0 >= lo0) & (n0 <= hi0), axis=0))
        n0 = n0[(slice(None),) + rows]
        yield a, rows, n0.T, (n0 ** 2).sum(axis=0) - sq1[a] + sq_rest[rows]


def _checked_class(modes: np.ndarray, mu: int) -> np.ndarray:
    """modes, a (count, 2k+2, d) integer array, after checking every row is in A(mu)."""
    modes = np.asarray(modes, dtype=int)
    sig = np.where(np.arange(modes.shape[1]) % 2, -1, 1)
    if np.any(np.einsum("s,tsd->td", sig, modes)):
        raise ConfigError("tuple violates the alternating zero-sum constraint")
    if np.any((modes ** 2).sum(axis=2) @ sig != mu):
        raise ConfigError("tuple violates the alternating square-sum constraint")
    return modes


def enumerate_A(mu: int, box, d: int, k: int) -> np.ndarray:
    """The tuples of A(mu) inside the box (a half-width or one (lo, hi) pair) as a
    (count, 2k+2, d) array, n_0 eliminated via the linear constraint."""
    mu = check_int(mu, "mu", None)
    box = _box_range(box, d, k)
    frees, _ = _priced_modes(box, 2 * k + 1, d)
    blocks = [np.zeros((0, 2 * k + 2, d), dtype=int)]
    for a, rows, n0, muv in _zero_sum_scan(frees, d, box):
        hit = muv == mu
        n0 = n0[hit]
        blocks.append(np.stack([n0, np.broadcast_to(frees[0][a], n0.shape)]
                               + [f[r[hit]] for f, r in zip(frees[1:], rows)], axis=1))
    return _checked_class(np.concatenate(blocks), mu)


@dataclass
class CountingReport:
    """Partition check of the zero-sum set by the classes A(mu)."""

    d: int
    k: int
    bounds: list
    total_tuples: int
    zero_sum_count: int
    mu_values: np.ndarray
    mu_counts: np.ndarray
    max_membership: int
    cross_checked: int
    cross_check_ok: bool

    @property
    def identity_holds(self) -> bool:
        return (self.cross_check_ok
                and int(self.mu_counts.sum()) == self.zero_sum_count
                and (self.zero_sum_count == 0 or self.max_membership == 1))

    def to_json_dict(self) -> dict:
        return {
            "d": self.d, "k": self.k,
            "bounds": [list(b) for b in self.bounds],
            "total_tuples": self.total_tuples,
            "zero_sum_count": self.zero_sum_count,
            "mu_values": [int(v) for v in self.mu_values],
            "mu_counts": [int(v) for v in self.mu_counts],
            "max_membership": self.max_membership,
            "cross_checked": self.cross_checked,
            "cross_check_ok": self.cross_check_ok,
            "identity_holds": self.identity_holds,
        }


def verify_counting_partition(box, d: int, k: int) -> CountingReport:
    """Check every zero-sum tuple lies in exactly one A(mu), non-zero-sum in none.

    Prices the full box product (all 2k+2 slots free) against the
    candidate budget and counts the zero-sum tuples, the scan's in-box
    rows, per mu; enumerate_A re-derives the counts of a sample of classes
    independently as a cross-check, and max_membership is the most times
    any one tuple is listed across the checked classes.
    """
    box = _box_range(box, d, k)
    slots_modes, total = _priced_modes(box, 2 * k + 2, d)
    mus = [muv for *_, muv in _zero_sum_scan(slots_modes[1:], d, box)]
    mu_values, mu_counts = np.unique(np.concatenate([np.zeros(0, dtype=int)] + mus),
                                     return_counts=True)
    # independent recount of a sample of classes through enumerate_A
    if mu_values.size <= 40:
        picks = np.arange(mu_values.size)
    else:
        picks = np.unique(np.linspace(0, mu_values.size - 1, 25).astype(int))
    found = [enumerate_A(mu_values[i], box, d, k) for i in picks]
    ok = all(len(f) == mu_counts[i] for f, i in zip(found, picks))
    listed = np.concatenate([np.zeros((0, 2 * k + 2, d), dtype=int)] + found)
    _, times = np.unique(listed, axis=0, return_counts=True)
    return CountingReport(
        d=d, k=k, bounds=[box] * (2 * k + 2), total_tuples=total,
        zero_sum_count=int(mu_counts.sum()), mu_values=mu_values,
        mu_counts=mu_counts, max_membership=int(times.max(initial=0)),
        cross_checked=len(picks), cross_check_ok=ok)


@dataclass
class EstimateReport:
    """Worst observed LHS/RHS ratio for one estimate id over sampled inputs."""

    estimate_id: str
    parameters: dict
    lhs: float
    rhs: float
    ratio: float
    trials: int
    max_ratio_over_trials: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def _weighted_norm(vals: np.ndarray, nsq: np.ndarray, sigma: float) -> float:
    return float(np.sqrt(np.sum((1.0 + nsq) ** sigma * np.abs(vals) ** 2)))


def _eq21_weight(d: int, k: int, N: int, rho: float):
    """<Omega>^(-rho) over the Omega = |n|^2 - q of the full fold, and its offset."""
    dn2 = d * N * N
    omega = np.arange(-(k + 1) * dn2, ((2 * k + 1) ** 2 + k) * dn2 + 1)
    return (1.0 + omega.astype(float) ** 2) ** (-rho / 2.0), (k + 1) * dn2


def _eq21_kernel(d: int, k: int, N: int, rho: float):
    """K[l, i] = (2 c_l / Q) sum_{q = r_i (mod 2)} W(r_i - q) e^{2 pi i l q / Q} for
    l <= Q/4 (c_l = 1 at l = 0, Q/4, else 2) over the distinct |n|^2 = r_i of the
    cube, those with r_i + offset odd last; where[n] = i. T[q, n] vanishes off
    q = |n|^2 (mod 2), so K is a length-Q/2 transform on that sublattice."""
    weight, offset = _eq21_weight(d, k, N, rho)
    Q, _ = fft_grid(2 * k + 1, d, N)
    r, where = np.unique(_sq_norms(d, (2 * k + 1) * N), return_inverse=True)
    b = (r + offset) % 2
    order = np.argsort(b, kind="stable")
    r, b, where = r[order], b[order], np.argsort(order)[where]
    # row u holds W(r - q) at q = offset - b - 2u, the weight index r + b + 2u,
    # which has the parity of offset
    cols = (r + b - offset % 2) // 2
    win = np.lib.stride_tricks.sliding_window_view(
        weight[offset % 2::2], cols.max() + 1)[:Q // 2, cols]
    K = np.fft.rfft(win, Q // 2, axis=0)
    l = np.arange(len(K))[:, None]
    K *= (2.0 - (l == 0) - (4 * l == Q)) * 2 / Q * np.exp(2j * np.pi / Q * (l * offset % Q))
    K[:, np.count_nonzero(b == 0):] *= np.exp(-2j * np.pi / Q * l)  # e^{-2 pi i l b / Q}
    return K, where.reshape((2 * (2 * k + 1) * N + 1,) * d)


def _eq21_phase(slots, d: int, K: np.ndarray, where: np.ndarray) -> np.ndarray:
    """t_rho(n) = Re sum_{l <= Q/4} F_l(n) K[l, |n|^2]: F_l K[l] repeats at l + Q/2,
    and c_l counts F_{Q/2-l} K[Q/2-l] = conj(F_l K[l])."""
    return sum(map_phase_chunks(
        slots, d, lambda l, F: np.einsum("i...,i...", F, np.take(K[l], where, axis=1)).real))


def eq21_ratio(psis: list[np.ndarray], d: int, k: int, rho: float, s: float,
               s_prime: float, q: int, kernel=None):
    """(lhs, rhs, ratio) of the eq21 bound for given nonnegative profiles.

    psis are 2k+1 arrays on the (2N+1)^d cube. The output mode is not
    truncated: the lhs norm runs over the full fold extent (2k+1)N.
    Dense-fold inputs (prefers_dense) keep the table; others use K from `kernel()` if given.
    """
    check_int(d, "dimension d")
    m = 2 * check_int(k, "nonlinearity index k") + 1
    if len(psis) != m:
        raise ConfigError(f"need {m} test sequences, got {len(psis)}")
    if not _is_int(q) or not 1 <= q <= m:
        raise ConfigError(f"need 1 <= q <= {m}, got q={q}")
    psis = [np.asarray(p, dtype=float) for p in psis]
    if any(p.shape != psis[0].shape for p in psis):
        raise ConfigError("test sequences must share one cube")
    if not all(np.isfinite(p).all() for p in psis):
        raise ConfigError("test sequences must be finite")
    if any(p.min() < 0 for p in psis):
        raise ConfigError("test sequences must be nonnegative")
    N = (psis[0].shape[0] - 1) // 2
    slots = alternating_slots(psis)
    if prefers_dense(slots, d):
        t_rho = fold_dense(slots, d).contract(*_eq21_weight(d, k, N, rho))
    else:
        t_rho = _eq21_phase(slots, d, *(kernel() if kernel else _eq21_kernel(d, k, N, rho)))
    nsq_out = _sq_norms(d, m * N)
    nsq = _sq_norms(d, N)
    lhs = _weighted_norm(t_rho, nsq_out, s_prime)
    rhs = _weighted_norm(psis[q - 1], nsq, s_prime)
    for j in range(1, m + 1):
        if j != q:
            rhs *= _weighted_norm(psis[j - 1], nsq, s)
    if rhs == 0:
        raise ConfigError("test sequences must not vanish identically")
    return lhs, rhs, lhs / rhs


def _eq21_candidates(d: int, N: int, s: float, m: int) -> list[list[np.ndarray]]:
    """Deterministic adversarial inputs evaluated identically at every N.

    Borderline-decay profiles, full cubes, balls, and sphere shells
    approach the extremal ratio much faster than random draws, and keep
    the reported maxima comparable across N doublings.
    """
    nsq = _sq_norms(d, N)
    singles = [(1.0 + nsq) ** (-(s + d / 2) / 4.0),
               (1.0 + nsq) ** (-(s + d / 2) / 2.0),
               np.ones(nsq.shape)]
    for frac in (0.25, 0.5, 1.0):
        r2 = max(1, int(frac * N * N))
        singles.append((nsq <= r2).astype(float))
    for frac in (0.5, 1.0, 2.0):
        r2 = max(1, int(frac * N * N))
        shell = ((nsq >= r2 - N) & (nsq <= r2)).astype(float)
        if shell.any():
            singles.append(shell)
    return [[v] * m for v in singles]


def _eq21_profile(rng: np.random.Generator, d: int, N: int, s: float) -> np.ndarray:
    """Nonnegative sample: |Gaussian| with decay, a sphere shell, or point masses."""
    nsq = _sq_norms(d, N)
    kind = int(rng.integers(0, 3))
    if kind == 0:
        decay = s + d / 2 + float(rng.uniform(0.01, 1.0))
        vals = np.abs(rng.standard_normal(nsq.shape)) * (1.0 + nsq) ** (-decay / 2)
    elif kind == 1:
        r2 = int(rng.integers(0, d * N * N + 1))
        width = float(rng.uniform(0.0, max(1.0, N / 2.0)))
        vals = ((nsq >= r2 - width) & (nsq <= r2 + width)).astype(float)
    else:
        vals = np.zeros(nsq.shape)
        flat = vals.reshape(-1)
        flat[rng.integers(0, flat.size, size=int(rng.integers(1, 4)))] = 1.0
    if not vals.any():
        vals.reshape(-1)[int(rng.integers(0, vals.size))] = 1.0
    return vals


def estimate_ratio_eq21(d: int, k: int, rho: float, s: float, s_prime: float,
                        q: int, N: int, trials: int, seed) -> EstimateReport:
    """Max LHS/RHS ratio of the eq21 bound over random nonnegative sequences."""
    _check_box(d, N, k)
    fft_grid(2 * k + 1, d, N)  # trial 0 has full support and runs on phases
    check_int(trials, "trials")
    seed = check_int(seed, "seed", 0)
    if (d, k) == (1, 1):
        raise ConfigError("(d, k) = (1, 1) is outside the proven range")
    if not 0.0 <= rho <= 1.0:
        raise ConfigError(f"need 0 <= rho <= 1, got {rho}")
    if s <= d / 2 - rho / k:
        raise ConfigError(
            f"need s > d/2 - rho/k = {d / 2 - rho / k}, got s={s}")
    if not -s <= s_prime <= s:
        raise ConfigError(f"need -s <= s_prime <= s, got s_prime={s_prime}")
    rng = np.random.default_rng(seed)
    candidates = _eq21_candidates(d, N, s, 2 * k + 1)
    kernel = cache(lambda: _eq21_kernel(d, k, N, rho))  # built by the first phase trial
    best = (-1.0, 0.0, 0.0)
    for t in range(trials):
        if t < len(candidates):
            psis = candidates[t]
        else:
            psis = [_eq21_profile(rng, d, N, s) for _ in range(2 * k + 1)]
        lhs, rhs, ratio = eq21_ratio(psis, d, k, rho, s, s_prime, q, kernel)
        if ratio > best[0]:
            best = (ratio, lhs, rhs)
    params = {"d": d, "k": k, "rho": rho, "s": s, "s_prime": s_prime,
              "q": q, "N": N, "seed": seed}
    return EstimateReport("eq21", params, best[1], best[2], best[0],
                          trials, best[0])


def _dyadic_setup(blocks, d: int, k: int):
    """Validated blocks, Bmax, |n|^2 on the (2 Bmax + 1)^d cube (priced first), shells."""
    blocks = tuple(check_int(b, "dyadic block N_j") for b in blocks)
    if len(blocks) != 2 * k + 2:
        raise ConfigError(f"need {2 * k + 2} dyadic blocks, got {len(blocks)}")
    for b in blocks:
        if b & (b - 1):
            raise ConfigError(f"blocks must be powers of two, got {b}")
    Bmax = isqrt(4 * max(blocks) ** 2 - 2)
    _check_box(d, Bmax, k)
    _refuse_oversized("memory", (2 * Bmax + 1) ** d, "dyadic block cube entries")
    nsq = _sq_norms(d, Bmax)
    masks = [(nsq >= b * b - 1) & (nsq <= 4 * b * b - 2) for b in blocks]
    return blocks, Bmax, nsq, masks


def _block_mus(estimate: str, mu) -> list[int] | None:
    """The mus argument of _block_lhs: None for eq27, [mu] for eq26, which needs a mu."""
    if estimate not in ("eq26", "eq27"):
        raise ConfigError(f"unknown estimate id {estimate!r}")
    if estimate == "eq26" and mu is None:
        raise ConfigError("eq26 needs an integer mu")
    return None if estimate == "eq27" else [mu]


def _block_lhs(psis, nsq: np.ndarray, Bmax: int, d: int, k: int, mus) -> list[float]:
    """The per-trial core of the block probes: [eq27 lhs] when mus is None, else the
    eq26 lhs sum_n psi0(n) T[|n|^2 - mu, n] on A(mu) for each mu in mus."""
    slots = alternating_slots(psis[1:])
    if mus is None:
        F, = map_phase_chunks(slots, d, lambda l, F: F, n=1)  # the plain convolution
        off = 2 * k * Bmax
        return [float((psis[0] * F[(0,) + (slice(off, -off),) * d].real).sum())]
    res = fold(slots, d).crop_spatial(Bmax)
    Q = res.table.shape[0]
    tab = res.table.reshape(Q, -1)
    flat = psis[0].ravel()
    out = []
    for mu in mus:
        qidx = nsq.ravel() - mu - res.q_min
        cols = np.flatnonzero((qidx >= 0) & (qidx < Q))
        out.append(float((flat[cols] * tab[qidx[cols], cols]).sum()))
    return out


def _block_rhs(blocks, s: float, psis=()) -> float:
    """N_max^(-2s) prod_j N_j^s prod_j |psi_j|_2: the eq26/eq27 right-hand side."""
    rhs = float(max(blocks)) ** (-2.0 * s)
    for b in blocks:
        rhs *= float(b) ** s
    for p in psis:
        rhs *= float(np.sqrt((p ** 2).sum()))
    return rhs


def _price_shell_scan(masks, nsq, trials: int) -> tuple[int, int]:
    """The dense mu range (mu_lo, mu_hi) that the shells' |n|^2 windows allow, each
    clipped at the largest |n_i|^2 that the zero-sum constraint leaves it, once
    the in-shell scan is priced: its candidate tuples (the product of the shell
    counts of slots 1..2k+1) against the enumeration budget, and its arrays of
    trials + 1 columns (profiles on the cube, one slot-1 row's gather over slots
    2..2k+1, the per-mu sums) against the memory budget."""
    # Python ints: a product of int64 shell counts can wrap
    counts = [int(np.count_nonzero(m)) for m in masks]
    _refuse_oversized("enumeration", prod(counts[1:]), "candidate tuples")
    win = [(int(nsq[m].min()), int(nsq[m].max())) for m in masks]
    reach = [isqrt(hi) + 1 for _, hi in win]  # |n_i| <= sum_{j != i} |n_j| < sum of reach_j
    win = [(lo, min(hi, (sum(reach) - r) ** 2)) for (lo, hi), r in zip(win, reach)]
    mu_lo = sum(-hi if j % 2 else lo for j, (lo, hi) in enumerate(win))
    mu_hi = sum(-lo if j % 2 else hi for j, (lo, hi) in enumerate(win))
    _refuse_oversized("memory", (trials + 1) * max(len(masks) * nsq.size, prod(counts[2:]),
                                                   mu_hi - mu_lo + 1),
                      f"eq26 scan entries ({trials} trials + 1 count column)",
                      "use fewer trials or smaller blocks")
    return mu_lo, mu_hi


def _shell_witnesses(masks, nsq, Bmax: int, d: int, k: int, profiles=()):
    """(mus, lhs): the sorted mu whose class A(mu) has a member with every slot on
    its shell, and lhs[t, i] = sum prod_j psi_j(n_j) over those members of A(mus[i])
    for each trial's profiles psi_0..psi_{2k+1} (a (0, classes) array without).

    One in-shell scan, priced by _price_shell_scan before any mode list is
    built: each slot-1 row gathers the profiles, under a row of ones that
    counts the members, at n_0 and at every slot's shell index, multiplies
    them, and bincounts each row into the dense mu range. No tuple is kept.
    """
    mu_lo, mu_hi = _price_shell_scan(masks, nsq, len(profiles))
    modes_cube = _cube_modes(d, -Bmax, Bmax)
    frees = [modes_cube[m.ravel()] for m in masks[1:]]
    # per slot, (1 + trials, entries): ones, then each trial's values; slot 0
    # on the whole cube, indexed by n_0's flat index, the others on their shells
    vals = [np.stack([np.ones(np.count_nonzero(m) if j else m.size)]
                     + [p[j][m] if j else p[j].ravel() for p in profiles])
            for j, m in enumerate(masks)]
    strides = (2 * Bmax + 1) ** np.arange(d - 1, -1, -1)
    on0 = masks[0].ravel()
    acc = np.zeros((len(vals[0]), max(0, mu_hi - mu_lo + 1)))  # none if a window is empty
    for a, rows, n0, muv in _zero_sum_scan(frees, d, (-Bmax, Bmax)):
        flat = strides @ (n0.T + Bmax)
        keep = np.flatnonzero(on0[flat])
        if not keep.size:
            continue
        term = vals[0].take(flat[keep], axis=1)
        term *= vals[1][:, a, None]
        for v, r in zip(vals[2:], rows):
            term *= v.take(r[keep], axis=1)
        muv = muv[keep]
        lo = muv.min()
        muv -= lo
        for row, t in zip(acc, term):
            part = np.bincount(muv, t)
            row[lo - mu_lo:lo - mu_lo + len(part)] += part
    hit = np.flatnonzero(acc[0])
    return hit + mu_lo, acc[1:, hit]


def _shell_profile(rng: np.random.Generator, mask: np.ndarray) -> np.ndarray:
    return np.abs(rng.standard_normal(mask.shape)) * mask


def dyadic_block_ratio(estimate: str, blocks, mu: int | None, d: int, k: int,
                       s: float, trials: int, seed) -> EstimateReport:
    """Max LHS/RHS ratio of the eq26 or eq27 bound on dyadic block shells.

    For eq26, odd trials take the closed-form ratio (lhs 1, no random draw)
    of point masses on a witness tuple of the requested mu when the budgeted
    witness scan finds one, so sweeps over mu share a common floor. Other
    trials, and all eq27 trials, use |Gaussian| shell profiles.
    """
    mu = None if mu is None else check_int(mu, "mu", None)
    mus = _block_mus(estimate, mu)
    check_int(trials, "trials")
    seed = check_int(seed, "seed", 0)
    blocks, Bmax, nsq, masks = _dyadic_setup(blocks, d, k)
    rng = np.random.default_rng(seed)
    witness = False
    if mus:
        with suppress(NumericsError):  # over budget: run on without a witness
            witness = mus[0] in _shell_witnesses(masks, nsq, Bmax, d, k)[0]
    best = (-1.0, 0.0, 0.0)
    for t in range(trials):
        if witness and t % 2 == 1:
            rhs = _block_rhs(blocks, s)
            lhs, ratio = 1.0, 1.0 / rhs
        else:
            psis = [_shell_profile(rng, m) for m in masks]
            lhs, = _block_lhs(psis, nsq, Bmax, d, k, mus)
            rhs = _block_rhs(blocks, s, psis)
            ratio = lhs / rhs
        if ratio > best[0]:
            best = (ratio, lhs, rhs)
    params = {"blocks": list(blocks), "mu": mu,
              "d": d, "k": k, "s": s, "seed": seed}
    return EstimateReport(estimate, params, best[1], best[2], best[0],
                          trials, best[0])


def eq26_mu_sweep(blocks, d: int, k: int, s: float, trials: int, seed) -> dict:
    """Per-mu max eq26 ratios over all attainable mu on fixed blocks.

    Draws every trial's shell profiles, then one in-shell scan
    (_shell_witnesses) finds the attainable mu and sums each trial's lhs
    on every class; nothing is folded. Every attainable mu also gets its
    exact point-mass witness ratio, so the per-mu maxima share a common
    floor. Returns mu values, ratios, and their max/min spread. A scan
    over the enumeration budget, or whose trials' arrays exceed the
    memory budget, raises its NumericsError before any profile is drawn.
    """
    trials, seed = check_int(trials, "trials"), check_int(seed, "seed", 0)
    blocks, Bmax, nsq, masks = _dyadic_setup(blocks, d, k)
    _price_shell_scan(masks, nsq, trials)  # before any profile is drawn
    rng = np.random.default_rng(seed)
    profiles = [[_shell_profile(rng, m) for m in masks] for _ in range(trials)]
    attained, lhs = _shell_witnesses(masks, nsq, Bmax, d, k, profiles)
    if not attained.size:
        raise ConfigError("no resonant tuples on these blocks")
    # four point masses pin exactly one tuple: lhs = 1, norms = 1
    floor = 1.0 / _block_rhs(blocks, s)
    rhs = np.array([_block_rhs(blocks, s, psis) for psis in profiles])
    ratios = np.maximum(floor, (lhs / rhs[:, None]).max(axis=0))
    return {
        "mu_values": attained,
        "ratios": ratios,
        "spread": float(ratios.max() / ratios.min()),
        "floor": floor,
        "trials": trials,
    }
