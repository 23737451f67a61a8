"""Resonance classes A(mu) and desk-scale convolution-estimate probes.

A(mu) collects the integer tuples (n_0, ..., n_{2k+1}) with alternating
sums n_0 - n_1 + ... - n_{2k+1} = 0 and |n_0|^2 - |n_1|^2 + ... -
|n_{2k+1}|^2 = mu; the classes partition the zero-sum set. The
estimators here (ids eq21, eq26, eq27) sample nonnegative test
sequences, evaluate both sides of the corresponding weighted
convolution bound exactly through the fold backend, and report the
worst observed LHS/RHS ratio. They probe boundedness; they prove
nothing.

Every enumeration (enumerate_A, verify_counting_partition, the eq26
witness scan) has one size rule: the product of its slot mode lists,
the number of candidate tuples it visits, must stay within
_CANDIDATE_LIMIT, or the call raises NumericsError before scanning.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from math import isqrt, prod

import numpy as np

from ._fold import alternating_slots, fft_grid, fold
from .errors import ConfigError, NumericsError
from .spectral import _check_box, _sq_norms, mode_grid

__all__ = [
    "ResonanceTuple",
    "CountingReport",
    "EstimateReport",
    "enumerate_A",
    "verify_counting_partition",
    "eq21_ratio",
    "estimate_ratio_eq21",
    "block_ratio_once",
    "dyadic_block_ratio",
    "eq26_mu_sweep",
]

_CANDIDATE_LIMIT = 2.0e7


def _alt_signs(k: int) -> np.ndarray:
    return np.array([1 if i % 2 == 0 else -1 for i in range(2 * k + 2)])


@dataclass
class ResonanceTuple:
    """One member of A(mu); both defining constraints re-checked on build."""

    modes: np.ndarray
    mu: int

    def __post_init__(self):
        self.modes = np.asarray(self.modes, dtype=int)
        if self.modes.ndim != 2 or self.modes.shape[0] % 2 or self.modes.shape[0] < 4:
            raise ConfigError("modes must have shape (2k+2, d) with k >= 1")
        sig = _alt_signs(self.modes.shape[0] // 2 - 1)
        if np.any(sig @ self.modes != 0):
            raise ConfigError("tuple violates the alternating zero-sum constraint")
        if int(sig @ (self.modes ** 2).sum(axis=1)) != self.mu:
            raise ConfigError("tuple violates the alternating square-sum constraint")

    @property
    def d(self) -> int:
        return self.modes.shape[1]

    @property
    def k(self) -> int:
        return self.modes.shape[0] // 2 - 1


def _normalize_box(box, k: int) -> list[tuple[int, int]]:
    """Per-slot (lo, hi) coordinate ranges; int b means [-b, b] everywhere.

    A (lo, hi) pair applies to every slot; a length-(2k+2) sequence
    gives each slot its own int or pair. lo > hi denotes an empty slot.
    """
    slots = 2 * k + 2

    def one(spec):
        if np.isscalar(spec):
            b = int(spec)
            if b < 0:
                raise ConfigError(f"box half-width must be >= 0, got {b}")
            return (-b, b)
        lo, hi = (int(v) for v in spec)
        return (lo, hi)

    if np.isscalar(box):
        return [one(box)] * slots
    box = list(box)
    if len(box) == 2 and all(np.isscalar(v) for v in box):
        return [one(tuple(box))] * slots
    if len(box) != slots:
        raise ConfigError(f"need one range per slot ({slots}), got {len(box)}")
    return [one(spec) for spec in box]


def _range_modes(lo: int, hi: int, d: int) -> np.ndarray:
    """(S, d) array of all modes in the cube [lo, hi]^d; empty when lo > hi."""
    r = np.arange(lo, hi + 1)
    if r.size == 0:
        return np.zeros((0, d), dtype=int)
    axes = np.meshgrid(*([r] * d), indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=-1)


def _check_budget(lists) -> float:
    """Size of the product of the slot mode lists; NumericsError above budget."""
    total = prod(float(f.shape[0]) for f in lists)
    if total > _CANDIDATE_LIMIT:
        raise NumericsError(
            f"{total:.3g} candidate tuples exceed the enumeration budget "
            f"{_CANDIDATE_LIMIT:.0e}; shrink the box")
    return total


def _zero_sum_scan(frees: list[np.ndarray], d: int):
    """Walk the zero-sum tuples over mode lists for slots 1..2k+1.

    Slot 1 is a loop over its modes a; slots 2..2k+1 broadcast, slot i
    carrying sign (-1)^i. Yields (a, n0, n0sq, mu): the forced mode
    n_0 = n_1 - n_2 + ... + n_{2k+1}, its |n_0|^2 and the alternating
    square sum mu, each on the broadcast shape of slots 2..2k+1.
    """
    rest = frees[1:]
    shape = tuple(f.shape[0] for f in rest)
    sum_rest = np.zeros(shape + (d,), dtype=np.int64)
    sq_rest = np.zeros(shape, dtype=np.int64)
    for j, f in enumerate(rest):
        sgn = 1 if j % 2 == 0 else -1
        view = (1,) * j + (f.shape[0],) + (1,) * (len(rest) - 1 - j)
        sum_rest = sum_rest + sgn * f.reshape(view + (d,))
        sq_rest = sq_rest + sgn * (f ** 2).sum(axis=1).reshape(view)
    f1 = frees[0]
    sq1 = (f1 ** 2).sum(axis=1)
    for a in range(f1.shape[0]):
        n0 = f1[a] - sum_rest
        n0sq = (n0 ** 2).sum(axis=-1)
        yield a, n0, n0sq, n0sq - sq1[a] + sq_rest


def _scanned_modes(n0, frees, a: int, row) -> np.ndarray:
    """Modes (n_0, ..., n_{2k+1}) of the scanned tuple at broadcast index row."""
    row = tuple(row)
    return np.array([n0[row], frees[0][a]]
                    + [f[r] for f, r in zip(frees[1:], row)])


def enumerate_A(mu: int, box, d: int, k: int):
    """All tuples of A(mu) inside the box, n_0 eliminated via the linear constraint."""
    if int(mu) != mu:
        raise ConfigError(f"mu must be an integer, got {mu}")
    mu = int(mu)
    bounds = _normalize_box(box, k)
    frees = [_range_modes(lo, hi, d) for lo, hi in bounds[1:]]
    _check_budget(frees)
    lo0, hi0 = bounds[0]
    out = []
    for a, n0, _, muv in _zero_sum_scan(frees, d):
        hit = np.all((n0 >= lo0) & (n0 <= hi0), axis=-1) & (muv == mu)
        for row in np.argwhere(hit):
            out.append(ResonanceTuple(_scanned_modes(n0, frees, a, row), mu))
    return out


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

    Enumerates the full box product (all 2k+2 slots free) within the
    candidate budget; enumerate_A re-derives the per-mu counts independently
    as a cross-check, and max_membership counts the checked classes its
    tuples land in.
    """
    bounds = _normalize_box(box, k)
    slots_modes = [_range_modes(lo, hi, d) for lo, hi in bounds]
    total = _check_budget(slots_modes)
    counts: dict[int, int] = {}
    zero_sum_count = 0
    if total:
        for _, n0, _, muv in _zero_sum_scan(slots_modes[1:], d):
            # slot 0 stays a loop: the tuple is zero-sum iff f0 is the forced n_0
            for f0 in slots_modes[0]:
                zero = np.all(n0 == f0, axis=-1)
                if not zero.any():
                    continue
                mu_hit = muv[zero]
                zero_sum_count += int(zero.sum())
                vals, cnts = np.unique(mu_hit, return_counts=True)
                for v, c in zip(vals, cnts):
                    counts[int(v)] = counts.get(int(v), 0) + int(c)
    mu_values = np.array(sorted(counts), dtype=int)
    mu_counts = np.array([counts[v] for v in mu_values], dtype=int)
    # independent recount of a sample of classes through enumerate_A
    if mu_values.size <= 40:
        check_mus = list(mu_values)
    else:
        pick = np.linspace(0, mu_values.size - 1, 25).astype(int)
        check_mus = list(mu_values[np.unique(pick)])
    # membership: the most checked classes any one enumerated tuple lands in
    ok = True
    classes_of: dict[bytes, int] = {}
    for mu in check_mus:
        found = enumerate_A(int(mu), bounds, d, k)
        ok = ok and len(found) == counts[int(mu)]
        for key in {t.modes.tobytes() for t in found}:
            classes_of[key] = classes_of.get(key, 0) + 1
    max_membership = max(classes_of.values(), default=0)
    return CountingReport(
        d=d, k=k, bounds=bounds, total_tuples=int(total),
        zero_sum_count=zero_sum_count, mu_values=mu_values,
        mu_counts=mu_counts, max_membership=max_membership,
        cross_checked=len(check_mus), cross_check_ok=ok)


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
        return {
            "estimate_id": self.estimate_id,
            "parameters": self.parameters,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "trials": self.trials,
            "max_ratio_over_trials": self.max_ratio_over_trials,
        }


def _weighted_norm(vals: np.ndarray, nsq: np.ndarray, sigma: float) -> float:
    return float(np.sqrt(np.sum((1.0 + nsq) ** sigma * np.abs(vals) ** 2)))


def _eq21_weight(d: int, k: int, N: int, rho: float):
    """<Omega>^(-rho) over the Omega = |n|^2 - q of the full fold, and its offset."""
    dn2 = d * N * N
    omega = np.arange(-(k + 1) * dn2, ((2 * k + 1) ** 2 + k) * dn2 + 1)
    return (1.0 + omega.astype(float) ** 2) ** (-rho / 2.0), (k + 1) * dn2


def eq21_ratio(psis: list[np.ndarray], d: int, k: int, rho: float, s: float,
               s_prime: float, q: int):
    """(lhs, rhs, ratio) of the eq21 bound for given nonnegative profiles.

    psis are 2k+1 arrays on the (2N+1)^d cube. The output mode is not
    truncated: the lhs norm runs over the full fold extent (2k+1)N.
    """
    m = 2 * k + 1
    if len(psis) != m:
        raise ConfigError(f"need {m} test sequences, got {len(psis)}")
    psis = [np.asarray(p, dtype=float) for p in psis]
    if any(p.shape != psis[0].shape for p in psis):
        raise ConfigError("test sequences must share one cube")
    if any(p.min() < 0 for p in psis):
        raise ConfigError("test sequences must be nonnegative")
    N = (psis[0].shape[0] - 1) // 2
    res = fold(alternating_slots(psis), d)
    t_rho = res.contract(*_eq21_weight(d, k, N, rho))
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
    fft_grid(2 * k + 1, d, N)  # trial 0 has full support and folds by fft
    if int(trials) != trials or trials < 1:
        raise ConfigError(f"trials must be a positive integer, got {trials}")
    if (d, k) == (1, 1):
        raise ConfigError("(d, k) = (1, 1) is outside the proven range")
    if not 0.0 <= rho <= 1.0:
        raise ConfigError(f"need 0 <= rho <= 1, got {rho}")
    if s <= d / 2 - rho / k:
        raise ConfigError(
            f"need s > d/2 - rho/k = {d / 2 - rho / k}, got s={s}")
    if not -s <= s_prime <= s:
        raise ConfigError(f"need -s <= s_prime <= s, got s_prime={s_prime}")
    if not 1 <= q <= 2 * k + 1:
        raise ConfigError(f"need 1 <= q <= {2 * k + 1}, got q={q}")
    rng = np.random.default_rng(seed)
    candidates = _eq21_candidates(d, N, s, 2 * k + 1)
    best = (-1.0, 0.0, 0.0)
    for t in range(trials):
        if t < len(candidates):
            psis = candidates[t]
        else:
            psis = [_eq21_profile(rng, d, N, s) for _ in range(2 * k + 1)]
        lhs, rhs, ratio = eq21_ratio(psis, d, k, rho, s, s_prime, q)
        if ratio > best[0]:
            best = (ratio, lhs, rhs)
    params = {"d": d, "k": k, "rho": rho, "s": s, "s_prime": s_prime,
              "q": q, "N": N, "seed": seed}
    return EstimateReport("eq21", params, best[1], best[2], best[0],
                          trials, best[0])


def _dyadic_setup(blocks, d: int, k: int):
    blocks = tuple(int(b) for b in blocks)
    if len(blocks) != 2 * k + 2:
        raise ConfigError(f"need {2 * k + 2} dyadic blocks, got {len(blocks)}")
    for b in blocks:
        if b < 1 or b & (b - 1):
            raise ConfigError(f"blocks must be powers of two >= 1, got {b}")
    B = [isqrt(4 * b * b - 2) for b in blocks]
    Bmax = max(B)
    nsq = _sq_norms(d, Bmax)
    masks = [(nsq >= b * b - 1) & (nsq <= 4 * b * b - 2) for b in blocks]
    for b, m in zip(blocks, masks):
        if not m.any():
            raise ConfigError(f"block N_j={b} has an empty support shell")
    return blocks, Bmax, nsq, masks


def _eq26_lhs(res, psi0: np.ndarray, nsq: np.ndarray, mus) -> list[float]:
    """sum_n psi0(n) T[|n|^2 - mu, n] for each mu: the eq26 lhs on A(mu)."""
    Q = res.table.shape[0]
    tab = res.table.reshape(Q, -1)
    flat = psi0.ravel()
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


def block_ratio_once(estimate: str, psis: list[np.ndarray], blocks,
                     mu: int | None, d: int, k: int, s: float):
    """(lhs, rhs, ratio) for one tuple of block-supported nonnegative profiles."""
    blocks, Bmax, nsq, masks = _dyadic_setup(blocks, d, k)
    if len(psis) != 2 * k + 2:
        raise ConfigError(f"need {2 * k + 2} profiles, got {len(psis)}")
    psis = [np.asarray(p, dtype=float) for p in psis]
    for p, m in zip(psis, masks):
        if p.shape != nsq.shape:
            raise ConfigError("profiles must live on the common block cube")
        if p.min() < 0:
            raise ConfigError("profiles must be nonnegative")
        if np.any(p[~m] != 0):
            raise ConfigError("profiles must vanish off their block shells")
        if not p.any():
            raise ConfigError("profiles must not vanish identically")
    res = fold(alternating_slots(psis[1:]), d).crop_spatial(Bmax)
    if estimate == "eq27":
        lhs = float((psis[0] * res.collapse_q()).sum())
    elif estimate == "eq26":
        if mu is None or int(mu) != mu:
            raise ConfigError("eq26 needs an integer mu")
        lhs = _eq26_lhs(res, psis[0], nsq, [int(mu)])[0]
    else:
        raise ConfigError(f"unknown estimate id {estimate!r}")
    rhs = _block_rhs(blocks, s, psis)
    return lhs, rhs, lhs / rhs


def _shell_witnesses(masks, nsq, Bmax: int, d: int, k: int) -> set:
    """The mu whose class A(mu) has a member with every slot on its shell.

    NumericsError when the scan exceeds the budget.
    """
    modes_cube = mode_grid(d, Bmax).reshape(-1, d)
    frees = [modes_cube[m.ravel()] for m in masks[1:]]
    _check_budget(frees)
    # the |n_0|^2 window alone puts n_0 on its shell: each coordinate is
    # at most isqrt(4 N_0^2 - 2) <= Bmax, so n_0 lies inside the cube
    shell0 = nsq[masks[0]]
    lo0, hi0 = shell0.min(), shell0.max()
    found = set()
    for _, _, n0sq, muv in _zero_sum_scan(frees, d):
        found.update(np.unique(muv[(n0sq >= lo0) & (n0sq <= hi0)]).tolist())
    return found


def _shell_profile(rng: np.random.Generator, mask: np.ndarray) -> np.ndarray:
    vals = np.abs(rng.standard_normal(mask.shape)) * mask
    if not vals.any():
        vals = mask.astype(float)
    return vals


def dyadic_block_ratio(estimate: str, blocks, mu: int | None, d: int, k: int,
                       s: float, trials: int, seed) -> EstimateReport:
    """Max LHS/RHS ratio of the eq26 or eq27 bound on dyadic block shells.

    For eq26, odd trials take the closed-form ratio (lhs 1, no random draw)
    of point masses on a witness tuple of the requested mu when the budgeted
    witness scan finds one, so sweeps over mu share a common floor. Other
    trials, and all eq27 trials, use |Gaussian| shell profiles.
    """
    if estimate not in ("eq26", "eq27"):
        raise ConfigError(f"unknown estimate id {estimate!r}")
    if int(trials) != trials or trials < 1:
        raise ConfigError(f"trials must be a positive integer, got {trials}")
    if estimate == "eq26" and (mu is None or int(mu) != mu):
        raise ConfigError("eq26 needs an integer mu")
    blocks, Bmax, nsq, masks = _dyadic_setup(blocks, d, k)
    rng = np.random.default_rng(seed)
    witness = False
    if estimate == "eq26":
        with suppress(NumericsError):  # over budget: run on without a witness
            witness = int(mu) in _shell_witnesses(masks, nsq, Bmax, d, k)
    best = (-1.0, 0.0, 0.0)
    for t in range(trials):
        if witness and t % 2 == 1:
            rhs = _block_rhs(blocks, s)
            lhs, ratio = 1.0, 1.0 / rhs
        else:
            psis = [_shell_profile(rng, m) for m in masks]
            lhs, rhs, ratio = block_ratio_once(estimate, psis, blocks, mu,
                                               d, k, s)
        if ratio > best[0]:
            best = (ratio, lhs, rhs)
    params = {"blocks": list(blocks), "mu": None if mu is None else int(mu),
              "d": d, "k": k, "s": s, "seed": seed}
    return EstimateReport(estimate, params, best[1], best[2], best[0],
                          trials, best[0])


def eq26_mu_sweep(blocks, d: int, k: int, s: float, trials: int, seed) -> dict:
    """Per-mu max eq26 ratios over all attainable mu on fixed blocks.

    Shares one fold per random trial across the whole mu range; every
    attainable mu also gets its exact point-mass witness ratio, so the
    per-mu maxima share a common floor. Returns mu values, ratios, and
    their max/min spread. A witness scan above the enumeration budget
    raises its NumericsError.
    """
    blocks, Bmax, nsq, masks = _dyadic_setup(blocks, d, k)
    attained = sorted(_shell_witnesses(masks, nsq, Bmax, d, k))
    if not attained:
        raise ConfigError("no resonant tuples on these blocks")
    # four point masses pin exactly one tuple: lhs = 1, norms = 1
    floor = 1.0 / _block_rhs(blocks, s)
    best = {mu: floor for mu in attained}
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        psis = [_shell_profile(rng, m) for m in masks]
        res = fold(alternating_slots(psis[1:]), d).crop_spatial(Bmax)
        rhs = _block_rhs(blocks, s, psis)
        for mu, lhs in zip(attained, _eq26_lhs(res, psis[0], nsq, attained)):
            best[mu] = max(best[mu], lhs / rhs)
    ratios = np.array([best[mu] for mu in attained])
    return {
        "mu_values": np.array(attained, dtype=int),
        "ratios": ratios,
        "spread": float(ratios.max() / ratios.min()),
        "floor": floor,
        "trials": int(trials),
    }
