"""The multilinear operator increment X_{s;t} in Fourier variables.

For factors psi_1..psi_{2k+1} the output coefficient at n is

    X_{s;t}(n) = -i sum_{n = sum_j zeta_j n_j}
                    [Phi_t(Omega) - Phi_s(Omega)] prod_j (J_j psi_j)(n_j)

with zeta_j = +/-1 alternating (odd slots +), J conjugating even slots,
and Omega = |n|^2 - sum_j zeta_j |n_j|^2. For an output mode in the box
the integer Omega lies in [-R, R], R = (k+1) d N^2. Every box sums phases:
dPhi(Omega) = sum_l c_l e^{i theta_l Omega}, and each phase is one
free-Schroedinger conjugation U^{-theta} N(U^{theta} psi_1, ...,
U^{theta} psi_{2k+1}), the slot product taken in physical space on a padded
P^d grid, P >= (2k+2) N + 1, and cropped to |n_i| <= N. The sum is one
reduction over spectral.walk_phases, shared with the fold, so no table of
phases is kept. One rule gives a step's phases:

  * window nodes. On the step the clock stays in [a, b] = [min w, max w],
    so e^{i Omega theta} is interpolated at p Chebyshev points theta_l of
    [a, b], with c_l = int_s^t ell_l(w(r)) dr for the Lagrange basis ell_l,
    integrated exactly by Gauss-Legendre on each linear segment of the
    clock. By Jacobi-Anger and |J_j(x)| <= (x/2)^j / j!, the error on every
    |Omega| <= R is at most (t - s) 4 sum_{j >= p} |J_j(x)| <= (t - s) 8
    (x/2)^p / p! for p > x = R (b - a) / 2; p is the smallest count that puts
    this bound at eps = 1e-16 (t - s) or below. The rule depends on the
    clock alone, so a kernel config makes it once per step.
  * equispaced turns, when p >= L = next_fast_len(2R + 1): theta_l = 2 pi l / L,
    weighted by the DFT of the Phi increments on the step's own clock segments.

x_increments takes many steps at once, as a Picard sweep does: each turns
step walks its L turns alone, and the window nodes of all other steps share
one walk, in chunks that gather their steps' factors, so every increment has
the bits of its one-step x_increment. A step may start and end anywhere in
[0, T]: both rules read the clock's segments between its times.

The phase grid (R, L, P) of _phase_grid sets every kernel size. A box
is admitted iff the phase path's L x P^d entries fit spectral's memory
budget, shared with the fft fold. The rule depends on (d, k, N) alone,
so the solver and the CLI apply it through check_kernel_box; the largest
admitted N is 134, 103, 23 and 8 for (d, k) = (1, 1), (1, 2), (2, 1),
(3, 1).

A clock frozen at c on the step needs one window node: all of t - s sits
at c, and X_{s;t} = -i (t - s) U^{-c} N(U^{c} psi_1, ...); for c = 0 that
is -i (t - s) times the plain nonlinearity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.fft import fft, next_fast_len

from . import phi
from .errors import ConfigError, NumericsError, check_int
from .paths import SamplePath, horizon_limit
from .spectral import (SpectralState, _check_box, _refuse_oversized, hs_norm, random_state,
                       walk_phases, zero_state)

__all__ = ["YoungKernelConfig", "check_kernel_box", "x_increment", "x_increments",
           "x_norm_estimate"]

# phase-product entries per summation chunk of the phase path: 2^14 complex
# entries are 256 KB, so a chunk's few arrays stay in a 2 MB L2 cache
_PHASE_CHUNK_ENTRIES = 1 << 14
# the window rule's error bound on |dPhi(Omega)|, relative to t - s
_WINDOW_EPS = 1e-16
# p -> (Chebyshev points, barycentric weights, Gauss-Legendre points and weights)
_WINDOW_NODES: dict[int, tuple] = {}
_LOG_FACTORIALS: dict[int, np.ndarray] = {}  # L -> log p! for p = 1 .. L-1


def check_kernel_box(d: int, k: int, N: int) -> None:
    """ConfigError for a malformed box, NumericsError when its phase grid exceeds the budget."""
    _check_box(d, N, k)
    _, L, P = _phase_grid(d, k, N)
    _refuse_oversized("memory", L * P ** d, f"kernel phase-grid entries ({L} x {P}^{d})")


def _check_sobolev(s: float, d: int, N: int) -> None:
    """ConfigError unless the box's largest H^s weight (1 + d N^2)^|s| is a finite float."""
    with np.errstate(over="ignore"):
        if not np.isfinite(np.float64(1 + d * N * N) ** abs(s)):  # NaN too
            raise ConfigError(f"Sobolev index s={s} makes (1 + d N^2)^|s| non-finite at N={N}")


def _phase_grid(d: int, k: int, N: int) -> tuple[int, int, int]:
    """(R, L, P): the in-box |Omega| bound, the phase count and the padded side."""
    R = (k + 1) * d * N * N
    return R, next_fast_len(2 * R + 1), next_fast_len((2 * k + 2) * N + 1)


@dataclass
class YoungKernelConfig:
    """Validated (d, k, N) box plus the modulation path whose clock drives the kernel."""

    d: int
    k: int
    N: int
    path: SamplePath
    _rules: dict = field(default_factory=dict, init=False, repr=False)  # (s, t) -> rule

    def __post_init__(self):
        check_kernel_box(self.d, self.k, self.N)

    @property
    def n_factors(self) -> int:
        return 2 * self.k + 1


def x_increment(cfg: YoungKernelConfig, s: float, t: float, states) -> SpectralState:
    """X_{s;t}(psi_1, ..., psi_{2k+1}) for 0 <= s <= t <= T, x_increments' one step; not
    re-validated: an overflow to inf or NaN is left for the solver's blow-up guard."""
    out = zero_state(cfg.d, cfg.N)
    out.coeffs[...] = x_increments(cfg, [(s, t)], [states])[0]
    return out


def x_increments(cfg: YoungKernelConfig, spans, feeds) -> list:
    """[X_{s;t}(states) for (s, t), states in zip(spans, feeds)] as coefficient arrays, for
    any times 0 <= s <= t <= T and each step's 2k+1 factors. A step that needs p >= L
    walks the L turns alone; the window nodes of all others share one walk."""
    if len(spans) != len(feeds):
        raise ConfigError(f"need one feed per step, got {len(feeds)} for {len(spans)}")
    R, L, _ = _phase_grid(cfg.d, cfg.k, cfg.N)
    out = [np.zeros((2 * cfg.N + 1,) * cfg.d, dtype=complex) for _ in feeds]
    window = []  # (step, theta, c) of each window step
    for j, ((s, t), states) in enumerate(zip(spans, feeds)):
        if len(states) != cfg.n_factors:
            raise ConfigError(f"need 2k+1 = {cfg.n_factors} factors, got {len(states)}")
        if any((st.d, st.N) != (cfg.d, cfg.N) for st in states):
            raise ConfigError("factor state does not match the kernel box")
        if not 0 <= s <= t <= horizon_limit(cfg.path.T):  # NaN too
            raise ConfigError(f"need 0 <= s <= t <= T = {cfg.path.T}, got s={s}, t={t}")
        s, t = min(s, cfg.path.T), min(t, cfg.path.T)  # an end past T within the limit is T
        if s == t:
            continue
        if (s, t) not in cfg._rules:
            cfg._rules[s, t] = _window_rule(cfg.path, s, t, R, L)
        if cfg._rules[s, t] is None:
            out[j] = -1j * _phase_sum(cfg, states, L, _turn_weights(cfg.path, s, t, R, L))
        else:
            window.append((j, *cfg._rules[s, t]))
    if window:
        js, theta, c = zip(*window)
        steps = np.repeat(np.arange(len(js)), [w.size for w in c])
        for j, total in zip(js, _phase_sum(cfg, [feeds[j] for j in js], np.concatenate(theta),
                                           np.concatenate(c), steps)):
            out[j] = -1j * total
    return out


def _turn_weights(path: SamplePath, s: float, t: float, R: int, L: int) -> np.ndarray:
    """c with dPhi(Omega) = sum_l c_l e^{2 pi i l Omega / L} on every |Omega| <= R.

    w[Omega mod L] = dPhi(Omega) for |Omega| <= R and c = fft(w) / L, walked on
    the step's own segments: exact to rounding whatever the clock does on the step.
    """
    w = np.zeros(L, dtype=complex)
    w[:R + 1] = phi._block_sums(np.arange(R + 1.0), *path.segments(s, t), [0])[:, 1]
    w[L - R:] = np.conj(w[R:0:-1])  # dPhi(-Omega) = conj dPhi(Omega)
    return fft(w) / L


def _window_size(x: float, L: int) -> int:
    """Smallest p < L with p > x and 8 (x/2)^p / p! <= _WINDOW_EPS, else L.

    |J_j(x)| <= (x/2)^j / j!, and for p > x each term of the tail
    sum_{j >= p} is at most half the one before, so the Chebyshev
    interpolation error 4 sum_{j >= p} |J_j(x)| is at most 8 (x/2)^p / p!.
    """
    if not x / 2 > 0:
        return 1
    p = np.arange(1, L)
    if L not in _LOG_FACTORIALS:
        _LOG_FACTORIALS[L] = np.cumsum(np.log(p))
    log_bound = np.log(8.0) + p * np.log(x / 2) - _LOG_FACTORIALS[L]
    ok = np.flatnonzero((p > x) & (log_bound <= np.log(_WINDOW_EPS)))
    return int(p[ok[0]]) if ok.size else L


def _window_nodes(p: int):
    """(x, lam, u, g): p Chebyshev points of the first kind on [-1, 1] with
    their barycentric weights, and the ceil(p/2)-point Gauss-Legendre rule."""
    if p not in _WINDOW_NODES:
        j = np.arange(p)
        angle = (2 * j + 1) * np.pi / (2 * p)
        _WINDOW_NODES[p] = (np.cos(angle), (-1.0) ** j * np.sin(angle),
                            *_gauss_legendre((p + 1) // 2))
    return _WINDOW_NODES[p]


def _gauss_legendre(n: int):
    """The n-point Gauss-Legendre points and weights on [-1, 1], by Newton's
    method on the Legendre recurrence (numpy's leggauss calls LAPACK, whose
    first call adds about 1 MB of resident memory to a solve)."""
    u = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(100):
        p0, p1 = np.ones_like(u), u
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * u * p1 - (j - 1) * p0) / j
        dp = n * (u * p1 - p0) / (u * u - 1)  # P_n'(u)
        step = p1 / dp
        if np.abs(step).max() <= 1e-15:
            break
        u = u - step
    return u, 2 / ((1 - u * u) * dp * dp)


def _window_rule(path: SamplePath, s: float, t: float, R: int, L: int):
    """(theta, c) of the window rule on the step s < t, or None when it needs
    p >= L nodes.

    The clock stays in [a, b] on the step, so for |Omega| <= R
    e^{i Omega theta} is interpolated at p Chebyshev points theta_l of [a, b]
    to within _WINDOW_EPS (_window_size at x = R (b - a) / 2), and
    c_l = int_s^t ell_l(w(r)) dr with ell_l the Lagrange basis.
    """
    dt, w = path.segments(s, t)
    mid, half = (w.max() + w.min()) / 2, (w.max() - w.min()) / 2
    p = _window_size(R * half, L)
    if p >= L:
        return None
    if p == 1:  # constant interpolant: all of t - s on the midpoint
        return np.array([mid]), np.array([t - s])
    nodes = _window_nodes(p)
    xi = (w - mid) / half  # the clock in window coordinates, in [-1, 1]
    c = np.zeros(p)
    seg = max(1, _PHASE_CHUNK_ENTRIES // (p * nodes[2].size))  # segments per block
    for lo in range(0, dt.size, seg):
        c += _segment_weights(xi[lo:lo + seg + 1], dt[lo:lo + seg], *nodes)
    return mid + half * nodes[0], c


def _segment_weights(xi, dt, x, lam, u, g) -> np.ndarray:
    """sum over segments of dt int_0^1 ell_l(xi(r)) dr for xi linear on each.

    ell_l(xi(r)) is a polynomial of degree p - 1 in r, so Gauss-Legendre
    at the ceil(p/2) points u integrates it exactly. ell_l is evaluated in
    barycentric form, [lam_l / (xi - x_l)] / sum_k lam_k / (xi - x_k), and
    as the indicator of its node at a point that falls on one.
    """
    diff = ((xi[:-1, None] + xi[1:, None]) / 2
            + np.multiply.outer(np.diff(xi) / 2, u)).reshape(-1, 1) - x
    weights = np.multiply.outer(dt / 2, g).ravel()
    hit = diff == 0
    on = hit.any(axis=1)
    diff[on] = np.inf
    inv = np.reciprocal(diff, out=diff)
    share = np.divide(weights, inv @ lam, out=np.zeros_like(weights), where=~on)
    return lam * (share @ inv) + weights[on] @ hit[on]


def _phase_sum(cfg: YoungKernelConfig, states, turns, c: np.ndarray, steps=None):
    """sum_l c_l e^{i theta_l |n|^2} [prod_j slot_j(theta_l)]^(n) on |n_i| <= N.

    turns is L for theta_l = 2 pi l / L or the array of angles theta_l.
    Slot j at theta is the field of U^{theta} psi_j, conjugated on even
    slots; the terms are summed in walk_phases chunk order. With `steps`,
    the step of each row l, states lists each step's factors, and so do the sums.
    """
    if steps is None:
        return _phase_sum(cfg, [states], turns, c, np.zeros(len(c), dtype=int))[0]
    d, N = cfg.d, cfg.N
    P = _phase_grid(d, cfg.k, N)[2]
    # mode n sits at index n + N of the padded input and, because the
    # product holds one more plain than conjugate field, of the output
    crop = (slice(None),) + (slice(0, 2 * N + 1),) * d
    # one list over the steps per slot, shared by slots that hold the same
    # arrays, so the walk transforms their field once
    lists = {}
    sources = [lists.setdefault(tuple(map(id, col)), col)
               for col in ([f[j].coeffs for f in states] for j in range(cfg.n_factors))]
    sums = [0] * len(states)
    for j, term in walk_phases(
            sources, [j % 2 for j in range(cfg.n_factors)], turns, P, crop,
            lambda l, phases, F: (steps[l[0]], (c[l] @ (np.conj(phases) * F).reshape(
                len(l), -1)).reshape(F.shape[1:])),
            rows=max(1, _PHASE_CHUNK_ENTRIES // P ** d), steps=steps):
        sums[j] = sums[j] + term
    return sums


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
    _check_sobolev(s, cfg.d, cfg.N)
    rng = np.random.default_rng(check_int(seed, "seed", 0))
    t_grid = cfg.path.t_grid
    best = 0.0
    for _ in range(trials):
        psis = [random_state(cfg.d, cfg.N, s, rng) for _ in range(cfg.n_factors)]
        i, j = sorted(rng.choice(t_grid.size, size=2, replace=False))
        inc = x_increment(cfg, float(t_grid[i]), float(t_grid[j]), psis)
        denom = (t_grid[j] - t_grid[i]) ** gamma
        for p in psis:
            denom *= hs_norm(p, s)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            ratio = hs_norm(inc, s) / denom if denom else 0.0  # a zero denominator is skipped
        if not np.isfinite(ratio):
            raise NumericsError(f"trial norm ratio {ratio} at s={s}: the increment overflows")
        best = max(best, ratio)
    return best
