"""Time stepping for the Young equation phi(t) = phi_0 + int_0^t X_{dtau}(phi).

Two schemes share the same kernel evaluations on a fixed partition:
Euler-Young steps phi_{j+1} = phi_j + X_{t_j;t_{j+1}}(phi_j), and Picard
iterates whole trajectories psi_{m+1}(t_i) = phi_0 + sum_{j<i}
X_{t_j;t_{j+1}}(psi_m(t_j)) until successive iterates agree in the
discrete C^{0,lambda} metric. On a fixed partition the Picard fixed
point satisfies the Euler recursion exactly, so the two schemes differ
only while the iteration is still converging. A Picard sweep's M
increments read only the previous iterate, so they are one
young.x_increments call; Euler-Young steps one x_increment at a time.

reference_split_step integrates the unmodulated equation (w(t) = t) by
Strang splitting on a padded collocation grid and serves as an
independent oracle; plane_wave_exact is the closed-form single-mode
solution in interaction variables.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import next_fast_len

from .errors import BlowUpError, ConfigError, NonConvergenceError, _is_int, check_int
from .paths import SamplePath, horizon_limit
from .spectral import (SpectralState, _check_box, _hs_norms, _hs_weight, hs_norm, unit_mode,
                       zero_state)
from .young import YoungKernelConfig, _check_sobolev, check_kernel_box, x_increment, x_increments

__all__ = [
    "SolverConfig",
    "Trajectory",
    "uniform_partition",
    "young_integral",
    "solve_euler_young",
    "solve_picard",
    "reference_split_step",
    "plane_wave_exact",
]

_BLOWUP_FACTOR = 1e6


def uniform_partition(T: float, M: int) -> np.ndarray:
    if not T > 0:  # NaN fails too
        raise ConfigError(f"need T > 0, got T={T}")
    return np.linspace(0.0, T, check_int(M, "grid size M") + 1)


@dataclass
class SolverConfig:
    """Validated solve parameters; `lam` is the Holder exponent lambda."""

    d: int
    k: int
    N: int
    s: float
    gamma: float
    lam: float
    rho: float
    T: float
    partition: np.ndarray
    scheme: str = "picard"
    tol: float = 1e-10
    max_iter: int = 50

    def __post_init__(self):
        if not (0.0 < self.lam < self.gamma <= 1.0) or not self.gamma + self.lam > 1.0:
            raise ConfigError(
                "Holder exponents must satisfy 0 < lambda < gamma <= 1 and "
                f"gamma + lambda > 1; got gamma={self.gamma}, lambda={self.lam}")
        if not self.rho > 0:  # NaN fails too, here and for T and tol
            raise ConfigError(f"rho must be positive, got {self.rho}")
        if not self.T > 0:
            raise ConfigError(f"T must be positive, got {self.T}")
        if self.scheme not in ("euler_young", "picard"):
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if not self.tol > 0:
            raise ConfigError(f"tol must be positive, got {self.tol}")
        check_int(self.max_iter, "max_iter")
        self.partition = np.asarray(self.partition, dtype=float)
        p = self.partition
        if p.ndim != 1 or p.size < 2 or p[0] != 0.0 or not np.all(np.diff(p) > 0):
            raise ConfigError("partition must start at 0 and increase strictly")
        if p[-1] > horizon_limit(self.T) or self.T > horizon_limit(p[-1]):
            raise ConfigError(f"partition ends at {p[-1]}, config says T={self.T}")
        # the kernel's size rule on the box alone
        check_kernel_box(self.d, self.k, self.N)
        _check_sobolev(self.s, self.d, self.N)
        threshold = self.d / 2 - self.rho / self.k
        if self.s <= threshold:
            warnings.warn(
                f"s={self.s} is at or below the advisory threshold "
                f"d/2 - rho/k = {threshold}; the solve may be outside the "
                "proven regime", stacklevel=2)

    def kernel(self, path: SamplePath) -> YoungKernelConfig:
        return YoungKernelConfig(self.d, self.k, self.N, path)


@dataclass
class Trajectory:
    """States on the partition times, plus scheme metadata."""

    times: np.ndarray
    states: list
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.size != len(self.states):
            raise ConfigError("times and states lengths differ")


def young_integral(cfg: SolverConfig, g: Trajectory, s_idx: int, t_idx: int,
                   path: SamplePath) -> SpectralState:
    """Left-point Riemann sum sum_j X_{t_j;t_{j+1}}(g(t_j)) over the partition."""
    p = cfg.partition
    if not (_is_int(s_idx) and _is_int(t_idx) and 0 <= s_idx <= t_idx <= p.size - 1):
        raise ConfigError(f"indices ({s_idx}, {t_idx}) outside the partition")
    acc = zero_state(cfg.d, cfg.N)
    for inc in x_increments(cfg.kernel(path), list(zip(p[s_idx:t_idx], p[s_idx + 1:t_idx + 1])),
                            [[st] * (2 * cfg.k + 1) for st in g.states[s_idx:t_idx]]):
        acc.coeffs += inc
    return acc


def _guard(step: int, coeffs: np.ndarray, weight: np.ndarray, limit: float) -> None:
    """BlowUpError at the first stacked state coeffs[i] (step + i) whose H^s norm, under the
    flat weight of _hs_weight, exceeds limit."""
    norms = _hs_norms(coeffs, weight)
    for i in np.flatnonzero(~(norms <= limit))[:1]:  # NaN fails too
        raise BlowUpError(step + int(i), float(norms[i]), limit)


def _march(cfg: SolverConfig, phi0: SpectralState, kc: YoungKernelConfig,
           feed=None) -> list:
    """Guarded left-point march phi0 + sum_{j<i} X_{t_j;t_{j+1}}(.) on the partition.

    The kernel at step j acts on the new state at t_j (Euler-Young) or, when a
    trajectory `feed` is given, on feed[j] (one Picard sweep: one x_increments call
    and one cumsum). The guard sees the raw coefficients, before any state is built.
    """
    p, m = cfg.partition, 2 * cfg.k + 1
    weight = _hs_weight(cfg.d, cfg.N, cfg.s)
    norm0 = hs_norm(phi0, cfg.s)
    limit = _BLOWUP_FACTOR * norm0 if norm0 > 0 else 1.0
    states = [phi0.copy()]
    if feed is not None:
        incs = x_increments(kc, list(zip(p[:-1], p[1:])), [[f] * m for f in feed[:-1]])
        coeffs = np.cumsum([phi0.coeffs, *incs], axis=0)[1:]
        _guard(1, coeffs, weight, limit)
        return states + [SpectralState(cfg.d, cfg.N, c) for c in coeffs]
    for j in range(p.size - 1):
        coeffs = states[j].coeffs + x_increment(kc, float(p[j]), float(p[j + 1]),
                                                [states[j]] * m).coeffs
        _guard(j + 1, coeffs[None], weight, limit)
        states.append(SpectralState(cfg.d, cfg.N, coeffs))
    return states


def solve_euler_young(cfg: SolverConfig, phi0: SpectralState,
                      path: SamplePath) -> Trajectory:
    """One-step scheme phi_{j+1} = phi_j + X_{t_j;t_{j+1}}(phi_j)."""
    return Trajectory(cfg.partition.copy(), _march(cfg, phi0, cfg.kernel(path)),
                      {"scheme": "euler_young"})


def solve_picard(cfg: SolverConfig, phi0: SpectralState,
                 path: SamplePath) -> Trajectory:
    """Iterate whole trajectories until the C^{0,lambda} residual drops below tol."""
    p = cfg.partition
    old = [phi0.copy() for _ in range(p.size)]
    kc = cfg.kernel(path)
    residuals: list[float] = []
    for m in range(cfg.max_iter):
        new = _march(cfg, phi0, kc, feed=old)
        res = _distance(new, old, p, cfg.lam, cfg.s)
        residuals.append(res)
        old = new
        if res < cfg.tol:
            return Trajectory(p.copy(), new,
                              {"scheme": "picard", "iterations": m + 1,
                               "residuals": residuals})
    raise NonConvergenceError(cfg.max_iter, residuals, cfg.tol)


def _distance(states_a, states_b, times: np.ndarray, lam: float, s: float) -> float:
    """Discrete C^{0,lambda} norm of the differences D_i = a_i - b_i on the partition:
    max_i |D_i|_{H^s} plus max_{i<j} |D_i - D_j|_{H^s} / |t_i - t_j|^lambda, from the Gram
    rows j >= i of the stacked D, 256 rows at a time from the last, each with its diagonal."""
    D = np.stack([a.coeffs.ravel() - b.coeffs.ravel() for a, b in zip(states_a, states_b)])
    Dw = D * _hs_weight(states_a[0].d, states_a[0].N, s)
    diag, ratio = np.empty(len(D)), 0.0
    for lo in range(len(D) - 1 - (len(D) - 1) % 256, -1, -256):
        G = Dw[lo:lo + 256] @ D[lo:].conj().T
        diag[lo:lo + 256] = np.real(np.diagonal(G))
        G = np.sqrt(np.maximum(diag[lo:lo + 256, None] + diag[None, lo:] - 2.0 * np.real(G), 0.0))
        dt = np.abs(times[lo:lo + 256, None] - times[None, lo:]) ** lam
        dt[np.tril_indices(len(dt), 0, len(D) - lo)] = np.inf  # pairs i < j only
        ratio = np.maximum(ratio, np.max(G / dt))
    return float(np.sqrt(np.maximum(diag, 0.0).max())) + float(ratio)


def reference_split_step(phi0: SpectralState, T: float, dt: float,
                         d: int, k: int, N: int) -> Trajectory:
    """Strang splitting for i u_t = -Lap u + |u|^{2k} u on a padded grid.

    Returns the physical-variable trajectory u(t_j); compare against the
    interaction unknown phi through apply_U with w(t) = t. Both substeps
    are exactly unitary on the padded collocation grid (no per-step
    truncation), so the padded mass in meta is conserved to rounding;
    output states are the central [-N, N]^d crop.
    """
    _check_box(d, N, k)
    if (phi0.d, phi0.N) != (d, N):
        raise ConfigError("phi0 does not match the declared box")
    if not (T > 0 and dt > 0):  # NaN fails too
        raise ConfigError("need T > 0 and dt > 0")
    steps = max(1, int(round(T / dt)))
    h = T / steps
    P = next_fast_len((2 * k + 2) * N + 1)
    wave = np.fft.fftfreq(P, 1.0 / P).astype(np.int64)
    msq = wave ** 2
    for _ in range(d - 1):
        msq = msq[..., None] + wave ** 2
    idx = np.arange(-N, N + 1) % P
    box = np.ix_(*([idx] * d))
    spec = np.zeros((P,) * d, dtype=complex)
    spec[box] = phi0.coeffs
    half = np.exp(-0.5j * h * msq)
    times = [0.0]
    states = [phi0.copy()]
    mass = [float(np.sqrt(np.sum(np.abs(spec) ** 2)))]
    for j in range(steps):
        spec = spec * half
        u = np.fft.ifftn(spec) * P ** d
        u = u * np.exp(-1j * h * np.abs(u) ** (2 * k))
        spec = np.fft.fftn(u) / P ** d
        spec = spec * half
        times.append((j + 1) * h)
        states.append(SpectralState(d, N, spec[box].copy()))
        mass.append(float(np.sqrt(np.sum(np.abs(spec) ** 2))))
    return Trajectory(np.array(times), states,
                      {"scheme": "split_step", "dt": h, "padding": P,
                       "mass_padded": mass})


def plane_wave_exact(c: complex, m, path, t: float, k: int, N: int) -> SpectralState:
    """Single-mode solution c e^{-i|c|^{2k} t} delta_m in interaction variables.

    The single-mode subspace has every resonance offset zero, so the
    interaction-variable solution does not depend on the path; `path`
    only bounds the admissible horizon. Compose with apply_U at w(t) for
    the physical coefficients.
    """
    if path is not None and not 0.0 <= t <= horizon_limit(path.T):
        raise ConfigError(f"t={t} outside the path horizon")
    amp = c * np.exp(-1j * abs(c) ** (2 * check_int(k, "nonlinearity index k")) * t)
    return unit_mode(np.size(m), N, m, amp)
