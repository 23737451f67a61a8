"""Truncated Fourier states on Z^d and the power nonlinearity.

A state holds the coefficients phi(n) for |n_i| <= N on a dense
(2N+1)^d grid; axis index i corresponds to n_i = i - N. All physics in
this package happens in these interaction variables, with the modulation
entering only through e^{-i|n|^2 w(t)} phase factors (apply_U).

The nonlinearity of degree 2k+1 is the signed convolution

    c(n) = sum_{n = sum_j zeta_j n_j} prod_j (J_j psi_j)(n_j)

with zeta_j = +1 for odd j, -1 for even j, and J_j conjugating even
slots, evaluated by zero-padded FFT.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.fft import fftn, ifftn, next_fast_len

from ._runtime import get_workers
from .errors import ConfigError, NumericsError

__all__ = [
    "SpectralState",
    "zero_state",
    "unit_mode",
    "random_state",
    "hs_norm",
    "apply_U",
    "conj_state",
    "nonlinearity",
    "resonance_offset",
    "mode_grid",
    "save_state_csv",
    "load_state_csv",
]


def _is_int(v) -> bool:
    """True for Python and numpy integers; False for bools, floats and the rest."""
    try:
        return not isinstance(v, (bool, np.bool_)) and operator.index(v) == v
    except TypeError:
        return False


def _check_box(d: int, N: int, k: int | None = None) -> None:
    """Validate the dimension d, the mode cutoff N and, if given, the index k."""
    if not _is_int(d) or d not in (1, 2, 3):
        raise ConfigError(f"dimension d must be 1, 2 or 3, got {d}")
    if k is not None and (not _is_int(k) or k < 1):
        raise ConfigError(f"nonlinearity index k must be a positive integer, got {k}")
    if not _is_int(N) or N < 1:
        raise ConfigError(f"mode cutoff N must be a positive integer, got {N}")


_PHASE_ENTRY_LIMIT = 4e7  # admitted phases x P^d entries of a phase-product sum


def _check_phase_grid(what: str, n_phases: int, P: int, d: int) -> None:
    """NumericsError when n_phases x P^d exceeds the phase-grid budget."""
    if n_phases * P ** d > _PHASE_ENTRY_LIMIT:
        raise NumericsError(f"{what} phase grid of {n_phases} x {P}^{d} entries exceeds "
                            f"the memory budget of {_PHASE_ENTRY_LIMIT:.0e}; shrink the box")


def _phase_products(sources, conj, phases: np.ndarray, P: int, crop) -> np.ndarray:
    """Cropped spectra of prod_j f_j, one per phase row: f_j is the P^d-padded
    field of phases * sources[j] (index i at frequency i), conjugated where
    conj[j] is set. A source array filling several slots costs one inverse FFT."""
    axes = tuple(range(1, phases.ndim))
    fields: dict[int, np.ndarray] = {}
    prod = None
    for src, cj in zip(sources, conj):
        f = fields.get(id(src))
        if f is None:
            f = fields[id(src)] = ifftn(phases * src, s=(P,) * len(axes), axes=axes,
                                        norm="forward", workers=get_workers())
        f = np.conj(f) if cj else f
        prod = f if prod is None else prod * f
    return fftn(prod, axes=axes, norm="forward", workers=get_workers())[crop]


def _mode_index(n, d: int, N: int, error=ConfigError) -> tuple[int, ...]:
    """Array index of mode n on the (2N+1)^d cube; `error` when it is off the cube."""
    mode = tuple(int(c) for c in np.atleast_1d(n))
    if len(mode) != d:
        raise error(f"mode index needs {d} components")
    if any(abs(c) > N for c in mode):
        raise error(f"mode {mode} outside |n_i| <= {N}")
    return tuple(c + N for c in mode)


@dataclass
class SpectralState:
    """Fourier coefficients on the centered cube |n_i| <= N."""

    d: int
    N: int
    coeffs: np.ndarray

    def __post_init__(self):
        _check_box(self.d, self.N)
        expect = (2 * self.N + 1,) * self.d
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != expect:
            raise ConfigError(
                f"coefficient array has shape {self.coeffs.shape}, expected {expect}")
        if not np.all(np.isfinite(self.coeffs)):
            raise ConfigError("coefficients must be finite")

    def copy(self) -> "SpectralState":
        return SpectralState(self.d, self.N, self.coeffs.copy())

    def __getitem__(self, n) -> complex:
        return complex(self.coeffs[_mode_index(n, self.d, self.N, KeyError)])


def zero_state(d: int, N: int) -> SpectralState:
    _check_box(d, N)
    return SpectralState(d, N, np.zeros((2 * N + 1,) * d, dtype=complex))


def unit_mode(d: int, N: int, n, amplitude: complex = 1.0) -> SpectralState:
    """The single-mode state amplitude * delta_n."""
    st = zero_state(d, N)
    st.coeffs[_mode_index(n, d, N)] = amplitude
    return st


def mode_grid(d: int, N: int) -> np.ndarray:
    """Array of shape (2N+1,)*d + (d,) with the integer mode at each entry."""
    _check_box(d, N)
    axes = np.meshgrid(*([np.arange(-N, N + 1)] * d), indexing="ij")
    return np.stack(axes, axis=-1)


def _sq_norms(d: int, N: int) -> np.ndarray:
    n = np.arange(-N, N + 1) ** 2
    out = n
    for _ in range(d - 1):
        out = out[..., None] + n
    return out


def hs_norm(state: SpectralState, s: float) -> float:
    """Sobolev norm (sum <n>^{2s} |phi(n)|^2)^{1/2} with <n>^2 = 1 + |n|^2."""
    jap = 1.0 + _sq_norms(state.d, state.N)
    return float(np.sqrt(np.sum(jap ** s * np.abs(state.coeffs) ** 2)))


def apply_U(state: SpectralState, w_value: float,
            direction: str = "forward") -> SpectralState:
    """Multiply by e^{-i|n|^2 w} (forward) or its inverse e^{+i|n|^2 w}.

    Forward with w = w(t) turns interaction-variable coefficients into
    physical ones; inverse undoes it (U^w composed with U^{-w} is the
    identity).
    """
    if direction not in ("forward", "inverse"):
        raise ConfigError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    sign = +1 if direction == "forward" else -1
    phase = np.exp(-1j * sign * w_value * _sq_norms(state.d, state.N))
    return SpectralState(state.d, state.N, state.coeffs * phase)


def conj_state(state: SpectralState) -> SpectralState:
    """Coefficients of the complex conjugate function: conj(phi(-n))."""
    flipped = np.flip(np.conj(state.coeffs))
    return SpectralState(state.d, state.N, flipped)


def random_state(d: int, N: int, s: float, seed, scale: float = 1.0,
                 decay: float | None = None) -> SpectralState:
    """Random state with coefficients g(n)/<n>^{s + d/2 + 0.01}, g complex normal.

    The decay keeps the H^s norm stable under cutoff doubling; pass a
    larger `decay` exponent explicitly for smoother samples. `seed` is an
    integer or an existing numpy Generator.
    """
    _check_box(d, N)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if decay is None:
        decay = s + d / 2 + 0.01
    shape = (2 * N + 1,) * d
    g = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    jap = np.sqrt(1.0 + _sq_norms(d, N))
    return SpectralState(d, N, scale * g / jap ** decay)


def _check_factors(factors, k: int | None):
    if k is None:
        if len(factors) % 2 == 0:
            raise ConfigError(f"need an odd number 2k+1 of factors, got {len(factors)}")
        k = (len(factors) - 1) // 2
    if len(factors) != 2 * k + 1:
        raise ConfigError(f"need 2k+1 = {2 * k + 1} factors, got {len(factors)}")
    d, N = factors[0].d, factors[0].N
    for st in factors:
        if (st.d, st.N) != (d, N):
            raise ConfigError("all factors must share the same d and N")
    return k, d, N


def nonlinearity(factors: list[SpectralState], k: int | None = None) -> SpectralState:
    """Signed multilinear convolution of 2k+1 factors by zero-padded FFT,
    cropped back to |n_i| <= N."""
    k, d, N = _check_factors(factors, k)
    # alias-free for the crop: mode sums reach (2k+1)N, so a period of
    # (2k+2)N + 1 keeps their images off |n_i| <= N
    shape = (next_fast_len((2 * k + 2) * N + 1),) * d
    spec = np.ones(shape, dtype=complex)
    for j, st in enumerate(factors, start=1):
        # slot j carries factor j, conjugated via conj_state on even slots
        arr = st.coeffs if j % 2 == 1 else np.flip(np.conj(st.coeffs))
        spec = spec * np.fft.fftn(arr, s=shape, axes=tuple(range(d)))
    # mode n sits at index n + (2k+1)N, below the period for |n_i| <= N
    centre = k * 2 * N
    sl = tuple(slice(centre, centre + 2 * N + 1) for _ in range(d))
    return SpectralState(d, N, np.fft.ifftn(spec)[sl].copy())


def resonance_offset(n, tuple_modes, k: int | None = None) -> int:
    """Omega = |n|^2 - sum_j zeta_j |n_j|^2 for the (2k+1)-tuple."""
    n = np.atleast_1d(np.asarray(n, dtype=int))
    modes = np.atleast_2d(np.asarray(tuple_modes, dtype=int))
    if k is not None and modes.shape[0] != 2 * k + 1:
        raise ConfigError(f"need {2 * k + 1} tuple modes, got {modes.shape[0]}")
    if modes.shape[0] % 2 == 0:
        raise ConfigError("tuple length must be odd")
    zeta = np.where(np.arange(1, modes.shape[0] + 1) % 2 == 1, 1, -1)
    return int(np.dot(n, n) - np.sum(zeta * np.sum(modes * modes, axis=1)))


def save_state_csv(state: SpectralState, filename) -> None:
    """Rows "n_1,...,n_d,re,im", zero modes omitted; JSON sidecar {"d","N"}."""
    modes = mode_grid(state.d, state.N).reshape(-1, state.d)
    flat = state.coeffs.ravel()
    keep = flat != 0
    data = np.column_stack([modes[keep], flat[keep].real, flat[keep].imag])
    header = ",".join(f"n_{i + 1}" for i in range(state.d)) + ",re,im"
    fmt = ["%d"] * state.d + ["%.17g", "%.17g"]
    np.savetxt(filename, data, fmt=fmt, delimiter=",", header=header, comments="")
    sidecar = Path(str(filename)).with_suffix(".json")
    sidecar.write_text(json.dumps({"d": state.d, "N": state.N}) + "\n")


def load_state_csv(filename) -> SpectralState:
    sidecar = Path(str(filename)).with_suffix(".json")
    if not sidecar.exists():
        raise ConfigError(f"missing sidecar {sidecar}")
    meta = json.loads(sidecar.read_text())
    d, N = int(meta["d"]), int(meta["N"])
    _check_box(d, N)
    st = zero_state(d, N)
    body = [ln for ln in Path(str(filename)).read_text().splitlines()[1:] if ln.strip()]
    if not body:
        return st
    data = np.loadtxt(body, delimiter=",", ndmin=2)
    if data.shape[1] != d + 2:
        raise ConfigError(f"state file has {data.shape[1]} columns, expected {d + 2}")
    if not np.all(np.isfinite(data)):
        raise ConfigError(f"state file {filename} holds non-finite values")
    idx = tuple(data[:, i].astype(int) + N for i in range(d))
    if any(a.min() < 0 or a.max() >= 2 * N + 1 for a in idx):
        raise ConfigError("mode indices outside the declared cube")
    st.coeffs[idx] = data[:, d] + 1j * data[:, d + 1]
    return st
