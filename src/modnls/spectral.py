"""Truncated Fourier states on Z^d and the power nonlinearity.

A state holds the coefficients phi(n) for |n_i| <= N on a dense
(2N+1)^d grid; axis index i corresponds to n_i = i - N. All physics in
this package happens in these interaction variables, with the modulation
entering only through e^{-i|n|^2 w(t)} phase factors (apply_U).

The nonlinearity of degree 2k+1 is the signed convolution

    c(n) = sum_{n = sum_j zeta_j n_j} prod_j (J_j psi_j)(n_j)

with zeta_j = +1 for odd j, -1 for even j, and J_j conjugating even
slots, evaluated by zero-padded FFT.

walk_phases is the one loop over phase rows e^{-i theta_l |n|^2}: the Young
kernel and the fold's phase spectra both reduce its chunks. The fold walks the
L equispaced turns theta_l = 2 pi l / L; the kernel walks those for one step,
or the window nodes of many steps, each with its own factors, in one walk.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from contextvars import Context, copy_context
from dataclasses import dataclass
from decimal import Decimal
from itertools import chain, repeat
from pathlib import Path

import numpy as np
from scipy.fft import fftn, ifft, next_fast_len

from ._runtime import get_workers
from .errors import ConfigError, NumericsError, _is_int, check_int
from .paths import _csv_rows, _write_csv

__all__ = [
    "SpectralState",
    "zero_state",
    "unit_mode",
    "random_state",
    "hs_norm",
    "apply_U",
    "nonlinearity",
    "save_state_csv",
    "load_state_csv",
]


def _check_box(d: int, N: int, k: int | None = None) -> None:
    """Validate the dimension d, the mode cutoff N and, if given, the index k."""
    if not _is_int(d) or d not in (1, 2, 3):
        raise ConfigError(f"dimension d must be 1, 2 or 3, got {d}")
    if k is not None:
        check_int(k, "nonlinearity index k")
    check_int(N, "mode cutoff N")


# the package's size budgets: array entries of a phase grid or the dyadic block
# cube, fold_dense accumulate operations, and candidate tuples of a zero-sum scan
_SIZE_LIMITS = {"memory": 4e7, "operation": 4e7, "enumeration": 2e7}
# phase-product entries per task of walk_phases, whatever the thread count
_PHASE_TASK_ENTRIES = 1 << 17


def _refuse_oversized(budget: str, size: int, what: str,
                      remedy: str = "shrink the box") -> None:
    """NumericsError, ending in `remedy`, when size exceeds its budget in
    _SIZE_LIMITS, read at call time; every caller prices size from shapes or bounds
    before it allocates. An integer size past float range is shown through Decimal,
    so it gets the same message."""
    limit = _SIZE_LIMITS[budget]
    if size > limit:
        shown = f"{Decimal(size):.3g}" if size > 1e308 else f"{float(size):.3g}"
        raise NumericsError(f"{shown} {what} exceed the {budget} budget "
                            f"{limit:.0e}; {remedy}")


def _phase_products(sources, conj, phases: np.ndarray, P: int, crop) -> np.ndarray:
    """Cropped spectra of prod_j f_j, one per phase row: f_j is the P^d-padded field
    of phases * sources[j] (index i at frequency i), conjugated where conj[j] is set.
    A source filling several slots costs one inverse FFT; each FFT runs on one worker.
    The inverse pads each axis, in order, just before its pass, so no pass walks a
    line of padding zeros: at factor 1 such a line stays zero, and the bits are one
    padded ifftn's. The forward FFT overwrites the product, which the call owns."""
    axes = tuple(range(1, phases.ndim))
    fields: dict[int, np.ndarray] = {}
    prod = None
    for src, cj in zip(sources, conj):
        f = fields.get(id(src))
        if f is None:
            f = phases * src
            for ax in axes:
                f = ifft(f, n=P, axis=ax, norm="forward", workers=1, overwrite_x=True)
            fields[id(src)] = f
        f = np.conj(f) if cj else f
        prod = f if prod is None else prod * f
    return fftn(prod, axes=axes, norm="forward", workers=1, overwrite_x=True)[crop]


def walk_phases(sources, conj, turns, P: int, crop, reduce, rows=None, n=None, steps=None):
    """Yield reduce(l, phases, F) for each chunk of at most `rows` rows l < n, in
    order: phases[i] = e^{-i theta_{l_i} |m|^2} on the source cube and F =
    _phase_products(...). `turns` is an integer L, for theta_l = 2 pi l / L gathered
    from the L roots of unity by (l |m|^2) mod L (n defaults to L), or an array of
    angles theta, gathered over the distinct |m|^2 (n is its length). With `steps`, a
    nondecreasing step index per row, row l reads sources[j][steps[l]]: the pieces of
    `rows` rows from each step's start pack in order into chunks, and reduce runs on
    each step's rows of a chunk, which gathers its steps' sources once. Chunks form
    tasks of about _PHASE_TASK_ENTRIES entries (one chunk by default), run on
    get_workers() threads if there are two or more, else inline; each task's results
    are yielded once it and those before it finish, whatever the thread count."""
    if steps is None:  # one step: each source is a list of one
        sources = [[f] for f in sources]
    sq = _sq_norms(sources[0][0].ndim, (sources[0][0].shape[0] - 1) // 2)
    task_rows = max(1, _PHASE_TASK_ENTRIES // P ** sq.ndim)
    rows = task_rows if rows is None else rows
    if np.ndim(turns):
        n = len(turns)
        q, at = np.unique(sq, return_inverse=True)
        at = at.reshape(sq.shape)

        def phase_rows(l):
            return np.exp(-1j * np.multiply.outer(turns[l], q))[:, at]
    else:
        L, n = turns, turns if n is None else n
        roots = np.exp(-2j * np.pi / L * np.arange(L))

        def phase_rows(l):
            return roots[np.multiply.outer(l, sq) % L]

    steps = np.zeros(n, dtype=int) if steps is None else steps
    firsts = [0, *np.flatnonzero(np.diff(steps)) + 1]
    starts = []  # a step's piece opens a new chunk where it would overfill the current one
    for lo, hi in zip(firsts, firsts[1:] + [n]):
        for a in range(lo, hi, rows):
            if not starts or min(a + rows, hi) - starts[-1] > rows:
                starts.append(a)

    def chunk(a, b):
        l, s = np.arange(a, b), steps[a:b]
        phases = phase_rows(l)
        # each source list's value per row: its one step's array, or a gather by row
        got = {id(f): f[s[0]] if s[0] == s[-1] else np.stack(f[s[0]:s[-1] + 1])[s - s[0]]
               for f in {id(f): f for f in sources}.values()}
        F = _phase_products([got[id(f)] for f in sources], conj, phases, P, crop)
        cuts = [0, *np.flatnonzero(np.diff(s)) + 1, b - a]
        return [reduce(l[x:y], phases[x:y], F[x:y]) for x, y in zip(cuts, cuts[1:])]

    chunks = list(zip(starts, starts[1:] + [n]))
    per = max(1, task_rows // rows)
    tasks = [chunks[i:i + per] for i in range(0, len(chunks), per)]

    def task(part):
        return [out for a, b in part for out in chunk(a, b)]

    threads = min(get_workers(), len(tasks))
    if threads < 2:
        yield from chain.from_iterable(map(task, tasks))
        return
    # each task runs in a copy of the caller's context, so its np.errstate holds there too
    contexts = [copy_context() for _ in tasks]
    with ThreadPoolExecutor(threads) as pool:
        yield from chain.from_iterable(pool.map(Context.run, contexts, repeat(task), tasks))


def _mode_index(n, d: int, N: int, error=ConfigError) -> tuple[int, ...]:
    """Array index of mode n (an integer or a sequence of them) on the (2N+1)^d cube;
    `error` when a component is no integer or the mode is off the cube."""
    mode = tuple(n) if np.ndim(n) else (n,)
    if not all(map(_is_int, mode)):
        raise error(f"mode {n} must have integer components")
    mode = tuple(map(int, mode))  # numpy integers print as plain ints
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


def _cube_modes(d: int, lo: int, hi: int) -> np.ndarray:
    """(S, d) array of the modes in [lo, hi]^d, in C order; empty when lo > hi."""
    axes = np.meshgrid(*([np.arange(lo, hi + 1)] * d), indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=-1)


def _sq_norms(d: int, N: int) -> np.ndarray:
    n = np.arange(-N, N + 1) ** 2
    out = n
    for _ in range(d - 1):
        out = out[..., None] + n
    return out


def _hs_weight(d: int, N: int, s: float) -> np.ndarray:
    """The weights <n>^{2s} = (1 + |n|^2)^s of the (2N+1)^d cube, flat in C order."""
    return (1.0 + _sq_norms(d, N)).ravel() ** s


def _hs_norms(coeffs: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """The H^s norms (sum weight |c|^2)^{1/2} of the coefficient arrays coeffs[i] (a stack
    or a list), for weight = _hs_weight(d, N, s); one that overflows reads inf, silently."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sqrt(np.sum(weight * np.abs(np.reshape(coeffs, (len(coeffs), -1))) ** 2, 1))


def hs_norm(state: SpectralState, s: float) -> float:
    """Sobolev norm (sum <n>^{2s} |phi(n)|^2)^{1/2} with <n>^2 = 1 + |n|^2."""
    return float(_hs_norms(state.coeffs[None], _hs_weight(state.d, state.N, s))[0])


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


def random_state(d: int, N: int, s: float, seed, scale: float = 1.0,
                 decay: float | None = None) -> SpectralState:
    """Random state with coefficients g(n)/<n>^{s + d/2 + 0.01}, g complex normal.

    The decay keeps the H^s norm stable under cutoff doubling; pass a
    larger `decay` exponent explicitly for smoother samples. `seed` is an
    integer or an existing numpy Generator.
    """
    _check_box(d, N)
    rng = (seed if isinstance(seed, np.random.Generator)
           else np.random.default_rng(check_int(seed, "seed", 0)))
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
    if len(factors) != 2 * check_int(k, "nonlinearity index k") + 1:
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
        # slot j carries factor j, conjugated and reflected on even slots
        arr = st.coeffs if j % 2 == 1 else np.flip(np.conj(st.coeffs))
        spec = spec * np.fft.fftn(arr, s=shape, axes=tuple(range(d)))
    # mode n sits at index n + (2k+1)N, below the period for |n_i| <= N
    centre = k * 2 * N
    sl = tuple(slice(centre, centre + 2 * N + 1) for _ in range(d))
    return SpectralState(d, N, np.fft.ifftn(spec)[sl].copy())


def save_state_csv(state: SpectralState, filename) -> None:
    """Header "n_1,...,n_d,re,im", then one row per nonzero mode in C order of the cube,
    the modes as integers ("%d") and re, im with "%.17g"; the zero state is the header
    alone. The rows go through paths._write_csv's row blocks. JSON sidecar {"d","N"}."""
    at = np.argwhere(state.coeffs)  # the nonzero modes' indices, in C order
    vals = state.coeffs[tuple(at.T)]
    data = np.column_stack([at - state.N, vals.real, vals.imag])
    header = ",".join(f"n_{i + 1}" for i in range(state.d)) + ",re,im"
    _write_csv(filename, header, ["%d"] * state.d + ["%.17g", "%.17g"], data)
    sidecar = Path(str(filename)).with_suffix(".json")
    sidecar.write_text(json.dumps({"d": state.d, "N": state.N}) + "\n")


def load_state_csv(filename) -> SpectralState:
    """Read save_state_csv's rows; the sidecar's box is checked and priced first."""
    sidecar = Path(str(filename)).with_suffix(".json")
    if not sidecar.exists():
        raise ConfigError(f"missing sidecar {sidecar}")
    meta = json.loads(sidecar.read_text())
    if not isinstance(meta, dict) or not {"d", "N"} <= meta.keys():
        raise ConfigError(f"sidecar {sidecar} must be a JSON object with 'd' and 'N'")
    d, N = meta["d"], meta["N"]
    _check_box(d, N)
    _refuse_oversized("memory", (2 * N + 1) ** d, "state coefficients")
    st = zero_state(d, N)
    data = _csv_rows(filename, 1, required=False)
    if data is None:
        return st
    if data.shape[1] != d + 2:
        raise ConfigError(f"state file has {data.shape[1]} columns, expected {d + 2}")
    if not np.all(np.isfinite(data)):
        raise ConfigError(f"state file {filename} holds non-finite values")
    modes = data[:, :d]
    if np.any(modes != np.rint(modes)):
        raise ConfigError(f"state file {filename} holds a non-integer mode")
    if np.any(np.abs(modes) > N):
        raise ConfigError("mode indices outside the declared cube")
    modes = modes.astype(int)
    seen, times = np.unique(modes, axis=0, return_counts=True)
    if times.max() > 1:
        mode = tuple(int(c) for c in seen[times > 1][0])
        raise ConfigError(f"state file {filename} repeats mode {mode}")
    st.coeffs[tuple((modes + N).T)] = data[:, d] + 1j * data[:, d + 1]
    return st
