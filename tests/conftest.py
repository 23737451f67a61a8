"""Shared test helpers: oracles independent of the library's fast paths."""

import threading

import numpy as np
from hypothesis import HealthCheck, settings
from scipy.fft import fftn, ifftn
from scipy.signal import convolve

from modnls import spectral
from modnls.errors import ConfigError
from modnls.phi import _block_sums
from modnls.spectral import SpectralState

settings.register_profile(
    "modnls",
    deadline=None,
    derandomize=True,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("modnls")


def gl_phase_integral(path, a_values, s, t, nodes=20, phase_cap=8.0):
    """Composite Gauss-Legendre quadrature of int_s^t exp(i a w(tau)) dtau.

    Splits every linear path segment into panels so the phase change per
    panel stays below phase_cap for the largest |a|; at 20 nodes that
    keeps the rule exact to rounding.  Deliberately avoids the closed
    form used by phi_increment.
    """
    a_values = np.atleast_1d(np.asarray(a_values, dtype=float))
    out = np.zeros(a_values.shape, dtype=complex)
    if t <= s:
        return out if a_values.size > 1 else complex(out[0])
    grid = path.t_grid
    vals = path.values
    i0 = np.searchsorted(grid, s, side="right")
    i1 = np.searchsorted(grid, t, side="left")
    ts = np.concatenate([[s], grid[i0:i1], [t]])
    x, wq = np.polynomial.legendre.leggauss(nodes)
    amax = max(1.0, float(np.abs(a_values).max()))
    for lo, hi in zip(ts[:-1], ts[1:]):
        w_lo = np.interp(lo, grid, vals)
        w_hi = np.interp(hi, grid, vals)
        panels = int(np.ceil(amax * abs(w_hi - w_lo) / phase_cap)) + 1
        edges = np.linspace(lo, hi, panels + 1)
        for plo, phi in zip(edges[:-1], edges[1:]):
            half = 0.5 * (phi - plo)
            tau = 0.5 * (plo + phi) + half * x
            wv = np.interp(tau, grid, vals) + path.offset
            out += half * (np.exp(1j * np.outer(a_values, wv)) @ wq)
    return out if a_values.size > 1 else complex(out[0])


def step_phi_increments(path, s, t, mu_max):
    """Phi_t(mu) - Phi_s(mu) for |mu| <= mu_max, index mu + mu_max, as the kernel's turns
    rule walks them: _block_sums on the step's own segments (path.segments)."""
    pos = _block_sums(np.arange(mu_max + 1.0), *path.segments(s, t), [0])[:, 1]
    return np.concatenate([np.conj(pos[:0:-1]), pos])


def conj_state(state):
    """Coefficients of the complex conjugate function: conj(phi(-n))."""
    return SpectralState(state.d, state.N, np.flip(np.conj(state.coeffs)))


def resonance_offset(n, tuple_modes, k=None):
    """Omega = |n|^2 - sum_j zeta_j |n_j|^2 for the (2k+1)-tuple."""
    n = np.atleast_1d(np.asarray(n, dtype=int))
    modes = np.atleast_2d(np.asarray(tuple_modes, dtype=int))
    if k is not None and modes.shape[0] != 2 * k + 1:
        raise ConfigError(f"need {2 * k + 1} tuple modes, got {modes.shape[0]}")
    if modes.shape[0] % 2 == 0:
        raise ConfigError("tuple length must be odd")
    zeta = np.where(np.arange(1, modes.shape[0] + 1) % 2 == 1, 1, -1)
    return int(np.dot(n, n) - np.sum(zeta * np.sum(modes * modes, axis=1)))


def duhamel_x_oracle(path, s, t, states, nodes=20, chunk=1 << 20):
    """First-principles Duhamel evaluation of the Young kernel on any T^d.

    Enumerates every interaction tuple, integrates each oscillatory phase
    by Gauss-Legendre quadrature, and accumulates
    -i sum Phi_inc(Omega) prod_j (J_j psi_j)(n_j) on the output box. The
    tuples are visited in blocks of slot-1 modes of about `chunk` tuples.
    """
    m, d, N = len(states), states[0].d, states[0].N
    assert m % 2 == 1
    side, zeta = 2 * N + 1, [1 - 2 * (j % 2) for j in range(m)]
    # the box and Omega split over the d components, so the attained Omega
    # are the d-fold sums of those of one component
    one = np.meshgrid(*([np.arange(-N, N + 1)] * m), indexing="ij", sparse=True)
    n_one = sum(z * g for z, g in zip(zeta, one))
    omega_one = (n_one * n_one - sum(z * g * g for z, g in zip(zeta, one)))[np.abs(n_one) <= N]
    uniq = np.zeros(1, dtype=int)
    for _ in range(d):
        uniq = np.unique(np.add.outer(uniq, np.unique(omega_one)))
    phi = np.atleast_1d(gl_phase_integral(path, uniq, s, t, nodes=nodes))
    size = side ** d
    comps = [a.ravel() for a in np.meshgrid(*([np.arange(-N, N + 1, dtype=np.int32)] * d),
                                            indexing="ij")]
    sq = sum(c * c for c in comps)
    step = max(1, chunk // size ** (m - 1))
    out = np.zeros(size, dtype=complex)
    for lo in range(0, size, step):
        # the slots' flat mode indices on an open grid
        grids = np.meshgrid(np.arange(lo, min(lo + step, size), dtype=np.int32),
                            *([np.arange(size, dtype=np.int32)] * (m - 1)),
                            indexing="ij", sparse=True)
        nout = [sum(z * c[g] for z, g in zip(zeta, grids)) for c in comps]
        keep = np.all([np.abs(n) <= N for n in nout], axis=0)
        omega = (sum(n * n for n in nout) - sum(z * sq[g] for z, g in zip(zeta, grids)))[keep]
        prod = np.ones(keep.shape, dtype=complex)
        for j, g in enumerate(grids):
            coeff = states[j].coeffs.ravel()
            coeff = coeff if zeta[j] > 0 else np.conj(coeff)
            prod = prod * coeff[np.broadcast_to(g, keep.shape)]
        flat = sum((n[keep] + N) * side ** (d - 1 - c) for c, n in enumerate(nout))
        np.add.at(out, flat, prod[keep] * phi[np.searchsorted(uniq, omega)])
    return -1j * out.reshape((side,) * d)


def direct_nonlinearity(factors, k):
    """Truncated signed convolution of 2k+1 states by direct scipy convolution.

    Slot j carries factor j, conjugated and reflected on even slots;
    the result is cropped back to |n_i| <= N.
    """
    assert len(factors) == 2 * k + 1
    d, N = factors[0].d, factors[0].N
    acc = None
    for j, st in enumerate(factors, start=1):
        arr = st.coeffs if j % 2 == 1 else np.flip(np.conj(st.coeffs))
        acc = arr if acc is None else convolve(acc, arr, mode="full",
                                               method="direct")
    centre = 2 * k * N  # the full array spans |n_i| <= (2k+1)N
    return SpectralState(d, N, acc[(slice(centre, centre + 2 * N + 1),) * d])


_DIRECT_TUPLE_LIMIT = 5_000_000


def x_increment_direct(cfg, s, t, states):
    """Young kernel X_{s;t} by explicit enumeration of all interaction tuples.

    Takes its Phi increments from quadrature of the kernel's path
    (gl_phase_integral), not from the closed form, and uses no fold: every
    (2k+1)-tuple of input modes is visited and its phase gathered by offset.
    """
    d, N, m = cfg.d, cfg.N, cfg.n_factors
    side_flat = (2 * N + 1) ** d
    assert side_flat ** m <= _DIRECT_TUPLE_LIMIT, "direct enumeration too large"
    axes = np.meshgrid(*([np.arange(-N, N + 1)] * d), indexing="ij")
    modes = np.stack([a.ravel() for a in axes], axis=1)  # (S, d)
    sq = (modes ** 2).sum(axis=1)
    prod = np.ones((1,) * m, dtype=complex)
    qsum = np.zeros((1,) * m, dtype=np.int64)
    out_comp = [np.zeros((1,) * m, dtype=np.int64) for _ in range(d)]
    for j in range(1, m + 1):
        st = states[j - 1]
        vals = st.coeffs.ravel() if j % 2 == 1 else np.conj(st.coeffs).ravel()
        shape = [1] * m
        shape[j - 1] = side_flat
        zeta = 1 if j % 2 == 1 else -1
        prod = prod * vals.reshape(shape)
        qsum = qsum + zeta * sq.reshape(shape)
        for c in range(d):
            out_comp[c] = out_comp[c] + zeta * modes[:, c].reshape(shape)
    inside = np.ones(prod.shape, dtype=bool)
    for c in range(d):
        inside &= np.abs(out_comp[c]) <= N
    out_sq = sum(oc * oc for oc in out_comp)
    omega = out_sq - qsum
    flat = np.zeros(side_flat, dtype=complex)
    idx = np.zeros(prod.shape, dtype=np.int64)
    for c in range(d):
        idx = idx * (2 * N + 1) + (out_comp[c] + N)
    # integrate phases only at the offsets of in-box outputs; outside ones
    # can carry offsets beyond |Omega| <= R
    sel = inside.ravel()
    offsets, at = np.unique(omega.ravel()[sel], return_inverse=True)
    dphi = np.atleast_1d(gl_phase_integral(cfg.path, offsets, s, t))
    contrib = (-1j) * prod.ravel()[sel] * dphi[at]
    np.add.at(flat, idx.ravel()[sel], contrib)
    return SpectralState(d, N, flat.reshape((2 * N + 1,) * d))


def record_phase_ffts(monkeypatch) -> list:
    """Patch the phase primitive's FFTs to log (thread id, workers=) per call."""
    log = []

    def recorded(fn):
        def call(*args, **kwargs):
            log.append((threading.get_ident(), kwargs.get("workers")))
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(spectral, "ifft", recorded(spectral.ifft))
    monkeypatch.setattr(spectral, "fftn", recorded(spectral.fftn))
    return log


def padded_phase_products(sources, conj, phases, P, crop):
    """spectral._phase_products as one padded nd inverse FFT per distinct source
    and one out-of-place forward FFT: the bits the walker must keep."""
    axes = tuple(range(1, phases.ndim))
    fields = {id(src): ifftn(phases * src, s=(P,) * len(axes), axes=axes,
                             norm="forward", workers=1) for src in sources}
    prod = None
    for src, cj in zip(sources, conj):
        f = np.conj(fields[id(src)]) if cj else fields[id(src)]
        prod = f if prod is None else prod * f
    return fftn(prod, axes=axes, norm="forward", workers=1)[crop]
