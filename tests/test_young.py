"""Young kernel increments: worked example, oracles, and structure."""

import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from scipy.fft import fft, next_fast_len

from modnls import _fold, _runtime, spectral, young
from modnls import phi as phi_module
from modnls.errors import ConfigError, NumericsError
from modnls.paths import (SamplePath, make_constant_path, make_fbm_path,
                          make_linear_path, make_modulated_path)
from modnls.solver import SolverConfig, uniform_partition
from modnls.spectral import (SpectralState, hs_norm, nonlinearity, random_state, unit_mode,
                             zero_state)
from modnls.young import (
    YoungKernelConfig,
    _phase_grid,
    check_kernel_box,
    x_increment,
    x_increments,
    x_norm_estimate,
)
from tests.conftest import (conj_state, duhamel_x_oracle, record_phase_ffts, resonance_offset,
                            step_phi_increments, x_increment_direct)


def make_kernel(d, k, N, path):
    return YoungKernelConfig(d=d, k=k, N=N, path=path)


def test_worked_single_tuple_example():
    # delta_2, delta_1, delta_0 feed exactly one interaction: output mode
    # n = 2 - 1 + 0 = 1 with offset Omega = 1 - 4 + 1 - 0 = -2, and
    # int_0^{pi/2} e^{-2i tau} dtau = -i, so X(1) = (-i)(-i) = -1
    path = make_linear_path(np.pi / 2, 64)
    cfg = make_kernel(1, 1, 2, path)
    states = [unit_mode(1, 2, 2), unit_mode(1, 2, 1), unit_mode(1, 2, 0)]
    out = x_increment(cfg, 0.0, path.T, states)
    assert out[1] == pytest.approx(-1.0, abs=1e-12)
    rest = out.coeffs.copy()
    rest[1 + 2] = 0.0
    np.testing.assert_allclose(rest, 0.0, atol=1e-14)


@pytest.mark.parametrize("d,k,N", [(1, 1, 3), (2, 1, 2), (1, 2, 2)])
def test_phases_and_direct_agree(d, k, N):
    path = make_fbm_path(0.5, 1.0, 32, seed=6)
    cfg = make_kernel(d, k, N, path)
    rng = np.random.default_rng(17)
    states = [random_state(d, N, 0.5, seed=rng) for _ in range(2 * k + 1)]
    s, t = path.t_grid[3], path.t_grid[29]
    a = x_increment(cfg, s, t, states)
    b = x_increment_direct(cfg, s, t, states)
    scale = max(1.0, np.abs(a.coeffs).max())
    np.testing.assert_allclose(a.coeffs, b.coeffs, atol=1e-12 * scale)


@pytest.mark.parametrize("N", [2, 16, 32])
def test_tuple_path_matches_oracles(N, monkeypatch):
    # the (1, 1) boxes that a tuple table once contracted sum phases: the
    # window nodes, but at N = 2 this step needs p >= L = 18 and takes the turns
    path = make_fbm_path(0.5, 1.0, 32, seed=6)
    cfg = make_kernel(1, 1, N, path)
    walks = _spy_walks(monkeypatch)
    rng = np.random.default_rng(23)
    states = [random_state(1, N, 0.5, seed=rng) for _ in range(3)]
    s, t = path.t_grid[3], path.t_grid[29]
    got = x_increment(cfg, s, t, states).coeffs
    assert [kind for kind, _ in walks] == ["turns" if N == 2 else "window"]
    for want in (x_increment_direct(cfg, s, t, states).coeffs,
                 duhamel_x_oracle(path, s, t, states)):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _spy_walks(monkeypatch) -> list:
    """Log each kernel walk as ("window", p) for p window nodes or ("turns", L)."""
    walks = []

    def spy(sources, conj, turns, *args, **kwargs):
        walks.append(("window", len(turns)) if np.ndim(turns) else ("turns", turns))
        return spectral.walk_phases(sources, conj, turns, *args, **kwargs)

    monkeypatch.setattr(young, "walk_phases", spy)
    return walks


def _stated_window_size(x):
    """The smallest p > x with 8 (x/2)^p / p! <= 1e-16, by lgamma."""
    p = math.floor(x) + 1
    while x and math.log(8) + p * math.log(x / 2) - math.lgamma(p + 1) > math.log(1e-16):
        p += 1
    return p


@pytest.mark.parametrize("d,k,N,path_name", [
    (1, 1, 2, "phases"), (1, 1, 16, "phases"), (1, 1, 32, "phases"),
    (1, 2, 2, "phases"), (2, 1, 2, "phases"), (2, 1, 4, "phases"),
    (3, 1, 2, "phases"),
])
def test_kernel_path_selection(d, k, N, path_name, monkeypatch):
    # every box sums phases: on the clock w(t) = t, one short step spans
    # 1/64 of [0, 4] and walks its p < L window nodes; the whole clock
    # needs p >= L and walks the L equispaced turns
    path = make_linear_path(4.0, 256)
    cfg = make_kernel(d, k, N, path)
    walks = _spy_walks(monkeypatch)
    for s, t in ((0.0, path.t_grid[4]), (0.0, 4.0)):
        x_increment(cfg, s, t, [unit_mode(d, N, [0] * d)] * (2 * k + 1))
    R, L, _ = _phase_grid(d, k, N)
    p = _stated_window_size(R * path.t_grid[4] / 2)
    assert 1 < p < L <= _stated_window_size(R * 4.0 / 2)
    assert walks == [("window", p), ("turns", L)]


def _clock(kind):
    T, M = 0.5, 64
    if kind == "linear":
        return make_linear_path(T, M)
    if kind == "constant":
        return make_constant_path(0.7, T, M)
    if kind == "modulated":
        return make_modulated_path([1.0, 3.0, -0.5, 2.0], 0.25, T, M)
    return make_fbm_path(0.3, T, M, seed=11)


def _corner_state(d, N):
    """A state on 0 and the 2^d corners: for k = 1 its tuples reach Omega = -R and +R."""
    st = unit_mode(d, N, [0] * d, 0.8 - 0.3j)
    for c, signs in enumerate(np.ndindex(*(2,) * d)):
        st.coeffs[tuple(0 if sg else 2 * N for sg in signs)] = 0.5 + 0.2j * c
    return st


def _fold_oracle(cfg, s, t, states):
    """-i times the q-bucketed fold contracted with the Phi increments at
    |mu| <= (2k+2) d N^2.

    The dense backend shift-accumulates slot entries, so it shares no
    phase product with the kernel's phase path.
    """
    mu_max = (2 * cfg.k + 2) * cfg.d * cfg.N ** 2
    slots = _fold.alternating_slots([st.coeffs for st in states])
    res = _fold.fold_dense(slots, cfg.d).crop_spatial(cfg.N)
    return -1j * res.contract(step_phi_increments(cfg.path, s, t, mu_max), mu_max)


def _assert_rel(got, want, rel):
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


# boxes the phase path takes; (2, 2, 2) has 25^5 tuples, beyond the
# direct oracle's enumeration limit, so the fold checks it alone
@pytest.mark.parametrize("clock", ["linear", "constant", "modulated", "fbm"])
@pytest.mark.parametrize("d,k,N", [(1, 2, 2), (2, 1, 2), (2, 1, 3), (2, 1, 4),
                                   (3, 1, 2), (2, 2, 2)])
def test_phase_path_matches_oracles(d, k, N, clock):
    path = _clock(clock)
    cfg = make_kernel(d, k, N, path)
    rng = np.random.default_rng(100 * d + 10 * k + N)
    psi = random_state(d, N, 0.5, seed=rng)
    distinct = [random_state(d, N, 0.5, seed=rng) for _ in range(2 * k + 1)]
    i, j = sorted(rng.choice(path.M + 1, size=2, replace=False))
    s, t = path.t_grid[i], path.t_grid[j]
    for states in ([psi] * (2 * k + 1), distinct):
        got = x_increment(cfg, s, t, states).coeffs
        _assert_rel(got, _fold_oracle(cfg, s, t, states), 1e-12)
        if (d, k, N) != (2, 2, 2):
            _assert_rel(got, x_increment_direct(cfg, s, t, states).coeffs, 1e-12)


@pytest.mark.parametrize("d,k,N", [(2, 1, 2), (2, 1, 3), (1, 2, 2)])
def test_phase_path_reaches_both_offset_ends(d, k, N, monkeypatch):
    # L >= 2R + 1 phases keep Omega = +R and -R apart; the corner state
    # attains both ends for k = 1. A 7-phase chunk does not divide L, so
    # the last chunk is a partial one.
    R, L, P = _phase_grid(d, k, N)
    assert L % 7 != 0
    monkeypatch.setattr(young, "_PHASE_CHUNK_ENTRIES", 7 * P ** d)
    path = make_fbm_path(0.3, 0.5, 64, seed=12)
    cfg = make_kernel(d, k, N, path)
    psi = _corner_state(d, N)
    if k == 1:
        support = [np.array(m) - N for m in np.argwhere(psi.coeffs != 0)]
        offsets = {resonance_offset(a - b + c, [a, b, c])
                   for a in support for b in support for c in support
                   if np.all(np.abs(a - b + c) <= N)}
        assert min(offsets) == -R and max(offsets) == R
    rng = np.random.default_rng(5)
    for states in ([psi] * (2 * k + 1),
                   [psi] + [random_state(d, N, 0.5, seed=rng) for _ in range(2 * k)]):
        s, t = path.t_grid[0], path.t_grid[64]
        got = x_increment(cfg, s, t, states).coeffs
        _assert_rel(got, x_increment_direct(cfg, s, t, states).coeffs, 1e-12)
        _assert_rel(got, _fold_oracle(cfg, s, t, states), 1e-12)


def test_phase_path_keeps_no_phase_table():
    # (2, 1, 16): L = 2050 phases on a 33^2 cube; a whole phase table would
    # be 36 MB, one chunk of gathered phases is a few KB
    path = make_fbm_path(0.3, 0.5, 4, seed=2)
    tracemalloc.start()
    try:
        cfg = make_kernel(2, 1, 16, path)
        states = [random_state(2, 16, 0.5, seed=j) for j in range(3)]
        out = x_increment(cfg, path.t_grid[0], path.t_grid[4], states)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(out.coeffs))
    assert peak < 20e6


@pytest.mark.parametrize("task_chunks", [3, None], ids=["pooled", "one-task"])
def test_phase_path_does_not_depend_on_worker_count(task_chunks, monkeypatch):
    # (2, 1, 3): L = 150 phases in 7-row chunks, three chunks a task, so the
    # last chunk and the last task are ragged; the default task holds all
    # of L, which runs inline at any worker count
    d, k, N = 2, 1, 3
    _, L, P = _phase_grid(d, k, N)
    monkeypatch.setattr(young, "_PHASE_CHUNK_ENTRIES", 7 * P ** d)
    if task_chunks:
        assert L % 7 and L % (7 * task_chunks)
        monkeypatch.setattr(spectral, "_PHASE_TASK_ENTRIES", 7 * task_chunks * P ** d)
    path = make_fbm_path(0.3, 0.5, 16, seed=4)
    cfg = make_kernel(d, k, N, path)
    rng = np.random.default_rng(6)
    states = [random_state(d, N, 0.5, seed=rng) for _ in range(3)]
    log = record_phase_ffts(monkeypatch)
    monkeypatch.setattr(_runtime, "_workers", _runtime.get_workers())
    out = []
    for n in (1, 2):
        _runtime.set_workers(n)
        log.clear()
        out.append(x_increment(cfg, path.t_grid[3], path.t_grid[11], states).coeffs)
        assert {w for _, w in log} == {1}
        on_pool = {t for t, _ in log} != {threading.get_ident()}
        assert on_pool == (n == 2 and task_chunks is not None)
    assert np.array_equal(out[0], out[1])


def _negated(path):
    return SamplePath(path.t_grid, -path.values, offset=-path.offset)


@pytest.mark.parametrize("d,k,N", [(1, 1, 3), (2, 1, 2)])
def test_gauge_reflection_conjugation_invariants(d, k, N):
    path = make_fbm_path(0.4, 0.5, 32, seed=19)
    cfg = make_kernel(d, k, N, path)
    rng = np.random.default_rng(31)
    states = [random_state(d, N, 0.5, seed=rng) for _ in range(2 * k + 1)]
    s, t = path.t_grid[4], path.t_grid[27]
    base = x_increment(cfg, s, t, states).coeffs
    scale = np.abs(base).max()
    # gauge: k+1 plain and k conjugate slots leave one factor e^{ia}
    a = 0.83
    gauged = [SpectralState(d, N, np.exp(1j * a) * st.coeffs) for st in states]
    np.testing.assert_allclose(x_increment(cfg, s, t, gauged).coeffs,
                               np.exp(1j * a) * base, atol=1e-13 * scale)
    # reflection n -> -n keeps every Omega
    flipped = [SpectralState(d, N, np.flip(st.coeffs)) for st in states]
    np.testing.assert_allclose(x_increment(cfg, s, t, flipped).coeffs,
                               np.flip(base), atol=1e-13 * scale)
    # conjugation: X^w(conj psi) = -conj(X^{-w}(psi)), as Phi_{-w}(mu) = Phi_w(-mu)
    neg = make_kernel(d, k, N, _negated(path))
    want = conj_state(SpectralState(d, N, x_increment(neg, s, t, states).coeffs))
    got = x_increment(cfg, s, t, [conj_state(st) for st in states]).coeffs
    np.testing.assert_allclose(got, -want.coeffs, atol=1e-13 * scale)


def test_quadrature_oracle_agreement():
    path = make_fbm_path(0.5, 1.0, 32, seed=21)
    cfg = make_kernel(1, 1, 2, path)
    rng = np.random.default_rng(4)
    states = [random_state(1, 2, 0.5, seed=rng) for _ in range(3)]
    s, t = path.t_grid[5], path.t_grid[27]
    got = x_increment(cfg, s, t, states)
    oracle = duhamel_x_oracle(path, s, t, states)
    np.testing.assert_allclose(got.coeffs, oracle, atol=1e-12)


def test_frozen_clock_reduces_to_nonlinearity():
    # w identically zero freezes every phase at 1, so the kernel becomes
    # -i (t - s) times the truncated convolution
    path = make_constant_path(0.0, 1.0, 16)
    cfg = make_kernel(1, 1, 3, path)
    rng = np.random.default_rng(30)
    states = [random_state(1, 3, 0.5, seed=rng) for _ in range(3)]
    s, t = path.t_grid[2], path.t_grid[13]
    got = x_increment(cfg, s, t, states)
    expected = -1j * (t - s) * nonlinearity(states, 1).coeffs
    np.testing.assert_allclose(got.coeffs, expected, atol=1e-13)


@pytest.mark.parametrize("d,k,N", [(1, 1, 3), (2, 1, 2)])
def test_increment_additivity_and_zero_width(d, k, N):
    path = make_fbm_path(0.5, 1.0, 32, seed=2)
    cfg = make_kernel(d, k, N, path)
    rng = np.random.default_rng(12)
    states = [random_state(d, N, 0.5, seed=rng) for _ in range(2 * k + 1)]
    t0, t1, t2 = path.t_grid[0], path.t_grid[11], path.t_grid[32]
    whole = x_increment(cfg, t0, t2, states)
    split = x_increment(cfg, t0, t1, states).coeffs + x_increment(cfg, t1, t2, states).coeffs
    np.testing.assert_allclose(whole.coeffs, split, atol=1e-14)
    nothing = x_increment(cfg, t1, t1, states)
    np.testing.assert_allclose(nothing.coeffs, 0.0, atol=0)


@pytest.mark.parametrize("d,k,N", [(1, 1, 2), (2, 1, 2)])
def test_multilinearity_with_conjugate_slots(d, k, N):
    path = make_fbm_path(0.5, 1.0, 16, seed=8)
    cfg = make_kernel(d, k, N, path)
    rng = np.random.default_rng(9)
    states = [random_state(d, N, 0.5, seed=rng) for _ in range(2 * k + 1)]
    s, t = 0.0, path.T
    base = x_increment(cfg, s, t, states).coeffs
    alpha = 0.7 - 1.3j

    odd = list(states)
    odd[0] = SpectralState(d, N, alpha * states[0].coeffs)
    np.testing.assert_allclose(x_increment(cfg, s, t, odd).coeffs,
                               alpha * base, atol=1e-13)
    even = list(states)
    even[1] = SpectralState(d, N, alpha * states[1].coeffs)
    np.testing.assert_allclose(x_increment(cfg, s, t, even).coeffs,
                               np.conj(alpha) * base, atol=1e-13)


def test_mass_orthogonality():
    # Re<psi, X(psi,...,psi)> vanishes identically: reversing each tuple
    # maps Omega to -Omega while conjugating its coefficient product
    path = make_fbm_path(0.5, 1.0, 32, seed=14)
    cfg = make_kernel(1, 1, 4, path)
    psi = random_state(1, 4, 0.5, seed=77)
    out = x_increment(cfg, 0.0, path.T, [psi, psi, psi])
    inner = np.vdot(psi.coeffs, out.coeffs)
    scale = hs_norm(psi, 0.0) * hs_norm(out, 0.0)
    assert abs(inner.real) <= 1e-14 * max(1.0, scale)


def _window_clock(kind):
    """Clocks for the window rule: fBm, fBm with flat and 1e-13 segments, fBm off 0."""
    path = make_fbm_path(0.5, 0.25, 64, seed=3)
    if kind == "fbm":
        return path
    if kind == "offset":
        return SamplePath(path.t_grid, path.values, offset=2.5)
    v = path.values.copy()
    v[1::4] = v[0:-1:4]
    v[3::4] = v[2::4] + 1e-13
    return SamplePath(path.t_grid, v)


def _rule_sums(cfg, i, j, states):
    """The phase sum on the step from node i to node j by the window rule and by the L turns."""
    R, L, _ = _phase_grid(cfg.d, cfg.k, cfg.N)
    s, t = cfg.path.t_grid[[i, j]]
    window = young._window_rule(cfg.path, s, t, R, L)
    assert window is not None
    turns = (L, young._turn_weights(cfg.path, s, t, R, L))
    return young._phase_sum(cfg, states, *window), young._phase_sum(cfg, states, *turns)


@pytest.mark.parametrize("n", [1, 2, 5, 33, 300])
def test_gauss_legendre_rule(n):
    # the window weights' rule: numpy's nodes, and T_j integrated exactly
    # for every degree j < 2n (int_{-1}^{1} T_j = 2 / (1 - j^2), j even)
    u, g = young._gauss_legendre(n)
    np.testing.assert_allclose(np.sort(u), np.polynomial.legendre.leggauss(n)[0], atol=1e-15)
    j = np.arange(2 * n)
    exact = np.zeros(2 * n)
    exact[::2] = 2 / (1 - j[::2] ** 2.0)
    np.testing.assert_allclose(np.cos(np.outer(j, np.arccos(u))) @ g, exact, atol=1e-13)


@pytest.mark.parametrize("clock", ["fbm", "flats", "offset"])
@pytest.mark.parametrize("span", [1, 4, 64])
def test_window_rule_against_turns(span, clock):
    # the window rule is exact to 1e-16 (t - s) on every in-box Omega, and
    # its weights to rounding on flat, tiny and ordinary segments alike;
    # the L turns are exact whatever the clock, so the two agree to rounding
    path = _window_clock(clock)
    cfg = make_kernel(2, 1, 3, path)
    rng = np.random.default_rng(span)
    states = [random_state(2, 3, 0.5, seed=rng) for _ in range(3)]
    for i in sorted({0, min(6, 64 - span), 64 - span}):
        window, turns = _rule_sums(cfg, i, i + span, states)
        _assert_rel(window, turns, 1e-13)


@pytest.mark.parametrize("clock", ["fbm", "flats"])
@pytest.mark.parametrize("span", [1, 4, 64])
def test_window_weights_integrate_polynomials_exactly(span, clock):
    # the weights reproduce int_s^t T_j(xi(r)) dr for every j < p, xi the
    # clock in window coordinates: against numpy's 64-point Gauss-Legendre
    # rule on each linear segment, exact for these degrees (p < L = 75)
    path = _window_clock(clock)
    cfg = make_kernel(2, 1, 3, path)
    R, L, _ = _phase_grid(2, 1, 3)
    u, g = np.polynomial.legendre.leggauss(64)
    for i in sorted({0, min(8, 64 - span), 64 - span}):
        w, t = path.values[i:i + span + 1] + path.offset, path.t_grid[i:i + span + 1]
        theta, c = young._window_rule(path, t[0], t[-1], R, L)
        if c.size == 1:  # a flat or 1e-13 step: all of t - s on one node
            assert c[0] == t[-1] - t[0]
            continue
        xi = (w - (w.max() + w.min()) / 2) / ((w.max() - w.min()) / 2)
        points = (xi[:-1, None] + xi[1:, None]) / 2 + np.multiply.outer(np.diff(xi) / 2, u)
        weights = np.multiply.outer(np.diff(t) / 2, g)
        x = young._window_nodes(c.size)[0]
        for j in range(c.size):
            T = np.polynomial.Chebyshev.basis(j)
            assert abs(c @ T(x) - np.sum(weights * T(points))) <= 1e-13 * (t[-1] - t[0])


def test_window_weights_with_a_point_on_a_node():
    # a flat segment whose clock sits exactly on a Chebyshev node puts all
    # of its Gauss-Legendre points there, where ell_l is the node's indicator
    d, k, N = 2, 1, 3
    R, L, _ = _phase_grid(d, k, N)
    p = young._window_size(R * 0.25, L)
    x = young._window_nodes(p)[0]
    on = [w for w in 0.25 + 0.25 * x if (w - 0.25) / 0.25 in x]
    assert on
    path = SamplePath(np.linspace(0.0, 0.3, 4), [0.0, on[0], on[0], 0.5])
    cfg = make_kernel(d, k, N, path)
    rng = np.random.default_rng(3)
    states = [random_state(d, N, 0.5, seed=rng) for _ in range(3)]
    window, turns = _rule_sums(cfg, 0, 3, states)
    _assert_rel(window, turns, 1e-13)


@pytest.mark.parametrize("clock", ["linear", "fbm-0.3", "fbm-0.5"])
@pytest.mark.parametrize("d,k,N", [(2, 1, 4), (1, 2, 8), (3, 1, 3)])
def test_window_rule_against_duhamel_oracle(d, k, N, clock, monkeypatch):
    # steps of three segments walk their window nodes; the oracle
    # enumerates the tuples and integrates each phase by quadrature
    if clock == "linear":
        path = make_linear_path(0.5, 64)
    else:
        path = make_fbm_path(float(clock[4:]), 0.5, 64, seed=7)
    cfg = make_kernel(d, k, N, path)
    walks = _spy_walks(monkeypatch)
    rng = np.random.default_rng(10 * d + k)
    states = [random_state(d, N, 0.5, seed=rng) for _ in range(2 * k + 1)]
    s, t = path.t_grid[20], path.t_grid[23]
    got = x_increment(cfg, s, t, states).coeffs
    assert walks[0][0] == "window" and walks[0][1] < _phase_grid(d, k, N)[1]
    _assert_rel(got, duhamel_x_oracle(path, s, t, states), 1e-12)


@pytest.mark.parametrize("level", [0.0, 0.7])
@pytest.mark.parametrize("d,k,N", [(2, 1, 3), (1, 2, 3)])
def test_frozen_clock_walks_one_window_node(d, k, N, level, monkeypatch):
    # a clock frozen at c gives dPhi(Omega) = (t - s) e^{i Omega c}: one node
    # at c carries all of t - s, and X = -i (t - s) U^{-c} N(U^{c} psi)
    path = make_constant_path(level, 1.0, 16)
    cfg = make_kernel(d, k, N, path)
    walks = _spy_walks(monkeypatch)
    rng = np.random.default_rng(30)
    states = [random_state(d, N, 0.5, seed=rng) for _ in range(2 * k + 1)]
    s, t = path.t_grid[2], path.t_grid[13]
    got = x_increment(cfg, s, t, states).coeffs
    assert walks == [("window", 1)]
    plain = nonlinearity([spectral.apply_U(st, level) for st in states], k)
    want = -1j * (t - s) * spectral.apply_U(plain, level, "inverse").coeffs
    _assert_rel(got, want, 1e-13)


def _equispaced_x(cfg, s, t, states):
    """X_{s;t} by the L equispaced turns alone, as the kernel computed it
    before window nodes: c = fft(w) / L of the step's Phi increments."""
    d, N = cfg.d, cfg.N
    R, L, P = _phase_grid(d, cfg.k, N)
    dphi = step_phi_increments(cfg.path, s, t, R)
    w = np.zeros(L, dtype=complex)
    w[:R + 1] = dphi[R:]
    w[L - R:] = dphi[:R]
    c = fft(w) / L
    crop = (slice(None),) + (slice(0, 2 * N + 1),) * d
    sources, conj = [st.coeffs for st in states], [j % 2 for j in range(len(states))]
    return -1j * sum(spectral.walk_phases(
        sources, conj, L, P, crop,
        lambda l, phases, F: np.tensordot(c[l], np.conj(phases) * F, axes=1),
        rows=max(1, young._PHASE_CHUNK_ENTRIES // P ** d)))


@pytest.mark.parametrize("d,k,N", [(2, 1, 2), (1, 2, 2), (2, 1, 4)])
def test_turns_step_is_the_equispaced_sum_bit_for_bit(d, k, N, monkeypatch):
    # on the whole rough clock p >= L, and the kernel walks the L turns
    # exactly as the equispaced rule alone does
    path = make_fbm_path(0.3, 2.0, 64, seed=12)
    cfg = make_kernel(d, k, N, path)
    walks = _spy_walks(monkeypatch)
    rng = np.random.default_rng(2)
    states = [random_state(d, N, 0.5, seed=rng) for _ in range(2 * k + 1)]
    got = x_increment(cfg, 0.0, path.T, states).coeffs
    assert walks == [("turns", _phase_grid(d, k, N)[1])]
    np.testing.assert_array_equal(got, _equispaced_x(cfg, 0.0, path.T, states))


@pytest.mark.parametrize("rule", ["window", "turns"])
@pytest.mark.parametrize("d,k,N", [(2, 1, 2), (1, 2, 2)])
def test_invariants_under_each_rule(d, k, N, rule, monkeypatch):
    # gauge, reflection, conjugation, additivity and multilinearity hold
    # whichever rule sums the phases: the window rule on a clock narrow
    # enough for p < L on every step, the L turns with the window rule off
    path = make_fbm_path(0.4, 0.5, 32, seed=19)
    if rule == "window":
        path = SamplePath(path.t_grid, 0.1 * path.values)
    else:
        monkeypatch.setattr(young, "_window_rule", lambda *args: None)
    cfg, neg = make_kernel(d, k, N, path), make_kernel(d, k, N, _negated(path))
    walks = _spy_walks(monkeypatch)
    rng = np.random.default_rng(31)
    states = [random_state(d, N, 0.5, seed=rng) for _ in range(2 * k + 1)]
    t0, t1, t2 = path.t_grid[4], path.t_grid[17], path.t_grid[27]
    base = x_increment(cfg, t0, t2, states).coeffs
    scale = np.abs(base).max()
    a = 0.83
    gauged = [SpectralState(d, N, np.exp(1j * a) * st.coeffs) for st in states]
    np.testing.assert_allclose(x_increment(cfg, t0, t2, gauged).coeffs,
                               np.exp(1j * a) * base, atol=1e-13 * scale)
    flipped = [SpectralState(d, N, np.flip(st.coeffs)) for st in states]
    np.testing.assert_allclose(x_increment(cfg, t0, t2, flipped).coeffs,
                               np.flip(base), atol=1e-13 * scale)
    want = conj_state(SpectralState(d, N, x_increment(neg, t0, t2, states).coeffs))
    got = x_increment(cfg, t0, t2, [conj_state(st) for st in states]).coeffs
    np.testing.assert_allclose(got, -want.coeffs, atol=1e-13 * scale)
    split = x_increment(cfg, t0, t1, states).coeffs + x_increment(cfg, t1, t2, states).coeffs
    np.testing.assert_allclose(base, split, atol=1e-14)
    alpha = 0.7 - 1.3j
    for j, factor in ((0, alpha), (1, np.conj(alpha))):
        scaled = list(states)
        scaled[j] = SpectralState(d, N, alpha * states[j].coeffs)
        np.testing.assert_allclose(x_increment(cfg, t0, t2, scaled).coeffs,
                                   factor * base, atol=1e-13)
    assert {kind for kind, _ in walks} == {rule}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("chunk_rows", [7, None], ids=["7-row", "default"])
@pytest.mark.parametrize("d,k,N", [(1, 1, 16), (2, 1, 4), (1, 2, 4)])
def test_batched_increments_are_the_one_step_increments(d, k, N, chunk_rows, workers,
                                                        monkeypatch):
    # every step of a rough clock, the whole clock and an empty step in one
    # x_increments call: each increment is the one-step x_increment's, bit
    # for bit. On 4 times an fBm clock some steps need more window nodes than
    # a chunk holds (all but (1, 2, 4) at the default chunk size), and some,
    # the whole clock among them, p >= L; 2-chunk tasks put the shared walk
    # on the pool at 2 workers
    P = _phase_grid(d, k, N)[2]
    if chunk_rows:
        monkeypatch.setattr(young, "_PHASE_CHUNK_ENTRIES", chunk_rows * P ** d)
    rows = young._PHASE_CHUNK_ENTRIES // P ** d
    monkeypatch.setattr(spectral, "_PHASE_TASK_ENTRIES", 2 * rows * P ** d)
    monkeypatch.setattr(_runtime, "_workers", workers)
    base = make_fbm_path(0.3, 0.5, 32, seed=11)
    path = SamplePath(base.t_grid, 4 * base.values)
    cfg = make_kernel(d, k, N, path)
    g = path.t_grid
    spans = [*zip(g[:-1], g[1:]), (g[0], g[-1]), (g[5], g[5])]
    rng = np.random.default_rng(10 * d + k)
    psis = [random_state(d, N, 0.5, seed=rng) for _ in spans]
    log = record_phase_ffts(monkeypatch)
    # one source in every slot, as in a Picard sweep, then each step's own
    # distinct slots, shared with its neighbours
    for feeds in ([[psi] * (2 * k + 1) for psi in psis],
                  [[psis[j - i] for i in range(2 * k + 1)] for j in range(len(spans))]):
        got = x_increments(cfg, spans, feeds)
        on_pool = {t for t, _ in log} != {threading.get_ident()}
        assert on_pool == (workers == 2)
        for (s, t), states, inc in zip(spans, feeds, got):
            np.testing.assert_array_equal(inc, x_increment(cfg, s, t, states).coeffs)
        log.clear()
    assert not got[-1].any()
    windows = [rule[1].size for rule in cfg._rules.values() if rule is not None]
    assert (max(windows) > rows) == (chunk_rows is not None or (d, k) != (1, 2))
    assert cfg._rules[0.0, g[32]] is None


def test_window_size_tables_log_factorials_once():
    # the log-factorials tabled once per L give the window rule's p, the
    # formula summed afresh as the oracle
    for L in (18, 75, 132, 1029):
        for x in np.concatenate([[0.0, 1e-300, 1e-3, 0.7], np.linspace(1.0, 1.3 * L, 97)]):
            p = np.arange(1, L)
            log_bound = np.log(8.0) + p * np.log(x / 2) - np.cumsum(np.log(p)) if x else p
            ok = np.flatnonzero((p > x) & (log_bound <= np.log(young._WINDOW_EPS)))
            want = 1 if not x else int(p[ok[0]]) if ok.size else L
            assert young._window_size(x, L) == want, (x, L)
        assert young._LOG_FACTORIALS[L].size == L - 1


def _steep_clock():
    """picard-d1's clock (fBm H=0.3, T=0.1, M=64, seed 101) times 200: most
    one-segment steps need p >= L at (1, 1, 16) and take the turns."""
    base = make_fbm_path(0.3, 0.1, 64, seed=101)
    return SamplePath(base.t_grid, 200 * base.values)


def test_one_segment_turns_step_walks_its_rows_in_blocks(monkeypatch):
    # R = 512: the step's 513 frequency rows on its one segment take one
    # block, the 9 anchors 0, 64, ..., 512 with one cumprod down their 64-row
    # pieces (the last, one row, padded); the block evaluates its anchors in
    # one _cis per factor, and the gap 1 its step factors once: 2 + 2 calls (a
    # walk row by row would make 2 per anchor, 2 x 9 + 2)
    path = _steep_clock()
    cfg = make_kernel(1, 1, 16, path)
    calls = []
    cis = phi_module._cis
    monkeypatch.setattr(phi_module, "_cis", lambda x: calls.append(np.shape(x)) or cis(x))
    walks = _spy_walks(monkeypatch)
    states = [random_state(1, 16, 1.0, seed=3)] * 3
    got = x_increment(cfg, path.t_grid[5], path.t_grid[6], states).coeffs
    assert walks == [("turns", _phase_grid(1, 1, 16)[1])]
    assert calls == [(1,), (1,), (9, 1), (9, 1)]
    _assert_rel(got, duhamel_x_oracle(path, path.t_grid[5], path.t_grid[6], states), 1e-12)


def test_turns_step_at_the_largest_box_builds_no_table():
    # (1, 2, 103) with M = 256: the whole steep linear clock takes the turns,
    # whose 31828 increments come from the clock's segments; a whole
    # (M+1) x (2R+1) table of Phi would be 262 MB
    path = SamplePath(np.linspace(0.0, 1.0, 257), np.linspace(0.0, 10.0, 257))
    states = [unit_mode(1, 103, 0, 0.5), unit_mode(1, 103, 3, 0.2)] * 2 + [unit_mode(1, 103, 0)]
    tracemalloc.start()
    try:
        cfg = YoungKernelConfig(1, 2, 103, path)
        got = x_increment(cfg, 0.0, 1.0, states)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    assert young._window_rule(path, 0.0, 1.0, *_phase_grid(1, 2, 103)[:2]) is None
    assert np.isfinite(got.coeffs).all() and np.abs(got.coeffs).max() > 0


def test_batched_increments_validate_every_step():
    path = make_linear_path(1.0, 8)
    cfg = make_kernel(1, 1, 2, path)
    good = [unit_mode(1, 2, 0)] * 3
    steps = [(0.0, 0.125), (0.125, 0.25)]
    for feeds, spans, match in (([good], steps, "one feed per step"),
                                ([good, good[:2]], steps, "2k\\+1 = 3 factors"),
                                ([good, good], [(0.0, 0.125), (0.25, 0.125)], "s <= t")):
        with pytest.raises(ConfigError, match=match):
            x_increments(cfg, spans, feeds)


def test_steps_outside_the_clock_refused():
    # a step lies in [0, T]; an end beyond T by at most the 1e-12 horizon
    # tolerance of the solver and the CLI is the last node
    path = make_linear_path(1.0, 16)
    cfg = make_kernel(1, 1, 2, path)
    states = [unit_mode(1, 2, 0), unit_mode(1, 2, 1), unit_mode(1, 2, -1)]
    for s, t in ((-1e-3, 0.5), (0.5, 1.0 + 1e-9), (1.1, 1.2), (np.nan, 0.5), (0.5, np.inf)):
        with pytest.raises(ConfigError, match="need 0 <= s <= t <= T"):
            x_increment(cfg, s, t, states)
    np.testing.assert_array_equal(x_increment(cfg, 0.33, 1.0 + 5e-13, states).coeffs,
                                  x_increment(cfg, 0.33, 1.0, states).coeffs)


@pytest.mark.parametrize("scale", [1, 400], ids=["window", "turns"])
@pytest.mark.parametrize("d,k,N", [(1, 1, 4), (2, 1, 3)])
def test_off_node_steps_against_duhamel_oracle(d, k, N, scale, monkeypatch):
    # a step's ends need not be clock nodes: both inside one segment, off the
    # nodes across several segments, and the whole clock, by window nodes on
    # an fBm clock and by the L turns on the same clock times 400
    base = make_fbm_path(0.5, 0.5, 64, seed=7)
    path = SamplePath(base.t_grid, scale * base.values)
    cfg = make_kernel(d, k, N, path)
    walks = _spy_walks(monkeypatch)
    rng = np.random.default_rng(10 * d + N)
    states = [random_state(d, N, 0.5, seed=rng) for _ in range(2 * k + 1)]
    g, h = path.t_grid, path.t_grid[1]
    for s, t in ((g[20] + 0.25 * h, g[20] + 0.7 * h), (g[5] + 0.4 * h, g[23] + 0.1 * h),
                 (0.0, path.T)):
        got = x_increment(cfg, s, t, states).coeffs
        _assert_rel(got, duhamel_x_oracle(path, s, t, states), 1e-12)
    assert {kind for kind, _ in walks} == {"window" if scale == 1 else "turns"}


@pytest.mark.parametrize("scale", [1, 400], ids=["window", "turns"])
def test_off_node_steps_on_an_offset_clock_against_duhamel_oracle(scale, monkeypatch):
    # the kernel reads values + offset of the path itself: off-node steps on
    # an fBm clock at offset -1.25, by window nodes and by the L turns
    base = make_fbm_path(0.5, 0.5, 64, seed=7)
    path = SamplePath(base.t_grid, scale * base.values, offset=-1.25)
    cfg = make_kernel(2, 1, 3, path)
    walks = _spy_walks(monkeypatch)
    rng = np.random.default_rng(5)
    states = [random_state(2, 3, 0.5, seed=rng) for _ in range(3)]
    g, h = path.t_grid, path.t_grid[1]
    for s, t in ((g[20] + 0.25 * h, g[20] + 0.7 * h), (g[5] + 0.4 * h, g[23] + 0.1 * h),
                 (0.3 * h, path.T)):
        got = x_increment(cfg, s, t, states).coeffs
        _assert_rel(got, duhamel_x_oracle(path, s, t, states), 1e-12)
    assert {kind for kind, _ in walks} == {"window" if scale == 1 else "turns"}


def test_cap_guard():
    # the phase budget is the only size rule: (1, 1, 33) is well inside
    # it, (3, 3, 4) needs 385 x 33^3 = 1.4e7 entries and (3, 3, 5) needs
    # 625 x 45^3 = 5.7e7, refused up front
    path = make_linear_path(1.0, 2)
    cfg = make_kernel(1, 1, 33, path)
    assert cfg.N == 33
    check_kernel_box(3, 3, 4)
    with pytest.raises(NumericsError, match="memory budget"):
        YoungKernelConfig(d=3, k=3, N=5, path=path)


# largest N whose L x P^d phase grid fits the entry budget
_ADMITTED_MAX = {(1, 1): 134, (1, 2): 103, (1, 3): 85, (1, 4): 73,
                 (2, 1): 23, (2, 2): 17, (2, 3): 13, (2, 4): 11,
                 (3, 1): 8, (3, 2): 5, (3, 3): 4, (3, 4): 4}


@pytest.mark.parametrize("d,k", sorted(_ADMITTED_MAX))
def test_kernel_admission_is_the_fold_budget(d, k):
    # admitted iff the phase path's L x P^d entries fit the budget, with
    # R = (k+1) d N^2, L = next_fast_len(2R + 1) and
    # P = next_fast_len((2k+2) N + 1), and on the box alone (the name dates
    # from when kernel boxes were admitted by the fold's budget)
    path = make_linear_path(1.0, 1)
    admitted = []
    for N in range(1, _ADMITTED_MAX[d, k] + 2):
        R = (k + 1) * d * N * N
        fits = (next_fast_len(2 * R + 1) * next_fast_len((2 * k + 2) * N + 1) ** d
                <= 4e7)
        solver_cfg = dict(d=d, k=k, N=N, s=2.0, gamma=0.6, lam=0.5, rho=1.0,
                          T=1.0, partition=uniform_partition(1.0, 1))
        if fits:
            admitted.append(N)
            check_kernel_box(d, k, N)
            SolverConfig(**solver_cfg)
            YoungKernelConfig(d, k, N, path)
        else:
            for refuse in (lambda: check_kernel_box(d, k, N),
                           lambda: SolverConfig(**solver_cfg),
                           lambda: YoungKernelConfig(d, k, N, path)):
                with pytest.raises(NumericsError, match="memory budget"):
                    refuse()
    assert admitted == list(range(1, _ADMITTED_MAX[d, k] + 1))


def test_states_validation():
    # box sizes must be real integers: floats and bools are refused,
    # numpy integers pass
    for d, k, N in ((1, 1, 4.0), (1.0, 1, 4), (True, 1, 4), (1, True, 4),
                    (1, 1, True)):
        with pytest.raises(ConfigError):
            check_kernel_box(d, k, N)
    with pytest.raises(ConfigError):
        zero_state(1, 4.0)
    check_kernel_box(np.int64(1), np.int32(1), np.int64(4))
    path = make_linear_path(1.0, 8)
    cfg = make_kernel(1, 1, 2, path)
    good = [unit_mode(1, 2, 0) for _ in range(3)]
    with pytest.raises(ConfigError):
        x_increment(cfg, 0.0, 1.0, good[:2])
    bad = [unit_mode(1, 3, 0), good[1], good[2]]
    with pytest.raises(ConfigError):
        x_increment(cfg, 0.0, 1.0, bad)


def test_x_norm_estimate_refuses_what_it_cannot_weigh():
    # an s whose box weight (1 + d N^2)^|s| overflows is refused up front; at
    # s = -200 the weights are finite but an increment's H^s norm overflows,
    # which raises where it once dropped the trial; at s = -300 the kernel's
    # phase products overflow too, which once printed numpy's warning first
    cfg = make_kernel(1, 1, 2, make_linear_path(1.0, 8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (1e308, -np.inf, np.nan):
            with pytest.raises(ConfigError, match="Sobolev index"):
                x_norm_estimate(cfg, gamma=0.5, s=s, trials=2, seed=0)
        for s in (-200.0, -300.0):
            with pytest.raises(NumericsError, match="overflows"):
                x_norm_estimate(cfg, gamma=0.5, s=s, trials=4, seed=0)


def test_x_norm_estimate_deterministic_extension():
    path = make_fbm_path(0.5, 1.0, 16, seed=5)
    cfg = make_kernel(1, 1, 3, path)
    few = x_norm_estimate(cfg, gamma=0.55, s=0.5, trials=4, seed=42)
    again = x_norm_estimate(cfg, gamma=0.55, s=0.5, trials=4, seed=42)
    more = x_norm_estimate(cfg, gamma=0.55, s=0.5, trials=9, seed=42)
    assert few == again
    assert more >= few > 0
    with pytest.raises(ConfigError):
        x_norm_estimate(cfg, gamma=1.5, s=0.5, trials=2, seed=0)
    with pytest.raises(ConfigError):
        x_norm_estimate(cfg, gamma=0.5, s=0.5, trials=0, seed=0)
