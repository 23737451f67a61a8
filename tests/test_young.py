"""Young kernel increments: worked example, oracles, and structure."""

import threading
import tracemalloc

import numpy as np
import pytest

from scipy.fft import next_fast_len

from modnls import _fold, _runtime, spectral, young
from modnls.errors import ConfigError, NumericsError
from modnls.paths import (SamplePath, make_constant_path, make_fbm_path,
                          make_linear_path, make_modulated_path)
from modnls.phi import build_phi_table
from modnls.solver import SolverConfig, uniform_partition
from modnls.spectral import (SpectralState, hs_norm, nonlinearity, random_state, unit_mode,
                             zero_state)
from modnls.young import (
    YoungKernelConfig,
    _phase_grid,
    check_kernel_box,
    table_mu_max,
    x_increment,
    x_norm_estimate,
)
from tests.conftest import (conj_state, duhamel_x_oracle, record_phase_ffts, resonance_offset,
                            x_increment_direct)


def make_kernel(d, k, N, path):
    mu_max = (2 * k + 2) * d * N * N
    table = build_phi_table(path, mu_max)
    return YoungKernelConfig(d=d, k=k, N=N, table=table)


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
def test_tuple_path_matches_oracles(N):
    path = make_fbm_path(0.5, 1.0, 32, seed=6)
    cfg = make_kernel(1, 1, N, path)
    assert cfg._tuples is not None
    rng = np.random.default_rng(23)
    states = [random_state(1, N, 0.5, seed=rng) for _ in range(3)]
    s, t = path.t_grid[3], path.t_grid[29]
    got = x_increment(cfg, s, t, states).coeffs
    for want in (x_increment_direct(cfg, s, t, states).coeffs,
                 duhamel_x_oracle(path, s, t, states)):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _brute_tuple_count(d, k, N):
    modes = np.stack(np.meshgrid(*([np.arange(-N, N + 1)] * d), indexing="ij"),
                     axis=-1).reshape(-1, d)
    m = 2 * k + 1
    total = np.zeros((1,) * m + (d,), dtype=np.int64)
    for j in range(m):
        shape = [1] * m + [d]
        shape[j] = modes.shape[0]
        total = total + (-1) ** j * modes.reshape(shape)
    return int(np.all(np.abs(total) <= N, axis=-1).sum())


@pytest.mark.parametrize("d,k,N,path_name", [
    (1, 1, 2, "tuples"), (1, 1, 16, "tuples"), (1, 1, 32, "tuples"),
    (1, 2, 2, "phases"), (2, 1, 2, "phases"), (2, 1, 4, "phases"),
    (3, 1, 2, "phases"),
])
def test_kernel_path_selection(d, k, N, path_name, monkeypatch):
    path = make_linear_path(1.0, 2)
    cfg = make_kernel(d, k, N, path)
    walks = []
    monkeypatch.setattr(young, "walk_phases",
                        lambda *a, **kw: walks.append(a[2]) or spectral.walk_phases(*a, **kw))
    x_increment(cfg, 0.0, 1.0, [unit_mode(d, N, [0] * d)] * (2 * k + 1))
    if path_name == "tuples":
        assert cfg._tuples is not None
        assert cfg._tuples.dtype == np.int32
        assert cfg._tuples.shape == (2 * k + 3, _brute_tuple_count(d, k, N))
        assert walks == []
    else:
        assert cfg._tuples is None
        assert walks == [_phase_grid(d, k, N)[1]]


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
    """-i times the q-bucketed fold contracted with the Phi increments.

    The dense backend shift-accumulates slot entries, so it shares no
    phase product with the kernel's phase path.
    """
    dphi = cfg.table.increment(cfg.table.index_of_time(s), cfg.table.index_of_time(t))
    slots = _fold.alternating_slots([st.coeffs for st in states])
    res = _fold.fold_dense(slots, cfg.d).crop_spatial(cfg.N)
    return -1j * res.contract(dphi, cfg.table.mu_max)


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
    assert cfg._tuples is None
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


@pytest.mark.parametrize("d,k,N", [(1, 1, 3), (2, 1, 2), (2, 1, 3), (1, 2, 2)])
def test_window_table_drives_both_paths(d, k, N):
    # a Phi table of exactly the in-box window |mu| <= R gives the bits
    # of a (2k+2) d N^2 table on either path, the corner state reaching
    # Omega = -R and +R for k = 1; one column fewer is refused
    R = (k + 1) * d * N * N
    assert table_mu_max(d, k, N) == R
    path = make_fbm_path(0.3, 0.5, 64, seed=12)
    cfg = YoungKernelConfig(d, k, N, build_phi_table(path, R))
    wide = make_kernel(d, k, N, path)
    assert (cfg._tuples is not None) == ((d, k) == (1, 1))
    psi = _corner_state(d, N)
    rng = np.random.default_rng(8)
    for states in ([psi] * (2 * k + 1),
                   [psi] + [random_state(d, N, 0.5, seed=rng) for _ in range(2 * k)]):
        got = x_increment(cfg, 0.0, path.T, states).coeffs
        np.testing.assert_array_equal(got, x_increment(wide, 0.0, path.T, states).coeffs)
    with pytest.raises(ConfigError, match="mu_max"):
        YoungKernelConfig(d, k, N, build_phi_table(path, R - 1))


def _negated(path):
    return SamplePath(path.t_grid, -path.values, path.kind, offset=-path.offset)


# one box per kernel path: (1, 1, 3) takes tuples, (2, 1, 2) phases
@pytest.mark.parametrize("d,k,N", [(1, 1, 3), (2, 1, 2)])
def test_gauge_reflection_conjugation_invariants(d, k, N):
    path = make_fbm_path(0.4, 0.5, 32, seed=19)
    cfg = make_kernel(d, k, N, path)
    assert (cfg._tuples is not None) == (d == 1)
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


# one box per kernel path: d=1, k=1 contracts tuples, d=2 sums phases
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


def test_off_grid_times_rejected():
    path = make_linear_path(1.0, 16)
    cfg = make_kernel(1, 1, 2, path)
    states = [unit_mode(1, 2, 0) for _ in range(3)]
    with pytest.raises((ConfigError, KeyError)):
        x_increment(cfg, 0.0, 0.33, states)


def test_cap_guard():
    # the phase budget is the only size rule: (1, 1, 33) is well inside
    # it, (3, 3, 4) needs 385 x 33^3 = 1.4e7 entries and (3, 3, 5) needs
    # 625 x 45^3 = 5.7e7, refused up front
    path = make_linear_path(1.0, 2)
    cfg = make_kernel(1, 1, 33, path)
    assert cfg.N == 33 and cfg._tuples is not None
    check_kernel_box(3, 3, 4)
    table = build_phi_table(path, mu_max=table_mu_max(3, 3, 5))
    with pytest.raises(NumericsError, match="memory budget"):
        YoungKernelConfig(d=3, k=3, N=5, table=table)


# largest N whose L x P^d phase grid fits the entry budget
_ADMITTED_MAX = {(1, 1): 134, (1, 2): 103, (1, 3): 85, (1, 4): 73,
                 (2, 1): 23, (2, 2): 17, (2, 3): 13, (2, 4): 11,
                 (3, 1): 8, (3, 2): 5, (3, 3): 4, (3, 4): 4}


@pytest.mark.parametrize("d,k", sorted(_ADMITTED_MAX))
def test_kernel_admission_is_the_fold_budget(monkeypatch, d, k):
    # admitted iff the phase path's L x P^d entries fit the budget, with
    # R = (k+1) d N^2, L = next_fast_len(2R + 1) and
    # P = next_fast_len((2k+2) N + 1); the rule runs before any tuple or
    # Phi table is built (the name dates from when kernel boxes were
    # admitted by the fold's budget)
    def no_table(*args):
        raise AssertionError("a table was built for the box")

    monkeypatch.setattr(young, "_tuple_table", no_table)
    empty = build_phi_table(make_linear_path(1.0, 1), 0)
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
            with pytest.raises(ConfigError, match="mu_max"):  # past the rule
                YoungKernelConfig(d, k, N, empty)
        else:
            for refuse in (lambda: check_kernel_box(d, k, N),
                           lambda: SolverConfig(**solver_cfg),
                           lambda: YoungKernelConfig(d, k, N, empty)):
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
