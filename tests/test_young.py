"""Young kernel increments: worked example, oracles, and structure."""

import numpy as np
import pytest

from modnls.errors import ConfigError
from modnls.paths import make_constant_path, make_fbm_path, make_linear_path
from modnls.phi import build_phi_table
from modnls.spectral import (SpectralState, hs_norm, nonlinearity, random_state,
                             unit_mode)
from modnls.young import (
    YoungKernelConfig,
    _tuple_count,
    x_increment,
    x_norm_estimate,
)
from tests.conftest import duhamel_x_oracle, x_increment_direct


def make_kernel(d, k, N, path, allow_large=False):
    mu_max = (2 * k + 2) * d * N * N
    table = build_phi_table(path, mu_max)
    return YoungKernelConfig(d=d, k=k, N=N, table=table, allow_large=allow_large)


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
def test_fold_and_direct_agree(d, k, N):
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
    cfg = make_kernel(1, 1, N, path, allow_large=True)
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
    (1, 2, 2, "fold"), (2, 1, 2, "fold"), (2, 1, 4, "fold"), (3, 1, 2, "fold"),
])
def test_kernel_path_selection(d, k, N, path_name):
    path = make_linear_path(1.0, 2)
    cfg = make_kernel(d, k, N, path)
    count = _tuple_count(d, k, N)
    if path_name == "tuples":
        assert cfg._tuples is not None
        assert cfg._tuples.dtype == np.int32
        assert cfg._tuples.shape == (2 * k + 3, count)
    else:
        assert cfg._tuples is None
    if (2 * N + 1) ** (d * (2 * k + 1)) <= 600_000:
        assert count == _brute_tuple_count(d, k, N)


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


# one box per kernel path: d=1, k=1 contracts tuples, d=2 folds
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


def test_cap_guard_and_override():
    path = make_linear_path(1.0, 2)
    table = build_phi_table(path, mu_max=4 * 33 * 33)
    with pytest.raises(ConfigError):
        YoungKernelConfig(d=1, k=1, N=33, table=table)
    cfg = YoungKernelConfig(d=1, k=1, N=33, table=table, allow_large=True)
    assert cfg.N == 33


def test_states_validation():
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
