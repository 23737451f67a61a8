"""Sample path constructors, validation, and CSV round trips."""

import numpy as np
import pytest

from modnls.errors import ConfigError
from modnls.paths import (
    SamplePath,
    load_path_csv,
    make_constant_path,
    make_fbm_path,
    make_linear_path,
    make_modulated_path,
    save_path_csv,
)


def test_linear_path_is_identity_clock():
    path = make_linear_path(2.0, 8)
    assert path.T == 2.0
    assert path.M == 8
    assert path.offset == 0.0
    np.testing.assert_allclose(path.values, path.t_grid, atol=0)
    np.testing.assert_allclose(path.t_grid, np.linspace(0, 2, 9), atol=0)


def test_constant_path_level_lives_in_offset():
    path = make_constant_path(1.7, 1.0, 4)
    assert path.offset == 1.7
    np.testing.assert_array_equal(path.values, 0.0)


def test_path_validation_rejects_bad_grids():
    with pytest.raises(ConfigError):
        SamplePath(t_grid=[0.0, 1.0, 1.0], values=[0.0, 0.0, 0.0])
    with pytest.raises(ConfigError):
        SamplePath(t_grid=[0.5, 1.0], values=[0.0, 0.0])
    with pytest.raises(ConfigError):
        SamplePath(t_grid=[0.0, 1.0], values=[0.3, 0.0])
    with pytest.raises(ConfigError):
        SamplePath(t_grid=[0.0], values=[0.0])
    with pytest.raises(ConfigError):
        make_linear_path(-1.0, 4)
    with pytest.raises(ConfigError):
        make_linear_path(1.0, 0)


@pytest.mark.parametrize("level", [np.nan, np.inf, -np.inf])
def test_non_finite_offset_refused(level):
    # a constant clock at NaN or inf would reach the kernel as e^{i Omega offset}
    with pytest.raises(ConfigError, match="offset must be finite"):
        make_constant_path(level, 1.0, 4)
    with pytest.raises(ConfigError, match="offset must be finite"):
        SamplePath(t_grid=[0.0, 1.0], values=[0.0, 0.5], offset=level)


def test_fbm_reproducible_and_normalized():
    a = make_fbm_path(0.5, 1.0, 64, seed=5)
    b = make_fbm_path(0.5, 1.0, 64, seed=5)
    c = make_fbm_path(0.5, 1.0, 64, seed=6)
    np.testing.assert_array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.values[0] == 0.0
    assert a.t_grid.size == 65
    with pytest.raises(ConfigError):
        make_fbm_path(0.5, 1.0, 100, seed=1)
    with pytest.raises(ConfigError):
        make_fbm_path(1.5, 1.0, 64, seed=1)


@pytest.mark.parametrize("H", [0.3, 0.5, 0.7])
def test_fbm_covariance_monte_carlo(H):
    # E[w(t)w(u)] = (t^{2H} + u^{2H} - |t-u|^{2H}) / 2 under the fBm law
    n_paths, M = 600, 32
    t_idx, u_idx = 8, 32  # t = 0.25, u = 1.0
    samples = np.empty((n_paths, 2))
    for seed in range(n_paths):
        path = make_fbm_path(H, 1.0, M, seed=seed)
        samples[seed] = path.values[t_idx], path.values[u_idx]
    t, u = 0.25, 1.0
    cov_expected = 0.5 * (t ** (2 * H) + u ** (2 * H) - (u - t) ** (2 * H))
    var_u = samples[:, 1].var()
    cov = (samples[:, 0] * samples[:, 1]).mean()
    assert var_u == pytest.approx(1.0, rel=0.25)
    assert cov == pytest.approx(cov_expected, abs=0.12)


def test_modulated_path_matches_exact_integral():
    # trapezoid on a grid refined by every interpolation kink is exact
    # for the piecewise-linear profile, so it is an independent oracle
    rng = np.random.default_rng(0)
    P = 16
    profile = rng.standard_normal(P)
    eps, T, M = 0.5, 0.5, 512
    path = make_modulated_path(profile, eps, T, M)

    closed = np.concatenate([profile, profile[:1]])
    xs = np.arange(P + 1) / P

    def m_of_x(x):
        frac = np.mod(x, 1.0)
        return np.interp(frac, xs, closed)

    kinks = np.arange(0, np.ceil(T / (eps * eps) * P) + 1) / P * eps * eps
    fine = np.unique(np.concatenate([path.t_grid, kinks[kinks <= T]]))
    vals = m_of_x(fine / (eps * eps)) / eps
    w_fine = np.concatenate([[0.0], np.cumsum(np.diff(fine) * (vals[:-1] + vals[1:]) / 2)])
    oracle = np.interp(path.t_grid, fine, w_fine)
    np.testing.assert_allclose(path.values, oracle, atol=1e-12)


def test_modulated_path_guards():
    with pytest.raises(ConfigError):
        make_modulated_path([1.0, -1.0], eps=1e-3, T=1.0, M=16)
    with pytest.raises(ConfigError):
        make_modulated_path([np.nan], eps=1.0, T=1.0, M=16)
    with pytest.raises(ConfigError):
        make_modulated_path([1.0, 2.0], eps=-1.0, T=1.0, M=16)


@pytest.mark.parametrize("make", [
    lambda: make_linear_path(1.0, 16),
    lambda: make_constant_path(2.5, 1.0, 8),
    lambda: make_fbm_path(0.4, 0.5, 32, seed=9),
])
def test_csv_round_trip_preserves_modulation(tmp_path, make):
    path = make()
    fn = tmp_path / "w.csv"
    save_path_csv(path, fn)
    back = load_path_csv(fn)
    np.testing.assert_allclose(back.t_grid, path.t_grid, atol=1e-15)
    ts = np.linspace(0, path.T, 37)
    np.testing.assert_allclose(np.interp(ts, back.t_grid, back.values) + back.offset,
                               np.interp(ts, path.t_grid, path.values) + path.offset,
                               atol=1e-12)


def test_load_path_csv_rejects_bad_shape(tmp_path):
    fn = tmp_path / "bad.csv"
    fn.write_text("t,w,extra\n0,0,0\n1,1,1\n")
    with pytest.raises(ConfigError):
        load_path_csv(fn)
