"""Solvers: Euler-Young, Picard, split-step reference, and norms."""

import dataclasses
import warnings

import numpy as np
import pytest

from modnls import solver
from modnls.errors import BlowUpError, ConfigError, NonConvergenceError
from modnls.paths import make_fbm_path, make_linear_path
from modnls.phi import build_phi_table
from modnls.solver import (
    SolverConfig,
    Trajectory,
    c0lambda_distance,
    holder_norm,
    holder_seminorm,
    plane_wave_exact,
    reference_split_step,
    solve_euler_young,
    solve_picard,
    sup_norm,
    uniform_partition,
    young_integral,
)
from modnls.spectral import SpectralState, hs_norm, random_state, unit_mode, zero_state


def make_cfg(**kw):
    base = dict(d=1, k=1, N=2, s=1.0, gamma=0.55, lam=0.5, rho=1.0,
                T=0.5, partition=uniform_partition(0.5, 16))
    base.update(kw)
    return SolverConfig(**base)


def table_for(cfg, path):
    mu_max = (2 * cfg.k + 2) * cfg.d * cfg.N * cfg.N
    return build_phi_table(path, mu_max)


def test_config_validation():
    with pytest.raises(ConfigError, match="0 < lambda < gamma <= 1"):
        make_cfg(gamma=0.6, lam=0.7)
    with pytest.raises(ConfigError):
        make_cfg(gamma=0.5, lam=0.4)  # gamma + lambda must exceed 1
    with pytest.raises(ConfigError):
        make_cfg(scheme="leapfrog")
    with pytest.raises(ConfigError):
        make_cfg(partition=np.array([0.0, 0.3, 0.2, 0.5]))
    with pytest.raises(ConfigError):
        make_cfg(partition=uniform_partition(0.4, 8))  # must end at T
    with pytest.raises(ConfigError):
        make_cfg(rho=-1.0)
    with pytest.warns(UserWarning):
        make_cfg(s=0.2, rho=0.2)  # below the s > d/2 - rho/k advisory line


def test_uniform_partition():
    part = uniform_partition(2.0, 4)
    np.testing.assert_allclose(part, [0.0, 0.5, 1.0, 1.5, 2.0], atol=0)


def test_kernel_from_config():
    cfg = make_cfg()
    path = make_linear_path(cfg.T, 16)
    kern = cfg.kernel(table_for(cfg, path))
    assert (kern.d, kern.k, kern.N) == (cfg.d, cfg.k, cfg.N)


def test_plane_wave_scalar_recursion_oracle():
    # single-mode data keeps every Euler step inside one Fourier mode, so
    # the full solver must reproduce the scalar recursion exactly
    path = make_fbm_path(0.5, 0.5, 64, seed=4)
    cfg = make_cfg(scheme="euler_young", T=0.5,
                   partition=uniform_partition(0.5, 64))
    c = 0.7 + 0.2j
    phi0 = unit_mode(1, 2, 1, amplitude=c)
    traj = solve_euler_young(cfg, phi0, table_for(cfg, path))
    a = c
    h = 0.5 / 64
    for _ in range(64):
        a = a - 1j * h * abs(a) ** 2 * a
    assert traj.states[-1][1] == pytest.approx(a, abs=1e-13)
    others = traj.states[-1].coeffs.copy()
    others[1 + 2] = 0
    np.testing.assert_allclose(others, 0.0, atol=1e-15)


def test_plane_wave_exact_properties():
    path = make_fbm_path(0.5, 1.0, 32, seed=1)
    st = plane_wave_exact(0.5, 1, path, 0.75, k=1, N=3)
    assert abs(st[1]) == pytest.approx(0.5, abs=1e-15)
    assert st[1] == pytest.approx(0.5 * np.exp(-1j * 0.25 * 0.75), abs=1e-15)
    with pytest.raises(ConfigError):
        plane_wave_exact(0.5, 1, path, 1.5, k=1, N=3)
    st2 = plane_wave_exact(1.0, (1, -1), None, 0.3, k=2, N=2)
    assert st2.d == 2
    assert st2[(1, -1)] == pytest.approx(np.exp(-1j * 0.3), abs=1e-15)


def test_picard_fixed_point_is_euler_trajectory():
    path = make_fbm_path(0.5, 0.5, 32, seed=10)
    cfg = make_cfg(T=0.5, N=3, partition=uniform_partition(0.5, 32))
    phi0 = random_state(1, 3, cfg.s, seed=3, scale=0.05)
    table = table_for(cfg, path)
    euler = solve_euler_young(cfg, phi0, table)
    picard = solve_picard(cfg, phi0, table)
    diff = max(np.abs(a.coeffs - b.coeffs).max()
               for a, b in zip(euler.states, picard.states))
    assert diff <= 10 * cfg.tol
    assert picard.meta["scheme"] == "picard"
    assert euler.meta["scheme"] == "euler_young"
    residuals = picard.meta["residuals"]
    assert residuals == sorted(residuals, reverse=True)
    assert picard.meta["iterations"] == len(residuals)


def test_picard_residual_builds_one_gram_matrix(monkeypatch):
    calls = {"pairs": 0, "distance": 0}
    pair_norms, distance = solver._pair_norms, solver._distance

    def counted_pairs(*args):
        calls["pairs"] += 1
        return pair_norms(*args)

    def counted_distance(*args):
        calls["distance"] += 1
        return distance(*args)

    monkeypatch.setattr(solver, "_pair_norms", counted_pairs)
    monkeypatch.setattr(solver, "_distance", counted_distance)
    path = make_fbm_path(0.5, 0.5, 16, seed=12)
    cfg = make_cfg(T=0.5, partition=uniform_partition(0.5, 16))
    traj = solve_picard(cfg, random_state(1, 2, cfg.s, seed=4, scale=0.05),
                        table_for(cfg, path))
    assert calls["distance"] == traj.meta["iterations"] >= 2
    assert calls["pairs"] == calls["distance"]


def test_picard_non_convergence_reports_residuals():
    path = make_fbm_path(0.5, 0.5, 16, seed=11)
    cfg = make_cfg(T=0.5, partition=uniform_partition(0.5, 16), max_iter=2)
    phi0 = random_state(1, 2, cfg.s, seed=5, scale=0.3)
    with pytest.raises(NonConvergenceError) as exc:
        solve_picard(cfg, phi0, table_for(cfg, path))
    assert exc.value.iterations == 2
    assert len(exc.value.residuals) == 2
    assert "halving T" in str(exc.value)


def test_euler_blow_up_guard():
    path = make_linear_path(1.0, 8)
    cfg = make_cfg(T=1.0, partition=uniform_partition(1.0, 8),
                   scheme="euler_young")
    phi0 = unit_mode(1, 2, 0, amplitude=1e3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(BlowUpError) as exc:
            solve_euler_young(cfg, phi0, table_for(cfg, path))
    assert exc.value.step >= 1
    assert exc.value.norm > exc.value.limit or not np.isfinite(exc.value.norm)


def test_holder_norms_on_two_point_trajectory():
    times = np.array([0.0, 0.25])
    a = zero_state(1, 1)
    b = unit_mode(1, 1, 0, amplitude=2.0)
    traj = Trajectory(times=times, states=[a, b])
    lam = 0.5
    assert sup_norm(traj, 0.0) == pytest.approx(2.0, abs=0)
    assert holder_seminorm(traj, lam, 0.0) == pytest.approx(2.0 / 0.25 ** lam, abs=1e-14)
    assert holder_norm(traj, lam, 0.0) == pytest.approx(2.0 + 4.0, abs=1e-13)


def test_c0lambda_distance():
    times = np.array([0.0, 1.0])
    sa = [zero_state(1, 1), unit_mode(1, 1, 0, amplitude=1.0)]
    sb = [zero_state(1, 1), unit_mode(1, 1, 0, amplitude=1.0)]
    ta, tb = Trajectory(times, sa), Trajectory(times, sb)
    assert c0lambda_distance(ta, tb, 0.5, 0.0) == 0.0
    tc = Trajectory(np.array([0.0, 0.5, 1.0]),
                    [zero_state(1, 1)] * 3)
    with pytest.raises(ConfigError):
        c0lambda_distance(ta, tc, 0.5, 0.0)


def test_trajectory_state_at():
    times = uniform_partition(1.0, 4)
    states = [unit_mode(1, 1, 0, amplitude=float(i)) for i in range(5)]
    traj = Trajectory(times, states)
    assert traj.M == 4
    assert traj.state_at(0.5)[0] == 2.0
    with pytest.raises(KeyError):
        traj.state_at(0.37)


def test_young_integral_splits():
    path = make_fbm_path(0.5, 0.5, 16, seed=13)
    cfg = make_cfg(T=0.5, partition=uniform_partition(0.5, 16))
    table = table_for(cfg, path)
    states = [random_state(1, 2, 1.0, seed=40 + i, scale=0.3) for i in range(17)]
    traj = Trajectory(cfg.partition, states)
    whole = young_integral(cfg, traj, 0, 16, table)
    first = young_integral(cfg, traj, 0, 7, table)
    second = young_integral(cfg, traj, 7, 16, table)
    np.testing.assert_allclose(whole.coeffs, first.coeffs + second.coeffs,
                               atol=1e-14)


def test_split_step_plane_wave_is_exact():
    # kinetic and nonlinear phases act diagonally on a plane wave and
    # commute, so split-step incurs no splitting error at all here
    c, m, T = 0.8, 1, 0.3
    phi0 = unit_mode(1, 2, m, amplitude=c)
    traj = reference_split_step(phi0, T, dt=1e-3, d=1, k=1, N=2)
    expected = c * np.exp(-1j * T * (m * m + c * c))
    assert traj.states[-1][m] == pytest.approx(expected, abs=1e-12)
    assert traj.meta["scheme"] == "split_step"
    mass = np.asarray(traj.meta["mass_padded"])
    assert np.abs(mass - mass[0]).max() <= 1e-12 * mass[0]


def test_split_step_conserves_mass_for_generic_data():
    phi0 = random_state(1, 6, 1.0, seed=2, scale=0.5)
    traj = reference_split_step(phi0, 0.2, dt=2e-3, d=1, k=1, N=6)
    mass = np.asarray(traj.meta["mass_padded"])
    assert np.abs(mass - mass[0]).max() <= 1e-12 * mass[0]
    assert len(traj.states) == 101


def test_picard_mass_drift_shrinks_with_mesh():
    path = make_fbm_path(0.5, 0.25, 64, seed=9)
    phi0 = random_state(1, 2, 1.0, seed=21, scale=0.1)
    drifts = []
    for M in (32, 64):
        cfg = make_cfg(T=0.25, partition=uniform_partition(0.25, M))
        traj = solve_picard(cfg, phi0, table_for(cfg, path))
        masses = np.array([hs_norm(st, 0.0) for st in traj.states])
        drifts.append(np.abs(masses - masses[0]).max() / masses[0])
    assert drifts[1] < drifts[0]


def test_overflowing_state_hits_the_guard():
    # the increment overflows to inf before any state could be built
    path = make_linear_path(0.1, 8)
    cfg = make_cfg(N=4, T=0.1, partition=uniform_partition(0.1, 8),
                   scheme="euler_young")
    phi0 = random_state(1, 4, 1.0, seed=0, scale=1e120)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(BlowUpError) as exc:
            solve_euler_young(cfg, phi0, table_for(cfg, path))
    assert exc.value.step == 1
    assert not np.isfinite(exc.value.norm)
