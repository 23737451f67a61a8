"""Solvers: Euler-Young, Picard, split-step reference, and norms."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from modnls import phi as phi_module
from modnls import solver, young
from modnls.errors import BlowUpError, ConfigError, NonConvergenceError
from modnls.paths import make_fbm_path, make_linear_path
from modnls.solver import (
    SolverConfig,
    Trajectory,
    plane_wave_exact,
    reference_split_step,
    solve_euler_young,
    solve_picard,
    uniform_partition,
    young_integral,
)
from modnls.spectral import SpectralState, hs_norm, random_state, unit_mode, zero_state


def make_cfg(**kw):
    base = dict(d=1, k=1, N=2, s=1.0, gamma=0.55, lam=0.5, rho=1.0,
                T=0.5, partition=uniform_partition(0.5, 16))
    base.update(kw)
    return SolverConfig(**base)


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
    for s in (np.nan, 1e308, -1e308):  # the box weight (1 + d N^2)^|s| must be a float
        with pytest.raises(ConfigError, match="Sobolev index"):
            make_cfg(s=s)
    with pytest.warns(UserWarning):
        make_cfg(s=0.2, rho=0.2)  # below the s > d/2 - rho/k advisory line


def test_uniform_partition():
    part = uniform_partition(2.0, 4)
    np.testing.assert_allclose(part, [0.0, 0.5, 1.0, 1.5, 2.0], atol=0)


def test_kernel_from_config():
    cfg = make_cfg()
    path = make_linear_path(cfg.T, 16)
    kern = cfg.kernel(path)
    assert (kern.d, kern.k, kern.N) == (cfg.d, cfg.k, cfg.N)


def test_plane_wave_scalar_recursion_oracle():
    # single-mode data keeps every Euler step inside one Fourier mode, so
    # the full solver must reproduce the scalar recursion exactly
    path = make_fbm_path(0.5, 0.5, 64, seed=4)
    cfg = make_cfg(scheme="euler_young", T=0.5,
                   partition=uniform_partition(0.5, 64))
    c = 0.7 + 0.2j
    phi0 = unit_mode(1, 2, 1, amplitude=c)
    traj = solve_euler_young(cfg, phi0, path)
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
    euler = solve_euler_young(cfg, phi0, path)
    picard = solve_picard(cfg, phi0, path)
    diff = max(np.abs(a.coeffs - b.coeffs).max()
               for a, b in zip(euler.states, picard.states))
    assert diff <= 10 * cfg.tol
    assert picard.meta["scheme"] == "picard"
    assert euler.meta["scheme"] == "euler_young"
    residuals = picard.meta["residuals"]
    assert residuals == sorted(residuals, reverse=True)
    assert picard.meta["iterations"] == len(residuals)


def test_picard_residual_is_the_c0lambda_norm(monkeypatch):
    # every sweep's residual is the sup plus Holder norm of the iterate
    # difference, here recomputed pair by pair from hs_norm instead of
    # from one Gram matrix
    seen = []
    distance = solver._distance

    def recorded(a, b, times, lam, s):
        seen.append(([x.coeffs - y.coeffs for x, y in zip(a, b)], times, lam, s))
        return distance(a, b, times, lam, s)

    monkeypatch.setattr(solver, "_distance", recorded)
    path = make_fbm_path(0.5, 0.5, 16, seed=12)
    cfg = make_cfg(T=0.5, partition=uniform_partition(0.5, 16))
    traj = solve_picard(cfg, random_state(1, 2, cfg.s, seed=4, scale=0.05),
                        path)
    assert len(seen) == traj.meta["iterations"] >= 2
    for res, (diff, times, lam, s) in zip(traj.meta["residuals"], seen):
        norms = [hs_norm(SpectralState(1, 2, c), s) for c in diff]
        semi = max(hs_norm(SpectralState(1, 2, diff[i] - diff[j]), s)
                   / (times[j] - times[i]) ** lam
                   for i in range(len(diff)) for j in range(i + 1, len(diff)))
        assert res == pytest.approx(max(norms) + semi, rel=1e-12)


def test_picard_makes_each_window_rule_once_per_solve(monkeypatch):
    # a step's window rule depends on the clock alone: a solve makes M of
    # them however many sweeps it runs, and each sweep is one kernel call
    rules, sweeps = [], []
    window_rule, increments = young._window_rule, solver.x_increments
    monkeypatch.setattr(young, "_window_rule",
                        lambda *args: rules.append(args[1:3]) or window_rule(*args))
    monkeypatch.setattr(solver, "x_increments",
                        lambda *args: sweeps.append(len(args[1])) or increments(*args))
    path = make_fbm_path(0.3, 0.1, 16, seed=12)
    cfg = make_cfg(N=4, T=0.1, partition=uniform_partition(0.1, 16))
    traj = solve_picard(cfg, random_state(1, 4, cfg.s, seed=4, scale=0.05),
                        path)
    assert traj.meta["iterations"] >= 2
    assert sweeps == [16] * traj.meta["iterations"]
    assert rules == list(zip(cfg.partition[:-1], cfg.partition[1:]))


def test_picard_on_the_benchmark_shape_integrates_no_phi(monkeypatch):
    # picard-d1's shape, (1, 1, 16) on an fBm H=0.3 clock with T = 0.1 and
    # M = 64: every step takes window nodes, which read only the clock, so
    # the solve integrates no Phi
    calls = []
    for name in ("_phi_at_times", "_block_sums"):
        fn = getattr(phi_module, name)
        monkeypatch.setattr(phi_module, name,
                            lambda *args, _fn=fn, **kw: calls.append(1) or _fn(*args, **kw))
    cfg = make_cfg(N=16, T=0.1, partition=uniform_partition(0.1, 64), tol=1e-11)
    path = make_fbm_path(0.3, 0.1, 64, seed=101)
    st = random_state(1, 16, 1.0, seed=101, decay=4.0)
    phi0 = SpectralState(1, 16, st.coeffs * (0.1 / hs_norm(st, 1.0)))
    traj = solve_picard(cfg, phi0, path)
    assert traj.meta["iterations"] == 4 and calls == []


def _one_gram_distance(states_a, states_b, times, lam, s):
    """The C^{0,lambda} residual from the whole (M+1)^2 Gram matrix at once."""
    D = np.stack([a.coeffs.ravel() - b.coeffs.ravel() for a, b in zip(states_a, states_b)])
    w = (1.0 + solver._sq_norms(states_a[0].d, states_a[0].N)).ravel() ** s
    G = (D * w) @ D.conj().T
    diag = np.real(np.diag(G))
    dist2 = np.maximum(diag[:, None] + diag[None, :] - 2.0 * np.real(G), 0.0)
    iu = np.triu_indices(times.size, k=1)
    dt = np.abs(times[:, None] - times[None, :])
    return np.sqrt(diag.max()) + np.max(np.sqrt(dist2[iu]) / dt[iu] ** lam)


@pytest.mark.parametrize("M", [16, 255, 256, 600])
def test_picard_residual_in_row_blocks_is_the_one_gram_residual(M):
    # up to 256 states (M <= 255) the one block is the whole Gram matrix, bit
    # for bit; past it the 256-row blocks agree to rounding
    rng = np.random.default_rng(M)
    a = [random_state(2, 2, 1.0, seed=rng) for _ in range(M + 1)]
    b = [random_state(2, 2, 1.0, seed=rng, scale=0.9) for _ in range(M + 1)]
    times = uniform_partition(0.3, M)
    got = solver._distance(a, b, times, 0.5, 1.2)
    want = _one_gram_distance(a, b, times, 0.5, 1.2)
    if M <= 255:
        assert got == want
    assert got == pytest.approx(want, rel=1e-13)


def test_picard_residual_memory_is_row_blocked():
    # (1, 1, 2) on a linear clock, M = 4000, two sweeps: whole (M+1)^2 Gram,
    # distance and time matrices would peak at about 738 MiB
    cfg = make_cfg(T=0.5, partition=uniform_partition(0.5, 4000), tol=1e-300, max_iter=2)
    phi0 = random_state(1, 2, 1.0, seed=4, scale=0.05)
    path = make_linear_path(0.5, 4000)
    tracemalloc.start()
    try:
        with pytest.raises(NonConvergenceError):
            solve_picard(cfg, phi0, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_guard_raises_at_the_first_bad_stacked_state():
    # a Picard sweep guards its stacked states at once: the first state past
    # the limit (or not finite) names its step and norm, whatever follows it
    weight = np.ones(5)
    stack = np.zeros((4, 5), dtype=complex)
    stack[1, 0], stack[2, 3], stack[3, 1] = 1.5, 3.0, np.inf
    solver._guard(7, stack[:2], weight, 2.0)
    with pytest.raises(BlowUpError) as exc:
        solver._guard(7, stack, weight, 2.0)
    assert (exc.value.step, exc.value.norm) == (9, 3.0)
    with pytest.raises(BlowUpError) as exc:
        solver._guard(7, stack[[0, 3, 2]], weight, 2.0)
    assert exc.value.step == 8 and not np.isfinite(exc.value.norm)


def test_picard_non_convergence_reports_residuals():
    path = make_fbm_path(0.5, 0.5, 16, seed=11)
    cfg = make_cfg(T=0.5, partition=uniform_partition(0.5, 16), max_iter=2)
    phi0 = random_state(1, 2, cfg.s, seed=5, scale=0.3)
    with pytest.raises(NonConvergenceError) as exc:
        solve_picard(cfg, phi0, path)
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
            solve_euler_young(cfg, phi0, path)
    assert exc.value.step >= 1
    assert exc.value.norm > exc.value.limit or not np.isfinite(exc.value.norm)


def test_holder_norms_on_two_point_trajectory():
    # _distance(a, b) is the C^{0,lambda} norm of a - b: sup norm 2, and
    # seminorm 2 / 0.25^lambda = 4, which a constant trajectory leaves out
    times = np.array([0.0, 0.25])
    a = zero_state(1, 1)
    b = unit_mode(1, 1, 0, amplitude=2.0)
    zeros = [a, a]
    lam = 0.5
    assert solver._distance([b, b], zeros, times, lam, 0.0) == pytest.approx(2.0, abs=0)
    assert solver._distance([a, b], zeros, times, lam, 0.0) == pytest.approx(2.0 + 4.0,
                                                                           abs=1e-13)
    assert solver._distance([a, b], [a, b], times, lam, 0.0) == 0.0


def test_young_integral_splits():
    path = make_fbm_path(0.5, 0.5, 16, seed=13)
    cfg = make_cfg(T=0.5, partition=uniform_partition(0.5, 16))
    states = [random_state(1, 2, 1.0, seed=40 + i, scale=0.3) for i in range(17)]
    traj = Trajectory(cfg.partition, states)
    whole = young_integral(cfg, traj, 0, 16, path)
    first = young_integral(cfg, traj, 0, 7, path)
    second = young_integral(cfg, traj, 7, 16, path)
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
        traj = solve_picard(cfg, phi0, path)
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
            solve_euler_young(cfg, phi0, path)
    assert exc.value.step == 1
    assert not np.isfinite(exc.value.norm)
