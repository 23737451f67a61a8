"""Acceptance gate: twelve pinned criteria with stated tolerances and runtimes.

Each criterion prints one PASS/FAIL line (bypassing capture) and asserts
its wall-clock budget, so `pytest -v` output doubles as the checklist.
"""

import contextlib
import sys
import time

import numpy as np
import pytest

from modnls import paths, phi, resonance, solver, spectral, young
from tests.conftest import duhamel_x_oracle, gl_phase_integral

_CAPMAN = [None]


@pytest.fixture(autouse=True)
def _stash_capture_manager(request):
    _CAPMAN[0] = request.config.pluginmanager.getplugin("capturemanager")
    yield


@contextlib.contextmanager
def criterion(num, label, limit_s):
    info = {"detail": ""}
    t0 = time.monotonic()
    try:
        yield info
    except BaseException:
        elapsed = time.monotonic() - t0
        _announce(num, "FAIL", label, info["detail"], elapsed, limit_s)
        raise
    elapsed = time.monotonic() - t0
    status = "PASS" if elapsed < limit_s else "FAIL"
    _announce(num, status, label, info["detail"], elapsed, limit_s)
    assert elapsed < limit_s, f"criterion {num} overran {limit_s}s"


def _announce(num, status, label, detail, elapsed, limit_s):
    tail = f" [{detail}]" if detail else ""
    line = (f"[criterion {num:02d}] {status} {label}{tail} "
            f"({elapsed:.1f}s, limit {limit_s:.0f}s)")
    capman = _CAPMAN[0]
    if capman is not None:
        with capman.global_and_fixture_disabled():
            print("\n" + line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


def rel_l2(state, ref):
    diff = spectral.SpectralState(ref.d, ref.N, state.coeffs - ref.coeffs)
    return spectral.hs_norm(diff, 0.0) / spectral.hs_norm(ref, 0.0)


def rescaled(state, s, target):
    norm = spectral.hs_norm(state, s)
    return spectral.SpectralState(state.d, state.N,
                                  state.coeffs * (target / norm))


def mass_drift(traj):
    mass = np.array([spectral.hs_norm(st, 0.0) for st in traj.states])
    return float(np.max(np.abs(mass - mass[0])) / mass[0])


def test_c01_phi_linear_exact():
    with criterion(1, "phi on w(t)=t matches (e^{iat}-e^{ias})/(ia)", 1.0) as info:
        path = paths.make_linear_path(1.0, 64)
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(1000):
            a = float(rng.uniform(-60.0, 60.0))
            i, j = sorted(rng.choice(65, size=2, replace=False))
            s, t = path.t_grid[i], path.t_grid[j]
            got = phi.phi_increment(path, a, s, t)
            want = ((np.exp(1j * a * t) - np.exp(1j * a * s)) / (1j * a)
                    if a != 0.0 else t - s)
            worst = max(worst, abs(got - want))
        info["detail"] = f"max err {worst:.2e}"
        assert worst <= 1e-12


def test_c02_linear_trend_dichotomy():
    with criterion(2, "w(t)=t trend slopes split at rho 0.4 / 0.8", 30.0) as info:
        path = paths.make_linear_path(1.0, 4096)
        reports = phi.estimate_irregularity(path, gamma=0.5, a_max=256.0,
                                            rho_grid=[0.4, 0.8])
        lo = phi.trend_slope(reports[0])
        hi = phi.trend_slope(reports[1])
        info["detail"] = f"slope(0.4)={lo:.3f}, slope(0.8)={hi:.3f}"
        assert lo < 0.05
        assert hi > 0.2


def test_c03_fbm_maximal_rho():
    with criterion(3, "fBm H=0.5 maximal bounded rho near 1/(2H)", 300.0) as info:
        best = []
        top_slopes = []
        for seed in range(20):
            path = paths.make_fbm_path(0.5, 1.0, 2 ** 14, seed)
            reports = phi.estimate_irregularity(path, gamma=0.55, a_max=64.0)
            rho_max = phi.largest_bounded_rho(reports)
            best.append(0.0 if rho_max is None else rho_max)
            at_15 = [r for r in reports if abs(r.rho - 1.5) < 1e-9]
            assert at_15, "rho grid must include 1.5"
            top_slopes.append(phi.trend_slope(at_15[0]))
        med = float(np.median(best))
        info["detail"] = (f"median rho {med:.2f}, "
                          f"min slope(1.5) {min(top_slopes):.3f}")
        assert 0.4 < med < 1.2
        assert min(top_slopes) >= 0.05  # rho=1.5 never reads as bounded


def test_c04_x_increment_vs_duhamel():
    with criterion(4, "x_increment matches Duhamel quadrature", 60.0) as info:
        d, k, N = 1, 1, 6
        path = paths.make_fbm_path(0.5, 1.0, 64, seed=42)
        cfg = young.YoungKernelConfig(d, k, N, path)
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(20):
            states = [spectral.random_state(d, N, 1.0, rng) for _ in range(3)]
            i, j = sorted(rng.choice(65, size=2, replace=False))
            s, t = float(path.t_grid[i]), float(path.t_grid[j])
            got = young.x_increment(cfg, s, t, states)
            want = duhamel_x_oracle(path, s, t, states)
            err = (np.linalg.norm(got.coeffs - want)
                   / np.linalg.norm(want))
            worst = max(worst, err)
        info["detail"] = f"max rel err {worst:.2e}"
        assert worst <= 1e-10


def test_c05_sewing_rate():
    with criterion(5, "sewing defect decays at rate >= gamma+lam-0.2", 120.0) as info:
        T, M = 0.5, 1024
        grid = solver.uniform_partition(T, M)
        octs = np.arange(13)
        wvals = 0.3 * np.sum(
            2.0 ** (-0.55 * octs)[:, None]
            * np.sin(np.outer(2.0 ** octs * np.pi, grid)), axis=0)
        wvals[0] = 0.0
        path = paths.SamplePath(grid, wvals)
        cfg = solver.SolverConfig(
            d=1, k=1, N=2, s=1.0, gamma=0.55, lam=0.5, rho=1.0, T=T,
            partition=grid)
        psi0 = spectral.random_state(1, 2, 1.0, seed=5, scale=0.8)
        factor = 1.0 + 0.25 * np.sum(
            2.0 ** (-0.5 * octs)[:, None]
            * np.cos(np.outer(2.0 ** octs * np.pi, grid) + 0.7 * octs[:, None]),
            axis=0)
        states = [spectral.SpectralState(1, 2, c * psi0.coeffs) for c in factor]
        traj = solver.Trajectory(grid, states, {})
        kc = cfg.kernel(path)
        lengths, errs = [], []
        for j in range(5):
            t_idx = M >> j
            L = float(grid[t_idx])
            fine = solver.young_integral(cfg, traj, 0, t_idx, path)
            one = young.x_increment(kc, 0.0, L, [states[0]] * 3)
            errs.append(spectral.hs_norm(spectral.SpectralState(
                1, 2, fine.coeffs - one.coeffs), 1.0))
            lengths.append(L)
        assert min(errs) > 0
        slope = float(np.polyfit(np.log2(lengths), np.log2(errs), 1)[0])
        info["detail"] = f"fitted exponent {slope:.2f}"
        assert slope >= cfg.gamma + cfg.lam - 0.2


def test_c06_plane_wave_order():
    with criterion(6, "plane wave: both schemes first order, err <= 1e-3", 60.0) as info:
        d, k, N, T = 1, 1, 2, 0.1
        path = paths.make_fbm_path(0.5, T, 128, seed=6)
        phi0 = solver.plane_wave_exact(1.0, 1, path, 0.0, k, N)
        exact = solver.plane_wave_exact(1.0, 1, path, T, k, N)
        meshes = []
        errs = {"euler_young": [], "picard": []}
        for M in (32, 64, 128):
            meshes.append(T / M)
            for scheme in errs:
                cfg = solver.SolverConfig(
                    d=d, k=k, N=N, s=1.0, gamma=0.55, lam=0.5, rho=1.0, T=T,
                    partition=solver.uniform_partition(T, M), scheme=scheme)
                traj = (solver.solve_euler_young(cfg, phi0, path)
                        if scheme == "euler_young"
                        else solver.solve_picard(cfg, phi0, path))
                errs[scheme].append(rel_l2(traj.states[-1], exact))
        details = []
        for scheme, e in errs.items():
            assert e[-1] <= 1e-3
            order = float(np.polyfit(np.log(meshes), np.log(e), 1)[0])
            details.append(f"{scheme}: err {e[-1]:.1e}, order {order:.2f}")
            assert 0.8 <= order <= 1.2
        info["detail"] = "; ".join(details)


def test_c07_picard_vs_split_step():
    with criterion(7, "w(t)=t Picard matches split-step reference", 300.0) as info:
        d, k, N, T, M = 1, 1, 16, 0.1, 400
        path = paths.make_linear_path(T, M)
        phi0 = rescaled(spectral.random_state(d, N, 1.0, seed=7, decay=4.0),
                        1.0, 0.5)
        cfg = solver.SolverConfig(
            d=d, k=k, N=N, s=1.0, gamma=0.55, lam=0.5, rho=1.0, T=T,
            partition=solver.uniform_partition(T, M))
        traj = solver.solve_picard(cfg, phi0, path)
        ref = solver.reference_split_step(phi0, T, 1e-3, d, k, N)
        u_end = spectral.apply_U(traj.states[-1], T, "forward")
        err = rel_l2(u_end, ref.states[-1])
        info["detail"] = f"rel L2 err {err:.2e}"
        assert err <= 1e-3


def test_c08_picard_contraction():
    with criterion(8, "Picard residuals contract by < 0.5 per sweep", 120.0) as info:
        d, k, N, T, M = 1, 1, 8, 0.25, 256
        path = paths.make_fbm_path(0.5, T, M, seed=9)
        phi0 = rescaled(spectral.random_state(d, N, 1.0, seed=3), 0.0, 1e-2)
        cfg = solver.SolverConfig(
            d=d, k=k, N=N, s=1.0, gamma=0.55, lam=0.5, rho=1.0, T=T,
            partition=solver.uniform_partition(T, M), tol=1e-10, max_iter=15)
        traj = solver.solve_picard(cfg, phi0, path)
        res = traj.meta["residuals"]
        assert traj.meta["iterations"] <= 15
        assert res[-1] < 1e-10
        ratios = [b / a for a, b in zip(res, res[1:]) if a >= 1e-10]
        assert ratios, "need at least one pre-tolerance ratio"
        info["detail"] = (f"{traj.meta['iterations']} sweeps, "
                          f"worst ratio {max(ratios):.1e}")
        assert max(ratios) < 0.5


def test_c09_mass_conservation():
    with criterion(9, "Picard mass drift <= 1e-4 and shrinks with the mesh", 300.0) as info:
        d, k, N, T = 1, 1, 8, 0.25
        path = paths.make_fbm_path(0.5, T, 512, seed=10)
        phi0 = rescaled(spectral.random_state(d, N, 1.0, seed=4), 0.0, 0.1)
        drifts = []
        for M in (256, 512):
            cfg = solver.SolverConfig(
                d=d, k=k, N=N, s=1.0, gamma=0.55, lam=0.5, rho=1.0, T=T,
                partition=solver.uniform_partition(T, M))
            drifts.append(mass_drift(solver.solve_picard(cfg, phi0, path)))
        info["detail"] = f"drift {drifts[0]:.1e} -> {drifts[1]:.1e}"
        assert drifts[0] <= 1e-4
        assert drifts[0] / drifts[1] >= 1.5


def test_c10_counting_identity():
    with criterion(10, "counting partition exact on both reference boxes", 60.0) as info:
        rep1 = resonance.verify_counting_partition(4, 1, 1)
        rep2 = resonance.verify_counting_partition(2, 2, 1)
        info["detail"] = (f"d=1 tuples {rep1.total_tuples}, "
                          f"d=2 tuples {rep2.total_tuples}")
        for rep in (rep1, rep2):
            assert rep.max_membership == 1
            assert rep.cross_check_ok
            assert rep.identity_holds


def test_c11_eq21_growth():
    with criterion(11, "eq21 ratio growth < 2 per dyadic doubling", 600.0) as info:
        maxima = []
        for N in (4, 8, 16):
            rep = resonance.estimate_ratio_eq21(
                2, 1, 1.0, 0.3, 0.0, 1, N=N, trials=50, seed=20260822)
            maxima.append(rep.max_ratio_over_trials)
        growth = [maxima[i + 1] / maxima[i] for i in range(2)]
        info["detail"] = ("maxima " + "/".join(f"{m:.3f}" for m in maxima)
                          + ", growth " + "/".join(f"{g:.2f}" for g in growth))
        assert max(growth) < 2.0


def test_c12_eq26_mu_uniformity():
    with criterion(12, "eq26 ratio spread over mu < 10", 300.0) as info:
        sweep = resonance.eq26_mu_sweep((4, 4, 2, 2), 2, 1, 0.1,
                                        trials=10, seed=12)
        info["detail"] = (f"{len(sweep['mu_values'])} classes, "
                          f"spread {sweep['spread']:.2f}")
        assert sweep["spread"] < 10.0
