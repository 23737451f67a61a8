"""The four benchmark workloads: inputs from a seed, ops, oracle checks.

Constructing a workload from (seed, workdir) is its set-up: afterwards
every input is ready. `ops` is the fixed problem set that one repetition
solves, as (label, callable) pairs, so every repetition does the same
work and yields the same per-layer counts. `check(label, result)`
compares one op's result with an oracle that does not share the code
path under test and returns the worst error as a share of its
tolerance; it raises CheckFailed when a check fails.

Problem sizes and solver tolerances are chosen so that the work per
repetition does not depend on the seed: the Picard tolerances sit in
the middle of the gap between two sweeps' residuals over many seeds,
so every seed converges after the same number of sweeps.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from pathlib import Path

import numpy as np

from modnls import _runtime, cli, paths, phi, resonance, solver, spectral

REFERENCE = Path(__file__).with_name("reference.json")

# two FFT workers where the workload uses the pool, never more than the cores
POOL_WORKERS = min(2, os.cpu_count() or 1)


class CheckFailed(Exception):
    """An op's result disagrees with its oracle."""


def _within(err: float, tol: float, what: str) -> float:
    ratio = err / tol
    if not ratio <= 1.0:  # NaN fails too
        raise CheckFailed(f"{what}: error {err:.3e} exceeds tolerance {tol:.1e}")
    return ratio


def _rel(got, want) -> float:
    return float(np.linalg.norm(np.ravel(got - want)) / np.linalg.norm(np.ravel(want)))


def _duhamel_linear_clock(state, s: float, t: float, k: int, nodes: int = 20):
    """X_{s;t}(state, ..., state) for the clock w(r) = r, without the fold.

    Gauss-Legendre quadrature of -i int_s^t U^{-r} N(U^{r} state) dr, with
    N the padded-grid nonlinearity of spectral.py; exact to rounding while
    the phase change |Omega| (t - s) over one segment stays small.
    """
    x, wq = np.polynomial.legendre.leggauss(nodes)
    half, mid = 0.5 * (t - s), 0.5 * (t + s)
    acc = np.zeros_like(state.coeffs)
    for xi, wi in zip(x, wq):
        r = mid + half * xi
        product = spectral.nonlinearity([spectral.apply_U(state, r)] * (2 * k + 1), k)
        acc += wi * spectral.apply_U(product, r, "inverse").coeffs
    return -1j * half * acc


class Irregularity:
    """c03 shape: one fBm clock (H=0.5, T=1, M=2^14), rho sweep, largest bounded rho."""

    name = "irregularity"
    fft_workers = 1
    M = 2 ** 14

    def __init__(self, seed: int, workdir: Path):
        _runtime.set_workers(self.fft_workers)
        self.clock_seed = seed
        self.ops = [("clock", self.clock)]
        self._first = None

    def clock(self):
        path = paths.make_fbm_path(0.5, 1.0, self.M, self.clock_seed)
        reports = phi.estimate_irregularity(path, gamma=0.55, a_max=64.0)
        return path, reports, phi.largest_bounded_rho(reports)

    def check(self, label, result) -> float:
        path, reports, rho = result
        norms = [r.norm_estimate for r in reports]
        if len(reports) != 16 or not all(math.isfinite(v) and v > 0 for v in norms):
            raise CheckFailed("rho sweep must give 16 finite positive norm estimates")
        if self._first is None:
            self._first = (norms, rho)
        elif (norms, rho) != self._first:
            raise CheckFailed("rho sweep differs between repetitions")
        from tests.conftest import gl_phase_integral  # oracles stay out of set-up

        # short pairs keep the quadrature oracle cheap; a spans the grid ends
        rng = np.random.default_rng(self.clock_seed)
        pairs = phi.default_pairs(path)
        short = pairs[pairs[:, 1] - pairs[:, 0] <= 256 / self.M * (1 + 1e-9)]
        a = np.concatenate([[0.0, 64.0], rng.uniform(0.0, 64.0, 6)])
        worst = 0.0
        for s, t in short[rng.choice(len(short), 4, replace=False)]:
            got = phi._phi_at_times(path, a, [s, t])
            want = gl_phase_integral(path, a, s, t)
            err = float(np.max(np.abs(got[:, 1] - got[:, 0] - want)))
            worst = max(worst, _within(err, 1e-12, "Phi increment"))
        return worst


class PicardD1:
    """c07 box (d=1, k=1, N=16) on a rough fBm clock (H=0.3, T=0.1)."""

    name = "picard-d1"
    fft_workers = 1
    d, k, N, T, M = 1, 1, 16, 0.1, 64
    AMPLITUDE = 0.1  # H^1 norm of the initial state
    TOL = 1e-11  # every seed tried converges in 4 sweeps

    def __init__(self, seed: int, workdir: Path):
        _runtime.set_workers(self.fft_workers)
        d, N = self.d, self.N
        self.seed = seed
        self.path = paths.make_fbm_path(0.3, self.T, self.M, seed)
        st = spectral.random_state(d, N, 1.0, seed, decay=4.0)
        self.phi0 = spectral.SpectralState(
            d, N, st.coeffs * (self.AMPLITUDE / spectral.hs_norm(st, 1.0)))
        self.cfg = solver.SolverConfig(
            d=d, k=self.k, N=N, s=1.0, gamma=0.55, lam=0.5, rho=1.0, T=self.T,
            partition=solver.uniform_partition(self.T, self.M), tol=self.TOL)
        self.ops = [("solve", self.solve)]

    def solve(self):
        table = phi.build_phi_table(self.path,
                                    (2 * self.k + 2) * self.d * self.N ** 2)
        return solver.solve_picard(self.cfg, self.phi0, table)

    def check(self, label, traj) -> float:
        from tests.conftest import duhamel_x_oracle

        ratios = [_within(traj.meta["residuals"][-1], self.TOL, "final residual")]
        mass = [spectral.hs_norm(st, 0.0) for st in traj.states]
        drift = max(abs(m - mass[0]) for m in mass) / mass[0]
        ratios.append(_within(drift, 1e-4, "mass drift"))
        rng = np.random.default_rng(self.seed)
        times = traj.times
        for j in rng.choice(self.M, 3, replace=False):
            got = traj.states[j + 1].coeffs - traj.states[j].coeffs
            want = duhamel_x_oracle(self.path, times[j], times[j + 1],
                                    [traj.states[j]] * (2 * self.k + 1))
            ratios.append(_within(_rel(got, want), 1e-8, "segment increment"))
        return max(ratios)


class SolveD2:
    """`modnls solve` in-process on a d=2, k=1, N=4 config with a linear clock."""

    name = "solve-d2"
    fft_workers = POOL_WORKERS
    d, k, N, T, M = 2, 1, 4, 0.1, 32
    SCALE = 0.02  # random init amplitude
    TOL = 4e-10  # every seed tried converges in 3 sweeps

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.config_file = self.workdir / "solve-d2.json"
        self.config_file.write_text(json.dumps({
            "d": self.d, "k": self.k, "N": self.N, "s": 1.0, "gamma": 0.55,
            "lambda": 0.5, "rho": 1.0, "T": self.T, "M": self.M, "tol": self.TOL,
            "path": {"kind": "linear", "T": self.T, "M": self.M},
            "init": {"type": "random", "s": 1.0, "seed": seed,
                     "scale": self.SCALE},
        }))
        self.ops = [("solve", self.solve)]
        self._runs = 0
        self._reference = None

    def solve(self):
        out = self.workdir / f"out-{self._runs}"
        self._runs += 1
        code = cli.run_command(["solve", "--threads", str(self.fft_workers),
                                "--config", str(self.config_file),
                                "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"modnls solve exited with code {code}")
        return out

    def _split_step_final(self):
        if self._reference is None:
            phi0 = spectral.random_state(self.d, self.N, 1.0, self.seed,
                                         scale=self.SCALE)
            ref = solver.reference_split_step(phi0, self.T, 1e-3, self.d,
                                              self.k, self.N)
            self._reference = ref.states[-1]
        return self._reference

    def check(self, label, out) -> float:
        try:
            states = sorted(out.glob("state_*.csv"))
            if len(states) != self.M + 1 or len(list(out.glob("state_*.json"))) != self.M + 1:
                raise CheckFailed(f"expected {self.M + 1} state files with sidecars")
            try:
                report = json.loads((out / "report.json").read_text())
            except (OSError, ValueError) as exc:
                raise CheckFailed(f"report.json unreadable: {exc}") from exc
            if len(report["times"]) != self.M + 1 or report["iterations"] != len(report["residuals"]):
                raise CheckFailed("report.json disagrees with the partition")
            ratios = [_within(report["residuals"][-1], self.TOL, "final residual"),
                      _within(report["mass_drift"], 1e-4, "mass drift")]
            times = report["times"]
            rng = np.random.default_rng(self.seed)
            for j in rng.choice(self.M, 3, replace=False):
                a, b = (spectral.load_state_csv(states[i]) for i in (j, j + 1))
                want = _duhamel_linear_clock(a, times[j], times[j + 1], self.k)
                ratios.append(_within(_rel(b.coeffs - a.coeffs, want), 1e-6,
                                      "segment increment"))
            # w(t) = t, so U at w(T) = T maps the final state to physical variables
            final = spectral.apply_U(spectral.load_state_csv(states[-1]), self.T)
            ref = self._split_step_final()
            ratios.append(_within(_rel(final.coeffs, ref.coeffs), 1e-3,
                                  "final state vs split-step"))
            return max(ratios)
        finally:
            shutil.rmtree(out, ignore_errors=True)


class ProbeD2:
    """c11 top level (eq21, N=16), c12 (eq26 mu sweep) and the d=2 counting box."""

    name = "probe-d2"
    fft_workers = POOL_WORKERS
    EQ21_TRIALS = 2  # both are deterministic full-cube candidates: fft folds
    EQ26_TRIALS = 4
    EQ26_SEEDS = 16  # reference.json holds the sweep for each seed mod 16
    RTOL = 1e-9

    def __init__(self, seed: int, workdir: Path):
        _runtime.set_workers(self.fft_workers)
        self.seed = seed
        self.eq26_seed = seed % self.EQ26_SEEDS
        self.ops = [("eq21", self.eq21), ("eq26", self.eq26),
                    ("counting", self.counting)]
        self._reference = None

    def eq21(self):
        return resonance.estimate_ratio_eq21(2, 1, 1.0, 0.3, 0.0, 1, N=16,
                                             trials=self.EQ21_TRIALS,
                                             seed=self.seed)

    def eq26(self):
        return resonance.eq26_mu_sweep((4, 4, 2, 2), 2, 1, 0.1,
                                       trials=self.EQ26_TRIALS,
                                       seed=self.eq26_seed)

    def counting(self):
        return resonance.verify_counting_partition(2, 2, 1)

    def _close(self, got, want, what) -> float:
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        if got.shape != want.shape:
            raise CheckFailed(f"{what}: shape {got.shape} != recorded {want.shape}")
        err = float(np.max(np.abs(got - want) / np.abs(want)))
        return _within(err, self.RTOL, what)

    def check(self, label, result) -> float:
        if self._reference is None:
            self._reference = json.loads(REFERENCE.read_text())
        ref = self._reference
        if label == "eq21":
            want = ref["eq21"]
            return self._close([result.ratio, result.lhs, result.rhs],
                               [want["ratio"], want["lhs"], want["rhs"]],
                               "eq21 ratio/lhs/rhs")
        if label == "eq26":
            want = ref["eq26"][str(self.eq26_seed)]
            if [int(m) for m in result["mu_values"]] != want["mu_values"]:
                raise CheckFailed("eq26 attained mu values differ from the record")
            return self._close(result["ratios"], want["ratios"], "eq26 ratios")
        want = ref["counting"]
        if not result.identity_holds:
            raise CheckFailed("counting identity fails")
        if (result.total_tuples, result.zero_sum_count) != (
                want["total_tuples"], want["zero_sum_count"]):
            raise CheckFailed("counting totals differ from the record")
        return 0.0


WORKLOADS = {cls.name: cls for cls in (Irregularity, PicardD1, SolveD2, ProbeD2)}
