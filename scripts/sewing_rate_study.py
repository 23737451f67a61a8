"""Measure the sewing defect rate for trajectories of varying Hoelder class.

For each lambda the trajectory g(t) = (1 + c_lambda(t)) psi0 is driven by
a Weierstrass-type scalar of exponent lambda; the defect between the
Young integral and a single kernel step over [0, L] is fitted against L.
"""

import argparse
import csv

import numpy as np

from modnls import paths, phi, solver, spectral, young


def weierstrass(grid, exponent, octaves=13, phase=0.7):
    octs = np.arange(octaves)
    return np.sum(2.0 ** (-exponent * octs)[:, None]
                  * np.cos(np.outer(2.0 ** octs * np.pi, grid)
                           + phase * octs[:, None]), axis=0)


def fitted_rate(lam, T, M, N, seed):
    grid = solver.uniform_partition(T, M)
    wvals = 0.3 * np.sum(
        np.sin(np.outer(2.0 ** np.arange(13) * np.pi, grid))
        * 2.0 ** (-0.55 * np.arange(13))[:, None], axis=0)
    wvals[0] = 0.0
    path = paths.SamplePath(grid, wvals)
    table = phi.build_phi_table(path, 4 * N * N)
    cfg = solver.SolverConfig(d=1, k=1, N=N, s=1.0, gamma=0.55,
                              lam=min(lam, 0.549), rho=1.0, T=T,
                              partition=grid)
    psi0 = spectral.random_state(1, N, 1.0, seed=seed, scale=0.8)
    factor = 1.0 + 0.25 * weierstrass(grid, lam)
    states = [spectral.SpectralState(1, N, c * psi0.coeffs) for c in factor]
    traj = solver.Trajectory(grid, states, {})
    kc = cfg.kernel(table)
    lengths, errs = [], []
    for j in range(5):
        t_idx = M >> j
        L = float(grid[t_idx])
        fine = solver.young_integral(cfg, traj, 0, t_idx, table)
        one = young.x_increment(kc, 0.0, L, [states[0]] * 3)
        errs.append(spectral.hs_norm(
            spectral.SpectralState(1, N, fine.coeffs - one.coeffs), 1.0))
        lengths.append(L)
    return float(np.polyfit(np.log2(lengths), np.log2(errs), 1)[0])


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--lams", default="0.3,0.5,0.7,0.9")
    p.add_argument("--T", type=float, default=0.5)
    p.add_argument("--M", type=int, default=1024)
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--seed", type=int, default=5)
    p.add_argument("--out", required=True)
    args = p.parse_args()

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lam", "fitted_rate", "predicted_floor"])
        for tok in args.lams.split(","):
            lam = float(tok)
            rate = fitted_rate(lam, args.T, args.M, args.N, args.seed)
            writer.writerow([lam, rate, 1.0 + lam])
            print(f"lam={lam}: rate {rate:.2f} (one-step theory {1 + lam:.2f})")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
