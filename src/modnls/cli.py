"""Command-line front end: path generation, solves, and estimate reports.

Exit codes: 0 success, 2 configuration/validation or argument failure
(an unreadable input or unwritable output file, a missing or unparsable
flag and a --threads below 1 included), 3 numerical failure (blow-up,
non-convergence, a box over its size budget, a non-finite result, or a
MemoryError or OverflowError from a size no budget prices), each with
one strict-JSON diagnostic on stderr, 64 missing or unknown subcommand.

Thread handling: --threads (default: all cores), a positive integer,
sizes the one worker pool, the phase walker's. The subcommand's parser
reads it before numpy is imported, so the BLAS thread variables, 1
unless set, take effect: pocketfft and BLAS run one thread each, and
outputs do not depend on the count. Library code imported directly,
without the CLI, stays single-threaded by default.

solve and converge read the whole experiment from the JSON config; a
key outside the README schema is a configuration error.

This module deliberately imports only the standard library at the top
level; numpy-heavy modules load inside the subcommand handlers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import _runtime
from .errors import ConfigError, NumericsError, check_int

_COMMANDS = ("gen-path", "irregularity", "solve", "converge",
             "verify-estimates", "xnorm")
_USAGE = ("usage: modnls {gen-path|irregularity|solve|converge|"
          "verify-estimates|xnorm} [--threads N] [options]\n")


def _write_json(obj, filename) -> None:
    """Write strict JSON; a non-finite float is a NumericsError, not a file."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as e:
        raise NumericsError(f"refusing to write {filename}: {e}") from e
    with open(filename, "w") as fh:
        fh.write(text + "\n")


def _finite_or_none(v):
    return None if isinstance(v, float) and not math.isfinite(v) else v


def _diag(exc) -> dict:
    """JSON-safe diagnostic fields of an error; non-finite floats become null."""
    out = {"error": type(exc).__name__, "message": str(exc)}
    for attr in ("step", "norm", "limit", "iterations", "residuals", "tol"):
        if hasattr(exc, attr):
            v = getattr(exc, attr)
            out[attr] = ([_finite_or_none(x) for x in v]
                         if isinstance(v, (list, tuple)) else _finite_or_none(v))
    return out


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one JSON line with exit 2, not usage text
        raise ConfigError(f"{self.prog}: {message}")

    def parse_args(self, args=None, namespace=None):
        """Parse, then size the pool by --threads (set_workers refuses a count below 1)
        and pin BLAS to 1 thread unless set, before the handler imports numpy."""
        args = super().parse_args(args, namespace)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, "1")
        _runtime.set_workers(args.threads)
        return args


def _parser(cmd: str) -> argparse.ArgumentParser:
    p = _Parser(prog=f"modnls {cmd}")
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                   help="worker count (default: all cores)")
    return p


def _cmd_gen_path(rest) -> int:
    p = _parser("gen-path")
    p.add_argument("--kind", required=True,
                   choices=["linear", "constant", "fbm", "modulated"])
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--H", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--profile", default=None)
    p.add_argument("--out", required=True)
    args = p.parse_args(rest)
    from . import paths
    spec = {key: val for key, val in vars(args).items()
            if key not in ("threads", "out") and val is not None}
    path = _path_from_spec(spec)
    paths.save_path_csv(path, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_irregularity(rest) -> int:
    p = _parser("irregularity")
    p.add_argument("--path", required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--amax", type=float, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(rest)
    check_int(args.pairs, "--pairs")
    from . import paths, phi
    path = paths.load_path_csv(args.path)
    scales = max(1, int(math.floor(math.log2(max(2, path.M)))) - 1)
    per_scale = max(1, round(args.pairs / scales))
    pairs = phi.default_pairs(path, per_scale=per_scale)
    a_grid = phi.default_a_grid(args.amax)
    rep = phi.estimate_irregularity(path, args.gamma, args.amax,
                                    rho_grid=[args.rho], a_grid=a_grid,
                                    pairs=pairs)[0]
    _write_json(rep.to_json_dict(), args.out)
    print(f"wrote {args.out}")
    return 0


def _check_spec(spec: dict, where: str, ints=(), reals=(), lists=(),
                other=()) -> None:
    """ConfigError for a key outside ints, reals and other, or unless present
    keys hold integers (ints) or numbers (reals), or for keys in `lists`
    non-empty lists of them; a bool is neither."""
    for key in spec:
        if key not in (*ints, *reals, *other):
            raise ConfigError(f"{where} has the unknown key {key!r}")
    for key in (*ints, *reals):
        val, kinds = spec.get(key, 0), int if key in ints else (int, float)
        items = val if key in lists and isinstance(val, list) and val else [val]
        if any(isinstance(v, bool) or not isinstance(v, kinds) for v in items):
            want = "an integer" if key in ints else "a number"
            raise ConfigError(f"{where} key {key!r} must be {want}"
                              + (" or a list of them" if key in lists else "")
                              + f", got {json.dumps(val)}")


def _path_from_spec(spec):
    """Clock from a spec dict; gen-path builds the same dict from its flags."""
    from . import paths
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("path spec must be an object with a 'kind'")
    _check_spec(spec, "path spec", ints=("seed", "M"),
                reals=("T", "H", "c", "eps"), other=("kind", "profile", "file"))
    kind = spec["kind"]
    try:
        if kind == "linear":
            return paths.make_linear_path(spec["T"], spec["M"])
        if kind == "constant":
            return paths.make_constant_path(spec["c"], spec["T"], spec["M"])
        if kind == "fbm":
            return paths.make_fbm_path(spec["H"], spec["T"], spec["M"],
                                       spec["seed"])
        if kind == "modulated":
            prof = paths._csv_rows(spec["profile"], 0).ravel()
            return paths.make_modulated_path(prof, spec["eps"], spec["T"],
                                             spec["M"])
        if kind == "file":
            return paths.load_path_csv(spec["file"])
    except KeyError as e:
        key = e.args[0]
        raise ConfigError(f"path kind {kind!r} needs {key!r} "
                          f"(gen-path flag --{key})")
    raise ConfigError(f"unknown path kind {kind!r}")


def _init_from_spec(spec, d: int, k: int, N: int):
    from . import solver, spectral
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError("init spec must be an object with a 'type'")
    _check_spec(spec, "init spec", ints=("seed", "m"),
                reals=("s", "scale", "c"), lists=("c", "m"), other=("type", "file"))
    try:
        if spec["type"] == "file":
            return spectral.load_state_csv(spec["file"])
        if spec["type"] == "plane_wave":
            c = spec["c"]
            if isinstance(c, list) and len(c) != 2:
                raise ConfigError("init spec key 'c' must be a number or an "
                                  f"[re, im] pair, got {json.dumps(c)}")
            c = complex(*c) if isinstance(c, list) else complex(c)
            return solver.plane_wave_exact(c, spec["m"], None, 0.0, k, N)
        if spec["type"] == "random":
            return spectral.random_state(d, N, spec["s"], spec["seed"],
                                         scale=spec.get("scale", 1.0))
    except KeyError as e:
        raise ConfigError(f"init spec is missing {e}")
    raise ConfigError(f"unknown init type {spec['type']!r}")


def _load_experiment(args):
    from . import paths, solver

    def non_finite(name):
        raise ConfigError(f"config {args.config} holds the non-finite number {name}")

    def finite(text):  # a literal such as 1e400 overflows to inf
        if math.isinf(val := float(text)):
            non_finite(text)
        return val

    try:
        with open(args.config) as fh:
            raw = json.load(fh, parse_constant=non_finite, parse_float=finite)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {args.config}: {e}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config {args.config} must be a JSON object")
    _check_spec(raw, "config", ints=("d", "k", "N", "M", "max_iter"),
                reals=("s", "gamma", "lambda", "rho", "T", "tol"),
                other=("scheme", "path", "init"))
    path = _path_from_spec(raw.get("path"))
    try:
        cfg = solver.SolverConfig(
            d=raw["d"], k=raw["k"], N=raw["N"], s=raw["s"],
            gamma=raw["gamma"], lam=raw["lambda"], rho=raw["rho"], T=raw["T"],
            partition=solver.uniform_partition(raw["T"], raw["M"]),
            scheme=raw.get("scheme", "picard"), tol=raw.get("tol", 1e-10),
            max_iter=raw.get("max_iter", 50))
    except KeyError as e:
        raise ConfigError(f"config is missing key {e}")
    if path.T > paths.horizon_limit(cfg.T) or cfg.T > paths.horizon_limit(path.T):
        raise ConfigError(f"path horizon {path.T} differs from config T {cfg.T}")
    phi0 = _init_from_spec(raw.get("init"), cfg.d, cfg.k, cfg.N)
    if (phi0.d, phi0.N) != (cfg.d, cfg.N):
        raise ConfigError(
            f"initial data box ({phi0.d}, {phi0.N}) does not match the "
            f"config ({cfg.d}, {cfg.N})")
    return cfg, phi0, path


def _run_scheme(cfg, phi0, path):
    from . import solver
    if cfg.scheme == "euler_young":
        return solver.solve_euler_young(cfg, phi0, path)
    return solver.solve_picard(cfg, phi0, path)


def _trajectory_report(cfg, traj) -> dict:
    from . import spectral
    coeffs = [st.coeffs for st in traj.states]
    norms = spectral._hs_norms(coeffs, spectral._hs_weight(cfg.d, cfg.N, cfg.s)).tolist()
    mass = spectral._hs_norms(coeffs, spectral._hs_weight(cfg.d, cfg.N, 0.0)).tolist()
    drift = 0.0
    if mass[0] > 0:
        drift = max(abs(m - mass[0]) for m in mass) / mass[0]
    return {
        "scheme": traj.meta.get("scheme", cfg.scheme),
        "iterations": traj.meta.get("iterations"),
        "residuals": traj.meta.get("residuals", []),
        "times": [float(t) for t in traj.times],
        "norms": norms,
        "mass": mass,
        "mass_drift": drift,
    }


def _cmd_solve(rest) -> int:
    p = _parser("solve")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(rest)
    from . import spectral
    cfg, phi0, path = _load_experiment(args)
    traj = _run_scheme(cfg, phi0, path)
    os.makedirs(args.out, exist_ok=True)
    width = max(4, len(str(len(traj.states) - 1)))
    for i, st in enumerate(traj.states):
        spectral.save_state_csv(st, os.path.join(args.out,
                                                 f"state_{i:0{width}d}.csv"))
    report = _trajectory_report(cfg, traj)
    _write_json(report, os.path.join(args.out, "report.json"))
    print(f"wrote {args.out}/report.json")
    return 0


def _cmd_converge(rest) -> int:
    p = _parser("converge")
    p.add_argument("--config", required=True)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(rest)
    from dataclasses import replace

    from . import solver, spectral
    if args.levels < 2:
        raise ConfigError("--levels must be at least 2")
    cfg, phi0, path = _load_experiment(args)
    M = cfg.partition.size - 1
    # a 2^(levels-1) above M divides no M; it is refused before the shift is computed
    if args.levels - 1 >= M.bit_length() or M % (1 << (args.levels - 1)):
        raise ConfigError(
            f"M={M} is not divisible by 2^{args.levels - 1}; "
            "choose M with enough factors of two for the levels")
    finals = []  # each level's final state, the only one read
    meshes = []
    for lev in range(args.levels):
        Ml = M >> lev
        c = replace(cfg, partition=solver.uniform_partition(cfg.T, Ml))
        finals.append(_run_scheme(c, phi0, path).states[-1])
        meshes.append(cfg.T / Ml)

    def gap(a, b):  # |u_a - u_b| in H^s between the final states of levels a and b
        diff = finals[a].coeffs - finals[b].coeffs
        return spectral.hs_norm(spectral.SpectralState(cfg.d, cfg.N, diff), cfg.s)

    ref = spectral.hs_norm(finals[0], cfg.s)
    errors = [gap(lev, 0) / (ref if ref > 0 else 1.0) for lev in range(1, args.levels)]
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "convergence.csv")
    with open(csv_path, "w") as fh:
        fh.write("mesh,error,order\n")
        # coarsest first; level i's order is log2 |u_i - u_{i-1}| / |u_{i-1} - u_{i-2}|,
        # from successive differences rather than against the finest level
        for i in range(args.levels - 1, 0, -1):
            num, den = (gap(i, i - 1), gap(i - 1, i - 2)) if i > 1 else (0.0, 0.0)
            order = f"{math.log2(num / den):.17g}" if num > 0 and den > 0 else ""
            fh.write(f"{meshes[i]:.17g},{errors[i - 1]:.17g},{order}\n")
    print(f"wrote {csv_path}")
    return 0


def _cmd_verify_estimates(rest) -> int:
    p = _parser("verify-estimates")
    p.add_argument("--which", required=True,
                   choices=["eq21", "eq26", "eq27", "counting"])
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, default=4)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--sprime", type=float, default=0.0)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--blocks", default=None,
                   help="comma-separated dyadic blocks for eq26/eq27 "
                        "(default: N for every slot)")
    p.add_argument("--mu", type=int, default=0, help="eq26 class offset")
    p.add_argument("--out", required=True)
    args = p.parse_args(rest)
    from . import resonance
    if args.which == "counting":
        rep = resonance.verify_counting_partition(args.N, args.d, args.k)
        payload = {"which": "counting", **rep.to_json_dict()}
    elif args.which == "eq21":
        s = args.s
        if s is None:
            s = args.d / 2 - args.rho / args.k + 0.1
        rep = resonance.estimate_ratio_eq21(
            args.d, args.k, args.rho, s, args.sprime, args.q, args.N,
            args.trials, args.seed)
        payload = rep.to_json_dict()
    else:
        if args.blocks:
            blocks = tuple(int(b) for b in args.blocks.split(","))
        else:
            blocks = (args.N,) * (2 * args.k + 2)
        s = args.s if args.s is not None else 0.1
        mu = args.mu if args.which == "eq26" else None
        rep = resonance.dyadic_block_ratio(args.which, blocks, mu, args.d,
                                           args.k, s, args.trials, args.seed)
        payload = rep.to_json_dict()
    _write_json(payload, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_xnorm(rest) -> int:
    p = _parser("xnorm")
    p.add_argument("--path", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    args = p.parse_args(rest)
    from . import paths, young
    young.check_kernel_box(args.d, args.k, args.N)
    cfg = young.YoungKernelConfig(args.d, args.k, args.N, paths.load_path_csv(args.path))
    val = young.x_norm_estimate(cfg, args.gamma, args.s, args.trials, args.seed)
    payload = {"norm_estimate": val, "gamma": args.gamma, "s": args.s,
               "d": args.d, "k": args.k, "N": args.N,
               "trials": args.trials, "seed": args.seed}
    _write_json(payload, args.out)
    print(f"wrote {args.out}")
    return 0


_HANDLERS = {
    "gen-path": _cmd_gen_path,
    "irregularity": _cmd_irregularity,
    "solve": _cmd_solve,
    "converge": _cmd_converge,
    "verify-estimates": _cmd_verify_estimates,
    "xnorm": _cmd_xnorm,
}


def run_command(argv) -> int:
    """Dispatch one CLI invocation; returns the process exit code."""
    argv = list(argv)
    if argv and argv[0] in ("-h", "--help"):
        sys.stdout.write(_USAGE)
        return 0
    if not argv or argv[0] not in _COMMANDS:
        sys.stderr.write(_USAGE)
        return 64
    try:
        return _HANDLERS[argv[0]](argv[1:])
    except (ValueError, OSError) as e:
        # a ConfigError, bad numeric input surfaced below the config layer,
        # or a file named on the command line that cannot be read or written
        sys.stderr.write(json.dumps(_diag(e)) + "\n")
        return 2
    except (NumericsError, MemoryError, OverflowError) as e:
        # a refused size, a failed computation, or a size no budget prices
        sys.stderr.write(json.dumps(_diag(e)) + "\n")
        return 3
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
