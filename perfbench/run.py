"""modnls benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload irregularity --seed 1 --seconds 12 --trace 0

Run from the repository root. Workloads (see README.md next to this
file): irregularity, picard-d1, solve-d2, probe-d2.

This process only uses the standard library. It starts every child
itself, one at a time, and waits for each. A child (worker.py) runs
with pinned thread counts, sets the workload up, times repetitions of
the workload's fixed problem set and checks every op against its
oracle. With --trace 0, CHILDREN children share --seconds, so that
each run samples set-up and process-level effects (memory layout,
vCPU placement) several times; with --trace 1 one child measures for
all of --seconds.

It prints a readable summary (timing medians and quartiles with sample
counts, err_ratio, fail_frac, provenance) and, as the last line, one
JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are wall_rel, setup_s and peak_rss_mb; with
--trace 1 they are the per-layer metrics. Without modnls sources under
src/ it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("irregularity", "picard-d1", "solve-d2", "probe-d2")
CHILDREN = 3  # measuring children of an untraced run
CONFIRM_SEEDS = tuple(range(101, 111))  # reserved for confirming claims
TIME_LIMIT = 170.0  # seconds for the whole run, children included
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS")


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("YNLS_THREADS", "MODNLS_THREADS")}
    env.update({k: "1" for k in BLAS_ENV})
    return env


def _cache_sizes() -> dict:
    out = {}
    for level in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            res = subprocess.run(["getconf", level], capture_output=True,
                                 text=True, timeout=5)
            out[level.lower()] = int(res.stdout.strip())
        except (OSError, ValueError, subprocess.TimeoutExpired):
            out[level.lower()] = None
    return out


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _spread(values) -> str:
    if len(values) < 2:
        return f"median {median(values):.6g}  n={len(values)}"
    q1, _, q3 = quantiles(values, n=4)
    return f"median {median(values):.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}"


def _worker(args, workdir: Path, deadline: float, seconds: float,
            result: Path):
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", str(workdir), "--seconds", str(seconds),
           "--trace", str(args.trace), "--result", str(result),
           "--t0-ns", str(time.monotonic_ns())]
    return subprocess.run(cmd, cwd=ROOT, env=_child_env(), text=True,
                          stdout=sys.stderr,
                          timeout=max(1.0, deadline - time.monotonic()))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="modnls benchmark, one run")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT

    if not ((ROOT / "src" / "modnls" / "__init__.py").is_file()
            and (ROOT / "tests" / "conftest.py").is_file()):
        print(f"perfbench: no modnls sources (src/modnls, tests/conftest.py) "
              f"under {ROOT}", file=sys.stderr)
        return 2

    run_dir = ROOT / ".bench_run"
    workdir = run_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    children = 1 if args.trace else CHILDREN
    parts = []
    try:
        for i in range(children):
            result_file = workdir / f"result-{i}.json"
            res = _worker(args, workdir, deadline, args.seconds / children,
                          result_file)
            if res.returncode != 0 or not result_file.is_file():
                print(f"perfbench: measuring child exited {res.returncode}",
                      file=sys.stderr)
                return 1
            parts.append(json.loads(result_file.read_text()))
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {TIME_LIMIT:.0f} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stats = parts[-1]  # versions, worker counts and trace results
    pooled = {key: [v for part in parts for v in part[key]]
              for key in ("wall", "ref", "rel")}
    setups = [part["setup_s"] for part in parts]
    peaks = [part["peak_rss_mb"] for part in parts]
    attempted = sum(part["attempted"] for part in parts)
    failed = sum(part["failed"] for part in parts)
    err_ratio = max(part["err_ratio"] for part in parts)
    messages = [msg for part in parts for msg in part["messages"]]
    mismatch = stats.get("count_mismatch", [])
    correct = failed == 0 and not mismatch and attempted > 0
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "confirm_seeds": list(CONFIRM_SEEDS), "trace": args.trace,
        "host": platform.node(), "nproc": os.cpu_count(), **_cache_sizes(),
        "largest_array_bytes": stats.get("largest_array_bytes", "traced runs only"),
        "python": platform.python_version(), **stats["versions"],
        "commit": _git_commit(), "fft_workers": stats["fft_workers"],
        "blas_threads": 1, "spans_file": stats.get("spans_file"),
        "untraced_targets": stats.get("untraced_targets"),
    }

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    for msg in messages + [f"count differs between runs: {m}" for m in mismatch]:
        print(f"  FAIL {msg}")
    print(f"  wall_s       {_spread(pooled['wall'])} (s, untraced repetitions)")
    if args.trace:
        print(f"  traced wall  {_spread(stats['traced_wall'])} (s)")
    else:
        print(f"  reference    {_spread(pooled['ref'])} (s, reference kernel)")
        print(f"  wall_rel     {_spread(pooled['rel'])} (1, repetition / reference)")
    print(f"  setup_s      {_spread(setups)} (s)")
    print(f"  peak_rss_mb  {_spread(peaks)} (MB)")
    print(f"  err_ratio    {err_ratio:.3e} (1, worst oracle error / tolerance)")
    print(f"  fail_frac    {failed / max(attempted, 1):.4g} (1, {failed} of {attempted} ops)")
    print("  provenance " + json.dumps(provenance))

    if args.trace:
        metrics = stats["layers"]
    else:
        metrics = {
            "wall_rel": {"value": median(pooled["rel"]), "unit": "1"},
            "setup_s": {"value": median(setups), "unit": "s"},
            "peak_rss_mb": {"value": median(peaks), "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
