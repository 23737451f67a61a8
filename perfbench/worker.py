"""Child process of run.py: set up one workload, time its repetitions, check them.

    python3 perfbench/worker.py --workload W --seed S --t0-ns NS --workdir DIR \
        --seconds R --trace 0|1 --result FILE

`setup_s` is the time from NS, a CLOCK_MONOTONIC reading the parent
took just before starting this process, to the moment the workload's
inputs are ready. The child then runs one untimed warm-up repetition,
then repetitions of the fixed problem set until R seconds have passed,
checks every op outside the timed region, and writes a JSON result to
FILE. With --trace 0 the reference kernel
(refkernel.py) runs before the first timed repetition and after each
one, for `wall_rel`. With --trace 1 odd repetitions run under the
tracer and even ones without it, so the same process yields the
per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from statistics import median

from refkernel import reference_seconds

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]  # modnls and tests.conftest

MIN_REPS = 2  # timed repetitions per kind, even past the deadline
MAX_FACTOR = 4  # ...unless the run has taken this many times --seconds


def _measure(wl, args, tracer) -> dict:
    stats = {"attempted": 0, "failed": 0, "err_ratio": 0.0, "messages": []}

    def repetition(run: int, traced: bool) -> float:
        if traced:
            tracer.run = run
            tracer.install()
        results = []
        t0 = time.perf_counter()
        try:
            for label, op in wl.ops:
                try:
                    results.append((label, op(), None))
                except Exception as exc:  # every failure counts, none stops the run
                    results.append((label, None, exc))
            elapsed = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        for label, result, exc in results:
            stats["attempted"] += 1
            if exc is None:
                try:
                    stats["err_ratio"] = max(stats["err_ratio"],
                                             wl.check(label, result))
                    continue
                except Exception as failure:  # a check that cannot run fails too
                    exc = failure
            stats["failed"] += 1
            stats["messages"].append(f"run {run} {label}: {exc!r}")
        return elapsed

    repetition(0, False)  # warm-up: first-call costs stay out of the timings
    # every repetition does the same work, so set-up plus one repetition
    # reaches the workload's high-water mark; the reference kernel's own
    # arrays come later and stay out of it
    stats["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    walls = {False: [], True: []}
    kinds = (True, False) if tracer is not None else (False,)
    # untraced runs bracket every repetition with the reference kernel
    refs = [reference_seconds()] if tracer is None else []
    start = time.perf_counter()
    run = 0
    while True:
        spent = time.perf_counter() - start
        enough = all(len(walls[k]) >= MIN_REPS for k in kinds)
        if (spent >= args.seconds and enough) or spent >= MAX_FACTOR * args.seconds:
            break
        run += 1
        traced = tracer is not None and run % 2 == 1
        walls[traced].append(repetition(run, traced))
        if tracer is None:
            refs.append(reference_seconds())
    stats["wall"] = walls[False]
    stats["traced_wall"] = walls[True]
    stats["ref"] = refs
    stats["rel"] = [w / (0.5 * (before + after)) for w, before, after
                    in zip(walls[False], refs, refs[1:])]
    return stats


def _layer_metrics(tracer, stats) -> dict:
    from tracing import COUNT_METRICS, METRICS, RUN

    stats["count_mismatch"] = []
    runs = sorted({s[RUN] for s in tracer.spans})
    per_run = [tracer.metrics(r) for r in runs]
    out = {}
    for key in per_run[0]:
        values = [m[key] for m in per_run]
        if key in COUNT_METRICS:
            if any(v != values[0] for v in values):
                stats["count_mismatch"].append(f"{key}: {values}")
            out[key] = values[0]
        else:
            out[key] = median(values)
    out["trace.overhead_s"] = median(stats["traced_wall"]) - median(stats["wall"])
    return {k: {"value": v, "unit": METRICS[k]} for k, v in out.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0-ns", type=int, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--result", type=Path, required=True)
    args = p.parse_args(argv)

    import numpy
    import scipy

    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    setup_s = (time.monotonic_ns() - args.t0_ns) / 1e9
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    stats = _measure(wl, args, tracer)
    stats["setup_s"] = setup_s
    stats["fft_workers"] = wl.fft_workers
    stats["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    if tracer is not None:
        stats["layers"] = _layer_metrics(tracer, stats)
        stats["largest_array_bytes"] = tracer.largest_array_bytes()
        stats["untraced_targets"] = tracer.missing
        spans_file = args.workdir.parent / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.dump(spans_file)
        stats["spans_file"] = str(spans_file.relative_to(ROOT))
    args.result.write_text(json.dumps(stats))
    return 0


if __name__ == "__main__":
    sys.exit(main())
