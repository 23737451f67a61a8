"""Record the probe-d2 reference values in reference.json.

    python3 perfbench/record_reference.py

The probe-d2 checks require eq21, eq26 and counting results equal to
these values (relative 1e-9), one eq26 sweep per seed mod EQ26_SEEDS.
Re-record only at a commit whose probe results are trusted, and say in
the change why the values moved.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent)]

from run import _git_commit  # noqa: E402
from workloads import REFERENCE, ProbeD2  # noqa: E402


def main() -> None:
    probe = ProbeD2(0, HERE)
    eq21 = probe.eq21()
    counting = probe.counting()
    eq26 = {}
    for seed in range(ProbeD2.EQ26_SEEDS):
        probe.eq26_seed = seed
        sweep = probe.eq26()
        eq26[str(seed)] = {"mu_values": [int(m) for m in sweep["mu_values"]],
                           "ratios": [float(r) for r in sweep["ratios"]]}
    record = {
        "recorded_at": _git_commit(),
        "eq21": {"ratio": eq21.ratio, "lhs": eq21.lhs, "rhs": eq21.rhs},
        "eq26": eq26,
        "counting": {"total_tuples": counting.total_tuples,
                     "zero_sum_count": counting.zero_sum_count},
    }
    REFERENCE.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
