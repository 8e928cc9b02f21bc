#!/usr/bin/env python3
"""Determinism contract for the per-layer counts.

Runs ``run.py --trace 1`` twice at one seed and checks that every
count-valued per-layer metric (fit calls, on-bound and unconverged fits, LP
calls, morph steps, theta rows sampled, JSONL bytes, output counts) is
identical, and that both runs passed their output checks.

    python3 perfbench/check_determinism.py --workload desk --seed 23 --seconds 10

Exits 0 when the counts agree, 1 when they differ or a run failed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
COUNT_UNITS = ("count", "B", "calls/record", "share")


def traced_counts(workload: str, seed: int, seconds: int) -> tuple[bool, dict]:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
                         cwd=HERE.parent, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    counts = {k: m["value"] for k, m in result["metrics"].items()
              if m["unit"] in COUNT_UNITS}
    return result["correct"], counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args()
    ok_a, a = traced_counts(args.workload, args.seed, args.seconds)
    ok_b, b = traced_counts(args.workload, args.seed, args.seconds)
    differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "counts": a, "differ": {k: [a.get(k), b.get(k)] for k in differ},
                      "correct": [ok_a, ok_b]}, sort_keys=True))
    return 0 if ok_a and ok_b and not differ else 1


if __name__ == "__main__":
    sys.exit(main())
