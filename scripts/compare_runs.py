#!/usr/bin/env python3
"""Compare the verdicts of two desk-scale runs, record by record.

OLD and NEW are output directories of ``scripts/run_desk_scale.py``.  The
records of their per-procedure categorized streams
(``<procedure>_categorized.jsonl``; the pooled stream repeats the searches'
records) are matched by ``id``.  A record differs when its implied choices,
``parametrized_inconsistent``, ``any_utility_inconsistent``,
``anomaly_minimal_indices`` or category tag differ, or when only one run has
it.  Each differing record is printed as one JSON line, then one summary
line with the record and category counts of both runs.  The exit status is
1 when any record differs, 0 when none does and 2 when a run cannot be read.

    python scripts/compare_runs.py runs/desk-old runs/desk-new
"""

import argparse
import json
import os
import sys
from collections import Counter
from glob import glob

from anomgen.records import read_jsonl

VERDICT_KEYS = ("implied_choices", "parametrized_inconsistent", "any_utility_inconsistent",
                "anomaly_minimal_indices")
POOLED = "pooled_categorized.jsonl"


def verdicts(rec: dict) -> dict:
    """The fields of a categorized record that the comparison reads."""
    out = {k: rec.get(k) for k in VERDICT_KEYS}
    out["category"] = (rec.get("category") or {}).get("tag")
    return out


def load_run(outdir: str) -> dict:
    """Record id -> verdicts, over the run's per-procedure categorized streams."""
    paths = [p for p in sorted(glob(os.path.join(outdir, "*_categorized.jsonl")))
             if os.path.basename(p) != POOLED]
    if not paths:
        raise ValueError(f"{outdir}: no categorized streams")
    run = {}
    for path in paths:
        for rec in read_jsonl(path, expected_kind="categorized")[1]:
            if rec["id"] in run:
                raise ValueError(f"{path}: record id {rec['id']!r} seen twice")
            run[rec["id"]] = verdicts(rec)
    return run


def compare(old: dict, new: dict) -> list[dict]:
    """One entry per differing record, in id order: the fields that differ
    with both values, or the run that alone has the record."""
    diffs = []
    for rid in sorted(old.keys() | new.keys()):
        a, b = old.get(rid), new.get(rid)
        if a is None or b is None:
            diffs.append({"id": rid, "only_in": "old" if b is None else "new"})
        elif a != b:
            diffs.append({"id": rid, "fields": {k: {"old": a[k], "new": b[k]}
                                                for k in a if a[k] != b[k]}})
    return diffs


def category_counts(run: dict) -> dict:
    return dict(sorted(Counter(v["category"] for v in run.values()
                               if v["category"] is not None).items()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", help="output directory of the reference run")
    ap.add_argument("new", help="output directory of the run to check")
    args = ap.parse_args(argv)
    try:
        old, new = load_run(args.old), load_run(args.new)
    except (ValueError, KeyError, OSError) as exc:
        print(f"compare_runs: {exc}", file=sys.stderr)
        return 2
    diffs = compare(old, new)
    for diff in diffs:
        print(json.dumps(diff, sort_keys=True))
    print(json.dumps({"records": {"old": len(old), "new": len(new)},
                      "category_counts": {"old": category_counts(old),
                                          "new": category_counts(new)},
                      "differing": len(diffs)}, sort_keys=True))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
