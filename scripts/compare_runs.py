#!/usr/bin/env python3
"""Compare the verdicts of two desk-scale runs, record by record, or the
rates of two sets of runs.

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

With ``--rates`` the records of several OLD and several NEW directories
(several seeds, say) are pooled, and each procedure's rates are compared
instead: the shares of parametrized-inconsistent and of any-utility
(fully verified) inconsistent records and, for the searches, the share of
runs of at most one step, each ``stop`` reason's share (``max_iters`` is
the share that hit the cap) and the mean step count.  A share gets a Wilson
95% interval (Wilson 1927) on each side, and its difference NEW - OLD
Newcombe's hybrid score interval (Newcombe 1998, method 10); the mean's
difference gets a normal interval.  The difference intervals hold jointly
at 95%: each is at the Bonferroni level 1 - 0.05 / k over the k
differences compared.  One JSON line is printed per comparison, then a
summary line.  The exit status is 1 when a difference interval excludes 0
or a procedure is in one set only, 0 when none is and 2 when a run cannot
be read.

    python scripts/compare_runs.py --rates --old runs/p23 runs/p1729 \
        --new runs/n23 runs/n1729
"""

import argparse
import json
import math
import os
import sys
from collections import Counter, defaultdict
from glob import glob
from statistics import NormalDist, fmean, variance

from anomgen.records import read_jsonl

VERDICT_KEYS = ("implied_choices", "parametrized_inconsistent", "any_utility_inconsistent",
                "anomaly_minimal_indices")
POOLED = "pooled_categorized.jsonl"


def verdicts(rec: dict) -> dict:
    """The fields of a categorized record that the comparison reads."""
    out = {k: rec.get(k) for k in VERDICT_KEYS}
    out["category"] = (rec.get("category") or {}).get("tag")
    return out


def load_records(outdir: str) -> dict:
    """Record id -> record, over the run's per-procedure categorized streams."""
    paths = [p for p in sorted(glob(os.path.join(outdir, "*_categorized.jsonl")))
             if os.path.basename(p) != POOLED]
    if not paths:
        raise ValueError(f"{outdir}: no categorized streams")
    run = {}
    for path in paths:
        for rec in read_jsonl(path, expected_kind="categorized")[1]:
            if rec["id"] in run:
                raise ValueError(f"{path}: record id {rec['id']!r} seen twice")
            run[rec["id"]] = rec
    return run


def load_run(outdir: str) -> dict:
    """Record id -> verdicts, over the run's per-procedure categorized streams."""
    return {rid: verdicts(rec) for rid, rec in load_records(outdir).items()}


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


def wilson(count: int, n: int, z: float) -> tuple[float, float]:
    """Wilson score interval of the share count / n at normal quantile z."""
    p, zz = count / n, z * z / n
    center = (p + zz / 2) / (1 + zz)
    half = z / (1 + zz) * math.sqrt(p * (1 - p) / n + zz / (4 * n))
    return max(0.0, center - half), min(1.0, center + half)


def newcombe(old: tuple[int, int], new: tuple[int, int], z: float) -> tuple[float, float]:
    """Newcombe's hybrid score interval of the difference new - old of two
    independent shares, each given as (count, n), at normal quantile z."""
    p1, p0 = new[0] / new[1], old[0] / old[1]
    (l1, u1), (l0, u0) = wilson(*new, z), wilson(*old, z)
    d = p1 - p0
    return d - math.hypot(p1 - l1, u0 - p0), d + math.hypot(u1 - p1, p0 - l0)


def rate_samples(recs, stops) -> dict:
    """(procedure, quantity) -> per-record values: 0/1 for a share, the step
    count for ``mean_steps``.  ``stops`` names the ``stop`` reasons whose
    shares are taken."""
    out = defaultdict(list)
    for rec in recs:
        proc = rec["procedure"]
        for verdict in ("parametrized_inconsistent", "any_utility_inconsistent"):
            out[proc, verdict].append(int(bool(rec[verdict])))
        if rec.get("iterations") is not None:
            out[proc, "at_most_one_step"].append(int(rec["iterations"] <= 1))
            out[proc, "mean_steps"].append(rec["iterations"])
        if "stop" in rec:
            for stop in stops:
                out[proc, f"stop={stop}"].append(int(rec["stop"] == stop))
    return out


def compare_rates(old_recs, new_recs) -> list[dict]:
    """One entry per (procedure, quantity) of either side, in order, with
    both sides' estimates and the difference's interval at the joint level."""
    stops = sorted({"max_iters"} | {r["stop"] for r in (*old_recs, *new_recs) if "stop" in r})
    old, new = rate_samples(old_recs, stops), rate_samples(new_recs, stops)
    keys = sorted(old.keys() | new.keys())
    level = 1 - 0.05 / len(keys)
    z, z95 = NormalDist().inv_cdf(1 - (1 - level) / 2), NormalDist().inv_cdf(0.975)
    out = []
    for proc, what in keys:
        a, b = old.get((proc, what)), new.get((proc, what))
        entry = {"procedure": proc, "quantity": what}
        if a is None or b is None:
            out.append({**entry, "only_in": "old" if b is None else "new", "differs": True})
            continue
        if what == "mean_steps":
            sides = {side: {"mean": fmean(v), "n": len(v)} for side, v in (("old", a), ("new", b))}
            d = sides["new"]["mean"] - sides["old"]["mean"]
            half = z * math.sqrt(sum(variance(v) / len(v) for v in (a, b) if len(v) > 1))
            interval = (d - half, d + half)
        else:
            sides = {side: {"count": sum(v), "n": len(v), "share": sum(v) / len(v),
                            "wilson95": list(wilson(sum(v), len(v), z95))}
                     for side, v in (("old", a), ("new", b))}
            d = sides["new"]["share"] - sides["old"]["share"]
            interval = newcombe((sum(a), len(a)), (sum(b), len(b)), z)
        out.append({**entry, **sides, "difference": d, "interval": list(interval),
                    "level": level, "differs": not interval[0] <= 0.0 <= interval[1]})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("runs", nargs="*", metavar="DIR",
                    help="OLD and NEW: output directories of the reference run and of the "
                         "run to check")
    ap.add_argument("--rates", action="store_true", help="compare the pooled rates of "
                    "the --old and the --new runs")
    ap.add_argument("--old", nargs="+", default=[], help="reference runs, with --rates")
    ap.add_argument("--new", nargs="+", default=[], help="runs to check, with --rates")
    args = ap.parse_args(argv)
    if args.rates and (args.runs or not (args.old and args.new)) or \
            not args.rates and (len(args.runs) != 2 or args.old or args.new):
        ap.error("give OLD NEW, or --rates with --old and --new")
    try:
        if args.rates:
            entries = compare_rates(*([rec for d in dirs for rec in load_records(d).values()]
                                      for dirs in (args.old, args.new)))
        else:
            old, new = load_run(args.runs[0]), load_run(args.runs[1])
    except (ValueError, KeyError, OSError) as exc:
        print(f"compare_runs: {exc}", file=sys.stderr)
        return 2
    if args.rates:
        for entry in entries:
            print(json.dumps(entry, sort_keys=True))
        differing = sum(e["differs"] for e in entries)
        print(json.dumps({"comparisons": len(entries), "differing": differing,
                          "old": args.old, "new": args.new}, sort_keys=True))
        return 1 if differing else 0
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
