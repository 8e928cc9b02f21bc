#!/usr/bin/env python3
"""Desk-scale anomaly-generation experiment, end to end.

Runs both search procedures against the predictor of --config (by default
the calibrated weighting-function oracle at bruhin-b), verifies and
categorizes every candidate, compares against the random-pair baseline, and
prints a category-count table.  Outputs land in --outdir as JSONL/CSV
streams reusable by the anomgen CLI; its config.json is the config run.
"""

import argparse
import json
import os
import time
from collections import Counter

from anomgen.cli import cluster_rows, run_command
from anomgen.records import pair_anomaly, read_lines, write_jsonl


def sh(argv):
    print("+ anomgen", " ".join(argv))
    rc = run_command(argv)
    if rc != 0:
        raise SystemExit(rc)


def cluster_pooled(pooled, pooled_path, out, k, seed):
    """Cluster the pooled anomalies into ``k`` groups.  Too few non-FOSD
    anomalies for the clusters is a result, reported in one line; any other
    failure of ``cluster`` stops the script with its exit status."""
    count = len(cluster_rows(pooled))
    if count < k:
        print(f"clustering skipped: {count} non-FOSD anomalies with features, "
              f"fewer than the {k} clusters")
        return
    sh(["cluster", "--in", pooled_path, "--k", str(k), "--seed", str(seed),
        "--out", out])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="runs/desk")
    ap.add_argument("--inits", type=int, default=300, help="runs per procedure")
    ap.add_argument("--baseline-pairs", type=int, default=5000)
    ap.add_argument("--seed", type=int, default=23)
    ap.add_argument("--config", help="pipeline config JSON; --seed replaces its seed")
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args(argv)

    raw = {}
    try:
        if args.config:
            with open(args.config, encoding="utf-8") as fh:
                raw = json.load(fh)
        raw = {**raw, "seed": args.seed}
    except (OSError, TypeError, ValueError) as exc:
        raise SystemExit(f"{args.config}: not a config object ({exc})") from None
    os.makedirs(args.outdir, exist_ok=True)
    cfg_path = os.path.join(args.outdir, "config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=2)

    def path(name):
        return os.path.join(args.outdir, name)

    start = time.time()
    common = ["--config", cfg_path, "--workers", str(args.workers)]
    for stem in ("adversarial", "morph"):
        sh([stem, *common, "--inits", str(args.inits), "--out", path(f"{stem}.jsonl")])
    sh(["baseline", *common, "--inits", str(args.baseline_pairs),
        "--out", path("baseline.jsonl")])

    for stem in ("adversarial", "morph", "baseline"):
        sh(["verify", "--in", path(f"{stem}.jsonl"), *common,
            "--out", path(f"{stem}_verified.jsonl")])
        sh(["categorize", "--in", path(f"{stem}_verified.jsonl"),
            "--out", path(f"{stem}_categorized.jsonl")])

    def tally(stems, counts, rows=None):
        """The lines of ``stems``' categorized streams as they are read, each
        record counted into ``counts`` and, given ``rows``, added to it if
        ``cluster`` groups it."""
        for stem in stems:
            lines = read_lines(path(f"{stem}_categorized.jsonl"), expected_kind="categorized")
            next(lines)
            for rec, line in lines:
                counts["records"] += 1
                counts["parametrized"] += rec.get("parametrized_inconsistent", False)
                counts["full"] += rec.get("any_utility_inconsistent", False)
                counts["pairs"] += pair_anomaly(rec)
                if rows is not None:
                    rows += cluster_rows([rec])
                yield line

    # Pool the two optimized procedures for the report and clustering, one
    # line at a time: a pooled line is its categorized line as read.
    pooled, rows = Counter(), []
    write_jsonl(path("pooled_categorized.jsonl"), tally(("adversarial", "morph"), pooled, rows),
                kind="categorized")
    sh(["report", "--in", path("pooled_categorized.jsonl"),
        "--out", path("report.csv")])
    cluster_pooled(rows, path("pooled_categorized.jsonl"), path("clusters.csv"),
                   k=4, seed=args.seed)

    baseline = Counter()
    for _ in tally(("baseline",), baseline):
        pass
    n_par = pooled["parametrized"]
    print(f"\npooled runs: {pooled['records']}  parametrized-inconsistent: {n_par} "
          f"({n_par / pooled['records']:.1%})  fully verified: {pooled['full']}  "
          f"pair anomalies: {pooled['pairs']}")
    print(f"baseline pairs: {baseline['records']}  fully verified: {baseline['full']}  "
          f"pair anomalies: {baseline['pairs']}")
    print(f"elapsed: {time.time() - start:.0f}s")
    with open(path("report.csv"), encoding="utf-8") as fh:
        print("\n" + fh.read())


if __name__ == "__main__":
    main()
