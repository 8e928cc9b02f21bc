#!/usr/bin/env python3
"""Desk-scale anomaly-generation experiment, end to end.

Runs both search procedures against a calibrated weighting-function oracle,
verifies and categorizes every candidate, compares against the random-pair
baseline, and prints a category-count table.  Outputs land in --outdir as
JSONL/CSV streams reusable by the anomgen CLI.
"""

import argparse
import json
import os
import time

from anomgen.cli import cluster_rows, run_command


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


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="runs/desk")
    ap.add_argument("--inits", type=int, default=300, help="runs per procedure")
    ap.add_argument("--baseline-pairs", type=int, default=5000)
    ap.add_argument("--seed", type=int, default=23)
    ap.add_argument("--preset", default="bruhin-b",
                    choices=("bruhin-a", "bruhin-b", "bruhin-c"))
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    os.makedirs(args.outdir, exist_ok=True)
    cfg_path = os.path.join(args.outdir, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump({"seed": args.seed,
                   "predictor": {"kind": "cpt", "preset": args.preset},
                   "adversarial": {"inits": args.inits},
                   "morph": {"inits": args.inits}}, fh, indent=2)

    def path(name):
        return os.path.join(args.outdir, name)

    start = time.time()
    common = ["--config", cfg_path, "--workers", str(args.workers)]
    sh(["adversarial", *common, "--out", path("adversarial.jsonl")])
    sh(["morph", *common, "--out", path("morph.jsonl")])
    sh(["baseline", *common, "--inits", str(args.baseline_pairs),
        "--out", path("baseline.jsonl")])

    for stem in ("adversarial", "morph", "baseline"):
        sh(["verify", "--in", path(f"{stem}.jsonl"), *common,
            "--out", path(f"{stem}_verified.jsonl")])
        sh(["categorize", "--in", path(f"{stem}_verified.jsonl"),
            "--out", path(f"{stem}_categorized.jsonl")])

    # Pool the two optimized procedures for the report and clustering.
    from anomgen.records import read_jsonl, write_jsonl
    pooled = []
    for stem in ("adversarial", "morph"):
        pooled += read_jsonl(path(f"{stem}_categorized.jsonl"))[1]
    write_jsonl(path("pooled_categorized.jsonl"), pooled, kind="categorized")
    sh(["report", "--in", path("pooled_categorized.jsonl"),
        "--out", path("report.csv")])
    cluster_pooled(pooled, path("pooled_categorized.jsonl"), path("clusters.csv"),
                   k=4, seed=args.seed)

    n_par = sum(r.get("parametrized_inconsistent", False) for r in pooled)
    n_full = sum(r.get("any_utility_inconsistent", False) for r in pooled)
    _, baseline = read_jsonl(path("baseline_categorized.jsonl"))
    base_full = sum(r.get("any_utility_inconsistent", False) for r in baseline)
    print(f"\npooled runs: {len(pooled)}  parametrized-inconsistent: {n_par} "
          f"({n_par / len(pooled):.1%})  fully verified: {n_full}")
    print(f"baseline pairs: {len(baseline)}  fully verified: {base_full}")
    print(f"elapsed: {time.time() - start:.0f}s")
    with open(path("report.csv"), encoding="utf-8") as fh:
        print("\n" + fh.read())


if __name__ == "__main__":
    main()
