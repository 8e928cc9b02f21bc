"""Output checks run after the measured pass; any failure fails the run.

* every any-utility-inconsistent record carries ``anomaly_minimal_indices``
  and a category;
* every categorized anomaly passes ``categorize.check_certificate``;
* a seed-derived sample of verified records (plus every anomaly) re-verifies
  to its stored verdicts;
* each stage's summary line agrees with the files it wrote;
* the traced pass writes the same bytes as the untraced one.

Each failure names the record it concerns; a failed record counts against
``failed``.
"""

from __future__ import annotations

import filecmp
import os
import random

from anomgen import records
from anomgen.basis import basis_from_config
from anomgen.categorize import AnomalyCategory, check_certificate
from anomgen.config import load_config
from anomgen.verifier import minimal_anomaly, verify_collection, verify_parametrized

REVERIFY_SAMPLE = 4


def check_pass(result, config_path: str, seed: int) -> dict[str, list[str]]:
    """Map of record id (or stage name) to the checks it failed."""
    cfg = load_config(config_path)
    basis = basis_from_config(cfg.theory_basis)
    failures: dict[str, list[str]] = {}

    def fail(key, why):
        failures.setdefault(key, []).append(why)

    rng = random.Random(seed)
    summaries = {}
    for stage in result.stages:
        summaries.setdefault(stage.command, []).append(stage.summary)
    for stem, files in result.files.items():
        _, candidates = records.read_jsonl(files["candidates"], expected_kind="candidates")
        _, categorized = records.read_jsonl(files["categorized"], expected_kind="categorized")
        if len(categorized) != len(candidates):
            fail(stem, f"{len(candidates)} candidates but {len(categorized)} categorized")
        for rec in categorized:
            if not rec.get("any_utility_inconsistent"):
                continue
            if not rec.get("anomaly_minimal_indices"):
                fail(rec["id"], "anomaly without anomaly_minimal_indices")
            cat = rec.get("category")
            if cat is None:
                fail(rec["id"], "anomaly without category")
            elif not check_certificate(AnomalyCategory(cat["tag"], cat["certificate"]),
                                       records.record_to_collection(rec)):
                fail(rec["id"], f"certificate of {cat['tag']} does not check")
        sample = rng.sample(range(len(categorized)), min(REVERIFY_SAMPLE, len(categorized)))
        sample = set(sample) | {i for i, r in enumerate(categorized)
                                if r.get("any_utility_inconsistent")}
        for i in sorted(sample):
            rec = categorized[i]
            coll = records.record_to_collection(rec)
            pv = verify_parametrized(basis, coll, cfg.kl_threshold)
            av = verify_collection(coll, cfg.margin_threshold)
            minimal = None if av.consistent else minimal_anomaly(coll)
            got = (bool(pv.inconsistent), not av.consistent,
                   list(minimal[0]) if minimal else None)
            want = (rec["parametrized_inconsistent"], rec["any_utility_inconsistent"],
                    rec["anomaly_minimal_indices"])
            if got != want:
                fail(rec["id"], f"re-verified to {got}, stored {want}")
        anomalies = sum(bool(r.get("any_utility_inconsistent")) for r in categorized)
        report = [s for s in summaries.get("report", [])
                  if s.get("out") == files["report"]]
        if not report or report[0].get("anomalies") != anomalies:
            fail(stem, f"report summary {report} disagrees with {anomalies} anomalies")
    return failures


def differing_files(files: dict, other_dir: str) -> list[str]:
    """Output files of a pass whose bytes differ from those of the same name
    in ``other_dir``, written by another pass at the same seed."""
    paths = [p for f in files.values() for k, p in f.items()
             if k in ("candidates", "verified", "categorized", "report")]
    other = [os.path.join(other_dir, os.path.basename(p)) for p in paths]
    return [os.path.basename(p) for p, q in zip(paths, other)
            if not (os.path.isfile(q) and filecmp.cmp(p, q, shallow=False))]
