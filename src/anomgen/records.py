"""Persisted anomaly records: JSONL streams with a version header, CSV tables.

Every record is self-contained: menus plus predicted probabilities are enough
to re-run verification and reproduce the stored verdicts bit-for-bit.  Writes
stream their lines to a temp file and rename it into place, so interrupted
batch runs never leave half-written outputs.
"""

from __future__ import annotations

import json
import os
import tempfile
from itertools import chain

from .lotteries import Example, ExampleCollection, Menu

FORMAT_VERSION = 1


def candidate_to_record(collection: ExampleCollection, record_id: str | None = None) -> dict:
    prov = dict(collection.provenance)
    procedure = prov.get("procedure", "unknown")
    run_index = prov.get("run_index", 0)
    record = {
        "id": record_id or f"{procedure}-{run_index:06d}",
        "procedure": procedure,
        "predictor": prov.get("predictor"),
        "master_seed": prov.get("master_seed"),
        "run_index": run_index,
        "iterations": prov.get("iterations"),
        "flags": prov.get("flags", []),
        "menus": [m.to_json_dict() for m in collection.menus],
        "predicted_probs": [float(e.choice_prob) for e in collection],
        "implied_choices": [int(c) for c in collection.implied_choices],
    }
    # Morph runs also say why they stopped and the rank they retained, and
    # adversarial runs how many of their inner fits ended on the ball or
    # unconverged.
    record.update({k: prov[k] for k in ("stop", "retained_rank", "inner_fits_on_bound",
                                        "inner_fits_unconverged") if k in prov})
    return record


def record_to_collection(record: dict) -> ExampleCollection:
    try:
        menus = [Menu.from_json_dict(m) for m in record["menus"]]
        examples = tuple(Example(m, p) for m, p in
                         zip(menus, record["predicted_probs"], strict=True))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"record {record.get('id')!r}: malformed menus or "
                         f"predicted_probs ({exc!r})") from None
    prov = {k: record.get(k) for k in
            ("procedure", "predictor", "master_seed", "run_index", "iterations")}
    return ExampleCollection(examples, prov)


def atomic_write_lines(path, lines) -> None:
    """Write each of ``lines`` and a newline to ``path`` as they come, through
    a temp file and an atomic rename: a failure partway, in writing or in
    producing a line, leaves neither file behind."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-anomgen-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(f"{line}\n" for line in lines)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_jsonl(path, records, kind: str) -> None:
    """A version header line, then one line per record, written as it comes."""
    header = {"version": FORMAT_VERSION, "kind": kind}
    atomic_write_lines(path, chain([json.dumps(header, sort_keys=True)],
                                   (json.dumps(r, sort_keys=True) for r in records)))


def read_jsonl(path, expected_kind: str | None = None):
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty stream")
    header = json.loads(lines[0])
    if header.get("version") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported version {header.get('version')}")
    if expected_kind is not None and header.get("kind") != expected_kind:
        raise ValueError(f"{path}: kind {header.get('kind')!r}, expected {expected_kind!r}")
    return header, [json.loads(ln) for ln in lines[1:]]


def write_csv(path, header_row, rows) -> None:
    atomic_write_lines(path, chain([",".join(header_row)],
                                   (",".join(str(v) for v in row) for row in rows)))
