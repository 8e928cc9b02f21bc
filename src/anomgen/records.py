"""Persisted anomaly records: JSONL streams with a version header, CSV tables.

Every record is self-contained: menus plus predicted probabilities are enough
to re-run verification and reproduce the stored verdicts bit-for-bit.  The
record format lives here only.  Generation writes a block's records from its
(R, m, 2, J) payoff and probability stacks (``stack_to_records``), and a
block of records is read back into such stacks, one per shape
(``stack_records``); ``record_to_collection`` reads one record the same way,
as (m, 2, J) arrays.  A list of menus is read by one rule wherever it comes
from: ``parse_menus``, then ``read_menus``.
A stream is read one line at a time, each record with its line
(``read_lines``), so a command can write a record it leaves as it is as the
line it read.  Writes stream their lines to a temp file and rename it into
place, so interrupted batch runs never leave half-written outputs.  Files
are UTF-8 whatever the locale.
"""

from __future__ import annotations

import json
import os
import tempfile
from itertools import chain

import numpy as np

from .lotteries import Collection, implied_choices, read_probs

FORMAT_VERSION = 1


def stack_to_records(Z: np.ndarray, P: np.ndarray, q: np.ndarray, procedure: str,
                     predictor, master_seed, indices, **columns) -> list[dict]:
    """The records of runs ``indices``, the inverse of ``stack_records``:
    run r's menus are ``Z[r]``, ``P[r]`` (R, m, 2, J) and its predictions
    ``q[r]`` (R, m); ``predictor`` is a label.  Each of ``columns`` holds one
    value per run; ``iterations`` defaults to None and ``flags`` to []."""
    if not np.all((q >= 0.0) & (q <= 1.0)):
        raise ValueError("choice probability outside [0, 1]")
    columns = {"iterations": [None] * len(q), "flags": [[] for _ in q], **columns}
    menus = [[{f"lottery{k}": {"payoffs": z, "probs": p} for k, (z, p) in enumerate(menu)}
              for menu in run] for run in np.stack([Z, P], axis=-2).tolist()]
    probs, choices = q.tolist(), implied_choices(q).tolist()
    return [{"id": f"{procedure}-{i:06d}", "procedure": procedure, "predictor": predictor,
             "master_seed": master_seed, "run_index": i, "menus": menus[r],
             "predicted_probs": probs[r], "implied_choices": choices[r],
             **{k: v[r] for k, v in columns.items()}}
            for r, i in enumerate(indices)]


def parse_menus(menus) -> np.ndarray:
    """Menus as a record holds them, as one (m, 2, 2, J) array: each menu's
    lotteries, each one's payoffs then its probabilities, as written.  Raises
    KeyError, TypeError or ValueError unless they form m >= 1 menus of two
    lotteries over the same J >= 1 payoffs."""
    X = np.array([[[lot["payoffs"], lot["probs"]] for lot in (menu["lottery0"], menu["lottery1"])]
                  for menu in menus], dtype=float)
    if X.ndim != 4 or X.size == 0:
        raise ValueError("not m >= 1 menus of two lotteries over the same J >= 1 payoffs")
    return X


def read_menus(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Payoffs and probabilities (R, m, 2, J) of R parsed menu lists X (R, m,
    2, 2, J), the probabilities as ``lotteries.read_probs`` reads them, and
    the faults by which a list is rejected, as (why, bad) with bad (R,): a
    payoff that is not finite, a probability vector ``read_probs`` rejects."""
    Z = np.ascontiguousarray(X[:, :, :, 0])
    P, bad_probs = read_probs(X[:, :, :, 1])
    return Z, P, (("payoff not finite", ~np.isfinite(Z).all(axis=(1, 2, 3))),
                  ("probabilities not within 1e-6 of the simplex", bad_probs.any(axis=(1, 2))))


def stack_records(recs) -> list[tuple]:
    """Read a block of records into one stack per shape, in the order in
    which the shapes first appear: (rows, Z, P, q), the records' positions
    in the block, their payoffs and probabilities (R, m, 2, J), lottery 0
    first, the latter as ``lotteries.read_probs`` reads them, and their
    predicted probabilities of lottery 1 (R, m).

    A record is malformed when its menus do not parse (``parse_menus``),
    when it has other than m predicted probabilities, or when a value is out
    of range: a fault of ``read_menus`` or a predicted probability outside
    [0, 1].  The first malformed record of the block raises ValueError
    naming its id.
    """
    errors, shapes = {}, {}
    for i, rec in enumerate(recs):
        try:
            X = parse_menus(rec["menus"])
            q = np.array(rec["predicted_probs"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            errors[i] = repr(exc)
            continue
        if q.shape != X.shape[:1]:
            errors[i] = f"{q.size} predicted probabilities for {len(X)} menus"
        else:
            shapes.setdefault(X.shape, []).append((i, X, q))
    stacks = []
    for group in shapes.values():
        rows = [i for i, _, _ in group]
        Z, P, faults = read_menus(np.stack([X for _, X, _ in group]))
        q = np.stack([q for _, _, q in group])
        for why, bad in (*faults, ("predicted probability outside [0, 1]",
                                   ~((q >= 0) & (q <= 1)).all(axis=1))):
            for r in np.flatnonzero(bad):
                errors.setdefault(rows[r], why)
        stacks.append((rows, Z, P, q))
    if errors:
        first = min(errors)
        raise ValueError(f"record {recs[first].get('id')!r}: malformed menus or "
                         f"predicted_probs ({errors[first]})")
    return stacks


def record_to_collection(record: dict) -> Collection:
    """The menus and predictions of a record as (m, 2, J) and (m,) arrays,
    read by ``stack_records``."""
    ((_, Z, P, q),) = stack_records([record])
    return Collection(Z[0], P[0], q[0])


def pair_anomaly(record: dict) -> bool:
    """Whether a verified record is a pair anomaly: its minimal inconsistent
    sub-collection (``anomaly_minimal_indices``) holds both of its two
    menus, so no menu's choice is inconsistent on its own."""
    minimal = record.get("anomaly_minimal_indices") or ()
    return 1 < len(minimal) == len(record.get("menus", ()))


def atomic_write_lines(path, lines, end: str = "\n") -> None:
    """Write each of ``lines`` and ``end`` to ``path`` in UTF-8 as they come,
    through a temp file and an atomic rename: a failure partway, in writing
    or in producing a line, leaves ``path`` as it was and no temp file
    behind.  The file gets the mode ``open`` would give it, 0o666 less the
    umask (``mkstemp`` makes 0o600)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-anomgen-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(f"{line}{end}" for line in lines)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# Every JSONL line is written by this one encoder: the bytes of
# ``json.dumps(obj, sort_keys=True)``, less the encoder ``dumps`` builds per
# call.  Records are trees, so no cycle check is needed.
_encode = json.JSONEncoder(sort_keys=True, check_circular=False).encode


def write_jsonl(path, records, kind: str) -> None:
    """A version header line, then one line per record, written as it comes.
    A record given as a str is a line ``read_lines`` read, written as it was
    read."""
    header = {"version": FORMAT_VERSION, "kind": kind}
    atomic_write_lines(path, chain([_encode(header)],
                                   (r if isinstance(r, str) else _encode(r) for r in records)))


def read_lines(path, expected_kind: str | None = None):
    """The stream at ``path`` as it is read, one (object, line) pair per
    line that is not blank: first its header, checked before it is yielded,
    then each record.  A line is as read, less its end; files are UTF-8.  A
    line that is not valid JSON or not a JSON object raises ValueError
    naming the path and the line."""
    # A file iterates by newlines only, so a JSON string may hold a raw
    # U+2028 or U+0085 without ending its line; "\r\n" reads as "\n".
    with open(path, encoding="utf-8") as fh:
        header = True
        for n, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {n} is not valid JSON ({exc})") from None
            if not isinstance(obj, dict):
                raise ValueError(f"{path}: line {n} is not a JSON object")
            if header:
                header = False
                if obj.get("version") != FORMAT_VERSION:
                    raise ValueError(f"{path}: unsupported version {obj.get('version')}")
                if expected_kind is not None and obj.get("kind") != expected_kind:
                    raise ValueError(f"{path}: kind {obj.get('kind')!r}, "
                                     f"expected {expected_kind!r}")
            yield obj, line.rstrip("\n")
    if header:
        raise ValueError(f"{path}: empty stream")


def read_jsonl(path, expected_kind: str | None = None):
    """(header, records) of the stream at ``path``, read by ``read_lines``."""
    lines = read_lines(path, expected_kind)
    header, _ = next(lines)
    return header, [rec for rec, _ in lines]


def _csv_field(value) -> str:
    """``value`` as a CSV field, quoted as RFC 4180 asks when it needs to be
    (a label such as ``cpt(0.7,0.3)`` holds a comma)."""
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path, header_row, rows) -> None:
    atomic_write_lines(path, (",".join(map(_csv_field, row))
                              for row in chain([header_row], rows)))
