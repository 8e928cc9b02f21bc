"""Choice datasets: rows of choice data as arrays, simulation from a
predictor, CSV ingestion.

A row is a menu and the observed probability that lottery 1 is chosen from
it.  A dataset holds its menus as a block of records is read: (n, 2, J)
payoff and probability stacks, probabilities read by ``read_probs``.

CSV schema (J = 2 shown; J = 3 appends _3 columns, and the loader reads J
from the header):
``z0_1,z0_2,p0_1,p0_2,z1_1,z1_2,p1_1,p1_2,outcome,outcome_kind``
with an optional trailing ``weight`` column.  ``simulate_choices`` draws
the outcomes from any predictor handle, such as the configured one.
"""

from __future__ import annotations

import csv

import numpy as np

from .lotteries import flat_stack, read_probs
from .records import write_csv


class ChoiceDataset:
    """``Z``, ``P`` (n, 2, J), lottery 0 first, and ``outcomes``, ``kinds``,
    ``weights`` (n,); one kind or weight is every row's.  The first row with
    a payoff that is not finite, probabilities ``read_probs`` rejects, a kind
    other than binary or rate, an outcome outside [0, 1] or a weight that is
    not positive raises ValueError naming its index."""

    def __init__(self, Z, P, outcomes, kinds="binary", weights=1.0):
        self.Z = np.array(Z, dtype=float)
        P = np.asarray(P, dtype=float)
        if not (self.Z.ndim == 3 and self.Z.shape[1:2] == (2,) and P.shape == self.Z.shape):
            raise ValueError(f"payoffs {self.Z.shape}, probabilities {P.shape}: not (n, 2, J)")
        self.P, bad_probs = read_probs(P)
        n = len(self.Z)
        self.outcomes, self.kinds, self.weights = (
            np.array(np.broadcast_to(np.asarray(v, dtype=t), (n,)))
            for v, t in ((outcomes, float), (kinds, str), (weights, float)))
        checks = (("payoff not finite", self.Z, ~np.isfinite(self.Z).all(axis=(1, 2))),
                  ("probabilities not within 1e-6 of the simplex", P, bad_probs.any(axis=1)),
                  ("kind not binary or rate", self.kinds,
                   ~np.isin(self.kinds, ("binary", "rate"))),
                  ("outcome outside [0, 1]", self.outcomes,
                   ~((self.outcomes >= 0.0) & (self.outcomes <= 1.0))),
                  ("weight not positive", self.weights, ~(self.weights > 0.0)))
        bad = np.array([mask for _, _, mask in checks])
        if bad.any():
            i = bad.any(axis=0).argmax()
            why, values, _ = checks[bad[:, i].argmax()]
            raise ValueError(f"row {i}: {why}: {values[i].tolist()!r}")

    def __len__(self):
        return len(self.outcomes)


def simulate_choices(rng: np.random.Generator, predictor, Z: np.ndarray, P: np.ndarray,
                     kind: str = "binary", count: int = 1) -> ChoiceDataset:
    """Simulate a choice dataset from ``predictor`` on the menus of (n, 2, J)
    payoff and probability stacks.

    ``binary`` draws one Bernoulli(f(x)) outcome per menu; ``rate`` records
    the empirical mean of ``count`` draws.
    """
    if kind not in ("binary", "rate"):
        raise ValueError("kind must be 'binary' or 'rate'")
    if kind == "rate" and count < 1:
        raise ValueError("rate mode needs count >= 1")
    f = predictor.predict_batch(Z, P)
    # ``count`` draws per menu in rate mode, one in binary mode, menu by menu.
    draws = rng.random((len(f), count if kind == "rate" else 1))
    return ChoiceDataset(Z, P, (draws < f[:, None]).mean(axis=1), kind)


def _schema_columns(n_payoffs: int) -> list:
    cols = []
    for side in ("z0", "p0", "z1", "p1"):
        cols += [f"{side}_{j}" for j in range(1, n_payoffs + 1)]
    return cols + ["outcome", "outcome_kind"]


def _dataset(values, kinds, weights, n_payoffs: int) -> ChoiceDataset:
    """The dataset of CSV rows parsed into (z0, p0, z1, p1, outcome) values."""
    X = np.array(values, dtype=float).reshape(-1, 4 * n_payoffs + 1)
    ZP = X[:, :-1].reshape(-1, 2, 2, n_payoffs)
    return ChoiceDataset(ZP[:, :, 0], ZP[:, :, 1], X[:, -1], kinds, weights)


def load_dataset(path) -> ChoiceDataset:
    """Read a CSV choice dataset; J is the number of its ``z0_*`` columns,
    and the rest of J's schema must be there too.  A row short of a schema
    column or with a value that is not a number raises ValueError with its
    index, unless an earlier row is rejected; a missing weight is 1.  Every
    ValueError, a ``ChoiceDataset`` one too, starts with ``path``."""
    values, kinds, weights = [], [], []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            # A header without a z0_* column misses at least the J = 1 columns.
            n_payoffs = max(sum(c.startswith("z0_") for c in header), 1)
            missing = [c for c in _schema_columns(n_payoffs) if c not in header]
            if missing:
                raise ValueError(f"missing columns: {missing}")
            cols = [header.index(c) for c in _schema_columns(n_payoffs)]
            w = header.index("weight") if "weight" in header else len(header)
            for i, fields in enumerate(f for f in reader if f):
                try:
                    if len(fields) <= max(cols):
                        raise ValueError(f"{len(fields)} fields, the header has {len(header)}")
                    values.append([float(fields[c]) for c in cols[:-1]])
                    kinds.append(fields[cols[-1]])
                    weights.append(float(fields[w] if w < len(fields) and fields[w] else 1.0))
                except ValueError as exc:
                    _dataset(values[:i], kinds[:i], weights[:i], n_payoffs)
                    raise ValueError(f"row {i}: {exc}") from exc
        return _dataset(values, kinds, weights, n_payoffs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_dataset(ds: ChoiceDataset, path) -> None:
    """Full-precision CSV writer, atomic as ``records.write_csv`` is;
    round-trips bit-exactly through load."""
    X = np.concatenate([flat_stack(ds.Z, ds.P), ds.outcomes[:, None]], axis=1)
    write_csv(path, _schema_columns(ds.Z.shape[-1]) + ["weight"],
              ([*map(repr, x), kind, repr(weight)] for x, kind, weight
               in zip(X.tolist(), ds.kinds.tolist(), ds.weights.tolist())))

