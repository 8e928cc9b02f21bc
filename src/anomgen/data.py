"""Choice datasets: validated rows, CSV ingestion, deterministic splits.

CSV schema (J = 2 shown; J = 3 appends _3 columns, and the loader reads J
from the header):
``z0_1,z0_2,p0_1,p0_2,z1_1,z1_2,p1_1,p1_2,outcome,outcome_kind``
with an optional trailing ``weight`` column.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .lotteries import Menu, make_lottery


@dataclass(frozen=True)
class ChoiceRow:
    menu: Menu
    outcome: float
    outcome_kind: str = "binary"
    weight: float = 1.0

    def __post_init__(self):
        if self.outcome_kind not in ("binary", "rate"):
            raise ValueError(f"bad outcome_kind {self.outcome_kind!r}")
        if not 0.0 <= self.outcome <= 1.0:
            raise ValueError(f"outcome {self.outcome} outside [0, 1]")
        if not self.weight > 0:
            raise ValueError("weight must be positive")


class ChoiceDataset:
    """Immutable list of rows with a homogeneous number of payoffs."""

    def __init__(self, rows):
        rows = tuple(rows)
        if rows:
            J = rows[0].menu.n_payoffs
            for i, r in enumerate(rows):
                if r.menu.n_payoffs != J:
                    raise ValueError(f"row {i} has {r.menu.n_payoffs} payoffs, expected {J}")
        self.rows = rows

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, i):
        return self.rows[i]

    @property
    def n_payoffs(self) -> int:
        if not self.rows:
            raise ValueError("empty dataset")
        return self.rows[0].menu.n_payoffs

    def outcomes(self) -> np.ndarray:
        return np.array([r.outcome for r in self.rows])

    def weights(self) -> np.ndarray:
        return np.array([r.weight for r in self.rows], dtype=float)


def _schema_columns(n_payoffs: int) -> list:
    cols = []
    for side in ("z0", "p0", "z1", "p1"):
        cols += [f"{side}_{j}" for j in range(1, n_payoffs + 1)]
    return cols + ["outcome", "outcome_kind"]


def load_dataset(path) -> ChoiceDataset:
    """Read and validate a CSV choice dataset; J is the number of its
    ``z0_*`` columns, and the rest of J's schema must be there too.

    Lotteries are built by ``make_lottery``; its errors (probabilities off
    the simplex by more than 1e-6, say) raise with the offending row index.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        # A header without a z0_* column misses at least the J = 1 columns.
        n_payoffs = max(sum(c.startswith("z0_") for c in header), 1)
        missing = [c for c in _schema_columns(n_payoffs) if c not in header]
        if missing:
            raise ValueError(f"missing columns: {missing}")
        for i, rec in enumerate(reader):
            try:
                z0, p0, z1, p1 = ([float(rec[f"{side}_{j}"]) for j in range(1, n_payoffs + 1)]
                                  for side in ("z0", "p0", "z1", "p1"))
                menu = Menu(make_lottery(z0, p0), make_lottery(z1, p1))
                row = ChoiceRow(menu=menu,
                                outcome=float(rec["outcome"]),
                                outcome_kind=rec["outcome_kind"],
                                weight=float(rec.get("weight", 1.0) or 1.0))
            except (ValueError, KeyError) as exc:
                raise ValueError(f"row {i}: {exc}") from exc
            rows.append(row)
    return ChoiceDataset(rows)


def save_dataset(ds: ChoiceDataset, path) -> None:
    """Full-precision CSV writer; round-trips bit-exactly through load."""
    J = ds.n_payoffs
    cols = _schema_columns(J) + ["weight"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for r in ds:
            vals = (list(r.menu.lottery0.payoffs) + list(r.menu.lottery0.probs)
                    + list(r.menu.lottery1.payoffs) + list(r.menu.lottery1.probs))
            writer.writerow([repr(float(v)) for v in vals]
                            + [repr(float(r.outcome)), r.outcome_kind,
                               repr(float(r.weight))])


def split_dataset(ds: ChoiceDataset, holdout_fraction: float, seed: int):
    """Disjoint, exhaustive, seed-deterministic (train, test) split."""
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError("holdout fraction must be in (0, 1)")
    n = len(ds)
    if n < 2:
        raise ValueError("dataset too small to split")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_test = max(1, int(round(n * holdout_fraction)))
    n_test = min(n_test, n - 1)
    test_idx = set(perm[:n_test].tolist())
    train = ChoiceDataset([ds[i] for i in range(n) if i not in test_idx])
    test = ChoiceDataset([ds[i] for i in range(n) if i in test_idx])
    return train, test
