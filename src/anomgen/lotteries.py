"""Lotteries, menus and simplex arithmetic.

A menu is a pair of lotteries over J monetary payoffs.  Everything downstream
(choice models, the anomaly search, verification) runs over the canonical
flattened coordinate vector ``(z0, p0, z1, p1)`` of length 4J.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

# Payoffs closer than this are treated as the same monetary amount.
PAYOFF_MERGE_TOL = 1e-9
# A nonnegative vector whose sum is this close to 1 is on the simplex (up to
# accumulated rounding) and is stored as it is.
SIMPLEX_TOL = 64 * np.finfo(float).eps


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Lottery:
    """A finite lottery: payoff vector and matching probability vector."""

    payoffs: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "payoffs", _readonly(self.payoffs))
        object.__setattr__(self, "probs", _readonly(self.probs))
        if self.payoffs.ndim != 1 or self.payoffs.shape != self.probs.shape:
            raise ValueError("payoffs and probs must be 1-d vectors of equal length")
        if self.payoffs.size < 1:
            raise ValueError("lottery needs at least one payoff")
        if not np.all(np.isfinite(self.payoffs)):
            raise ValueError("non-finite payoff")
        check_probs(self.probs)

    @property
    def size(self) -> int:
        return self.payoffs.size

    def to_json_dict(self) -> dict:
        return {"payoffs": self.payoffs.tolist(), "probs": self.probs.tolist()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Lottery":
        return make_lottery(d["payoffs"], d["probs"])


def check_probs(P) -> None:
    """Raise unless each lottery (last axis) of ``P`` is a probability vector:
    finite, nonnegative within ``PAYOFF_MERGE_TOL`` and summing to 1 within
    1e-9.  ``Lottery`` checks its vector here, and the searches their whole
    (R, 2, J) probability stacks."""
    P = np.asarray(P, dtype=float)
    low = P.min(initial=np.inf)         # NaN fails the test below, +inf the sum's
    if not low >= -PAYOFF_MERGE_TOL:
        raise ValueError("negative probability" if low < 0 else "non-finite probability")
    error = np.abs(P.sum(axis=-1) - 1.0)
    if not error.max(initial=0.0) <= 1e-9:
        worst = P.reshape(-1, P.shape[-1])[np.asarray(error).argmax()]
        raise ValueError(f"probabilities sum to {worst.sum()}, not 1")


def read_probs(P) -> tuple[np.ndarray, np.ndarray]:
    """Each probability vector (last axis) of ``P`` as it is read from a
    record: (vectors, bad).

    A vector may be off the simplex by at most 1e-6.  It is clipped at 0
    and rescaled by its sum unless it is on the simplex within
    ``SIMPLEX_TOL`` already, so a vector read back from a record is the one
    written.  ``bad`` marks the vectors that are off by more, negative
    beyond ``PAYOFF_MERGE_TOL`` or not finite; their entries mean nothing.
    """
    P = np.asarray(P, dtype=float)
    bad = np.any(P < -PAYOFF_MERGE_TOL, axis=-1) | ~(np.abs(P.sum(axis=-1) - 1.0) <= 1e-6)
    P = np.clip(P, 0.0, None)
    total = P.sum(axis=-1, keepdims=True)
    np.divide(P, total, out=P, where=~(np.abs(total - 1.0) <= SIMPLEX_TOL))
    return P, bad


def make_lottery(payoffs, probs) -> Lottery:
    """Validate and build a lottery, reading its probabilities by
    ``read_probs``."""
    p, bad = read_probs(probs)
    if bad:
        raise ValueError(f"probabilities {probs} (sum {np.sum(probs)}) not within 1e-6 "
                         "of the simplex")
    return Lottery(payoffs, p)


@dataclass(frozen=True)
class Menu:
    """A binary menu; both lotteries must have the same number of payoffs."""

    lottery0: Lottery
    lottery1: Lottery

    def __post_init__(self):
        if self.lottery0.size != self.lottery1.size:
            raise ValueError("both lotteries in a menu must have the same J")

    @property
    def n_payoffs(self) -> int:
        return self.lottery0.size

    @property
    def lotteries(self) -> tuple:
        """``(lottery0, lottery1)``, so a choice indexes its lottery."""
        return (self.lottery0, self.lottery1)

    def flatten(self) -> np.ndarray:
        """Canonical coordinate order (z0, p0, z1, p1)."""
        return np.concatenate(
            [self.lottery0.payoffs, self.lottery0.probs,
             self.lottery1.payoffs, self.lottery1.probs]
        )

    def swapped(self) -> "Menu":
        return Menu(self.lottery1, self.lottery0)

    @classmethod
    def from_json_dict(cls, d: dict) -> "Menu":
        return cls(Lottery.from_json_dict(d["lottery0"]),
                   Lottery.from_json_dict(d["lottery1"]))


def stack_menus(menus) -> tuple[np.ndarray, np.ndarray]:
    """Payoff and probability stacks (n, 2, J) of n menus, lottery 0 first."""
    X = np.array([m.flatten() for m in menus]).reshape(len(menus), 2, 2, -1)
    return np.ascontiguousarray(X[:, :, 0]), np.ascontiguousarray(X[:, :, 1])


def flat_stack(Z: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Flat coordinates (..., 4J) of (..., 2, J) payoff and probability
    stacks: the inverse of ``stack_menus``, row by row."""
    Z, P = np.broadcast_arrays(Z, P)
    return np.stack([Z, P], axis=-2).reshape(*Z.shape[:-2], -1)


@dataclass(frozen=True)
class Example:
    """A menu plus the modeled choice probability for lottery 1."""

    menu: Menu
    choice_prob: float

    def __post_init__(self):
        if not 0.0 <= self.choice_prob <= 1.0:
            raise ValueError("choice probability outside [0, 1]")

    @property
    def implied_choice(self) -> int:
        return int(implied_choices(self.choice_prob))

    @property
    def chosen_and_other(self) -> tuple:
        """The implied choice's lottery, then the other lottery."""
        lotteries = self.menu.lotteries
        return lotteries[self.implied_choice], lotteries[1 - self.implied_choice]


@dataclass(frozen=True)
class ExampleCollection:
    """An ordered, non-empty collection of examples."""

    examples: tuple

    def __post_init__(self):
        object.__setattr__(self, "examples", tuple(self.examples))
        if not self.examples:
            raise ValueError("collection must be non-empty")

    def __len__(self):
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)

    @property
    def menus(self) -> list:
        return [e.menu for e in self.examples]

    @property
    def implied_choices(self) -> np.ndarray:
        return implied_choices([e.choice_prob for e in self.examples])


def implied_choices(q) -> np.ndarray:
    """The lottery each predicted probability of lottery 1 implies is
    chosen; ties at exactly 0.5 map to lottery 1."""
    return (np.asarray(q, dtype=float) >= 0.5).astype(int)


# Sign of each lottery in a menu's value difference (lottery 1 minus
# lottery 0), shaped to broadcast over (..., 2, J) stacks.
LOTTERY_SIGN = np.array([[-1.0], [1.0]])


def project_to_simplex(v) -> np.ndarray:
    """Euclidean projection of each row (last axis) of ``v`` onto the unit
    simplex.

    Sort-based algorithm, row by row; exact up to floating point.  Every
    operation acts on one row at a time, so a row's result does not depend on
    the rows stacked with it.
    """
    v = np.array(v, dtype=float)
    if v.ndim == 0 or v.shape[-1] == 0:
        raise ValueError("expected non-empty rows")
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite input")
    # Rows already on the simplex (up to accumulated rounding) are their own
    # projection; returning them unchanged makes the operation idempotent
    # bit-for-bit.
    move = ~(np.all(v >= 0.0, axis=-1) & (np.abs(v.sum(axis=-1) - 1.0) <= SIMPLEX_TOL))
    if np.any(move):
        rows = v[move]
        n = rows.shape[-1]
        u = np.sort(rows, axis=-1)[:, ::-1]
        css = np.cumsum(u, axis=-1) - 1.0
        cond = u - css / np.arange(1, n + 1) > 0
        rho = n - np.argmax(cond[:, ::-1], axis=-1)          # last index that holds
        theta = np.take_along_axis(css, rho[:, None] - 1, axis=-1) / rho[:, None]
        v[move] = np.maximum(rows - theta, 0.0)
    return v


def draw_menus(rng: np.random.Generator, n_menus: int, n_payoffs: int,
               payoff_low: float, payoff_high: float) -> tuple[np.ndarray, np.ndarray]:
    """Payoff and probability stacks (n_menus, 2, J) of random menus: i.i.d.
    uniform payoffs, then sum-normalized uniform probabilities, per lottery."""
    if payoff_low >= payoff_high:
        raise ValueError("payoff_low must be strictly below payoff_high")
    if n_payoffs < 1:
        raise ValueError("need at least one payoff")
    U = rng.uniform([[payoff_low], [0.0]], [[payoff_high], [1.0]],
                    size=(n_menus, 2, 2, n_payoffs))
    P = U[:, :, 1] / U[:, :, 1].sum(axis=-1, keepdims=True)
    return np.ascontiguousarray(U[:, :, 0]), P


def sample_random_menu(rng: np.random.Generator, n_payoffs: int,
                       payoff_low: float, payoff_high: float) -> Menu:
    """One menu of ``draw_menus``."""
    (Z,), (P,) = draw_menus(rng, 1, n_payoffs, payoff_low, payoff_high)
    return Menu(Lottery(Z[0], P[0]), Lottery(Z[1], P[1]))


class FosdOrder(enum.Enum):
    A_DOMINATES = "a_dominates"
    B_DOMINATES = "b_dominates"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def merge_payoff_grids(Z, tol: float = PAYOFF_MERGE_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Distinct sorted payoffs of each row of a payoff stack (R, ...), a
    value within ``tol`` of the last one kept merging into it: (grids,
    sizes).  Row r's grid is ``grids[r, :sizes[r]]``; +inf pads the rest."""
    values = np.sort(np.asarray(Z, dtype=float).reshape(len(Z), -1), axis=-1)
    keep = np.ones(values.shape, dtype=bool)
    last = values[:, 0]
    for j in range(1, values.shape[1]):
        keep[:, j] = values[:, j] - last > tol
        last = np.where(keep[:, j], values[:, j], last)
    grids = np.full(values.shape, np.inf)
    rows, _ = np.nonzero(keep)
    grids[rows, np.cumsum(keep, axis=1)[keep] - 1] = values[keep]
    return grids, keep.sum(axis=1)


def merge_payoff_grid(lotteries, tol: float = PAYOFF_MERGE_TOL) -> np.ndarray:
    """Distinct sorted payoffs across lotteries, merging values within tol."""
    grids, sizes = merge_payoff_grids(np.concatenate([l.payoffs for l in lotteries])[None],
                                      tol)
    return grids[0, :sizes[0]]


def grid_probs(Z, P, grids, tol: float = PAYOFF_MERGE_TOL) -> np.ndarray:
    """Probabilities (R, L, k) of lotteries (R, L, J) re-expressed over
    their row's grid, one of ``grids`` (R, k) padded with +inf.

    A payoff goes to the first grid value at or above it if that is within
    ``tol``, else to the one below; its probability is added to the value's
    in payoff order.
    """
    Z, P, grids = (np.asarray(v, dtype=float) for v in (Z, P, grids))
    R, L, J = Z.shape
    k = grids.shape[1]
    # Padded so that column i + 1 holds grid value i: the ends never match.
    padded = np.concatenate([np.full((R, 1), -np.inf), grids, np.full((R, 1), np.inf)],
                            axis=1)
    out = np.zeros((R, L, k))
    r, l = np.indices((R, L))
    for j in range(J):
        z = Z[:, :, j]
        i = (grids[:, None, :] < z[..., None]).sum(axis=-1)     # searchsorted, left
        above = np.abs(padded[r, i + 1] - z) <= tol
        below = np.abs(padded[r, i] - z) <= tol
        if not np.all(above | below):
            raise ValueError(f"payoff {z[~(above | below)][0]} not on merged grid")
        out[r, l, np.where(above, i, i - 1)] += P[:, :, j]
    return out


def probs_on_grid(lottery: Lottery, grid: np.ndarray,
                  tol: float = PAYOFF_MERGE_TOL) -> np.ndarray:
    """Re-express a lottery's probabilities over a merged payoff grid."""
    return grid_probs(lottery.payoffs[None, None], lottery.probs[None, None],
                      np.asarray(grid, dtype=float)[None], tol)[0, 0]


def fosd_compare(a: Lottery, b: Lottery, tol: float = PAYOFF_MERGE_TOL) -> FosdOrder:
    """First-order stochastic dominance on the merged payoff grid.

    ``a`` dominates iff its CDF is everywhere weakly below ``b``'s and strictly
    below somewhere.
    """
    grid = merge_payoff_grid([a, b], tol)
    cdf_a = np.cumsum(probs_on_grid(a, grid, tol))
    cdf_b = np.cumsum(probs_on_grid(b, grid, tol))
    diff = cdf_a - cdf_b
    a_weak = np.all(diff <= tol)
    b_weak = np.all(diff >= -tol)
    if a_weak and b_weak:
        return FosdOrder.EQUAL
    if a_weak:
        return FosdOrder.A_DOMINATES
    if b_weak:
        return FosdOrder.B_DOMINATES
    return FosdOrder.INCOMPARABLE


@dataclass(frozen=True)
class LotteryStats:
    expected_value: float
    variance: float
    skew: float
    payoff_range: float
    min_payoff: float
    max_payoff: float
    prob_range: float
    min_prob: float
    max_prob: float

    def as_array(self) -> np.ndarray:
        return np.array([self.expected_value, self.variance, self.skew,
                         self.payoff_range, self.min_payoff, self.max_payoff,
                         self.prob_range, self.min_prob, self.max_prob])


def lottery_stats(lottery: Lottery) -> LotteryStats:
    """Moments and range summaries under the lottery's distribution."""
    z, p = lottery.payoffs, lottery.probs
    ev = float(p @ z)
    var = float(p @ (z - ev) ** 2)
    if var < 1e-12:
        skew = 0.0
    else:
        skew = float(p @ (z - ev) ** 3) / var ** 1.5
    return LotteryStats(
        expected_value=ev,
        variance=var,
        skew=skew,
        payoff_range=float(z.max() - z.min()),
        min_payoff=float(z.min()),
        max_payoff=float(z.max()),
        prob_range=float(p.max() - p.min()),
        min_prob=float(p.min()),
        max_prob=float(p.max()),
    )


def run_rng(master_seed: int, run_index: int) -> np.random.Generator:
    """Per-run generator derived from (master seed, run index).

    Schedule-independent: the stream depends only on the pair, so parallel
    workers reproduce single-threaded output.
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(run_index,)))
