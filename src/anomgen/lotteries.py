"""Lotteries, menus and simplex arithmetic, as arrays.

A menu is a pair of lotteries over J monetary payoffs.  A stack of menus is a
pair of (..., 2, J) payoff and probability arrays, lottery 0 first, and a
lottery is a (payoffs, probs) pair of J-vectors.  Choice models see a menu
through its canonical flattened coordinate vector ``(z0, p0, z1, p1)`` of
length 4J.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

# Payoffs closer than this are treated as the same monetary amount.
PAYOFF_MERGE_TOL = 1e-9
# A nonnegative vector whose sum is this close to 1 is on the simplex (up to
# accumulated rounding) and is stored as it is.
SIMPLEX_TOL = 64 * np.finfo(float).eps


def check_probs(P) -> None:
    """Raise unless each lottery (last axis) of ``P`` is a probability vector:
    finite, nonnegative within ``PAYOFF_MERGE_TOL`` and summing to 1 within
    1e-9.  The searches check their whole (R, 2, J) probability stacks
    here."""
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
    beyond ``PAYOFF_MERGE_TOL`` or not finite; their entries mean nothing,
    and no arithmetic touches a non-finite one, so none warns.
    """
    P = np.asarray(P, dtype=float)
    bad = ~np.isfinite(P).all(axis=-1)
    P = np.where(bad[..., None], 0.0, P)
    bad |= np.any(P < -PAYOFF_MERGE_TOL, axis=-1) | ~(np.abs(P.sum(axis=-1) - 1.0) <= 1e-6)
    P = np.clip(P, 0.0, None)
    total = P.sum(axis=-1, keepdims=True)
    np.divide(P, total, out=P, where=~(bad[..., None] | (np.abs(total - 1.0) <= SIMPLEX_TOL)))
    return P, bad


def flat_stack(Z: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Flat coordinates (..., 4J) of (..., 2, J) payoff and probability
    stacks, row by row."""
    Z, P = np.broadcast_arrays(Z, P)
    return np.stack([Z, P], axis=-2).reshape(*Z.shape[:-2], -1)


class Collection(NamedTuple):
    """A collection of m menus as a record holds it: payoffs ``Z`` and
    probabilities ``P`` (m, 2, J), lottery 0 first, and ``q`` (m,) the
    predicted probabilities of lottery 1."""

    Z: np.ndarray
    P: np.ndarray
    q: np.ndarray


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


def on_merged_grid(lotteries, tol: float = PAYOFF_MERGE_TOL) -> tuple[np.ndarray, list]:
    """The merged payoff grid of lotteries given as (payoffs, probs) vectors
    of any lengths, and each lottery's probabilities on it."""
    grids, sizes = merge_payoff_grids(np.concatenate([z for z, _ in lotteries])[None], tol)
    grid = grids[0, :sizes[0]]
    return grid, [grid_probs(z[None, None], p[None, None], grid[None], tol)[0, 0]
                  for z, p in lotteries]


def fosd_compare(a, b, tol: float = PAYOFF_MERGE_TOL) -> FosdOrder:
    """First-order stochastic dominance of lotteries ``a`` and ``b``, each a
    (payoffs, probs) pair, on the merged payoff grid.

    ``a`` dominates iff its CDF is everywhere weakly below ``b``'s and strictly
    below somewhere.
    """
    _, (pa, pb) = on_merged_grid([a, b], tol)
    diff = np.cumsum(pa) - np.cumsum(pb)
    a_weak = np.all(diff <= tol)
    b_weak = np.all(diff >= -tol)
    if a_weak and b_weak:
        return FosdOrder.EQUAL
    if a_weak:
        return FosdOrder.A_DOMINATES
    if b_weak:
        return FosdOrder.B_DOMINATES
    return FosdOrder.INCOMPARABLE


def lottery_stats(z: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Moments and range summaries of the lottery with payoffs ``z`` and
    probabilities ``p``: expected value, variance, skew, payoff range, min
    and max payoff, probability range, min and max probability."""
    ev = float(p @ z)
    var = float(p @ (z - ev) ** 2)
    skew = 0.0 if var < 1e-12 else float(p @ (z - ev) ** 3) / var ** 1.5
    return np.array([ev, var, skew, z.max() - z.min(), z.min(), z.max(),
                     p.max() - p.min(), p.min(), p.max()])


def run_rng(master_seed: int, run_index: int) -> np.random.Generator:
    """Per-run generator derived from (master seed, run index).

    Schedule-independent: the stream depends only on the pair, so parallel
    workers reproduce single-threaded output.
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(run_index,)))
