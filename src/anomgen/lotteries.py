"""Lotteries, menus and simplex arithmetic, as arrays.

A menu is a pair of lotteries over J monetary payoffs.  A stack of menus is a
pair of (..., 2, J) payoff and probability arrays, lottery 0 first, and a
lottery is a (payoffs, probs) pair of J-vectors.  Choice models see a menu
through its canonical flattened coordinate vector ``(z0, p0, z1, p1)`` of
length 4J.

Lotteries are compared over their merged payoff grid (``merge_payoff_grids``):
payoffs within ``PAYOFF_MERGE_TOL`` (1e-9) of the smallest amount of their
group are that amount, and their probability goes there.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Payoffs closer than this are treated as the same monetary amount.
PAYOFF_MERGE_TOL = 1e-9
# A nonnegative vector whose sum is this close to 1 is on the simplex (up to
# accumulated rounding) and is stored as it is.
SIMPLEX_TOL = 64 * np.finfo(float).eps


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
    # One stream for payoffs and probabilities, in the order of the uniform
    # draw with bounds broadcast over them, low + (high - low) u, which is
    # what Generator.uniform computes, without its broadcasting.
    U = rng.random((n_menus, 2, 2, n_payoffs))
    P = U[:, :, 1] / U[:, :, 1].sum(axis=-1, keepdims=True)
    return payoff_low + (payoff_high - payoff_low) * U[:, :, 0], P


def merge_payoff_grids(Z, P) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The merged payoff grid of each row of payoff and probability stacks
    (R, ..., J), and each lottery's probabilities on it: (grids, sizes, Q).

    A sorted payoff within ``PAYOFF_MERGE_TOL`` of the last one kept merges
    into it, and its probability, added in payoff order, goes with it.  Row
    r's grid is ``grids[r, :sizes[r]]`` and +inf pads the rest to the row's n
    payoffs; Q (R, ..., n) holds the lotteries' probabilities on it."""
    flat = Z.reshape(len(Z), -1)
    order = np.argsort(flat, axis=-1)
    values = np.take_along_axis(flat, order, axis=-1)
    keep = np.ones(values.shape, dtype=bool)
    last = np.full(len(values), -np.inf)
    for j in range(values.shape[1]):
        keep[:, j] = values[:, j] - last > PAYOFF_MERGE_TOL
        last = np.where(keep[:, j], values[:, j], last)
    slots = np.cumsum(keep, axis=1) - 1
    grids = np.full(values.shape, np.inf)
    grids[np.nonzero(keep)[0], slots[keep]] = values[keep]
    # Each payoff's slot, back in payoff order.
    slot = np.take_along_axis(slots, np.argsort(order, axis=1), axis=1).reshape(Z.shape)
    Q = np.zeros((*Z.shape[:-1], values.shape[1]))
    lottery = np.indices(Z.shape[:-1])
    for j in range(Z.shape[-1]):
        Q[(*lottery, slot[..., j])] += P[..., j]
    return grids, keep.sum(axis=1), Q


def on_merged_grid(lotteries) -> tuple[np.ndarray, np.ndarray]:
    """The merged payoff grid of lotteries given as (payoffs, probs) vectors
    of any lengths, and each lottery's probabilities on it, a row each: one
    merge of all their payoffs, each row zero on the other lotteries'."""
    z = np.concatenate([payoffs for payoffs, _ in lotteries])
    P = np.array([np.concatenate([probs * (i == row) for i, (_, probs) in enumerate(lotteries)])
                  for row in range(len(lotteries))])
    grids, sizes, Q = merge_payoff_grids(np.broadcast_to(z, P.shape)[None], P[None])
    return grids[0, :sizes[0]], Q[0, :, :sizes[0]]


def fosd_dominates(a, b) -> bool:
    """Whether lottery ``a`` first-order stochastically dominates lottery
    ``b``, each a (payoffs, probs) pair: on the merged payoff grid, ``a``'s
    CDF is everywhere weakly below ``b``'s and strictly below somewhere, both
    within ``PAYOFF_MERGE_TOL``."""
    _, (pa, pb) = on_merged_grid([a, b])
    diff = np.cumsum(pa) - np.cumsum(pb)
    return bool(np.all(diff <= PAYOFF_MERGE_TOL) and np.any(diff < -PAYOFF_MERGE_TOL))


def lottery_stats(z: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Moments and range summaries of the lottery with payoffs ``z`` and
    probabilities ``p``: expected value, variance, skew, payoff range, min
    and max payoff, probability range, min and max probability.  A moment is
    the ``math.fsum`` of elementwise products: no BLAS or SIMD kernel moves it."""
    ev = math.fsum(p * z)
    d = z - ev
    var = math.fsum(p * d * d)
    skew = 0.0 if var < 1e-12 else math.fsum(p * d * d * d) / var ** 1.5
    return np.array([ev, var, skew, z.max() - z.min(), z.min(), z.max(),
                     p.max() - p.min(), p.min(), p.max()])


def run_rng(master_seed: int, run_index: int) -> np.random.Generator:
    """Per-run generator derived from (master seed, run index).

    Schedule-independent: the stream depends only on the pair, so parallel
    workers reproduce single-threaded output.
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(run_index,)))


def index_block(cfg, indices, n_menus: int):
    """Runs ``indices`` of the pipeline config ``cfg``, each addressed by
    (``cfg.seed``, run index), stacked together: their menus' (R, n_menus,
    2, J) payoff and probability stacks, drawn with ``cfg.n_payoffs``
    payoffs over the theory basis's domain (``draw_menus``) from each run's
    generator ``run_rng``.  No indices give empty stacks, which every
    generator maps to no records."""
    Z = np.empty((len(indices), n_menus, 2, cfg.n_payoffs))
    P = np.empty_like(Z)
    for r, i in enumerate(indices):
        Z[r], P[r] = draw_menus(run_rng(cfg.seed, i), n_menus, cfg.n_payoffs,
                                *cfg.theory_basis["domain"])
    return Z, P

