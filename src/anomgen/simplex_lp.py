"""Dense tableau simplex for the tiny LPs used by the verifier.

Solves   max c'x   s.t.  A x <= b,  x >= 0,  with b >= 0,

so the all-slack basis is feasible and a single primal phase suffices.  Bland's
rule guards against cycling.  A stack of problems of one size is pivoted at
once: each step takes one Bland pivot in every problem still running, and a
problem leaves the stack once it is solved, so every problem goes through
the same arithmetic as when it is solved alone, and its solution has the
same bytes.  Problem sizes here are at most ~15 variables and ~30 rows, and
bit-reproducibility matters more than speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EPS = 1e-12


class SimplexError(RuntimeError):
    pass


@dataclass
class LpSolution:
    """A stack's solutions, one entry per problem."""

    x: np.ndarray
    objective: np.ndarray
    iterations: np.ndarray


def solve_max(c, A, b, max_iter: int = 10_000) -> LpSolution:
    """Solve a stack of problems, A (R, m, n) with c (R, n) and b (R, m).
    Any problem of the stack that is unbounded, or still running after
    ``max_iter`` pivots, fails the whole call."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    R, m, n = A.shape
    if c.shape != (R, n) or b.shape != (R, m):
        raise ValueError("inconsistent LP dimensions")
    if np.any(b < -_EPS):
        raise SimplexError("negative right-hand side; initial basis infeasible")

    # Tableaux: [A | I | b] with the objective row [-c | 0 | 0] underneath.
    # ``T`` holds the problems still running, ``running`` their indices;
    # a problem leaves both once no column improves its objective.
    T = np.zeros((R, m + 1, n + m + 1))
    T[:, :m, :n] = A
    T[:, :m, n:n + m] = np.eye(m)
    T[:, :m, -1] = np.maximum(b, 0.0)
    T[:, m, :n] = -c
    basis = np.tile(np.arange(n, n + m), (R, 1))
    running = np.arange(R)
    x = np.empty((R, n + m))
    objective = np.empty(R)
    iterations = np.zeros(R, dtype=int)
    k = np.arange(R)

    for it in range(max_iter):
        entering = T[:, m, :-1] < -_EPS
        done = ~entering.any(axis=1)
        if done.any():
            finished = running[done]
            solved = np.zeros((finished.size, n + m))
            np.put_along_axis(solved, basis[done], T[done, :m, -1], axis=1)
            x[finished] = solved
            objective[finished] = T[done, m, -1]
            iterations[finished] = it
            T, basis, running, entering = (v[~done] for v in (T, basis, running, entering))
            if running.size == 0:
                break
            k = np.arange(running.size)
        col = entering.argmax(axis=1)  # Bland's rule: the first improving column
        pivots = T[k, :m, col]
        ratios = np.divide(T[:, :m, -1], pivots, out=np.full(pivots.shape, np.inf),
                           where=pivots > _EPS)
        best = ratios.min(axis=1, keepdims=True)
        if not np.isfinite(best).all():
            raise SimplexError("unbounded LP")
        # Bland tie-break: smallest basis index among minimal ratios.
        ties = np.abs(ratios - best) <= _EPS * (1 + np.abs(best))
        row = np.where(ties, basis, n + m).argmin(axis=1)
        # Eliminate the column from every row by one rank-1 update.  A row
        # with a zero in the column changes at most a -0.0 into 0.0: the tests
        # above compare against +-_EPS, and the right-hand sides, which start
        # at max(b, 0), hold no -0.0, so pivots and solution keep their bytes.
        pivot_row = T[k, row] / pivots[k, row][:, None]
        T -= T[k, :, col][:, :, None] * pivot_row[:, None, :]
        T[k, row] = pivot_row
        basis[k, row] = col
    if running.size:
        raise SimplexError("iteration limit reached")
    return LpSolution(x=x[:, :n], objective=objective, iterations=iterations)
