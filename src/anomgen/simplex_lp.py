"""Dense tableau simplex for the tiny LPs used by the verifier.

Solves   max c'x   s.t.  A x <= b,  x >= 0,  with b >= 0,

so the all-slack basis is feasible and a single primal phase suffices.  Bland's
rule guards against cycling.  Problem sizes here are at most ~15 variables and
~30 rows, and bit-reproducibility matters more than speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EPS = 1e-12


class SimplexError(RuntimeError):
    pass


@dataclass
class LpSolution:
    x: np.ndarray
    objective: float
    iterations: int


def solve_max(c, A, b, max_iter: int = 10_000) -> LpSolution:
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    if c.shape != (n,) or b.shape != (m,):
        raise ValueError("inconsistent LP dimensions")
    if np.any(b < -_EPS):
        raise SimplexError("negative right-hand side; initial basis infeasible")

    # Tableau: [A | I | b] with the objective row [-c | 0 | 0] underneath.
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = np.maximum(b, 0.0)
    T[m, :n] = -c
    basis = list(range(n, n + m))

    for it in range(max_iter):
        candidates = np.nonzero(T[m, :-1] < -_EPS)[0]
        if candidates.size == 0:
            x = np.zeros(n + m)
            x[basis] = T[:m, -1]
            return LpSolution(x=x[:n], objective=float(T[m, -1]), iterations=it)
        col = int(candidates.min())  # Bland's rule
        ratios = np.full(m, np.inf)
        positive = T[:m, col] > _EPS
        ratios[positive] = T[:m, -1][positive] / T[:m, col][positive]
        if not np.any(np.isfinite(ratios)):
            raise SimplexError("unbounded LP")
        row = int(np.argmin(ratios))
        best = ratios[row]
        # Bland tie-break: smallest basis index among minimal ratios.
        ties = np.nonzero(np.abs(ratios - best) <= _EPS * (1 + abs(best)))[0]
        if ties.size > 1:
            row = int(min(ties, key=lambda r: basis[r]))
        T[row] /= T[row, col]
        # Eliminate the column from every row by one rank-1 update.  A row
        # with a zero in the column changes at most a -0.0 into 0.0: the tests
        # above compare against +-_EPS, and the right-hand sides, which start
        # at max(b, 0), hold no -0.0, so pivots and solution keep their bytes.
        pivot_row = T[row].copy()
        T -= np.outer(T[:, col], pivot_row)
        T[row] = pivot_row
        basis[row] = col
    raise SimplexError("iteration limit reached")
