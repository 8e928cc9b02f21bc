"""The value of the verifier's LP over the probability simplex, in closed form.

For a stack of line sets T (R, m, n) the value of row r is

    v = min over lambda in the simplex of  max_l  sum_i lambda_i T[r, i, l],

the value of the game in which one player mixes the m rows and the other
picks a column.  The verifier decides collections of at most two menus, so
m is 1 or 2 and the LP needs no pivoting:

* m = 1: v is the largest entry, max_l T_1l;
* m = 2: with lambda = (1 - t, t), v is the lowest point, over t in [0, 1],
  of the upper envelope of the lines (1 - t) T_1l + t T_2l.  The envelope is
  convex and piecewise linear, so its minimum lies at t = 0, at t = 1 or
  where two lines cross.

Every step acts on each row on its own, so a value has the same bytes
whatever it is stacked with.  Entries padded onto a row leave its value's
bytes as they are if no padded entry can be the maximum: pad with a large
finite negative number, not -inf, whose crossings are NaN.
"""

from __future__ import annotations

import numpy as np


def simplex_value(T) -> np.ndarray:
    """v (R,) of the line sets T (R, m, n), m in {1, 2}."""
    T = np.asarray(T, dtype=float)
    if T.shape[1] == 1:
        return T[:, 0].max(axis=1)
    if T.shape[1] != 2:
        raise ValueError(f"closed form needs 1 or 2 rows of lines, got {T.shape[1]}")
    a, b = T[:, 0], T[:, 1]
    slope = b - a
    # Lines l < k cross where a_l + t s_l = a_k + t s_k.  Parallel lines
    # give inf or NaN and padded lines cross far outside [0, 1]; the range
    # test drops them.
    l, k = np.triu_indices(T.shape[2], 1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cross = (a[:, k] - a[:, l]) / (slope[:, l] - slope[:, k])
    cross = np.where((cross >= 0.0) & (cross <= 1.0), cross, 0.0)
    t = np.concatenate([np.zeros((len(T), 1)), np.ones((len(T), 1)), cross], axis=1)[:, :, None]
    return ((1.0 - t) * a[:, None] + t * b[:, None]).max(axis=2).min(axis=1)
