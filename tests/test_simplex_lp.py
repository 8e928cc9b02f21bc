import itertools
from fractions import Fraction

import numpy as np
import pytest

from anomgen import verifier
from anomgen.simplex_lp import simplex_value


def dual_value(lines) -> Fraction:
    """The exact value of one line set (m, n), m in {1, 2}, from the dual
    side of the minimax theorem: max over mixtures mu of the columns of
    min_i sum_l mu_l T_il, in Fractions of the stored floats.  With two rows
    the best mu is a pure column or mixes two columns l, k whose gaps
    d = T_1 - T_2 have opposite signs, at the weight that closes the gap."""
    rows = [[Fraction(float(x)) for x in row] for row in lines]
    if len(rows) == 1:
        return max(rows[0])
    a, b = rows
    best = max(min(al, bl) for al, bl in zip(a, b))
    for l, k in itertools.combinations(range(len(a)), 2):
        dl, dk = a[l] - b[l], a[k] - b[k]
        if dl * dk < 0:
            mu = dk / (dk - dl)
            best = max(best, mu * a[l] + (1 - mu) * a[k])
    return best


def random_lines(rng, count, m, n):
    """count line sets (m, n): half of normal floats, half of quarters in
    [-1, 1], which give exact ties, parallel lines and crossings at the ends
    of [0, 1]."""
    floats = rng.normal(size=(count - count // 2, m, n))
    quarters = rng.integers(-4, 5, size=(count // 2, m, n)) / 4
    return np.concatenate([floats, quarters])


class TestKnownValues:
    @pytest.mark.parametrize("T, v", [
        ([[-1.0, 3.0, 2.0]], 3.0),
        ([[2.0], [-1.0]], -1.0),
        ([[1.0, -1.0], [-1.0, 1.0]], 0.0),
        ([[-1.0, -2.0], [3.0, 1.0]], -1.0),
        ([[3.0, 1.0], [-2.0, -1.0]], -1.0),
        ([[0.0, 1.0], [1.0, 2.0]], 1.0),
        ([[2.0, 0.0, -1.0], [-2.0, 0.0, 3.0]], 0.5),
        ([[1.0, 1.0], [1.0, 1.0]], 1.0),
    ], ids=["one-row", "one-line", "cross-at-half", "min-at-0", "min-at-1",
            "parallel", "idle-middle-line", "equal-rows"])
    def test_hand_computed_value(self, T, v):
        assert simplex_value(np.array([T])).tolist() == [v]


class TestExactDual:
    @pytest.mark.parametrize("m, n", [(1, 1), (1, 5), (2, 1), (2, 2), (2, 3), (2, 8)])
    def test_value_matches_the_exact_dual(self, m, n):
        T = random_lines(np.random.default_rng(10 * m + n), 300, m, n)
        for lines, v in zip(T, simplex_value(T)):
            assert v == pytest.approx(float(dual_value(lines)), abs=1e-12), lines


class TestStacks:
    @pytest.mark.parametrize("m, n", [(1, 1), (2, 2), (2, 7)])
    def test_each_row_of_a_stack_has_the_bytes_of_its_own_value(self, m, n):
        T = random_lines(np.random.default_rng(m * 100 + n), 60, m, n)
        alone = np.concatenate([simplex_value(lines[None]) for lines in T])
        assert simplex_value(T).tobytes() == alone.tobytes()
        assert simplex_value(T[::-1]).tobytes() == alone[::-1].tobytes()

    def test_padding_never_wins_and_a_row_keeps_its_bytes_in_any_stack(self):
        rng = np.random.default_rng(8)
        T = rng.uniform(-1, 1, size=(40, 2, 5))
        alone = np.concatenate([simplex_value(row[None]) for row in T])
        padded = np.concatenate([T, np.full((40, 2, 7), verifier._PAD)], axis=-1)
        assert simplex_value(padded).tobytes() == alone.tobytes()
        assert simplex_value(T[:, :1]).tolist() == T[:, 0].max(axis=1).tolist()

    def test_one_row_stack_keeps_one_value(self):
        assert simplex_value(np.zeros((1, 2, 3))).shape == (1,)

    def test_empty_stack_gives_no_values(self):
        assert simplex_value(np.zeros((0, 2, 3))).shape == (0,)

    @pytest.mark.parametrize("m", [0, 3, 5])
    def test_other_row_counts_rejected(self, m):
        with pytest.raises(ValueError, match="1 or 2 rows"):
            simplex_value(np.zeros((1, m, 4)))


class TestShape:
    def test_two_rows_match_a_dense_scan_of_the_mixture(self):
        rng = np.random.default_rng(7)
        T = rng.normal(size=(500, 2, 6))
        t = np.linspace(0.0, 1.0, 4001)[:, None]
        scan = np.array([((1 - t) * a + t * b).max(axis=1).min() for a, b in T])
        v = simplex_value(T)
        # The scan's points are feasible mixtures: it bounds v from above,
        # by at most a line's slope times half the scan's step.
        assert np.all(v <= scan + 1e-15) and np.all(scan - v <= 4 / 4000)

    # Doubling is exact in floats, and permuting or duplicating columns
    # leaves the set of crossings as it is: the value keeps its bytes.
    @pytest.mark.parametrize("transform, expected", [
        (lambda T: 2.0 * T, lambda v: 2.0 * v),
        (lambda T: T[:, :, ::-1], lambda v: v),
        (lambda T: np.concatenate([T, T[:, :, :2]], axis=-1), lambda v: v),
    ], ids=["doubled", "columns-reversed", "columns-duplicated"])
    def test_exact_invariance(self, transform, expected):
        T = random_lines(np.random.default_rng(9), 200, 2, 4)
        assert simplex_value(transform(T)).tobytes() == expected(simplex_value(T)).tobytes()

    # Shifting every line moves the value by the shift; swapping the rows
    # maps t to 1 - t.  Both round differently.
    @pytest.mark.parametrize("transform, expected", [
        (lambda T: T + 0.3, lambda v: v + 0.3),
        (lambda T: T[:, ::-1], lambda v: v),
    ], ids=["shifted", "rows-swapped"])
    def test_invariance_up_to_rounding(self, transform, expected):
        T = random_lines(np.random.default_rng(11), 200, 2, 4)
        np.testing.assert_allclose(simplex_value(transform(T)), expected(simplex_value(T)),
                                   rtol=0, atol=1e-12)

    def test_a_second_row_never_raises_the_value(self):
        # Mixing in a second menu only adds choices to the minimizer.
        T = random_lines(np.random.default_rng(12), 300, 2, 5)
        both = simplex_value(T)
        assert np.all(both <= simplex_value(T[:, :1])) and np.all(both <= simplex_value(T[:, 1:]))

