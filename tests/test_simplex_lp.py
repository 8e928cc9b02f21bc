import numpy as np
import pytest

from anomgen.simplex_lp import LpSolution, SimplexError, solve_max
from conftest import reference_solve_max


def _stack(problems):
    return [np.array(v) for v in zip(*problems)]


def solve_one(c, A, b, **kwargs) -> LpSolution:
    """The solution of one problem, solved as a stack of one."""
    sol = solve_max(*_stack([(c, A, b)]), **kwargs)
    return LpSolution(sol.x[0], sol.objective[0], sol.iterations[0])


def brute_force_box_grid(c, A, b, resolution=60):
    """Grid search over [0, ub]^n as an independent LP oracle."""
    n = len(c)
    # Upper bounds per coordinate implied by single-variable feasibility.
    ubs = []
    for j in range(n):
        col = A[:, j]
        pos = col > 1e-12
        ubs.append(min((b[pos] / col[pos]).min() if pos.any() else 5.0, 5.0))
    axes = [np.linspace(0, ub, resolution) for ub in ubs]
    best = -np.inf
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    feasible = np.all(pts @ A.T <= b + 1e-9, axis=1)
    if feasible.any():
        best = (pts[feasible] @ c).max()
    return best


class TestSolveMax:
    def test_textbook_instance(self):
        # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18
        sol = solve_one([3, 5], [[1, 0], [0, 2], [3, 2]], [4, 12, 18])
        assert sol.objective == pytest.approx(36)
        np.testing.assert_allclose(sol.x, [2, 6], atol=1e-9)

    def test_degenerate_objective(self):
        sol = solve_one([0, 0], [[1, 1]], [1])
        assert sol.objective == pytest.approx(0)

    def test_binding_box(self):
        sol = solve_one([1, 1], [[1, 0], [0, 1]], [2, 3])
        assert sol.objective == pytest.approx(5)

    def test_unbounded_detected(self):
        with pytest.raises(SimplexError, match="unbounded"):
            solve_one([1], np.array([[-1.0]]), np.array([1.0]))

    def test_negative_rhs_rejected(self):
        with pytest.raises(SimplexError):
            solve_one([1], np.array([[1.0]]), np.array([-1.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_one([1, 2], np.array([[1.0]]), np.array([1.0]))

    def test_agrees_with_grid_oracle_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            n, m = rng.integers(1, 4), rng.integers(1, 5)
            A = rng.uniform(0.1, 2.0, size=(m, n))
            b = rng.uniform(0.5, 3.0, size=m)
            c = rng.uniform(-1.0, 2.0, size=n)
            sol = solve_one(c, A, b)
            grid = brute_force_box_grid(c, A, b)
            assert sol.objective >= grid - 0.15   # grid undershoots by mesh size
            assert np.all(A @ sol.x <= b + 1e-9)
            assert np.all(sol.x >= -1e-12)

    def test_solution_feasibility_is_tight(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n, m = rng.integers(1, 6), rng.integers(1, 8)
            A = rng.uniform(0.05, 1.5, size=(m, n))
            b = rng.uniform(0.2, 2.5, size=m)
            c = rng.uniform(0.0, 1.0, size=n)
            sol = solve_one(c, A, b)
            # Optimality spot check: no single-coordinate increase is feasible.
            for j in range(n):
                if c[j] <= 1e-12:
                    continue
                slack = b - A @ sol.x
                room = np.min(slack / np.maximum(A[:, j], 1e-12))
                assert room < 1e-6

    def test_rank_one_pivot_matches_row_loop(self):
        # Exact zeros of both signs in A, b and c, where the rank-1 update and
        # the row loop differ in the sign of a zero inside the tableau.
        rng = np.random.default_rng(2)
        for _ in range(400):
            n, m = rng.integers(1, 8), rng.integers(1, 12)
            A = rng.normal(0.3, 1.0, size=(m, n))
            A[rng.random(A.shape) < 0.3] = 0.0
            A[rng.random(A.shape) < 0.2] = -0.0
            b = rng.uniform(0.0, 2.0, size=m)
            b[rng.random(m) < 0.2] = 0.0
            b[rng.random(m) < 0.2] = -0.0
            c = rng.normal(0.2, 1.0, size=n)
            c[rng.random(n) < 0.3] = -0.0
            try:
                x, objective, iterations = reference_solve_max(c, A, b)
            except RuntimeError:
                with pytest.raises(SimplexError):
                    solve_one(c, A, b)
                continue
            sol = solve_one(c, A, b)
            assert sol.x.tobytes() == x.tobytes()
            assert (sol.objective, sol.iterations) == (objective, iterations)


def _assert_matches_reference(sol, problems):
    """Each problem of a stacked solve has the bytes of its reference solve."""
    for r, (c, A, b) in enumerate(problems):
        x, objective, iterations = reference_solve_max(c, A, b)
        assert sol.x[r].tobytes() == x.tobytes()
        assert np.float64(sol.objective[r]).tobytes() == np.float64(objective).tobytes()
        assert sol.iterations[r] == iterations


def _random_problems(rng, count, m, n):
    """The sign-mixed problems of ``test_rank_one_pivot_matches_row_loop``,
    of one size, that the row-loop reference solves."""
    problems = []
    while len(problems) < count:
        A = rng.normal(0.3, 1.0, size=(m, n))
        A[rng.random(A.shape) < 0.3] = 0.0
        A[rng.random(A.shape) < 0.2] = -0.0
        b = rng.uniform(0.0, 2.0, size=m)
        b[rng.random(m) < 0.2] = 0.0
        b[rng.random(m) < 0.2] = -0.0
        c = rng.normal(0.2, 1.0, size=n)
        c[rng.random(n) < 0.3] = -0.0
        try:
            reference_solve_max(c, A, b)
        except RuntimeError:
            continue
        problems.append((c, A, b))
    return problems


# A ratio tie at the second pivot whose smallest basic index is not in the
# first minimal row: Bland's rule solves it in 2 pivots, the first minimal
# row would take 3.
BLAND_TIE = ([1.0, 2.0], [[1.0, 1.0], [2.0, 1.0], [2.0, 0.0]], [1.0, 1.0, 1.0])


class TestStackedSolveMax:
    @pytest.mark.parametrize("m, n", [(1, 1), (3, 2), (7, 3), (11, 7)])
    def test_each_problem_of_a_stack_matches_its_own_solve(self, m, n):
        problems = _random_problems(np.random.default_rng(m * 100 + n), 60, m, n)
        sol = solve_max(*_stack(problems))
        _assert_matches_reference(sol, problems)
        if m > 1:
            assert len(set(sol.iterations.tolist())) > 1      # mixed pivot counts

    def test_bland_tie_in_a_stack(self):
        problems = [BLAND_TIE] + _random_problems(np.random.default_rng(5), 5, 3, 2)
        _assert_matches_reference(solve_max(*_stack(problems)), problems)
        assert solve_one(*BLAND_TIE).iterations == 2

    def test_one_problem_stack_keeps_one_solution_per_problem(self):
        stacked = solve_max(*_stack([BLAND_TIE]))
        assert stacked.x.shape == (1, 2) and stacked.iterations.shape == (1,)
        assert stacked.objective.shape == (1,)
        _assert_matches_reference(stacked, [BLAND_TIE])

    def test_two_dimensional_problem_rejected(self):
        with pytest.raises(ValueError):
            solve_max(*BLAND_TIE)

    def test_an_unbounded_problem_fails_the_stack(self):
        problems = [([1.0], [[1.0]], [1.0]), ([1.0], [[-1.0]], [1.0]), ([1.0], [[2.0]], [1.0])]
        with pytest.raises(SimplexError, match="^unbounded LP$"):
            solve_max(*_stack(problems))

    def test_a_problem_at_the_iteration_limit_fails_the_stack(self):
        # The textbook instance takes more pivots than the others.
        problems = [([3.0, 5.0], [[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]], [4.0, 12.0, 18.0]),
                    ([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 1.0, 1.0])]
        iterations = solve_max(*_stack(problems)).iterations
        assert iterations.tolist() == [reference_solve_max(*p)[2] for p in problems]
        solve_max(*_stack(problems), max_iter=int(iterations.max()) + 1)
        with pytest.raises(SimplexError, match="^iteration limit reached$"):
            solve_max(*_stack(problems), max_iter=int(iterations.max()))

    def test_stacked_dimensions_checked(self):
        with pytest.raises(ValueError):
            solve_max(np.ones((2, 2)), np.ones((2, 3, 2)), np.ones((1, 3)))
