import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomgen.lotteries import (FosdOrder, check_probs, draw_menus, flat_stack, fosd_compare,
                               lottery_stats, on_merged_grid, project_to_simplex, run_rng)
from anomgen.records import parse_menus, read_menus
from conftest import flat, lottery, menu, menu_json, sample_random_menu, stack


class TestMakeLottery:
    """A lottery as a record's menus are read (``conftest.lottery``)."""

    def test_degenerate(self):
        z, p = lottery([5], [1.0])
        assert z.tolist() == [5.0]
        assert p.tolist() == [1.0]

    def test_certainty_effect_lottery(self):
        _, p = lottery([4000, 0], [0.8, 0.2])
        assert p.sum() == 1.0

    def test_renormalizes_within_tolerance(self):
        _, p = lottery([1, 2], [0.5, 0.5 + 5e-7])
        assert p.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="simplex"):
            lottery([1, 2], [0.5, 0.6])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            lottery([1, 2, 3], [0.5, 0.5])

    def test_rejects_negative_prob(self):
        with pytest.raises(ValueError):
            lottery([1, 2], [-0.1, 1.1])

    def test_rejects_nonfinite_payoff(self):
        with pytest.raises(ValueError):
            lottery([np.inf, 2], [0.5, 0.5])


class TestSimplexProjection:
    def test_already_on_simplex(self):
        np.testing.assert_allclose(project_to_simplex([0.3, 0.7]), [0.3, 0.7])

    def test_symmetric_point(self):
        np.testing.assert_allclose(project_to_simplex([0.8, 0.8]), [0.5, 0.5])

    def test_clipping_case_against_grid_search(self):
        # Dense grid over the 1-simplex as the independent nearest-point oracle.
        v = np.array([1.5, -0.5])
        grid = np.linspace(0, 1, 200001)
        pts = np.stack([grid, 1 - grid], axis=1)
        best = pts[np.argmin(((pts - v) ** 2).sum(axis=1))]
        np.testing.assert_allclose(project_to_simplex(v), best, atol=1e-5)
        np.testing.assert_allclose(project_to_simplex(v), [1.0, 0.0], atol=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            project_to_simplex(np.array([]))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=6))
    def test_valid_and_idempotent(self, values):
        p = project_to_simplex(values)
        assert np.all(p >= 0)
        assert abs(p.sum() - 1) < 1e-12
        np.testing.assert_array_equal(project_to_simplex(p), p)


def project_one(v):
    """Reference: the sort-based projection of one vector, one step at a time."""
    v = np.asarray(v, dtype=float)
    if np.all(v >= 0.0) and abs(v.sum() - 1.0) <= 64 * np.finfo(float).eps:
        return v.copy()
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    rho = idx[u - css / idx > 0][-1]
    return np.maximum(v - css[rho - 1] / rho, 0.0)


class TestStackedProjection:
    def test_rows_equal_one_vector_projections(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 3, 5):
            V = rng.normal(0.3, 0.8, size=(200, n))
            V[::7] = rng.dirichlet(np.ones(n), size=V[::7].shape[0])   # on the simplex
            V[3::11, 0] = 0.0
            out = project_to_simplex(V)
            np.testing.assert_array_equal(out, [project_one(v) for v in V])
            np.testing.assert_array_equal(project_to_simplex(V.reshape(40, 5, n)),
                                          out.reshape(40, 5, n))


class TestCheckProbs:
    @pytest.mark.parametrize("bad, match", [
        ([[0.5, 0.5], [np.nan, 1.0]], "non-finite"),
        ([[0.5, 0.5], [1.1, -0.1]], "negative"),
        ([[0.5, 0.5], [0.6, 0.5]], "sum to"),
        ([[0.5, 0.5], [np.inf, 0.0]], "sum to"),
    ])
    @pytest.mark.filterwarnings("error")
    def test_rejects_what_a_lottery_rejects(self, bad, match):
        with pytest.raises(ValueError, match=match):
            check_probs(np.array(bad))
        # The records' rule rejects the same vector.
        X = parse_menus([menu_json((np.zeros((2, 2)), np.array(bad)))])
        _, _, faults = read_menus(X[None])
        assert dict(faults)["probabilities not within 1e-6 of the simplex"][0]

    def test_accepts_rounding_and_empty_stacks(self):
        check_probs(np.array([[0.3, 0.7 + 1e-12], [1.0, -1e-10]]))
        check_probs(np.zeros((0, 2, 2)))


class TestSampling:
    def test_seed_determinism(self):
        m1 = sample_random_menu(np.random.default_rng(42), 2, 0, 10)
        m2 = sample_random_menu(np.random.default_rng(42), 2, 0, 10)
        np.testing.assert_array_equal(flat(m1), flat(m2))

    def test_payoff_mean_matches_uniform(self):
        rng = np.random.default_rng(7)
        payoffs = [sample_random_menu(rng, 2, 0, 10)[0][0] for _ in range(10_000)]
        mean = np.mean(payoffs)
        assert 4.8 <= mean <= 5.2

    def test_normalized_probability_means(self):
        # Monte-Carlo check for the normalized-uniform distribution with J=3.
        rng = np.random.default_rng(11)
        probs = np.array([sample_random_menu(rng, 3, 0, 10)[1][1] for _ in range(10_000)])
        assert np.all(probs.mean(axis=0) > 0.31)
        assert np.all(probs.mean(axis=0) < 0.36)

    def test_simplex_feasibility(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            _, P = sample_random_menu(rng, 3, 0, 10)
            assert abs(P[0].sum() - 1) < 1e-12
            assert abs(P[1].sum() - 1) < 1e-12

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            sample_random_menu(np.random.default_rng(0), 2, 5, 5)

    @pytest.mark.parametrize("J", [1, 2, 3, 5, 9])
    def test_one_draw_equals_a_draw_per_vector(self, J):
        # One array draw of a run's menus reads the stream and gives the bits
        # of drawing each payoff and probability vector by its own call.
        for seed in range(50):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            Z, P = draw_menus(rng, 3, J, 0.5, 9.5)
            for m in range(3):
                for k in range(2):
                    z = ref.uniform(0.5, 9.5, size=J)
                    p = ref.uniform(0.0, 1.0, size=J)
                    assert Z[m, k].tobytes() == z.tobytes()
                    assert P[m, k].tobytes() == (p / p.sum()).tobytes()
            assert rng.random() == ref.random()


def _cdf_compare_oracle(a, b):
    """Direct CDF comparison on the merged grid."""
    grid, _ = on_merged_grid([a, b])
    cdf = lambda lot: np.array([lot[1][lot[0] <= t + 1e-9].sum() for t in grid])
    da, db = cdf(a), cdf(b)
    a_weak = np.all(da <= db + 1e-9)
    b_weak = np.all(db <= da + 1e-9)
    if a_weak and b_weak:
        return FosdOrder.EQUAL
    if a_weak:
        return FosdOrder.A_DOMINATES
    if b_weak:
        return FosdOrder.B_DOMINATES
    return FosdOrder.INCOMPARABLE


class TestFosd:
    def test_higher_certain_payoff(self):
        assert fosd_compare(lottery([10], [1]), lottery([5], [1])) \
            is FosdOrder.A_DOMINATES

    def test_component_lottery_dominates_degenerate(self):
        a = lottery([5.04, 5.81], [0.96, 0.04])
        b = lottery([4.63], [1.0])
        assert fosd_compare(a, b) is FosdOrder.A_DOMINATES
        assert _cdf_compare_oracle(a, b) is FosdOrder.A_DOMINATES

    def test_crossing_cdfs_incomparable(self):
        a = lottery([6.17, 8.51], [0.79, 0.21])
        b = lottery([4.30, 8.51], [0.66, 0.34])
        assert fosd_compare(a, b) is FosdOrder.INCOMPARABLE
        assert _cdf_compare_oracle(a, b) is FosdOrder.INCOMPARABLE

    def test_agrees_with_cdf_oracle_on_random_lotteries(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            (z0, z1), (p0, p1) = sample_random_menu(rng, 2, 0, 10)
            assert fosd_compare((z0, p0), (z1, p1)) is _cdf_compare_oracle((z0, p0), (z1, p1))

    def test_antisymmetric(self):
        rng = np.random.default_rng(1)
        flip = {FosdOrder.A_DOMINATES: FosdOrder.B_DOMINATES,
                FosdOrder.B_DOMINATES: FosdOrder.A_DOMINATES,
                FosdOrder.EQUAL: FosdOrder.EQUAL,
                FosdOrder.INCOMPARABLE: FosdOrder.INCOMPARABLE}
        for _ in range(100):
            (z0, z1), (p0, p1) = sample_random_menu(rng, 2, 0, 10)
            assert fosd_compare((z1, p1), (z0, p0)) is flip[fosd_compare((z0, p0), (z1, p1))]

    def test_invariant_to_payoff_splitting(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            (z0, z1), (p0, p1) = sample_random_menu(rng, 2, 0, 10)
            a, b = (z0, p0), (z1, p1)
            # Split a's first payoff into two equal payoffs with halved mass.
            split = (np.concatenate([[z0[0]], z0]),
                     np.concatenate([[p0[0] / 2], [p0[0] / 2], p0[1:]]))
            assert fosd_compare(split, b) is fosd_compare(a, b)


class TestLotteryStats:
    # The vector's order: expected value, variance, skew, payoff range, ...
    def test_degenerate(self):
        s = lottery_stats(*lottery([5], [1.0]))
        assert tuple(s[:4]) == (5, 0, 0, 0)

    def test_symmetric_two_point(self):
        s = lottery_stats(*lottery([0, 10], [0.5, 0.5]))
        assert s[0] == pytest.approx(5)
        assert s[1] == pytest.approx(25)
        assert s[2] == pytest.approx(0, abs=1e-12)

    def test_ternary_expected_value(self):
        s = lottery_stats(*lottery([4.30, 6.17, 8.51], [0.15, 0.61, 0.24]))
        assert s[0] == pytest.approx(6.45, abs=0.01)


class TestMenu:
    def test_flatten_roundtrip(self):
        (z0, z1), (p0, p1) = m = sample_random_menu(np.random.default_rng(0), 3, 0, 10)
        Z, P = stack([m])
        np.testing.assert_array_equal(flat_stack(Z, P)[0], np.concatenate([z0, p0, z1, p1]))

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            menu(lottery([1], [1.0]), lottery([1, 2], [0.5, 0.5]))
        # A record's menu whose lotteries differ in J does not parse.
        with pytest.raises(ValueError):
            parse_menus([{"lottery0": {"payoffs": [1.0], "probs": [1.0]},
                          "lottery1": {"payoffs": [1.0, 2.0], "probs": [0.5, 0.5]}}])

    def test_json_roundtrip_full_precision(self):
        m = sample_random_menu(np.random.default_rng(5), 2, 0, 10)
        (Z,), (P,), _ = read_menus(parse_menus([menu_json(m)])[None])
        np.testing.assert_array_equal(flat_stack(Z, P)[0], flat(m))


class TestRunRng:
    def test_schedule_independence(self):
        a = [run_rng(99, i).random() for i in range(5)]
        b = [run_rng(99, i).random() for i in reversed(range(5))]
        assert a == b[::-1]
