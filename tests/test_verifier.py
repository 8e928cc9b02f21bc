from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomgen import simplex_lp, verifier
from anomgen.basis import PolynomialBasis
from anomgen.categorize import categorize
from anomgen.lotteries import Collection, fosd_dominates, implied_choices, on_merged_grid
from anomgen.verifier import minimal_anomaly, verify_collection, verify_parametrized
from conftest import (collection, lottery, menu, probs_on_grid, reference_margin_lp,
                      sample_random_menu, stack, swapped, verify_menus)


def lotteries_of(menus) -> list:
    return [(z, p) for Z, P in menus for z, p in zip(Z, P)]


def grid_consistent(menus, choices, steps=200, strictness=1e-6):
    """Brute-force scan over normalized increasing utility vectors.

    Grid-consistent means some utility on the grid satisfies every strict
    inequality with slack above ``strictness``; this one-sidedly implies the
    LP verdict must be consistent.
    """
    grid, _ = on_merged_grid(lotteries_of(menus))
    k = grid.size
    assert k <= 4
    diffs = []
    for (Z, P), y in zip(menus, choices):
        diffs.append(probs_on_grid((Z[y], P[y]), grid) - probs_on_grid((Z[1 - y], P[1 - y]), grid))
    diffs = np.array(diffs)
    ticks = np.linspace(0.0, 1.0, steps + 1)
    if k == 2:
        interior = np.empty((1, 0))
    elif k == 3:
        interior = ticks[:, None]
    else:
        a, b = np.meshgrid(ticks, ticks, indexing="ij")
        interior = np.stack([a.ravel(), b.ravel()], axis=1)
    us = np.concatenate([np.zeros((interior.shape[0], 1)), interior,
                         np.ones((interior.shape[0], 1))], axis=1)
    increasing = np.all(np.diff(us, axis=1) > strictness, axis=1)
    us = us[increasing]
    if us.shape[0] == 0:
        return False
    sat = np.all(us @ diffs.T > strictness, axis=1)
    return bool(sat.any())


def _reprob(menu, rng):
    """Same payoffs, fresh random probabilities."""
    Z, _ = menu
    P = rng.uniform(0, 1, size=Z.shape)
    return Z, P / P.sum(axis=-1, keepdims=True)


class TestImpliedChoices:
    def test_threshold_and_tie(self):
        m = sample_random_menu(np.random.default_rng(0), 2, 0, 10)
        coll = collection([m, m, m], [0.311, 0.5, 0.8])
        np.testing.assert_array_equal(implied_choices(coll.q), [0, 1, 1])


class TestVerifyIncreasingUtility:
    def test_allais_inconsistent_with_consistent_singletons(self, allais_menus):
        menu_a, menu_b = allais_menus
        pair = verify_menus([menu_a, menu_b], [0, 1])
        assert not pair.consistent
        assert verify_menus([menu_a], [0]).consistent
        assert verify_menus([menu_b], [1]).consistent

    def test_certainty_effect_inconsistent(self, certainty_menus):
        menu_a, menu_b = certainty_menus
        assert not verify_menus([menu_a, menu_b], [1, 0]).consistent
        assert verify_menus([menu_a], [1]).consistent
        assert verify_menus([menu_b], [0]).consistent

    def test_single_undominated_choice_consistent_with_margin(self):
        m = menu(lottery([2, 8], [0.5, 0.5]), lottery([1, 9], [0.4, 0.6]))
        for choice in (0, 1):
            res = verify_menus([m], [choice])
            assert res.consistent and res.margin > 1e-6
            # Witness satisfies all constraints it claims to.
            assert np.all(np.diff(res.witness_utility) > 0)

    def test_dominated_single_choice_inconsistent(self):
        m = menu(lottery([5], [1.0]), lottery([6], [1.0]))
        assert not verify_menus([m], [0]).consistent
        assert verify_menus([m], [1]).consistent

    def test_menu_order_invariance(self, allais_menus):
        menu_a, menu_b = allais_menus
        r1 = verify_menus([menu_a, menu_b], [0, 1])
        r2 = verify_menus([menu_b, menu_a], [1, 0])
        assert r1.consistent == r2.consistent
        assert r1.margin == pytest.approx(r2.margin, abs=1e-9)

    def test_lottery_relabel_with_flipped_choice_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            menus = [sample_random_menu(rng, 2, 0, 10) for _ in range(2)]
            choices = rng.integers(0, 2, size=2)
            r1 = verify_menus(menus, choices)
            r2 = verify_menus([swapped(m) for m in menus], 1 - choices)
            assert r1.consistent == r2.consistent
            assert r1.margin == pytest.approx(r2.margin, abs=1e-9)

    def test_affine_payoff_rescale_invariance(self, certainty_menus):
        def rescale(menu):
            return menu[0] * 0.003 + 1.0, menu[1]
        menu_a, menu_b = certainty_menus
        r1 = verify_menus([menu_a, menu_b], [1, 0])
        r2 = verify_menus([rescale(menu_a), rescale(menu_b)], [1, 0])
        assert r1.consistent == r2.consistent
        assert r1.margin == pytest.approx(r2.margin, abs=1e-9)

    def test_margin_monotone_in_collection_size(self):
        # On a shared payoff grid (the pipeline case: probabilities morph,
        # payoffs stay), adding menus only adds constraints.
        rng = np.random.default_rng(2)
        for _ in range(20):
            base = sample_random_menu(rng, 2, 0, 10)
            menus = [base] + [_reprob(base, rng) for _ in range(2)]
            choices = rng.integers(0, 2, size=3)
            m1 = verify_menus(menus[:1], choices[:1]).margin
            m2 = verify_menus(menus[:2], choices[:2]).margin
            m3 = verify_menus(menus, choices).margin
            assert m1 >= m2 - 1e-9
            assert m2 >= m3 - 1e-9

    def test_agrees_with_grid_oracle(self):
        # Grid-consistent instances must never be declared inconsistent.
        rng = np.random.default_rng(3)
        checked = disagreements = 0
        for _ in range(300):
            base = sample_random_menu(rng, 2, 0, 10)
            menus = [base, _reprob(base, rng)]
            choices = rng.integers(0, 2, size=2)
            lp = verify_menus(menus, choices)
            if grid_consistent(menus, choices):
                checked += 1
                disagreements += not lp.consistent
        assert checked > 100
        assert disagreements == 0

    def test_size_limit(self):
        rng = np.random.default_rng(4)
        menus = [sample_random_menu(rng, 2, 0, 10) for _ in range(9)]
        with pytest.raises(ValueError):
            verify_menus(menus, [0] * 9)

    def test_degenerate_single_payoff(self):
        m = menu(lottery([5.0], [1.0]), lottery([5.0], [1.0]))
        res = verify_menus([m], [1])
        assert res.consistent and res.margin == 0.0 and res.witness_utility is None

    def test_payoff_count_checked_before_the_lp(self, monkeypatch):
        def no_lp(*args):
            raise AssertionError("LP solved for a collection over the payoff limit")

        monkeypatch.setattr(simplex_lp, "solve_max", no_lp)
        menus = [menu(lottery([4 * i, 4 * i + 1], [0.5, 0.5]),
                      lottery([4 * i + 2, 4 * i + 3], [0.5, 0.5])) for i in range(4)]
        with pytest.raises(ValueError, match="16 distinct payoffs"):
            verify_menus(menus, [0, 1, 0, 1])


@st.composite
def lp_collections(draw):
    """Menus over J in {2, 3} payoffs drawn from one pool of at most 12
    values, integers (shared between lotteries) mixed with fresh floats, and
    probabilities with exact zeros; one choice per menu."""
    J = draw(st.sampled_from([2, 3]))
    pool = draw(st.lists(st.one_of(st.integers(0, 10).map(float), st.floats(0, 10)),
                         min_size=2, max_size=12, unique=True))
    payoffs = st.lists(st.sampled_from(pool), min_size=J, max_size=J)
    weights = st.lists(st.integers(0, 4), min_size=J, max_size=J).filter(any)

    def drawn_lottery():
        w = np.array(draw(weights), dtype=float)
        return lottery(draw(payoffs), w / w.sum())

    menus = [menu(drawn_lottery(), drawn_lottery()) for _ in range(draw(st.integers(1, 4)))]
    return menus, np.array(draw(st.lists(st.integers(0, 1), min_size=len(menus),
                                         max_size=len(menus))))


class TestMarginLpArrays:
    """The LP built as one matrix and pivoted by rank-1 updates has the bytes
    of the LP built and pivoted row by row, signed zeros included, and so
    have its margin and witness."""

    @settings(max_examples=300, deadline=None)
    @given(lp_collections())
    def test_margin_and_witness_match_row_by_row(self, drawn):
        menus, choices = drawn
        grid, _ = on_merged_grid(lotteries_of(menus))
        if grid.size < 2:
            return
        solve, built = simplex_lp.solve_max, []

        def recording(*lp):
            built.append(lp)
            return solve(*lp)

        Q = np.array([[probs_on_grid(lot, grid) for lot in zip(Z, P)] for Z, P in menus])
        with mock.patch.object(simplex_lp, "solve_max", recording):
            (margin,), (witness,) = verifier._margin_lp(Q[None], choices[None])
        ref_margin, ref_witness, ref_lp = reference_margin_lp(menus, choices, grid)
        assert np.float64(margin).tobytes() == np.float64(ref_margin).tobytes()
        assert witness.tobytes() == ref_witness.tobytes()
        # A one-problem stack has the bytes of the one problem.
        assert [v.tobytes() for v in built[0]] == [v.tobytes() for v in ref_lp]


class TestIsAnomaly:
    """A collection is an anomaly exactly when ``minimal_anomaly`` returns
    all of its indices."""

    def test_allais_is_minimal(self, allais_collection):
        subset, sub = minimal_anomaly(allais_collection)
        assert subset == (0, 1) and not sub.consistent

    def test_pair_with_dominated_singleton_is_not_minimal(self):
        # Certain 5 against certain 6, over the J = 2 payoffs of the other menu.
        bad = menu(lottery([5, 5], [1.0, 0.0]), lottery([6, 6], [1.0, 0.0]))
        ok = menu(lottery([2, 8], [0.5, 0.5]), lottery([1, 9], [0.4, 0.6]))
        coll = collection([bad, ok], [0.3, 0.7])
        assert not verify_collection(coll).consistent
        subset, sub = minimal_anomaly(coll)
        assert subset == (0,) and not sub.consistent

    def test_consistent_duplicated_pair_is_not_anomaly(self):
        m = menu(lottery([2, 8], [0.5, 0.5]), lottery([1, 9], [0.4, 0.6]))
        coll = collection([m, m], [0.7, 0.7])
        assert minimal_anomaly(coll) is None


def dominance_menus(rng, n, J, boundary):
    """n menus (Z, P) (n, 2, J) of distinct lotteries whose payoffs come from
    the integers 0 .. 5, so that the two lotteries share some of them;
    interior probabilities, or with ``boundary`` one of each lottery's set to
    0, which projects it onto a face of the simplex."""
    Z = np.sort([[rng.choice(6, J, replace=False) for _ in range(2)] for _ in range(n)], axis=-1)
    P = rng.dirichlet(np.ones(J), size=(n, 2))
    if boundary:
        np.put_along_axis(P, rng.integers(J, size=(n, 2, 1)), 0.0, axis=-1)
        P /= P.sum(axis=-1, keepdims=True)
    # Two identical lotteries are excluded: the LP calls either choice
    # inconsistent at margin 0, yet neither lottery strictly dominates.
    distinct = [np.ptp(on_merged_grid(list(zip(Zm, Pm)))[1], axis=0).max() > 1e-12
                for Zm, Pm in zip(Z, P)]
    return Z[distinct].astype(float), P[distinct]


class TestDominatedChoice:
    """A single menu's any-utility verdict is its FOSD verdict: the choice is
    inconsistent exactly when the other lottery first-order dominates it."""

    @pytest.mark.parametrize("boundary", [False, True])
    @pytest.mark.parametrize("J", [2, 3])
    def test_one_menu_is_inconsistent_exactly_when_dominated(self, J, boundary):
        rng = np.random.default_rng(10 * J + boundary)
        Z, P = dominance_menus(rng, 2000, J, boundary)
        inconsistent = 0
        for choice in (0, 1):
            verdicts = verifier.utility_verdicts(Z[:, None], P[:, None],
                                                 np.full((len(Z), 1), choice))
            for Zm, Pm, v in zip(Z, P, verdicts):
                dominated = fosd_dominates((Zm[1 - choice], Pm[1 - choice]),
                                           (Zm[choice], Pm[choice]))
                assert (not v.consistent) == dominated, (Zm, Pm, choice, v.margin)
                inconsistent += dominated
        assert inconsistent > 100

    @pytest.mark.parametrize("J", [2, 3])
    def test_a_singleton_minimal_anomaly_categorizes_as_fosd_there(self, J):
        rng = np.random.default_rng(J)
        Z, P = dominance_menus(rng, 600, J, boundary=False)
        singletons = 0
        for k in range(0, len(Z) - 1, 2):
            coll = Collection(Z[k:k + 2], P[k:k + 2], rng.uniform(0.05, 0.95, 2))
            minimal = minimal_anomaly(coll)
            if minimal is not None and len(minimal[0]) == 1:
                cat = categorize(coll)
                assert cat.tag == "fosd" and cat.certificate["menu_index"] == minimal[0][0]
                singletons += 1
        assert singletons > 20


class TestVerifyParametrized:
    def test_generated_collection_consistent(self):
        basis = PolynomialBasis(order=6, domain=(0, 10))
        from conftest import TheorySpec, theory_choice_prob
        rng = np.random.default_rng(5)
        spec = TheorySpec(basis, rng.normal(0, 0.5, size=6))
        menus = [sample_random_menu(rng, 2, 0, 10) for _ in range(4)]
        coll = collection(menus, [theory_choice_prob(spec, m) for m in menus])
        verdict = verify_parametrized(basis, coll)
        assert not verdict.inconsistent and verdict.min_kl < 1e-8

    def test_allais_targets_inconsistent(self, allais_collection):
        basis = PolynomialBasis(order=6, domain=(0, 5e6))
        verdict = verify_parametrized(basis, allais_collection)
        assert verdict.inconsistent
        assert verdict.min_kl == pytest.approx(0.1927, abs=1e-3)

    def test_single_menu_consistent(self):
        basis = PolynomialBasis(order=6, domain=(0, 10))
        m = sample_random_menu(np.random.default_rng(6), 2, 0, 10)
        coll = collection([m], [0.93])
        assert not verify_parametrized(basis, coll).inconsistent
