import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anomgen import simplex_lp, verifier
from anomgen.analysis import PATTERNS, consistent_patterns
from anomgen.basis import PolynomialBasis
from anomgen.categorize import categorize
from anomgen.lotteries import Collection, fosd_dominates, implied_choices, on_merged_grid
from anomgen.verifier import minimal_anomaly, verify_collection, verify_parametrized
from conftest import (collection, lottery, menu, probs_on_grid, reference_gordan,
                      sample_random_menu, stack, swapped, verify_menus)


def lotteries_of(menus) -> list:
    return [(z, p) for Z, P in menus for z, p in zip(Z, P)]


def grid_consistent(menus, choices, steps=200, strictness=1e-6):
    """Brute-force scan over normalized increasing utility vectors.

    Grid-consistent means some utility on the grid satisfies every strict
    inequality with slack above ``strictness``; this one-sidedly implies the
    verdict must be consistent.
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
        # payoffs stay), adding a menu only adds constraints.
        rng = np.random.default_rng(2)
        for _ in range(20):
            base = sample_random_menu(rng, 2, 0, 10)
            menus = [base, _reprob(base, rng)]
            choices = rng.integers(0, 2, size=2)
            pair = verify_menus(menus, choices).margin
            for i in (0, 1):
                assert verify_menus(menus[i:i + 1], choices[i:i + 1]).margin >= pair - 1e-9

    def test_agrees_with_grid_oracle(self):
        # Grid-consistent instances must never be declared inconsistent.
        rng = np.random.default_rng(3)
        checked = disagreements = 0
        for _ in range(300):
            base = sample_random_menu(rng, 2, 0, 10)
            menus = [base, _reprob(base, rng)]
            choices = rng.integers(0, 2, size=2)
            verdict = verify_menus(menus, choices)
            if grid_consistent(menus, choices):
                checked += 1
                disagreements += not verdict.consistent
        assert checked > 100
        assert disagreements == 0

    def test_size_limit(self):
        rng = np.random.default_rng(4)
        menus = [sample_random_menu(rng, 2, 0, 10) for _ in range(3)]
        with pytest.raises(ValueError, match=r"^collection size must be in \[1, 2\]$"):
            verify_collection(collection(menus, [0.2, 0.8, 0.3]))

    def test_degenerate_single_payoff(self):
        m = menu(lottery([5.0], [1.0]), lottery([5.0], [1.0]))
        res = verify_menus([m], [1])
        assert res.consistent and res.margin == 0.0

    def test_payoff_count_checked_before_the_value(self, monkeypatch):
        def no_value(*args):
            raise AssertionError("value taken for a collection over the payoff limit")

        monkeypatch.setattr(simplex_lp, "simplex_value", no_value)
        quarter = [0.25] * 4
        menus = [menu(lottery(np.arange(8 * i, 8 * i + 4), quarter),
                      lottery(np.arange(8 * i + 4, 8 * i + 8), quarter)) for i in range(2)]
        with pytest.raises(ValueError, match="16 distinct payoffs"):
            verify_menus(menus, [0, 1])


@st.composite
def small_collections(draw):
    """One or two menus over J in {2, 3} payoffs drawn from one pool of at
    most 12 values, integers (shared between lotteries) mixed with fresh
    floats; probabilities from integer weights, with exact zeros, or from
    float weights, whose sums may miss 1 by a few ulps; one choice per menu.
    A second menu may keep the first one's payoffs, as a search's does."""
    J = draw(st.sampled_from([2, 3]))
    pool = draw(st.lists(st.one_of(st.integers(0, 10).map(float), st.floats(0, 10)),
                         min_size=2, max_size=12, unique=True))
    payoffs = st.lists(st.sampled_from(pool), min_size=J, max_size=J)
    weights = st.one_of(st.lists(st.integers(0, 4).map(float), min_size=J, max_size=J),
                        st.lists(st.floats(0, 1), min_size=J, max_size=J))

    def drawn_lottery(z):
        w = np.array(draw(weights.filter(lambda w: sum(w) > 1e-3)))
        return lottery(z, w / w.sum())

    menus = [menu(drawn_lottery(draw(payoffs)), drawn_lottery(draw(payoffs)))]
    if draw(st.booleans()):
        Z = menus[0][0] if draw(st.booleans()) else [draw(payoffs), draw(payoffs)]
        menus.append(menu(drawn_lottery(Z[0]), drawn_lottery(Z[1])))
    return menus, np.array(draw(st.lists(st.integers(0, 1), min_size=len(menus),
                                         max_size=len(menus))))


def exact_values(menus, choices) -> dict:
    """``reference_gordan`` of every sub-collection, in
    ``itertools.combinations`` order, smallest first."""
    n = len(menus)
    return {subset: reference_gordan([menus[i] for i in subset], choices[list(subset)])
            for size in range(1, n + 1) for subset in itertools.combinations(range(n), size)}


class TestExactReference:
    """Where the exact value is not within 1e-9 of zero, the float verdict,
    its margin and the minimal sub-collection are the rationals'."""

    @settings(max_examples=400, deadline=None)
    @given(small_collections())
    # A sure 1 over 0.8 of 2, then 0.4 of 2 over the sure 1: each choice is
    # consistent alone, and the pair's lines cross at t = 1/2, at value -0.2.
    @example(([menu(lottery([1.0, 1.0], [1.0, 0.0]), lottery([0.0, 2.0], [0.2, 0.8])),
               menu(lottery([1.0, 1.0], [1.0, 0.0]), lottery([0.0, 2.0], [0.6, 0.4]))],
              np.array([0, 1])))
    def test_verdict_margin_and_minimal_subset_match_the_exact_rule(self, drawn):
        menus, choices = drawn
        exact = exact_values(menus, choices)
        whole = exact[tuple(range(len(menus)))]
        got = verify_menus(menus, choices)
        if whole is None:
            assert got.consistent and got.margin == 0.0
        elif abs(whole) > 1e-9:
            assert got.consistent == (whole > 0)
            assert got.margin == pytest.approx(float(whole), abs=1e-12)
        if all(v is None or abs(v) > 1e-9 for v in exact.values()):
            want = next((s for s, v in exact.items() if v is not None and v < 0), None)
            minimal = minimal_anomaly(collection(menus, 0.25 + 0.5 * choices))
            assert (minimal and minimal[0]) == want


class TestTraps:
    """Cases a naive exact rule or a careless float path gets wrong."""

    def test_fosd_choice_against_a_lottery_short_of_one_stays_inconsistent(self):
        # The other lottery takes 2**-53 off the chosen one's lowest payoff:
        # its floats sum to 1 - 2**-53, and divided by that sum it puts more
        # mass on 10 than the chosen one does, so it strictly dominates.
        short = 0.5 - 2.0 ** -53
        m = menu(lottery([0.0, 10.0], [0.5, 0.5]), lottery([0.0, 10.0], [short, 0.5]))
        assert np.sum(m[1][1]) == 1.0 - 2.0 ** -53
        assert not verify_collection(collection([m], [0.2])).consistent
        assert reference_gordan([m], [0]) < 0
        # Unnormalized, the chosen lottery carries 2**-53 more mass than the
        # other, so a high enough utility level rationalizes the choice.
        assert reference_gordan([m], [0], normalize=False) > 0

    def test_dominated_consequence_pair_is_inconsistent_only_as_a_pair(
            self, dc_example_collection):
        Z, P, q = dc_example_collection
        menus, choices = list(zip(Z, P)), implied_choices(q)
        exact = exact_values(menus, choices)
        assert exact[(0,)] > 1e-9 and exact[(1,)] > 1e-9 and exact[(0, 1)] < -1e-9
        assert [verify_menus(menus[i:i + 1], choices[i:i + 1]).consistent
                for i in (0, 1)] == [True, True]
        subset, sub = minimal_anomaly(dc_example_collection)
        assert subset == (0, 1) and not sub.consistent
        assert categorize(dc_example_collection).tag == "dominated_consequence"

    def test_allais_pair_is_consistent_on_the_diagonal_only(self, allais_menus):
        # Off the diagonal the menus' tails cancel: the exact value is a tie
        # within rounding of zero, which the margin threshold calls
        # inconsistent; on it, the value is clear of zero.
        Z, P = stack(allais_menus)
        assert consistent_patterns(Z, P) == [(0, 0), (1, 1)]
        for pattern in PATTERNS:
            v = reference_gordan(list(allais_menus), np.array(pattern))
            assert (v > 1e-9) if pattern in ((0, 0), (1, 1)) else (abs(v) < 1e-15)


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
    # Two identical lotteries are excluded: the verifier calls either choice
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
