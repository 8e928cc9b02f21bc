import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomgen.categorize import (DEFAULT_TOL, AnomalyCategory, categorize, check_certificate,
                                decompose_shared_components, solve_degenerate_mix)
from anomgen.lotteries import Collection, fosd_dominates
from anomgen.records import read_jsonl, record_to_collection, write_jsonl
from conftest import (TABLE_TOL, collection, lottery, menu, probs_on_grid, sample_random_menu,
                      swapped)

# The fixture holding a collection of each category, and tampered variants of
# each certificate field.
COLLECTIONS = {"dominated_consequence": "dc_example_collection",
               "reverse_dominated_consequence": "rdc_example_collection",
               "strict_dominance": "sd_example_collection",
               "fosd": "fosd_example_collection",
               "shared_component_reversal": "ternary_example_collection"}


def _flip(key):
    return lambda cert: {**cert, key: 1 - cert[key]}


def _flip_role(role):
    return lambda cert: {**cert, "roles": {**cert["roles"], role: 1 - cert["roles"][role]}}


def _other_pattern(cert):
    patterns = ["dominated_consequence", "reverse_dominated_consequence", "strict_dominance"]
    return {**cert, "pattern": patterns[patterns.index(cert["pattern"]) - 1]}


TAMPERS = [
    *[(tag, field, tamper)
      for tag in ("dominated_consequence", "reverse_dominated_consequence", "strict_dominance")
      for field, tamper in (("alpha0", lambda c: {**c, "alpha0": c["alpha0"] + 0.1}),
                            ("alpha1", lambda c: {**c, "alpha1": c["alpha1"] + 0.1}),
                            ("base_menu", _flip("base_menu")),
                            *[(role, _flip_role(role))
                              for role in ("ell0", "ell1", "comp0", "comp1")],
                            ("anchors", lambda c: {**c, "anchors": [c["anchors"][0] + 0.1,
                                                                    c["anchors"][1]]}),
                            ("pattern", _other_pattern),
                            ("roles-extra", lambda c: {**c, "roles": {**c["roles"], "ell2": 0}}))],
    ("strict_dominance", "common_ratio", lambda c: {**c, "common_ratio": True}),
    ("shared_component_reversal", "family", _flip("family")),
    ("shared_component_reversal", "choices", lambda c: {**c, "choices": c["choices"][::-1]}),
    ("shared_component_reversal", "alpha_a-and-comp1",
     lambda c: {**c, "alpha_a": {0: 0.99, 1: 0.99}, "comp1": {"payoffs": [0.0], "probs": [1.0]}}),
    ("shared_component_reversal", "alpha_b",
     lambda c: {**c, "alpha_b": {i: a + 0.1 for i, a in c["alpha_b"].items()}}),
    ("shared_component_reversal", "comp2", lambda c: {**c, "comp2": c["comp1"]}),
    ("fosd", "implied_choice", _flip("implied_choice")),
    ("fosd", "menu_index", lambda c: {**c, "menu_index": -1}),
]
# The key of each tag's anchor in its certificate.
ANCHOR_KEYS = {"dominated_consequence": "base_menu", "reverse_dominated_consequence": "base_menu",
               "strict_dominance": "base_menu", "fosd": "menu_index",
               "shared_component_reversal": "family"}
GOLDEN_TAGS = Path(__file__).parent / "data" / "golden_tags_categorized.jsonl"


def _unstructured_pair():
    """Disjoint payoff supports: no mixing relation can hold, no dominance."""
    menu_a = menu(lottery([2, 8], [0.5, 0.5]),
                  lottery([1, 9], [0.4, 0.6]))
    menu_b = menu(lottery([3.3, 7.7], [0.6, 0.4]),
                  lottery([0.5, 9.5], [0.5, 0.5]))
    return collection([menu_a, menu_b], [0.8, 0.2])


def _float_paths(value, path=()):
    """The key paths of every float in a JSON value."""
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _float_paths(v, (*path, k))]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _float_paths(v, (*path, i))]
    return [path] if isinstance(value, float) else []


def _moved(value, path, by):
    """A copy of a JSON value with the float at ``path`` moved by ``by``."""
    if not path:
        return value + by
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _moved(value[path[0]], path[1:], by)
    return copy


@pytest.fixture
def fosd_example_collection():
    """Menu A's chosen lottery is dominated by its alternative."""
    dominated = menu(lottery([5, 6], [0.5, 0.5]),
                     lottery([6, 7], [0.5, 0.5]))
    other = menu(lottery([2, 8], [0.5, 0.5]),
                 lottery([1, 9], [0.4, 0.6]))
    return collection([dominated, other], [0.2, 0.8])


class TestSolveDegenerateMix:
    def test_identity(self):
        lot = lottery([1, 5], [0.3, 0.7])
        assert solve_degenerate_mix(lot, lot, 1.0) == pytest.approx(1.0)

    def test_published_dc_alphas(self):
        # Ratio solves on the dominated-consequence example menus.
        a1 = solve_degenerate_mix(lottery([5.72, 8.64], [0.13, 0.87]),
                                  lottery([5.72, 8.64], [0.34, 0.66]),
                                  5.72, tol=TABLE_TOL)
        assert a1 == pytest.approx(0.66 / 0.87, abs=1e-9)
        a0 = solve_degenerate_mix(lottery([6.44, 6.71], [0.00, 1.00]),
                                  lottery([6.44, 6.71], [0.11, 0.89]),
                                  6.44, tol=TABLE_TOL)
        assert a0 == pytest.approx(0.89, abs=1e-9)

    def test_synthetic_mix_recovered_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            (z, _), (p, _) = sample_random_menu(rng, 2, 0, 10)
            base = (z, p)
            alpha = rng.uniform(0, 1)
            anchor = float(z.min())
            probs = alpha * p
            probs[np.argmin(z)] += 1 - alpha
            cand = lottery(z, probs)
            got = solve_degenerate_mix(base, cand, anchor)
            assert got == pytest.approx(alpha, abs=1e-9)

    def test_infeasible_returns_none(self):
        base = lottery([1, 5], [0.5, 0.5])
        cand = lottery([1, 5], [0.2, 0.8])   # mass on 5 grew: alpha > 1
        assert solve_degenerate_mix(base, cand, 1.0) is None

    def test_anchor_must_be_base_payoff(self):
        base = lottery([1, 5], [0.5, 0.5])
        assert solve_degenerate_mix(base, base, 3.0) is None

    @settings(max_examples=400, deadline=None)
    @given(payoffs=st.lists(st.integers(0, 100), min_size=3, max_size=3, unique=True),
           n_payoffs=st.sampled_from([2, 3]),
           weights=st.lists(st.integers(1, 1000), min_size=3, max_size=3),
           face=st.sampled_from([None, 0, 1, 2]),
           high=st.booleans(),
           alpha=st.fractions(0, 1, max_denominator=1000))
    def test_an_exact_compound_is_recovered_on_its_chord(
            self, payoffs, n_payoffs, weights, face, high, alpha):
        # A base inside the simplex or on a face (one probability 0), its
        # anchor at the lowest or the highest payoff, and the candidate
        # alpha * base + (1 - alpha) * delta(anchor) built in rationals.
        z = np.sort(payoffs[:n_payoffs]).astype(float)
        weights = weights[:n_payoffs]
        if face is not None and face < n_payoffs:
            weights[face] = 0
        k = n_payoffs - 1 if high else 0
        exact = [Fraction(w, sum(weights)) for w in weights]
        delta = [Fraction(int(i == k)) for i in range(n_payoffs)]
        mixed = [alpha * p + (1 - alpha) * e for p, e in zip(exact, delta)]
        base, cand = (z, np.array(exact, dtype=float)), (z, np.array(mixed, dtype=float))
        d = base[1] - np.array(delta, dtype=float)
        got = solve_degenerate_mix(base, cand, z[k])
        if not d.any():
            # The base is delta(anchor) itself: no chord, and alpha = 1.
            assert got == 1.0
        else:
            assert got is not None and 0.0 <= got <= 1.0
        if np.max(np.abs(d)) >= 0.01:
            assert abs(got - alpha) <= 1e-12
        # An anchor that is not a base payoff is no anchor.
        assert solve_degenerate_mix(base, cand, z[k] + 0.5) is None
        if n_payoffs == 3:
            # Off the chord by 10 tol: along the direction of the plane
            # sum(p) = 1 that is orthogonal to the chord.
            off = np.cross(d, np.ones(3))
            moved = (z, cand[1] + 10 * DEFAULT_TOL * off / np.max(np.abs(off)))
            assert solve_degenerate_mix(base, moved, z[k]) is None

    @pytest.mark.parametrize("n_payoffs", [2, 3])
    @pytest.mark.parametrize("scale", [0.0, 0.5, 0.9, 0.99, 1.01, 1.1, 2.0, 10.0])
    def test_a_base_at_the_anchor_takes_alpha_one_near_it_and_none_away(self, n_payoffs, scale):
        # delta(anchor) spans no chord: a candidate within tol of it is
        # alpha = 1, and one further away is no compound of it.  A move of
        # exactly tol is left out: 1 - tol rounds to a residual just past tol.
        z = np.array([1.0, 4.0, 9.0][:n_payoffs])
        rng = np.random.default_rng(n_payoffs)
        for k in (0, n_payoffs - 1):
            base = (z, np.eye(n_payoffs)[k])
            for _ in range(20):
                move = rng.dirichlet(np.ones(n_payoffs)) - base[1]
                cand = (z, base[1] + scale * DEFAULT_TOL * move / np.max(np.abs(move)))
                got = solve_degenerate_mix(base, cand, z[k])
                assert got == (1.0 if scale <= 1.0 else None)


class TestTwoPayoffCategorization:
    def test_dominated_consequence_table(self, dc_example_collection):
        cat = categorize(dc_example_collection, tol=TABLE_TOL)
        assert cat.tag == "dominated_consequence"
        cert = cat.certificate
        # Labeling: roles ell0/ell1 are menu A's lottery 1 and lottery 0.
        assert cert["base_menu"] == 0
        assert cert["roles"]["ell0"] == 1 and cert["roles"]["ell1"] == 0
        assert cert["alpha0"] == pytest.approx(0.759, abs=TABLE_TOL)
        assert cert["alpha1"] == pytest.approx(0.89, abs=TABLE_TOL)
        assert check_certificate(cat, dc_example_collection, tol=TABLE_TOL)

    def test_reverse_dominated_consequence_table(self, rdc_example_collection):
        cat = categorize(rdc_example_collection, tol=TABLE_TOL)
        assert cat.tag == "reverse_dominated_consequence"
        assert check_certificate(cat, rdc_example_collection, tol=TABLE_TOL)

    def test_strict_dominance_table(self, sd_example_collection):
        cat = categorize(sd_example_collection, tol=TABLE_TOL)
        assert cat.tag == "strict_dominance"
        assert check_certificate(cat, sd_example_collection, tol=TABLE_TOL)

    def test_fosd_first(self, fosd_example_collection):
        coll = fosd_example_collection
        cat = categorize(coll)
        assert cat.tag == "fosd"
        assert cat.certificate["menu_index"] == 0
        assert check_certificate(cat, coll)

    def test_common_ratio_flag(self):
        # Equal mixing weights: the common-ratio special case.
        base0 = lottery([1.0, 6.0], [0.4, 0.6])
        base1 = lottery([2.0, 9.0], [0.7, 0.3])
        alpha = 0.5
        mix = lambda lot: lottery(
            lot[0], alpha * lot[1] + (1 - alpha) * (lot[0] == lot[0].min()).astype(float))
        menu_a = menu(base0, base1)
        menu_b = menu(mix(base0), mix(base1))
        coll = collection([menu_a, menu_b], [0.8, 0.2])
        cat = categorize(coll)
        assert cat.tag == "dominated_consequence"
        assert cat.certificate["common_ratio"] is True
        assert check_certificate(cat, coll)

    def test_common_ratio_claimed_only_by_dominated_consequence(self):
        # Strict dominance at equal mixing weights: the certificate names no
        # common ratio, and one that claims it does not check.
        ell0 = lottery([1.0, 9.0], [0.4, 0.6])
        ell1 = lottery([3.0, 6.0], [0.7, 0.3])
        comp0 = lottery([1.0, 9.0], [0.7, 0.3])      # ell0 toward 1 at alpha 0.5
        comp1 = lottery([3.0, 6.0], [0.35, 0.65])    # ell1 toward 6 at alpha 0.5
        coll = collection([menu(ell0, ell1), menu(comp0, comp1)], [0.8, 0.2])
        cat = categorize(coll)
        assert cat.tag == "strict_dominance" and "common_ratio" not in cat.certificate
        assert check_certificate(cat, coll)
        claimed = AnomalyCategory(cat.tag, {**cat.certificate, "common_ratio": True})
        assert not check_certificate(claimed, coll)

    def test_unstructured_pair_is_other(self):
        assert categorize(_unstructured_pair()).tag == "other"
        assert check_certificate(AnomalyCategory("other", {}), _unstructured_pair())

    @pytest.mark.parametrize("cert", [{"menu_index": 0}, {"tol": DEFAULT_TOL}, None, []])
    def test_other_checks_only_an_empty_certificate(self, cert):
        assert not check_certificate(AnomalyCategory("other", cert), _unstructured_pair())

    def test_other_does_not_check_where_a_rule_holds(self, fosd_example_collection):
        # An FOSD pair is named by its rule, so ``other`` is no certificate
        # for it; at a tolerance of 1.0 the unstructured pair is named too.
        assert categorize(fosd_example_collection).tag == "fosd"
        assert not check_certificate(AnomalyCategory("other", {}), fosd_example_collection)
        assert not check_certificate(AnomalyCategory("other", {}), _unstructured_pair(), tol=1.0)

    def test_a_certificate_names_no_tolerance_of_its_own(self):
        # The unstructured pair, categorized at a tolerance of 1.0: its
        # certificate says so, and is still checked at the caller's.
        coll = _unstructured_pair()
        cat = categorize(coll, tol=1.0)
        assert cat.tag != "other" and cat.certificate["tol"] == 1.0
        assert check_certificate(cat, coll, tol=1.0)
        assert not check_certificate(cat, coll)

    @pytest.mark.parametrize("anchor", [-1, 2, True, 1.0, "1"])
    @pytest.mark.parametrize("tag", ["dominated_consequence", "fosd", "shared_component_reversal"])
    def test_an_anchor_out_of_range_or_not_an_int_does_not_check(self, request, tag, anchor):
        # Each rule holds at anchor 1, the menus in reverse order where it
        # holds at 0: Python's indexing would read -1 and True as 1.
        coll = request.getfixturevalue(COLLECTIONS[tag])
        key = ANCHOR_KEYS[tag]
        if categorize(coll, tol=TABLE_TOL).certificate[key] == 0:
            coll = Collection(*(v[::-1] for v in coll))
        cat = categorize(coll, tol=TABLE_TOL)
        assert (cat.tag, cat.certificate[key]) == (tag, 1)
        assert check_certificate(cat, coll, tol=TABLE_TOL)
        assert not check_certificate(AnomalyCategory(tag, {**cat.certificate, key: anchor}), coll,
                                     tol=TABLE_TOL)

    @pytest.mark.parametrize("cert", [{}, None, "fosd", [0, 0], 0])
    def test_a_certificate_that_is_not_a_json_object_is_an_error(
            self, fosd_example_collection, cert):
        with pytest.raises(ValueError):
            check_certificate(AnomalyCategory("fosd", cert), fosd_example_collection)

    def test_golden_certificates_check_and_every_float_is_checked(self):
        # Every tag's certificate as the program wrote it and JSONL reads it
        # back: each checks at the default tolerance, and none does with any
        # one of its floats moved by ten times that tolerance.
        _, recs = read_jsonl(GOLDEN_TAGS, expected_kind="categorized")
        cats = [(rec["category"], record_to_collection(rec)) for rec in recs
                if rec["any_utility_inconsistent"]]
        assert {cat["tag"] for cat, _ in cats} == set(ANCHOR_KEYS) | {"other"}
        moved = 0
        for cat, coll in cats:
            assert check_certificate(AnomalyCategory(cat["tag"], cat["certificate"]), coll)
            for path in _float_paths(cat["certificate"]):
                for by in (10 * DEFAULT_TOL, -10 * DEFAULT_TOL):
                    tampered = _moved(cat["certificate"], path, by)
                    assert not check_certificate(AnomalyCategory(cat["tag"], tampered), coll), \
                        (cat["tag"], path, by)
                    moved += 1
        assert moved > 50

    def test_relabel_invariance(self, dc_example_collection):
        # Swapping lotteries (with flipped probabilities) and menu order must
        # not change the category.
        Z, P, q = dc_example_collection
        flipped = collection([swapped(m) for m in zip(Z, P)], 1 - q)
        reordered = Collection(Z[::-1], P[::-1], q[::-1])
        for coll in (flipped, reordered):
            assert categorize(coll, tol=TABLE_TOL).tag == \
                "dominated_consequence"

    @pytest.mark.parametrize("tag, field, tamper", TAMPERS,
                             ids=[f"{tag}-{field}" for tag, field, _ in TAMPERS])
    def test_perturbed_alpha_ordering_fails_certificate(self, request, tag, field, tamper):
        coll = request.getfixturevalue(COLLECTIONS[tag])
        cat = categorize(coll, tol=TABLE_TOL)
        assert cat.tag == tag and check_certificate(cat, coll, tol=TABLE_TOL)
        assert not check_certificate(AnomalyCategory(tag, tamper(cat.certificate)), coll,
                                     tol=TABLE_TOL)

    @pytest.mark.parametrize("tag", COLLECTIONS)
    def test_certificate_checks_after_a_json_round_trip(self, request, tag):
        # Certificates read back from JSON carry string keys in alpha_a/alpha_b.
        coll = request.getfixturevalue(COLLECTIONS[tag])
        cat = categorize(coll, tol=TABLE_TOL)
        assert cat.tag == tag
        assert check_certificate(
            AnomalyCategory(tag, json.loads(json.dumps(cat.certificate))), coll, tol=TABLE_TOL)

    def test_reversal_certificate_checks_after_a_jsonl_round_trip(
            self, tmp_path, ternary_example_collection):
        cat = categorize(ternary_example_collection, tol=TABLE_TOL)
        write_jsonl(tmp_path / "c.jsonl", [{"category": {"tag": cat.tag,
                                                         "certificate": cat.certificate}}],
                    kind="categorized")
        _, (rec,) = read_jsonl(tmp_path / "c.jsonl", expected_kind="categorized")
        back = AnomalyCategory(cat.tag, rec["category"]["certificate"])
        assert set(back.certificate["alpha_a"]) == {"0", "1"}
        assert check_certificate(cat, ternary_example_collection, tol=TABLE_TOL)
        assert check_certificate(back, ternary_example_collection, tol=TABLE_TOL)

    @settings(max_examples=300, deadline=None)
    @given(payoffs=st.lists(st.integers(0, 10), min_size=4, max_size=4, unique=True),
           supports=st.sampled_from([[0, 3, 1, 2], [1, 2, 0, 3], [0, 2, 1, 3]]),
           p=st.lists(st.integers(0, 20), min_size=2, max_size=2),
           sides=st.tuples(st.sampled_from(["low", "high"]), st.sampled_from(["low", "high"])),
           alphas=st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.8, 1.0]) | st.floats(0, 1),
                           min_size=2, max_size=2),
           swaps=st.tuples(st.booleans(), st.booleans(), st.booleans()),
           # The lottery each menu chooses, before the swaps; (1, 0) is the
           # orientation the mixing patterns need.
           chosen=st.sampled_from([(1, 0), (1, 0), (0, 0), (0, 1), (1, 1)]),
           tol=st.sampled_from([1e-6, TABLE_TOL]))
    def test_constructed_pairs_check_after_a_json_round_trip(
            self, payoffs, supports, p, sides, alphas, swaps, chosen, tol):
        # A base menu against its compound menu: each lottery mixed toward its
        # low or high payoff, with the lotteries of each menu and the two menus
        # in a drawn order.
        z = np.sort(payoffs)[supports]
        base, comp = [], []
        for zs, pi, side, alpha in zip((z[:2], z[2:]), p, sides, alphas):
            probs = np.array([pi, 20 - pi]) / 20
            base.append(lottery(zs, probs))
            mixed = alpha * probs
            mixed[0 if side == "low" else 1] += 1 - alpha
            comp.append(lottery(zs, mixed))
        menus = [menu(*pair[::-1]) if swap else menu(*pair)
                 for pair, swap in zip((base, comp), swaps)]
        probs = [0.8 if c != swap else 0.2 for swap, c in zip(swaps, chosen)]
        coll = (collection(menus[::-1], probs[::-1]) if swaps[2]
                else collection(menus, probs))
        cat = categorize(coll, tol)
        assert check_certificate(
            AnomalyCategory(cat.tag, json.loads(json.dumps(cat.certificate))), coll, tol=tol)

    def test_stored_component_off_the_simplex_is_rejected(self, ternary_example_collection):
        # A certificate's components come from outside the program: one whose
        # probabilities are off the simplex is not the component re-derived.
        cat = categorize(ternary_example_collection, tol=TABLE_TOL)
        comp1 = cat.certificate["comp1"]
        bad = {**cat.certificate, "comp1": {**comp1, "probs": [2 * p for p in comp1["probs"]]}}
        assert not check_certificate(AnomalyCategory(cat.tag, bad), ternary_example_collection,
                                     tol=TABLE_TOL)

    def test_dominated_choice_is_fosd_at_any_size(self, fosd_example_collection,
                                                  dc_example_collection):
        triple = Collection(*(np.concatenate([v, w[:1]]) for v, w
                              in zip(fosd_example_collection, dc_example_collection)))
        cat = categorize(triple)
        assert (cat.tag, cat.certificate["menu_index"]) == ("fosd", 0)
        assert check_certificate(cat, triple)

    def test_other_than_two_menus_is_other(self, dc_example_collection):
        triple = Collection(*(np.concatenate([v, v[:1]]) for v in dc_example_collection))
        assert categorize(triple) == AnomalyCategory("other", {})


class TestSharedComponents:
    def test_identical_lotteries_trivial(self):
        lot = lottery([1, 5], [0.4, 0.6])
        dec = decompose_shared_components(lot, lot)
        assert dec is not None
        assert dec["alpha_a"] == pytest.approx(dec["alpha_b"])

    def test_one_merged_payoff_is_its_own_component(self):
        # Payoffs within PAYOFF_MERGE_TOL merge: both lotteries are the sure
        # payoff 3, whole in each component.
        dec = decompose_shared_components((np.array([3.0, 3.0 + 1e-12]), np.array([0.4, 0.6])),
                                          (np.array([3.0]), np.array([1.0])))
        assert dec["alpha_a"] == dec["alpha_b"] == 1.0
        for key in ("comp1", "comp2"):
            assert [v.tolist() for v in dec[key]] == [[3.0], [1.0]]

    def test_identical_sure_lotteries_are_one_component(self):
        # The first support payoff carries all the mass: nothing is left for
        # a second component, which is the first again.
        lot = lottery([2, 5, 7], [0.0, 1.0, 0.0])
        dec = decompose_shared_components(lot, lot)
        assert dec["alpha_a"] == dec["alpha_b"] == 1.0
        for key in ("comp1", "comp2"):
            assert [v.tolist() for v in dec[key]] == [[2.0, 5.0, 7.0], [0.0, 1.0, 0.0]]

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, TABLE_TOL])
    def test_near_identical_components_split_the_lottery(self, tol):
        # Lotteries within tol of each other split off the first support
        # payoff, whatever mass is left beside it: both components lie on
        # the merged grid and the simplex, and the weight reproduces pa.
        grid = np.array([1.0, 4.0, 9.0])
        rng = np.random.default_rng(11)
        # At tol 0.02, 0.03 of pa is left beside its first support payoff,
        # spread over two payoffs of 0.015 each.
        families = [(np.array([0.97, 0.015, 0.015]), np.array([0.96, 0.02, 0.02]))]
        while len(families) < 2000:
            pa = rng.dirichlet(np.full(3, rng.choice([0.1, 0.3, 1.0, 3.0])))
            pb = np.clip(pa + rng.uniform(-tol, tol, 3), 0.0, None)
            families.append((pa, pb / pb.sum()))
        families = [(pa, pb) for pa, pb in families if np.max(np.abs(pb - pa)) <= tol]
        assert len(families) > 1000
        for pa, pb in families:
            dec = decompose_shared_components((grid, pa), (grid, pb), tol)
            comps = []
            for key in ("comp1", "comp2"):
                z, p = dec[key]
                assert z.tolist() == grid.tolist()
                assert p.min() >= 0.0 and abs(p.sum() - 1.0) <= 1e-12
                comps.append(p)
            alpha = dec["alpha_a"]
            assert dec["alpha_b"] == alpha and 0.0 <= alpha <= 1.0
            np.testing.assert_allclose(alpha * comps[0] + (1 - alpha) * comps[1], pa,
                                       rtol=0, atol=1e-12)

    def test_lottery1_family(self):
        # Degenerate base against the mixture that adds the dominating pair.
        dec = decompose_shared_components(
            lottery([4.63, 5.04, 5.81], [1.00, 0.00, 0.00]),
            lottery([4.63, 5.04, 5.81], [0.30, 0.67, 0.03]), tol=TABLE_TOL)
        assert dec is not None
        assert dec["alpha_a"] == pytest.approx(0.0, abs=TABLE_TOL)
        assert dec["alpha_b"] == pytest.approx(0.70, abs=TABLE_TOL)
        assert fosd_dominates(dec["comp1"], dec["comp2"])
        # comp1 is the 96/4 mixture over the upper payoffs.
        z, p = dec["comp1"]
        np.testing.assert_allclose(p[z > 4.7].sum(), 1.0)

    def test_lottery0_family_alpha_set(self):
        dec = decompose_shared_components(
            lottery([4.30, 6.17, 8.51], [0.15, 0.61, 0.24]),
            lottery([4.30, 6.17, 8.51], [0.36, 0.36, 0.28]), tol=TABLE_TOL)
        assert dec is not None
        got = sorted([dec["alpha_a"], dec["alpha_b"]])
        assert got[0] == pytest.approx(0.45, abs=TABLE_TOL)
        assert got[1] == pytest.approx(0.77, abs=TABLE_TOL)
        # Tree-consistent ordering: menu A places more weight on comp1.
        assert dec["alpha_a"] > dec["alpha_b"]

    def test_decomposition_reconstructs_the_lotteries(self):
        # Decompositions are not unique; the contract is that the returned
        # components and weights reproduce both probability vectors exactly.
        rng = np.random.default_rng(2)
        grid = np.array([1.0, 4.0, 9.0])
        for _ in range(30):
            q1 = np.array([rng.uniform(0.2, 0.8), 0.0, 0.0])
            q1[1] = 1 - q1[0]
            q2 = np.array([0.0, 0.0, 1.0])
            aa, ab = rng.uniform(0.1, 0.9, size=2)
            lot_a = lottery(grid, aa * q1 + (1 - aa) * q2)
            lot_b = lottery(grid, ab * q1 + (1 - ab) * q2)
            dec = decompose_shared_components(lot_a, lot_b)
            assert dec is not None
            c1 = probs_on_grid(dec["comp1"], grid)
            c2 = probs_on_grid(dec["comp2"], grid)
            np.testing.assert_allclose(
                dec["alpha_a"] * c1 + (1 - dec["alpha_a"]) * c2, lot_a[1], atol=1e-9)
            np.testing.assert_allclose(
                dec["alpha_b"] * c1 + (1 - dec["alpha_b"]) * c2, lot_b[1], atol=1e-9)

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, TABLE_TOL])
    @pytest.mark.parametrize("kind", ["interior", "edge", "vertex", "both_edge"])
    def test_components_are_the_chords_ends(self, kind, tol):
        # Two different lotteries on three payoffs: both inside the simplex,
        # one on an edge, one at a vertex, or both on one edge.  Each
        # component lies on the simplex with a zero on the merged grid, the
        # weights reproduce both lotteries, and the line runs off the
        # simplex just past either end, wherever it passes near a vertex.
        rng = np.random.default_rng(7)
        grid = np.array([1.0, 4.0, 9.0])
        checked = 0
        while checked < 500:
            p = rng.dirichlet(np.ones(3), size=2)
            if kind == "edge":
                p[0, rng.integers(3)] = 0.0
            elif kind == "vertex":
                p[0] = np.eye(3)[rng.integers(3)]
            elif kind == "both_edge":
                p[:, rng.integers(3)] = 0.0
            p /= p.sum(axis=1, keepdims=True)
            if np.max(np.abs(p[1] - p[0])) <= tol:
                continue        # the same lottery within tol: no line
            p = p[rng.permutation(2)]
            dec = decompose_shared_components(lottery(grid, p[0]), lottery(grid, p[1]), tol)
            comps = [probs_on_grid(dec[key], grid) for key in ("comp1", "comp2")]
            for comp in comps:
                assert comp.min() >= 0.0 and abs(comp.sum() - 1.0) <= 1e-12
                assert comp.min() <= 1e-15
            for alpha, probs in ((dec["alpha_a"], p[0]), (dec["alpha_b"], p[1])):
                assert 0.0 <= alpha <= 1.0
                np.testing.assert_allclose(alpha * comps[0] + (1 - alpha) * comps[1], probs,
                                           rtol=0, atol=1e-12)
            for end, other in (comps, comps[::-1]):
                assert (end + 1e-6 * (end - other)).min() < -1e-12
            checked += 1

    def test_totals_that_differ_by_more_than_tol_do_not_split(self):
        # Raw vectors whose totals differ by more than tol: every coordinate
        # moves one way, and the line never crosses the simplex.
        grid = np.array([1.0, 4.0, 9.0])
        assert decompose_shared_components((grid, np.array([0.5, 0.5, 0.0])),
                                           (grid, np.array([0.5 + 2e-6, 0.5, 0.0]))) is None

    def test_too_many_payoffs_rejected(self):
        with pytest.raises(ValueError):
            decompose_shared_components(
                lottery([1, 2, 3], [0.3, 0.3, 0.4]),
                lottery([4, 5, 6], [0.3, 0.3, 0.4]))


class TestThreePayoffCategorization:
    def test_published_ternary_anomaly(self, ternary_example_collection):
        cat = categorize(ternary_example_collection, tol=TABLE_TOL)
        assert cat.tag == "shared_component_reversal"
        assert cat.certificate["family"] == 1
        assert cat.certificate["alpha_a"][1] == pytest.approx(0.0, abs=TABLE_TOL)
        assert cat.certificate["alpha_b"][1] == pytest.approx(0.70, abs=TABLE_TOL)
        assert check_certificate(cat, ternary_example_collection, tol=TABLE_TOL)

    def test_fosd_first(self):
        dominated = menu(lottery([5, 6, 7], [0.3, 0.3, 0.4]),
                         lottery([6, 7, 8], [0.3, 0.3, 0.4]))
        other = menu(lottery([2, 5, 8], [0.3, 0.4, 0.3]),
                     lottery([1, 6, 9], [0.2, 0.4, 0.4]))
        coll = collection([dominated, other], [0.2, 0.8])
        assert categorize(coll).tag == "fosd"

    def test_random_pair_is_other(self):
        rng = np.random.default_rng(3)
        while True:
            menu_a = sample_random_menu(rng, 3, 0, 10)
            menu_b = sample_random_menu(rng, 3, 0, 10)
            coll = collection([menu_a, menu_b], [0.8, 0.2])
            cat = categorize(coll)
            if cat.tag != "fosd":
                assert cat.tag == "other"
                break

    def test_dispatch(self, dc_example_collection, ternary_example_collection):
        assert categorize(dc_example_collection, tol=TABLE_TOL).tag == \
            "dominated_consequence"
        assert categorize(ternary_example_collection, tol=TABLE_TOL).tag == \
            "shared_component_reversal"
        single = collection([menu(lottery([5], [1.0]), lottery([6], [1.0]))], [0.3])
        assert categorize(single).tag == "fosd"
