import json

import numpy as np
import pytest

from anomgen.analysis import (FEATURE_NAMES, KMEANS_RESTARTS, PCA_TOP_LOADINGS, EpsilonFit,
                              _kmeans_once, anomaly_features, consistent_patterns,
                              estimate_epsilon, kmeans, pattern_frequencies, pca, standardize)
from anomgen.cli import run_command
from conftest import collection, lottery, menu, sample_random_menu, simulate_respondents, stack
from anomgen.records import read_jsonl


def baseline_verdicts(tmp_path, predictor: dict, inits: int, seed: int):
    """``anomgen baseline`` then ``anomgen verify``: the verified records."""
    tmp_path.mkdir(exist_ok=True)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"predictor": predictor}))
    cand, ver = tmp_path / "b.jsonl", tmp_path / "v.jsonl"
    assert run_command(["baseline", "--config", str(config), "--inits", str(inits),
                        "--seed", str(seed), "--out", str(cand)]) == 0
    assert run_command(["verify", "--config", str(config), "--in", str(cand),
                        "--out", str(ver)]) == 0
    return read_jsonl(ver, expected_kind="verified")[1]


class TestBaseline:
    def test_eut_oracle_rates_zero(self, tmp_path):
        recs = baseline_verdicts(tmp_path, {"delta": 1, "gamma": 1}, 200, seed=0)
        assert len(recs) == 200
        assert sum(r["any_utility_inconsistent"] for r in recs) == 0

    def test_seed_determinism(self, tmp_path):
        verdicts = [[(r["parametrized_inconsistent"], r["any_utility_inconsistent"])
                     for r in baseline_verdicts(tmp_path / str(k), {}, 50, seed=1)]
                    for k in range(2)]
        assert verdicts[0] == verdicts[1]


class TestAnomalyFeatures:
    def _pair(self, menu_a, menu_b, fa, fb):
        return collection([menu_a, menu_b], [fa, fb])

    def test_identical_lotteries_zero_block(self):
        lot = lottery([2, 7], [0.4, 0.6])
        other = sample_random_menu(np.random.default_rng(0), 2, 0, 10)
        feats = anomaly_features(self._pair(menu(lot, lot), other, 0.8, 0.2))
        np.testing.assert_allclose(feats[:9], 0, atol=1e-12)

    def test_flipping_choice_negates_block(self):
        menu_a = sample_random_menu(np.random.default_rng(1), 2, 0, 10)
        menu_b = sample_random_menu(np.random.default_rng(2), 2, 0, 10)
        up = anomaly_features(self._pair(menu_a, menu_b, 0.8, 0.8))
        down = anomaly_features(self._pair(menu_a, menu_b, 0.2, 0.8))
        np.testing.assert_allclose(down[:9], -up[:9], atol=1e-12)
        np.testing.assert_allclose(down[9:], up[9:], atol=1e-12)

    def test_ternary_expected_payoff_difference(self, ternary_example_collection):
        feats = anomaly_features(ternary_example_collection)
        assert feats[0] == pytest.approx(4.63 - 6.45, abs=0.01)

    def test_names_align(self):
        assert len(FEATURE_NAMES) == 18
        assert FEATURE_NAMES[0] == "A_ev_diff"

    def test_arity(self):
        m = sample_random_menu(np.random.default_rng(3), 2, 0, 10)
        with pytest.raises(ValueError):
            anomaly_features(collection([m], [0.7]))


class TestStandardize:
    def test_zscores(self):
        X = np.array([[1.0, 5.0], [3.0, 5.0], [5.0, 5.0]])
        Z = standardize(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0, atol=1e-12)
        np.testing.assert_allclose(Z[:, 0].std(), 1, atol=1e-12)
        np.testing.assert_array_equal(Z[:, 1], 0)   # zero-variance kept as zeros


class TestKmeans:
    def test_k1_centroid_is_mean(self):
        X = np.random.default_rng(4).normal(size=(30, 3))
        result = kmeans(X, 1, seed=0)
        np.testing.assert_allclose(result.centroids[0], X.mean(axis=0), atol=1e-9)

    def test_separated_blobs_recovered_exactly(self):
        rng = np.random.default_rng(5)
        centers = np.array([[0, 0], [20, 0], [0, 20], [20, 20]], dtype=float)
        labels = np.repeat(np.arange(4), 40)
        X = centers[labels] + rng.normal(0, 0.5, size=(160, 2))
        result = kmeans(X, 4, seed=0)
        # Exact recovery up to label permutation (adjusted Rand = 1).
        for j in range(4):
            members = result.assignments[labels == j]
            assert len(set(members.tolist())) == 1
        assert len(set(result.assignments.tolist())) == 4

    def test_best_of_its_single_runs(self):
        X = np.random.default_rng(6).normal(size=(60, 4))
        runs = [_kmeans_once(X, 3, np.random.default_rng((1, r))) for r in range(KMEANS_RESTARTS)]
        result = kmeans(X, 3, seed=1)
        assert result.inertia == min(run.inertia for run in runs)
        best = next(run for run in runs if run.inertia == result.inertia)
        np.testing.assert_array_equal(result.assignments, best.assignments)

    def test_k_bounds(self):
        X = np.zeros((3, 2))
        with pytest.raises(ValueError):
            kmeans(X, 4)


class TestPca:
    def test_components_orthonormal_scores_centered(self):
        X = np.random.default_rng(7).normal(size=(50, 6))
        result = pca(X)
        gram = result.components @ result.components.T
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-10)
        np.testing.assert_allclose(result.scores.mean(axis=0), 0, atol=1e-10)

    def test_rank_one_data(self):
        rng = np.random.default_rng(8)
        direction = rng.normal(size=5)
        X = np.outer(rng.normal(size=40), direction)
        result = pca(X)
        assert result.explained_variance[0] >= 0.999

    def test_sign_convention(self):
        X = np.random.default_rng(9).normal(size=(30, 4))
        result = pca(X)
        for comp in result.components:
            assert comp[np.argmax(np.abs(comp))] > 0

    def test_top_loadings_report(self):
        X = np.random.default_rng(10).normal(size=(30, 5))
        result = pca(X)
        assert len(result.top_loadings[0]) == PCA_TOP_LOADINGS
        for comp, top in zip(result.components, result.top_loadings):
            assert [j for j, _ in top] == np.argsort(-np.abs(comp))[:PCA_TOP_LOADINGS].tolist()


class TestEstimateEpsilon:
    def test_mass_on_consistent_patterns_gives_zero(self):
        fit = estimate_epsilon(pattern_frequencies((45, 0, 0, 55)), [(0, 0), (1, 1)])
        assert fit.epsilon == pytest.approx(0.0, abs=1e-9)

    def test_allais_structure_closed_form(self):
        # Violating patterns each have model frequency eps(1 - eps); solving
        # eps(1 - eps) = 0.05 gives the quadratic root below 1/2.
        fit = estimate_epsilon(pattern_frequencies((0.45, 0.05, 0.05, 0.45)), [(0, 0), (1, 1)])
        expected = (1 - np.sqrt(1 - 4 * 0.05)) / 2
        assert fit.epsilon == pytest.approx(expected, abs=1e-4)
        assert fit.epsilon == pytest.approx(0.0528, abs=1e-4)

    def test_simulation_recovery(self):
        rng = np.random.default_rng(11)
        freqs = simulate_respondents(rng, 5000, eps=0.05,
                                     weights={(0, 0): 0.5, (1, 1): 0.5})
        fit = estimate_epsilon(freqs, [(0, 0), (1, 1)])
        assert fit.epsilon == pytest.approx(0.05, abs=0.01)

    def test_patterns_from_verifier(self, allais_menus):
        pats = consistent_patterns(*stack(allais_menus))
        assert set(pats) == {(0, 0), (1, 1)}

    def test_objective_at_optimum_beats_endpoints(self):
        target = pattern_frequencies((0.30, 0.20, 0.15, 0.35))
        pats = [(0, 0), (1, 1)]
        fit = estimate_epsilon(target, pats)
        from anomgen.analysis import _pattern_matrix, _simplex_lstsq
        for eps in (0.0, 0.5):
            _, val = _simplex_lstsq(_pattern_matrix(eps, pats), target)
            assert fit.fit_distance <= val + 1e-12

    def test_zero_counts_rejected(self):
        with pytest.raises(ValueError, match="all-zero counts"):
            pattern_frequencies((0, 0, 0, 0))
        for counts in ((1, 2, 3), (1, -1, 0, 0), (1, np.inf, 0, 0)):
            with pytest.raises(ValueError, match="need four finite nonnegative pattern counts"):
                pattern_frequencies(counts)

