import numpy as np
import pytest

from anomgen.cpt import CptParams, CptPredictor, simulate_choices
from anomgen.data import ChoiceDataset, split_dataset
from anomgen import theory
from anomgen.adversarial import interior_menu
from anomgen.lotteries import flat_stack
from anomgen.predictor import (MlpModel, MlpPredictor, MlpTrainConfig,
                               evaluate, fit_cpt_params, menu_input_scaling,
                               train_mlp, _backprop, _cpt_logits)
from anomgen.theory import KKT_TOL, _clip_targets, _cross_entropy
from conftest import (BRUHIN_B, central_difference, cpt_dataset, cpt_objective, flat, grad,
                      lottery, menu, predict, sample_random_menu, stack, unchecked_menu)


class TestMlpModel:
    def test_json_roundtrip_preserves_predictions(self, tmp_path):
        model = MlpModel.init_random([8, 16, 1], menu_input_scaling(2), seed=0)
        path = tmp_path / "model.json"
        model.save(path)
        back = MlpModel.load(path)
        m = sample_random_menu(np.random.default_rng(1), 2, 0, 10)
        assert predict(MlpPredictor(back), m) == predict(MlpPredictor(model), m)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MlpModel([8, 4, 1], [np.zeros((8, 3)), np.zeros((4, 1))],
                     [np.zeros(4), np.zeros(1)], np.ones(8))

    def test_dimension_mismatch_on_predict(self):
        model = MlpModel.init_random([8, 4, 1], menu_input_scaling(2), seed=0)
        bad = sample_random_menu(np.random.default_rng(0), 3, 0, 10)
        with pytest.raises(ValueError):
            predict(MlpPredictor(model), bad)

    def test_block_swap_symmetrized_model_is_indifferent_on_duplicates(self):
        # Mirror the hidden layer across a lottery swap and subtract: the
        # logit is antisymmetric, so duplicated-lottery menus land on 0.5.
        rng = np.random.default_rng(2)
        J = 2
        W = rng.normal(0, 0.5, size=(4 * J, 8))
        swap = np.concatenate([np.arange(2 * J, 4 * J), np.arange(0, 2 * J)])
        W_swapped = W[swap]
        model = MlpModel(
            [4 * J, 16, 1],
            [np.concatenate([W, W_swapped], axis=1),
             np.concatenate([rng.normal(size=(8, 1)),
                             -rng.normal(size=(8, 1))], axis=0)],
            [np.zeros(16), np.zeros(1)], menu_input_scaling(J))
        # Rebuild output weights so halves are exact negatives.
        v = rng.normal(size=(8, 1))
        model.weights[1] = np.concatenate([v, -v], axis=0)
        lot = lottery([2, 7], [0.3, 0.7])
        assert predict(MlpPredictor(model), menu(lot, lot)) == pytest.approx(0.5, abs=1e-12)


class TestTrainMlp:
    def test_constant_target(self):
        rng = np.random.default_rng(3)
        menus = [sample_random_menu(rng, 2, 0, 10) for _ in range(400)]
        ds = ChoiceDataset(*stack(menus), np.full(400, 0.5), "rate")
        model = train_mlp(ds, hidden=(8,),
                          config=MlpTrainConfig(epochs=2000, step_size=2.0, seed=0))
        preds = model.predict_batch(flat_stack(ds.Z, ds.P))
        assert np.all(np.abs(preds - 0.5) < 0.01)

    def test_cpt_rates_reach_low_heldout_mse(self):
        ds = cpt_dataset(5000, seed=4, kind="rate", count=1000)
        train, test = split_dataset(ds, 0.2, seed=0)
        model = train_mlp(train, hidden=(32, 32),
                          config=MlpTrainConfig(epochs=150, step_size=0.5, seed=1))
        metrics = evaluate(MlpPredictor(model), test)
        assert metrics["mse"] < 0.02

    def test_weight_gradients_match_finite_differences(self):
        ds = cpt_dataset(64, seed=5, kind="rate", count=200)
        X = flat_stack(ds.Z, ds.P) * menu_input_scaling(2)
        y = ds.outcomes
        w = np.ones(len(ds))
        model = MlpModel.init_random([8, 6, 1], menu_input_scaling(2), seed=2)
        gW, gb = _backprop(model, X, y, w)
        rng = np.random.default_rng(6)
        h = 1e-6
        worst = 0.0
        for _ in range(20):
            layer = rng.integers(0, 2)
            W = model.weights[layer]
            i, j = rng.integers(0, W.shape[0]), rng.integers(0, W.shape[1])
            orig = W[i, j]
            W[i, j] = orig + h
            up = _cross_entropy(model.forward(X), _clip_targets(y), w)
            W[i, j] = orig - h
            down = _cross_entropy(model.forward(X), _clip_targets(y), w)
            W[i, j] = orig
            fd = (up - down) / (2 * h)
            err = abs(fd - gW[layer][i, j]) / (abs(gW[layer][i, j]) + 1e-8)
            worst = max(worst, err)
        assert worst < 1e-4

    def test_bit_reproducible(self):
        ds = cpt_dataset(300, seed=7, kind="rate", count=100)
        cfg = MlpTrainConfig(epochs=20, seed=9)
        m1 = train_mlp(ds, hidden=(8,), config=cfg)
        m2 = train_mlp(ds, hidden=(8,), config=cfg)
        for a, b in zip(m1.weights, m2.weights):
            np.testing.assert_array_equal(a, b)

    def test_beats_constant_predictor(self):
        ds = cpt_dataset(2000, seed=8, kind="rate", count=500)
        train, test = split_dataset(ds, 0.25, seed=0)
        model = train_mlp(train, hidden=(16, 16),
                          config=MlpTrainConfig(epochs=80, seed=0))
        mlp_mse = evaluate(MlpPredictor(model), test)["mse"]
        best_const = float(np.mean((test.outcomes - train.outcomes.mean()) ** 2))
        assert mlp_mse <= best_const

    def test_huge_step_recovers_via_halving(self):
        # The per-epoch rollback makes absurd step sizes self-correcting.
        ds = cpt_dataset(128, seed=9, kind="rate", count=100)
        model = train_mlp(ds, hidden=(8,),
                          config=MlpTrainConfig(epochs=30, step_size=1e6, seed=0))
        preds = model.predict_batch(flat_stack(ds.Z, ds.P))
        assert np.all(np.isfinite(preds))

    def test_divergence_aborts(self, monkeypatch):
        # Non-finite losses (for example NaN gradients) abort with diagnostics.
        import anomgen.predictor as predictor_mod
        ds = cpt_dataset(128, seed=9, kind="rate", count=100)

        def poisoned(model, X, y, w):
            gW = [np.full_like(W, np.nan) for W in model.weights]
            gb = [np.full_like(b, np.nan) for b in model.biases]
            return gW, gb

        monkeypatch.setattr(predictor_mod, "_backprop", poisoned)
        with np.errstate(invalid="ignore"), \
                pytest.raises(RuntimeError, match="diverged"):
            train_mlp(ds, hidden=(8,), config=MlpTrainConfig(epochs=3, seed=0))


class TestMlpGradients:
    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for J in (2, 3):
            model = MlpModel.init_random([4 * J, 32, 32, 1], menu_input_scaling(J),
                                         seed=10)
            worst = 0.0
            checked = 0
            for _ in range(60):
                m = sample_random_menu(rng, J, 0.5, 9.5)
                g = grad(MlpPredictor(model), m)
                assert g.shape == (2 * J,)
                fd = central_difference(
                    lambda x: predict(MlpPredictor(model), unchecked_menu(x, J)), flat(m))
                fd = np.concatenate([fd[J:2 * J], fd[3 * J:]])
                rel = np.max(np.abs(fd - g) / (np.abs(g) + 1e-9))
                # Skip menus that straddle a rectifier kink.
                if rel < 1e-2:
                    worst = max(worst, rel)
                    checked += 1
            assert checked > 40
            assert worst < 1e-4


def menu_stack(n, seed):
    """Random 2-payoff menus stacked, a few with a coordinate at the
    simplex boundary, plus the menus themselves."""
    rng = np.random.default_rng(seed)
    menus = [sample_random_menu(rng, 2, 0, 10) for _ in range(n)]
    for i in range(0, n, 9):
        (z0, z1), (_, p1) = menus[i]
        menus[i] = menu(lottery(z0, [1.0, 0.0]), (z1, p1))
    return menus, stack(menus)


class TestBatchMethods:
    """predict_batch/grad_batch rows do not depend on the batch they sit in."""

    def test_mlp_rows_equal_single_row_results_at_any_batch_size(self):
        model = MlpModel.init_random([8, 16, 16, 1], menu_input_scaling(2), seed=4)
        pred = MlpPredictor(model)
        menus, (Z, P) = menu_stack(64, 50)
        single_f = np.array([predict(pred, m) for m in menus])
        single_g = np.array([grad(pred, m) for m in menus]).reshape(P.shape)
        # The one-row results are the training forward pass on that row.
        np.testing.assert_array_equal(
            single_f, [model.predict_batch(flat(m)[None, :])[0] for m in menus])
        for R in (1, 7, 64):
            parts = [slice(i, i + R) for i in range(0, len(menus), R)]
            f = np.concatenate([pred.predict_batch(Z[s], P[s]) for s in parts])
            gf, g = (np.concatenate(x) for x in zip(*[pred.grad_batch(Z[s], P[s])
                                                      for s in parts]))
            np.testing.assert_array_equal(f, single_f)
            np.testing.assert_array_equal(gf, single_f)
            np.testing.assert_array_equal(g, single_g)

    @pytest.mark.parametrize("kind", ["cpt", "mlp"])
    def test_grad_batch_value_is_predict_batch(self, kind):
        pred = CptPredictor(BRUHIN_B) if kind == "cpt" else MlpPredictor(
            MlpModel.init_random([8, 16, 1], menu_input_scaling(2), seed=5))
        _, (Z, P) = menu_stack(40, 51)
        P = interior_menu(P)                # gradients need interior points
        f, g = pred.grad_batch(Z, P)
        np.testing.assert_array_equal(f, pred.predict_batch(Z, P))
        assert g.shape == P.shape


class TestFitCptParams:
    def test_identity_recovery(self):
        ds = cpt_dataset(10_000, seed=12, kind="binary", params=CptParams(1, 1))
        fit = fit_cpt_params(ds)
        assert fit.params.delta == pytest.approx(1.0, abs=0.05)
        assert fit.params.gamma == pytest.approx(1.0, abs=0.05)

    def test_loose_recovery_small_sample(self):
        ds = cpt_dataset(1000, seed=13, kind="binary")
        fit = fit_cpt_params(ds)
        assert fit.params.delta == pytest.approx(0.726, abs=0.2)
        assert fit.params.gamma == pytest.approx(0.309, abs=0.2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_cpt_params(ChoiceDataset(np.zeros((0, 2, 2)), np.zeros((0, 2, 2)), []))

    @staticmethod
    def _gradient_at(ds, fit):
        x = np.log([fit.params.delta, fit.params.gamma])
        return cpt_objective(ds, 1.0)(x)[1]()[0]

    def test_converged_means_gradient_stop(self):
        ds = cpt_dataset(2000, seed=16, kind="binary")
        fit = fit_cpt_params(ds)
        assert fit.converged and 1 <= fit.iterations < theory.MAX_NEWTON_ITER
        assert np.linalg.norm(self._gradient_at(ds, fit)) <= KKT_TOL

    def test_logit_jacobian_matches_finite_differences(self):
        ds = cpt_dataset(500, seed=17, kind="rate", count=50)
        logits = _cpt_logits(ds.Z, ds.P, 1.0)
        x = np.log([0.8, 0.4])
        u, J = logits(None, x[None])
        assert u.shape == (1, len(ds)) and J.shape == (1, len(ds), 2)
        for i in range(2):
            h = np.zeros(2)
            h[i] = 1e-5
            fd = (logits(None, (x + h)[None])[0] - logits(None, (x - h)[None])[0]) / 2e-5
            np.testing.assert_allclose(J[0, :, i], fd[0], rtol=1e-6, atol=1e-10)

    def test_gamma_unidentified_on_half_half_lotteries(self):
        # With p = (.5, .5) in every lottery each weight is delta / (1 + delta)
        # or 1 / (1 + delta), whatever gamma is: the Fisher matrix is singular.
        rng = np.random.default_rng(18)
        ds = simulate_choices(rng, rng.uniform(0, 10, (2000, 2, 2)), np.full((2000, 2, 2), 0.5),
                              BRUHIN_B)
        H = cpt_objective(ds, 1.0)(np.zeros(2))[1]()[1]
        assert np.linalg.matrix_rank(H) == 1
        fit = fit_cpt_params(ds)
        assert np.isfinite([fit.params.delta, fit.params.gamma]).all()
        assert fit.params.gamma == 1.0
        assert fit.params.delta == pytest.approx(0.726, abs=0.1)
        gnorm = np.linalg.norm(self._gradient_at(ds, fit))
        assert fit.converged == (gnorm <= KKT_TOL)
        assert fit.converged

    def test_iteration_cap_reports_unconverged(self, monkeypatch):
        ds = cpt_dataset(1000, seed=19, kind="binary")
        monkeypatch.setattr(theory, "MAX_NEWTON_ITER", 1)
        fit = fit_cpt_params(ds)
        assert fit.iterations == 1 and not fit.converged
        assert np.linalg.norm(self._gradient_at(ds, fit)) > KKT_TOL


class TestRowWeights:
    """A row of weight 2 counts as that row twice, in the weighting fit and
    in the metrics alike."""

    @staticmethod
    def _duplicated_and_weighted(row=7):
        ds = cpt_dataset(400, seed=20, kind="rate", count=20)
        weights = np.ones(len(ds))
        weights[row] = 2.0
        return (ds.take(np.r_[np.arange(len(ds)), row]),
                ChoiceDataset(ds.Z, ds.P, ds.outcomes, ds.kinds, weights))

    def test_weighting_fit(self):
        doubled, weighted = self._duplicated_and_weighted()
        a, b = fit_cpt_params(doubled), fit_cpt_params(weighted)
        assert abs(a.params.delta - b.params.delta) <= 1e-10
        assert abs(a.params.gamma - b.params.gamma) <= 1e-10
        assert abs(a.cross_entropy - b.cross_entropy) <= 1e-10
        assert (a.converged, a.iterations) == (b.converged, b.iterations)

    def test_metrics(self):
        doubled, weighted = self._duplicated_and_weighted()
        model = MlpModel.init_random([8, 8, 1], menu_input_scaling(2), seed=3)
        for handle in (CptPredictor(BRUHIN_B), MlpPredictor(model)):
            a, b = evaluate(handle, doubled), evaluate(handle, weighted)
            for key in ("mse", "cross_entropy"):
                assert abs(a[key] - b[key]) <= 1e-10


class TestEvaluate:
    def test_perfect_predictor(self):
        ds = cpt_dataset(100, seed=14, kind="rate", count=1)
        oracle = CptPredictor(BRUHIN_B)
        class Oracle:
            def predict_batch(self, Z, P):
                return oracle.predict_batch(Z, P)
        exact = ChoiceDataset(ds.Z, ds.P, oracle.predict_batch(ds.Z, ds.P), "rate")
        assert evaluate(Oracle(), exact)["mse"] == pytest.approx(0.0, abs=1e-16)

    def test_constant_half_on_bernoulli(self):
        rng = np.random.default_rng(15)
        menus = [sample_random_menu(rng, 2, 0, 10) for _ in range(4000)]
        fair = ChoiceDataset(*stack(menus), (rng.random(4000) < 0.5).astype(float),
                             "binary")
        class Half:
            def predict_batch(self, Z, P):
                return np.full(len(Z), 0.5)
        mse = evaluate(Half(), fair)["mse"]
        assert mse == pytest.approx(0.25, abs=0.01)
