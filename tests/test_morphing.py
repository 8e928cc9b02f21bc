import numpy as np
import pytest

from anomgen.basis import ISplineBasis
from anomgen.cpt import CptParams, CptPredictor
from anomgen.lotteries import menu_from_flat, sample_random_menu
from anomgen.morphing import (MorphConfig, morph_run, morph_step_direction,
                              null_space_projection, run_morph_index,
                              sample_theta_history, _tangent)
from anomgen.theory import fit_theta


class TestSampleThetaHistory:
    def test_single_entry_fallback(self):
        theta = np.arange(5.0)
        draws = sample_theta_history([theta], 20_000, np.random.default_rng(0))
        np.testing.assert_allclose(draws.mean(axis=0), theta, atol=0.01)
        np.testing.assert_allclose(draws.std(axis=0), 0.1, atol=0.01)

    def test_two_point_history_moments(self):
        h = [np.array([0.0, 1.0]), np.array([2.0, 3.0])]
        draws = sample_theta_history(h, 10_000, np.random.default_rng(1))
        mean = np.array([1.0, 2.0])
        # Sample covariance of two points is rank one with variance 2.
        se = np.sqrt(2.0 / 10_000)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 3 * np.sqrt(2) * se * 50)
        np.testing.assert_allclose(np.cov(draws, rowvar=False, ddof=1),
                                   [[2, 2], [2, 2]], atol=0.1)

    def test_seed_reproducible(self):
        h = [np.zeros(3), np.ones(3)]
        a = sample_theta_history(h, 100, np.random.default_rng(2))
        b = sample_theta_history(h, 100, np.random.default_rng(2))
        np.testing.assert_array_equal(a, b)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            sample_theta_history(np.empty((0, 3)), 10, np.random.default_rng(0))


class TestNullSpaceProjection:
    def test_full_span_gives_zero(self):
        g = np.array([1.0, 2.0, 3.0])
        grads = np.eye(3)
        np.testing.assert_allclose(null_space_projection(g, grads, 1e-6),
                                   np.zeros(3), atol=1e-12)

    def test_zero_gradients_leave_unchanged(self):
        g = np.array([1.0, -2.0, 0.5])
        grads = np.zeros((5, 3))
        np.testing.assert_array_equal(null_space_projection(g, grads, 1e-6), g)

    def test_single_axis_gradient_zeroes_coordinate(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=4)
        e1 = np.zeros((1, 4))
        e1[0, 0] = 1.0
        out = null_space_projection(g, e1, 1e-6)
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(out[1:], g[1:])

    def test_descent_and_orthogonality_properties(self):
        # The projected direction never ascends the input gradient and is
        # orthogonal to every retained sampled gradient.
        rng = np.random.default_rng(4)
        for _ in range(300):
            dim = rng.integers(2, 7)
            g = rng.normal(size=dim)
            grads = rng.normal(size=(rng.integers(1, 5), dim))
            v = null_space_projection(g, grads, 1e-6)
            assert -(v @ g) <= 1e-10
            for row in grads:
                assert abs(v @ row) <= 1e-6 * (np.linalg.norm(v) + 1e-300) * \
                    np.linalg.norm(row) + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            null_space_projection(np.ones(3), np.ones((2, 4)), 1e-6)


class TestTangent:
    def test_blocks_sum_to_zero(self):
        rng = np.random.default_rng(5)
        vecs = rng.normal(size=(10, 6))
        t = _tangent(vecs, 3)
        np.testing.assert_allclose(t[:, :3].sum(axis=1), 0, atol=1e-12)
        np.testing.assert_allclose(t[:, 3:].sum(axis=1), 0, atol=1e-12)


class TestMorphRun:
    def test_full_tangent_span_stops_immediately(self):
        # Force rank_tol tiny: the sampled ensemble spans the tangent space,
        # the projected direction is ~0 and the run stops at step 0.
        pred = CptPredictor(CptParams(0.726, 0.309))
        cfg = MorphConfig(rank_tol=1e-9)
        result = run_morph_index(pred, cfg, 6, 0)
        assert result.iterations == 0
        m0, mS = result.candidate.menus
        np.testing.assert_array_equal(m0.flatten(), mS.flatten())

    def test_simplex_feasibility_along_trajectory(self):
        pred = CptPredictor(CptParams(0.726, 0.309))
        cfg = MorphConfig()
        for i in range(5):
            result = run_morph_index(pred, cfg, 7, i)
            for x in result.trajectory:
                assert abs(x[2:4].sum() - 1) < 1e-12
                assert abs(x[6:8].sum() - 1) < 1e-12
                assert np.all(x[2:4] >= 0) and np.all(x[6:8] >= 0)

    def test_payoffs_frozen(self):
        pred = CptPredictor(CptParams(0.726, 0.309))
        result = run_morph_index(pred, MorphConfig(), 8, 1)
        x0, xS = (m.flatten() for m in result.candidate.menus)
        np.testing.assert_array_equal(x0[:2], xS[:2])
        np.testing.assert_array_equal(x0[4:6], xS[4:6])

    def test_drift_reported(self):
        pred = CptPredictor(CptParams(0.726, 0.309))
        result = run_morph_index(pred, MorphConfig(), 9, 2)
        assert np.isfinite(result.drift) and result.drift >= 0
        assert result.candidate.provenance["drift"] == result.drift

    def test_determinism(self):
        pred = CptPredictor(CptParams(0.726, 0.309))
        cfg = MorphConfig()
        a = run_morph_index(pred, cfg, 10, 0)
        b = run_morph_index(pred, cfg, 10, 0)
        np.testing.assert_array_equal(a.candidate.menus[1].flatten(),
                                      b.candidate.menus[1].flatten())

    def test_frozen_basis_rows_give_the_same_fits(self):
        # morph_run builds its design rows from the basis values at the
        # frozen payoffs; along a trajectory that route must reproduce the
        # fit from freshly evaluated features bit for bit.
        pred = CptPredictor(CptParams(0.726, 0.309))
        cfg = MorphConfig()
        basis = cfg.make_basis()
        result = run_morph_index(pred, cfg, 11, 3)
        assert result.iterations >= 5
        x0 = result.candidate.menus[0]
        B0 = basis.eval(x0.lottery0.payoffs)
        B1 = basis.eval(x0.lottery1.payoffs)
        for x in result.trajectory:
            menu = menu_from_flat(x, 2)
            examples = [(x0, pred.predict(x0)), (menu, pred.predict(menu))]
            rows = np.array([m.lottery1.probs @ B1 - m.lottery0.probs @ B0
                             for m, _ in examples])
            plain = fit_theta(basis, examples)
            given = fit_theta(basis, examples, design=rows)
            np.testing.assert_array_equal(given.theta, plain.theta)
            assert (given.kl, given.cross_entropy, given.converged,
                    given.on_norm_bound) == (plain.kl, plain.cross_entropy,
                                             plain.converged, plain.on_norm_bound)


class TestMorphStepDirection:
    def test_descent_against_predictor_gradient(self):
        # Criterion-8 style property on random tangent states.
        rng = np.random.default_rng(11)
        for _ in range(200):
            g = rng.normal(size=4)
            grads = rng.normal(size=(rng.integers(1, 6), 4))
            v = morph_step_direction(g, grads, 2, rank_tol=1e-6)
            g_t = _tangent(g, 2)
            assert -(v @ g_t) <= 1e-10
            # Orthogonal to every retained (tangent-projected) gradient.
            for row in _tangent(grads, 2):
                assert abs(v @ row) <= 1e-6 * (np.linalg.norm(v) + 1e-300) * \
                    (np.linalg.norm(row) + 1e-300) + 1e-12
