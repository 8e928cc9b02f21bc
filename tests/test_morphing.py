import math
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from anomgen import adversarial, morphing
from anomgen.adversarial import run_adversarial_indices
from anomgen.analysis import run_baseline_indices
from anomgen.basis import ISplineBasis, PolynomialBasis
from anomgen.config import MIN_RANK_TOL
from anomgen.cpt import CptParams, CptPredictor, logistic
from anomgen.lotteries import index_block
from anomgen.morphing import (COV_JITTER, MorphConfig, _step_factors, _tangent_basis,
                              morph_step_directions, run_morph_indices)
from anomgen.theory import _fit_logits, eu_difference_rows, stack_basis_values
from conftest import (fit_theta, flat, grad, morph_step_direction, null_space_projection,
                      per_draw_gram, pipeline_config, predict, record_menus,
                      reference_expected_chunk, reference_step_direction, reference_step_factor,
                      reference_utility_factor, sample_random_menu, sample_step_gradients,
                      sample_theta_history, search_iterates, stack, tangent)


class TestSampleThetaHistory:
    # With identity basis rows the utilities are theta itself.
    def test_two_point_history_moments(self):
        h = [np.array([0.0, 1.0]), np.array([2.0, 3.0])]
        draws = sample_theta_history(h, 10_000, np.random.default_rng(1), np.eye(2))
        mean = np.array([1.0, 2.0])
        # Sample covariance of two points is rank one with variance 2.
        se = np.sqrt(2.0 / 10_000)
        assert np.all(np.abs(draws.mean(axis=1) - mean) < 3 * np.sqrt(2) * se * 50)
        np.testing.assert_allclose(np.cov(draws, ddof=1), [[2, 2], [2, 2]], atol=0.1)

    def test_seed_reproducible(self):
        h = [np.zeros(3), np.ones(3)]
        rows = np.arange(12.0).reshape(4, 3)
        a = sample_theta_history(h, 100, np.random.default_rng(2), rows)
        b = sample_theta_history(h, 100, np.random.default_rng(2), rows)
        np.testing.assert_array_equal(a, b)

    def test_one_fit_history_is_the_jitter_law(self):
        # A run's first step reads its one fit: the utilities' mean is the
        # basis rows times that fit and their covariance the jitter's alone.
        rng = np.random.default_rng(0)
        theta, rows = rng.normal(size=5), rng.normal(size=(4, 5))
        mean, factor = reference_utility_factor([theta], rows)
        np.testing.assert_allclose(mean, rows @ theta, rtol=1e-15, atol=0)
        np.testing.assert_allclose(factor @ factor.T, COV_JITTER * rows @ rows.T, rtol=0,
                                   atol=1e-13 * COV_JITTER * np.abs(rows @ rows.T).max())
        draws = sample_theta_history([theta], 20_000, rng, rows)
        assert np.all(np.abs(draws.mean(axis=1) - rows @ theta)
                      < 5 * np.sqrt(COV_JITTER * np.diag(rows @ rows.T) / 20_000))

    def test_empty_history_rejected(self):
        # A run samples after its first step's fit, so a history always
        # holds a fit; none has no mean to draw around.
        with pytest.raises(ValueError, match="at least one fit"):
            sample_theta_history(np.empty((0, 3)), 10, np.random.default_rng(0), np.eye(3))


class TestUtilityDraws:
    """The utility-space draw against theta drawn in coefficient space."""

    @staticmethod
    def moments_agree(basis, menu, history, n=200_000):
        rows = np.concatenate([basis.eval(z) for z in menu[0]])
        H = np.array(history)
        mean = H.mean(axis=0)
        cov = np.cov(H, rowvar=False, ddof=1) + COV_JITTER * np.eye(basis.dim)
        U = sample_theta_history(history, n, np.random.default_rng(13), rows)
        ref = np.random.default_rng(14).multivariate_normal(mean, cov, size=n) @ rows.T
        assert U.shape == (rows.shape[0], n)
        # Two independent estimates of the same moments: five standard errors
        # of their difference.
        S = rows @ cov @ rows.T
        var = np.diag(S)
        assert np.all(np.abs(U.mean(axis=1) - ref.mean(axis=0))
                      <= 5 * np.sqrt(2 * var / n) + 1e-12)
        cov_se = np.sqrt((np.outer(var, var) + S ** 2) / n)
        assert np.all(np.abs(np.cov(U) - np.cov(ref, rowvar=False))
                      <= 5 * np.sqrt(2) * cov_se + 1e-12)
        return rows, U

    def test_moments_match_theta_space_draws(self):
        rng = np.random.default_rng(15)
        basis = ISplineBasis(knots=10, degree=3, domain=(0.0, 10.0))
        for _ in range(3):
            menu = sample_random_menu(rng, 2, 0.0, 10.0)
            history = list(rng.normal(0.0, 2.0, size=(4, basis.dim)))
            self.moments_agree(basis, menu, history)

    def test_shared_payoff_gives_singular_covariance(self):
        # Both lotteries pay 4.0, so two utility rows coincide and the 4x4
        # utility covariance has rank at most 3; the draw still samples and
        # keeps the two utilities equal.
        rng = np.random.default_rng(16)
        basis = ISplineBasis(knots=10, degree=3, domain=(0.0, 10.0))
        menu = np.array([[4.0, 9.0], [1.0, 4.0]]), np.array([[0.3, 0.7], [0.6, 0.4]])
        history = list(rng.normal(0.0, 2.0, size=(3, basis.dim)))
        rows, U = self.moments_agree(basis, menu, history)
        assert np.linalg.matrix_rank(rows) == 3
        np.testing.assert_allclose(U[0], U[3], rtol=0, atol=1e-9 * np.abs(U).max())

    def test_more_utilities_than_coefficients(self):
        # J = 3 with a 2-term polynomial basis: six utilities from a
        # 2-dimensional theta.
        rng = np.random.default_rng(17)
        basis = PolynomialBasis(order=2, domain=(0.0, 10.0))
        menu = sample_random_menu(rng, 3, 0.0, 10.0)
        history = list(rng.normal(0.0, 2.0, size=(3, basis.dim)))
        rows, U = self.moments_agree(basis, menu, history)
        assert np.linalg.matrix_rank(np.cov(U)) == 2


def probs_of(menu):
    """The (2, J) probabilities (p0, p1) of a menu, as a morph step takes them."""
    return menu[1]


def sampled_gradients(history, count, rng, rows, menu):
    """The (count, 2J) choice-probability gradients over (p0, p1) of utility
    draws around ``history``, built from one whole draw."""
    (p0, p1), J = menu[1], menu[1].shape[-1]
    U = sample_theta_history(history, count, rng, rows)
    fb = logistic(p1 @ U[J:] - p0 @ U[:J])
    return (np.concatenate([-U[:J], U[J:]]) * (fb * (1 - fb))).T


def near_cutoff(kept_rows, rank_tol):
    """Whether a singular value of the kept gradients lies within 1% of the
    cutoff, where either side is right."""
    if kept_rows.shape[0] == 0:
        return False
    ratios = np.linalg.svd(kept_rows, compute_uv=False)
    return bool(np.any(np.abs(ratios / ratios[0] / rank_tol - 1.0) < 0.01))


def svd_projection(g_star, sampled_grads, rank_tol):
    """Reference: the span from an SVD of the filtered sampled gradients."""
    G = sampled_grads[np.linalg.norm(sampled_grads, axis=1) > rank_tol]
    if G.shape[0] == 0:
        return g_star.copy()
    _, svals, Vt = np.linalg.svd(G, full_matrices=False)
    V = Vt[svals > rank_tol * svals[0]]
    return g_star - V.T @ (V @ g_star)


class TestGramMatchesSvd:
    @pytest.mark.parametrize("rank_tol", [0.1, MIN_RANK_TOL])
    def test_morph_like_gradients(self, rank_tol):
        # Sampled gradients built as a morph step builds them, around the inner
        # fits at a random start menu and at a second menu with its payoffs.
        pred = CptPredictor(CptParams(0.726, 0.309))
        basis = ISplineBasis(knots=10, degree=3, domain=(0.0, 10.0))
        rng = np.random.default_rng(18)
        compared, ranks = 0, set()
        for _ in range(25):
            x0 = sample_random_menu(rng, 2, 0.0, 10.0)
            rows = np.concatenate([basis.eval(z) for z in x0[0]])
            f0 = predict(pred, x0)
            menu = x0[0], np.stack([rng.dirichlet([2, 2]), rng.dirichlet([2, 2])])
            history = [fit_theta(basis, *stack([x0]), [f0]).theta,
                       fit_theta(basis, *stack([x0, menu]), [f0, predict(pred, menu)]).theta]
            G_t = sample_step_gradients(probs_of(menu), history, 200_000, rng, rows)
            g_t = tangent(grad(pred, menu), 2)
            # A singular value within 1% of the cutoff may fall on either
            # side of it under the two routes' rounding; such cases are not
            # comparable and must stay rare.
            kept = G_t[np.linalg.norm(G_t, axis=1) > rank_tol]
            if near_cutoff(kept, rank_tol):
                continue
            np.testing.assert_allclose(null_space_projection(g_t, G_t, rank_tol),
                                       svd_projection(g_t, G_t, rank_tol), rtol=0, atol=1e-10)
            svals = np.linalg.svd(kept, compute_uv=False)
            ranks.add(int(np.sum(svals > rank_tol * svals[0])) if len(kept) else 0)
            compared += 1
        assert compared >= 23
        # The smallest cutoff still sees the span fill the tangent space.
        assert 2 in ranks

    @pytest.mark.parametrize("rank_tol", [0.1, 1e-6])
    def test_random_gradients(self, rank_tol):
        # Squaring the singular values costs the Gram route accuracy in the
        # weakest retained direction: the error grows like eps * (s_1/s_k)^2
        # for the smallest kept singular value s_k.  It stays below 1e-10
        # while s_k/s_1 >= 1e-3, the regime of the morph search's default cutoff.
        rng = np.random.default_rng(19)
        tight = 0
        for _ in range(300):
            dim = int(rng.integers(2, 8))
            g = rng.normal(size=dim)
            scales = 10.0 ** rng.uniform(-4, 0, size=dim)
            grads = rng.normal(size=(int(rng.integers(1, 50)), dim)) * scales
            kept = grads[np.linalg.norm(grads, axis=1) > rank_tol]
            if kept.shape[0] == 0:
                continue
            ratios = np.linalg.svd(kept, compute_uv=False)
            ratios = ratios / ratios[0]
            if np.any(np.abs(ratios / rank_tol - 1.0) < 0.01):
                continue
            weakest = ratios[ratios > rank_tol].min()
            atol = 1e-10 if weakest >= 1e-3 else 1e2 * np.finfo(float).eps / weakest ** 2
            tight += weakest >= 1e-3
            np.testing.assert_allclose(null_space_projection(g, grads, rank_tol),
                                       svd_projection(g, grads, rank_tol),
                                       rtol=0, atol=atol)
        assert tight >= 100


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
        t = tangent(vecs, 3)
        np.testing.assert_allclose(t[:, :3].sum(axis=1), 0, atol=1e-12)
        np.testing.assert_allclose(t[:, 3:].sum(axis=1), 0, atol=1e-12)

    @pytest.mark.parametrize("J", [2, 3, 5])
    def test_basis_is_orthonormal_and_spans_the_tangent_space(self, J):
        T = _tangent_basis(J)
        assert T.shape == (2 * J, 2 * J - 2)
        np.testing.assert_allclose(T.T @ T, np.eye(2 * J - 2), rtol=0, atol=1e-15)
        # T T^T is the projector that removes per-block means.
        np.testing.assert_allclose(T @ T.T, tangent(np.eye(2 * J), J), rtol=0, atol=1e-15)
        # Built once per J, and no caller can write into the shared array.
        assert _tangent_basis(J) is T and not T.flags.writeable


class TestMorphRun:
    def test_full_tangent_span_stops_immediately(self):
        # Force rank_tol to the smallest accepted cutoff: after the run's
        # first step the sampled ensemble spans the tangent space, the
        # projected direction is ~0 and the run stops there.
        pred = CptPredictor(CptParams(0.726, 0.309))
        cfg = pipeline_config(6, morph={"rank_tol": MIN_RANK_TOL})
        (result,) = run_morph_indices(pred, cfg, [2])
        assert result["iterations"] == 1 and result["stop"] == "direction_vanished"
        assert result["retained_rank"] == 2
        m0, mS = record_menus(result)
        assert not np.array_equal(flat(m0), flat(mS))

    def test_simplex_feasibility_along_trajectory(self):
        pred = CptPredictor(CptParams(0.726, 0.309))
        for _, results in search_iterates("morph", pred, pipeline_config(7), range(5)):
            for result in results:
                x = flat(record_menus(result)[1])
                assert abs(x[2:4].sum() - 1) < 1e-12
                assert abs(x[6:8].sum() - 1) < 1e-12
                assert np.all(x[2:4] >= 0) and np.all(x[6:8] >= 0)

    def test_payoffs_frozen(self):
        pred = CptPredictor(CptParams(0.726, 0.309))
        (result,) = run_morph_indices(pred, pipeline_config(8), [1])
        x0, xS = (flat(m) for m in record_menus(result))
        np.testing.assert_array_equal(x0[:2], xS[:2])
        np.testing.assert_array_equal(x0[4:6], xS[4:6])

    def test_determinism(self):
        pred = CptPredictor(CptParams(0.726, 0.309))
        cfg = pipeline_config(10)
        (a,) = run_morph_indices(pred, cfg, [0])
        (b,) = run_morph_indices(pred, cfg, [0])
        assert a == b

    def test_frozen_basis_rows_give_the_same_fits(self):
        # The morph search builds its design rows from the basis values at the
        # frozen payoffs; along a trajectory that route must reproduce the
        # fit from freshly evaluated features bit for bit.
        pred = CptPredictor(CptParams(0.726, 0.309))
        basis = ISplineBasis()
        iterates = [results[0] for _, results in
                    search_iterates("morph", pred, pipeline_config(11), [3])]
        assert iterates[-1]["iterations"] >= 5
        x0 = record_menus(iterates[0])[0]
        Z0, P0 = stack([x0])
        B = stack_basis_values(basis, Z0)
        for menu in [x0] + [record_menus(c)[1] for c in iterates]:
            targets = [predict(pred, x0), predict(pred, menu)]
            rows = np.concatenate([eu_difference_rows(P0, B),
                                   eu_difference_rows(stack([menu])[1], B)])
            plain = fit_theta(basis, *stack([x0, menu]), targets)
            given = _fit_logits(rows[None], np.array([targets]))
            np.testing.assert_array_equal(given.theta[0], plain.theta)
            assert (given.kl[0], given.cross_entropy[0], given.converged[0],
                    given.on_norm_bound[0]) == (plain.kl, plain.cross_entropy,
                                                plain.converged, plain.on_norm_bound)


class TestFitHistory:
    @pytest.mark.parametrize("J", [2, 3])
    def test_each_step_reads_its_runs_fits_once(self, monkeypatch, J):
        # Step s's law reads each running row's s + 1 lockstep fits, in step
        # order, bit for bit: step 0's (anchor, anchor) pair fit is the
        # initial menu's one fit, and no second fit of that menu joins it.
        fits, histories, step_rows = [], [], []
        fit, step, loop = adversarial._fit_logits, morphing.morph_step_directions, \
            morphing.lockstep

        def spy_fit(D, y):
            fits.append((D, y, fit(D, y)))
            return fits[-1][2]

        def spy_step(*args, **kwargs):
            histories.append(args[2].copy())
            return step(*args, **kwargs)

        def spy_lockstep(predictor, config, basis, Z, P, rule, *rest, **kwargs):
            def recorded(s, rows, *state):
                step_rows.append(rows.copy())
                return rule(s, rows, *state)

            return loop(predictor, config, basis, Z, P, recorded, *rest, **kwargs)

        monkeypatch.setattr(adversarial, "_fit_logits", spy_fit)
        monkeypatch.setattr(morphing, "morph_step_directions", spy_step)
        monkeypatch.setattr(morphing, "lockstep", spy_lockstep)
        runs = 6
        run_morph_indices(CptPredictor(CptParams(0.726, 0.309)),
                          pipeline_config(12, n_payoffs=J, morph={"max_iters": 4}), range(runs))
        # One fit and one step per loop step, and some runs reach step 3.
        assert len(fits) == len(histories) == len(step_rows) == 4
        # The initial menu's one-pair fit, of each run's step-0 (anchor, anchor) pair.
        D0, y0, _ = fits[0]
        initial = _fit_logits(D0[:, :1], y0[:, :1]).theta
        assert_same_bits(step_rows[0], np.arange(runs))
        for s, (H, rows) in enumerate(zip(histories, step_rows)):
            assert H.shape == (len(rows), s + 1, initial.shape[1])
            for k, run in enumerate(rows):
                # Row j of the history is step j's fit of this run.
                for j in range(s + 1):
                    assert_same_bits(H[k, j], fits[j][2].theta[step_rows[j] == run][0])
                # The initial menu's fit is there at most as step 0's own fit.
                assert not any(np.array_equal(row, initial[run]) for row in H[k, 1:])


class TestMorphStepDirection:
    @pytest.mark.parametrize("J", [2, 3])
    def test_descent_against_predictor_gradient(self, J):
        # Criterion-8 style property on random tangent states: the step
        # descends the tangent predictor gradient and is orthogonal to every
        # eigenvector its Gram matrix in expectation keeps.
        rng = np.random.default_rng(11)
        T, ranks = _tangent_basis(J), set()
        for _ in range(100):
            g = rng.normal(size=2 * J)
            rows = rng.normal(size=(2 * J, 5))        # random basis values
            history = list(rng.normal(size=(int(rng.integers(2, 5)), 5)))
            menu = sample_random_menu(rng, J, 0.0, 10.0)
            cfg = MorphConfig(n_gradient_samples=int(rng.integers(1, 5000)),
                              rank_tol=float(rng.choice([0.1, MIN_RANK_TOL])))
            v, rank = morph_step_direction(g, probs_of(menu), history, rows, cfg)
            ranks.add(rank)
            assert -(v @ tangent(g, J)) <= 1e-10
            mean, L = reference_step_factor(probs_of(menu), history, rows)
            (gram,), _ = morphing._expected_grams(mean[None], L[None], cfg.n_gradient_samples,
                                                  cfg.rank_tol)
            evals, vecs = np.linalg.eigh(gram)
            kept = vecs[:, evals > cfg.rank_tol ** 2 * evals[-1]]
            assert kept.shape[1] == rank
            assert np.abs((T @ kept).T @ v).max(initial=0.0) <= 1e-12 * (1.0 + np.abs(g).max())
        # The steps keep more than one rank, and some Gram matrices fill the
        # tangent space.
        assert len(ranks) >= 2 and 2 * J - 2 in ranks


def morph_like_state(rng, J, shared_payoff=False):
    """Fit history at a random start menu and at a second menu with its
    payoffs, as a morph run's first step sees them.  With ``shared_payoff``
    the lotteries share a payoff, so the utility covariance is singular."""
    pred = CptPredictor(CptParams(0.726, 0.309))
    basis = ISplineBasis(knots=10, degree=3, domain=(0.0, 10.0))
    x0 = sample_random_menu(rng, J, 0.0, 10.0)
    if shared_payoff:
        Z = x0[0].copy()
        Z[1, 0] = Z[0, -1]
        x0 = Z, x0[1]
    rows = np.concatenate([basis.eval(z) for z in x0[0]])
    f0 = predict(pred, x0)
    menu = x0[0], np.stack([rng.dirichlet([2.0] * J), rng.dirichlet([2.0] * J)])
    history = [fit_theta(basis, *stack([x0]), [f0]).theta,
               fit_theta(basis, *stack([x0, menu]), [f0, predict(pred, menu)]).theta]
    return grad(pred, menu), menu, history, rows


def morph_like_stack(rng, R, J, h):
    """R morph-like states stacked as a step takes them: the predictor's
    gradients (R, 2J), probabilities (R, 2, J), h-fit histories (R, h, K) and
    basis rows (R, 2J, K).  Fits past the first two scatter around the
    second, and every fifth state's lotteries share a payoff."""
    states = [morph_like_state(rng, J, shared_payoff=k % 5 == 4) for k in range(R)]
    histories = [history + [history[1] + rng.normal(0.0, 0.5, history[1].size)
                            for _ in range(h - 2)] for _, _, history, _ in states]
    return (np.array([g for g, _, _, _ in states]),
            np.array([probs_of(menu) for _, menu, _, _ in states]),
            np.array(histories), np.array([rows for _, _, _, rows in states]))


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStackedStep:
    """A stack's step is, row by row, each run's own step, bit for bit."""

    @pytest.mark.parametrize("J", [2, 3])
    @pytest.mark.parametrize("count, h", [(17, 7), (2000, 6), (8192, 2), (24_593, 3)])
    def test_rows_equal_their_own_steps(self, count, h, J):
        cfg = MorphConfig(n_gradient_samples=count)
        g, probs, H, rows = morph_like_stack(np.random.default_rng(50 + J), 64, J, h)
        quiet = np.array([expected_quiet(probs[k], H[k], rows[k], count, cfg.rank_tol)
                          for k in range(64)])
        alone = [morph_step_direction(g[k], probs[k], list(H[k]), rows[k], cfg)
                 for k in range(64)]
        # Every row, quiet or not, has the bits of the reference's step in
        # expectation, from the row's own factor.
        for k, (direction, rank) in enumerate(alone):
            ref_direction, ref_rank = reference_step_direction(g[k], probs[k], list(H[k]),
                                                               rows[k], cfg)
            assert_same_bits(direction, ref_direction)
            assert rank == ref_rank
        # Stacks of one row, a few, and past the rule's chunks of rows.
        for R in (1, 3, 4, 5, 7, 29, 64):
            directions, ranks, stack_quiet = morph_step_directions(g[:R], probs[:R], H[:R],
                                                                   rows[:R], cfg)
            assert directions.shape == (R, 2 * J) and ranks.shape == (R,)
            np.testing.assert_array_equal(stack_quiet, quiet[:R])
            for k in range(R):
                assert_same_bits(directions[k], alone[k][0])
                assert ranks[k] == alone[k][1]
        # The stack of 64 groups rows of more than one retained rank.
        assert len(set(ranks.tolist())) >= 2
        # Two fits at J = 2 leave some rows a narrow law that keeps no draw.
        assert quiet.any() or (J, h) != (2, 2)

    @pytest.mark.parametrize("J", [2, 3])
    def test_one_fit_history_is_the_jitter_law(self, J):
        # Step 0 reads one fit theta: its law's mean is G theta and
        # L L^T = COV_JITTER G G^T, the jitter's alone, to rounding.
        g, probs, H, rows = morph_like_stack(np.random.default_rng(3), 8, J, 3)
        T = _tangent_basis(J)
        mean, L = _step_factors(probs, H[:, :1], rows, T)
        flip = np.repeat([-1.0, 1.0], J)
        for k in range(len(g)):
            logit = np.concatenate([-probs[k, 0], probs[k, 1]])
            G = np.concatenate([(logit @ rows[k])[None], (T.T * flip) @ rows[k]])
            cov = COV_JITTER * G @ G.T
            np.testing.assert_allclose(mean[k], G @ H[k, 0], rtol=0,
                                       atol=1e-13 * np.abs(G @ H[k, 0]).max())
            np.testing.assert_allclose(L[k] @ L[k].T, cov, rtol=0, atol=1e-13 * np.abs(cov).max())
            ref_mean, ref_L = reference_step_factor(probs[k], H[k, :1], rows[k])
            assert_same_bits(mean[k], ref_mean)
            assert_same_bits(L[k], ref_L)

    @pytest.mark.parametrize("J", [2, 3])
    def test_one_fit_and_multi_fit_rows_keep_their_bits(self, J):
        # A stack's rows share their history length, so rows of one fit and
        # of three meet in the Gram matrices in expectation and the
        # projection: there each row keeps the bits of its step alone.
        cfg = MorphConfig()
        g, probs, H, rows = morph_like_stack(np.random.default_rng(4), 10, J, 3)
        T = _tangent_basis(J)
        mean, L = _step_factors(probs, H, rows, T)
        one_mean, one_L = _step_factors(probs, H[:, :1], rows, T)
        mean[::2], L[::2] = one_mean[::2], one_L[::2]       # even rows read one fit
        grams, _ = morphing._expected_grams(mean, L, cfg.n_gradient_samples, cfg.rank_tol)
        directions, ranks = morphing._project_off_span((T.T @ g[..., None])[..., 0], grams,
                                                       cfg.rank_tol)
        directions = (T @ directions[..., None])[..., 0]
        for k in range(len(g)):
            alone = reference_step_direction(g[k], probs[k], H[k, :1 if k % 2 == 0 else 3],
                                             rows[k], cfg)
            assert_same_bits(directions[k], alone[0])
            assert ranks[k] == alone[1]

    def test_empty_history_rejected(self):
        g, probs, H, rows = morph_like_stack(np.random.default_rng(3), 1, 3, 2)
        with pytest.raises(ValueError, match="at least one fit"):
            morph_step_direction(g[0], probs[0], H[0, :0], rows[0], MorphConfig())

    @pytest.mark.parametrize("J", [2, 3])
    def test_a_step_builds_no_count_wide_array(self, J):
        # The peak of what a 200k step of 8 rows allocates stays under one
        # float per sample, the size of an array as wide as the count.
        count = 200_000
        cfg = MorphConfig(n_gradient_samples=count)
        g, probs, H, rows = morph_like_stack(np.random.default_rng(62 + J), 8, J, 3)
        tracemalloc.start()
        try:
            np.empty(count)
            _, control = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            _, _, quiet = morph_step_directions(g, probs, H, rows, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The tracer sees numpy's arrays, and the step kept some gradients.
        assert control >= 8 * count and not quiet.all()
        assert peak < 8 * count

    @pytest.mark.parametrize("J", [2, 3])
    def test_a_step_starts_no_thread(self, monkeypatch, J):
        # A step computes its rows' Gram matrices in turn on the caller's
        # thread, in one chunk of rows or in many.
        g, probs, H, rows = morph_like_stack(np.random.default_rng(64), 60, J, 3)
        before, during, original = threading.active_count(), [], morphing._expected_chunk

        def spy(*args):
            during.append(threading.active_count())
            return original(*args)

        monkeypatch.setattr(morphing, "_expected_chunk", spy)
        for count in (2_000, 200_000):
            morph_step_directions(g, probs, H, rows, MorphConfig(n_gradient_samples=count))
        assert len(during) >= 3
        assert max(during) == before and threading.active_count() == before

    @pytest.mark.parametrize("J", [2, 3])
    def test_rows_keep_their_bits_in_any_order(self, J):
        cfg = MorphConfig(n_gradient_samples=24_593)
        g, probs, H, rows = morph_like_stack(np.random.default_rng(63 + J), 12, J, 4)
        order = np.random.default_rng(J).permutation(12)
        whole = morph_step_directions(g, probs, H, rows, cfg)
        shuffled = morph_step_directions(g[order], probs[order], H[order], rows[order], cfg)
        assert not whole[2].all()
        for a, b in zip(shuffled, whole):
            assert_same_bits(a, b[order])


def expected_quiet(probs, history, basis_rows, count, rank_tol):
    """Whether one run's step, its factor formed on its own, is quiet:
    whether its ``count`` draws would keep fewer than one gradient in
    expectation."""
    mean, L = reference_step_factor(probs, history, basis_rows)
    return bool(count * morphing._expected_grams(mean[None], L[None], count, rank_tol)[1][0]
                < 1.0)


@pytest.fixture(scope="module")
def lockstep_steps():
    """Morph runs of seed 4 (CPT bruhin-b), for J = 2 and 3: 30 runs of up
    to 10 steps at 2,000 samples and 16 runs of up to 3 steps at 200,000.
    Per (J, sample count), the (inputs, outputs) of each step's
    ``morph_step_directions`` call with the runs its rows belong to, and the
    runs' records."""
    pred = CptPredictor(CptParams(0.726, 0.309))
    original, original_lockstep = morphing.morph_step_directions, morphing.lockstep
    out = {}
    for J in (2, 3):
        for count, runs, iters in ((2_000, 30, 10), (200_000, 16, 3)):
            cfg = pipeline_config(4, n_payoffs=J,
                                  morph={"n_gradient_samples": count, "max_iters": iters})
            Z, P = index_block(cfg, range(runs), 1)
            steps, step_runs = [], []

            def capture(*args, **kwargs):
                steps.append((args, original(*args, **kwargs)))
                return steps[-1][1]

            def capture_lockstep(predictor, config, basis, Z, P, step, *rest, **kwargs):
                def recorded(s, rows, *state):
                    step_runs.append(rows)
                    return step(s, rows, *state)

                return original_lockstep(predictor, config, basis, Z, P, recorded, *rest,
                                         **kwargs)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(morphing, "morph_step_directions", capture)
                mp.setattr(morphing, "lockstep", capture_lockstep)
                recs = morphing.morph_lockstep(pred, cfg.morph, ISplineBasis(), Z[:, 0],
                                               P[:, 0], cfg.seed, range(runs))
            assert len(step_runs) == len(steps)
            out[J, count] = list(zip(steps, step_runs)), recs
    return out


class TestQuietSteps:
    """The steps of real runs: a run's record counts its quiet steps, those
    whose draws would keep fewer than one gradient in expectation."""

    @pytest.mark.parametrize("J", [2, 3])
    @pytest.mark.parametrize("count", [2_000, 200_000])
    def test_records_count_their_quiet_steps(self, lockstep_steps, J, count):
        steps, recs = lockstep_steps[J, count]
        quiet_steps = Counter()
        for (_, (_, _, quiet)), runs in steps:
            quiet_steps.update(runs[quiet].tolist())
        assert [rec["certified_steps"] for rec in recs] == \
            [quiet_steps[r] for r in range(len(recs))]
        assert sum(quiet_steps.values()) > 0

    @pytest.mark.parametrize("J", [2, 3])
    @pytest.mark.parametrize("count", [2_000, 200_000])
    def test_quiet_rows_expect_under_one_kept_draw(self, lockstep_steps, J, count):
        # A row is quiet when count P(kept) < 1; its rank is 0 and its
        # direction the whole tangent gradient.  Over the quiet rows, count
        # float64 draws per row (``per_draw_gram``) keep no more gradients
        # than their count P(kept) add to (five Poisson standard
        # deviations).
        steps, _ = lockstep_steps[J, count]
        expected = drawn = checked = 0
        for ((g, probs, H, rows, cfg), (directions, ranks, quiet)), _ in steps:
            T = _tangent_basis(J)
            mean, L = _step_factors(probs, H, rows, T)
            kept = count * morphing._expected_grams(mean, L, count, cfg.rank_tol)[1]
            np.testing.assert_array_equal(quiet, kept < 1.0)
            for k in np.flatnonzero(quiet):
                expected += kept[k]
                drawn += per_draw_gram(mean[k], L[k], np.random.default_rng(checked), count,
                                       cfg.rank_tol)[1]
                assert ranks[k] == 0
                assert_same_bits(directions[k], T @ (T.T @ g[k]))
                checked += 1
        assert drawn <= expected + 5 * np.sqrt(expected) + 5
        # At J = 2's step 0 a fifth of the runs or more are quiet.
        assert checked >= 3 and (J == 3 or steps[0][0][1][2].mean() >= 0.2 and checked >= 10)

    def test_each_part_of_a_stack_keeps_its_bits(self, lockstep_steps):
        # The first 200k step of 16 runs: its quiet rows alone and its other
        # rows alone each have the bits they had in the whole stack, and an
        # empty stack gives empty arrays.
        ((g, probs, H, rows, cfg), whole), _ = lockstep_steps[2, 200_000][0][0]
        quiet = whole[2]
        assert 0 < quiet.sum() < len(g)
        for part in (quiet, ~quiet, np.zeros_like(quiet)):
            out = morph_step_directions(g[part], probs[part], H[part], rows[part], cfg)
            for a, b in zip(out, whole):
                assert_same_bits(a, b[part])


def lockstep_factors(lockstep_steps, J, count):
    """The (mean, L) factors (R, 2J - 1), (R, 2J - 1, 2J - 1) of every step
    row of the captured runs at ``count`` samples, stacked, and the runs'
    rank cutoff."""
    steps, _ = lockstep_steps[J, count]
    factors = [_step_factors(probs, H, rows, _tangent_basis(J))
               for ((g, probs, H, rows, cfg), _), _ in steps]
    return (np.concatenate([mean for mean, _ in factors]),
            np.concatenate([L for _, L in factors]), steps[0][0][0][4].rank_tol)


def hopf_lines(heights: int, turns: int) -> np.ndarray:
    """(4, heights * turns * 2 turns) lines through the origin of R^4, one
    per antipodal pair, of an equal-weight product rule on S^3 in Hopf
    coordinates (cos eta e^(i xi1), sin eta e^(i xi2)): the uniform measure
    is uniform in sin^2 eta, taken at ``heights`` midpoints, and in the two
    angles, xi1 at ``turns`` equispaced points of [0, pi) and xi2 at twice
    as many of [0, 2 pi)."""
    eta = np.arcsin(np.sqrt((np.arange(heights) + 0.5) / heights))
    xi1 = np.pi * (np.arange(turns) + 0.5) / turns
    xi2 = np.pi * (np.arange(2 * turns) + 0.25) / turns
    eta, xi1, xi2 = np.meshgrid(eta, xi1, xi2, indexing="ij")
    return np.stack([np.cos(eta) * np.cos(xi1), np.cos(eta) * np.sin(xi1),
                     np.sin(eta) * np.cos(xi2), np.sin(eta) * np.sin(xi2)]).reshape(4, -1)


class TestExpectedGram:
    """A step's Gram matrix in expectation: its erfc and radial tails, its
    lines, its rule against a converged one and against a large sample, and
    its rows' bytes."""

    # Composite Gauss-Legendre in z0 and many lines: their ranks and Gram
    # entries no longer move with the rule.  J = 2: 800 nodes (200 panels
    # of 4) and 32 lines; J = 3: 400 nodes and 1,024 Hopf lines.
    CONVERGED = {2: morphing._quadrature(200, 4, morphing._circle(32)),
                 3: morphing._quadrature(100, 4, hopf_lines(8, 8))}

    def test_erfc_against_math(self):
        # erfc(x) = 2 phi(sqrt 2 x) mills(sqrt 2 x), far into the tail.
        x = np.linspace(0.0, 26.0, 26_001)
        rho = np.sqrt(2.0) * x
        ours = 2.0 * np.exp(-rho * rho / 2.0) / np.sqrt(2.0 * np.pi) * morphing._mills(rho)
        exact = np.array([math.erfc(v) for v in x])
        assert exact[-1] > 0.0
        assert np.abs(ours / exact - 1.0).max() < 2.5e-8

    @pytest.mark.parametrize("lo, hi", [(8.0, 9.0), (-9.0, -8.0)])
    def test_interval_masses_come_from_their_own_tails(self, lo, hi):
        # Phi(hi) - Phi(lo) from the tail its ends lie in, phi times the
        # Mills ratio at each end: 6.2e-16 of mass, with no cancellation.
        # Taken as a difference of values near 1 it is off by 7%.
        near, far = sorted((abs(lo), abs(hi)))
        exact = (math.erfc(near / math.sqrt(2.0)) - math.erfc(far / math.sqrt(2.0))) / 2.0
        ends = np.array([near, far])
        tails = np.exp(-ends * ends / 2.0) / np.sqrt(2.0 * np.pi) * morphing._mills(ends)
        assert abs((tails[0] - tails[1]) / exact - 1.0) < 1e-6
        assert abs(((1.0 - tails[1]) - (1.0 - tails[0])) / exact - 1.0) > 0.05
        # The radial tails use the same ratio: T1(rho) - rho T0(rho) is
        # sqrt(2 pi) Q(rho).
        e, first, _ = morphing._tails(ends.copy(), 2)
        np.testing.assert_allclose(first - ends * e, np.sqrt(2.0 * np.pi) * tails, rtol=1e-13)

    def test_four_dimensional_tails_against_their_integrals(self):
        # T_k(rho) = int_rho^inf r^(k+3) e^(-r^2 / 2) dr / 2, the radial
        # moments of the standard normal on R^4, by Simpson's rule on a fine
        # grid out to rho + 40; at 0 they are 1, 1.5 sqrt(pi / 2) and 4, and
        # far out, where each is e^(-rho^2 / 2) times a polynomial, they keep
        # their relative accuracy.  The 1st holds the Mills ratio, whose fit
        # is within 2.1e-8.
        rho = np.array([0.0, 0.3, 1.0, 2.5, 6.0, 8.0, 9.0])
        ours = morphing._tails(rho.copy(), 4)
        r = rho[:, None] + np.linspace(0.0, 40.0, 400_001)
        for k, tail in enumerate(ours):
            f = r ** (k + 3) * np.exp(-r * r / 2.0) / 2.0
            h = 40.0 / 400_000
            simpson = h / 3.0 * (f[:, 0] + f[:, -1] + 4.0 * f[:, 1:-1:2].sum(axis=1)
                                 + 2.0 * f[:, 2:-1:2].sum(axis=1))
            np.testing.assert_allclose(tail, simpson, rtol=3e-8 if k == 1 else 1e-9)
        np.testing.assert_allclose([t[0] for t in ours], [1.0, 1.5 * np.sqrt(np.pi / 2.0), 4.0],
                                   rtol=3e-8)
        # The mass between 8 and 9, from the two tails, with no
        # cancellation.
        assert ours[0][5] - ours[0][6] > 0.0

    @pytest.mark.parametrize("m", [2, 4])
    def test_lines_are_a_design_of_their_sphere(self, m):
        # Over the rule's rays, two per line, the mean of e e^T is I / m
        # and the 1st and 3rd moments vanish by antipodal symmetry; for
        # m = 4 those are the tesseract's 8 lines up to 2,000 draws and the
        # 24-cell's 12 past it.
        for count in (2_000, 2_001, 200_000):
            lines = morphing._rule(m, count)[3]
            assert not lines.flags.writeable
            np.testing.assert_allclose((lines * lines).sum(axis=0), 1.0, rtol=0, atol=1e-15)
            rays = np.concatenate([lines, -lines], axis=1)
            np.testing.assert_allclose(rays @ rays.T / rays.shape[1], np.eye(m) / m, rtol=0,
                                       atol=1e-15)
            np.testing.assert_allclose(rays.sum(axis=1), 0.0, rtol=0, atol=1e-15)
            np.testing.assert_allclose(np.einsum("in,jn,kn->ijk", rays, rays, rays), 0.0,
                                       rtol=0, atol=1e-15)
        if m == 4:
            assert_same_bits(morphing._rule(4, 2_000)[3], morphing._TESSERACT)
            assert np.all(np.abs(morphing._TESSERACT) == 0.5)
            assert_same_bits(morphing._rule(4, 2_001)[3], morphing._CELL24)
            # The 24-cell's are a 5-design: their 4th moments are the
            # sphere's, E[e_i e_j e_k e_l] = (d_ij d_kl + d_ik d_jl + d_il d_jk) / 24.
            d = np.eye(4)
            sphere = (np.einsum("ij,kl->ijkl", d, d) + np.einsum("ik,jl->ijkl", d, d)
                      + np.einsum("il,jk->ijkl", d, d)) / 24
            fourth = np.einsum("in,jn,kn,ln->ijkl", *[morphing._CELL24] * 4) / 12
            np.testing.assert_allclose(fourth, sphere, rtol=0, atol=1e-15)
        # A rule is built once per (m, count) and shared.
        assert morphing._rule(m, 2_000) is morphing._rule(m, 2_000)

    @pytest.mark.parametrize("J", [2, 3])
    @pytest.mark.parametrize("count", [2_000, 200_000])
    def test_shipped_ranks_equal_a_converged_rules(self, lockstep_steps, J, count):
        # On every step row of the captured runs the shipped rule keeps the
        # converged rule's rank and quiet flag.  A row whose converged
        # eigenvalue ratio, or count P(kept), lies within 2% of its cutoff
        # (a singular value within 1%) may fall on either side under the
        # shipped rule's error; such rows are not comparable and must stay
        # rare.  At 2,000 draws J = 3's 8 lines misjudge an eigenvalue ratio
        # by up to 16% at the 99th percentile of captured rows, so a few rows
        # further out may also differ there: no more rows than the ranks of
        # ``count`` float64 draws of each row (``per_draw_gram``) differ on.
        mean, L, rank_tol = lockstep_factors(lockstep_steps, J, count)
        m = 2 * J - 2
        ranks, quiet = [], []
        for rule in (None, self.CONVERGED[J]):
            grams, kept = morphing._expected_grams(mean, L, count, rank_tol, rule)
            ranks.append(morphing._project_off_span(np.zeros((len(L), m)), grams, rank_tol)[1])
            quiet.append(count * kept < 1.0)
        q = quiet[1]
        evals = np.linalg.eigvalsh(grams[~q])
        near = np.zeros(len(L), dtype=bool)
        ratios = evals / (rank_tol ** 2 * evals[:, -1:])
        near[~q] = (np.abs(ratios[:, :-1] - 1.0) < 0.02).any(axis=1)
        near |= np.abs(count * kept - 1.0) < 0.02
        differ = (quiet[0] != quiet[1]) | (ranks[0] != ranks[1])
        if J == 2:
            assert near.sum() <= 2 and not (differ & ~near).any()
        else:
            sampled = np.array([per_draw_gram(mean[k], L[k], np.random.default_rng(k), count,
                                              rank_tol)[0] for k in range(len(L))])
            sampled = morphing._project_off_span(np.zeros((len(L), m)), sampled, rank_tol)[1]
            assert near.sum() <= max(2, 3 * len(L) // 100)
            assert (differ & ~near).sum() <= (sampled != ranks[1]).sum()
        assert set(ranks[1].tolist()) >= {0, 1, 2}

    def test_entries_and_kept_probability_match_a_large_sample(self, lockstep_steps):
        # Every J = 2 200k step row that keeps a share of 2,000,000 float64
        # draws worth estimating (50 or more in expectation): the converged
        # rule's Gram entries and kept probability lie within 4 standard
        # errors of the sample's, taken from 16 batch means (and within one
        # draw's share of it, for a kept probability the sample cannot
        # resolve).
        mean, L, rank_tol = lockstep_factors(lockstep_steps, 2, 200_000)
        grams, kept = morphing._expected_grams(mean, L, 10 ** 12, rank_tol, self.CONVERGED[2])
        compared = 0
        for k in np.flatnonzero(kept * 2_000_000 >= 50):
            batches = np.zeros((16, 4))
            for b, rng in enumerate(np.random.default_rng(k).spawn(16)):
                aw = rng.standard_normal((125_000, 3)) @ L[k].T + mean[k]
                e = np.exp(-np.abs(aw[:, 0]))
                g = aw[:, 1:] * (e / (1.0 + e) ** 2)[:, None]
                g[np.einsum("ij,ij->i", g, g) <= rank_tol ** 2] = 0.0
                batches[b] = [*(g.T @ g / len(g))[[0, 0, 1], [0, 1, 1]], np.mean(g[:, 0] != 0.0)]
            sample, se = batches.mean(axis=0), batches.std(axis=0, ddof=1) / 4.0
            ours = np.array([grams[k, 0, 0], grams[k, 0, 1], grams[k, 1, 1], kept[k]])
            assert np.all(np.abs(ours - sample) <= 4.0 * se + [0.0, 0.0, 0.0, 5e-7]), k
            compared += 1
        assert compared >= 25

    @pytest.mark.parametrize("J", [2, 3])
    def test_rows_keep_their_bytes_in_any_stack(self, lockstep_steps, J):
        # Stacks of 1, 3, 49 and 65 rows, the last two past a chunk's edge
        # (48 rows for J = 3, 64 for J = 2), from several offsets: each row
        # has the bytes it has in the whole stack.
        mean, L, rank_tol = lockstep_factors(lockstep_steps, J, 2_000)
        whole = morphing._expected_grams(mean, L, 2_000, rank_tol)
        for R in (1, 3, 49, 65):
            for first in (0, 5, len(L) - R):
                part = morphing._expected_grams(mean[first:first + R], L[first:first + R], 2_000,
                                                rank_tol)
                for a, b in zip(part, whole):
                    assert_same_bits(a, b[first:first + R])
        # A row whose factor is not finite leaves every other row's bytes,
        # and is neither quiet nor finite itself.
        bad_mean, bad_L = mean[:65].copy(), L[:65].copy()
        bad_mean[3, 0], bad_L[40, 2, 1] = np.nan, np.inf
        with np.errstate(invalid="ignore"):
            grams, kept = morphing._expected_grams(bad_mean, bad_L, 2_000, rank_tol)
        others = np.setdiff1d(np.arange(65), [3, 40])
        assert_same_bits(grams[others], whole[0][others])
        assert_same_bits(kept[others], whole[1][others])
        assert np.isnan(grams[[3, 40]]).all() and not (2_000 * kept[[3, 40]] < 1.0).any()

    @pytest.mark.parametrize("J", [2, 3])
    def test_factors_in_any_layout_keep_their_bytes(self, lockstep_steps, J):
        # Each captured step's factors as ``_step_factors`` returns them give
        # the shipped bytes, and C- and F-ordered copies of the same values
        # give them too.
        for count in (2_000, 200_000):
            for ((_, probs, H, rows, cfg), _), _ in lockstep_steps[J, count][0]:
                mean, L = _step_factors(probs, H, rows, _tangent_basis(J))
                shipped = morphing._expected_grams(mean, L, count, cfg.rank_tol)
                for order in "CF":
                    copied = morphing._expected_grams(mean.copy(order), L.copy(order), count,
                                                      cfg.rank_tol)
                    for a, b in zip(copied, shipped):
                        assert_same_bits(a, b)

    def test_gauss_legendre_nodes_are_exact_to_degree_seven(self):
        # A panel's 4 nodes and weights integrate x^k over [-1, 1] exactly
        # for k <= 7, 2 n - 1, and x^8 no longer.
        _, x, w, _ = morphing._quadrature(1, morphing._Z0_NODES, morphing._circle(1))
        assert len(x) == 4 and not x.flags.writeable and not w.flags.writeable
        for k in range(8):
            assert abs(w @ x ** k - (1 + (-1) ** k) / (k + 1)) < 1e-15
        assert abs(w @ x ** 8 - 2.0 / 9.0) > 1e-4

    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("count, panels, lines", [(1, {2: 12, 4: 6}, {2: 3, 4: 8}),
                                                      (2_000, {2: 12, 4: 6}, {2: 3, 4: 8}),
                                                      (24_593, {2: 22, 4: 11}, {2: 6, 4: 12}),
                                                      (200_000, {2: 38, 4: 19}, {2: 9, 4: 12})])
    def test_rule_refines_with_the_count(self, m, count, panels, lines):
        # Up to 2,000 draws the rule is fixed; past it, its z0 panels, and
        # for m = 2 its lines, grow as count^(1/4): 12 panels and 6 angles
        # become 38 and 18 at 200,000 draws, and m = 4's 6 panels become 19,
        # on the 24-cell's 12 lines in place of the tesseract's 8.
        rule = morphing._rule(m, count)
        assert rule[0] == panels[m] and rule[3].shape == (m, lines[m])
        assert len(rule[1]) == len(rule[2]) == morphing._Z0_NODES
        assert rule is morphing._rule(m, count)

    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_circle_is_the_trapezoid_rule_of_the_circle(self, n):
        # The 2 n rays of n equispaced lines average cos(k theta) and
        # sin(k theta) to 0 for 0 < k < 2 n, exactly as the circle does, and
        # cos(2 n theta) to -1: the rule is exact for every trigonometric
        # polynomial of degree under 2 n.
        lines = morphing._circle(n)
        theta = np.arctan2(lines[1], lines[0])
        rays = np.concatenate([theta, theta + np.pi])
        for k in range(1, 2 * n):
            assert abs(np.cos(k * rays).mean()) < 1e-14 and abs(np.sin(k * rays).mean()) < 1e-14
        assert abs(np.cos(2 * n * rays).mean() + 1.0) < 1e-14

    @pytest.mark.parametrize("m", [2, 4])
    def test_tails_fall_from_their_values_at_zero(self, m):
        # The tails are masses and moments of the radii past rho: they start
        # at 1, E|u| and E|u|^2 = m, never rise, are at least rho^k times
        # the 0th (every radius counted is past rho), and vanish at _RHO_MAX.
        # Past rho = 37.5 they are subnormal (e^(-rho^2 / 2) < 1e-305), and
        # their rounding is no longer monotone.
        rho = np.linspace(0.0, morphing._RHO_MAX, 4_001)
        zeroth, first, second = morphing._tails(rho.copy(), m)
        mean_radius = np.sqrt(np.pi / 2.0) * (1.0 if m == 2 else 1.5)
        np.testing.assert_allclose([zeroth[0], first[0], second[0]], [1.0, mean_radius, m],
                                   rtol=3e-8)
        normal = rho <= 37.5
        for k, tail in enumerate((zeroth, first, second)):
            assert np.all(tail >= 0.0) and np.all(np.diff(tail[normal]) < 0.0)
            assert np.all(tail[normal] >= rho[normal] ** k * zeroth[normal] * (1.0 - 1e-12))
            assert tail[-1] == 0.0

    @pytest.mark.parametrize("J", [2, 3])
    @pytest.mark.parametrize("count", [2_000, 200_000])
    def test_a_cutoff_that_drops_nothing_leaves_the_gaussian_second_moment(self, J, count):
        # At a cutoff of 1e-9 every draw is kept, and given z0 the Gram
        # matrix is s(a)^2 (c c^T + B B^T): the rule's lines, with the radial
        # 2nd moment m at 0, integrate u u^T to I exactly.  With the shipped
        # lines and 800 nodes in z0, each row is within 1e-12 of a 400-node
        # Gauss-Legendre integral over z0 of that closed form.
        rng = np.random.default_rng(80 + J)
        d, R = 2 * J - 1, 20
        L = np.tril(rng.normal(size=(R, d, d)))
        L[:, 0, 1:], L[:, 0, 0] = 0.0, L[:, 0, 0] / 2.0
        mean = rng.normal(size=(R, d))
        rule = morphing._quadrature(200, 4, morphing._rule(d - 1, count)[3])
        grams, kept = morphing._expected_grams(mean, L, count, 1e-9, rule)
        x, w = np.polynomial.legendre.leggauss(400)
        z0, w = 8.0 * x, 8.0 * w * np.exp(-32.0 * x * x) / np.sqrt(2.0 * np.pi)
        for k in range(R):
            e = np.exp(-np.abs(mean[k, 0] + L[k, 0, 0] * z0))
            v = w * (e / (1.0 + e) ** 2) ** 2
            c = mean[k, 1:, None] + L[k, 1:, :1] * z0
            B = L[k, 1:, 1:]
            reference = np.einsum("n,in,jn->ij", v, c, c) + v.sum() * B @ B.T
            np.testing.assert_allclose(grams[k], reference, rtol=0,
                                       atol=1e-12 * np.abs(reference).max())
        np.testing.assert_allclose(kept, 1.0, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("J", [2, 3])
    def test_a_cutoff_past_every_gradient_keeps_nothing(self, J):
        # s(a) <= 1/4, so a cutoff of 100 keeps only gradients w with
        # |w| > 400, out of any row's reach: every row keeps nothing, exactly,
        # at any count, and is quiet.
        rng = np.random.default_rng(90 + J)
        d, R = 2 * J - 1, 20
        L = np.tril(rng.normal(size=(R, d, d)))
        L[:, 0, 1:] = 0.0
        mean = rng.normal(size=(R, d))
        for count in (2_000, 10 ** 12):
            grams, kept = morphing._expected_grams(mean, L, count, 100.0)
            assert np.all(kept == 0.0) and np.all(grams == 0.0)

    @pytest.mark.parametrize("J", [2, 3])
    @pytest.mark.parametrize("size", [1, 1_000, 10 ** 6])
    def test_chunk_size_moves_no_byte(self, lockstep_steps, monkeypatch, J, size):
        # Chunks of one row, of a few, and of the whole stack: every row has
        # the bytes of the shipped chunk size.
        mean, L, rank_tol = lockstep_factors(lockstep_steps, J, 2_000)
        shipped = morphing._expected_grams(mean, L, 2_000, rank_tol)
        monkeypatch.setattr(morphing, "_EXPECT_SIZE", size)
        for a, b in zip(morphing._expected_grams(mean, L, 2_000, rank_tol), shipped):
            assert_same_bits(a, b)
        assert not (2_000 * shipped[1] < 1.0).all()

    @pytest.mark.parametrize("J", [2, 3])
    @pytest.mark.parametrize("count", [2_000, 200_000])
    def test_line_sums_agree_with_the_kappa_and_k_assembly(self, lockstep_steps, monkeypatch,
                                                             J, count):
        # Every captured step row: the Gram matrix summed line by line is
        # within 4 eps of its largest entry of the one rebuilt from the line
        # sums kappa and K (``reference_expected_chunk``), the rank agrees,
        # and the kept probability, so the quiet flag, has the same bytes.
        mean, L, rank_tol = lockstep_factors(lockstep_steps, J, count)
        grams, kept = morphing._expected_grams(mean, L, count, rank_tol)
        monkeypatch.setattr(morphing, "_expected_chunk", reference_expected_chunk)
        old_grams, old_kept = morphing._expected_grams(mean, L, count, rank_tol)
        assert_same_bits(kept, old_kept)
        bound = 4 * np.finfo(float).eps * np.abs(old_grams).max(axis=(1, 2))
        assert np.all(np.abs(grams - old_grams) <= bound[:, None, None])
        zeros = np.zeros((len(L), 2 * J - 2))
        np.testing.assert_array_equal(morphing._project_off_span(zeros, grams, rank_tol)[1],
                                      morphing._project_off_span(zeros, old_grams, rank_tol)[1])
        quiet = count * kept < 1.0
        assert 0 < quiet.sum() < len(quiet) or (J, count) == (3, 200_000)

    @pytest.mark.parametrize("J", [2, 3])
    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_scaling_the_gradient_and_cutoff_scales_the_gram(self, lockstep_steps, J, scale):
        # w = mean_w + L[1:] z and the cutoff scaled by a power of two: every
        # step of the rule scales exactly, so each row's Gram matrix is
        # scale^2 times its own, bit for bit, and its kept probability is unchanged.
        for count in (2_000, 200_000):
            mean, L, rank_tol = lockstep_factors(lockstep_steps, J, count)
            grams, kept = morphing._expected_grams(mean, L, count, rank_tol)
            mean, L = mean.copy(order="K"), L.copy(order="K")
            mean[:, 1:] *= scale
            L[:, 1:] *= scale
            scaled = morphing._expected_grams(mean, L, count, rank_tol * scale)
            assert_same_bits(scaled[0], grams * scale ** 2)
            assert_same_bits(scaled[1], kept)
            quiet = count * kept < 1.0
            assert 0 < quiet.sum() < len(quiet) or (J, count) == (3, 200_000)

    @pytest.mark.parametrize("J", [2, 3])
    def test_negating_the_gradient_leaves_the_gram(self, lockstep_steps, J):
        # w -> -w: the kept test reads |w| and the Gram matrix w w^T, and the
        # rule's arithmetic flips only signs, so every row keeps its bytes.
        for count in (2_000, 200_000):
            mean, L, rank_tol = lockstep_factors(lockstep_steps, J, count)
            whole = morphing._expected_grams(mean, L, count, rank_tol)
            mean, L = mean.copy(order="K"), L.copy(order="K")
            mean[:, 1:] *= -1.0
            L[:, 1:] *= -1.0
            for a, b in zip(morphing._expected_grams(mean, L, count, rank_tol), whole):
                assert_same_bits(a, b)

    @pytest.mark.parametrize("J", [2, 3])
    @pytest.mark.parametrize("count", [2_000, 200_000])
    def test_grams_are_symmetric_and_positive_semidefinite(self, lockstep_steps, J, count):
        # Each ray's kept moment of s(a)^2 w w^T is positive semidefinite,
        # and the rule's weights are positive: on every captured step row the
        # Gram matrix is symmetric, bit for bit, its eigenvalues are
        # nonnegative but for rounding, and its kept probability lies in
        # [0, 1] but for the rule's error in z0.  At 2,000 draws, 4-node
        # panels over [-8, 8] take the normal's mass to 3.2e-8 (12 panels)
        # and 1.3e-4 (6), and the captured rows' largest is 1 + 1.7e-4.
        mean, L, rank_tol = lockstep_factors(lockstep_steps, J, count)
        grams, kept = morphing._expected_grams(mean, L, count, rank_tol)
        assert_same_bits(grams, grams.transpose(0, 2, 1))
        evals = np.linalg.eigvalsh(grams)
        assert np.all(evals[:, 0] >= -1e-12 * np.abs(evals[:, -1]))
        assert np.all(kept >= 0.0) and np.all(kept <= 1.0 + (5e-4 if count == 2_000 else 1e-12))
        assert (evals[:, -1] > 0.0).any()


def lifted(J):
    """(2J + 1, 2J - 1): maps (a, w) in tangent coordinates back to (a, v)."""
    out = np.zeros((2 * J + 1, 2 * J - 1))
    out[0, 0], out[1:, 1:] = 1.0, _tangent_basis(J)
    return out


class TestStepFactors:
    """The step's draw of (logit, tangent gradient) against the maps of the
    old (count, r) draw, whose factor comes from the covariance's Cholesky
    factor and an SVD: the same law, from 2J - 1 normals."""

    @pytest.mark.parametrize("J", [2, 3])
    @pytest.mark.parametrize("basis", [ISplineBasis(knots=10, degree=3, domain=(0.0, 10.0)),
                                       PolynomialBasis(order=6, domain=(0.0, 10.0)),
                                       PolynomialBasis(order=2, domain=(0.0, 10.0))],
                             ids=["ispline", "polynomial", "polynomial-2"])
    @pytest.mark.parametrize("shared_payoff", [False, True])
    def test_covariance_equals_the_old_maps(self, J, basis, shared_payoff):
        # The 2-term polynomial gives a utility covariance of rank 2 < 2J - 1,
        # and a shared payoff makes it singular: still 2J - 1 normals.
        rng = np.random.default_rng(70 + J)
        R = 6
        menus = [sample_random_menu(rng, J, 0.0, 10.0) for _ in range(R)]
        if shared_payoff:
            for Z, _ in menus:
                Z[1, 0] = Z[0, -1]
        rows = np.array([np.concatenate([basis.eval(z) for z in Z]) for Z, _ in menus])
        probs = np.array([P for _, P in menus])
        H = rng.normal(0.0, 2.0, size=(R, 4, basis.dim))
        mean, L = _step_factors(probs, H, rows, _tangent_basis(J))
        assert L.shape == (R, 2 * J - 1, 2 * J - 1)
        flip = np.repeat([-1.0, 1.0], J)
        for k in range(R):
            old_mean, factor = reference_utility_factor(H[k], rows[k])
            logit = np.concatenate([-probs[k, 0], probs[k, 1]])
            old = np.concatenate([(logit @ factor)[None], tangent((flip[:, None] * factor).T, J).T])
            cov, lift = old @ old.T, lifted(J) @ L[k]
            np.testing.assert_allclose(lift @ lift.T, cov, rtol=0, atol=1e-12 * np.abs(cov).max())
            old_mean = np.concatenate([[logit @ old_mean], tangent(flip * old_mean, J)])
            np.testing.assert_allclose(lifted(J) @ mean[k], old_mean, rtol=0,
                                       atol=1e-12 * np.abs(old_mean).max())
            # The logit reads the first normal alone.
            assert np.all(L[k, 0, 1:] == 0.0)
            ref_mean, ref_L = reference_step_factor(probs[k], H[k], rows[k])
            assert_same_bits(mean[k], ref_mean)
            assert_same_bits(L[k], ref_L)


class TestAgainstOldLayout:
    """At 200k samples the step in expectation agrees with the old (count, r)
    draw of gradients within the draw's Monte Carlo error."""

    @pytest.mark.parametrize("J", [2, 3])
    def test_direction_and_rank_agree(self, J):
        count, cfg = 200_000, MorphConfig(n_gradient_samples=200_000)
        rng = np.random.default_rng(60 + J)
        compared, ranks = 0, set()
        for trial in range(10):
            g, menu, history, rows = morph_like_state(rng, J)
            step, rank = morph_step_direction(g, probs_of(menu), history, rows, cfg)
            G = tangent(sampled_gradients(history, count, np.random.default_rng(1000 + trial),
                                          rows, menu), J)
            g_t = tangent(g, J)
            reference = null_space_projection(g_t, G, cfg.rank_tol)
            # Standard errors of the sample's Gram matrix, in its own
            # eigenbasis: the step in expectation has no Monte Carlo error.
            G[np.linalg.norm(G, axis=1) <= cfg.rank_tol] = 0.0
            evals, vecs = np.linalg.eigh(G.T @ G)
            Y = G @ vecs
            se = np.sqrt(count) * (Y[:, :, None] * Y[:, None, :]).std(axis=0)
            cut = cfg.rank_tol ** 2 * evals[-1]
            kept = evals > cut
            # An eigenvalue within 5 standard errors of the cutoff may fall on
            # either side of it; such states are not comparable.
            if np.any(np.abs(evals - cut) <= 5 * (np.diag(se) + cfg.rank_tol ** 2 * se[-1, -1])):
                continue
            assert rank == kept.sum()
            # First-order perturbation of the kept span (Davis and Kahan):
            # its projector moves by the kept-dropped coupling over the gap.
            atol = 1e-12
            if kept.any() and not kept.all():
                gap = evals[kept].min() - evals[~kept].max()
                atol += 6 * np.linalg.norm(se[np.ix_(kept, ~kept)]) / gap * np.linalg.norm(g_t)
            np.testing.assert_allclose(step, reference, rtol=0, atol=atol)
            compared += 1
            ranks.add(rank)
        assert compared >= 7 and len(ranks) >= 2


class NanGradPredictor(CptPredictor):
    def grad_batch(self, Z, P):
        f, df = super().grad_batch(Z, P)
        return f, np.full_like(df, np.nan)


class TestStopRecord:
    """Morph candidates record why they stopped and the rank they kept."""

    def test_each_stop_value(self):
        pred = CptPredictor(CptParams(0.726, 0.309))
        # At the smallest cutoff this run's span fills after one step.
        (vanished,) = run_morph_indices(
            pred, pipeline_config(6, morph={"rank_tol": MIN_RANK_TOL}), [2])
        (capped,) = run_morph_indices(pred, pipeline_config(11, morph={"max_iters": 2}), [3])
        (nonfinite,) = run_morph_indices(NanGradPredictor(CptParams(0.726, 0.309)),
                                         pipeline_config(6), [0])
        recs = [vanished, capped, nonfinite]
        assert [r["stop"] for r in recs] == ["direction_vanished", "max_iters",
                                             "nonfinite_gradient"]
        # Each step's inner fit is counted, the one that found no gradient too.
        for rec, fits in zip(recs, (2, 2, 1)):
            assert 0 <= rec["inner_fits_on_bound"] <= fits
            assert 0 <= rec["inner_fits_unconverged"] <= fits
        # A full tangent span (rank 2 for J = 2) leaves no direction.
        assert recs[0]["iterations"] == 1 and recs[0]["retained_rank"] == 2
        assert recs[1]["iterations"] == 2 and recs[1]["retained_rank"] in (0, 1)
        # No step reached the projection, so no rank was retained.
        assert recs[2]["iterations"] == 0 and recs[2]["retained_rank"] is None
        assert recs[2]["flags"] == ["nonfinite_gradient@iter0"]

    def test_search_records_stop_and_baseline_records_do_not(self):
        pred = CptPredictor(CptParams(0.726, 0.309))
        cfg = pipeline_config(6, adversarial={"max_iters": 2})
        (rec,) = run_adversarial_indices(pred, cfg, [0])
        assert rec["stop"] == "max_iters" and "retained_rank" not in rec
        (base,) = run_baseline_indices(pred, cfg, [0])
        assert not base.keys() & {"stop", "retained_rank", "inner_fits_on_bound",
                                  "inner_fits_unconverged"}
