import copy
import math
import os
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from anomgen import morphing
from anomgen.adversarial import index_block, run_adversarial_indices
from anomgen.basis import ISplineBasis, PolynomialBasis
from anomgen.cpt import CptParams, CptPredictor, logistic
from anomgen.morphing import (COV_JITTER, MorphConfig, _step_factors, _tangent_basis,
                              morph_step_directions, run_morph_indices)
from anomgen.theory import _fit_logits, eu_difference_rows, stack_basis_values
from conftest import (fit_theta, flat, grad, morph_step_direction, null_space_projection,
                      pipeline_config, predict, record_menus, reference_certificate,
                      reference_step_direction, reference_step_factor, reference_utility_factor,
                      sample_random_menu, sample_step_gradients, sample_theta_history,
                      search_iterates, stack, tangent)


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

    def test_single_entry_fallback(self):
        # There is no isotropic fallback for a one-fit history: it raises
        # before drawing, so the generator's stream is untouched.
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="at least two fits"):
            sample_theta_history([np.arange(5.0)], 20_000, rng, np.eye(5))
        assert rng.random() == np.random.default_rng(0).random()

    def test_empty_history_rejected(self):
        # A run samples after the seed fit and its first step's fit, so a
        # history always holds two fits; fewer has no covariance to draw from.
        for history in (np.empty((0, 3)), [np.arange(3.0)]):
            with pytest.raises(ValueError):
                sample_theta_history(history, 10, np.random.default_rng(0),
                                     np.eye(3))


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


def gap_tolerance(kept_rows, rank_tol):
    """Gap-dependent tolerance of the Gram route against an SVD, or None when
    a singular value lies within 1% of the cutoff (either side is then right).

    1e-10 while the weakest retained singular value is at least 1e-3 of the
    largest, ``100 eps / ratio**2`` below that."""
    if kept_rows.shape[0] == 0:
        return 1e-10
    ratios = np.linalg.svd(kept_rows, compute_uv=False)
    ratios = ratios / ratios[0]
    if np.any(np.abs(ratios / rank_tol - 1.0) < 0.01):
        return None
    weakest = ratios[ratios > rank_tol].min()
    return 1e-10 if weakest >= 1e-3 else 1e2 * np.finfo(float).eps / weakest ** 2


def svd_projection(g_star, sampled_grads, rank_tol):
    """Reference: the span from an SVD of the filtered sampled gradients."""
    G = sampled_grads[np.linalg.norm(sampled_grads, axis=1) > rank_tol]
    if G.shape[0] == 0:
        return g_star.copy()
    _, svals, Vt = np.linalg.svd(G, full_matrices=False)
    V = Vt[svals > rank_tol * svals[0]]
    return g_star - V.T @ (V @ g_star)


class TestGramMatchesSvd:
    @pytest.mark.parametrize("rank_tol", [0.1, 1e-6])
    def test_morph_like_gradients(self, rank_tol):
        # Sampled gradients built as a morph step builds them, around the inner
        # fits at a random start menu and at a second menu with its payoffs.
        pred = CptPredictor(CptParams(0.726, 0.309))
        basis = ISplineBasis(knots=10, degree=3, domain=(0.0, 10.0))
        rng = np.random.default_rng(18)
        compared = 0
        for _ in range(25):
            x0 = sample_random_menu(rng, 2, 0.0, 10.0)
            rows = np.concatenate([basis.eval(z) for z in x0[0]])
            f0 = predict(pred, x0)
            menu = x0[0], np.stack([rng.dirichlet([2, 2]), rng.dirichlet([2, 2])])
            history = [fit_theta(basis, *stack([x0]), [f0]).theta,
                       fit_theta(basis, *stack([x0, menu]), [f0, predict(pred, menu)]).theta]
            step_rng = copy.deepcopy(rng)             # the same draws for the step
            G_t = sample_step_gradients(probs_of(menu), history, 200_000, rng, rows)
            g = grad(pred, menu)
            g_t = tangent(g, 2)
            # A singular value within 1% of the cutoff may fall on either
            # side of it under the two routes' rounding; such cases are not
            # comparable and must stay rare.
            kept = G_t[np.linalg.norm(G_t, axis=1) > rank_tol]
            if kept.shape[0]:
                ratios = np.linalg.svd(kept, compute_uv=False)
                ratios = ratios / ratios[0]
                if np.any(np.abs(ratios / rank_tol - 1.0) < 0.01):
                    continue
            reference = svd_projection(g_t, G_t, rank_tol)
            np.testing.assert_allclose(null_space_projection(g_t, G_t, rank_tol),
                                       reference, rtol=0, atol=1e-10)
            step, _ = morph_step_direction(
                g, probs_of(menu), history, rows, step_rng,
                MorphConfig(n_gradient_samples=200_000, rank_tol=rank_tol))
            np.testing.assert_allclose(step, reference, rtol=0, atol=1e-10)
            compared += 1
        assert compared >= 23

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
        # Force rank_tol to the smallest accepted cutoff: the sampled ensemble
        # spans the tangent space, the projected direction is ~0 and the run
        # stops at step 0.
        pred = CptPredictor(CptParams(0.726, 0.309))
        cfg = pipeline_config(6, morph={"rank_tol": morphing.MIN_RANK_TOL})
        (result,) = run_morph_indices(pred, cfg, [0])
        assert result["iterations"] == 0
        m0, mS = record_menus(result)
        np.testing.assert_array_equal(flat(m0), flat(mS))

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


class TestMorphStepDirection:
    def test_descent_against_predictor_gradient(self):
        # Criterion-8 style property on random tangent states: the step
        # descends the tangent predictor gradient and is orthogonal to every
        # retained sampled gradient of its own draws.
        rng = np.random.default_rng(11)
        for _ in range(200):
            g = rng.normal(size=4)
            rows = rng.normal(size=(4, 5))            # random basis values
            history = list(rng.normal(size=(int(rng.integers(2, 5)), 5)))
            menu = sample_random_menu(rng, 2, 0.0, 10.0)
            count = int(rng.integers(1, 6))
            twin = copy.deepcopy(rng)
            v, rank = morph_step_direction(
                g, probs_of(menu), history, rows, rng,
                MorphConfig(n_gradient_samples=count, rank_tol=1e-6))
            grads = sample_step_gradients(probs_of(menu), history, count, twin, rows)
            assert 0 <= rank <= min(count, 2)
            g_t = tangent(g, 2)
            assert -(v @ g_t) <= 1e-10
            # Orthogonal to every retained (tangent-projected) gradient.
            for row in grads:
                assert abs(v @ row) <= 1e-6 * (np.linalg.norm(v) + 1e-300) * \
                    (np.linalg.norm(row) + 1e-300) + 1e-12


class RecordingRng:
    """Passes ``standard_normal`` through to a generator, by ``size`` or into
    ``out``, and keeps a copy of each draw (a step reuses its ``out``)."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.draws = []

    def standard_normal(self, size=None, out=None):
        out = self.rng.standard_normal(size, out=out)
        self.draws.append(out.copy())
        return out


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


class TestBlockedGram:
    """The blocked step against the whole-array route on the same draws."""

    @pytest.mark.parametrize("rank_tol", [0.1, 1e-6])
    @pytest.mark.parametrize("J", [2, 3])
    def test_matches_null_space_projection(self, rank_tol, J):
        count = 2 * morphing._DRAW_BLOCK + 17
        rng = np.random.default_rng(31 + J)
        compared = skipped = certified = 0
        ranks = set()
        for _ in range(12):
            g, menu, history, rows = morph_like_state(rng, J)
            cfg = MorphConfig(n_gradient_samples=count, rank_tol=rank_tol)
            twin, start = copy.deepcopy(rng), copy.deepcopy(rng)
            step, rank = morph_step_direction(g, probs_of(menu), history, rows, rng, cfg)
            G_t = sample_step_gradients(probs_of(menu), history, count, twin, rows)
            if reference_certificate(probs_of(menu), history, rows, count, rank_tol)[1]:
                # A certified step consumed none of the stream, and its
                # direction is the one its sampled Gram matrix gives.
                assert rng.bit_generator.state == start.bit_generator.state
                assert_same_bits(step, reference_step_direction(g, probs_of(menu), history, rows,
                                                                start, cfg)[0])
                certified += 1
                rng = twin              # the next state as if the step had drawn
            else:
                # A drawn step consumed the stream the whole draw did.
                assert rng.bit_generator.state == twin.bit_generator.state
            kept = G_t[np.linalg.norm(G_t, axis=1) > rank_tol]
            atol = gap_tolerance(kept, rank_tol)
            if atol is None:
                skipped += 1
                continue
            np.testing.assert_allclose(
                step, null_space_projection(tangent(g, J), G_t, rank_tol),
                rtol=0, atol=atol)
            expected = 0
            if kept.size:
                svals = np.linalg.svd(kept, compute_uv=False)
                expected = int(np.sum(svals > rank_tol * svals[0]))
            assert rank == expected
            ranks.add(rank)
            compared += 1
        assert skipped <= 2 and compared >= 10
        # At the default cutoff the states cover more than one retained rank;
        # at 1e-6 every sampled span fills the tangent space.
        assert len(ranks) >= 2 or rank_tol < 1e-3
        # The J = 2 states at the default cutoff include certified steps.
        assert certified >= 1 or (J, rank_tol) != (2, 0.1)

    def test_block_size_moves_no_draw(self, monkeypatch):
        # Two block sizes read the same (count, d) stream as one whole draw
        # and agree on the direction within the gap-dependent tolerance; a
        # certified step reads none of it at either size.
        count = 3 * 4096 + 17
        rng = np.random.default_rng(37)
        compared = certified = 0
        for trial in range(8):
            g, menu, history, rows = morph_like_state(rng, 2)
            cfg = MorphConfig(n_gradient_samples=count)
            results = {}
            for block in (1000, 4096):
                monkeypatch.setattr(morphing, "_DRAW_BLOCK", block)
                recorder = RecordingRng(trial)
                step, rank = morph_step_direction(g, probs_of(menu), history, rows,
                                                  recorder, cfg)
                assert [d.shape[0] for d in recorder.draws[:-1]] == \
                    [block] * (len(recorder.draws) - 1)
                results[block] = (recorder.draws, step, rank, recorder.rng.bit_generator.state)
            (z1, step1, rank1, state1), (z2, step2, rank2, state2) = results.values()
            whole = np.random.default_rng(trial)
            if reference_certificate(probs_of(menu), history, rows, count, cfg.rank_tol)[1]:
                assert z1 == z2 == []
                assert state1 == state2 == whole.bit_generator.state
                assert rank1 == rank2 == 0
                assert_same_bits(step1, step2)
                assert_same_bits(step1, reference_step_direction(g, probs_of(menu), history, rows,
                                                                 whole, cfg)[0])
                certified += 1
                continue
            z1, z2 = np.concatenate(z1), np.concatenate(z2)
            np.testing.assert_array_equal(z1, whole.standard_normal(z1.shape))
            np.testing.assert_array_equal(z1, z2)
            assert state1 == state2 == whole.bit_generator.state
            G_t = sample_step_gradients(probs_of(menu), history, count,
                                        np.random.default_rng(trial), rows)
            atol = gap_tolerance(G_t[np.linalg.norm(G_t, axis=1) > cfg.rank_tol],
                                 cfg.rank_tol)
            if atol is None:
                continue
            assert rank1 == rank2
            np.testing.assert_allclose(step1, step2, rtol=0, atol=atol)
            compared += 1
        assert certified >= 1 and compared + certified >= 6


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
    @pytest.mark.parametrize("count, h", [(17, 7), (2000, 6), (morphing._DRAW_BLOCK, 2),
                                          (3 * morphing._DRAW_BLOCK + 17, 3)])
    def test_rows_equal_their_own_steps(self, count, h, J):
        cfg = MorphConfig(n_gradient_samples=count)
        g, probs, H, rows = morph_like_stack(np.random.default_rng(50 + J), 64, J, h)
        certified = np.array([reference_certificate(probs[k], H[k], rows[k], count,
                                                    cfg.rank_tol)[1] for k in range(64)])
        alone, reference, states = [], [], []
        for k in range(64):
            rng, ref_rng = np.random.default_rng(k), np.random.default_rng(k)
            alone.append(morph_step_direction(g[k], probs[k], list(H[k]), rows[k], rng, cfg))
            reference.append(reference_step_direction(g[k], probs[k], list(H[k]), rows[k],
                                                      ref_rng, cfg))
            # A drawn row consumes the stream the reference's whole draw
            # does; a certified row consumes none of it.
            expected = np.random.default_rng(k) if certified[k] else ref_rng
            assert rng.bit_generator.state == expected.bit_generator.state
            states.append(rng.bit_generator.state)
        # Every row, certified or drawn, has the bits of the reference's
        # sampled step.
        for (direction, rank), (ref_direction, ref_rank) in zip(alone, reference):
            assert_same_bits(direction, ref_direction)
            assert rank == ref_rank
        for R in (1, 7, 29, 64):
            rngs = [np.random.default_rng(k) for k in range(R)]
            directions, ranks, spared = morph_step_directions(g[:R], probs[:R], H[:R], rows[:R],
                                                              rngs, cfg)
            assert directions.shape == (R, 2 * J) and ranks.shape == (R,)
            np.testing.assert_array_equal(spared, certified[:R])
            for k in range(R):
                assert_same_bits(directions[k], alone[k][0])
                assert ranks[k] == alone[k][1]
                assert rngs[k].bit_generator.state == states[k]
        # The stack of 64 groups rows of more than one retained rank.
        assert len(set(ranks.tolist())) >= 2
        # Two fits at J = 2 leave some rows a narrow law that certifies.
        assert certified.any() or (J, h) != (2, 2)

    def test_one_fit_history_rejected_before_drawing(self):
        g, probs, H, rows = morph_like_stack(np.random.default_rng(3), 1, 2, 2)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="at least two fits"):
            morph_step_direction(g[0], probs[0], H[0, :1], rows[0], rng, MorphConfig())
        assert rng.random() == np.random.default_rng(0).random()


class ThreadRecordingRng:
    """Passes ``standard_normal`` through to a generator and notes the thread
    of each call; ``fill``, when given, then overwrites the draw or raises."""

    def __init__(self, seed, fill=None):
        self.rng = np.random.default_rng(seed)
        self.fill = fill
        self.threads = []

    def standard_normal(self, size=None, out=None):
        self.threads.append(threading.get_ident())
        out = self.rng.standard_normal(size, out=out)
        if self.fill is not None:
            out[...] = self.fill()
        return out


def with_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


class TestThreadedDraws:
    """A stack's runs are drawn on as many threads as the process has CPUs,
    up to one per run, once a run draws more than one block; the bytes do
    not depend on the thread count."""

    @pytest.mark.parametrize("J", [2, 3])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_rows_equal_their_own_steps_on_any_thread_count(self, monkeypatch, cpus, J):
        count, R = 3 * morphing._DRAW_BLOCK + 17, 7
        cfg = MorphConfig(n_gradient_samples=count)
        g, probs, H, rows = morph_like_stack(np.random.default_rng(60 + J), R, J, 4)
        alone_rngs = [np.random.default_rng(k) for k in range(R)]
        alone = [morph_step_direction(g[k], probs[k], list(H[k]), rows[k], alone_rngs[k], cfg)
                 for k in range(R)]
        with_cpus(monkeypatch, cpus)
        assert morphing.draw_threads(R, count) == cpus
        rngs = [ThreadRecordingRng(k) for k in range(R)]
        # Switch threads often, so that a buffer or Gram row two threads
        # shared would be overwritten mid-block.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            directions, ranks, _ = morph_step_directions(g, probs, H, rows, rngs, cfg)
        finally:
            sys.setswitchinterval(interval)
        for k in range(R):
            assert_same_bits(directions[k], alone[k][0])
            assert ranks[k] == alone[k][1]
            assert rngs[k].rng.bit_generator.state == alone_rngs[k].bit_generator.state
            # Each run is drawn whole by one thread, block after block.
            assert len(rngs[k].threads) == 4 and len(set(rngs[k].threads)) == 1
        threads = [r.threads[0] for r in rngs]
        assert len(set(threads)) == cpus
        assert threads[0] == threading.get_ident()

    @pytest.mark.parametrize("count", [17, morphing._DRAW_BLOCK])
    def test_one_block_draws_on_the_calling_thread(self, monkeypatch, count):
        with_cpus(monkeypatch, 3)
        assert morphing.draw_threads(7, count) == 1
        g, probs, H, rows = morph_like_stack(np.random.default_rng(5), 7, 2, 3)
        rngs = [ThreadRecordingRng(k) for k in range(7)]
        before = threading.active_count()
        morph_step_directions(g, probs, H, rows, rngs, MorphConfig(n_gradient_samples=count))
        assert {t for r in rngs for t in r.threads} == {threading.get_ident()}
        assert threading.active_count() == before

    def test_error_in_a_thread_share_is_raised_and_every_thread_joined(self, monkeypatch):
        with_cpus(monkeypatch, 2)
        g, probs, H, rows = morph_like_stack(np.random.default_rng(6), 7, 2, 3)

        def fail():
            raise RuntimeError("generator failed")

        rngs = [ThreadRecordingRng(k) for k in range(6)] + [ThreadRecordingRng(6, fail)]
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="generator failed"):
            morph_step_directions(g, probs, H, rows, rngs,
                                  MorphConfig(n_gradient_samples=2 * morphing._DRAW_BLOCK + 1))
        assert rngs[6].threads and rngs[6].threads[0] != threading.get_ident()
        assert threading.active_count() == before

    def test_threads_keep_the_callers_error_state(self, monkeypatch):
        # Infinite normals in a thread's share make its gradients invalid:
        # numpy warns there as it would on the calling thread, and stays
        # silent there under the caller's errstate.
        with_cpus(monkeypatch, 2)
        count = 2 * morphing._DRAW_BLOCK + 1
        cfg = MorphConfig(n_gradient_samples=count)
        g, probs, H, rows = morph_like_stack(np.random.default_rng(7), 7, 2, 3)

        def step():
            rngs = [ThreadRecordingRng(k) for k in range(6)] + \
                [ThreadRecordingRng(6, lambda: np.inf)]
            return rngs, morph_step_directions(g, probs, H, rows, rngs, cfg)

        with pytest.warns(RuntimeWarning, match="invalid value"):
            step()
        with np.errstate(invalid="ignore"):
            rngs, (directions, _, _) = step()
        assert rngs[6].threads[0] != threading.get_ident()
        for k in range(6):
            assert_same_bits(directions[k],
                             morph_step_direction(g[k], probs[k], list(H[k]), rows[k],
                                                  np.random.default_rng(k), cfg)[0])


def chi2_tail(d, t):
    """P(chi-square with d degrees of freedom > t), in closed form for d = 3, 5."""
    r = math.sqrt(t)
    head = math.sqrt(2 / math.pi) * r * math.exp(-t / 2)
    return math.erfc(r / math.sqrt(2)) + head * {3: 1.0, 5: 1.0 + t / 3}[d]


@pytest.fixture(scope="module")
def lockstep_steps():
    """Morph runs of seed 4 (CPT bruhin-b), 30 runs of up to 10 steps at
    2,000 samples and 16 runs of up to 3 steps at 200,000: per sample count,
    the (inputs, outputs) of each step's ``morph_step_directions`` call, the
    runs' generators and their records."""
    pred = CptPredictor(CptParams(0.726, 0.309))
    original = morphing.morph_step_directions
    out = {}
    for count, runs, iters in ((2_000, 30, 10), (200_000, 16, 3)):
        cfg = pipeline_config(4, morph={"n_gradient_samples": count, "max_iters": iters})
        Z, P, rngs = index_block(cfg, range(runs), 1)
        steps = []

        def capture(*args, **kwargs):
            steps.append((args, original(*args, **kwargs)))
            return steps[-1][1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(morphing, "morph_step_directions", capture)
            recs = morphing.morph_lockstep(pred, cfg.morph, ISplineBasis(), Z[:, 0], P[:, 0],
                                           rngs, cfg.seed, range(runs))
        out[count] = steps, rngs, recs
    return out


class TestCertificate:
    """A step whose every draw the kept test would drop is proved so from
    its factors (``morphing._certified``) and draws nothing."""

    @pytest.mark.parametrize("J", [2, 3])
    @pytest.mark.parametrize("count", [1, 2_000, 200_000])
    def test_bound_and_radius(self, count, J):
        # Zero means, a zero logit factor and gradient rows of spectral norm
        # lam: the bound is sigma'(0) lam R = lam R / 4, so the certificate
        # flips where that meets rank_tol (1 - CERTIFY_MARGIN).
        d, rank_tol = 2 * J - 1, 0.1
        x = math.log(count / morphing.CERTIFY_MISS)
        radius = math.sqrt(d + 2 * math.sqrt(d * x) + 2 * x)
        edge = 4 * rank_tol * (1 - morphing.CERTIFY_MARGIN) / radius
        L = np.zeros((3, d, d))
        L[:, 1:, 1:] = np.eye(d - 1) * np.array([edge * (1 - 1e-6), edge * (1 + 1e-6),
                                                 edge * 10])[:, None, None]
        L[2, 0, 0] = 1.0
        mean = np.zeros((3, d))
        mean[2, 0] = 40.0               # |a| >= 40 - R: a slope of e^-(40 - R)
        certified = morphing._certified(mean, L, count, rank_tol)
        assert certified.tolist() == [True, False, True]
        # Laurent and Massart's radius holds every draw of the step with
        # probability at least 1 - CERTIFY_MISS.
        assert count * chi2_tail(d, radius ** 2) <= morphing.CERTIFY_MISS

    def test_a_factor_that_is_not_finite_is_not_certified(self):
        mean, L = np.zeros((4, 3)), np.zeros((4, 3, 3))
        mean[0, 0], L[1, 1, 1], L[2, 2, 0], mean[3, 1] = np.nan, np.inf, np.nan, np.inf
        with np.errstate(invalid="ignore"):
            assert not morphing._certified(mean, L, 2_000, 0.1).any()

    @pytest.mark.parametrize("count", [2_000, 200_000])
    def test_records_count_their_certified_steps(self, lockstep_steps, count):
        steps, rngs, recs = lockstep_steps[count]
        certified_steps = Counter()
        for (*_, step_rngs, _), (_, _, certified) in steps:
            certified_steps.update(next(r for r, rng in enumerate(rngs) if rng is step_rng)
                                   for step_rng, spared in zip(step_rngs, certified) if spared)
        assert [rec["certified_steps"] for rec in recs] == \
            [certified_steps[r] for r in range(len(recs))]
        assert sum(certified_steps.values()) > 0

    @pytest.mark.parametrize("count", [2_000, 200_000])
    def test_certified_rows_keep_no_draw(self, lockstep_steps, count):
        # The steps of real runs: the certificate agrees with the reference
        # bound, and each certified row's sampled gradients, drawn here
        # anyway, all fall under the bound and so under rank_tol.
        steps, _, _ = lockstep_steps[count]
        checked = 0
        for (g, probs, H, rows, _, cfg), (directions, ranks, certified) in steps:
            for k in range(len(g)):
                bound, expected = reference_certificate(probs[k], H[k], rows[k], count,
                                                        cfg.rank_tol)
                assert certified[k] == expected
                if not certified[k]:
                    continue
                G = sample_step_gradients(probs[k], H[k], count,
                                          np.random.default_rng(checked), rows[k])
                assert np.linalg.norm(G, axis=1).max() <= bound <= cfg.rank_tol
                assert ranks[k] == 0
                np.testing.assert_allclose(directions[k], tangent(g[k], probs.shape[-1]),
                                           rtol=0, atol=1e-14 * np.abs(g[k]).max())
                checked += 1
        # At step 0 a fifth of the runs or more are certified.
        assert steps[0][1][2].mean() >= 0.2 and checked >= 10

    def test_certified_rows_are_never_drawn_on_any_thread_count(self, lockstep_steps,
                                                                monkeypatch):
        # The first 200k step of 16 runs: the drawn rows, and only they,
        # are shared out, and the bytes do not depend on the thread count.
        (g, probs, H, rows, _, cfg), (_, _, certified) = lockstep_steps[200_000][0][0]
        assert 0 < certified.sum() < len(g)
        blocks = -(-cfg.n_gradient_samples // morphing._DRAW_BLOCK)
        outs = []
        for cpus in (1, 2):
            with_cpus(monkeypatch, cpus)
            rngs = [ThreadRecordingRng(k) for k in range(len(g))]
            outs.append(morph_step_directions(g, probs, H, rows, rngs, cfg))
            drawn = [r.threads for r, spared in zip(rngs, certified) if not spared]
            assert all(not r.threads for r, spared in zip(rngs, certified) if spared)
            assert all(len(t) == blocks and len(set(t)) == 1 for t in drawn)
            # Each thread draws an even share of the uncertified rows.
            per_thread = Counter(t[0] for t in drawn)
            assert len(per_thread) == cpus
            assert max(per_thread.values()) - min(per_thread.values()) <= 1
        for a, b in zip(*outs):
            assert_same_bits(a, b)
        np.testing.assert_array_equal(outs[0][2], certified)


class BlockRng:
    """Hands out the rows of a held (count, d) block of normals in order, as
    a generator's ``standard_normal`` would draw them."""

    def __init__(self, block):
        self.block, self.row = block, 0

    def standard_normal(self, size):
        out = self.block[self.row:self.row + size[0]]
        assert out.shape == size
        self.row += size[0]
        return out


class TestCommonRandomNumbers:
    """A run draws its normals once, at its first step that draws, and each
    later step maps that block through its own factor."""

    @pytest.mark.parametrize("count, runs, iters", [(2_000, 24, 8),
                                                    (3 * morphing._DRAW_BLOCK + 17, 8, 4)])
    def test_later_steps_map_the_first_drawing_steps_normals(self, count, runs, iters):
        pred = CptPredictor(CptParams(0.726, 0.309))
        cfg = pipeline_config(4, morph={"n_gradient_samples": count, "max_iters": iters})
        Z, P, rngs = index_block(cfg, range(runs), 1)
        _, _, fresh = index_block(cfg, range(runs), 1)
        original, steps = morphing.morph_step_directions, []

        def capture(*args, normals, hold):
            passed = list(normals)
            out = original(*args, normals=normals, hold=hold)
            steps.append((args, passed, list(normals), hold, out))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(morphing, "morph_step_directions", capture)
            morphing.morph_lockstep(pred, cfg.morph, ISplineBasis(), Z[:, 0], P[:, 0], rngs,
                                    cfg.seed, range(runs))
        blocks, later = {}, 0
        for s, ((g, probs, H, rows, step_rngs, _), passed, kept, hold, out) in enumerate(steps):
            assert hold == (s + 1 < iters)
            directions, ranks, certified = out
            for k, rng in enumerate(step_rngs):
                r = next(i for i, run_rng in enumerate(rngs) if run_rng is rng)
                # A run comes to a step with the normals it drew, if any.
                assert (passed[k] is None) == (r not in blocks)
                if certified[k]:
                    assert kept[k] is passed[k]
                    continue
                if r in blocks:
                    # A later drawing step maps the held block and draws nothing.
                    assert kept[k] is passed[k]
                    source = BlockRng(blocks[r])
                    later += 1
                else:
                    # The first drawing step reads the run's generator as a
                    # fresh draw does, and has that draw's bits.
                    d = 2 * probs.shape[-1] - 1
                    blocks[r] = copy.deepcopy(fresh[r]).standard_normal((count, d))
                    source = fresh[r]
                    if hold:
                        np.testing.assert_array_equal(kept[k], blocks[r])
                    else:
                        assert kept[k] is None
                direction, rank = reference_step_direction(g[k], probs[k], H[k], rows[k],
                                                           source, cfg.morph)
                assert_same_bits(directions[k], direction)
                assert ranks[k] == rank
        # Every generator stood still after its run's first drawing step.
        for rng, ref in zip(rngs, fresh):
            assert rng.bit_generator.state == ref.bit_generator.state
        assert len(blocks) >= runs // 2 and later >= runs


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
    """At 200k samples the step agrees with the old (count, r) draw, made
    from an independent stream, within its Monte Carlo error."""

    @pytest.mark.parametrize("J", [2, 3])
    def test_direction_and_rank_agree(self, J):
        count, cfg = 200_000, MorphConfig(n_gradient_samples=200_000)
        rng = np.random.default_rng(60 + J)
        compared, ranks = 0, set()
        for trial in range(10):
            g, menu, history, rows = morph_like_state(rng, J)
            step, rank = morph_step_direction(g, probs_of(menu), history, rows,
                                              np.random.default_rng(trial), cfg)
            G = tangent(sampled_gradients(history, count, np.random.default_rng(1000 + trial),
                                          rows, menu), J)
            g_t = tangent(g, J)
            reference = null_space_projection(g_t, G, cfg.rank_tol)
            # Standard errors of the difference of two estimates of the Gram
            # matrix, in the eigenbasis of the reference's.
            G[np.linalg.norm(G, axis=1) <= cfg.rank_tol] = 0.0
            evals, vecs = np.linalg.eigh(G.T @ G)
            Y = G @ vecs
            se = np.sqrt(2 * count) * (Y[:, :, None] * Y[:, None, :]).std(axis=0)
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
        # Cutoffs below ~1e-2 see a full-rank span at step 0 (MorphConfig).
        (vanished,) = run_morph_indices(pred, pipeline_config(6, morph={"rank_tol": 1e-3}),
                                        [0])
        (capped,) = run_morph_indices(pred, pipeline_config(11, morph={"max_iters": 2}), [3])
        (nonfinite,) = run_morph_indices(NanGradPredictor(CptParams(0.726, 0.309)),
                                         pipeline_config(6), [0])
        recs = [vanished, capped, nonfinite]
        assert [r["stop"] for r in recs] == ["direction_vanished", "max_iters",
                                             "nonfinite_gradient"]
        # A full tangent span (rank 2 for J = 2) leaves no direction.
        assert recs[0]["iterations"] == 0 and recs[0]["retained_rank"] == 2
        assert recs[1]["iterations"] == 2 and recs[1]["retained_rank"] in (0, 1)
        # No step reached the projection, so no rank was retained.
        assert recs[2]["iterations"] == 0 and recs[2]["retained_rank"] is None
        assert recs[2]["flags"] == ["nonfinite_gradient@iter0"]

    def test_other_records_have_no_stop(self):
        pred = CptPredictor(CptParams(0.726, 0.309))
        cfg = pipeline_config(6, adversarial={"max_iters": 2})
        (rec,) = run_adversarial_indices(pred, cfg, [0])
        assert "stop" not in rec and "retained_rank" not in rec
