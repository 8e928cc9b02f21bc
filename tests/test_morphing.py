import math
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anomgen import morphing
from anomgen.adversarial import run_adversarial_indices
from anomgen.analysis import run_baseline_indices
from anomgen.basis import ISplineBasis, PolynomialBasis
from anomgen.config import MIN_RANK_TOL
from anomgen.cpt import CptParams, CptPredictor, logistic
from anomgen.lotteries import index_block, normals_rng, run_rng
from anomgen.morphing import (COV_JITTER, MorphConfig, _step_factors, _tangent_basis,
                              morph_step_directions, run_morph_indices)
from anomgen.theory import _fit_logits, eu_difference_rows, stack_basis_values
from conftest import (fit_theta, flat, grad, morph_step_direction, null_space_projection,
                      per_draw_gram, pipeline_config, predict, record_menus, reference_kept,
                      reference_step_direction, reference_step_factor, reference_utility_factor,
                      sample_random_menu, sample_step_gradients, sample_theta_history,
                      sampled_step_directions, search_iterates, stack, tangent)


class TestSampleThetaHistory:
    # With identity basis rows the utilities are theta itself.
    def test_two_point_history_moments(self):
        h = [np.array([0.0, 1.0]), np.array([2.0, 3.0])]
        draws = sample_theta_history(h, 10_000, normals_rng(1), np.eye(2))
        mean = np.array([1.0, 2.0])
        # Sample covariance of two points is rank one with variance 2.
        se = np.sqrt(2.0 / 10_000)
        assert np.all(np.abs(draws.mean(axis=1) - mean) < 3 * np.sqrt(2) * se * 50)
        np.testing.assert_allclose(np.cov(draws, ddof=1), [[2, 2], [2, 2]], atol=0.1)

    def test_seed_reproducible(self):
        h = [np.zeros(3), np.ones(3)]
        rows = np.arange(12.0).reshape(4, 3)
        a = sample_theta_history(h, 100, normals_rng(2), rows)
        b = sample_theta_history(h, 100, normals_rng(2), rows)
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
        U = sample_theta_history(history, n, normals_rng(13), rows)
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
    """Gap-dependent tolerance of a step against an SVD of float64 gradients,
    or None when a singular value lies within 1% of the cutoff (either side
    is then right).

    The Gram route squares the singular values, so a rounding of the Gram
    matrix of eps times its largest eigenvalue moves the weakest retained
    direction by about eps / ratio**2, ratio its singular value over the
    largest: 1e-10 while that ratio is at least 1e-3, ``100 eps / ratio**2``
    below.  The step maps its draws in float32, whose Gram products round
    at float32's eps instead, which adds ``100 eps32 / ratio**2``, derived the
    same way."""
    if kept_rows.shape[0] == 0:
        return 1e-10
    ratios = np.linalg.svd(kept_rows, compute_uv=False)
    ratios = ratios / ratios[0]
    if np.any(np.abs(ratios / rank_tol - 1.0) < 0.01):
        return None
    weakest = ratios[ratios > rank_tol].min()
    float64 = 1e-10 if weakest >= 1e-3 else 1e2 * np.finfo(float).eps / weakest ** 2
    return float64 + 1e2 * np.finfo(np.float32).eps / weakest ** 2


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
        for seed in range(25):
            x0 = sample_random_menu(rng, 2, 0.0, 10.0)
            rows = np.concatenate([basis.eval(z) for z in x0[0]])
            f0 = predict(pred, x0)
            menu = x0[0], np.stack([rng.dirichlet([2, 2]), rng.dirichlet([2, 2])])
            history = [fit_theta(basis, *stack([x0]), [f0]).theta,
                       fit_theta(basis, *stack([x0, menu]), [f0, predict(pred, menu)]).theta]
            # The step's draws: the normals of its master seed.
            G_t = sample_step_gradients(probs_of(menu), history, 200_000, normals_rng(seed),
                                        rows)
            g = grad(pred, menu)
            g_t = tangent(g, 2)
            # A singular value within 1% of the cutoff may fall on either
            # side of it under the two routes' rounding; such cases are not
            # comparable and must stay rare.
            atol = gap_tolerance(G_t[np.linalg.norm(G_t, axis=1) > rank_tol], rank_tol)
            if atol is None:
                continue
            reference = svd_projection(g_t, G_t, rank_tol)
            np.testing.assert_allclose(null_space_projection(g_t, G_t, rank_tol),
                                       reference, rtol=0, atol=1e-10)
            # The sampler maps the same normals in float32.
            step, rank = morph_step_direction(
                g, probs_of(menu), history, rows, seed,
                MorphConfig(n_gradient_samples=200_000, rank_tol=rank_tol),
                step=sampled_step_directions)
            np.testing.assert_allclose(step, reference, rtol=0, atol=atol)
            ranks.add(rank)
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
        (result,) = run_morph_indices(pred, cfg, [0])
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


class TestMorphStepDirection:
    def test_descent_against_predictor_gradient(self):
        # Criterion-8 style property on random tangent states: the sampled
        # step descends the tangent predictor gradient and is orthogonal to
        # every kept sampled gradient of its own draws, but for the part of it in
        # the span the eigenvalue cutoff drops: at most the dropped one of
        # the two eigenvalues, under rank_tol**2 times the largest, itself at
        # most the kept gradients' squared Frobenius norm, bounds that part.
        rng = np.random.default_rng(11)
        ranks = set()
        for seed in range(200):
            g = rng.normal(size=4)
            rows = rng.normal(size=(4, 5))            # random basis values
            history = list(rng.normal(size=(int(rng.integers(2, 5)), 5)))
            menu = sample_random_menu(rng, 2, 0.0, 10.0)
            count = int(rng.integers(1, 6))
            v, rank = morph_step_direction(
                g, probs_of(menu), history, rows, seed,
                MorphConfig(n_gradient_samples=count, rank_tol=MIN_RANK_TOL),
                step=sampled_step_directions)
            ranks.add(rank)
            grads = sample_step_gradients(probs_of(menu), history, count, normals_rng(seed),
                                          rows)
            assert 0 <= rank <= min(count, 2)
            g_t = tangent(g, 2)
            assert -(v @ g_t) <= 1e-10
            kept = grads[np.linalg.norm(grads, axis=1) > MIN_RANK_TOL]
            for row in kept:
                assert abs(v @ row) <= MIN_RANK_TOL * np.linalg.norm(v) * np.linalg.norm(kept) \
                    + 1e-12
        # Some steps' draws fill the tangent space.
        assert 2 in ranks

    def test_one_draw_spans_at_most_one_direction(self):
        # The sampler's float32 rounding of the moments leaves a rank-deficient
        # Gram matrix a spurious eigenvalue up to about 3.2e-6 of its largest, under the
        # smallest cutoff's rank_tol**2: a one-draw step keeps rank 1 or 0
        # (at rank_tol 1e-6 it reports up to 3).
        cfg = MorphConfig(n_gradient_samples=1, rank_tol=MIN_RANK_TOL)
        for J in (2, 3):
            g, probs, H, rows = morph_like_stack(np.random.default_rng(12 + J), 64, J, 3)
            for seed in range(8):
                _, ranks, _ = sampled_step_directions(g, probs, H, rows, seed, cfg)
                assert ranks.max() == 1


class RecordingRng:
    """Passes ``standard_normal`` through to a seed's stream
    (``normals_rng``), by ``size`` or into ``out``, and keeps a copy of each
    draw (a step reuses its ``out``)."""

    def __init__(self, seed):
        self.seed = seed
        self.rng = normals_rng(seed)
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


def recording_streams(monkeypatch):
    """Every stream ``morphing`` builds from here on, as a ``RecordingRng``."""
    streams = []

    def build(seed):
        streams.append(RecordingRng(seed))
        return streams[-1]

    monkeypatch.setattr(morphing, "normals_rng", build)
    return streams


class TestBlockedGram:
    """The blocked sampled step against the whole-array route on the same
    draws."""

    @pytest.mark.parametrize("rank_tol", [0.1, MIN_RANK_TOL])
    @pytest.mark.parametrize("J", [2, 3])
    def test_matches_null_space_projection(self, rank_tol, J):
        count = 2 * morphing._DRAW_BLOCK + 17
        rng = np.random.default_rng(31 + J)
        compared = skipped = quiet = 0
        ranks = set()
        for seed in range(12):
            g, menu, history, rows = morph_like_state(rng, J)
            cfg = MorphConfig(n_gradient_samples=count, rank_tol=rank_tol)
            step, rank = morph_step_direction(g, probs_of(menu), history, rows, seed, cfg,
                                              step=sampled_step_directions)
            G_t = sample_step_gradients(probs_of(menu), history, count, normals_rng(seed), rows)
            if quiet_step(probs_of(menu), history, rows, seed, count, rank_tol):
                # A quiet step's direction is the one its sampled Gram matrix
                # gives.
                assert_same_bits(step, reference_step_direction(g, probs_of(menu), history, rows,
                                                                normals_rng(seed), cfg,
                                                                sampled=True)[0])
                quiet += 1
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
        # The states cover more than one retained rank, but for J = 3's at the
        # smallest cutoff, which all keep rank 2; at both cutoffs some J = 2
        # spans fill the tangent space.
        assert len(ranks) >= 2 or (J, rank_tol) == (3, MIN_RANK_TOL)
        assert 2 * J - 2 in ranks or J == 3
        # The J = 2 states at the default cutoff include quiet steps.
        assert quiet >= 1 or (J, rank_tol) != (2, 0.1)

    def test_block_size_moves_no_draw(self, monkeypatch):
        # Every trial reads the same (count, d) stream at both block sizes,
        # as one whole draw, and the two agree on the direction within the
        # gap-dependent tolerance.
        count = 3 * 4096 + 17
        rng = np.random.default_rng(37)
        compared = 0
        for trial in range(8):
            g, menu, history, rows = morph_like_state(rng, 2)
            cfg = MorphConfig(n_gradient_samples=count)
            results = {}
            for block in (1000, 4096):
                monkeypatch.setattr(morphing, "_DRAW_BLOCK", block)
                streams = recording_streams(monkeypatch)
                step, rank = morph_step_direction(g, probs_of(menu), history, rows, trial, cfg,
                                                  step=sampled_step_directions)
                draws = [z for stream in streams for z in stream.draws]
                assert [stream.seed for stream in streams] == [trial]
                assert [z.shape[0] for z in draws[:-1]] == [block] * (len(draws) - 1)
                results[block] = (draws, step, rank)
            (z1, step1, rank1), (z2, step2, rank2) = results.values()
            z1, z2 = np.concatenate(z1), np.concatenate(z2)
            np.testing.assert_array_equal(z1, normals_rng(trial).standard_normal((count, 3)))
            np.testing.assert_array_equal(z1, z2)
            G_t = sample_step_gradients(probs_of(menu), history, count, normals_rng(trial), rows)
            atol = gap_tolerance(G_t[np.linalg.norm(G_t, axis=1) > cfg.rank_tol],
                                 cfg.rank_tol)
            if atol is None:
                continue
            assert rank1 == rank2
            np.testing.assert_allclose(step1, step2, rtol=0, atol=atol)
            compared += 1
        assert compared >= 6


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
        cfg, seed = MorphConfig(n_gradient_samples=count), 5
        g, probs, H, rows = morph_like_stack(np.random.default_rng(50 + J), 64, J, h)
        quiet_of = quiet_step if J == 3 else expected_quiet
        quiet = np.array([quiet_of(probs[k], H[k], rows[k], seed, count, cfg.rank_tol)
                          for k in range(64)])
        alone = [morph_step_direction(g[k], probs[k], list(H[k]), rows[k], seed, cfg)
                 for k in range(64)]
        # Every row, quiet or not, has the bits of the reference's step,
        # sampled on the seed's normals for J = 3 and in expectation for
        # J = 2, from the row's own factor.
        for k, (direction, rank) in enumerate(alone):
            ref_direction, ref_rank = reference_step_direction(
                g[k], probs[k], list(H[k]), rows[k], normals_rng(seed), cfg)
            assert_same_bits(direction, ref_direction)
            assert rank == ref_rank
        # Stacks at the row group's edges, and past them.
        group = morphing._ROW_GROUP
        for R in sorted({1, group - 1, group, group + 1, 7, 29, 64} - {0}):
            directions, ranks, stack_quiet = morph_step_directions(g[:R], probs[:R], H[:R],
                                                                   rows[:R], seed, cfg)
            assert directions.shape == (R, 2 * J) and ranks.shape == (R,)
            np.testing.assert_array_equal(stack_quiet, quiet[:R])
            for k in range(R):
                assert_same_bits(directions[k], alone[k][0])
                assert ranks[k] == alone[k][1]
        # The stack of 64 groups rows of more than one retained rank.
        assert len(set(ranks.tolist())) >= 2
        # Two fits at J = 2 leave some rows a narrow law that keeps no draw.
        assert quiet.any() or (J, h) != (2, 2)

    def test_one_fit_history_rejected_before_drawing(self, monkeypatch):
        g, probs, H, rows = morph_like_stack(np.random.default_rng(3), 1, 3, 2)
        streams = recording_streams(monkeypatch)
        with pytest.raises(ValueError, match="at least two fits"):
            morph_step_direction(g[0], probs[0], H[0, :1], rows[0], 0, MorphConfig())
        assert streams == []


class TestStreamedDraws:
    """A sampling step (J >= 3) reads the seed's stream once, block by block,
    for its whole stack: each block is drawn once and mapped through every
    drawing row.  A J = 2 step reads no stream."""

    @pytest.mark.parametrize("count", [1, 17, morphing._DRAW_BLOCK, morphing._DRAW_BLOCK + 1,
                                       3 * morphing._DRAW_BLOCK + 17])
    def test_each_block_is_drawn_once_for_the_whole_stack(self, monkeypatch, count):
        cfg, seed, R = MorphConfig(n_gradient_samples=count), 8, 7
        g, probs, H, rows = morph_like_stack(np.random.default_rng(61), R, 3, 3)
        alone = [morph_step_direction(g[k], probs[k], list(H[k]), rows[k], seed, cfg)
                 for k in range(R)]
        streams = recording_streams(monkeypatch)
        directions, ranks, quiet = morph_step_directions(g, probs, H, rows, seed, cfg)
        assert (~quiet).sum() >= 2
        # One stream for the stack, read in full blocks and then the rest.
        assert len(streams) == 1 and streams[0].seed == seed
        full, rest = divmod(count, morphing._DRAW_BLOCK)
        assert [z.shape for z in streams[0].draws] == \
            [(morphing._DRAW_BLOCK, 5)] * full + [(rest, 5)] * (rest > 0)
        np.testing.assert_array_equal(np.concatenate(streams[0].draws),
                                      normals_rng(seed).standard_normal((count, 5)))
        for k in range(R):
            assert_same_bits(directions[k], alone[k][0])
            assert ranks[k] == alone[k][1]

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
            _, _, quiet = morph_step_directions(g, probs, H, rows, 4, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The tracer sees numpy's arrays, and the step summed draws.
        assert control >= 8 * count and not quiet.all()
        assert peak < 8 * count

    @pytest.mark.parametrize("count", [2_000, 6 * morphing._DRAW_BLOCK])
    def test_a_step_starts_no_thread(self, monkeypatch, count):
        # A step draws, bounds and maps each block in turn on the caller's
        # thread, in one block or in many.
        cfg, seed = MorphConfig(n_gradient_samples=count), 9
        g, probs, H, rows = morph_like_stack(np.random.default_rng(64), 7, 3, 3)
        before, during, original = threading.active_count(), [], morphing._all_or_none

        def spy(*args):
            during.append(threading.active_count())
            return original(*args)

        monkeypatch.setattr(morphing, "_all_or_none", spy)
        morph_step_directions(g, probs, H, rows, seed, cfg)
        assert len(during) == -(-count // morphing._DRAW_BLOCK)
        assert max(during) == before and threading.active_count() == before

    def test_a_failing_block_stops_the_step(self, monkeypatch):
        # The third block's bound raises: the step raises, and the stream was
        # read in block order, no block past the one that failed.
        cfg, seed = MorphConfig(n_gradient_samples=6 * morphing._DRAW_BLOCK), 9
        g, probs, H, rows = morph_like_stack(np.random.default_rng(64), 7, 3, 3)
        streams, decided, original = recording_streams(monkeypatch), [], morphing._all_or_none

        def failing(*args):
            decided.append(original(*args))
            if len(decided) == 3:
                raise RuntimeError("the third block")
            return decided[-1]

        monkeypatch.setattr(morphing, "_all_or_none", failing)
        with pytest.raises(RuntimeError, match="the third block"):
            morph_step_directions(g, probs, H, rows, seed, cfg)
        (stream,) = streams
        assert [z.shape for z in stream.draws] == [(morphing._DRAW_BLOCK, 5)] * 3
        np.testing.assert_array_equal(
            np.concatenate(stream.draws),
            normals_rng(seed).standard_normal((3 * morphing._DRAW_BLOCK, 5)))

    def test_a_two_payoff_step_reads_no_stream(self, monkeypatch):
        # A J = 2 step takes its Gram matrices in expectation: no stream, no
        # thread and no sampled Gram matrix, at any count.
        g, probs, H, rows = morph_like_stack(np.random.default_rng(65), 7, 2, 3)
        streams, before = recording_streams(monkeypatch), threading.active_count()

        def no_draws(*args):
            raise AssertionError("a J = 2 step sampled")

        monkeypatch.setattr(morphing, "_draw_grams", no_draws)
        for count in (1, 6 * morphing._DRAW_BLOCK):
            morph_step_directions(g, probs, H, rows, 9, MorphConfig(n_gradient_samples=count))
        assert streams == [] and threading.active_count() == before

    def test_three_payoff_steps_are_the_samplers(self):
        # For J = 3 the step is the sampled one, bit for bit.
        cfg = MorphConfig(n_gradient_samples=2 * morphing._DRAW_BLOCK + 17)
        g, probs, H, rows = morph_like_stack(np.random.default_rng(66), 9, 3, 3)
        for a, b in zip(morph_step_directions(g, probs, H, rows, 7, cfg),
                        sampled_step_directions(g, probs, H, rows, 7, cfg)):
            assert_same_bits(a, b)

    @pytest.mark.parametrize("J", [2, 3])
    def test_rows_keep_their_bits_in_any_order(self, J):
        cfg = MorphConfig(n_gradient_samples=3 * morphing._DRAW_BLOCK + 17)
        g, probs, H, rows = morph_like_stack(np.random.default_rng(63 + J), 12, J, 4)
        order = np.random.default_rng(J).permutation(12)
        whole = morph_step_directions(g, probs, H, rows, 6, cfg)
        shuffled = morph_step_directions(g[order], probs[order], H[order], rows[order], 6, cfg)
        assert not whole[2].all()
        for a, b in zip(shuffled, whole):
            assert_same_bits(a, b[order])


def block_decision(mean, L, z, rank_tol):
    """``_draw_grams``' decision for one row's factor (mean (d,), L (d, d)) on
    one block of normals z (n, d): (every draw kept, none kept)."""
    z = z.astype(np.float32)            # the step's float32 columns
    every, none = morphing._all_or_none(
        mean[None], L[None, 0, 0], morphing._spread(L[None, 1:]),
        np.array([z[:, 0].min(), z[:, 0].max()]), np.sqrt(np.einsum("ij,ij->i", z, z).max()),
        rank_tol)
    return bool(every[0]), bool(none[0])


def float32_map(mean, L, z):
    """The slopes (n,) and tangent gradients (m, n) that one row's factor
    (mean (d,), L (d, d)) maps the normals z (n, d) to, in float32 as the
    step maps them."""
    zT = np.ascontiguousarray(z.T, dtype=np.float32)
    L, mean = L.astype(np.float32), mean.astype(np.float32)
    e = np.exp(-np.abs(zT[0] * L[0, 0] + mean[0]))
    w = np.ascontiguousarray(L[1:]) @ zT
    w += mean[1:, None]
    return e / (1.0 + e) ** 2, w


def keeps_none(mean, L, z, rank_tol):
    """Whether ``block_decision`` finds, in every block of ``_DRAW_BLOCK``
    rows of the normals z (count, d), that one row's factor keeps no draw:
    whether its step is quiet."""
    return all(block_decision(mean, L, z[i:i + morphing._DRAW_BLOCK], rank_tol)[1]
               for i in range(0, len(z), morphing._DRAW_BLOCK))


def quiet_step(probs, history, basis_rows, seed, count, rank_tol):
    """Whether one run's sampled step, its factor formed on its own, is
    quiet on the seed's first ``count`` normals."""
    mean, L = reference_step_factor(probs, history, basis_rows)
    return keeps_none(mean, L, normals_rng(seed).standard_normal((count, L.shape[1])), rank_tol)


def expected_quiet(probs, history, basis_rows, seed, count, rank_tol):
    """Whether one run's J = 2 step, its factor formed on its own, is quiet:
    whether its ``count`` draws would keep fewer than one gradient in
    expectation (``seed`` is not read)."""
    mean, L = reference_step_factor(probs, history, basis_rows)
    return bool(morphing._expected_grams(mean[None], L[None], count, rank_tol)[1][0])


def tail_ball_keeps_none(mean, L, count, rank_tol):
    """Rows (R,) that ``_all_or_none`` finds keep no draw over the ball that
    holds all ``count`` draws' normals but with chance 1e-12: z0 in [-R, R]
    and |z| <= R, with R^2 Laurent and Massart's chi-square quantile bound
    (*Ann. Statist.* 28(5), 2000, Lemma 1) at tail 1e-12 / count."""
    d = L.shape[-1]
    x = math.log(count / 1e-12)
    radius = math.sqrt(d + 2 * math.sqrt(d * x) + 2 * x)
    return morphing._all_or_none(mean, L[:, 0, 0], morphing._spread(L[:, 1:]),
                                 np.array([-radius, radius]), radius, rank_tol)[1]


def scaled_stack(rng, J):
    """Eight morph-like states, each three times with its fits scaled by 1/4,
    1 and 4: small fits keep slopes near 1/4 with short gradients, large ones
    long gradients with logits far out, so a stack's blocks keep every draw,
    none, or some."""
    g, probs, H, rows = morph_like_stack(rng, 8, J, 3)
    scales = np.repeat([0.25, 1.0, 4.0], 8)[:, None, None]
    return (np.tile(g, (3, 1)), np.tile(probs, (3, 1, 1)), np.tile(H, (3, 1, 1)) * scales,
            np.tile(rows, (3, 1, 1)))


class TestBlockDecision:
    """A sampled block whose own extremes of z0 and |z| decide a row's kept
    test, all kept or none, skips the test or the row, and the row keeps its
    bytes."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), J=st.sampled_from([2, 3]), n=st.integers(1, 300),
           mean_a=st.floats(-40.0, 40.0), log_w=st.floats(-3.0, 2.0),
           log_l=st.floats(-4.0, 1.0), rank_tol=st.sampled_from([0.1, MIN_RANK_TOL]))
    def test_a_decided_block_keeps_every_draw_or_none(self, seed, J, n, mean_a, log_w, log_l,
                                                      rank_tol):
        # A random factor state and block, mapped in float32 as the step
        # maps them.
        rng = np.random.default_rng(seed)
        d = 2 * J - 1
        L = np.tril(rng.normal(size=(d, d))) * 10.0 ** log_l
        mean = np.concatenate([[mean_a], rng.normal(size=d - 1) * 10.0 ** log_w])
        z = rng.standard_normal((n, d))
        every, none = block_decision(mean, L, z, rank_tol)
        slopes, w = float32_map(mean, L, z)
        kept = reference_kept(w, slopes, rank_tol)
        assert not (every and none)
        if every:
            assert kept.all()
        if none:
            assert not kept.any()

    @pytest.mark.parametrize("J", [2, 3])
    @pytest.mark.parametrize("count", [17, morphing._DRAW_BLOCK + 1,
                                       3 * morphing._DRAW_BLOCK + 17])
    def test_decided_rows_keep_the_references_bits(self, count, J, monkeypatch):
        cfg, seed = MorphConfig(n_gradient_samples=count), 5
        g, probs, H, rows = scaled_stack(np.random.default_rng(90 + J), J)
        decisions, original = [], morphing._all_or_none

        def spy(*args):
            decisions.append(original(*args))
            return decisions[-1]

        monkeypatch.setattr(morphing, "_all_or_none", spy)
        directions, ranks, quiet = sampled_step_directions(g, probs, H, rows, seed, cfg)
        for k in range(len(g)):
            direction, rank = reference_step_direction(g[k], probs[k], H[k], rows[k],
                                                       normals_rng(seed), cfg, sampled=True)
            assert_same_bits(directions[k], direction)
            assert ranks[k] == rank
        # Each block decides every row once; a row is quiet when every block
        # decides that it keeps none.
        assert len(decisions) == -(-count // morphing._DRAW_BLOCK)
        every, none = (np.stack(part) for part in zip(*decisions))
        np.testing.assert_array_equal(quiet, none.all(axis=0))
        assert every.any() and none.any() and (~every & ~none).any()

    @pytest.mark.parametrize("J", [2, 3])
    @pytest.mark.parametrize("count", [17, morphing._DRAW_BLOCK + 1,
                                       3 * morphing._DRAW_BLOCK + 17])
    def test_a_row_is_quiet_when_every_block_keeps_none(self, count, J):
        cfg, seed, T = MorphConfig(n_gradient_samples=count), 5, _tangent_basis(J)
        g, probs, H, rows = scaled_stack(np.random.default_rng(90 + J), J)
        mean, L = _step_factors(probs, H, rows, T)
        grams, quiet = morphing._draw_grams(seed, mean, L, count, cfg.rank_tol)
        directions, _, step_quiet = sampled_step_directions(g, probs, H, rows, seed, cfg)
        np.testing.assert_array_equal(step_quiet, quiet)
        z = normals_rng(seed).standard_normal((count, 2 * J - 1))
        np.testing.assert_array_equal(
            quiet, [keeps_none(mean[k], L[k], z, cfg.rank_tol) for k in range(len(g))])
        # A quiet row's Gram matrix is zero and its direction the whole
        # tangent gradient.
        assert_same_bits(grams[quiet], np.zeros((quiet.sum(), 2 * J - 2, 2 * J - 2)))
        for k in np.flatnonzero(quiet):
            assert_same_bits(directions[k], T @ (T.T @ g[k]))
        # The stack holds a quiet row that the whole count's tail ball does
        # not decide.
        assert (quiet & ~tail_ball_keeps_none(mean, L, count, cfg.rank_tol)).any()

    @pytest.mark.parametrize("count", [17, 3 * morphing._DRAW_BLOCK + 17])
    def test_a_block_no_row_draws_from_forms_no_products(self, count, monkeypatch):
        # Every row forced to keep none: no block's moment products are
        # formed, every Gram matrix stays zero and every row is quiet.
        g, probs, H, rows = morph_like_stack(np.random.default_rng(67), 6, 3, 3)
        formed = []

        def none_kept(mean, *rest):
            return np.zeros(len(mean), dtype=bool), np.ones(len(mean), dtype=bool)

        def products(*args):
            formed.append(args)
            return original(*args)

        original, decide = morphing._products, morphing._all_or_none
        monkeypatch.setattr(morphing, "_all_or_none", none_kept)
        monkeypatch.setattr(morphing, "_products", products)
        mean, L = _step_factors(probs, H, rows, _tangent_basis(3))
        grams, quiet = morphing._draw_grams(5, mean, L, count, 0.1)
        assert formed == [] and quiet.all()
        assert_same_bits(grams, np.zeros((6, 4, 4)))
        # Left to decide, the same blocks form their products.
        monkeypatch.setattr(morphing, "_all_or_none", decide)
        morphing._draw_grams(5, mean, L, count, 0.1)
        assert len(formed) == -(-count // morphing._DRAW_BLOCK)

    def test_a_factor_that_is_not_finite_decides_no_block(self):
        mean, L = np.zeros((4, 3)), np.zeros((4, 3, 3))
        mean[0, 0], L[1, 1, 1], L[2, 2, 0], mean[3, 1] = np.nan, np.inf, np.nan, np.inf
        with np.errstate(invalid="ignore"):
            every, none = morphing._all_or_none(mean, L[:, 0, 0], morphing._spread(L[:, 1:]),
                                                np.array([-1.0, 1.0]), 2.0, 0.1)
            _, quiet = morphing._draw_grams(0, mean, L, 2_000, 0.1)
        assert not (every.any() or none.any() or quiet.any())

    def test_rows_at_the_edge_keep_the_float32_tests_verdict(self):
        # A factor with no spread maps every draw of a block to one
        # sigma'(a) |w|, here within 300 float32 roundoffs of rank_tol either
        # side, where the test's float32 rounding can turn its verdict: the
        # margin keeps the bound from deciding any row against the test (a
        # margin of 1e-9, float64's, decides one).
        rng, rank_tol = np.random.default_rng(0), 0.1
        z, L = rng.standard_normal((8, 3)), np.zeros((3, 3))
        decided = 0
        for mean_a in np.linspace(-30.0, 30.0, 61):
            unit = rng.normal(size=2)
            edge = unit / np.linalg.norm(unit) * rank_tol / morphing._slope(np.abs([mean_a]))
            for k in range(-300, 301, 3):
                mean = np.concatenate([[mean_a], edge * (1.0 + k * 2.0 ** -24)])
                every, none = block_decision(mean, L, z, rank_tol)
                slopes, w = float32_map(mean, L, z)
                kept = reference_kept(w, slopes, rank_tol)
                assert not (every and not kept.all() or none and kept.any())
                decided += every or none
        assert decided >= 100

    def test_a_gradient_float32_cannot_square_decides_no_block(self):
        # |w| = 2**66 overflows the kept test's float32 square, and a slope
        # near 2e-22 squares to a float32 subnormal, so the test keeps every
        # draw, although sigma'(a) |w| is near 0.014, under rank_tol: the
        # bound, which would find none kept, decides neither.
        mean, L = np.array([50.0, 2.0 ** 66, 0.0]), np.diag([1e-3, 1e-3, 1e-3])
        z = normals_rng(0).standard_normal((100, 3))
        assert block_decision(mean, L, z, 0.1) == (False, False)
        with np.errstate(over="ignore"):
            slopes, w = float32_map(mean, L, z)
            assert reference_kept(w, slopes, 0.1).all()


@pytest.fixture(scope="module")
def lockstep_steps():
    """Morph runs of seed 4 (CPT bruhin-b), 30 runs of up to 10 steps at
    2,000 samples and 16 runs of up to 3 steps at 200,000: per sample count,
    the (inputs, outputs) of each step's ``morph_step_directions`` call with
    the runs its rows belong to, and the runs' records."""
    pred = CptPredictor(CptParams(0.726, 0.309))
    original, original_lockstep = morphing.morph_step_directions, morphing.lockstep
    out = {}
    for count, runs, iters in ((2_000, 30, 10), (200_000, 16, 3)):
        cfg = pipeline_config(4, morph={"n_gradient_samples": count, "max_iters": iters})
        Z, P = index_block(cfg, range(runs), 1)
        steps, step_runs = [], []

        def capture(*args, **kwargs):
            steps.append((args, original(*args, **kwargs)))
            return steps[-1][1]

        def capture_lockstep(predictor, config, basis, Z, P, step, *rest, **kwargs):
            def recorded(s, rows, *state):
                step_runs.append(rows)
                return step(s, rows, *state)

            return original_lockstep(predictor, config, basis, Z, P, recorded, *rest, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(morphing, "morph_step_directions", capture)
            mp.setattr(morphing, "lockstep", capture_lockstep)
            recs = morphing.morph_lockstep(pred, cfg.morph, ISplineBasis(), Z[:, 0], P[:, 0],
                                           cfg.seed, range(runs))
        assert len(step_runs) == len(steps)
        out[count] = list(zip(steps, step_runs)), recs
    return out


def kept_probabilities(mean, L, rank_tol, rule=None):
    """Each J = 2 row's kept probability (R,) under ``rule``, the shipped one
    by default, over the row's window (``morphing._expected_chunk``)."""
    rule = rule or morphing._quadrature()
    lo, hi = morphing._window(mean, L, rank_tol)
    live, kept = ~(hi <= lo), np.zeros(len(L))
    if live.any():
        kept[live] = morphing._expected_chunk(mean[live], L[live], lo[live], hi[live], rank_tol,
                                              rule)[1]
    return kept


class TestQuietSteps:
    """The steps of real runs (J = 2): a run's record counts its quiet steps,
    those whose draws would keep fewer than one gradient in expectation."""

    @pytest.mark.parametrize("count", [2_000, 200_000])
    def test_records_count_their_quiet_steps(self, lockstep_steps, count):
        steps, recs = lockstep_steps[count]
        quiet_steps = Counter()
        for (_, (_, _, quiet)), runs in steps:
            quiet_steps.update(runs[quiet].tolist())
        assert [rec["certified_steps"] for rec in recs] == \
            [quiet_steps[r] for r in range(len(recs))]
        assert sum(quiet_steps.values()) > 0

    @pytest.mark.parametrize("count", [2_000, 200_000])
    def test_quiet_rows_expect_under_one_kept_draw(self, lockstep_steps, count):
        # A row is quiet when count P(kept) < 1; its rank is 0 and its
        # direction the whole tangent gradient.  Over the quiet rows the
        # seed's draws, mapped here whole, keep about as many gradients as
        # their count P(kept) add to (five Poisson standard deviations).
        steps, _ = lockstep_steps[count]
        expected = drawn = checked = 0
        for ((g, probs, H, rows, seed, cfg), (directions, ranks, quiet)), _ in steps:
            T = _tangent_basis(probs.shape[-1])
            mean, L = _step_factors(probs, H, rows, T)
            kept = count * kept_probabilities(mean, L, cfg.rank_tol)
            np.testing.assert_array_equal(quiet, kept < 1.0)
            for k in np.flatnonzero(quiet):
                G = sample_step_gradients(probs[k], H[k], count, normals_rng(seed), rows[k])
                expected += kept[k]
                drawn += np.sum(np.linalg.norm(G, axis=1) > cfg.rank_tol)
                assert ranks[k] == 0
                assert_same_bits(directions[k], T @ (T.T @ g[k]))
                checked += 1
        assert drawn <= expected + 5 * np.sqrt(expected) + 5
        # At step 0 a fifth of the runs or more are quiet.
        assert steps[0][0][1][2].mean() >= 0.2 and checked >= 10

    def test_each_part_of_a_stack_keeps_its_bits(self, lockstep_steps, monkeypatch):
        # The first 200k step of 16 runs: its quiet rows alone and its other
        # rows alone each have the bits they had in the whole stack, an empty
        # stack gives empty arrays, and no part reads the seed's stream.
        ((g, probs, H, rows, seed, cfg), whole), _ = lockstep_steps[200_000][0][0]
        quiet = whole[2]
        assert 0 < quiet.sum() < len(g)
        streams = recording_streams(monkeypatch)
        for part in (quiet, ~quiet, np.zeros_like(quiet)):
            out = morph_step_directions(g[part], probs[part], H[part], rows[part], seed, cfg)
            for a, b in zip(out, whole):
                assert_same_bits(a, b[part])
        assert streams == []


def lockstep_factors(lockstep_steps, count):
    """The (mean, L) factors (R, 3), (R, 3, 3) of every step row of the
    captured J = 2 runs at ``count`` samples, stacked, and the runs' rank
    cutoff."""
    steps, _ = lockstep_steps[count]
    factors = [_step_factors(probs, H, rows, _tangent_basis(2))
               for ((g, probs, H, rows, seed, cfg), _), _ in steps]
    return (np.concatenate([mean for mean, _ in factors]),
            np.concatenate([L for _, L in factors]), steps[0][0][0][5].rank_tol)


class TestExpectedGram:
    """A J = 2 step's Gram matrix in expectation: its erfc, its rule against
    a converged one and against a large sample, and its rows' bytes."""

    # Composite Gauss-Legendre with 800 nodes in z0 (200 panels of 4), and
    # 64 angles: its ranks and Gram entries no longer move with the rule.
    CONVERGED = morphing._quadrature(200, 4, 64)

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
        e, first, _ = morphing._tails(ends.copy())
        np.testing.assert_allclose(first - ends * e, np.sqrt(2.0 * np.pi) * tails, rtol=1e-13)

    @pytest.mark.parametrize("count", [2_000, 200_000])
    def test_shipped_ranks_equal_a_converged_rules(self, lockstep_steps, count):
        # On every step row of the captured runs the shipped rule keeps the
        # converged rule's rank and quiet flag.  A row whose converged
        # eigenvalue ratio, or count P(kept), lies within 2% of its cutoff
        # (a singular value within 1%) may fall on either side under the
        # shipped rule's error; such rows are not comparable and must stay
        # rare.
        mean, L, rank_tol = lockstep_factors(lockstep_steps, count)
        ranks, quiet = [], []
        for rule in (None, self.CONVERGED):
            grams, q = morphing._expected_grams(mean, L, count, rank_tol, rule)
            ranks.append(morphing._project_off_span(np.zeros((len(L), 2)), grams, rank_tol)[1])
            quiet.append(q)
        evals = np.linalg.eigvalsh(grams[~q])
        near = np.zeros(len(L), dtype=bool)
        near[~q] = np.abs(evals[:, 0] / (rank_tol ** 2 * evals[:, 1]) - 1.0) < 0.02
        near |= np.abs(count * kept_probabilities(mean, L, rank_tol, self.CONVERGED) - 1.0) < 0.02
        assert near.sum() <= 2
        np.testing.assert_array_equal(quiet[0][~near], quiet[1][~near])
        np.testing.assert_array_equal(ranks[0][~near], ranks[1][~near])
        assert set(ranks[1].tolist()) == {0, 1, 2}

    def test_entries_and_kept_probability_match_a_large_sample(self, lockstep_steps):
        # Every 200k step row that keeps a share of 2,000,000 float64 draws
        # worth estimating (50 or more in expectation): the converged rule's
        # Gram entries and kept probability lie within 4 standard errors of
        # the sample's, taken from 16 batch means (and within one draw's
        # share of it, for a kept probability the sample cannot resolve).
        mean, L, rank_tol = lockstep_factors(lockstep_steps, 200_000)
        grams, _ = morphing._expected_grams(mean, L, 10 ** 12, rank_tol, self.CONVERGED)
        kept = kept_probabilities(mean, L, rank_tol, self.CONVERGED)
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

    def test_rows_keep_their_bytes_in_any_stack(self, lockstep_steps):
        # Stacks of 1, 3, 64 and 65 rows, the last past a chunk's edge, from
        # several offsets: each row has the bytes it has in the whole stack.
        mean, L, rank_tol = lockstep_factors(lockstep_steps, 2_000)
        whole = morphing._expected_grams(mean, L, 2_000, rank_tol)
        for R in (1, 3, 64, 65):
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
            grams, quiet = morphing._expected_grams(bad_mean, bad_L, 2_000, rank_tol)
        others = np.setdiff1d(np.arange(65), [3, 40])
        assert_same_bits(grams[others], whole[0][others])
        assert_same_bits(quiet[others], whole[1][others])
        assert np.isnan(grams[[3, 40]]).all() and not quiet[[3, 40]].any()


class TestFloat32Map:
    """The sampler maps its draws in float32; on real runs' steps it decides
    what a float64 map of the same normals decides."""

    @pytest.mark.parametrize("count", [2_000, 200_000])
    def test_quiet_flags_and_ranks_match_a_float64_map(self, lockstep_steps, count):
        # A step is quiet exactly where the float64 map keeps no draw, and
        # keeps the float64 map's rank.  Each kept draw's float32 moment terms
        # are off by a few eps32 of its trace share, and the terms' rounding
        # averages out over the draws (measured under 6 eps32 of the trace):
        # the bound is gap_tolerance's float32 term, 100 eps32.
        steps, _ = lockstep_steps[count]
        drawn = 0
        for ((g, probs, H, rows, seed, cfg), _), _ in steps:
            mean, L = _step_factors(probs, H, rows, _tangent_basis(probs.shape[-1]))
            grams, quiet = morphing._draw_grams(seed, mean, L, count, cfg.rank_tol)
            ranks = morphing._project_off_span(np.zeros((len(g), 2)), grams, cfg.rank_tol)[1]
            for k in range(len(g)):
                gram = per_draw_gram(*reference_step_factor(probs[k], H[k], rows[k]),
                                     normals_rng(seed), count, cfg.rank_tol)
                evals = np.linalg.eigvalsh(gram)
                assert quiet[k] == (not gram.any())
                assert ranks[k] == np.sum(evals > cfg.rank_tol ** 2 * evals[-1])
                assert np.abs(grams[k] - gram).max() <= \
                    1e2 * np.finfo(np.float32).eps * np.trace(gram)
                drawn += not quiet[k]
        assert drawn >= 30

    @settings(max_examples=200, deadline=None)
    @example(seed=12, J=2, count=2 * morphing._DRAW_BLOCK + 17, mean_a=3.05, log_l00=-7.0,
             log_l=0.0, log_gap=4.0, rank_tol=0.1)
    @given(seed=st.integers(0, 2 ** 32 - 1), J=st.sampled_from([2, 3]),
           count=st.integers(1, 2 * morphing._DRAW_BLOCK + 17), mean_a=st.floats(-6.0, 6.0),
           log_l00=st.floats(-7.0, 0.0), log_l=st.floats(-2.0, 1.0), log_gap=st.floats(-3.0, 6.0),
           rank_tol=st.sampled_from([0.1, MIN_RANK_TOL]))
    def test_moment_grams_match_a_float64_per_draw_map(self, seed, J, count, mean_a, log_l00,
                                                       log_l, log_gap, rank_tol):
        # Random factors, up to |mean_w| a million times ||L[1:]||_2, where
        # the moment sums cancel, and logits that barely move, whose squared
        # slopes are nearly equal: the Gram matrix summed from the block's
        # moments is within the bound above of the float64 Gram matrix of the
        # same kept draws, mapped draw by draw.
        rng = np.random.default_rng(seed)
        d = 2 * J - 1
        L = np.tril(rng.normal(size=(d, d)))
        L[0, 0], L[0, 1:], L[1:] = L[0, 0] * 10.0 ** log_l00, 0.0, L[1:] * 10.0 ** log_l
        mean = np.concatenate([[mean_a], rng.normal(size=d - 1) * 10.0 ** (log_l + log_gap)])
        (gram,), _ = morphing._draw_grams(seed, mean[None], L[None], count, rank_tol)
        z = normals_rng(seed).standard_normal((count, d))
        kept = np.concatenate([reference_kept(w, slopes, rank_tol) for slopes, w in (
            float32_map(mean, L, z[i:i + morphing._DRAW_BLOCK])
            for i in range(0, count, morphing._DRAW_BLOCK))])
        aw = z[kept] @ L.T + mean
        e = np.exp(-np.abs(aw[:, 0]))
        grads = aw[:, 1:] * (e / (1.0 + e) ** 2)[:, None]
        expected = grads.T @ grads
        assert np.abs(gram - expected).max() <= 1e2 * np.finfo(np.float32).eps * np.trace(expected)


class TestCommonRandomNumbers:
    """Every sampling step (J >= 3) of every run of one master seed maps the
    same normals, the seed's stream, through its own factor."""

    @pytest.mark.parametrize("count, runs, iters", [(2_000, 24, 8),
                                                    (3 * morphing._DRAW_BLOCK + 17, 8, 4)])
    def test_every_drawing_step_maps_the_seeds_normals(self, count, runs, iters, monkeypatch):
        pred = CptPredictor(CptParams(0.726, 0.309))
        cfg = pipeline_config(4, n_payoffs=3,
                              morph={"n_gradient_samples": count, "max_iters": iters})
        Z, P = index_block(cfg, range(runs), 1)
        original, steps = morphing.morph_step_directions, []
        streams = recording_streams(monkeypatch)

        def capture(*args):
            built = len(streams)
            steps.append((args, original(*args), streams[built:]))
            return steps[-1][1]

        monkeypatch.setattr(morphing, "morph_step_directions", capture)
        morphing.morph_lockstep(pred, cfg.morph, ISplineBasis(), Z[:, 0], P[:, 0], cfg.seed,
                                range(runs))
        whole = normals_rng(cfg.seed).standard_normal((count, 2 * cfg.n_payoffs - 1))
        drawn = 0
        for (g, probs, H, rows, seed, _), (directions, ranks, _), built in steps:
            assert seed == cfg.seed
            # A step builds one stream, reads it from its start, and maps
            # those normals through each row's factor.
            assert len(built) == 1
            for stream in built:
                np.testing.assert_array_equal(np.concatenate(stream.draws), whole)
            for k in range(len(g)):
                direction, rank = reference_step_direction(g[k], probs[k], H[k], rows[k],
                                                           normals_rng(seed), cfg.morph)
                assert_same_bits(directions[k], direction)
                assert ranks[k] == rank
            drawn += len(g)
        assert len(steps) >= 2 and drawn >= runs

    @pytest.mark.parametrize("seed", [0, 23])
    def test_the_seeds_stream_is_no_runs_stream(self, seed):
        # The shared stream's first block against the first normals of the
        # generators of runs 0..999 of the same seed.
        shape = (morphing._DRAW_BLOCK, 3)
        first = normals_rng(seed).standard_normal(shape)
        assert not any(np.array_equal(first, run_rng(seed, i).standard_normal(shape))
                       for i in range(1000))


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
    """At 200k samples the sampled step agrees with the old (count, r) draw,
    made from an independent stream, within its Monte Carlo error."""

    @pytest.mark.parametrize("J", [2, 3])
    def test_direction_and_rank_agree(self, J):
        count, cfg = 200_000, MorphConfig(n_gradient_samples=200_000)
        rng = np.random.default_rng(60 + J)
        compared, ranks = 0, set()
        for trial in range(10):
            g, menu, history, rows = morph_like_state(rng, J)
            step, rank = morph_step_direction(g, probs_of(menu), history, rows, trial, cfg,
                                              step=sampled_step_directions)
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
        # At the smallest cutoff this run's span fills after one step.
        (vanished,) = run_morph_indices(
            pred, pipeline_config(6, morph={"rank_tol": MIN_RANK_TOL}), [0])
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
