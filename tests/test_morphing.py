import copy

import numpy as np
import pytest

from anomgen import morphing
from anomgen.adversarial import GdaConfig, run_adversarial_indices
from anomgen.basis import ISplineBasis, PolynomialBasis
from anomgen.cpt import CptParams, CptPredictor, logistic
from anomgen.morphing import (COV_JITTER, MorphConfig, _step_factors, _tangent_basis,
                              morph_step_directions, run_morph_indices)
from anomgen.theory import _fit_logits, eu_difference_rows, stack_basis_values
from conftest import (fit_theta, flat, grad, morph_step_direction, null_space_projection,
                      predict, record_menus, reference_step_direction, reference_step_factor,
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


class TestMorphRun:
    def test_full_tangent_span_stops_immediately(self):
        # Force rank_tol to the smallest accepted cutoff: the sampled ensemble
        # spans the tangent space, the projected direction is ~0 and the run
        # stops at step 0.
        pred = CptPredictor(CptParams(0.726, 0.309))
        cfg = MorphConfig(rank_tol=morphing.MIN_RANK_TOL)
        (result,) = run_morph_indices(pred, cfg, 6, [0])
        assert result["iterations"] == 0
        m0, mS = record_menus(result)
        np.testing.assert_array_equal(flat(m0), flat(mS))

    def test_simplex_feasibility_along_trajectory(self):
        pred = CptPredictor(CptParams(0.726, 0.309))
        for _, results in search_iterates(run_morph_indices, pred, MorphConfig(), 7,
                                          range(5)):
            for result in results:
                x = flat(record_menus(result)[1])
                assert abs(x[2:4].sum() - 1) < 1e-12
                assert abs(x[6:8].sum() - 1) < 1e-12
                assert np.all(x[2:4] >= 0) and np.all(x[6:8] >= 0)

    def test_payoffs_frozen(self):
        pred = CptPredictor(CptParams(0.726, 0.309))
        (result,) = run_morph_indices(pred, MorphConfig(), 8, [1])
        x0, xS = (flat(m) for m in record_menus(result))
        np.testing.assert_array_equal(x0[:2], xS[:2])
        np.testing.assert_array_equal(x0[4:6], xS[4:6])

    def test_determinism(self):
        pred = CptPredictor(CptParams(0.726, 0.309))
        cfg = MorphConfig()
        (a,) = run_morph_indices(pred, cfg, 10, [0])
        (b,) = run_morph_indices(pred, cfg, 10, [0])
        assert a == b

    def test_frozen_basis_rows_give_the_same_fits(self):
        # The morph search builds its design rows from the basis values at the
        # frozen payoffs; along a trajectory that route must reproduce the
        # fit from freshly evaluated features bit for bit.
        pred = CptPredictor(CptParams(0.726, 0.309))
        cfg = MorphConfig()
        basis = cfg.make_basis()
        iterates = [results[0] for _, results in
                    search_iterates(run_morph_indices, pred, cfg, 11, [3])]
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
        compared = skipped = 0
        ranks = set()
        for _ in range(12):
            g, menu, history, rows = morph_like_state(rng, J)
            twin = copy.deepcopy(rng)
            step, rank = morph_step_direction(
                g, probs_of(menu), history, rows, rng,
                MorphConfig(n_gradient_samples=count, rank_tol=rank_tol))
            G_t = sample_step_gradients(probs_of(menu), history, count, twin, rows)
            # The two routes consumed the same stream.
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

    def test_block_size_moves_no_draw(self, monkeypatch):
        # Two block sizes read the same (count, d) stream as one whole draw
        # and agree on the direction within the gap-dependent tolerance.
        count = 3 * 4096 + 17
        rng = np.random.default_rng(37)
        compared = 0
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
                results[block] = (np.concatenate(recorder.draws), step, rank,
                                  recorder.rng.bit_generator.state)
            (z1, step1, rank1, state1), (z2, step2, rank2, state2) = results.values()
            whole = np.random.default_rng(trial)
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
        cfg = MorphConfig(n_gradient_samples=count)
        g, probs, H, rows = morph_like_stack(np.random.default_rng(50 + J), 64, J, h)
        alone, reference, states = [], [], []
        for k in range(64):
            rng, ref_rng = np.random.default_rng(k), np.random.default_rng(k)
            alone.append(morph_step_direction(g[k], probs[k], list(H[k]), rows[k], rng, cfg))
            reference.append(reference_step_direction(g[k], probs[k], list(H[k]), rows[k],
                                                      ref_rng, cfg))
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            states.append(rng.bit_generator.state)
        for (direction, rank), (ref_direction, ref_rank) in zip(alone, reference):
            assert_same_bits(direction, ref_direction)
            assert rank == ref_rank
        for R in (1, 7, 29, 64):
            rngs = [np.random.default_rng(k) for k in range(R)]
            directions, ranks = morph_step_directions(g[:R], probs[:R], H[:R], rows[:R],
                                                      rngs, cfg)
            assert directions.shape == (R, 2 * J) and ranks.shape == (R,)
            for k in range(R):
                assert_same_bits(directions[k], alone[k][0])
                assert ranks[k] == alone[k][1]
                assert rngs[k].bit_generator.state == states[k]
        # The stack of 64 groups rows of more than one retained rank.
        assert len(set(ranks.tolist())) >= 2

    def test_one_fit_history_rejected_before_drawing(self):
        g, probs, H, rows = morph_like_stack(np.random.default_rng(3), 1, 2, 2)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="at least two fits"):
            morph_step_direction(g[0], probs[0], H[0, :1], rows[0], rng, MorphConfig())
        assert rng.random() == np.random.default_rng(0).random()


def lifted(J):
    """(2J + 1, 2J - 1): maps (a, w) in tangent coordinates back to (a, v)."""
    out = np.zeros((2 * J + 1, 2 * J - 1))
    out[0, 0], out[1:, 1:] = 1.0, _tangent_basis(J)
    return out


class TestStepFactors:
    """The step's draw of (logit, tangent gradient) against the maps of the
    old (count, r) draw: the same law, from min(2J - 1, r) normals."""

    @pytest.mark.parametrize("J", [2, 3])
    @pytest.mark.parametrize("basis", [ISplineBasis(knots=10, degree=3, domain=(0.0, 10.0)),
                                       PolynomialBasis(order=6, domain=(0.0, 10.0)),
                                       PolynomialBasis(order=2, domain=(0.0, 10.0))],
                             ids=["ispline", "polynomial", "polynomial-2"])
    @pytest.mark.parametrize("shared_payoff", [False, True])
    def test_covariance_equals_the_old_maps(self, J, basis, shared_payoff):
        # The 2-term polynomial gives r = 2 < 2J - 1; a shared payoff makes
        # the utility covariance singular.
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
        r = min(2 * J, basis.dim)
        assert L.shape == (R, 2 * J - 1, min(2 * J - 1, r))
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
        (vanished,) = run_morph_indices(pred, MorphConfig(rank_tol=1e-3), 6, [0])
        (capped,) = run_morph_indices(pred, MorphConfig(max_iters=2), 11, [3])
        (nonfinite,) = run_morph_indices(NanGradPredictor(CptParams(0.726, 0.309)),
                                         MorphConfig(), 6, [0])
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
        (rec,) = run_adversarial_indices(pred, GdaConfig(max_iters=2), 6, [0])
        assert "stop" not in rec and "retained_rank" not in rec
