import numpy as np
import pytest

from anomgen import adversarial, theory
from anomgen.adversarial import run_adversarial_indices
from anomgen.basis import PolynomialBasis
from anomgen.cpt import CptParams, CptPredictor, logistic
from anomgen.predictor import fit_cpt_params
from anomgen.theory import THETA_NORM_BOUND, FitResult
from conftest import (TheorySpec, cpt_dataset, cpt_objective, eu_difference_features, fit_theta,
                      pipeline_config, reference_newton_fit, sample_random_menu, stack,
                      theory_choice_prob, theory_loss)


def pooled_kl(targets, q):
    targets = np.asarray(targets, dtype=float)
    return float(np.mean(targets * np.log(targets / q)
                         + (1 - targets) * np.log((1 - targets) / (1 - q))))


ALLAIS_POOLED_KL = pooled_kl([0.2, 0.8], 0.5)   # independent closed form


@pytest.fixture
def basis10():
    return PolynomialBasis(order=6, domain=(0, 10))


class TestTheoryChoiceProb:
    def test_identical_lotteries(self, basis10):
        Z, P = sample_random_menu(np.random.default_rng(0), 2, 0, 10)
        menu = (Z[[0, 0]], P[[0, 0]])
        spec = TheorySpec(basis10, np.random.default_rng(1).normal(size=6))
        assert theory_choice_prob(spec, menu) == pytest.approx(0.5)

    def test_zero_theta_is_indifferent_everywhere(self, basis10):
        spec = TheorySpec(basis10, np.zeros(6))
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = sample_random_menu(rng, 2, 0, 10)
            assert theory_choice_prob(spec, m) == pytest.approx(0.5)

    def test_allais_menus_representationally_equivalent(self, allais_menus):
        # The EU-difference functionals are algebraically identical.
        menu_a, menu_b = allais_menus
        basis = PolynomialBasis(order=6, domain=(0, 5e6))
        rng = np.random.default_rng(3)
        for _ in range(100):
            spec = TheorySpec(basis, rng.normal(size=6))
            fa = theory_choice_prob(spec, menu_a)
            fb = theory_choice_prob(spec, menu_b)
            assert abs(fa - fb) < 1e-12


class TestFitTheta:
    def test_single_example_fits_exactly(self, basis10):
        m = sample_random_menu(np.random.default_rng(4), 2, 0, 10)
        for target in (0.1, 0.37, 0.9):
            fit = fit_theta(basis10, *stack([m]), [target])
            assert fit.kl < 1e-8

    def test_self_consistency(self, basis10):
        # Targets generated by some f_theta0 must be fit back to zero KL.
        rng = np.random.default_rng(5)
        theta0 = rng.normal(0, 0.5, size=6)
        spec0 = TheorySpec(basis10, theta0)
        menus = [sample_random_menu(rng, 2, 0, 10) for _ in range(10)]
        fit = fit_theta(basis10, *stack(menus), [theory_choice_prob(spec0, m) for m in menus])
        assert fit.kl < 1e-8

    def test_allais_pooled_closed_form(self, allais_menus):
        menu_a, menu_b = allais_menus
        basis = PolynomialBasis(order=6, domain=(0, 5e6))
        fit = fit_theta(basis, *stack([menu_a, menu_b]), [0.2, 0.8])
        assert fit.kl == pytest.approx(ALLAIS_POOLED_KL, abs=1e-3)
        assert fit.kl == pytest.approx(0.1927, abs=1e-3)

    def test_constant_basis_member_changes_nothing(self, basis10):
        # A constant utility shift is invisible to choice probabilities.
        class Augmented:
            dim = basis10.dim + 1
            domain = basis10.domain

            def eval(self, z):
                base = basis10.eval(z)
                return np.concatenate([base, np.ones((base.shape[0], 1))], axis=1)

        rng = np.random.default_rng(7)
        menus = [sample_random_menu(rng, 2, 0, 10) for _ in range(5)]
        targets = (0.9, 0.15, 0.6, 0.4, 0.8)
        plain = fit_theta(basis10, *stack(menus), targets).cross_entropy
        augmented = fit_theta(Augmented(), *stack(menus), targets).cross_entropy
        assert augmented == pytest.approx(plain, abs=1e-8)

    def test_empty_examples_rejected(self, basis10):
        with pytest.raises(ValueError):
            fit_theta(basis10, np.zeros((0, 2, 2)), np.zeros((0, 2, 2)), [])


@pytest.fixture(scope="module")
def on_bound_cases():
    """(design, targets) of the inner fits that land on the coefficient ball
    in short adversarial runs (seed 23, bruhin-b oracle), as the lockstep
    search hands them to the stacked fit."""
    cases = []

    def record(D, y):
        fit = theory._fit_logits(D, y)
        cases.extend((D[r].copy(), y[r].copy()) for r in np.flatnonzero(fit.on_norm_bound))
        return fit

    predictor = CptPredictor(CptParams(0.726, 0.309))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(adversarial, "_fit_logits", record)
        for start in range(0, 600, 50):
            list(run_adversarial_indices(
                predictor, pipeline_config(23, adversarial={"max_iters": 3}),
                range(start, start + 50)))
            if len(cases) >= 60:
                break
    return cases


def fit_problem(D, y):
    """The fit of one recorded (design, targets) problem, as a one-row stack:
    once the design is given, the menus are not needed."""
    fit = theory._fit_logits(D[None], y[None])
    return FitResult(fit.theta[0], fit.kl[0], fit.cross_entropy[0], fit.converged[0],
                     fit.on_norm_bound[0])


def mean_kl(D, y, theta):
    """Mean KL of sigma(D theta) from targets y, for thetas stacked in rows."""
    u = np.atleast_2d(theta) @ D.T
    entropy = np.mean(-y * np.log(y) - (1 - y) * np.log(1 - y))
    return np.mean(np.logaddexp(0.0, u) - y * u, axis=1) - entropy


def clipped(y):
    return np.clip(y, theory.TARGET_CLIP, 1 - theory.TARGET_CLIP)


def duality_gap(x, grad):
    """The Frank-Wolfe duality gap g.x + rho ||g|| over the ball of radius
    rho = ``THETA_NORM_BOUND``, at x with loss gradient g."""
    return grad @ x + THETA_NORM_BOUND * np.linalg.norm(grad)


def bracketed_ball_point(H, b, radius):
    """argmin b.z + z.Hz/2 over ||z|| <= radius for one problem, by Newton on
    1/||z(mu)|| = 1/radius from the top of mu's bracket, bisecting whenever
    a step leaves the bracket, to a relative 1e-14 on ||z||."""
    evals, Q = np.linalg.eigh(H)
    evals = np.maximum(evals, 0.0)
    beta = Q.T @ b
    if evals[0] > 0.0 and np.linalg.norm(beta / evals) <= radius:
        return -(Q @ (beta / evals))
    bnorm = np.linalg.norm(beta)
    if bnorm == 0.0:
        return np.zeros_like(b)
    lo, hi = max(bnorm / radius - evals[-1], 0.0), bnorm / radius - evals[0]
    mu = hi
    for _ in range(100):
        q = beta / (evals + mu)
        znorm = np.linalg.norm(q)
        if abs(znorm - radius) <= 1e-14 * radius:
            break
        lo, hi = (mu, hi) if znorm > radius else (lo, mu)
        mu -= (1.0 / znorm - 1.0 / radius) * znorm ** 3 / (q @ (q / (evals + mu)))
        if not lo < mu < hi:
            mu = 0.5 * (lo + hi)
    return -(Q @ q) * min(1.0, radius / znorm)


def ball_problems(k, seed, radius=1.0):
    """A stack (H, b, on_ball) of k x k ball problems: random PSD H with b set
    so that the free point -H^+ b lies well outside or well inside the ball;
    H with an exact zero eigenvalue and b with a zero and with a nonzero
    component along it; b = 0.  For k = 3, also a row whose Newton start is
    mu = 0 with a zero eigenvalue, where evals + mu is 0 and beta is 0."""
    rng = np.random.default_rng([seed, k])
    kinds = ["out", "in", "b = 0"]
    if k > 1:
        kinds += ["flat, beta 0, out", "flat, beta 0, in", "flat, beta != 0, out"]
    Hs, bs = [], []
    for kind in kinds * 3:
        evals = np.exp(rng.uniform(np.log(1e-3), np.log(10.0), k))
        beta = rng.normal(size=k)
        Q = np.linalg.qr(rng.normal(size=(k, k)))[0]
        if kind.startswith("flat"):
            # An exact zero eigenvalue needs an exactly decoupled direction:
            # a block of zeros, mixed with the rest only by a permutation.
            evals[0], Q[0], Q[:, 0] = 0.0, 0.0, 0.0
            Q[0, 0] = 1.0
            Q[1:, 1:] = np.linalg.qr(rng.normal(size=(k - 1, k - 1)))[0]
            beta[0] *= "beta 0" not in kind
        free = np.linalg.norm(np.divide(beta, evals, out=np.zeros(k), where=evals > 0))
        beta *= radius * (rng.uniform(1.5, 20.0) if kind.endswith("out")
                          else rng.uniform(0.1, 0.7) * (kind != "b = 0")) / free
        perm = rng.permutation(k)
        H = ((Q * evals) @ Q.T)[np.ix_(perm, perm)]
        Hs.append((H + H.T) / 2)
        bs.append((Q @ beta)[perm])
    on_ball = [kind.endswith("out") for kind in kinds * 3]
    if k == 3:
        Hs.append(np.diag([0.0, 1.0, 1.0]))
        bs.append(np.array([0.0, -0.9, 0.9]) * radius)
        on_ball.append(True)
    return np.array(Hs), np.array(bs), np.array(on_ball)


def free_points(H, b):
    """-H^+ b, row by row."""
    return np.stack([-np.linalg.pinv(Hr, rcond=1e-12, hermitian=True) @ br
                     for Hr, br in zip(H, b)])


class TestBallPoint:
    """``theory._ball_point``, the minimizer of b.z + z.Hz/2 over the ball."""

    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("radius", [1.0, 100.0])
    def test_on_ball_rows_solve_the_secular_system(self, k, radius):
        for seed in range(3):
            H, b, on_ball = ball_problems(k, seed, radius)
            z = theory._ball_point(H, b, radius)
            np.testing.assert_allclose(z[~on_ball], free_points(H, b)[~on_ball],
                                       rtol=1e-10, atol=1e-12 * radius)
            for Hr, br, zr in zip(H[on_ball], b[on_ball], z[on_ball]):
                norm = np.linalg.norm(zr)
                assert abs(norm - radius) <= 4 * np.finfo(float).eps * radius
                mu = -(zr @ (Hr @ zr + br)) / (zr @ zr)
                assert mu >= 0.0
                scale = np.linalg.norm(br) + np.linalg.norm(Hr, 2) * norm
                assert np.linalg.norm(Hr @ zr + mu * zr + br) <= 1e-12 * scale

    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("radius", [1.0, np.inf])
    def test_a_stacked_row_is_its_one_row_call(self, k, radius):
        H, b, _ = ball_problems(k, 3)
        z = theory._ball_point(H, b, radius)
        for r in range(len(b)):
            alone = theory._ball_point(H[r:r + 1], b[r:r + 1], radius)[0]
            np.testing.assert_array_equal(z[r], alone)
        if radius == np.inf:            # no ball: the free point everywhere
            np.testing.assert_allclose(z, free_points(H, b), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("radius", [1.0, 100.0])
    def test_no_row_takes_more_than_eight_passes(self, monkeypatch, radius):
        # One-row calls, with the row-wise products counted: the free point's
        # norm and the final scaling take one each, and every Newton pass two.
        calls, dot = [], theory._dot
        monkeypatch.setattr(theory, "_dot", lambda a, b: calls.append(1) or dot(a, b))
        passes = []
        for k in range(1, 9):
            for seed in range(4):
                H, b, on_ball = ball_problems(k, seed, radius)
                for r in np.flatnonzero(on_ball):
                    calls.clear()
                    theory._ball_point(H[r:r + 1], b[r:r + 1], radius)
                    passes.append((len(calls) - 2) // 2)
        assert 1 <= min(passes) and max(passes) <= 8


class TestBallConstrainedFit:
    def test_on_bound_fits_meet_the_gap_test(self, on_bound_cases):
        assert len(on_bound_cases) >= 50
        for D, y in on_bound_cases:
            fit = fit_problem(D, y)
            grad = (logistic(D @ fit.theta) - clipped(y)) @ D / len(y)
            norm = np.linalg.norm(fit.theta)
            assert fit.on_norm_bound and fit.converged
            assert abs(norm - THETA_NORM_BOUND) <= 1e-9
            assert -(grad @ fit.theta) >= 0.0          # the loss falls outward
            assert duality_gap(fit.theta, grad) <= theory.GAP_TOL

    def test_two_row_fits_match_dense_circle_scan(self, on_bound_cases):
        pairs = [(D, y) for D, y in on_bound_cases if len(y) == 2][:20]
        assert len(pairs) >= 10
        for D, y in pairs:
            yc = clipped(y)
            _, _, Vt = np.linalg.svd(D, full_matrices=False)
            # The loss sees theta only through its row-space part, so the
            # optimum on the ball lies on the circle of radius R in that plane.
            phi = np.linspace(0.0, 2 * np.pi, 100_000, endpoint=False)
            for width in (None, 4 * (phi[1] - phi[0])):
                if width is not None:
                    phi = best + np.linspace(-width, width, 20_001)
                circle = THETA_NORM_BOUND * np.stack([np.cos(phi), np.sin(phi)], axis=1)
                kls = mean_kl(D, yc, circle @ Vt[:2])
                best = phi[np.argmin(kls)]
            assert fit_problem(D, y).kl <= kls.min() + 1e-10

    def test_iteration_cap_reports_unconverged(self, on_bound_cases, monkeypatch):
        D, y = on_bound_cases[0]
        assert fit_problem(D, y).converged
        monkeypatch.setattr(theory, "MAX_NEWTON_ITER", 1)
        assert not fit_problem(D, y).converged

    def test_cap_at_the_steps_needed_reports_converged(self, on_bound_cases, monkeypatch):
        # The first on-bound case meets the gap test after its second Newton
        # step, so a cap of 2 returns the uncapped fit, converged; a cap of 1
        # stops one step short.
        D, y = on_bound_cases[0]
        full = fit_problem(D, y)
        monkeypatch.setattr(theory, "MAX_NEWTON_ITER", 2)
        capped = fit_problem(D, y)
        assert capped.converged
        np.testing.assert_array_equal(capped.theta, full.theta)
        monkeypatch.setattr(theory, "MAX_NEWTON_ITER", 1)
        assert not fit_problem(D, y).converged

    @pytest.mark.parametrize("cap", [1, 50])
    @pytest.mark.parametrize("which", ["on_ball", "interior", "weighting"])
    def test_the_gap_bounds_the_excess_over_a_long_fit(
            self, on_bound_cases, monkeypatch, which, cap):
        # Both fits run ``theory.damped_newton``: whatever stops it, converged
        # is the gap test recomputed at the returned point, and the returned
        # loss is within that gap of a fit run to 200 steps with no gap test.
        def fit_at(steps, tol):
            monkeypatch.setattr(theory, "MAX_NEWTON_ITER", steps)
            monkeypatch.setattr(theory, "GAP_TOL", tol)
            if which == "weighting":
                fit = fit_cpt_params(ds)
                x = np.log([fit.params.delta, fit.params.gamma])
                grad = cpt_objective(ds, 1.0)(x)[1]()[0]
            else:
                fit = fit_problem(D, y)
                x = fit.theta
                grad = (logistic(D @ x) - clipped(y)) @ D / len(y)
            return fit, fit.cross_entropy, duality_gap(x, grad)

        if which == "weighting":
            ds = cpt_dataset(1000, seed=19, kind="binary")
        else:
            D, y = on_bound_cases[0]
            if which == "interior":         # one menu twice, with two targets
                D = D[[0, 0]]
            assert fit_problem(D, y).on_norm_bound == (which == "on_ball")
        tol = theory.GAP_TOL
        fit, loss, gap = fit_at(cap, tol)
        _, best, _ = fit_at(200, 0.0)
        assert fit.converged == (gap <= tol)
        assert fit.converged == (cap == 50)
        assert loss - best <= gap

    def test_stacked_fit_gives_each_problems_own_newton_fit(self, on_bound_cases):
        # On-bound problems stacked with exact ones: every row of the stacked
        # fit is the fit of that problem alone, to the bit.
        rng = np.random.default_rng(30)
        exact = [(D, 1 / (1 + np.exp(-(D @ rng.normal(0, 0.1, D.shape[1])))))
                 for D, _ in on_bound_cases[:5]]
        problems = [p for pair in zip(on_bound_cases, exact) for p in pair]
        stacked = theory._fit_logits(np.stack([D for D, _ in problems]),
                                     np.stack([y for _, y in problems]))
        assert stacked.on_norm_bound.sum() >= 5 and (~stacked.on_norm_bound).sum() >= 5
        for r, (D, y) in enumerate(problems):
            alone = fit_problem(D, y)
            np.testing.assert_array_equal(stacked.theta[r], alone.theta)
            assert (stacked.kl[r], stacked.converged[r], stacked.on_norm_bound[r]) == \
                (alone.kl, alone.converged, alone.on_norm_bound)

    def test_search_fits_match_the_one_row_reference_to_the_bit(self):
        # Every fit of 64 adversarial runs at 50 iterations (seed 5), made in
        # the search's own stacks, is the fit the scalar loop makes alone.
        # Against the loop whose ball steps solve the secular equation by
        # bracketed Newton instead, its loss agrees to 1e-13, and so does its
        # theta where both fits converge; a fit that one of them leaves at
        # the rounding floor of its loss stops a step away from the other.
        cases = []

        def record(D, y):
            fit = theory._fit_logits(D, y)
            cases.extend(zip(D.copy(), y.copy(), fit.theta, fit.converged))
            return fit

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(adversarial, "_fit_logits", record)
            list(run_adversarial_indices(CptPredictor(CptParams(0.726, 0.309)),
                                         pipeline_config(5), range(64)))
        assert len(cases) >= 3000
        for D, y, theta, converged in cases:
            ref_theta, ref_converged, _ = reference_newton_fit(D, y)
            np.testing.assert_array_equal(theta, ref_theta)
            assert converged == ref_converged
            bracketed, bracketed_converged, _ = reference_newton_fit(
                D, y, ball_point=bracketed_ball_point)
            loss, bracketed_loss = (theory._cross_entropy(D @ t, clipped(y), np.ones(len(y)))
                                    for t in (theta, bracketed))
            assert abs(loss - bracketed_loss) <= 1e-13 * bracketed_loss
            if converged and bracketed_converged:
                assert np.abs(theta - bracketed).max() <= 1e-13 * np.linalg.norm(bracketed)

    @pytest.mark.parametrize("R", [1, 7, 64])
    def test_mixed_rank_stack_gives_each_row_its_own_fit(self, on_bound_cases, R):
        # Rank-1 rows (one menu listed twice with two targets) cycled with
        # rank-2 on-bound rows: each equals its one-row fit to the bit.
        two_row = [(D, y) for D, y in on_bound_cases if len(y) == 2][:8]
        rank_one = [(D[[0, 0]], y) for D, y in two_row]
        problems = [p for pair in zip(rank_one, two_row) for p in pair]
        problems = [problems[r % len(problems)] for r in range(R)]
        stacked = theory._fit_logits(np.stack([D for D, _ in problems]),
                                     np.stack([y for _, y in problems]))
        assert (stacked.kl[::2] > 0).all()       # the rank-1 rows are not exact
        if R > 1:
            assert stacked.on_norm_bound.any() and not stacked.on_norm_bound.all()
        for r, (D, y) in enumerate(problems):
            alone = fit_problem(D, y)
            np.testing.assert_array_equal(stacked.theta[r], alone.theta)
            assert (stacked.kl[r], stacked.converged[r], stacked.on_norm_bound[r]) == \
                (alone.kl, alone.converged, alone.on_norm_bound)

    @pytest.mark.parametrize("R", [7, 40])
    def test_one_solver_call_fits_every_rank(self, monkeypatch, R):
        # Three menus a problem, K = 6: an exact row cycled with inexact rows
        # of rank 0 to 3, inside the ball and on it.  One damped_newton call
        # fits every inexact row, whatever its rank; each row keeps the bits
        # of its fit alone, and its KL is the one-row reference's, which
        # fits in rank-wide coordinates.
        rng = np.random.default_rng(31)
        d = rng.normal(size=(3, 6))
        conflict, steep, apart = [0.2, 0.7, 0.9], [0.99, 0.999, 0.9999], [0.99, 0.01, 0.999]
        problems = [(d, logistic(d @ rng.normal(0, 0.1, 6))),             # exact
                    (np.zeros((3, 6)), conflict),                           # rank 0
                    (d[[0, 0, 0]], conflict), (1e-3 * d[[0, 0, 0]], steep),  # rank 1
                    (d[[0, 1, 0]], [0.2, 0.6, 0.8]), (1e-3 * d[[0, 1, 0]], apart),
                    (1e-3 * d, apart)]                                      # rank 3
        problems = [(D, np.asarray(y, dtype=float)) for D, y in problems]
        problems = [problems[r % len(problems)] for r in range(R)]
        D, y = np.stack([D for D, _ in problems]), np.stack([y for _, y in problems])
        calls = []

        def spy(logits, x, *args):
            calls.append(len(x))
            return newton(logits, x, *args)

        newton = theory.damped_newton
        monkeypatch.setattr(theory, "damped_newton", spy)
        stacked = theory._fit_logits(D, y)
        inexact = np.arange(R) % 7 > 0
        assert calls == [inexact.sum()]
        assert (stacked.kl[inexact] > 0).all()
        assert [np.linalg.matrix_rank(D[r]) for r in range(1, 7)] == [0, 1, 1, 2, 2, 3]
        assert stacked.on_norm_bound[:7].tolist() == [False] * 3 + [True, False, True, True]
        for r, (Dr, yr) in enumerate(problems):
            alone = fit_problem(Dr, yr)
            np.testing.assert_array_equal(stacked.theta[r], alone.theta)
            assert (stacked.kl[r], stacked.converged[r], stacked.on_norm_bound[r]) == \
                (alone.kl, alone.converged, alone.on_norm_bound)
            ref_theta, ref_converged, _ = reference_newton_fit(Dr, yr)
            assert abs(stacked.kl[r] - mean_kl(Dr, clipped(yr), ref_theta)[0]) <= 1e-12
            assert stacked.converged[r] == ref_converged


class TestTheoryLoss:
    def test_exact_fit_gives_zero_kl_and_stationary_features(self, basis10):
        rng = np.random.default_rng(8)
        m = sample_random_menu(rng, 2, 0.5, 9.5)
        target = 0.42
        fit = fit_theta(basis10, *stack([m]), [target])
        spec = TheorySpec(basis10, fit.theta)
        ce, kl = theory_loss(spec, [(m, target)])
        assert kl < 1e-10

    def test_duplication_leaves_mean_loss_unchanged(self, basis10):
        rng = np.random.default_rng(10)
        m = sample_random_menu(rng, 2, 0, 10)
        spec = TheorySpec(basis10, rng.normal(size=6))
        once = theory_loss(spec, [(m, 0.3)])
        twice = theory_loss(spec, [(m, 0.3), (m, 0.3)])
        assert twice[0] == pytest.approx(once[0], rel=1e-12)

    def test_features_linear_in_probabilities(self, basis10):
        # d(x) is linear in each probability block at fixed payoffs.
        rng = np.random.default_rng(11)
        m = sample_random_menu(rng, 2, 0, 10)
        d = eu_difference_features(basis10, m)
        assert d.shape == (6,)
