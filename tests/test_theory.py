import numpy as np
import pytest

from anomgen import adversarial, theory
from anomgen.adversarial import GdaConfig, run_adversarial_indices
from anomgen.basis import PolynomialBasis
from anomgen.cpt import CptParams, CptPredictor, logistic
from anomgen.predictor import fit_cpt_params
from anomgen.theory import THETA_NORM_BOUND, FitResult
from conftest import (TheorySpec, cpt_dataset, cpt_objective, eu_difference_features, fit_theta,
                      reference_newton_fit, sample_random_menu, stack, theory_choice_prob,
                      theory_loss)


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
            list(run_adversarial_indices(predictor, GdaConfig(max_iters=3), 23,
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


class TestBallConstrainedFit:
    def test_on_bound_fits_satisfy_kkt(self, on_bound_cases):
        assert len(on_bound_cases) >= 50
        for D, y in on_bound_cases:
            fit = fit_problem(D, y)
            y = clipped(y)
            theta = fit.theta
            grad = ((1.0 / (1.0 + np.exp(-(D @ theta))) - y) @ D) / len(y)
            norm = np.linalg.norm(theta)
            lam = -(grad @ theta) / norm ** 2
            assert fit.on_norm_bound and fit.converged
            assert abs(norm - THETA_NORM_BOUND) <= 1e-9
            assert lam >= 0.0
            assert np.linalg.norm(grad + lam * theta) <= 1e-10

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
        # The first on-bound case meets the KKT test after its third Newton
        # step, so a cap of 3 returns the uncapped fit, converged; a cap of 2
        # stops one step short.
        D, y = on_bound_cases[0]
        full = fit_problem(D, y)
        monkeypatch.setattr(theory, "MAX_NEWTON_ITER", 3)
        capped = fit_problem(D, y)
        assert capped.converged
        np.testing.assert_array_equal(capped.theta, full.theta)
        monkeypatch.setattr(theory, "MAX_NEWTON_ITER", 2)
        assert not fit_problem(D, y).converged

    @pytest.mark.parametrize("cap", [1, 50])
    @pytest.mark.parametrize("which", ["theta", "weighting"])
    def test_converged_is_the_residual_test_at_the_returned_point(
            self, on_bound_cases, monkeypatch, which, cap):
        # Both fits run ``theory.damped_newton``: whatever stops it, converged
        # reports the fit's residual test, recomputed at the returned point.
        monkeypatch.setattr(theory, "MAX_NEWTON_ITER", cap)
        if which == "theta":
            D, y = on_bound_cases[0]
            fit = fit_problem(D, y)
            theta, y = fit.theta, clipped(y)
            grad = ((logistic(D @ theta) - y) @ D) / len(y)
            lam = max(0.0, -(grad @ theta) / (theta @ theta)) if fit.on_norm_bound else 0.0
            residual = np.linalg.norm(grad + lam * theta)
        else:
            ds = cpt_dataset(1000, seed=19, kind="binary")
            fit = fit_cpt_params(ds)
            x = np.log([fit.params.delta, fit.params.gamma])
            residual = np.linalg.norm(cpt_objective(ds, 1.0)(x)[1]()[0])
        assert fit.converged == (residual <= theory.KKT_TOL)
        assert fit.converged == (cap == 50)

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
        cases = []

        def record(D, y):
            fit = theory._fit_logits(D, y)
            cases.extend(zip(D.copy(), y.copy(), fit.theta, fit.converged))
            return fit

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(adversarial, "_fit_logits", record)
            list(run_adversarial_indices(CptPredictor(CptParams(0.726, 0.309)),
                                         GdaConfig(max_iters=50), 5, range(64)))
        assert len(cases) >= 3000
        for D, y, theta, converged in cases:
            ref_theta, ref_converged = reference_newton_fit(D, y)
            np.testing.assert_array_equal(theta, ref_theta)
            assert converged == ref_converged

    @pytest.mark.parametrize("R", [1, 7, 64])
    def test_mixed_rank_stack_gives_each_row_its_own_fit(self, on_bound_cases, R):
        # Rank-1 rows (one menu listed twice with two targets) cycled with
        # rank-2 on-bound rows: each goes to its own rank group and its own
        # rows of the stacked solver, and equals its one-row fit to the bit.
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
