import dataclasses

import numpy as np
import pytest

from anomgen import adversarial
from anomgen.adversarial import (GdaConfig, ascent_objective, gda_run, interior_menu,
                                 run_adversarial_indices)
from anomgen.basis import ISplineBasis, PolynomialBasis
from anomgen.cpt import GRAD_BOUNDARY, CptParams, CptPredictor, logistic
from anomgen.lotteries import LOTTERY_SIGN, index_block
from anomgen.morphing import run_morph_indices
from anomgen.records import record_to_collection
from anomgen.theory import _fit_logits, eu_difference_rows, stack_basis_values
from conftest import (TheorySpec, central_difference, fit_theta, flat, pipeline_config,
                      predict, record_bytes, record_menus, sample_random_menu, search_iterates,
                      stack, swapped, theory_loss, unchecked_menu)

BASIS = PolynomialBasis(order=6, domain=(0, 10))


class LogitEutPredictor:
    """A predictor that IS a member of the allowable class."""

    def __init__(self, theta):
        self.theta = TheorySpec(BASIS, theta).theta
        self.label = "logit-eut"

    def grad_batch(self, Z, P):
        # Over (p0, p1): the expected-utility difference has gradient (-u0, u1).
        B = stack_basis_values(BASIS, Z)
        f = logistic(eu_difference_rows(P, B) @ self.theta)
        return f, (f * (1 - f))[:, None, None] * LOTTERY_SIGN * (B @ self.theta)


def gda_menus(pred, config, menus, indices=None):
    """``gda_run`` from a list of menus; run r is run ``indices[r]``, by default r."""
    return gda_run(pred, config, BASIS, *stack(menus), None,
                   range(len(menus)) if indices is None else indices)


def objective(pred, spec, menu):
    """The disagreement score and its gradient for one menu, flattened to
    (p0, p1) order."""
    Z, P = stack([menu])
    value, grad = ascent_objective(spec.theta[None], P, stack_basis_values(BASIS, Z),
                                   *pred.grad_batch(Z, interior_menu(P)))
    return value[0], grad[0].reshape(-1)


class TestInteriorMenu:
    def test_boundary_coordinates_lifted_to_tolerance(self):
        rng = np.random.default_rng(20)
        for _ in range(500):
            J = int(rng.integers(2, 5))
            probs = []
            for _ in range(2):
                p = rng.dirichlet(np.ones(J))
                at_face = rng.random(J) < 0.5
                at_face[rng.integers(J)] = False
                p[at_face] = rng.choice([0.0, 1e-300, 1e-9, 9.99e-9])
                rng.uniform(0, 10, J)                   # the lottery's payoffs
                probs.append(p / p.sum())
            out = interior_menu(np.stack(probs))
            for p in out:
                assert p.min() >= GRAD_BOUNDARY
                assert abs(p.sum() - 1.0) <= 1e-12

    def test_interior_menu_only_renormalized(self):
        # Menus already inside come back as before the boundary fix: clamping
        # is a no-op and only the division by the sum remains.
        rng = np.random.default_rng(21)
        for _ in range(200):
            _, P = sample_random_menu(rng, int(rng.integers(2, 5)), 0, 10)
            out = interior_menu(P)
            for p, before in zip(out, P):
                if before.min() >= 2 * GRAD_BOUNDARY:
                    np.testing.assert_array_equal(p, before / before.sum())


class TestAscentObjective:
    def test_logit_objective_zero_at_indifference(self):
        Z, P = sample_random_menu(np.random.default_rng(0), 2, 0, 10)
        menu = (Z[[0, 0]], P[[0, 0]])   # predictor gives 0.5
        pred = CptPredictor(CptParams(0.726, 0.309))
        spec = TheorySpec(BASIS, np.random.default_rng(1).normal(size=6))
        value, _ = objective(pred, spec, menu)
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_self_consistent_predictor_never_disagrees(self):
        rng = np.random.default_rng(2)
        theta = rng.normal(0, 0.5, size=6)
        pred = LogitEutPredictor(theta)
        spec = TheorySpec(BASIS, theta)
        for _ in range(1000):
            menu = sample_random_menu(rng, 2, 0, 10)
            value, _ = objective(pred, spec, menu)
            assert value <= 1e-12

    def test_logit_gradient_matches_finite_differences(self):
        pred = CptPredictor(CptParams(0.926, 0.377))
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(25):
            menu = sample_random_menu(rng, 2, 0.5, 9.5)
            if menu[1].min() < 0.05:
                continue
            spec = TheorySpec(BASIS, rng.normal(0, 0.4, size=6))
            _, grad = objective(pred, spec, menu)

            def value_at(x):
                return objective(pred, spec, unchecked_menu(x, 2))[0]

            # The objective's gradient covers the probability coordinates.
            fd = central_difference(value_at, flat(menu))[[2, 3, 6, 7]]
            worst = max(worst, np.max(np.abs(fd - grad) / (np.abs(grad) + 1e-7)))
        assert worst < 1e-4

    def test_raw_loss_gradient_vanishes_at_exact_fit(self):
        # The vanishing-gradient regime that motivates the logit objective:
        # the cross-entropy of the fit against the predictor's value, held
        # fixed, is flat in the probabilities wherever the fit is exact.
        pred = CptPredictor(CptParams(0.726, 0.309))
        rng = np.random.default_rng(4)
        checked = 0
        for _ in range(20):
            menu = sample_random_menu(rng, 2, 0, 10)
            target = predict(pred, menu)
            fit = fit_theta(BASIS, *stack([menu]), [target])
            if fit.kl > 1e-10:
                continue
            spec = TheorySpec(BASIS, fit.theta)
            grad = central_difference(
                lambda x: theory_loss(spec, [(unchecked_menu(x, 2), target)])[0],
                flat(menu))[[2, 3, 6, 7]]
            assert np.linalg.norm(grad) < 1e-6
            checked += 1
        assert checked > 0


class TestGdaRun:
    def test_zero_steps_equivalent_without_movement(self):
        # Tiny step size: final menu stays at the start, candidate duplicates.
        pred = CptPredictor(CptParams(0.726, 0.309))
        x0 = sample_random_menu(np.random.default_rng(5), 2, 0, 10)
        cfg = GdaConfig(step_size=1e-300, max_iters=3)
        (result,) = gda_menus(pred, cfg, [x0])
        np.testing.assert_allclose(flat(record_menus(result)[1]), flat(x0), atol=1e-12)

    def test_simplex_feasibility_along_trajectory(self):
        pred = CptPredictor(CptParams(0.726, 0.309))
        for s, results in search_iterates("adversarial", pred, pipeline_config(6), range(10)):
            for result in results:
                assert result["iterations"] == s
                x = flat(record_menus(result)[1])
                assert abs(x[2:4].sum() - 1) < 1e-12
                assert abs(x[6:8].sum() - 1) < 1e-12
                assert np.all(x[2:4] >= 0) and np.all(x[6:8] >= 0)
        assert s == GdaConfig().max_iters

    def test_payoffs_frozen_by_default(self):
        pred = CptPredictor(CptParams(0.726, 0.309))
        (result,) = run_adversarial_indices(pred, pipeline_config(7), [0])
        x0, xS = (flat(m) for m in record_menus(result))
        np.testing.assert_array_equal(x0[:2], xS[:2])
        np.testing.assert_array_equal(x0[4:6], xS[4:6])

    def test_relabel_invariance(self):
        # Swapping lottery labels in the initial menu (the predictor output
        # flips with it) mirrors every iterate.
        pred = CptPredictor(CptParams(0.726, 0.309))
        x0 = sample_random_menu(np.random.default_rng(8), 2, 0, 10)
        for s in range(1, 26):
            r1, r2 = gda_menus(pred, GdaConfig(max_iters=s), [x0, swapped(x0)])
            assert r1["iterations"] == r2["iterations"] == s
            # Flat order is (z0, p0, z1, p1): swapping labels swaps halves.
            np.testing.assert_allclose(np.roll(flat(record_menus(r1)[1]), 4),
                                       flat(record_menus(r2)[1]), atol=1e-9)


class TestGenerateAdversarial:
    def test_master_seed_determinism(self):
        pred = CptPredictor(CptParams(0.726, 0.309))
        cfg = pipeline_config(11)
        for a, b in zip(run_adversarial_indices(pred, cfg, range(5)),
                        run_adversarial_indices(pred, cfg, range(5))):
            assert a == b

    def test_provenance_recorded(self):
        pred = CptPredictor(CptParams(0.726, 0.309))
        (result,) = run_adversarial_indices(pred, pipeline_config(12), [3])
        assert result["procedure"] == "adversarial" and result["id"] == "adversarial-000003"
        assert result["master_seed"] == 12 and result["run_index"] == 3
        assert result["iterations"] == 50


class TestEstimatedPredictors:
    """Generation runs against fitted models instead of the oracle."""

    def _training_data(self, n=800):
        from anomgen.data import simulate_choices
        menus = [sample_random_menu(np.random.default_rng((77, i)), 2, 0, 10)
                 for i in range(n)]
        return simulate_choices(np.random.default_rng(78), CptPredictor(CptParams(0.726, 0.309)),
                                *stack(menus), kind="rate", count=200)

    def test_mlp_backed_generation(self):
        from anomgen.predictor import MlpPredictor, MlpTrainConfig, train_mlp
        model = train_mlp(self._training_data(), hidden=(16, 16),
                          config=MlpTrainConfig(epochs=60, seed=0))
        pred = MlpPredictor(model)
        (result,) = run_adversarial_indices(pred, pipeline_config(13), [0])
        assert result["iterations"] == 50
        (again,) = run_adversarial_indices(pred, pipeline_config(13), [0])
        assert again == result
        (morph,) = run_morph_indices(pred, pipeline_config(13), [0])
        assert len(record_to_collection(morph).q) == 2
        assert all(np.isfinite(morph["predicted_probs"]))

    def test_fitted_weighting_backed_generation(self):
        # A fitted weighting reaches the searches as the predictor's explicit
        # (delta, gamma), as a preset's does.
        from anomgen.config import build_predictor, parse_config
        from anomgen.predictor import fit_cpt_params
        params = fit_cpt_params(self._training_data()).params
        pred = build_predictor(parse_config({"predictor": {
            "delta": params.delta, "gamma": params.gamma}}).predictor)
        assert pred.params == params
        (result,) = run_adversarial_indices(pred, pipeline_config(14), [0])
        assert result["iterations"] == 50
        assert result["predictor"] == f"cpt({params.delta:g},{params.gamma:g})"


class RowNanPredictor(CptPredictor):
    """Non-finite gradients for menus whose lottery 0 puts more than half its
    mass on its first payoff; the oracle's elsewhere."""

    def grad_batch(self, Z, P):
        f, df = super().grad_batch(Z, P)
        df[P[:, 0, 0] > 0.5] = np.nan
        return f, df


class TestLockstep:
    """Runs of either search advance as one probability stack; a run's bytes
    do not depend on the runs stacked with it.  Morph runs draw from their
    own generators, so a stack where some runs stop while others go on
    checks that each run keeps its own stream."""

    def test_stack_matches_runs_alone(self):
        pred = CptPredictor(CptParams(0.726, 0.309))
        cfg = GdaConfig(max_iters=20)
        rng = np.random.default_rng(40)
        menus = [sample_random_menu(rng, 2, 0, 10) for _ in range(9)]
        together = gda_menus(pred, cfg, menus)
        for r, (menu, result) in enumerate(zip(menus, together)):
            (alone,) = gda_menus(pred, cfg, [menu], [r])
            assert record_bytes(alone) == record_bytes(result)
        cfg = pipeline_config(40, morph={"max_iters": 20})
        together = list(run_morph_indices(pred, cfg, range(9)))
        # Some runs' directions vanish while the others go on.
        stops = [r["stop"] for r in together]
        assert "direction_vanished" in stops and "max_iters" in stops
        for i, result in enumerate(together):
            (alone,) = run_morph_indices(pred, cfg, [i])
            assert record_bytes(alone) == record_bytes(result)

    def test_nonfinite_run_stops_and_others_go_on(self, monkeypatch):
        # Every record, its stop and inner-fit counts included, has the bytes
        # of its run alone.
        pred = RowNanPredictor(CptParams(0.726, 0.309))
        cfg = GdaConfig(max_iters=5)
        rng = np.random.default_rng(41)
        menus = [sample_random_menu(rng, 2, 0, 10) for _ in range(12)]
        results = gda_menus(pred, cfg, menus)
        stopped = [r for r in results if r["flags"]]
        assert stopped and len(stopped) < len(results)
        for r, (menu, result) in enumerate(zip(menus, results)):
            n = result["iterations"]
            assert result["flags"] == ([f"nonfinite_gradient@iter{n}"] if n < 5 else [])
            assert result["stop"] == ("nonfinite_gradient" if n < 5 else "max_iters")
            (alone,) = gda_menus(pred, cfg, [menu], [r])
            assert record_bytes(alone) == record_bytes(result)
        cfg = pipeline_config(41, morph={"max_iters": 5})
        # The loop's inner fits, each row keyed by its run's anchor logit row.
        # Morph's I-spline fits here all converge inside the ball, so the
        # probe plants flags, which no step reads: every fit on the ball, and
        # the odd runs' fits unconverged.
        Z, P = index_block(cfg, range(12), 1)
        anchors = eu_difference_rows(P[:, 0], stack_basis_values(
            ISplineBasis(domain=cfg.theory_basis["domain"]), Z[:, 0]))
        run_of = {a.tobytes(): r for r, a in enumerate(anchors)}
        assert len(run_of) == 12
        fits, steps = np.zeros((12, 2), dtype=int), []

        def probe(D, y):
            runs = np.array([run_of[d.tobytes()] for d in D[:, 0]], dtype=int)
            steps.append(runs)
            return dataclasses.replace(_fit_logits(D, y), on_norm_bound=np.ones(len(D), bool),
                                       converged=runs % 2 == 0)

        monkeypatch.setattr(adversarial, "_fit_logits", probe)
        results = list(run_morph_indices(pred, cfg, range(12)))
        for runs in steps:
            fits[runs, 0] += 1
            fits[runs, 1] += runs % 2
        assert [[r["inner_fits_on_bound"], r["inner_fits_unconverged"]]
                for r in results] == fits.tolist()
        # A run that stops on its gradient at step 0 counts that step's fit.
        assert len(steps) >= 2 and fits[0].tolist() == [1, 0] and fits[9].tolist() == [2, 2]
        stops = [r["stop"] for r in results]
        # Runs stop at step 0 on a non-finite gradient while others go on.
        assert results[0]["iterations"] == 0 and stops[0] == "nonfinite_gradient"
        assert stops.count("nonfinite_gradient") < len(results)
        for i, result in enumerate(results):
            n = result["iterations"]
            assert result["flags"] == ([f"nonfinite_gradient@iter{n}"]
                                       if stops[i] == "nonfinite_gradient" else [])
            (alone,) = run_morph_indices(pred, cfg, [i])
            assert record_bytes(alone) == record_bytes(result)

    def test_inner_fit_counts_recorded(self):
        pred = CptPredictor(CptParams(0.726, 0.309))
        recs = run_adversarial_indices(pred, pipeline_config(23, adversarial={"max_iters": 3}),
                                       range(40))
        on_bound = [r["inner_fits_on_bound"] for r in recs]
        unconverged = [r["inner_fits_unconverged"] for r in recs]
        assert all(type(v) is int and 0 <= v <= 3 for v in on_bound + unconverged)
        # Short runs at this seed land some inner fits on the ball.
        assert sum(on_bound) > 0
