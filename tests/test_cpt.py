import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomgen.cpt import CptParams, CptPredictor, logistic, lottery_values
from conftest import (central_difference, flat, flat_menu_fn, grad, kernel_weights, lottery,
                      menu, predict, sample_random_menu, stack, swapped)

BRUHIN_B = CptParams(0.726, 0.309)
ORACLE_B = CptPredictor(BRUHIN_B)


def value(lot, params):
    return lottery_values(*lot, params)


class TestProbWeights:
    def test_identity_parameters(self):
        p = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(kernel_weights(p, CptParams(1, 1)), p)

    def test_certainty_maps_to_one(self):
        np.testing.assert_allclose(kernel_weights(np.array([1.0, 0.0]), BRUHIN_B),
                                   [1.0, 0.0])

    def test_subcertainty_half_half(self):
        w = kernel_weights(np.array([0.5, 0.5]), BRUHIN_B)
        # delta p^g / (delta p^g + p^g) = delta / (1 + delta) at p = (.5, .5)
        assert w[0] == pytest.approx(0.726 / 1.726, abs=1e-12)
        assert w.sum() == pytest.approx(0.8412, abs=1e-4)
        assert w.sum() < 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            lottery_values(np.array([]), np.array([]), BRUHIN_B)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(4))
        perm = rng.permutation(4)
        w = kernel_weights(p, BRUHIN_B)
        np.testing.assert_allclose(kernel_weights(p[perm], BRUHIN_B), w[perm],
                                   rtol=1e-12)


class TestCptValue:
    def test_certain_payoff(self):
        assert value(lottery([5], [1.0]), BRUHIN_B) == pytest.approx(5)

    def test_identity_parameters_give_expected_value(self):
        lot = lottery([1, 4, 7], [0.2, 0.5, 0.3])
        assert value(lot, CptParams(1, 1)) == pytest.approx(lot[1] @ lot[0])

    def test_half_half_example(self):
        lot = lottery([0, 10], [0.5, 0.5])
        assert value(lot, BRUHIN_B) == pytest.approx(10 * 0.726 / 1.726, abs=1e-9)


def loop_values_and_grads(z, p, params):
    """One lottery's value and dV/dp, coordinate by coordinate: the reference
    the vectorized kernel must match bit for bit, since search outputs are
    byte-compared across versions."""
    d, g = params.delta, params.gamma
    w = np.power(p, g)
    total = w.sum()
    denom = d * w + (total - w)
    wp = g * np.power(p, g - 1.0)
    common = d * w / denom ** 2
    dv_dp = np.empty_like(p)
    for i in range(p.size):
        diag = d * wp[i] * (total - w[i]) / denom[i] ** 2 * z[i]
        off = -(wp[i] * common * z).sum() + wp[i] * common[i] * z[i]
        dv_dp[i] = diag + off
    return float((d * w / denom) @ z), dv_dp


class TestLotteryValues:
    def test_matches_coordinate_loop_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for params in (BRUHIN_B, CptParams(0.926, 0.377), CptParams(1.063, 0.451)):
            for J in (2, 3):
                Z = rng.uniform(0, 10, size=(2000, J))
                P = rng.uniform(0, 1, size=(2000, J))
                P /= P.sum(axis=1, keepdims=True)
                V, dV = lottery_values(Z, P, params, wrt="p")
                for z, p, v, dv in zip(Z, P, V, dV):
                    ref_v, ref_dv = loop_values_and_grads(z, p, params)
                    assert v == ref_v
                    np.testing.assert_array_equal(dv, ref_dv)

    def test_batch_rows_match_single_rows_bit_for_bit(self):
        rng = np.random.default_rng(6)
        for J in (2, 3):
            Z = rng.uniform(0, 10, size=(64, J))
            P = rng.dirichlet(np.ones(J), size=64)
            V, dV = lottery_values(Z, P, BRUHIN_B, wrt="p")
            np.testing.assert_array_equal(lottery_values(Z, P, BRUHIN_B), V)
            for i in range(64):
                v, dv = lottery_values(Z[i:i + 1], P[i:i + 1], BRUHIN_B, wrt="p")
                assert v[0] == V[i]
                np.testing.assert_array_equal(dv[0], dV[i])

    def test_parameter_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(7)
        Z = rng.uniform(0, 10, size=(20, 3))
        P = rng.dirichlet(np.ones(3), size=20)
        P[0] = [0.6, 0.4, 0.0]            # a zero coordinate: 0^gamma = 0
        d, g = 0.926, 0.377
        V, dd, dg = lottery_values(Z, P, CptParams(d, g), wrt="params")
        h = 1e-6
        fd_d = (lottery_values(Z, P, CptParams(d + h, g))
                - lottery_values(Z, P, CptParams(d - h, g))) / (2 * h)
        fd_g = (lottery_values(Z, P, CptParams(d, g + h))
                - lottery_values(Z, P, CptParams(d, g - h))) / (2 * h)
        np.testing.assert_allclose(dd, fd_d, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(dg, fd_g, rtol=1e-6, atol=1e-8)
        np.testing.assert_array_equal(V, lottery_values(Z, P, CptParams(d, g)))


class TestLogistic:
    def test_matches_two_branch_formula_bit_for_bit(self):
        # The masked two-branch form: 1/(1+exp(-u)) for u >= 0 and
        # exp(u)/(1+exp(u)) below, each exp taken only where it cannot overflow.
        def two_branch(u):
            out = np.empty_like(u)
            pos = u >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
            e = np.exp(u[~pos])
            out[~pos] = e / (1.0 + e)
            return out

        rng = np.random.default_rng(12)
        u = np.concatenate([
            [0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 745.2, -745.2, 36.8, -36.8],
            np.linspace(-800.0, 800.0, 100_001),
            rng.normal(0.0, 30.0, 100_000),
            rng.uniform(-800.0, 800.0, 100_000)])
        np.testing.assert_array_equal(logistic(u), two_branch(u))
        assert logistic(-0.0) == 0.5
        assert logistic(np.inf) == 1.0 and logistic(-np.inf) == 0.0


class TestChoiceProb:
    def test_identical_lotteries(self):
        lot = lottery([2, 6], [0.4, 0.6])
        assert predict(ORACLE_B, menu(lot, lot)) == pytest.approx(0.5)

    def test_swap_antisymmetry(self):
        m = sample_random_menu(np.random.default_rng(0), 2, 0, 10)
        f = predict(ORACLE_B, m)
        assert predict(ORACLE_B, swapped(m)) == pytest.approx(1 - f, abs=1e-12)

    def test_composed_example(self):
        m = menu((np.array([5.0, 5.0]), np.array([1.0, 0.0])), lottery([0, 10], [0.5, 0.5]))
        expected = 1 / (1 + np.exp(-(10 * 0.726 / 1.726 - 5.0)))
        assert predict(ORACLE_B, m) == pytest.approx(expected, abs=1e-12)
        assert predict(ORACLE_B, m) == pytest.approx(0.311, abs=1e-3)

    def test_strictly_interior(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            f = predict(ORACLE_B, sample_random_menu(rng, 2, 0, 10))
            assert 0.0 < f < 1.0


class TestChoiceProbGrad:
    def test_symmetry_for_identical_lotteries(self):
        lot = lottery([2, 6], [0.4, 0.6])
        g = grad(ORACLE_B, menu(lot, lot))
        assert g.shape == (4,)
        np.testing.assert_allclose(g[:2], -g[2:], rtol=1e-12)

    def test_identity_params_reduce_to_expected_value_case(self):
        # With delta = gamma = 1 the weights are p / sum(p), so on the simplex
        # dV/dp_j = z_j - EV: slope * (-z0, z1) up to a per-lottery constant,
        # which vanishes along every simplex-tangent direction.
        m = sample_random_menu(np.random.default_rng(2), 2, 0, 10)
        g = grad(CptPredictor(CptParams(1, 1)), m)
        f = predict(CptPredictor(CptParams(1, 1)), m)
        slope = f * (1 - f)
        (z0, z1), (p0, p1) = m
        np.testing.assert_allclose(g[:2], -slope * (z0 - p0 @ z0), rtol=1e-10)
        np.testing.assert_allclose(g[2:], slope * (z1 - p1 @ z1), rtol=1e-10)
        tangent = np.array([1.0, -1.0])
        assert g[:2] @ tangent == pytest.approx(-slope * (z0 @ tangent), rel=1e-10)
        assert g[2:] @ tangent == pytest.approx(slope * (z1 @ tangent), rel=1e-10)

    def test_matches_finite_differences(self):
        params = CptParams(0.926, 0.377)
        rng = np.random.default_rng(3)
        # Three-payoff gradients have entries near zero, where a central
        # difference at h = 1e-6 reads rounding (eps * f / h ~ 1e-10), so
        # that leg allows 1e-9 absolute error.
        for J, floor in ((2, 0.0), (3, 1e-9)):
            worst, checked = 0.0, 0
            for _ in range(100):
                m = sample_random_menu(rng, J, 0.5, 9.5)
                if m[1].min() < 0.05:
                    continue
                g = grad(CptPredictor(params), m)
                assert g.shape == (2 * J,)
                fd = central_difference(
                    flat_menu_fn(lambda x: predict(CptPredictor(params), x), J), flat(m))
                fd = np.concatenate([fd[J:2 * J], fd[3 * J:]])
                err = np.maximum(np.abs(fd - g) - floor, 0.0)
                worst = max(worst, np.max(err / (np.abs(g) + 1e-10)))
                checked += 1
            assert checked > 10
            assert worst < 1e-5

    def test_boundary_point_rejected(self):
        m = menu(lottery([1, 2], [1.0, 0.0]), lottery([1, 2], [0.5, 0.5]))
        with pytest.raises(ValueError, match="boundary"):
            grad(ORACLE_B, m)


class TestPredictorHandle:
    def test_predict_and_grad_consistent(self):
        # A menu's prediction and gradient as a stack of one are its row of a
        # larger stack, to the bit.
        pred = CptPredictor(BRUHIN_B)
        rng = np.random.default_rng(4)
        menus = [sample_random_menu(rng, 2, 1, 9) for _ in range(5)]
        Z, P = stack(menus)
        for r, m in enumerate(menus):
            assert predict(pred, m) == pred.predict_batch(Z, P)[r]
            np.testing.assert_array_equal(grad(pred, m), pred.grad_batch(Z, P)[1][r].ravel())

    def test_preset_lookup(self):
        assert CptParams.preset("bruhin-a") == CptParams(0.926, 0.377)
        assert CptParams.preset("bruhin-b") == CptParams(0.726, 0.309)
        assert CptParams.preset("bruhin-c") == CptParams(1.063, 0.451)
        with pytest.raises(KeyError):
            CptParams.preset("nope")
