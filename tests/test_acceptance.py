"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  The desk-scale generation (criterion 5) runs once and is
shared with the baseline comparison (criterion 6).
"""

import contextlib
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from anomgen.adversarial import run_adversarial_indices
from anomgen.analysis import estimate_epsilon, kmeans, pattern_frequencies, pca, standardize
from anomgen.basis import PolynomialBasis, basis_from_config
from anomgen.categorize import categorize, decompose_shared_components
from anomgen.cli import run_command
from anomgen.cpt import CptParams, CptPredictor
from anomgen.data import simulate_choices
from anomgen.lotteries import draw_menus, on_merged_grid
from anomgen.morphing import run_morph_indices
from anomgen.predictor import (MlpModel, MlpPredictor, fit_cpt_params,
                               menu_input_scaling, _backprop)
from anomgen.records import read_jsonl, record_to_collection
from anomgen.theory import _clip_targets, _cross_entropy
from anomgen.verifier import minimal_anomaly, verify_collection, verify_parametrized
from conftest import (TABLE_TOL, central_difference, collection, fit_theta, flat, grad,
                      kernel_weights, lottery, null_space_projection, pipeline_config,
                      predict, probs_on_grid, sample_random_menu, simulate_respondents, stack,
                      tangent, unchecked_menu, verify_menus)

DESK_SEED = 23
DESK_RUNS = 300          # per procedure
BRUHIN_B = CptParams(0.726, 0.309)


@contextlib.contextmanager
def criterion(number, label):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {number}: {label}")
        raise
    print(f"\n[PASS] criterion {number}: {label} ({time.time() - start:.1f}s)")


@pytest.fixture(scope="module")
def desk_scale_results():
    """300 adversarial + 300 morphing runs, verified and categorized."""
    pred = CptPredictor(BRUHIN_B)
    basis = basis_from_config({"kind": "polynomial", "order": 6,
                               "domain": [0.0, 10.0]})
    start = time.time()
    records = [("adversarial", record_to_collection(r)) for r in
               run_adversarial_indices(pred, pipeline_config(DESK_SEED), range(DESK_RUNS))]
    records += [("morphing", record_to_collection(r)) for r in
                run_morph_indices(pred, pipeline_config(DESK_SEED), range(DESK_RUNS))]
    generation_seconds = time.time() - start
    verified = []
    for proc, cand in records:
        pv = verify_parametrized(basis, cand)
        av = verify_collection(cand)
        tag = categorize(cand).tag if not av.consistent else None
        verified.append({"procedure": proc,
                         "parametrized": pv.inconsistent,
                         "min_kl": pv.min_kl,
                         "full": not av.consistent,
                         "category": tag})
    total_seconds = time.time() - start
    return {"records": verified, "generation_seconds": generation_seconds,
            "total_seconds": total_seconds}


def test_criterion_1_paper_oracle_verification(allais_menus, certainty_menus):
    with criterion(1, "Allais and certainty-effect menus verify as minimal anomalies"):
        for menus, choices in ((allais_menus, (0, 1)), (certainty_menus, (1, 0))):
            start = time.time()
            pair = verify_menus(menus, choices)
            assert not pair.consistent
            for menu, choice in zip(menus, choices):
                assert verify_menus([menu], [choice]).consistent
            probs = [0.2 if c == 0 else 0.8 for c in choices]
            coll = collection(menus, probs)
            assert minimal_anomaly(coll)[0] == (0, 1)
            assert time.time() - start < 1.0


def test_criterion_2_paper_table_categorization(
        dc_example_collection, rdc_example_collection, sd_example_collection,
        ternary_example_collection):
    with criterion(2, "published example menus categorize as printed"):
        assert categorize(dc_example_collection, tol=TABLE_TOL).tag == \
            "dominated_consequence"
        assert categorize(rdc_example_collection, tol=TABLE_TOL).tag == \
            "reverse_dominated_consequence"
        assert categorize(sd_example_collection, tol=TABLE_TOL).tag == \
            "strict_dominance"
        dec1 = decompose_shared_components(
            lottery([4.63, 5.04, 5.81], [1.00, 0.00, 0.00]),
            lottery([4.63, 5.04, 5.81], [0.30, 0.67, 0.03]), tol=TABLE_TOL)
        assert dec1["alpha_a"] == pytest.approx(0.0, abs=TABLE_TOL)
        assert dec1["alpha_b"] == pytest.approx(0.70, abs=TABLE_TOL)
        dec0 = decompose_shared_components(
            lottery([4.30, 6.17, 8.51], [0.15, 0.61, 0.24]),
            lottery([4.30, 6.17, 8.51], [0.36, 0.36, 0.28]), tol=TABLE_TOL)
        got = sorted([dec0["alpha_a"], dec0["alpha_b"]])
        assert got[0] == pytest.approx(0.45, abs=TABLE_TOL)
        assert got[1] == pytest.approx(0.77, abs=TABLE_TOL)
        cat = categorize(ternary_example_collection, tol=TABLE_TOL)
        assert cat.tag == "shared_component_reversal"


def test_criterion_3_closed_form_checks(allais_menus):
    with criterion(3, "closed-form weighting and pooled-KL values"):
        p = np.array([0.31, 0.47, 0.22])
        np.testing.assert_allclose(kernel_weights(p, CptParams(1, 1)), p,
                                   atol=1e-12)
        w = kernel_weights(np.array([0.5, 0.5]), BRUHIN_B)
        assert w.sum() == pytest.approx(0.8412, abs=1e-4)
        menu_a, menu_b = allais_menus
        basis = PolynomialBasis(order=6, domain=(0, 5e6))
        fit = fit_theta(basis, *stack([menu_a, menu_b]), [0.2, 0.8])
        assert fit.kl == pytest.approx(0.1927, abs=1e-3)


def _vector_rel(fd, g):
    # Relative error in the vector norm; per-component ratios are ill-posed
    # wherever a gradient coordinate crosses zero.
    return np.linalg.norm(fd - g) / max(np.linalg.norm(fd), np.linalg.norm(g))


def test_criterion_4_gradient_suites():
    with criterion(4, "analytic gradients match central differences on 500 points"):
        rng = np.random.default_rng(101)
        oracle = CptPredictor(CptParams(0.926, 0.377))
        model = MlpModel.init_random([8, 32, 32, 1], menu_input_scaling(2),
                                     seed=7)
        mlp = MlpPredictor(model)

        def interior_menu():
            while True:
                m = sample_random_menu(rng, 2, 0.5, 9.5)
                if m[1].min() > 0.05:
                    return m

        probs = np.r_[2:4, 6:8]      # (p0, p1) within the flattened menu
        cpt_worst = mlp_worst = 0.0
        mlp_checked = 0
        for _ in range(500):
            m = interior_menu()
            x = flat(m)
            g = grad(oracle, m)
            fd = central_difference(
                lambda v: predict(oracle, unchecked_menu(v, 2)), x)[probs]
            cpt_worst = max(cpt_worst, _vector_rel(fd, g))

            gm = grad(mlp, m)
            fdm = central_difference(
                lambda v: predict(mlp, unchecked_menu(v, 2)), x)[probs]
            rel = _vector_rel(fdm, gm)
            if rel < 1e-2:      # away from rectifier kinks
                mlp_worst = max(mlp_worst, rel)
                mlp_checked += 1
        assert cpt_worst < 1e-4
        assert mlp_worst < 1e-4
        assert mlp_checked > 400

        # Weight gradients on 500 random weights, compared as one vector.
        menus = [interior_menu() for _ in range(64)]
        X = np.array([flat(m) for m in menus]) * model.input_scaling
        y = rng.uniform(0.1, 0.9, size=64)
        w = np.ones(64)
        gW, gb = _backprop(model, X, y, w)
        h = 1e-6
        fd_parts, an_parts = [], []
        for _ in range(500):
            layer = int(rng.integers(0, len(model.weights)))
            W = model.weights[layer]
            i = int(rng.integers(0, W.shape[0]))
            j = int(rng.integers(0, W.shape[1]))
            orig = W[i, j]
            W[i, j] = orig + h
            up = _cross_entropy(model.forward(X), _clip_targets(y), w)
            W[i, j] = orig - h
            down = _cross_entropy(model.forward(X), _clip_targets(y), w)
            W[i, j] = orig
            fd_parts.append((up - down) / (2 * h))
            an_parts.append(gW[layer][i, j])
        assert _vector_rel(np.array(fd_parts), np.array(an_parts)) < 1e-4


def test_criterion_5_desk_scale_generation(desk_scale_results):
    with criterion(5, "desk-scale generation rates, categories and runtime"):
        records = desk_scale_results["records"]
        assert len(records) == 2 * DESK_RUNS
        par_rate = np.mean([r["parametrized"] for r in records])
        full_count = sum(r["full"] for r in records)
        cats = {r["category"] for r in records if r["full"]}
        assert par_rate >= 0.03, f"parametrized rate {par_rate:.3f}"
        assert full_count >= 1
        assert cats <= {"dominated_consequence", "reverse_dominated_consequence",
                        "strict_dominance", "fosd", "other"}
        assert len(cats) >= 2, f"categories {cats}"
        assert desk_scale_results["total_seconds"] <= 900


def test_criterion_6_baseline_separation(desk_scale_results, tmp_path):
    with criterion(6, "random-pair baseline finds (almost) nothing"):
        cand, ver = str(tmp_path / "base.jsonl"), str(tmp_path / "base_v.jsonl")
        assert run_command(["baseline", "--inits", "5000", "--seed", str(DESK_SEED),
                            "--out", cand]) == 0
        assert run_command(["verify", "--in", cand, "--out", ver]) == 0
        _, recs = read_jsonl(ver, expected_kind="verified")
        full_count = sum(r["any_utility_inconsistent"] for r in recs)
        pipeline_full = sum(r["full"] for r in desk_scale_results["records"])
        assert len(recs) == 5000
        assert full_count <= 2
        assert full_count < pipeline_full


def test_criterion_7_null_model_sanity():
    with criterion(7, "risk-neutral oracle yields exactly zero verified anomalies"):
        pred = CptPredictor(CptParams(1.0, 1.0))
        full = 0
        for r in run_adversarial_indices(pred, pipeline_config(301), range(200)):
            full += not verify_collection(record_to_collection(r)).consistent
        assert full == 0
        for r in run_morph_indices(pred, pipeline_config(302), range(200)):
            full += not verify_collection(record_to_collection(r)).consistent
        assert full == 0


def test_criterion_8_projection_properties():
    with criterion(8, "projected directions descend and stay orthogonal"):
        pred = CptPredictor(BRUHIN_B)
        basis = basis_from_config({"kind": "ispline", "knots": 10, "degree": 3,
                                   "domain": [0.0, 10.0]})
        rng = np.random.default_rng(401)
        for _ in range(1000):
            m = sample_random_menu(rng, 2, 0.5, 9.5)
            if m[1].min() < 0.05:
                continue
            g_probs = grad(pred, m)
            thetas = rng.normal(0, 0.3, size=(rng.integers(1, 6), basis.dim))
            B0, B1 = (basis.eval(z) for z in m[0])
            sampled = np.concatenate([-(thetas @ B0.T), thetas @ B1.T], axis=1)
            # A morph step projects in simplex-tangent coordinates.
            g_t = tangent(g_probs, 2)
            v = null_space_projection(g_t, tangent(sampled, 2), rank_tol=1e-6)
            assert -(v @ g_t) <= 1e-10
            vn = np.linalg.norm(v)
            for row in tangent(sampled, 2):
                rn = np.linalg.norm(row)
                if rn > 1e-6:
                    assert abs(v @ row) <= 1e-6 * (vn + 1e-300) * rn + 1e-12


def test_criterion_9_estimation_recoveries():
    with criterion(9, "parameter and error-rate recoveries"):
        for name, (delta, gamma) in (("bruhin-a", (0.926, 0.377)),
                                     ("bruhin-b", (0.726, 0.309)),
                                     ("bruhin-c", (1.063, 0.451))):
            rng = np.random.default_rng((501, hashsum(name)))
            ds = simulate_choices(rng, CptPredictor(CptParams(delta, gamma)),
                                  *draw_menus(rng, 25_000, 2, 0, 10), kind="binary")
            fit = fit_cpt_params(ds)
            assert fit.params.delta == pytest.approx(delta, abs=0.05), name
            assert fit.params.gamma == pytest.approx(gamma, abs=0.05), name

        # Closed-form case: violating mass 0.05 on each side.
        fit = estimate_epsilon(pattern_frequencies((0.45, 0.05, 0.05, 0.45)), [(0, 0), (1, 1)])
        expected = (1 - np.sqrt(1 - 0.2)) / 2
        assert fit.epsilon == pytest.approx(expected, abs=1e-4)

        sim = simulate_respondents(np.random.default_rng(502), 5000, eps=0.05,
                                   weights={(0, 0): 0.45, (1, 1): 0.55})
        fit2 = estimate_epsilon(sim, [(0, 0), (1, 1)])
        assert fit2.epsilon == pytest.approx(0.05, abs=0.005)


def hashsum(s):
    return sum(ord(c) for c in s)


def test_criterion_10_lp_oracle_equivalence():
    with criterion(10, "any-utility verdict agrees with the utility-grid scan"):
        rng = np.random.default_rng(601)
        checked = 0
        for _ in range(1000):
            base = sample_random_menu(rng, 2, 0, 10)
            p0 = rng.uniform(0, 1, 2)
            p1 = rng.uniform(0, 1, 2)
            other = base[0], np.stack([p0 / p0.sum(), p1 / p1.sum()])
            menus = [base, other]
            choices = rng.integers(0, 2, size=2)
            verdict = verify_menus(menus, choices)
            if _grid_consistent(menus, choices):
                checked += 1
                assert verdict.consistent
        assert checked >= 400


def _grid_consistent(menus, choices, steps=200, strictness=1e-6):
    grid, _ = on_merged_grid([(z, p) for Z, P in menus for z, p in zip(Z, P)])
    k = grid.size
    assert k <= 4
    diffs = []
    for (Z, P), y in zip(menus, choices):
        diffs.append(probs_on_grid((Z[y], P[y]), grid) - probs_on_grid((Z[1 - y], P[1 - y]), grid))
    diffs = np.array(diffs)
    ticks = np.linspace(0.0, 1.0, steps + 1)
    if k == 2:
        interior = np.empty((1, 0))
    elif k == 3:
        interior = ticks[:, None]
    else:
        a, b = np.meshgrid(ticks, ticks, indexing="ij")
        interior = np.stack([a.ravel(), b.ravel()], axis=1)
    us = np.concatenate([np.zeros((interior.shape[0], 1)), interior,
                         np.ones((interior.shape[0], 1))], axis=1)
    us = us[np.all(np.diff(us, axis=1) > strictness, axis=1)]
    if us.shape[0] == 0:
        return False
    return bool(np.all(us @ diffs.T > strictness, axis=1).any())


def test_criterion_11_clustering_and_pca():
    with criterion(11, "cluster recovery and principal-component structure"):
        rng = np.random.default_rng(701)
        centers = np.array([[0, 0, 0], [30, 0, 0], [0, 30, 0], [0, 0, 30]],
                           dtype=float)
        labels = np.repeat(np.arange(4), 50)
        X = centers[labels] + rng.normal(0, 0.5, size=(200, 3))
        km = kmeans(standardize(X), 4, seed=0)
        for j in range(4):
            assert len(set(km.assignments[labels == j].tolist())) == 1
        assert len(set(km.assignments.tolist())) == 4

        result = pca(rng.normal(size=(60, 8)))
        gram = result.components @ result.components.T
        np.testing.assert_allclose(gram, np.eye(8), atol=1e-10)

        rank1 = np.outer(rng.normal(size=50), rng.normal(size=6))
        assert pca(rank1).explained_variance[0] >= 0.999


def test_criterion_12_pipeline_determinism(tmp_path):
    with criterion(12, "byte-identical outputs across reruns and worker counts"):
        os.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 77}))

        def pipeline(tag, workers):
            args = ["--config", str(cfg), "--workers", str(workers)]
            assert run_command(["adversarial", *args, "--inits", "10",
                                "--out", f"a_{tag}.jsonl"]) == 0
            assert run_command(["morph", *args, "--inits", "10",
                                "--out", f"m_{tag}.jsonl"]) == 0
            assert run_command(["verify", "--in", f"a_{tag}.jsonl", *args,
                                "--out", f"av_{tag}.jsonl"]) == 0
            assert run_command(["verify", "--in", f"m_{tag}.jsonl", *args,
                                "--out", f"mv_{tag}.jsonl"]) == 0
            assert run_command(["categorize", "--in", f"av_{tag}.jsonl",
                                "--out", f"ac_{tag}.jsonl"]) == 0
            assert run_command(["report", "--in", f"ac_{tag}.jsonl",
                                "--out", f"r_{tag}.csv"]) == 0

        pipeline("w1", 1)
        pipeline("w1b", 1)
        pipeline("w8", 8)
        for stem in ("a", "m", "av", "mv", "ac"):
            w1 = Path(f"{stem}_w1.jsonl").read_bytes()
            assert w1 == Path(f"{stem}_w1b.jsonl").read_bytes()
            assert w1 == Path(f"{stem}_w8.jsonl").read_bytes()
        r1 = Path("r_w1.csv").read_bytes()
        assert r1 == Path("r_w1b.csv").read_bytes()
        assert r1 == Path("r_w8.csv").read_bytes()
