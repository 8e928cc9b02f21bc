"""Shared fixtures: the classic menus and small helpers used across tests."""

import json
from dataclasses import dataclass, replace

import numpy as np
import pytest

from anomgen import morphing
from anomgen.analysis import PATTERNS, PatternFrequencies
from anomgen.cpt import CptParams, logistic, lottery_values, simulate_choices
from anomgen.lotteries import (Collection, draw_menus, flat_stack, grid_probs,
                               implied_choices, run_rng)
from anomgen.morphing import COV_JITTER
from anomgen.records import record_to_collection, write_jsonl
from anomgen.theory import (BOUND_TOL, KKT_TOL, TARGET_CLIP, THETA_NORM_BOUND, FitResult,
                            _clip_targets, _cross_entropy, _entropy, _fit_logits,
                            eu_difference_rows, stack_basis_values)

# Tolerance used when re-deriving quantities from tables rounded to whole
# percents / cents.
TABLE_TOL = 0.02


# -- menus as arrays: a lottery is a (payoffs, probs) pair of vectors, a menu a
# (Z, P) pair of (2, J) stacks, lottery 0 first ---------------------------------

def menu_json(menu) -> dict:
    """A menu as records hold it."""
    return {f"lottery{k}": {"payoffs": z.tolist(), "probs": p.tolist()}
            for k, (z, p) in enumerate(zip(*menu))}


def lottery(payoffs, probs) -> tuple:
    """A lottery read by the records' rule (``record_to_collection``): finite
    payoffs, and probabilities within 1e-6 of the simplex, rescaled unless on
    it already.  Anything else raises ValueError."""
    lot = {"payoffs": np.asarray(payoffs, dtype=float).tolist(),
           "probs": np.asarray(probs, dtype=float).tolist()}
    coll = record_to_collection({"menus": [{"lottery0": lot, "lottery1": lot}],
                                 "predicted_probs": [0.5]})
    return coll.Z[0, 0], coll.P[0, 0]


def menu(lot0, lot1) -> tuple:
    """The menu of two lotteries over the same J payoffs, as (Z, P) (2, J);
    lotteries of unequal length raise ValueError."""
    return np.stack([lot0[0], lot1[0]]), np.stack([lot0[1], lot1[1]])


def stack(menus) -> tuple:
    """(Z, P) (n, 2, J) of n menus."""
    return np.stack([m[0] for m in menus]), np.stack([m[1] for m in menus])


def collection(menus, probs) -> Collection:
    """The collection of menus with predicted probabilities of lottery 1."""
    return Collection(*stack(menus), np.array(probs, dtype=float))


def flat(menu) -> np.ndarray:
    """A menu's canonical coordinates (z0, p0, z1, p1)."""
    return flat_stack(*menu)


def swapped(menu) -> tuple:
    return menu[0][::-1], menu[1][::-1]


def sample_random_menu(rng: np.random.Generator, n_payoffs: int,
                       payoff_low: float, payoff_high: float) -> tuple:
    """One menu of ``draw_menus``, as (Z, P) (2, J): the per-menu draw
    reference."""
    (Z,), (P,) = draw_menus(rng, 1, n_payoffs, payoff_low, payoff_high)
    return Z, P


def predict(predictor, menu) -> float:
    """A predictor's probability of lottery 1 on one menu, a stack of one."""
    return float(predictor.predict_batch(menu[0][None], menu[1][None])[0])


def grad(predictor, menu) -> np.ndarray:
    """Its gradient over (p0, p1), flat (2J,)."""
    return predictor.grad_batch(menu[0][None], menu[1][None])[1][0].reshape(-1)


def probs_on_grid(lottery, grid) -> np.ndarray:
    """A lottery's probabilities re-expressed over a merged payoff grid."""
    return grid_probs(lottery[0][None, None], lottery[1][None, None], np.asarray(grid)[None])[0, 0]


@pytest.fixture
def allais_menus():
    """The two 1M/5M menus; hypothesized choices are lottery 0 then lottery 1."""
    menu_a = menu(lottery([1e6, 0, 5e6], [1.0, 0.0, 0.0]),
                  lottery([1e6, 0, 5e6], [0.89, 0.01, 0.10]))
    menu_b = menu(lottery([0, 1e6, 5e6], [0.89, 0.11, 0.0]),
                  lottery([0, 1e6, 5e6], [0.90, 0.0, 0.10]))
    return menu_a, menu_b


@pytest.fixture
def allais_collection(allais_menus):
    menu_a, menu_b = allais_menus
    return collection([menu_a, menu_b], [0.2, 0.8])


@pytest.fixture
def certainty_menus():
    """Certain 3000 against risky 4000, then both scaled to low probability."""
    menu_a = menu(lottery([4000, 0], [0.80, 0.20]),
                  lottery([3000, 0], [1.00, 0.00]))
    menu_b = menu(lottery([4000, 0], [0.20, 0.80]),
                  lottery([3000, 0], [0.25, 0.75]))
    return menu_a, menu_b


@pytest.fixture
def certainty_collection(certainty_menus):
    menu_a, menu_b = certainty_menus
    return collection([menu_a, menu_b], [0.8, 0.2])


@pytest.fixture
def dc_example_collection():
    """Two-payoff dominated-consequence pair (choices: lottery 0, lottery 1)."""
    menu_a = menu(lottery([6.44, 6.71], [0.00, 1.00]),
                  lottery([5.72, 8.64], [0.13, 0.87]))
    menu_b = menu(lottery([6.44, 6.71], [0.11, 0.89]),
                  lottery([5.72, 8.64], [0.34, 0.66]))
    return collection([menu_a, menu_b], [0.3, 0.7])


@pytest.fixture
def rdc_example_collection():
    """Reverse dominated-consequence pair (choices: lottery 0, lottery 1)."""
    menu_a = menu(lottery([2.59, 8.87], [0.88, 0.12]),
                  lottery([3.51, 8.65], [0.99, 0.01]))
    menu_b = menu(lottery([2.59, 8.87], [0.49, 0.51]),
                  lottery([3.51, 8.65], [0.65, 0.35]))
    return collection([menu_a, menu_b], [0.2, 0.8])


@pytest.fixture
def sd_example_collection():
    """Strict-dominance pair (choices: lottery 1, lottery 0)."""
    menu_a = menu(lottery([6.71, 8.98], [0.22, 0.78]),
                  lottery([7.17, 8.04], [1.00, 0.00]))
    menu_b = menu(lottery([6.71, 8.98], [0.49, 0.51]),
                  lottery([7.17, 8.04], [0.45, 0.55]))
    return collection([menu_a, menu_b], [0.8, 0.2])


@pytest.fixture
def ternary_example_collection():
    """Three-payoff pair whose lotteries decompose over shared components."""
    menu_a = menu(lottery([4.30, 6.17, 8.51], [0.15, 0.61, 0.24]),
                  lottery([4.63, 5.04, 5.81], [1.00, 0.00, 0.00]))
    menu_b = menu(lottery([4.30, 6.17, 8.51], [0.36, 0.36, 0.28]),
                  lottery([4.63, 5.04, 5.81], [0.30, 0.67, 0.03]))
    return collection([menu_a, menu_b], [0.8, 0.2])


BRUHIN_B = CptParams(0.726, 0.309)


def cpt_dataset(n, seed, kind="rate", count=500, params=BRUHIN_B):
    """n random two-payoff menus with choices simulated from a CPT chooser."""
    Z, P = stack([sample_random_menu(np.random.default_rng((seed, i)), 2, 0, 10)
                  for i in range(n)])
    return simulate_choices(np.random.default_rng((seed, n + 1)), Z, P, params,
                            kind=kind, count=count)


def central_difference(fn, x, h=1e-6):
    """Componentwise central finite differences of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (fn(xp) - fn(xm)) / (2 * h)
    return grad


def unchecked_menu(x, n_payoffs):
    """Menu (Z, P) from flat coordinates, whatever they hold: finite
    differences evaluate the smooth formulas a step off the simplex."""
    X = np.array(x, dtype=float).reshape(2, 2, n_payoffs)
    return X[:, 0], X[:, 1]


def flat_menu_fn(fn, n_payoffs):
    """Adapt a function of a menu to flat coordinates."""
    return lambda x: fn(unchecked_menu(x, n_payoffs))


def search_iterates(search, predictor, config, master_seed, indices):
    """(s, records) for s = 1, 2, ...: a run capped at s steps ends at its
    iterate s, so its final menu is that iterate.  Ends after
    ``config.max_iters`` steps, or once every run stopped before step s."""
    for s in range(1, config.max_iters + 1):
        recs = list(search(predictor, replace(config, max_iters=s), master_seed, indices))
        yield s, recs
        if all(rec["iterations"] < s for rec in recs):
            return


def record_menus(rec) -> list:
    """The menus of a record, each as (Z, P) (2, J)."""
    coll = record_to_collection(rec)
    return list(zip(coll.Z, coll.P))


def record_bytes(rec) -> str:
    """A record's JSONL line."""
    return json.dumps(rec, sort_keys=True)


# -- reference object path: a run's menus, predictions and record ---------------

def reference_record(collection, record_id=None, provenance=None) -> dict:
    """The record of a collection and its run's provenance, built from the
    objects one field at a time."""
    prov = provenance or {}
    procedure = prov.get("procedure", "unknown")
    run_index = prov.get("run_index", 0)
    record = {
        "id": record_id or f"{procedure}-{run_index:06d}",
        "procedure": procedure,
        "predictor": prov.get("predictor"),
        "master_seed": prov.get("master_seed"),
        "run_index": run_index,
        "iterations": prov.get("iterations"),
        "flags": prov.get("flags", []),
        "menus": [menu_json(m) for m in zip(collection.Z, collection.P)],
        "predicted_probs": [float(v) for v in collection.q],
        "implied_choices": [int(c) for c in implied_choices(collection.q)],
    }
    record.update({k: prov[k] for k in ("stop", "retained_rank", "inner_fits_on_bound",
                                        "inner_fits_unconverged") if k in prov})
    return record


def reference_generated_record(predictor, cfg, procedure, rec) -> dict:
    """Generated record ``rec`` rebuilt through objects.  The run's menus are
    drawn one by one by ``sample_random_menu`` from its generator, and each
    probability comes from a one-menu ``predict``.  A search run's final menu
    is read from ``rec``, and so are its steps and stop fields."""
    master_seed, run_index = rec["master_seed"], rec["run_index"]
    rng = run_rng(master_seed, run_index)
    if procedure == "baseline":
        menus = [sample_random_menu(rng, cfg.n_payoffs, *cfg.theory_basis["domain"])
                 for _ in range(2)]
        searched = {}
    else:
        section = getattr(cfg, procedure)
        menus = [sample_random_menu(rng, section.n_payoffs, *section.make_basis().domain),
                 record_menus(rec)[1]]
        searched = {k: rec[k] for k in ("iterations", "stop", "retained_rank",
                                        "inner_fits_on_bound", "inner_fits_unconverged")
                    if k in rec}
        if rec["flags"]:
            searched["flags"] = rec["flags"]
    coll = collection(menus, [predict(predictor, m) for m in menus])
    return reference_record(coll, provenance={
        "procedure": {"morph": "morphing"}.get(procedure, procedure),
        "predictor": predictor.label, "master_seed": master_seed, "run_index": run_index,
        **searched})


def kernel_weights(p, params):
    """Probability weights read from the CPT value kernel: the value of the
    unit payoff vector e_j under probabilities p is the weight of outcome j."""
    from anomgen.cpt import lottery_values
    p = np.asarray(p, dtype=float)
    return lottery_values(np.eye(p.size), np.tile(p, (p.size, 1)), params)


def simulate_respondents(rng: np.random.Generator, n: int, eps: float,
                         weights: dict) -> PatternFrequencies:
    """Draw pattern counts from the idiosyncratic-error model."""
    pats = list(weights)
    probs = np.array([weights[p] for p in pats], dtype=float)
    probs = probs / probs.sum()
    counts = dict.fromkeys(PATTERNS, 0)
    for _ in range(n):
        true = pats[rng.choice(len(pats), p=probs)]
        obs = tuple(1 - t if rng.random() < eps else t for t in true)
        counts[obs] += 1
    return PatternFrequencies(tuple(counts[p] for p in PATTERNS))


def write_anomalies(path, n):
    """A synthetic categorized stream of ``n`` non-FOSD anomalies."""
    rng = np.random.default_rng(0)
    recs = []
    for i in range(n):
        menus = [sample_random_menu(rng, 2, 0, 10) for _ in range(2)]
        recs.append({
            "id": f"x-{i:06d}", "procedure": "adversarial",
            "predictor": "t", "master_seed": 0, "run_index": i,
            "iterations": 0, "flags": [],
            "menus": [menu_json(m) for m in menus],
            "predicted_probs": [0.8, 0.2], "implied_choices": [1, 0],
            "any_utility_inconsistent": True,
            "category": {"tag": "other", "certificate": {}},
            "features": rng.normal(size=18).tolist(),
        })
    write_jsonl(path, recs, kind="categorized")


# -- reference theory and draws ------------------------------------------------

@dataclass(frozen=True)
class TheorySpec:
    """A basis and a coefficient vector; the logit noise scale is 1."""

    basis: object
    theta: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        if theta.shape != (self.basis.dim,):
            raise ValueError(f"theta has shape {theta.shape}, basis dim {self.basis.dim}")
        if not np.all(np.isfinite(theta)):
            raise ValueError("non-finite coefficient")
        object.__setattr__(self, "theta", theta)


def design_matrix(basis, Z, P) -> np.ndarray:
    """The rows d(x) (n, K) of menus Z and P (n, 2, J)."""
    return eu_difference_rows(P, stack_basis_values(basis, Z))


def fit_theta(basis, Z, P, y) -> FitResult:
    """Fit theta to menus Z and P (n, 2, J) and target probabilities y (n,)
    by mean cross-entropy: the stacked fit of one problem, with scalar
    fields.  The reported loss is the mean KL divergence of the fit from the
    targets, which is 0 exactly when the theory matches them."""
    if not len(y):
        raise ValueError("need at least one example")
    fit = _fit_logits(design_matrix(basis, Z, P)[None], np.asarray(y, dtype=float)[None])
    return FitResult(fit.theta[0], float(fit.kl[0]), float(fit.cross_entropy[0]),
                     bool(fit.converged[0]), bool(fit.on_norm_bound[0]))


def eu_difference_features(basis, menu) -> np.ndarray:
    """d(x): basis-weighted expected-utility difference feature vector."""
    return design_matrix(basis, menu[0][None], menu[1][None])[0]


def theory_choice_prob(spec: TheorySpec, menu) -> float:
    d = eu_difference_features(spec.basis, menu)
    return float(logistic(d @ spec.theta))


def theory_loss(spec: TheorySpec, examples) -> tuple[float, float]:
    """(mean cross-entropy, mean KL) of a spec on (menu, target) examples."""
    y = _clip_targets(np.array([t for _, t in examples], dtype=float))
    D = design_matrix(spec.basis, *stack([m for m, _ in examples]))
    ce = float(_cross_entropy(D @ spec.theta, y, np.ones_like(y)))
    return ce, max(ce - float(_entropy(y)), 0.0)


def _reference_ball_point(H, b, radius):
    """argmin b.z + z.Hz/2 over ||z|| <= radius for one problem, by a scalar
    More-Sorensen loop."""
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


def reference_newton_fit(D, y):
    """(theta, converged) of one problem, D (n, K) and y (n,), by the one-row
    loop that ``theory.damped_newton`` stacks: the interpolating start of
    ``_fit_logits``, then, unless it is exact, damped Newton in D's row space
    with a scalar ball step, Armijo backtrack and KKT test."""
    from anomgen.theory import MAX_NEWTON_ITER      # read at call time: tests patch it
    B, (n, K) = THETA_NORM_BOUND, D.shape
    y = _clip_targets(y)
    U, svals, Vt = np.linalg.svd(D[None], full_matrices=False)
    kept = svals > svals[:, :1] * max(n, K) * np.finfo(float).eps
    inv = np.divide(1.0, svals, out=np.zeros_like(svals), where=kept)
    coef = inv * np.matmul(np.log(y / (1 - y))[None, None, :], U)[:, 0]
    theta = np.matmul(coef[:, None, :], Vt)[0, 0]
    theta *= B / max(np.sqrt((theta * theta).sum()), B)
    ones = np.ones(n)
    if _cross_entropy(D @ theta, y, ones) - _entropy(y) < 1e-12:
        return theta, True
    rank = int(kept.sum())
    A, V = U[0, :, :rank] * svals[0, :rank], Vt[0, :rank]

    def loss(w):
        return _cross_entropy(A @ w, y, ones)

    def derivatives(w):
        sig = logistic(A @ w)
        return ((sig - y) @ A) / n, (A.T * (sig * (1.0 - sig))) @ A / n

    def residual(w, g):
        lam = max(0.0, -(g @ w) / (w @ w)) if w @ w >= (B - BOUND_TOL) ** 2 else 0.0
        return np.linalg.norm(g + lam * w)

    w = V @ theta
    value, (g, H), steps = loss(w), derivatives(w), 0
    while (res := residual(w, g)) > KKT_TOL and steps < MAX_NEWTON_ITER:
        step = _reference_ball_point(H, g - H @ w, B) - w
        slope = g @ step
        if not slope < 0.0:
            break
        t = 1.0
        while t > 1e-10:
            cand = w + t * step
            if loss(cand) <= value + 1e-4 * t * slope + 4 * np.finfo(float).eps * value:
                break
            t *= 0.5
        else:
            break
        w, value, (g, H), steps = cand, loss(cand), derivatives(cand), steps + 1
    return V.T @ w, bool(res <= KKT_TOL)


def cpt_objective(ds, scale: float):
    """The weighting fit's objective over x = log(delta, gamma), formed on its
    own: the row-weighted mean CE at x, then a no-argument function giving its
    gradient in x and the Fisher (Gauss-Newton) matrix of the logistic
    likelihood in x."""
    Z, P, w = ds.Z, ds.P, ds.weights
    yc = np.clip(ds.outcomes, TARGET_CLIP, 1 - TARGET_CLIP)
    total = w.sum()

    def objective(x):
        V, *dV = lottery_values(Z, P, CptParams(*np.exp(x)), wrt="params")
        dV = np.stack(dV, axis=-1)                 # (row, lottery, parameter)
        u = scale * (V[:, 1] - V[:, 0])

        def derivatives():
            du = scale * (dV[:, 1] - dV[:, 0]) * np.exp(x)
            sig = logistic(u)
            return (((sig - yc) * w) @ du / total,
                    (du.T * (sig * (1.0 - sig) * w)) @ du / total)

        return float(np.average(np.logaddexp(0.0, u) - yc * u, weights=w)), derivatives

    return objective


def reference_utility_factor(history, basis_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean (2J,) and factor (2J, r) of one run's utilities ``basis_rows @ theta``,
    formed on their own: ``np.cov`` of the history plus the jitter, its
    Cholesky factor, and the SVD of ``basis_rows @ chol(cov)``."""
    H = np.atleast_2d(np.array(history, dtype=float))
    if H.shape[0] < 2:
        raise ValueError("history must contain at least two fits")
    cov = np.cov(H, rowvar=False, ddof=1) + COV_JITTER * np.eye(H.shape[1])
    rows = np.asarray(basis_rows, dtype=float)
    W, svals, _ = np.linalg.svd(rows @ np.linalg.cholesky(cov), full_matrices=False)
    return rows @ H.mean(axis=0), W * svals


def tangent(vecs, n_payoffs: int) -> np.ndarray:
    """Each vector (last axis, 2J) with its per-block means removed: the
    simplex-tangent projection, built from fresh arrays."""
    out = np.array(vecs, dtype=float)
    J = n_payoffs
    out[..., :J] -= out[..., :J].mean(axis=-1, keepdims=True)
    out[..., J:] -= out[..., J:].mean(axis=-1, keepdims=True)
    return out


def null_space_projection(g_star, sampled_grads, rank_tol: float = 1e-6) -> np.ndarray:
    """``g_star`` projected off the span of the rows of ``sampled_grads``, by
    the morph step's filter, Gram matrix and cutoff: rows of norm at most
    ``rank_tol`` are dropped, and eigenvalues of the Gram matrix below
    ``rank_tol**2`` times the largest count as zero.  Full-span input maps to
    the zero vector."""
    g_star = np.asarray(g_star, dtype=float)
    G = np.atleast_2d(np.asarray(sampled_grads, dtype=float))
    if G.shape[1] != g_star.size:
        raise ValueError("dimension mismatch between gradient and samples")
    gram = np.zeros((1, g_star.size, g_star.size))
    morphing._add_kept_gram(gram[0], G.T, np.ones(G.shape[0]), rank_tol,
                            np.empty(G.T.shape))
    out, _ = morphing._project_off_span(g_star[None], gram, rank_tol)
    return out[0]


def morph_step_direction(pred_grad, probs, history, basis_rows, rng, config):
    """One run's morph step: ``morph_step_directions`` on a stack of one.
    ``pred_grad`` is (2J,), ``probs`` (2, J), ``history`` a sequence of at
    least two fits and ``basis_rows`` (2J, K); returns the direction (2J,)
    and the retained rank."""
    directions, ranks = morphing.morph_step_directions(
        np.asarray(pred_grad, dtype=float)[None], np.asarray(probs, dtype=float)[None],
        np.atleast_2d(np.array(history, dtype=float))[None],
        np.asarray(basis_rows, dtype=float)[None], [rng], config)
    return directions[0], int(ranks[0])


def reference_step_factor(probs, history, basis_rows):
    """One run's (mean (2J - 1,), L (2J - 1, d)) of the logit and tangent
    gradient of its utility draws, formed on its own: the maps of
    ``reference_utility_factor``'s factor into M = [a_map; T^T v_map] and
    the QR of M^T."""
    J = probs.shape[-1]
    mean, factor = reference_utility_factor(history, basis_rows)
    T = morphing._tangent_basis(J)
    flip = np.repeat([-1.0, 1.0], J)
    logit = np.concatenate([-probs[0], probs[1]])
    M = np.concatenate([(logit @ factor)[None], T.T @ (flip[:, None] * factor)])
    return (np.concatenate([[logit @ mean], T.T @ (flip * mean)]),
            np.linalg.qr(M.T, mode="r").T)


def _reference_kept_gram(cols: np.ndarray, scale, rank_tol: float) -> np.ndarray:
    """Gram matrix of the gradients ``scale[j] * cols[:, j]`` whose norm
    exceeds ``rank_tol``, built from fresh arrays."""
    weights = scale * scale
    kept = weights * np.einsum("ij,ij->j", cols, cols) > rank_tol ** 2
    return (cols * np.where(kept, weights, 0.0)) @ cols.T


def reference_step_direction(pred_grad, probs, history, basis_rows, rng, config):
    """One run's morph step, (direction (2J,), retained rank), computed on its
    own: the per-run step that ``morphing.morph_step_directions`` stacks, and
    the bit-for-bit reference for every row of a stack."""
    T = morphing._tangent_basis(probs.shape[-1])
    mean, L = reference_step_factor(probs, history, basis_rows)
    w_map = np.ascontiguousarray(L[1:])
    gram = np.zeros((T.shape[1], T.shape[1]))
    count = config.n_gradient_samples
    for start in range(0, count, morphing._DRAW_BLOCK):
        z = rng.standard_normal((min(morphing._DRAW_BLOCK, count - start), L.shape[1]))
        e = np.exp(-np.abs(z[:, 0] * L[0, 0] + mean[0]))
        w = w_map @ z.T
        w += mean[1:, None]
        gram += _reference_kept_gram(w, e / (1.0 + e) ** 2, config.rank_tol)
    evals, vecs = np.linalg.eigh(gram)
    V = vecs[:, evals > config.rank_tol ** 2 * evals[-1]]
    g = T.T @ pred_grad
    return T @ (g - V @ (V.T @ g)), V.shape[1]


def sample_step_gradients(probs, history, count: int, rng: np.random.Generator,
                          basis_rows: np.ndarray) -> np.ndarray:
    """The (count, 2J) tangent-projected choice-probability gradients s_i v_i
    of a morph step's draws, built from one whole (count, d) draw of the
    stream the step reads block by block."""
    mean, L = reference_step_factor(probs, history, basis_rows)
    aw = rng.standard_normal((count, L.shape[1])) @ L.T + mean
    fb = logistic(aw[:, 0])
    return (aw[:, 1:] * (fb * (1 - fb))[:, None]) @ morphing._tangent_basis(probs.shape[-1]).T


def sample_theta_history(history, count: int, rng: np.random.Generator,
                         basis_rows: np.ndarray) -> np.ndarray:
    """Reference draw of the utilities ``basis_rows @ theta`` for theta
    around the fit history, built whole.

    The standard normals are drawn in the (count, r) layout, the stream a
    morph step reads block by block, and mapped through the factor of
    ``reference_utility_factor``.  Returns an (R, count) array, one draw per
    column.
    """
    mean, factor = reference_utility_factor(history, basis_rows)
    return (rng.standard_normal((count, factor.shape[1])) @ factor.T + mean).T


# -- reference margin LP: built and pivoted one row at a time ------------------

def reference_solve_max(c, A, b, max_iter: int = 10_000):
    """``simplex_lp.solve_max`` with the elimination as a loop over rows:
    (x, objective, iterations)."""
    c, A, b = (np.asarray(v, dtype=float) for v in (c, A, b))
    m, n = A.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = np.maximum(b, 0.0)
    T[m, :n] = -c
    basis = list(range(n, n + m))
    for it in range(max_iter):
        candidates = np.nonzero(T[m, :-1] < -1e-12)[0]
        if candidates.size == 0:
            x = np.zeros(n + m)
            x[basis] = T[:m, -1]
            return x[:n], float(T[m, -1]), it
        col = int(candidates.min())
        ratios = np.full(m, np.inf)
        positive = T[:m, col] > 1e-12
        ratios[positive] = T[:m, -1][positive] / T[:m, col][positive]
        if not np.any(np.isfinite(ratios)):
            raise RuntimeError("unbounded LP")
        row = int(np.argmin(ratios))
        best = ratios[row]
        ties = np.nonzero(np.abs(ratios - best) <= 1e-12 * (1 + abs(best)))[0]
        if ties.size > 1:
            row = int(min(ties, key=lambda r: basis[r]))
        pivot = T[row, col]
        T[row] /= pivot
        for r in range(m + 1):
            if r != row and abs(T[r, col]) > 0:
                T[r] -= T[r, col] * T[row]
        basis[row] = col
    raise RuntimeError("iteration limit reached")


def reference_margin_lp(menus, choices, grid):
    """(margin, witness, (c, A, b)) of the verifier's max-slack LP, each row
    built by its own call."""
    k = grid.size
    n_free = k - 2
    rows, rhs = [], []

    def add_geq(coeffs_full, const):
        # sum_j coeffs_full[j] * u_j + const >= t  ->  LP row in (u_free, tau).
        row = np.zeros(n_free + 1)
        row[:n_free] = -np.asarray(coeffs_full)[1:k - 1]
        row[-1] = 1.0
        rows.append(row)
        rhs.append(1.0 + const + coeffs_full[-1])

    for (Z, P), y in zip(menus, choices):
        add_geq(probs_on_grid((Z[y], P[y]), grid) - probs_on_grid((Z[1 - y], P[1 - y]), grid),
                0.0)
    for j in range(k - 1):
        e = np.zeros(k)
        e[j + 1], e[j] = 1.0, -1.0
        add_geq(e, 0.0)
    for j in range(n_free):
        row = np.zeros(n_free + 1)
        row[j] = 1.0
        rows.append(row)
        rhs.append(1.0)
    c = np.zeros(n_free + 1)
    c[-1] = 1.0
    lp = (c, np.array(rows), np.array(rhs))
    x, objective, _ = reference_solve_max(*lp)
    witness = np.empty(k)
    witness[0], witness[-1] = 0.0, 1.0
    witness[1:k - 1] = x[:n_free]
    return objective - 1.0, witness, lp
