"""Shared fixtures: the classic menus and small helpers used across tests."""

import json
import itertools
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import pytest

from anomgen import morphing
from anomgen.adversarial import run_adversarial_indices
from anomgen.analysis import PATTERNS, pattern_frequencies
from anomgen.config import parse_config
from anomgen.cpt import CptParams, CptPredictor, logistic, lottery_values
from anomgen.data import simulate_choices
from anomgen.lotteries import (Collection, draw_menus, flat_stack, implied_choices,
                               on_merged_grid, run_rng)
from anomgen.morphing import COV_JITTER, run_morph_indices
from anomgen.records import record_to_collection, write_jsonl
from anomgen.verifier import utility_verdicts
from anomgen.theory import (GAP_TOL, TARGET_CLIP, THETA_NORM_BOUND, FitResult,
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


def verify_menus(menus, choices):
    """``verifier.utility_verdicts`` of one collection: ``menus`` with the
    given choices."""
    Z, P = stack(menus)
    return utility_verdicts(Z[None], P[None], np.asarray(choices, dtype=int)[None])[0]


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
    """A lottery's probabilities re-expressed over a merged payoff grid: each
    payoff's probability added, in payoff order, to the grid value nearest it."""
    out = np.zeros(len(grid))
    for z, p in zip(*lottery):
        out[np.argmin(np.abs(np.asarray(grid) - z))] += p
    return out


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
    return simulate_choices(np.random.default_rng((seed, n + 1)), CptPredictor(params), Z, P,
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


def pipeline_config(seed: int = 0, **raw):
    """The pipeline config of the JSON object ``raw`` with master seed ``seed``."""
    return parse_config({"seed": seed, **raw})


def search_iterates(procedure, predictor, cfg, indices):
    """(s, records) for s = 1, 2, ...: runs ``indices`` of the ``procedure``
    search (``adversarial`` or ``morph``) under ``cfg``; a run capped at s
    steps ends at its iterate s, so its final menu is that iterate.  Ends
    after the section's ``max_iters`` steps, or once every run stopped
    before step s."""
    search = {"adversarial": run_adversarial_indices, "morph": run_morph_indices}[procedure]
    section = getattr(cfg, procedure)
    for s in range(1, section.max_iters + 1):
        recs = list(search(predictor, replace(cfg, **{procedure: replace(section, max_iters=s)}),
                           indices))
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
    record.update({k: prov[k] for k in ("stop", "retained_rank", "certified_steps",
                                        "inner_fits_on_bound", "inner_fits_unconverged")
                   if k in prov})
    return record


def reference_generated_record(predictor, cfg, procedure, rec) -> dict:
    """Generated record ``rec`` rebuilt through objects.  The run's menus are
    drawn one by one by ``sample_random_menu`` from its generator, and each
    probability comes from a one-menu ``predict``.  A search run's final menu
    is read from ``rec``, and so are its steps and stop fields."""
    master_seed, run_index = rec["master_seed"], rec["run_index"]
    rng = run_rng(master_seed, run_index)
    menus = [sample_random_menu(rng, cfg.n_payoffs, *cfg.theory_basis["domain"])]
    if procedure == "baseline":
        menus.append(sample_random_menu(rng, cfg.n_payoffs, *cfg.theory_basis["domain"]))
        searched = {}
    else:
        menus.append(record_menus(rec)[1])
        searched = {k: rec[k] for k in ("iterations", "stop", "retained_rank",
                                        "certified_steps", "inner_fits_on_bound",
                                        "inner_fits_unconverged") if k in rec}
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
                         weights: dict) -> np.ndarray:
    """Pattern shares (``pattern_frequencies``) of counts drawn from the
    idiosyncratic-error model."""
    pats = list(weights)
    probs = np.array([weights[p] for p in pats], dtype=float)
    probs = probs / probs.sum()
    counts = dict.fromkeys(PATTERNS, 0)
    for _ in range(n):
        true = pats[rng.choice(len(pats), p=probs)]
        obs = tuple(1 - t if rng.random() < eps else t for t in true)
        counts[obs] += 1
    return pattern_frequencies(counts[p] for p in PATTERNS)


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


# -- reference I-spline: one M-spline member at a time, one masked sum each -----

def _reference_mspline_values(x: np.ndarray, knots: np.ndarray, order: int) -> np.ndarray:
    """All M-spline members (len(knots) - order, len(x)) of a given order on a
    knot sequence, by the member-by-member recursion; intervals are half-open
    [t_i, t_{i+1})."""
    n1 = len(knots) - 1
    M = np.zeros((n1, x.size))
    for i in range(n1):
        ti, ti1 = knots[i], knots[i + 1]
        if ti1 > ti:
            M[i] = ((x >= ti) & (x < ti1)) / (ti1 - ti)
    for k in range(2, order + 1):
        nk = len(knots) - k
        Mk = np.zeros((nk, x.size))
        for i in range(nk):
            span = knots[i + k] - knots[i]
            if span <= 0:
                continue
            c = k / ((k - 1) * span)
            left = x - knots[i]
            right = knots[i + k] - x
            Mk[i] = c * (left * M[i] + right * M[i + 1])
        M = Mk
    return M


def reference_ispline_values(basis, z) -> np.ndarray:
    """``ISplineBasis.eval`` (len(z), dim) by Ramsay's closed form: member i
    is 0 below its support, 1 above it, and between the sum of the order-(k+1)
    summands i+1 .. j, each member's summands picked by its own mask."""
    low, high = basis.domain
    t = (np.clip(np.atleast_1d(np.asarray(z, dtype=float)), low, high) - low) / (high - low)
    k = basis.degree
    mesh = np.linspace(0.0, 1.0, basis.n_knots)
    knots = np.concatenate([np.zeros(k + 1), mesh[1:-1], np.ones(k + 1)])
    M = _reference_mspline_values(t, knots, k + 1)
    j = np.searchsorted(knots, t, side="right")
    n = basis.dim
    summands = np.array([(knots[m + k] - knots[m - 1]) * M[m - 1] / (k + 1)
                         for m in range(1, M.shape[0] + 1)])
    out = np.zeros((t.size, n))
    for i in range(1, n + 1):
        include = (np.arange(1, M.shape[0] + 1)[:, None] >= i + 1) & \
                  (np.arange(1, M.shape[0] + 1)[:, None] <= j[None, :])
        sums = np.cumsum(summands * include, axis=0)[-1]
        out[:, i - 1] = np.where(i > j, 0.0, np.where(i < j - k, 1.0, sums))
    return out


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
    Newton loop on 1/||z(mu)|| = 1/radius from mu's lower bound."""
    evals, Q = np.linalg.eigh(H)
    evals = np.maximum(evals, 0.0)
    beta = Q.T @ b
    kept = evals > len(b) * np.finfo(float).eps * evals[-1]
    q = np.where(kept, beta / np.where(kept, evals, 1.0), 0.0)
    if np.linalg.norm(q) <= radius:
        return -(Q @ q)
    mu = max(0.0, np.max(abs(beta) / radius - evals))
    while True:
        d = evals + mu
        d[d == 0.0] = 1.0
        q = beta / d
        znorm = np.linalg.norm(q)
        step = (znorm - radius) / radius * (q @ q) / (q @ (q / d))
        if not (znorm > radius and mu + step > mu):
            z = -(Q @ q)
            return z * (radius / np.linalg.norm(z))
        mu += step


def reference_newton_fit(D, y, ball_point=_reference_ball_point):
    """(theta, converged, steps) of one problem, D (n, K) and y (n,), by the
    one-row loop that ``theory.damped_newton`` stacks: the interpolating
    start of ``_fit_logits``, then, unless it is exact, damped Newton in D's
    row space with a scalar ball step, Armijo backtrack and duality gap
    test.  ``ball_point`` solves the ball step."""
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
        return theta, True, 0
    rank = int(kept.sum())
    A, V = U[0, :, :rank] * svals[0, :rank], Vt[0, :rank]

    def loss(w):
        return _cross_entropy(A @ w, y, ones)

    def derivatives(w):
        sig = logistic(A @ w)
        return ((sig - y) @ A) / n, (A.T * (sig * (1.0 - sig))) @ A / n

    w = V @ theta
    value, (g, H), steps = loss(w), derivatives(w), 0
    while (gap := g @ w + B * np.sqrt(g @ g)) > GAP_TOL and steps < MAX_NEWTON_ITER:
        step = ball_point(H, g - H @ w, B) - w
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
    return V.T @ w, bool(gap <= GAP_TOL), steps


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
    Cholesky factor, and the SVD of ``basis_rows @ chol(cov)``.  One fit has
    no spread (``ddof`` 0), so its covariance is the jitter alone."""
    H = np.atleast_2d(np.array(history, dtype=float))
    if H.shape[0] < 1:
        raise ValueError("history must contain at least one fit")
    cov = np.cov(H, rowvar=False, ddof=min(1, H.shape[0] - 1)) + COV_JITTER * np.eye(H.shape[1])
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
    gram = _reference_kept_gram(G.T, np.ones(G.shape[0]), rank_tol)
    out, _ = morphing._project_off_span(g_star[None], gram[None], rank_tol)
    return out[0]


def morph_step_direction(pred_grad, probs, history, basis_rows, config):
    """One run's morph step: ``morphing.morph_step_directions`` on a stack of
    one.  ``pred_grad`` is (2J,), ``probs`` (2, J), ``history`` a sequence of
    at least one fit and ``basis_rows`` (2J, K); returns the direction (2J,)
    and the retained rank."""
    directions, ranks, _ = morphing.morph_step_directions(
        np.asarray(pred_grad, dtype=float)[None], np.asarray(probs, dtype=float)[None],
        np.atleast_2d(np.array(history, dtype=float))[None],
        np.asarray(basis_rows, dtype=float)[None], config)
    return directions[0], int(ranks[0])


def reference_step_factor(probs, history, basis_rows):
    """One run's (mean (2J - 1,), L (2J - 1, d)) of the logit and tangent
    gradient of its utility draws, formed on its own: the map
    G = [a_map; T^T v_map] @ basis_rows of theta to them, and the QR of the
    history's deviations and the jitter's square root, both mapped by G.  A
    one-fit history's deviations are zero, and are divided by 1."""
    J = probs.shape[-1]
    H = np.atleast_2d(np.array(history, dtype=float))
    if H.shape[0] < 1:
        raise ValueError("history must contain at least one fit")
    T = morphing._tangent_basis(J)
    flip = np.repeat([-1.0, 1.0], J)
    logit = np.concatenate([-probs[0], probs[1]])
    G = np.concatenate([logit[None] @ basis_rows, (T.T * flip) @ basis_rows])
    theta_mean = H.mean(axis=0)
    N = np.concatenate([(H - theta_mean) @ G.T / np.sqrt(max(H.shape[0] - 1, 1)),
                        np.sqrt(COV_JITTER) * G.T])
    return G @ theta_mean, np.linalg.qr(N, mode="r").T


def reference_kept(cols: np.ndarray, scale, rank_tol: float) -> np.ndarray:
    """The plain kept test: which gradients ``scale[j] * cols[:, j]`` have a
    norm above ``rank_tol``, squared as the step squares it."""
    return scale * scale * np.einsum("ij,ij->j", cols, cols) > rank_tol ** 2


def _reference_kept_gram(cols: np.ndarray, scale, rank_tol: float) -> np.ndarray:
    """Gram matrix of the gradients ``scale[j] * cols[:, j]`` whose norm
    exceeds ``rank_tol``, built from fresh arrays."""
    kept = reference_kept(cols, scale, rank_tol)
    return (cols * np.where(kept, scale * scale, 0.0)) @ cols.T


def per_draw_gram(mean, L, rng, count: int, rank_tol: float) -> tuple[np.ndarray, int]:
    """The Gram matrix (m, m) of the kept gradients of one factor's ``count``
    draws of ``rng``'s normals, mapped in float64 draw by draw, and the
    count of kept gradients: each block's slopes and gradients w, their kept
    Gram matrix and their kept count, summed."""
    gram, kept = np.zeros((len(L) - 1, len(L) - 1)), 0
    for start in range(0, count, 8192):
        zT = rng.standard_normal((min(8192, count - start), L.shape[1])).T
        e = np.exp(-np.abs(zT[0] * L[0, 0] + mean[0]))
        cols, scale = L[1:] @ zT + mean[1:, None], e / (1.0 + e) ** 2
        gram += _reference_kept_gram(cols, scale, rank_tol)
        kept += int(reference_kept(cols, scale, rank_tol).sum())
    return gram, kept


def reference_expected_chunk(mean, L, lo, hi, rank_tol: float, rule):
    """``morphing._expected_chunk`` through the line sums kept = sum 0th,
    kappa = sum 1st e and K = sum 2nd e e^T: the Gram matrix is
    c c^T kept + c (B kappa)^T + (B kappa) c^T + B K B^T, with B K B^T
    taken from h_i = K B_i^T past the first row and the corner B00^2 K00."""
    _dot, lines = morphing._dot, rule[3]
    m = len(lines)
    z0, weights = morphing._z0_nodes(mean, L, lo, hi, rank_tol, rule)
    s2, C, c = morphing._centre(mean, L, rank_tol, z0)
    B = [[L[:, i + 1, j + 1:j + 2] for j in range(i + 1)] for i in range(m)]
    Be = [_dot([row[:, 0] for row in B[i]], [line[:, None] for line in lines])[..., None]
          for i in range(m)]
    A = np.maximum(_dot(Be, Be), morphing._TINY)
    beta = _dot(Be, c)
    p = beta * beta
    p -= A * C
    p = np.sqrt(np.maximum(p, 0.0, out=p), out=p)
    p += np.abs(beta)
    t = np.divide(C, np.maximum(p, morphing._TINY, out=p))
    ends = np.empty((2,) + beta.shape)
    np.minimum(np.maximum(np.divide(p, A, out=p), t, out=ends[0]), morphing._RHO_MAX,
               out=ends[0])
    np.minimum(np.abs(t, out=ends[1]), morphing._RHO_MAX, out=ends[1])
    (e, e_t), (first, first_t), (second, second_t) = morphing._tails(ends, m)
    sign = np.copysign(1.0, t, out=t)
    both = np.add(sign, 1.0, out=p)
    zeroth = np.add(e, both, out=e)
    zeroth -= np.multiply(sign, e_t, out=e_t)
    even = np.add(second, np.multiply(both, m, out=both), out=second)
    even -= np.multiply(sign, second_t, out=second_t)
    odd = np.subtract(first, first_t, out=first)
    odd *= np.copysign(1.0, beta, out=beta)
    pairs = [(i, j) for i in range(m) for j in range(i, m)]
    sums = []
    for moment, weight in ([(zeroth, None)] + [(odd, lines[i]) for i in range(m)]
                           + [(even, lines[i] * lines[j]) for i, j in pairs]):
        if weight is not None:
            moment = np.multiply(moment, weight[:, None, None], out=p)
        total = moment[0].copy()
        for line in range(1, len(moment)):
            total += moment[line]
        sums.append(total)
    kept, kappa, K = sums[0], sums[1:m + 1], {}
    for (i, j), total in zip(pairs, sums[m + 1:]):
        K[i, j] = K[j, i] = total
    g = [-_dot(B[i], kappa) for i in range(m)]
    h = {(i, j): _dot(B[i], [K[k, j] for k in range(m)]) for i in range(1, m) for j in range(m)}
    H = {(0, 0): B[0][0] * B[0][0] * K[0, 0]}
    for i, j in pairs[1:]:
        H[i, j] = _dot(B[i], [h[j, k] for k in range(m)])
    v = weights * s2
    grams = np.empty((len(L), m, m))
    for i, j in pairs:
        if i == j:
            entry = c[i] * c[i] * kept + 2.0 * c[i] * g[i] + H[i, i]
        else:
            entry = c[i] * c[j] * kept + c[i] * g[j] + c[j] * g[i] + H[i, j]
        grams[:, i, j] = (v * entry).sum(axis=1)
    grams /= 2 * lines.shape[1]
    for i, j in pairs:
        grams[:, j, i] = grams[:, i, j]
    return grams, (weights * kept).sum(axis=1) / (2 * lines.shape[1])


def reference_step_direction(pred_grad, probs, history, basis_rows, config):
    """One run's morph step, (direction (2J,), retained rank), computed on its
    own: its factor formed on its own (``reference_step_factor``), the one-row
    Gram matrix in expectation (``morphing._expected_grams``) and its own
    eigendecomposition and projection.  The bit-for-bit reference for every
    row of a stack."""
    T = morphing._tangent_basis(probs.shape[-1])
    mean, L = reference_step_factor(probs, history, basis_rows)
    (gram,), _ = morphing._expected_grams(mean[None], L[None], config.n_gradient_samples,
                                          config.rank_tol)
    evals, vecs = np.linalg.eigh(gram)
    kept = evals > config.rank_tol ** 2 * evals[-1]
    g = T.T @ pred_grad
    return T @ (g - vecs @ ((vecs.T @ g) * kept)), int(kept.sum())


def sample_step_gradients(probs, history, count: int, rng: np.random.Generator,
                          basis_rows: np.ndarray) -> np.ndarray:
    """The (count, 2J) tangent-projected choice-probability gradients s_i v_i
    of ``count`` draws of a morph step's law, from one whole (count, d) draw
    of ``rng``'s standard normals."""
    mean, L = reference_step_factor(probs, history, basis_rows)
    aw = rng.standard_normal((count, L.shape[1])) @ L.T + mean
    fb = logistic(aw[:, 0])
    return (aw[:, 1:] * (fb * (1 - fb))[:, None]) @ morphing._tangent_basis(probs.shape[-1]).T


def sample_theta_history(history, count: int, rng: np.random.Generator,
                         basis_rows: np.ndarray) -> np.ndarray:
    """Reference draw of the utilities ``basis_rows @ theta`` for theta
    around the fit history, built whole.

    The standard normals are drawn in the (count, r) layout and mapped
    through the factor of ``reference_utility_factor``.  Returns an (R, count) array, one draw per
    column.
    """
    mean, factor = reference_utility_factor(history, basis_rows)
    return (rng.standard_normal((count, factor.shape[1])) @ factor.T + mean).T


# -- exact any-utility reference: Gordan's alternative in rationals -----------

def reference_gordan(menus, choices, normalize: bool = True):
    """The exact value v of one or two menus with their choices, or None on a
    grid of one payoff: v = min over mixtures lambda of the menus of
    max_l sum_i lambda_i T_il, where T_il sums menu i's chosen-minus-other
    probabilities, as Fractions of the stored floats, from grid point l = 2
    up.  Some strictly increasing utility rationalizes the choices exactly
    when v > 0.

    ``normalize`` divides each lottery by its sum first.  Without it a
    utility's level is no longer free to ignore, which adds each menu's
    whole-grid sum S_i as the two lines S and -S: the unnormalized rule, in
    which a chosen lottery with more mass than the other can always win."""
    grid, _ = on_merged_grid([(z, p) for Z, P in menus for z, p in zip(Z, P)])
    if grid.size < 2:
        return None
    lines = []
    for (Z, P), y in zip(menus, choices):
        on_grid = []
        for z, p in ((Z[y], P[y]), (Z[1 - y], P[1 - y])):
            exact = [Fraction(float(v)) for v in p]
            total = sum(exact) if normalize else Fraction(1)
            probs = [Fraction(0)] * grid.size
            for zj, pj in zip(z, exact):
                # The grid point a payoff merged into: the last one at or below it.
                probs[int(np.searchsorted(grid, zj, side="right")) - 1] += pj / total
            on_grid.append(probs)
        diff = [c - o for c, o in zip(*on_grid)]
        tails = [sum(diff[l:]) for l in range(grid.size)]
        lines.append(tails[1:] if normalize else [tails[0], -tails[0], *tails[1:]])
    if len(lines) == 1:
        return max(lines[0])
    a, b = lines
    ts = {Fraction(0), Fraction(1)}
    for al, bl in zip(a, b):
        for ak, bk in zip(a, b):
            if bl - al != bk - ak:
                ts.add((ak - al) / ((bl - al) - (bk - ak)))
    return min(max((1 - t) * al + t * bl for al, bl in zip(a, b))
               for t in ts if 0 <= t <= 1)


def reference_minimal(coll: Collection):
    """The smallest inconsistent sub-collection by subset enumeration, or
    None: each subset merged and judged on its own grid, the subsets of one
    size as one stack, the first inconsistent one in
    ``itertools.combinations`` order.  A menu whose payoffs merge to one
    point is vacuously consistent here on its own."""
    Z, P, q = coll
    choices = implied_choices(q)
    n = len(choices)
    for size in range(1, n + 1):
        subsets = list(itertools.combinations(range(n), size))
        idx = np.array(subsets)
        for subset, sub in zip(subsets, utility_verdicts(Z[idx], P[idx], choices[idx])):
            if not sub.consistent:
                return subset
    return None
