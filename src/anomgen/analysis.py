"""Random baseline, clustering and error estimation."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .lotteries import Collection, implied_choices, index_block, lottery_stats
from .records import stack_to_records

PATTERNS = ((0, 0), (0, 1), (1, 0), (1, 1))
# Single k-means runs, each from its own seeding, that ``kmeans`` keeps the
# best of; and the loadings ``pca`` reports per component.
KMEANS_RESTARTS = 10
PCA_TOP_LOADINGS = 4


# ---------------------------------------------------------------------------
# Random-pair baseline
# ---------------------------------------------------------------------------

def run_baseline_indices(predictor, cfg, indices) -> list[dict]:
    """Baseline runs ``indices`` of the pipeline config ``cfg``: two random
    menus each (``lotteries.index_block``), predicted in one batch call."""
    Z, P = index_block(cfg, indices, 2)
    q = predictor.predict_batch(Z.reshape(-1, *Z.shape[2:]), P.reshape(-1, *P.shape[2:]))
    return stack_to_records(Z, P, q.reshape(len(Z), 2), "baseline", predictor.label,
                            cfg.seed, indices)


# ---------------------------------------------------------------------------
# Anomaly features, clustering, principal components
# ---------------------------------------------------------------------------

_STAT_LABELS = ("ev", "variance", "skew", "payoff_range", "min_payoff",
                "max_payoff", "prob_range", "min_prob", "max_prob")

FEATURE_NAMES = tuple(f"{menu}_{s}_diff" for menu in ("A", "B") for s in _STAT_LABELS)


def anomaly_features(collection: Collection) -> np.ndarray:
    """18 signed differences (chosen minus alternative), menu A block then B."""
    if len(collection.q) != 2:
        raise ValueError("feature vector is defined for two-menu anomalies")
    return np.concatenate([lottery_stats(z[c], p[c]) - lottery_stats(z[1 - c], p[1 - c])
                           for z, p, c in zip(collection.Z, collection.P,
                                              implied_choices(collection.q))])


def standardize(matrix: np.ndarray) -> np.ndarray:
    """Column z-scores; zero-variance columns are kept as zeros."""
    X = np.asarray(matrix, dtype=float)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    out = np.zeros_like(X)
    nz = std > 0
    out[:, nz] = (X[:, nz] - mean[nz]) / std[nz]
    return out


@dataclass
class KmeansResult:
    assignments: np.ndarray
    centroids: np.ndarray
    inertia: float


def _kmeans_once(X: np.ndarray, k: int, rng: np.random.Generator) -> KmeansResult:
    n = X.shape[0]
    # Greedy farthest-point seeding from a random start.
    centers = [X[rng.integers(n)]]
    for _ in range(1, k):
        d2 = np.min([((X - c) ** 2).sum(axis=1) for c in centers], axis=0)
        centers.append(X[int(np.argmax(d2))])
    C = np.array(centers)
    assign = np.zeros(n, dtype=int)
    for _ in range(300):
        d2 = ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
        new_assign = d2.argmin(axis=1)
        for j in range(k):
            members = X[new_assign == j]
            if len(members):
                C[j] = members.mean(axis=0)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    d2 = ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
    inertia = float(d2[np.arange(n), assign].sum())
    return KmeansResult(assign, C, inertia)


def kmeans(matrix: np.ndarray, k: int, seed: int = 0) -> KmeansResult:
    """Lloyd iterations with farthest-point seeding; best of KMEANS_RESTARTS runs."""
    X = np.asarray(matrix, dtype=float)
    if k < 1 or k > X.shape[0]:
        raise ValueError("k must be between 1 and the number of rows")
    return min((_kmeans_once(X, k, np.random.default_rng((seed, r)))
                for r in range(KMEANS_RESTARTS)), key=lambda result: result.inertia)


@dataclass
class PcaResult:
    components: np.ndarray        # rows are components
    explained_variance: np.ndarray
    scores: np.ndarray
    top_loadings: list            # per component: [(feature index, loading), ...]


def pca(matrix: np.ndarray) -> PcaResult:
    """Eigendecomposition of the correlation matrix of standardized features.

    Component signs are fixed so each component's largest-magnitude loading is
    positive.
    """
    Z = standardize(matrix)
    n = Z.shape[0]
    corr = Z.T @ Z / max(n - 1, 1)
    evals, evecs = np.linalg.eigh(corr)
    order = np.argsort(evals)[::-1]
    evals = np.clip(evals[order], 0.0, None)
    comps = evecs[:, order].T
    for i in range(comps.shape[0]):
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    total = evals.sum()
    explained = evals / total if total > 0 else evals
    scores = Z @ comps.T
    top = []
    for i in range(comps.shape[0]):
        idx = np.argsort(-np.abs(comps[i]))[:PCA_TOP_LOADINGS]
        top.append([(int(j), float(comps[i, j])) for j in idx])
    return PcaResult(comps, explained, scores, top)


# ---------------------------------------------------------------------------
# Idiosyncratic-error estimation
# ---------------------------------------------------------------------------

def pattern_frequencies(counts) -> np.ndarray:
    """The shares of the four joint choice patterns on a two-menu anomaly,
    in the order of PATTERNS, from their counts."""
    counts = tuple(float(c) for c in counts)
    if len(counts) != 4 or not all(0 <= c < np.inf for c in counts):
        raise ValueError("need four finite nonnegative pattern counts")
    total = sum(counts)
    if total <= 0:
        raise ValueError("all-zero counts")
    return np.array(counts) / total


def consistent_patterns(Z, P) -> list:
    """Joint patterns of two menus, Z and P (2, 2, J), that some increasing
    utility rationalizes, judged as one stack."""
    if len(Z) != 2:
        raise ValueError("choice patterns are defined for two-menu collections")
    from .verifier import utility_verdicts

    verdicts = utility_verdicts(np.stack([Z] * 4), np.stack([P] * 4), np.array(PATTERNS))
    return [pattern for pattern, v in zip(PATTERNS, verdicts) if v.consistent]


def _pattern_matrix(eps: float, patterns) -> np.ndarray:
    """Column c: model frequencies over PATTERNS given true pattern c."""
    M = np.empty((4, len(patterns)))
    for col, true in enumerate(patterns):
        for row, obs in enumerate(PATTERNS):
            flips = sum(o != t for o, t in zip(obs, true))
            M[row, col] = eps ** flips * (1 - eps) ** (2 - flips)
    return M


def _simplex_lstsq(M: np.ndarray, target: np.ndarray):
    """min ||M w - target||^2 over the probability simplex, by active sets.

    With at most four mixture components, enumerating support sets and solving
    the KKT system exactly is simpler and more reliable than iterative QP.
    """
    k = M.shape[1]
    best_w, best_val = None, np.inf
    for r in range(1, k + 1):
        for support in itertools.combinations(range(k), r):
            Ms = M[:, support]
            # Solve min ||Ms w - target||^2 s.t. sum w = 1 via KKT.
            A = np.zeros((r + 1, r + 1))
            A[:r, :r] = Ms.T @ Ms
            A[:r, r] = 1.0
            A[r, :r] = 1.0
            b = np.concatenate([Ms.T @ target, [1.0]])
            try:
                sol = np.linalg.solve(A, b)
            except np.linalg.LinAlgError:
                sol, *_ = np.linalg.lstsq(A, b, rcond=None)
            w = sol[:r]
            if np.any(w < -1e-9):
                continue
            w = np.clip(w, 0.0, None)
            if w.sum() <= 0:
                continue
            w = w / w.sum()
            val = float(((Ms @ w - target) ** 2).sum())
            if val < best_val - 1e-15:
                best_val = val
                best_w = np.zeros(k)
                best_w[list(support)] = w
    return best_w, best_val


@dataclass
class EpsilonFit:
    epsilon: float
    weights: dict
    fit_distance: float


def estimate_epsilon(target: np.ndarray, patterns) -> EpsilonFit:
    """Error rate and mixture over the consistent ``patterns`` by minimum
    distance to the pattern shares ``target`` (``pattern_frequencies``).

    Respondents hold a consistent pattern and flip each choice independently
    with probability eps in [0, 0.5]; eps is fit on a 1e-3 grid with local
    refinement to 1e-5, with the mixing weights profiled out by
    simplex-constrained least squares.
    """
    if not patterns:
        raise ValueError("no consistent patterns to mix over")

    def objective(eps):
        _, val = _simplex_lstsq(_pattern_matrix(eps, patterns), target)
        return val

    grid = np.arange(0.0, 0.5 + 1e-12, 1e-3)
    values = [objective(e) for e in grid]
    i = int(np.argmin(values))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    fine = np.arange(lo, hi + 1e-12, 1e-5)
    fine_values = [objective(e) for e in fine]
    j = int(np.argmin(fine_values))
    eps = float(fine[j])
    w, val = _simplex_lstsq(_pattern_matrix(eps, patterns), target)
    weights = {p: float(w[c]) for c, p in enumerate(patterns)}
    return EpsilonFit(epsilon=eps, weights=weights, fit_distance=float(val))
