"""Example morphing: move menus along directions the theory cannot see.

At each step the predictor's probability-gradient is projected onto the
(approximate) common null space of sampled theory gradients and the menu is
stepped against that projection.  The theory gradients come from coefficient
vectors drawn around the running history of inner fits; directions they pin
down are removed, directions they leave free carry the morph.  The projected
step is always a descent direction for the predictor and is orthogonal to
every sampled gradient retained by the rank cutoff.

Payoffs stay frozen, so a sampled theory enters only through its 2J
utilities at the menu's payoffs: those are drawn directly, and the span of
the sampled gradients is read from their 2J x 2J Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adversarial import SearchResult, interior_menu, search_result
from .basis import basis_from_config
from .cpt import logistic
from .lotteries import Menu, menu_from_flat, run_rng, sample_random_menu, step_probs
from .theory import basis_values, eu_difference_row, fit_theta

DEFAULT_BASIS = {"kind": "ispline", "knots": 10, "degree": 3, "domain": [0.0, 10.0]}
STOP_NORM = 1e-8
COV_JITTER = 1e-8


@dataclass(frozen=True)
class MorphConfig:
    step_size: float = 10.0
    max_iters: int = 50
    n_gradient_samples: int = 2_000     # paper-scale runs use 200,000
    # Rank cutoff separating genuinely pinned directions from covariance
    # jitter.  Early-iteration sampled-gradient spectra have second singular
    # values up to ~2e-3 of the first from jitter alone, so cutoffs below
    # ~1e-2 treat the span as full-rank and stall every run at step 0.
    rank_tol: float = 0.1
    basis_config: dict = field(default_factory=lambda: dict(DEFAULT_BASIS))
    n_payoffs: int = 2

    def __post_init__(self):
        if self.step_size <= 0 or self.n_gradient_samples < 1:
            raise ValueError("step size must be positive and sample count >= 1")

    def make_basis(self):
        return basis_from_config(self.basis_config)


def sample_theta_history(history, count: int, rng: np.random.Generator,
                         basis_rows: np.ndarray) -> np.ndarray:
    """Draw the utilities ``basis_rows @ theta`` for theta around the fit history.

    theta ~ N(mean, cov + jitter I), with the mean and sample covariance of
    the history and a small jitter keeping the covariance factorizable.  The
    history holds at least two fits, because a run first samples after the
    seed fit and the first step's fit.  Only the R utilities are drawn: the
    (R, K) factor ``basis_rows @ chol(cov)`` is reduced by SVD to at most R
    columns, so a singular utility covariance (lotteries sharing a payoff, or
    R > K) still samples.  Returns an (R, count) array, one draw per column.
    """
    H = np.atleast_2d(np.array(history, dtype=float))
    if H.shape[0] < 2:
        raise ValueError("history must contain at least two fits")
    mean = H.mean(axis=0)
    cov = np.cov(H, rowvar=False, ddof=1) + COV_JITTER * np.eye(H.shape[1])
    rows = np.asarray(basis_rows, dtype=float)
    W, svals, _ = np.linalg.svd(rows @ np.linalg.cholesky(cov), full_matrices=False)
    draws = (W * svals) @ rng.standard_normal((svals.size, count))
    draws += (rows @ mean)[:, None]
    return draws


def null_space_projection(g_star: np.ndarray, sampled_grads: np.ndarray,
                          rank_tol: float = 1e-6) -> np.ndarray:
    """Project g_star onto the orthogonal complement of the sampled span.

    Gradients with norm below ``rank_tol`` are dropped.  The span is read
    from the eigendecomposition of the Gram matrix G^T G, whose eigenvalues
    are the squared singular values of G: those below ``rank_tol**2`` times
    the largest are treated as zero.  Full-span input maps to the zero vector.
    """
    g_star = np.asarray(g_star, dtype=float)
    G = np.atleast_2d(np.asarray(sampled_grads, dtype=float))
    if G.shape[1] != g_star.size:
        raise ValueError("dimension mismatch between gradient and samples")
    G = G[np.sqrt(np.einsum("ij,ij->i", G, G)) > rank_tol]
    if G.shape[0] == 0:
        return g_star.copy()
    evals, vecs = np.linalg.eigh(G.T @ G)           # ascending
    V = vecs[:, evals > rank_tol ** 2 * evals[-1]]
    return g_star - V @ (V.T @ g_star)


def _tangent(vecs: np.ndarray, n_payoffs: int) -> np.ndarray:
    """Remove per-block means: feasible simplex directions sum to zero."""
    J = n_payoffs
    out = np.atleast_2d(vecs).astype(float).copy()
    out[:, :J] -= out[:, :J].mean(axis=1, keepdims=True)
    out[:, J:] -= out[:, J:].mean(axis=1, keepdims=True)
    return out if np.asarray(vecs).ndim > 1 else out[0]


def morph_step_direction(pred_grad_probs: np.ndarray, sampled_grads_probs: np.ndarray,
                         n_payoffs: int, rank_tol: float) -> np.ndarray:
    """Null-space projection restricted to simplex-tangent coordinates."""
    P = _tangent(np.eye(2 * n_payoffs), n_payoffs)    # symmetric projector
    G = np.atleast_2d(np.asarray(sampled_grads_probs, dtype=float))
    # (P G^T)^T is G P; this order reads a transposed view row by row.
    return null_space_projection(P @ pred_grad_probs, (P @ G.T).T, rank_tol)


def morph_run(predictor, config: MorphConfig, x0: Menu, rng: np.random.Generator,
              provenance: dict | None = None) -> SearchResult:
    """One morphing run; stops early once the projected direction vanishes."""
    basis = config.make_basis()
    J = x0.n_payoffs
    flags: list = []

    # Payoffs are frozen, so the basis values at each payoff are fixed.
    B0, B1 = basis_values(basis, x0)                # (J, K) each
    Bs = np.concatenate([B0, B1])
    d0 = eu_difference_row(x0, B0, B1)

    f0 = predictor.predict(x0)
    seed_fit = fit_theta(basis, [(x0, f0)], design=d0[None, :])
    history = [seed_fit.theta]

    x = x0.flatten()
    trajectory = [x.copy()]
    for s in range(config.max_iters):
        menu = menu_from_flat(x, J)
        d = eu_difference_row(menu, B0, B1)
        fit = fit_theta(basis, [(x0, f0), (menu, predictor.predict(menu))],
                        design=np.array([d0, d]))
        history.append(fit.theta)

        # Sampled utilities at the frozen payoffs: rows U0 then U1.
        U = sample_theta_history(history, config.n_gradient_samples, rng, Bs)
        fb = logistic(menu.lottery1.probs @ U[J:] - menu.lottery0.probs @ U[:J])
        # In place, column i becomes the gradient of draw i's choice
        # probability over (p0, p1): slope * (-U0, U1).
        U[:J] *= -1.0
        U *= fb * (1.0 - fb)

        pred_grad = predictor.grad(interior_menu(menu))
        if not np.all(np.isfinite(pred_grad)):
            flags.append(f"nonfinite_gradient@iter{s}")
            break
        direction = morph_step_direction(pred_grad, U.T, J, config.rank_tol)
        if np.linalg.norm(direction) < STOP_NORM:
            break
        x = step_probs(x, J, -config.step_size * direction)
        trajectory.append(x.copy())

    return search_result(predictor, "morphing", x0, f0, trajectory, flags,
                         provenance)


def run_morph_index(predictor, config: MorphConfig, master_seed: int,
                    run_index: int) -> SearchResult:
    low, high = config.make_basis().domain
    rng = run_rng(master_seed, run_index)
    x0 = sample_random_menu(rng, config.n_payoffs, low, high)
    prov = {"procedure": "morphing", "master_seed": master_seed,
            "run_index": run_index}
    return morph_run(predictor, config, x0, rng, prov)
