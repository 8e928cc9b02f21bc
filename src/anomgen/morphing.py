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
the sampled gradients is read from their 2J x 2J Gram matrix.  A step sums
that matrix in one pass over fixed blocks of draws, so no array as wide as
the sample count is built (``morph_step_direction``).

Runs advance through the adversarial search's loop
(``adversarial.lockstep``); the morph step draws each run's direction from
that run's own generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adversarial import index_block, lockstep
from .basis import ISplineBasis, basis_from_config
from .lotteries import ExampleCollection
from .theory import _fit_logits

DEFAULT_BASIS = ISplineBasis().config_dict()
STOP_NORM = 1e-8
COV_JITTER = 1e-8
# Rows of the (count, r) standard-normal stream drawn and reduced at a time:
# a block's arrays stay in cache, and the size moves no draw.
_DRAW_BLOCK = 8192
# Smallest rank cutoff the Gram route resolves.  Below it the eigenvalue
# cutoff keeps rounding noise normal to the simplex, and the retained rank
# counts that noise (rank 3 where the tangent space of J = 2 has dimension 2).
MIN_RANK_TOL = 1e-6


@dataclass(frozen=True)
class MorphConfig:
    step_size: float = 10.0
    max_iters: int = 50
    inits: int = 100                    # runs a CLI batch makes without --inits
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
        if not self.rank_tol >= MIN_RANK_TOL:
            raise ValueError(f"rank_tol must be at least {MIN_RANK_TOL:g}")

    def make_basis(self):
        return basis_from_config(self.basis_config)


def _utility_factor(history, basis_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean (R,) and factor (R, r) of the utilities ``basis_rows @ theta``.

    theta ~ N(mean, cov + jitter I), with the mean and sample covariance of
    the history and a small jitter keeping the covariance factorizable.  The
    history holds at least two fits, because a run first samples after the
    seed fit and the first step's fit.  The (R, K) factor
    ``basis_rows @ chol(cov)`` is reduced by SVD to r <= R columns, so a
    singular utility covariance (lotteries sharing a payoff, or R > K) still
    samples: a draw is ``mean + factor @ z`` with z ~ N(0, I_r).
    """
    H = np.atleast_2d(np.array(history, dtype=float))
    if H.shape[0] < 2:
        raise ValueError("history must contain at least two fits")
    cov = np.cov(H, rowvar=False, ddof=1) + COV_JITTER * np.eye(H.shape[1])
    rows = np.asarray(basis_rows, dtype=float)
    W, svals, _ = np.linalg.svd(rows @ np.linalg.cholesky(cov), full_matrices=False)
    return rows @ H.mean(axis=0), W * svals


def _kept_gram(cols: np.ndarray, scale, rank_tol: float) -> np.ndarray:
    """Gram matrix of the gradients ``scale[j] * cols[:, j]``, one per
    column, whose norm exceeds ``rank_tol``; the others are dropped."""
    weights = scale * scale
    kept = weights * np.einsum("ij,ij->j", cols, cols) > rank_tol ** 2
    return (cols * np.where(kept, weights, 0.0)) @ cols.T


def _span(gram: np.ndarray, rank_tol: float) -> np.ndarray:
    """Orthonormal columns spanning the eigenvectors of ``gram`` whose
    eigenvalue (a squared singular value of the gradients) exceeds
    ``rank_tol**2`` times the largest."""
    evals, vecs = np.linalg.eigh(gram)              # ascending
    return vecs[:, evals > rank_tol ** 2 * evals[-1]]


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
    V = _span(_kept_gram(G.T, 1.0, rank_tol), rank_tol)
    return g_star - V @ (V.T @ g_star)


def _tangent(vecs: np.ndarray, n_payoffs: int) -> np.ndarray:
    """Remove per-block means: feasible simplex directions sum to zero."""
    J = n_payoffs
    out = np.atleast_2d(vecs).astype(float).copy()
    out[:, :J] -= out[:, :J].mean(axis=1, keepdims=True)
    out[:, J:] -= out[:, J:].mean(axis=1, keepdims=True)
    return out if np.asarray(vecs).ndim > 1 else out[0]


def morph_step_direction(pred_grad: np.ndarray, probs: np.ndarray, history,
                         basis_rows: np.ndarray, rng: np.random.Generator,
                         config: MorphConfig) -> tuple[np.ndarray, int]:
    """One morph step's direction and the rank of the sampled span it removes.

    Draws ``config.n_gradient_samples`` utility vectors U = (U0, U1) around
    the fit history (``basis_rows`` holds the basis values at the menu's
    payoffs, and ``probs`` (2, J) its probabilities (p0, p1)).  Draw i's choice probability has gradient s_i v_i over
    (p0, p1), with v_i = (-U0_i, U1_i), logit a_i = p1 . U1_i - p0 . U0_i
    and slope s_i = sigma(a_i)(1 - sigma(a_i)).  The predictor's gradient and
    these are restricted to simplex-tangent coordinates by the projector P,
    and the step is ``null_space_projection`` of P g against the rows
    s_i P v_i, with the same filter, Gram matrix and cutoff.  The draws are
    taken in blocks of ``_DRAW_BLOCK`` rows of the (count, r) stream; each
    block is mapped straight to P v and a and added into the 2J x 2J Gram
    matrix, so no count-wide array is built.
    """
    J = probs.shape[-1]
    mean, factor = _utility_factor(history, basis_rows)
    P = _tangent(np.eye(2 * J), J)                  # symmetric projector
    flip = np.repeat([-1.0, 1.0], J)                # U -> v
    logit = np.concatenate([-probs[0], probs[1]])
    v_map, v_mean = P @ (flip[:, None] * factor), (P @ (flip * mean))[:, None]
    a_map, a_mean = logit @ factor, logit @ mean
    gram = np.zeros((2 * J, 2 * J))
    count = config.n_gradient_samples
    for start in range(0, count, _DRAW_BLOCK):
        z = rng.standard_normal((min(_DRAW_BLOCK, count - start), factor.shape[1])).T
        # sigma'(a) = e / (1 + e)^2 with e = exp(-|a|): one exp, no overflow.
        e = np.exp(-np.abs(a_map @ z + a_mean))
        v = v_map @ z                               # (2J, block)
        v += v_mean
        gram += _kept_gram(v, e / (1.0 + e) ** 2, config.rank_tol)
    V = _span(gram, config.rank_tol)
    g = P @ pred_grad
    return g - V @ (V.T @ g), V.shape[1]


def morph_lockstep(predictor, config: MorphConfig, menus, rngs,
                   provenances) -> list[ExampleCollection]:
    """Morphing runs advanced in ``lockstep``; run r draws from its own
    generator ``rngs[r]`` and stops early once its direction vanishes.  Its
    provenance adds to ``provenances[r]`` why it stopped (``stop``:
    ``direction_vanished``, ``max_iters`` or ``nonfinite_gradient``) and the
    rank of the sampled span removed by its last projection
    (``retained_rank``, None when it stopped before its first).
    """
    R = len(menus)
    history, stop, rank = [None] * R, ["max_iters"] * R, [None] * R

    def morph(s, rows, D, y, fit, P, B, f, df):
        if s == 0:          # every run's history starts at its seed fit
            history[:] = [[theta] for theta in _fit_logits(D[:, :1], y[:, :1]).theta]
        delta, go = np.zeros_like(df), np.zeros(len(rows), dtype=bool)
        for k, r in enumerate(rows):
            history[r].append(fit.theta[k])
            if not np.all(np.isfinite(df[k])):
                delta[k], stop[r] = np.nan, "nonfinite_gradient"
                continue
            direction, rank[r] = morph_step_direction(
                df[k].reshape(-1), P[k], history[r], B[k].reshape(-1, B.shape[-1]),
                rngs[r], config)
            if np.linalg.norm(direction) < STOP_NORM:
                stop[r] = "direction_vanished"
            else:
                delta[k], go[k] = -config.step_size * direction.reshape(P[k].shape), True
        return delta, go

    return lockstep(predictor, config, menus, morph,
                    lambda r: {**provenances[r], "stop": stop[r],
                               "retained_rank": rank[r]}, "morphing")


def run_morph_indices(predictor, config: MorphConfig, master_seed: int, indices):
    """Morphing runs addressed by (master seed, run index), advanced as one
    stack; their candidates in the order of ``indices``."""
    return morph_lockstep(predictor, config, *index_block(config, master_seed, indices))
