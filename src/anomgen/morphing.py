"""The morphing search (example morphing): move menus along directions the
theory cannot see.

At each step the predictor's probability-gradient is projected onto the
(approximate) common null space of sampled theory gradients and the menu is
stepped against that projection.  The theory gradients come from coefficient
vectors drawn around the running history of inner fits; directions they pin
down are removed, directions they leave free carry the morph.  The projected
step is always a descent direction for the predictor and is orthogonal to
every sampled gradient retained by the rank cutoff.

Payoffs stay frozen, so a sampled theory enters only through its 2J
utilities at the menu's payoffs, and a step reads a utility draw only
through its logit and its gradient in the simplex's tangent space: 2J - 1
numbers, drawn directly from at most 2J - 1 standard normals.  The span of
the sampled gradients is read from their (2J - 2) x (2J - 2) Gram matrix in
tangent coordinates.  A step sums that matrix in one pass over fixed blocks
of draws, so no array as wide as the sample count is built.

Runs advance through the adversarial search's loop
(``adversarial.lockstep``), and one call per step,
``morph_step_directions``, gives every running run its direction: the
factorizations, maps, eigendecompositions and projections act on the whole
stack, while each run's draws come from that run's own generator.  Every
row has the bytes it has in a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adversarial import index_block, lockstep
from .basis import ISplineBasis, basis_from_config
from .theory import _fit_logits

DEFAULT_BASIS = ISplineBasis().config_dict()
STOP_NORM = 1e-8
COV_JITTER = 1e-8
# Rows of the (count, d) standard-normal stream drawn and reduced at a time:
# a block's arrays stay in cache, and the size moves no draw.
_DRAW_BLOCK = 8192
# Smallest rank cutoff the Gram route resolves.  The eigenvalue cutoff is
# rank_tol**2 times the largest eigenvalue, and the summed Gram matrix
# carries rounding of some eps times the largest: at 1e-6 the cutoff stays
# decades above that noise, while near sqrt(eps) the noise would decide the
# retained rank.
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


def _utility_factors(H: np.ndarray, basis_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Means (R, 2J) and factors (R, 2J, r) of the utilities ``basis_rows @ theta``,
    one per row of a stack.

    Row k draws theta ~ N(mean, cov + jitter I), with the mean and sample
    covariance of its fit history ``H[k]`` (H is (R, h, K)) and a small
    jitter keeping the covariance factorizable.  A history holds at least two
    fits, because a run first samples after the seed fit and the first step's
    fit.  The (2J, K) factor ``basis_rows[k] @ chol(cov)`` is reduced by SVD
    to r <= 2J columns, so a singular utility covariance (lotteries sharing a
    payoff, or 2J > K) still samples: a draw is ``mean + factor @ z`` with
    z ~ N(0, I_r).  The covariance is formed as ``np.cov`` forms it, scaled
    by ``1 / (h - 1)``, so every row has the bytes of its own one-row call.
    """
    _, h, K = H.shape
    if h < 2:
        raise ValueError("history must contain at least two fits")
    theta_mean = H.mean(axis=1)
    X = H - theta_mean[:, None, :]
    cov = np.matmul(X.transpose(0, 2, 1), X)
    cov *= np.true_divide(1, h - 1)
    cov += COV_JITTER * np.eye(K)
    W, svals, _ = np.linalg.svd(basis_rows @ np.linalg.cholesky(cov), full_matrices=False)
    return (basis_rows @ theta_mean[:, :, None])[..., 0], W * svals[:, None, :]


def _add_kept_gram(gram: np.ndarray, cols: np.ndarray, scale: np.ndarray, rank_tol: float,
                   work: np.ndarray) -> None:
    """Add into ``gram`` the Gram matrix of the gradients ``scale[j] * cols[:, j]``,
    one per column, whose norm exceeds ``rank_tol``; the others are dropped.
    ``scale`` is overwritten, and ``work`` is scratch of the shape of ``cols``."""
    weights = np.multiply(scale, scale, out=scale)
    weights[~(weights * np.einsum("ij,ij->j", cols, cols) > rank_tol ** 2)] = 0.0
    gram += np.multiply(cols, weights, out=work) @ cols.T


def _project_off_span(g: np.ndarray, grams: np.ndarray,
                      rank_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Each row of ``g`` (R, n) with its Gram matrix's span removed, and the
    rank of that span (R,).

    Row k's span is that of the eigenvectors of ``grams[k]`` whose eigenvalue
    (a squared singular value of the gradients) exceeds ``rank_tol**2`` times
    the largest: the last ones, since ``eigh`` sorts ascending.  Rows of one
    rank are projected together, each with only its own kept columns, held
    column by column as a one-row ``vecs[:, kept]`` holds them: that layout
    picks the BLAS call, and so the last bits.
    """
    evals, vecs = np.linalg.eigh(grams)
    ranks = np.sum(evals > rank_tol ** 2 * evals[:, -1:], axis=1)
    out = np.empty_like(g)
    n = g.shape[1]
    for k in range(n + 1):
        rows = np.flatnonzero(ranks == k)
        if rows.size == 0:
            continue
        Vt = np.ascontiguousarray(vecs[rows, :, n - k:].transpose(0, 2, 1))
        gk = g[rows, :, None]
        out[rows] = (gk - Vt.transpose(0, 2, 1) @ (Vt @ gk))[..., 0]
    return out, ranks


def _tangent_basis(J: int) -> np.ndarray:
    """T (2J, 2J - 2): an orthonormal basis of the simplex's tangent space,
    whose directions sum to zero within each block of J, in closed form from
    Helmert contrasts per block.  ``T @ T.T`` removes per-block means."""
    k, rows = np.arange(1, J), np.arange(J)[:, None]
    return np.kron(np.eye(2), ((rows < k) - k * (rows == k)) / np.sqrt(k * (k + 1)))


def _step_factors(probs: np.ndarray, histories: np.ndarray, basis_rows: np.ndarray,
                  T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Means (R, 2J - 1) and lower-triangular factors L (R, 2J - 1, d) of what
    a step reads of a utility draw U = (U0, U1): its logit
    a = p1 . U1 - p0 . U0 and its tangent gradient w = T^T v, v = (-U0, U1).

    With U = mean + F z (``_utility_factors``), (a, w) = mean + M z for
    M = [a_map; T^T v_map] (2J - 1, r).  The QR of M^T gives L = R^T with
    L L^T = M M^T, so mean + L z', z' ~ N(0, I_d) with d = min(2J - 1, r),
    draws the same law from fewer normals; L's first row is (L00, 0, ...).
    """
    J = probs.shape[-1]
    means, factors = _utility_factors(histories, basis_rows)
    flip = np.repeat([-1.0, 1.0], J)                # U -> v
    logit = np.concatenate([-probs[:, 0], probs[:, 1]], axis=1)[:, None, :]
    M = np.concatenate([logit @ factors, T.T @ (flip[:, None] * factors)], axis=1)
    mean = np.concatenate([logit @ means[..., None], T.T @ (flip * means)[..., None]], axis=1)
    return mean[..., 0], np.linalg.qr(M.transpose(0, 2, 1), mode="r").transpose(0, 2, 1)


def morph_step_directions(pred_grads: np.ndarray, probs: np.ndarray, histories: np.ndarray,
                          basis_rows: np.ndarray, rngs,
                          config: MorphConfig) -> tuple[np.ndarray, np.ndarray]:
    """One morph step for a stack of runs: each row's direction (R, 2J) and
    the rank of the sampled span it removes (R,).

    Row k draws ``config.n_gradient_samples`` utility vectors U = (U0, U1)
    from ``rngs[k]`` around its fit history ``histories[k]`` (h, K);
    ``basis_rows[k]`` (2J, K) holds the basis values at the menu's payoffs
    and ``probs[k]`` (2, J) its probabilities (p0, p1).  Draw i's choice
    probability has gradient s_i v_i over (p0, p1), with v_i = (-U0_i, U1_i),
    logit a_i = p1 . U1_i - p0 . U0_i and slope s_i = sigma(a_i)(1 - sigma(a_i)).
    In the coordinates w = T^T v of the tangent basis T, the direction is the
    predictor's gradient T^T g with the span of the gradients s_i w_i removed,
    lifted back by T.  A gradient is kept when its norm exceeds
    ``config.rank_tol``, and the span is read from the kept gradients' Gram
    matrix with the relative cutoff ``config.rank_tol``.

    Everything but the draws is done for the whole stack at once: the
    history moments, the Cholesky, SVD and QR factors (``_step_factors``),
    the Gram eigendecompositions and the projections.  The draws go run by
    run, each from its own generator, in blocks of ``_DRAW_BLOCK`` rows of
    the (count, d) stream, written into work buffers that every run reuses;
    each block is mapped straight to a and w and added into the run's
    (2J - 2) x (2J - 2) Gram matrix, so no count-wide array is built.  Every
    operation acts on one row, so a row's bytes do not depend on the rows
    stacked with it.
    """
    R, _, J = probs.shape
    T = _tangent_basis(J)
    mean, L = _step_factors(probs, histories, basis_rows, T)
    scale, w_map = L[:, 0, 0], np.ascontiguousarray(L[:, 1:])
    count, (m, d) = config.n_gradient_samples, w_map.shape[1:]
    grams = np.zeros((R, m, m))
    # Flat work buffers for one block, shared by every block of every run; a
    # block of n draws views them as contiguous arrays of its own size.  The
    # draws' buffer holds the weighted gradients once the draws are mapped.
    block = min(count, _DRAW_BLOCK)
    draws, grads, logits, slopes = (np.empty(size) for size in
                                    ((m + 1) * block, m * block, block, block))
    for k, rng in enumerate(rngs):
        for start in range(0, count, _DRAW_BLOCK):
            n = min(_DRAW_BLOCK, count - start)
            z = draws[:n * d].reshape(n, d)
            rng.standard_normal(out=z)
            a, s = logits[:n], slopes[:n]
            np.multiply(z[:, 0], scale[k], out=a)
            a += mean[k, 0]
            # sigma'(a) = e / (1 + e)^2 with e = exp(-|a|): one exp, no overflow.
            e = np.exp(np.negative(np.abs(a, out=a), out=a), out=a)
            np.add(1.0, e, out=s)
            s **= 2
            np.divide(e, s, out=s)
            w = np.matmul(w_map[k], z.T, out=grads[:m * n].reshape(m, n))
            w += mean[k, 1:, None]
            _add_kept_gram(grams[k], w, s, config.rank_tol, draws[:m * n].reshape(m, n))
    directions, ranks = _project_off_span((T.T @ pred_grads[..., None])[..., 0], grams,
                                          config.rank_tol)
    return (T @ directions[..., None])[..., 0], ranks


def morph_lockstep(predictor, config: MorphConfig, Z, P, rngs, master_seed,
                   indices) -> list[dict]:
    """Morphing runs from the menus (Z, P), advanced in ``lockstep``; run r
    draws from its own generator ``rngs[r]`` and stops early once its
    direction vanishes.  Its record says why it stopped (``stop``:
    ``direction_vanished``, ``max_iters`` or ``nonfinite_gradient``) and the
    rank of the sampled span removed by its last projection
    (``retained_rank``, None when it stopped before its first).

    Each step's directions come from one ``morph_step_directions`` call over
    the running rows whose gradient is finite.  The fit histories live in one
    (R, max_iters + 1, K) array: the seed fit, then one fit per step, so at
    step s every running row holds s + 2 fits.
    """
    R = len(Z)
    history = None
    stop, rank = ["max_iters"] * R, [None] * R

    def morph(s, rows, D, y, fit, P, B, f, df):
        nonlocal history
        if s == 0:          # every run's history starts at its seed fit
            seed = _fit_logits(D[:, :1], y[:, :1]).theta
            history = np.empty((R, config.max_iters + 1, seed.shape[1]))
            history[:, 0] = seed
        history[rows, s + 1] = fit.theta
        delta, go = np.zeros_like(df), np.zeros(len(rows), dtype=bool)
        finite = np.all(np.isfinite(df), axis=(1, 2))
        delta[~finite] = np.nan
        for r in rows[~finite]:
            stop[r] = "nonfinite_gradient"
        live = np.flatnonzero(finite)
        directions, ranks = morph_step_directions(
            df.reshape(len(rows), -1)[live], P[live], history[rows[live], :s + 2],
            B.reshape(len(rows), -1, B.shape[-1])[live], [rngs[r] for r in rows[live]],
            config)
        # The norm of each row as ``np.linalg.norm`` takes it: sqrt(d . d).
        vanished = np.sqrt((directions[:, None, :] @ directions[:, :, None])[:, 0, 0]) \
            < STOP_NORM
        for r, k, gone in zip(rows[live], ranks.tolist(), vanished):
            rank[r] = k
            if gone:
                stop[r] = "direction_vanished"
        moving = live[~vanished]
        delta[moving] = -config.step_size * directions[~vanished].reshape(-1, *P.shape[1:])
        go[moving] = True
        return delta, go

    return lockstep(predictor, config, Z, P, morph,
                    lambda: {"stop": stop, "retained_rank": rank}, "morphing", master_seed,
                    indices)


def run_morph_indices(predictor, config: MorphConfig, master_seed: int, indices):
    """Morphing runs addressed by (master seed, run index), advanced as one
    stack; their records in the order of ``indices``."""
    Z, P, rngs = index_block(master_seed, indices, 1, config.n_payoffs, config.make_basis().domain)
    return morph_lockstep(predictor, config, Z[:, 0], P[:, 0], rngs, master_seed, indices)
