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
numbers, drawn directly from 2J - 1 standard normals through one QR factor
of the fit history's deviations (``_step_factors``).  The span of the
sampled gradients is read from their (2J - 2) x (2J - 2) Gram matrix in
tangent coordinates.  A draw's tangent gradient is linear in its normals, so
a step sums each run's Gram matrix from weighted moments of the normals, in
one pass over fixed blocks of draws: the same kept draws, the same sum, and
no array as wide as the sample count is built.

A step whose logistic slope is tiny wherever its draws fall keeps no
draw: each sampled gradient's norm falls under ``rank_tol``, the Gram
matrix stays zero and the direction is the whole predictor gradient.  One
bound over each block's own draws, its extremes of z0 and |z|
(``_all_or_none``), often decides a row's kept test for the whole block:
the row then skips the test, when every draw is kept, or the block, when
none is, with the same bytes.  A row that the bound finds keeps no draw in
any block is a quiet row of its step.

The draws are mapped in float32, and each block's moments are added into
float64 sums: on real runs' steps the Gram matrix's rounding stays under
2.2e-6 of its largest eigenvalue, three decades under the Monte Carlo error
of 200,000 draws (about 2e-3).  A one-draw Gram matrix, of rank one, shows a
spurious eigenvalue up to about 3e-6 of its largest, and the smallest rank
cutoff, ``config.MIN_RANK_TOL`` = 1e-2, keeps the eigenvalue cutoff
``rank_tol**2`` 1.5 decades above it.

Every step of every run of one master seed maps the same (count, d)
standard normals, the seed's stream (``lotteries.normals_rng``), through its
own factor: common random numbers (Glasserman, *Monte Carlo Methods in
Financial Engineering*, 2003, ch. 4).  A step generates them once for its
whole stack, one block at a time, rather than once per run: a block of
8,192 costs about as much as mapping it through ten to twenty rows, and
past a step's first block one helper thread draws the next block while
the step maps this one.

Runs advance through the adversarial search's loop
(``adversarial.lockstep``), and one call per step,
``morph_step_directions``, gives every running run its direction: the
QR factors, eigendecompositions and projections act on the whole stack,
and each block of the stream is drawn once and mapped and summed through
every run's factor in turn.  A run's moments sum the blocks in stream
order, so every row has the bytes it has in a stack of one.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np

from .adversarial import lockstep
from .basis import ISplineBasis
from .config import MorphConfig
from .lotteries import index_block, normals_rng
from .theory import _fit_logits

STOP_NORM = 1e-8
# Variance added to each coefficient of the sampled law, theta ~ N(mean,
# cov + COV_JITTER I): a history's fits may not vary along every coefficient,
# and ``MorphConfig.rank_tol`` is calibrated against the spread it adds.
COV_JITTER = 1e-8
# Rows of the (count, d) standard-normal stream drawn and reduced at a time:
# a block's arrays stay in cache, and the size moves no draw.
_DRAW_BLOCK = 8192
# Rows whose logits and slopes are mapped together, as (group, n) arrays: one
# numpy call per group, not per row, and no row's bits depend on its group.
_ROW_GROUP = 4
# The relative margin by which a block's bound (``_all_or_none``) must clear
# ``rank_tol`` to decide its kept test, per unit of 1 + the logit's reach
# |mean_a| + |L00| max|z0|: 64 float32 unit roundoffs u = 2**-24.  The map
# runs in float32, and at J <= 3 its slope (numpy's float32 exp is within 2.52
# ulp), tangent gradient, block radius, squares and threshold move the kept
# test's sigma'(a) |w| by at most 43 u relative; the logit is off by at most
# 3 u of its reach, and moves the slope by as much (|d log sigma' / da| <= 1).
CERTIFY_MARGIN = 2.0 ** -18


def _project_off_span(g: np.ndarray, grams: np.ndarray,
                      rank_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Each row of ``g`` (R, n) with its Gram matrix's span removed, and the
    rank of that span (R,).

    Row k's span is that of the eigenvectors V of ``grams[k]`` whose
    eigenvalue (a squared singular value of the gradients) exceeds
    ``rank_tol**2`` times the largest.  Every row is projected by one masked
    product, g - V (kept * V^T g): a dropped eigenvector's coefficient is zero.
    """
    evals, vecs = np.linalg.eigh(grams)
    kept = evals > rank_tol ** 2 * evals[:, -1:]
    coef = (vecs.transpose(0, 2, 1) @ g[..., None])[..., 0] * kept
    return g - (vecs @ coef[..., None])[..., 0], kept.sum(axis=1)


@functools.cache
def _tangent_basis(J: int) -> np.ndarray:
    """T (2J, 2J - 2): an orthonormal basis of the simplex's tangent space,
    whose directions sum to zero within each block of J, in closed form from
    Helmert contrasts per block.  ``T @ T.T`` removes per-block means.  Built
    once per J and shared read-only."""
    k, rows = np.arange(1, J), np.arange(J)[:, None]
    T = np.kron(np.eye(2), ((rows < k) - k * (rows == k)) / np.sqrt(k * (k + 1)))
    T.flags.writeable = False
    return T


def _step_factors(probs: np.ndarray, histories: np.ndarray, basis_rows: np.ndarray,
                  T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Means (R, 2J - 1) and lower-triangular factors L (R, 2J - 1, d) of what
    a step reads of a utility draw U = (U0, U1) = basis_rows @ theta: its
    logit a = p1 . U1 - p0 . U0 and its tangent gradient w = T^T v, with
    v = (-U0, U1).

    Row k draws theta ~ N(mean, cov + COV_JITTER I) around its fit history
    ``histories[k]``, h >= 2 fits of K coefficients with deviations X from
    their mean.  (a, w) = G theta for G = [a_map; T^T v_map] @ basis_rows, so
    its covariance is N^T N for N = [X G^T / sqrt(h - 1); sqrt(COV_JITTER) G^T].
    One QR of N, the square-root form, gives L = R^T with L L^T = N^T N: no
    covariance is formed, and a singular law needs no care.  mean + L z with
    z ~ N(0, I_d) draws (a, w) from d = 2J - 1 normals (h + K, if fewer), and
    L's first row is (L00, 0, ...).
    """
    h = histories.shape[1]
    if h < 2:
        raise ValueError("history must contain at least two fits")
    J = probs.shape[-1]
    logit = np.concatenate([-probs[:, 0], probs[:, 1]], axis=1)[:, None, :]
    flip = np.repeat([-1.0, 1.0], J)                # U -> v
    G = np.concatenate([logit @ basis_rows, (T.T * flip) @ basis_rows], axis=1)
    theta_mean = histories.mean(axis=1)
    Gt = G.transpose(0, 2, 1)
    N = np.concatenate([(histories - theta_mean[:, None, :]) @ Gt / np.sqrt(h - 1),
                        np.sqrt(COV_JITTER) * Gt], axis=1)
    return (G @ theta_mean[..., None])[..., 0], np.linalg.qr(N, mode="r").transpose(0, 2, 1)


def _slope(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The logistic slope sigma'(a) = e / (1 + e)^2 at |a|, with e = exp(-|a|):
    one exp, no overflow, and falling in |a|.  Given ``out``, it is computed
    in place: e overwrites ``a`` and the slope is written to ``out``."""
    e = np.abs(a, out=None if out is None else a)
    e = np.exp(np.negative(e, out=e), out=e)
    s = np.square(np.add(1.0, e, out=out), out=out)
    return np.divide(e, s, out=s)


def _spread(w_map: np.ndarray) -> np.ndarray:
    """||W||_2 of each factor block W (R, m, d), from the largest eigenvalue
    of W W^T, which, unlike an SVD, a NaN does not stop."""
    return np.sqrt(np.linalg.eigvalsh(w_map @ w_map.transpose(0, 2, 1))[:, -1])


def _all_or_none(mean: np.ndarray, scale: np.ndarray, spread: np.ndarray, z0: np.ndarray,
                 radius, rank_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows (R,) whose kept test, sigma'(a) |w| > ``rank_tol``, keeps every
    draw, and rows whose test keeps none, of all the draws (a, w) = mean + L z
    whose normals have z0 within the ends ``z0`` (2,) and |z| <= ``radius``;
    ``scale`` is L00 and ``spread`` ||L[1:]||_2 (``_spread``).

    a = mean_a + L00 z0 is monotone in z0, so |a| lies between ``near`` (0
    where the ends straddle 0) and ``far``; |w| lies within
    |mean_w| -+ ||L[1:]||_2 radius; and the slope falls with |a|.  The test
    maps in float32, and ``margin``, CERTIFY_MARGIN times 1 + the logit's
    reach, covers its rounding.  Every draw is kept when sigma'(far) times
    |w|'s lower end clears ``rank_tol``, that end less ``margin`` of
    |mean_w| + ||L[1:]||_2 radius, even where w = mean_w + L[1:] z nearly
    cancels.  None is kept when sigma'(near) times |w|'s upper end falls
    under ``rank_tol`` (1 - ``margin``).  Only rows whose |w| stays under
    2**56 are decided: there, at ``rank_tol`` >= 2**-7 (``MIN_RANK_TOL``),
    the test's float32 squares neither overflow nor, in a row that keeps
    every draw, underflow.  A factor that is not finite gives NaN bounds,
    which decide neither.
    """
    a = mean[:, :1] + scale[:, None] * z0
    lo, hi = a.min(axis=1), a.max(axis=1)
    norm, reach = np.linalg.norm(mean[:, 1:], axis=1), spread * radius
    margin = CERTIFY_MARGIN * (1.0 + np.abs(mean[:, 0]) + np.abs(scale) * np.abs(z0).max())
    low = _slope(np.maximum(-lo, hi)) * (norm - reach - margin * (norm + reach))
    high = _slope(np.maximum(0.0, np.maximum(lo, -hi))) * (norm + reach)
    normal = norm + reach < 2.0 ** 56
    return normal & (low > rank_tol), normal & (high <= rank_tol * (1.0 - margin))


@functools.cache
def _moment_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The entries (j, k) of the moment matrix of z-hat = (z, 1) (d + 1 by
    d + 1) that a row's moments hold, in their order: z_j for j < d, then
    z_j z_k for j <= k < d in row-major order, each a product row of a
    block, then 1, the weights' own sum.  Built once per d and shared
    read-only."""
    j, k = np.triu_indices(d)
    pairs = np.concatenate([np.arange(d), j, [d]]), np.concatenate([np.full(d, d), k, [d]])
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _blocks(master_seed: int, count: int, d: int):
    """The blocks of the seed's (count, d) standard normals
    (``normals_rng(master_seed)``), read in order, at most ``_DRAW_BLOCK``
    rows at a time: for each, its moment products (P, n) float32, the products
    of z-hat = (z, 1) that ``_moment_pairs(d)`` lists but the last, 1, whose
    first d rows are the block's normals as columns, then the ends of its z0
    (2,) and its largest |z|.

    A block is drawn into one float64 buffer and cast into float32 (d, n)
    columns, whose z0 ends and largest |z| are taken there.  In a step of
    more than one block, one helper thread does that for the next block
    while the caller maps this one (the generator's fills and numpy's copies
    release the GIL); a one-block step draws inline.  The stream is read by
    one thread at a time, in order.  The products are built from the columns
    before the next block is drawn into them, and stay valid until the
    caller asks for the next block.  Closing the generator waits for the
    helper's block, if one is drawing, and stops the thread.
    """
    stream = normals_rng(master_seed)
    block = min(count, _DRAW_BLOCK)
    normals, columns = np.empty(d * block), np.empty(d * block, np.float32)
    products = np.empty((len(_moment_pairs(d)[0]) - 1) * block, np.float32)

    def draw(start):
        n = min(_DRAW_BLOCK, count - start)
        z = stream.standard_normal(out=normals[:n * d].reshape(n, d))
        zT = columns[:d * n].reshape(d, n)
        zT[...] = z.T
        # Once cast, the draw's buffer holds the squared norms.
        norms = normals.view(np.float32)[:n]
        radius = np.sqrt(np.einsum("ij,ij->j", zT, zT, out=norms).max())
        return zT, np.array([zT[0].min(), zT[0].max()]), radius

    def products_of(zT):
        n = zT.shape[1]
        out = products[:len(products) // block * n].reshape(-1, n)
        out[:d] = zT
        row = d
        for j in range(d):
            np.multiply(zT[j:], zT[j], out=out[row:row + d - j])
            row += d - j
        return out

    starts = range(0, count, _DRAW_BLOCK)
    if len(starts) == 1:
        zT, ends, radius = draw(0)
        yield products_of(zT), ends, radius
        return
    # Imported here: a one-block step, every step of a desk-scale run, needs
    # no thread and does not pay for the module.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as helper:
        ahead = helper.submit(draw, 0)
        for start in starts:
            zT, ends, radius = ahead.result()
            out = products_of(zT)
            if start + _DRAW_BLOCK < count:
                ahead = helper.submit(draw, start + _DRAW_BLOCK)
            yield out, ends, radius


def _draw_grams(master_seed: int, mean: np.ndarray, L: np.ndarray, count: int,
                rank_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Each row's Gram matrix (R, m, m) of the gradients sigma'(a) w of the
    ``count`` draws (a, w) the seed's (count, d) standard normals
    (``normals_rng(master_seed)``) map to through the row's factor, those
    whose norm exceeds ``rank_tol``, and which rows are quiet (R,): one pass
    over the stream's blocks (``_blocks``).  An empty stack builds no
    generator.

    A draw's tangent gradient is w = W z-hat, with W = [L[1:] | mean_w]
    (m, d + 1) and z-hat = (z, 1), so a row's Gram matrix is W M W^T, where
    M = sum_i k_i s_i^2 z-hat_i z-hat_i^T, s_i the slope and k_i the kept
    flag: the slope reads the row only through mean_a and L00.  Each block
    holds the products of z-hat once for every row (``_moment_pairs``).  The
    rows' logits and slopes are mapped in float32, ``_ROW_GROUP`` rows at a
    time, and each row's squared slopes, its weights, meet the products in one
    float32 matrix-vector product of its own, added into the row's float64
    moments.  The last moment, the weights' sum, is each row's pairwise sum:
    a BLAS sum of weights that barely vary, where the logit barely moves,
    rounds one way, by up to about 128 eps32 over a block.  W M W^T is formed
    in float64 at the end; a row that kept no draw has a zero Gram matrix.

    Each block first bounds every row's sigma'(a) |w| over its own draws
    (``_all_or_none`` over the block's extremes of z0 and |z|).  A row that
    keeps every draw of the block skips the kept test, which would zero no
    weight; a row that keeps none skips the block, whose product would add
    only zeros.  Only a row the bound leaves undecided maps w = W z-hat in
    float32 for its kept test.  Either way its moments have the bytes of the
    tested sum.  A quiet row is one that the bound found keeps none in every
    block.
    """
    R, m, d = len(L), L.shape[1] - 1, L.shape[2]
    grams, quiet = np.zeros((R, m, m)), np.ones(R, dtype=bool)
    if not R:
        return grams, quiet
    # L is a transposed QR factor; the map reads a C-ordered copy, as not
    # every BLAS kernel maps a one-draw block alike in both orders.
    scale, w_map = L[:, 0, 0], np.ascontiguousarray(L[:, 1:])
    spread = _spread(w_map)
    scale32, mean32, w_map32 = (x.astype(np.float32) for x in (scale, mean, w_map))
    pairs = _moment_pairs(d)
    moments = np.zeros((R, len(pairs[0])))
    # A group's logits and slopes.  The logits' buffer, free once the slopes
    # are taken, holds an undecided row's tangent gradients and their
    # squared norms.
    block = min(count, _DRAW_BLOCK)
    logits, slopes = (np.empty(rows * block, np.float32)
                      for rows in (max(_ROW_GROUP, m + 1), _ROW_GROUP))
    with contextlib.closing(_blocks(master_seed, count, d)) as blocks:
        for products, ends, radius in blocks:
            n = products.shape[1]
            every, none = _all_or_none(mean, scale, spread, ends, radius, rank_tol)
            quiet &= none
            drawing = np.flatnonzero(~none)
            for first in range(0, len(drawing), _ROW_GROUP):
                group = drawing[first:first + _ROW_GROUP]
                a = np.multiply(scale32[group, None], products[0],
                                out=logits[:len(group) * n].reshape(-1, n))
                a += mean32[group, :1]
                weights = _slope(a, out=slopes[:len(group) * n].reshape(-1, n))
                np.multiply(weights, weights, out=weights)
                for i, weight in zip(group.tolist(), weights):
                    if not every[i]:
                        w = np.matmul(w_map32[i], products[:d], out=logits[:m * n].reshape(m, n))
                        w += mean32[i, 1:, None]
                        norms = np.einsum("ij,ij->j", w, w, out=logits[m * n:(m + 1) * n])
                        weight[~(np.multiply(weight, norms, out=norms) > rank_tol ** 2)] = 0.0
                    moments[i, :-1] += products @ weight
                moments[group, -1] += weights.sum(axis=1)
    drawn = moments.any(axis=1)
    M = np.zeros((drawn.sum(), d + 1, d + 1))
    M[:, pairs[0], pairs[1]] = M[:, pairs[1], pairs[0]] = moments[drawn]
    W = np.concatenate([L[drawn, 1:], mean[drawn, 1:, None]], axis=2)
    grams[drawn] = W @ M @ W.transpose(0, 2, 1)
    return grams, quiet


def morph_step_directions(pred_grads: np.ndarray, probs: np.ndarray, histories: np.ndarray,
                          basis_rows: np.ndarray, master_seed: int,
                          config: MorphConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One morph step for a stack of runs of ``master_seed``: each row's
    direction (R, 2J), the rank of the sampled span it removes (R,), and
    whether it is quiet (R,): whether the block bound found, in every block
    of the draws, that it keeps none (``_draw_grams``).

    Row k draws ``config.n_gradient_samples`` utility vectors U = (U0, U1)
    around its fit history ``histories[k]`` (h, K), each mapped from a row of
    the seed's (count, d) standard normals (``normals_rng(master_seed)``, read
    from its start); ``basis_rows[k]`` (2J, K) holds the basis values at the
    menu's payoffs and ``probs[k]`` (2, J) its probabilities (p0, p1).  Draw
    i's choice probability has gradient s_i v_i over (p0, p1), with
    v_i = (-U0_i, U1_i), logit a_i = p1 . U1_i - p0 . U0_i and slope
    s_i = sigma(a_i)(1 - sigma(a_i)).  In the coordinates w = T^T v of the
    tangent basis T, the direction is the predictor's gradient T^T g with the
    span of the gradients s_i w_i removed, lifted back by T.  A gradient is
    kept when its norm exceeds ``config.rank_tol``, and the span is read from
    the kept gradients' Gram matrix with the relative cutoff
    ``config.rank_tol``.

    A quiet row's Gram matrix is zero, so its direction is the whole
    tangent gradient T T^T g.

    Everything but the draws is done for the whole stack at once: the
    history means and one QR factor per run (``_step_factors``), the Gram
    eigendecompositions and the projections.  The draws go block by block
    of ``_DRAW_BLOCK`` rows of the normals (``_draw_grams``); each block's
    weighted moments are added into every row's sums, from which its
    (2J - 2) x (2J - 2) Gram matrix is formed, so no count-wide array is
    built.  Every operation acts on one row, elementwise or in a product of
    its own, and a row sums its blocks in stream order, so a row's bytes do
    not depend on the rows stacked with it.
    """
    T = _tangent_basis(probs.shape[-1])
    mean, L = _step_factors(probs, histories, basis_rows, T)
    grams, quiet = _draw_grams(master_seed, mean, L, config.n_gradient_samples,
                               config.rank_tol)
    directions, ranks = _project_off_span((T.T @ pred_grads[..., None])[..., 0], grams,
                                          config.rank_tol)
    return (T @ directions[..., None])[..., 0], ranks, quiet


def morph_lockstep(predictor, config: MorphConfig, basis, Z, P, master_seed,
                   indices) -> list[dict]:
    """Morphing runs ``indices`` of ``master_seed`` from the menus (Z, P)
    with fits on ``basis``, advanced in ``lockstep``; every step maps
    the seed's normals, and a run stops early once its direction vanishes
    (``stop``: ``direction_vanished``).  Its record also holds the rank of
    the sampled span removed by its last projection (``retained_rank``, None
    when it stopped before its first), and the count of its quiet steps,
    those whose every block of draws the block bound proved keeps no draw
    (``certified_steps``).

    Each step's directions come from one ``morph_step_directions`` call over
    the rows ``lockstep`` gives it.  The fit histories live in one
    (R, max_iters + 1, K) array: the seed fit, then one fit per step, so at
    step s every running row holds s + 2 fits.
    """
    R = len(Z)
    history = None
    rank = [None] * R
    certified_steps = np.zeros(R, dtype=int)

    def morph(s, rows, D, y, theta, P, B, f, df):
        nonlocal history
        if s == 0:          # every run's history starts at its seed fit
            history = np.empty((R, config.max_iters + 1, theta.shape[1]))
            history[rows, 0] = _fit_logits(D[:, :1], y[:, :1]).theta
        history[rows, s + 1] = theta
        n = 2 * P.shape[-1]         # a menu's probabilities; ``rows`` may be empty
        directions, ranks, quiet = morph_step_directions(
            df.reshape(-1, n), P, history[rows, :s + 2], B.reshape(-1, n, B.shape[-1]),
            master_seed, config)
        certified_steps[rows] += quiet
        for r, k in zip(rows, ranks.tolist()):
            rank[r] = k
        # The norm of each row as ``np.linalg.norm`` takes it: sqrt(d . d).
        vanished = np.sqrt((directions[:, None, :] @ directions[:, :, None])[:, 0, 0]) \
            < STOP_NORM
        return -config.step_size * directions.reshape(P.shape), ~vanished

    return lockstep(predictor, config, basis, Z, P, morph, "morphing", master_seed, indices,
                    declined="direction_vanished",
                    columns=lambda: {"retained_rank": rank,
                                     "certified_steps": certified_steps.tolist()})


def run_morph_indices(predictor, cfg, indices):
    """Morphing runs ``indices`` of the pipeline config ``cfg``, with fits on
    the default I-spline basis over the theory basis's domain, advanced as
    one stack; their records in the order of ``indices``."""
    Z, P = index_block(cfg, indices, 1)
    return morph_lockstep(predictor, cfg.morph, ISplineBasis(domain=cfg.theory_basis["domain"]),
                          Z[:, 0], P[:, 0], cfg.seed, indices)
