"""The morphing search (example morphing): move menus along directions the
theory cannot see.

At each step the predictor's probability-gradient is projected onto the
(approximate) common null space of sampled theory gradients and the menu is
stepped against that projection.  The theory gradients come from coefficient
vectors drawn around the running history of inner fits; directions they pin
down are removed, directions they leave free carry the morph.  The projected
step is always a descent direction for the predictor and is orthogonal to
every gradient its Gram matrix's kept span holds.

Payoffs stay frozen, so a sampled theory enters only through its 2J
utilities at the menu's payoffs, and a step reads a utility draw only
through its logit and its gradient in the simplex's tangent space: 2J - 1
numbers, drawn directly from 2J - 1 standard normals through one QR factor
of the fit history's deviations (``_step_factors``).  The span of the
gradients is read from their (2J - 2) x (2J - 2) Gram matrix in tangent
coordinates, of the gradients whose norm exceeds ``rank_tol``.

For J = 2 a step takes that Gram matrix in expectation under the step's law
instead of summing draws (``_expected_grams``): given the logit's normal,
the tangent gradient is Gaussian in the other two, so the expectation is a
one-dimensional quadrature of closed-form moments, and a row is quiet, its
Gram matrix zero and its direction the whole predictor gradient, when its
draws would keep fewer than one gradient in expectation.  This replaces
the paper's sampled span by its limit; ``n_gradient_samples`` enters only
through that rule and the quadrature's size (``_rule``).  No normal is
drawn.

For J >= 3 a step samples (``_draw_grams``).  A draw's tangent gradient is
linear in its normals, so a step sums each run's Gram matrix from weighted
moments of the normals, in one pass over fixed blocks of draws: the same
kept draws, the same sum, and no array as wide as the sample count is
built.  One bound over each block's own draws, its extremes of z0 and |z|
(``_all_or_none``), often decides a row's kept test for the whole block:
the row then skips the test, when every draw is kept, or the block, when
none is, with the same bytes.  A row that the bound finds keeps no draw in
any block is a quiet row of its step.

The sampled draws are mapped in float32, and each block's moments are added
into float64 sums: on real runs' steps the Gram matrix's rounding stays
under 2.2e-6 of its largest eigenvalue, three decades under the Monte Carlo
error of 200,000 draws (about 2e-3).  A one-draw Gram matrix, of rank one,
shows a spurious eigenvalue up to about 3.2e-6 of its largest, and the
smallest rank cutoff, ``config.MIN_RANK_TOL`` = 1e-2, keeps the eigenvalue
cutoff ``rank_tol**2`` 1.5 decades above it.

Every sampling step of every run of one master seed maps the same
(count, d) standard normals, the seed's stream (``lotteries.normals_rng``),
through its own factor: common random numbers (Glasserman, *Monte Carlo
Methods in Financial Engineering*, 2003, ch. 4).  A step generates them
once for its whole stack, one block at a time, rather than once per run: a
block of 8,192 costs about as much as mapping it through ten to twenty
rows.  The step draws, bounds and maps each block in turn on the caller's
thread; the process pool of ``--workers`` is the program's only
concurrency.

Runs advance through the adversarial search's loop
(``adversarial.lockstep``), and one call per step,
``morph_step_directions``, gives every running run its direction: the
QR factors, eigendecompositions and projections act on the whole stack.
Each row's Gram matrix is computed on its own, in the expectation's row
chunks or in the sampler's stream order, so every row has the bytes it has
in a stack of one.
"""

from __future__ import annotations

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

# The rule of a J = 2 step's Gram matrix in expectation (``_expected_grams``):
# _Z0_PANELS panels of _Z0_NODES Gauss-Legendre nodes in z0, laid over the
# part of [-_Z0_REACH, _Z0_REACH] (outside it the normal's mass is 1.2e-15)
# where a row's draw can be kept, times _ANGLES equispaced angles of
# (z1, z2).
_Z0_REACH, _Z0_PANELS, _Z0_NODES, _ANGLES = 8.0, 12, 4, 6
# The sample count at which that rule's error, a few parts in a thousand of
# the eigenvalue ratio, matches the draws' Monte Carlo error; larger counts
# refine it (``_rule``).
_RULE_COUNT = 2_000
# Radii are clipped here: e^(-40**2 / 2) is 0 in float64, so no moment moves.
_RHO_MAX = 40.0
# Floors that keep a ratio of the root formulas finite where its divisor
# vanishes (a zero B e, a zero discriminant), past any radius that matters.
_TINY = 1e-300
# Elements of the (lines, rows, z0 nodes) arrays of the rows taken at a
# time, 32 rows of the rule of ``_RULE_COUNT`` draws: the arrays stay in
# cache, neither the stack nor the rule grows them, and the size moves no
# byte.
_EXPECT_SIZE = 4608
# The Mills ratio Q(x) / phi(x) on [0, 40] as P(x) / Q(x), lowest degree
# first: a weighted least-squares fit of the relative error in 50-digit
# arithmetic, within 2.1e-8 of it there, under float32's rounding, which
# the sampler's map carries.  Every coefficient is positive, so Horner's
# rule cancels nothing.
_MILLS_P = (1.253314162970477068, 1.1523449049913481473, 0.50017968600428342426,
            0.11592819172627119378, 0.012483323183430834385)
_MILLS_Q = (1.0, 1.7173241094105870989, 1.2692981198912223854, 0.51260681258561588483,
            0.1159297956408074629, 0.012483305553613855618)


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


def _products(zT: np.ndarray, out: np.ndarray) -> np.ndarray:
    """A block's moment products (P, n) float32, written into ``out``: the
    products of z-hat = (z, 1) that ``_moment_pairs(d)`` lists but the last,
    1, whose first d rows are the block's normals ``zT`` (d, n)."""
    d = len(zT)
    out[:d] = zT
    row = d
    for j in range(d):
        np.multiply(zT[j:], zT[j], out=out[row:row + d - j])
        row += d - j
    return out


def _draw_grams(master_seed: int, mean: np.ndarray, L: np.ndarray, count: int,
                rank_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Each row's Gram matrix (R, m, m) of the gradients sigma'(a) w of the
    ``count`` draws (a, w) the seed's (count, d) standard normals
    (``normals_rng(master_seed)``) map to through the row's factor, those
    whose norm exceeds ``rank_tol``, and which rows are quiet (R,): one pass
    over the stream, at most ``_DRAW_BLOCK`` rows at a time.  An empty stack
    reads no stream.

    A draw's tangent gradient is w = W z-hat, with W = [L[1:] | mean_w]
    (m, d + 1) and z-hat = (z, 1), so a row's Gram matrix is W M W^T, where
    M = sum_i k_i s_i^2 z-hat_i z-hat_i^T, s_i the slope and k_i the kept
    flag: the slope reads the row only through mean_a and L00.  Each block
    is drawn into one float64 buffer and cast into float32 (d, n) columns;
    its products of z-hat are formed from them once for every row
    (``_moment_pairs``), and only when some row draws from it.  The rows'
    logits and slopes are mapped in float32, ``_ROW_GROUP`` rows at a time,
    and each row's squared slopes, its weights, meet the products in one
    float32 matrix-vector product of its own, added into the row's float64
    moments.  The last moment, the weights' sum, is each row's pairwise sum:
    a BLAS sum of weights that barely vary, where the logit barely moves,
    rounds one way, by up to about 128 eps32 over a block.  W M W^T is
    formed in float64 at the end; a row that kept no draw has a zero Gram
    matrix.

    Each block first bounds every row's sigma'(a) |w| over its own draws
    (``_all_or_none`` over the block's extremes of z0 and |z|, taken on the
    columns).  A row that keeps every draw of the block skips the kept test,
    which would zero no weight; a row that keeps none skips the block, whose
    product would add only zeros.  Only a row the bound leaves undecided
    maps w = W z-hat in float32 for its kept test.  Either way its moments
    have the bytes of the tested sum.  A quiet row is one that the bound
    found keeps none in every block.
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
    # A block's draws, columns and products, and a group's logits and
    # slopes.  The logits' buffer, free once the slopes are taken, holds an
    # undecided row's tangent gradients and their squared norms.
    block = min(count, _DRAW_BLOCK)
    normals, columns = np.empty(d * block), np.empty(d * block, np.float32)
    product_buffer = np.empty((len(pairs[0]) - 1) * block, np.float32)
    logits, slopes = (np.empty(rows * block, np.float32)
                      for rows in (max(_ROW_GROUP, m + 1), _ROW_GROUP))
    stream = normals_rng(master_seed)
    for start in range(0, count, _DRAW_BLOCK):
        n = min(_DRAW_BLOCK, count - start)
        z = stream.standard_normal(out=normals[:n * d].reshape(n, d))
        zT = columns[:d * n].reshape(d, n)
        zT[...] = z.T
        # Once cast, the draw's buffer holds the squared norms.
        norms = normals.view(np.float32)[:n]
        radius = np.sqrt(np.einsum("ij,ij->j", zT, zT, out=norms).max())
        every, none = _all_or_none(mean, scale, spread, np.array([zT[0].min(), zT[0].max()]),
                                   radius, rank_tol)
        quiet &= none
        if none.all():
            continue
        products = _products(zT, product_buffer[:len(product_buffer) // block * n].reshape(-1, n))
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


@functools.cache
def _quadrature(panels: int = _Z0_PANELS, nodes: int = _Z0_NODES,
                angles: int = _ANGLES) -> tuple[np.ndarray, ...]:
    """The rule of ``_expected_grams``: its count of panels in z0; the
    Gauss-Legendre nodes and weights (``nodes``,) on [-1, 1], the
    eigenvalues of the Jacobi matrix and twice the squared first entries of
    its eigenvectors (Golub and Welsch, *Math. Comp.* 23, 1969); and the
    cosines and sines (angles / 2,) of the lines through the origin of
    (z1, z2) that carry ``angles`` equispaced rays, two per line.  Built
    once per rule, its arrays shared read-only."""
    k = np.arange(1.0, nodes)
    x, vecs = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    theta = np.pi * (np.arange(angles // 2) + 0.5) / (angles // 2)
    arrays = x, 2.0 * vecs[0] ** 2, np.cos(theta), np.sin(theta)
    for part in arrays:
        part.flags.writeable = False
    return (panels, *arrays)


def _rule(count: int) -> tuple[np.ndarray, ...]:
    """The rule of a step of ``count`` draws: ``_quadrature()`` up to
    ``_RULE_COUNT`` draws, past that with panels and angles scaled by
    (count / _RULE_COUNT)^(1/4).  The rule's error falls as the square of
    its spacing, and the Monte Carlo error of the draws it replaces as
    count^(-1/2), so the rule stays as accurate as the sample."""
    scale = max(1.0, (count / _RULE_COUNT) ** 0.25)
    return _quadrature(round(_Z0_PANELS * scale), _Z0_NODES, 2 * round(_ANGLES / 2 * scale))


def _horner(coefficients: tuple[float, ...], x: np.ndarray) -> np.ndarray:
    """The polynomial with ``coefficients`` (lowest degree first) at x."""
    out = x * coefficients[-1]
    for c in coefficients[-2:0:-1]:
        out += c
        out *= x
    out += coefficients[0]
    return out


def _mills(x: np.ndarray) -> np.ndarray:
    """The standard normal's Mills ratio Q(x) / phi(x) for 0 <= x <= 40,
    ``_MILLS_P(x) / _MILLS_Q(x)``: the erfc of the J = 2 route, as
    erfc(x) = 2 Q(sqrt(2) x) = 2 phi(sqrt(2) x) mills(sqrt(2) x).  A tail's
    mass is taken from its own end, phi(x) times the ratio, so no mass is a
    difference of values near 1."""
    p = _horner(_MILLS_P, x)
    return np.divide(p, _horner(_MILLS_Q, x), out=p)


def _tails(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The radial tail moments, from ``rho`` (>= 0) out, of the standard
    normal on the plane, int_rho^inf r^k r e^(-r^2 / 2) dr for k = 0, 1, 2,
    in closed form: e^(-rho^2 / 2) times 1, rho + Q(rho) / phi(rho)
    (``_mills``) and rho^2 + 2.  The 1st is written over ``rho``."""
    square = np.square(rho)
    e = np.multiply(square, -0.5)
    np.exp(e, out=e)
    first = np.add(rho, _mills(rho), out=rho)
    first *= e
    square += 2.0
    square *= e
    return e, first, square


def _centre(mean: np.ndarray, L: np.ndarray, rank_tol: float,
            z0: np.ndarray) -> tuple[np.ndarray, ...]:
    """At each row's z0 (r, N): the squared slope s(a)^2, C = |c|^2 - r^2
    for the draws' centre c = mean_w + L[1:, 0] z0 and r = ``rank_tol`` /
    s(a), so that the draw at u = 0 is kept where C > 0, and c's two
    entries.  r is taken at a slope floored at 1e-100, past which no draw
    is kept."""
    s2 = np.square(_slope(mean[:, :1] + L[:, 0, :1] * z0))
    cx, cy = (mean[:, i:i + 1] + L[:, i, :1] * z0 for i in (1, 2))
    return s2, cx * cx + cy * cy - rank_tol ** 2 / np.maximum(s2, 1e-200), cx, cy


def _window(mean: np.ndarray, L: np.ndarray, rank_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Each row's ends (R,) of the part of [-_Z0_REACH, _Z0_REACH] where a
    draw can be kept.  A kept draw has e^-|a| >= s(a) > rank_tol / |w|, and
    |w| is at most |mean_w| + |L[1:, 0]| _Z0_REACH + ||B||_F _RHO_MAX, so |a|
    is under the log of that bound over ``rank_tol``: z0 is within
    (+-reach - mean_a) / L00."""
    bound = np.sqrt(np.square(mean[:, 1:]).sum(axis=1))
    bound += _Z0_REACH * np.sqrt(np.square(L[:, 1:, 0]).sum(axis=1))
    bound += _RHO_MAX * np.sqrt(np.square(L[:, 1:, 1:]).sum(axis=(1, 2)))
    reach = np.log(np.maximum(bound / rank_tol, 1.0))
    scale = np.where(np.abs(L[:, 0, 0]) > 1e-200, L[:, 0, 0], 1e-200)
    ends = (np.stack([-reach, reach]) - mean[:, 0]) / scale
    lo = np.minimum(np.maximum(np.minimum(ends[0], ends[1]), -_Z0_REACH), _Z0_REACH)
    return lo, np.minimum(np.maximum(np.maximum(ends[0], ends[1]), lo), _Z0_REACH)


def _z0_nodes(mean: np.ndarray, L: np.ndarray, lo: np.ndarray, hi: np.ndarray,
              rank_tol: float, rule: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Each row's nodes in z0 and their weights times the standard normal
    density (r, N): ``rule``'s panels laid evenly over the row's window
    [``lo``, ``hi``] (``_window``), then the panel edge nearest each z0
    where the kept test turns at u = 0 (C changes sign, ``_centre``) moved
    onto it.  Where B is small that turn is a step in z0, which no panel
    then holds.  The turns are looked for between the ends of the panels'
    halves, and placed by two secant steps."""
    panels, x, w = rule[:3]
    half = (hi - lo)[:, None] / (2 * panels)
    grid = lo[:, None] + half * np.arange(2 * panels + 1)
    C = _centre(mean, L, rank_tol, grid)[1]
    turn = np.nonzero((C[:, 1:] > 0.0) != (C[:, :-1] > 0.0))
    # A turn between grid points j and j + 1 is placed by a secant step and
    # a second one from there to the end of the other sign, and moves edge
    # (j + 1) // 2, an inner one, which stays between its neighbours.
    rows, left, f_left, f_right = turn[0], grid[:, :-1][turn], C[:, :-1][turn], C[:, 1:][turn]
    root = left + half[rows, 0] * f_left / (f_left - f_right)
    f_root = _centre(mean[rows], L[rows], rank_tol, root[:, None])[1][:, 0]
    same = (f_root > 0.0) == (f_left > 0.0)
    end, f_end = np.where(same, left + half[rows, 0], left), np.where(same, f_right, f_left)
    cuts = grid[:, ::2].copy()
    cuts[rows, np.clip((turn[1] + 1) // 2, 1, panels - 1)] = \
        root + f_root * (end - root) / (f_root - f_end)
    start, width = cuts[:, :-1, None], np.diff(cuts, axis=1)[:, :, None]
    z0 = (start + width * (x + 1.0) / 2.0).reshape(len(L), -1)
    weights = (width * w / 2.0).reshape(len(L), -1) * np.exp(-z0 * z0 / 2.0)
    return z0, weights / np.sqrt(2.0 * np.pi)


def _expected_chunk(mean: np.ndarray, L: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                    rank_tol: float,
                    rule: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
    """``_expected_grams`` of a chunk of rows: their Gram matrices (r, 2, 2)
    and kept probabilities (r,), each row computed on its own.

    Arrays run over (row, z0 node) and over (line, row, z0 node).  On the
    line through the origin of u = (z1, z2) along e, w = c + rho B e, with
    c = mean_w + L[1:, 0] z0 and B = L[1:, 1:], lower triangular, and the
    draw is dropped where |w|^2 <= r^2, r = ``rank_tol`` / s(a):
    A rho^2 + 2 beta rho + C <= 0, with A = |Be|^2, beta = c . Be and
    C = |c|^2 - r^2.  Its roots come from p = |beta| + sqrt(beta^2 - A C),
    as p / A and t = C / p, so no root is a difference: on the ray that runs
    toward w = 0 (along which beta is -|beta|) the dropped radii are
    [t, p / A], on the other [0, -t], each clipped to [0, ``_RHO_MAX``], and
    a negative discriminant leaves both empty.  So the kept radii are
    [0, t] and [p / A, inf) on the first ray and [-t, inf) on the other, one
    of t and -t being clipped to 0: their moments are tails (``_tails``)
    at p / A and |t|, and no moment is a difference of two masses near 1.
    Even moments add over a line's two rays; the odd one is taken along e,
    the ray along which beta is positive counting against it.
    """
    cos, sin = rule[3:]
    z0, weights = _z0_nodes(mean, L, lo, hi, rank_tol, rule)
    s2, C, cx, cy = _centre(mean, L, rank_tol, z0)
    # Per line and row: Be, its square floored where B e vanishes.
    bx = (cos[:, None] * L[:, 1, 1])[..., None]
    by = (cos[:, None] * L[:, 2, 1] + sin[:, None] * L[:, 2, 2])[..., None]
    A = np.maximum(bx * bx + by * by, _TINY)
    # Per line, row and z0 node: the roots.
    beta = bx * cx
    beta += by * cy
    p = beta * beta
    p -= A * C
    p = np.sqrt(np.maximum(p, 0.0, out=p), out=p)
    p += np.abs(beta)
    t = np.divide(C, np.maximum(p, _TINY, out=p))
    ends = np.empty((2,) + beta.shape)
    np.minimum(np.maximum(np.divide(p, A, out=p), t, out=ends[0]), _RHO_MAX, out=ends[0])
    np.minimum(np.abs(t, out=ends[1]), _RHO_MAX, out=ends[1])
    (e, e_t), (first, first_t), (second, second_t) = _tails(ends)
    # The two rays' kept moments.  With sign = +1 where t >= 0, the 0th is
    # e + 2 - e_t there and e + e_t elsewhere, the 2nd likewise with
    # second + 4 - second_t; the 1st along e is taken along beta here.
    sign = np.copysign(1.0, t, out=t)
    both = np.add(sign, 1.0, out=p)
    zeroth = np.add(e, both, out=e)
    zeroth -= np.multiply(sign, e_t, out=e_t)
    even = np.add(second, np.add(both, both, out=both), out=second)
    even -= np.multiply(sign, second_t, out=second_t)
    odd = np.subtract(first, first_t, out=first)
    odd *= np.copysign(1.0, beta, out=beta)
    # Their sums over the lines, the 1st and 2nd weighted by e and e e^T.
    sums = []
    for moment, weight in ((zeroth, None), (odd, cos), (odd, sin), (even, cos * cos),
                           (even, cos * sin), (even, sin * sin)):
        if weight is not None:
            moment = np.multiply(moment, weight[:, None, None], out=p)
        total = moment[0].copy()
        for line in range(1, len(cos)):
            total += moment[line]
        sums.append(total)
    kept, k1x, k1y, kxx, kxy, kyy = sums
    # Per row and z0 node: the 1st moment's B kappa (negated, as it was
    # taken along beta) and the 2nd's B K B^T, then the integral over z0
    # and the mean over the angles.
    B11, B21, B22 = L[:, 1, 1:2], L[:, 2, 1:2], L[:, 2, 2:3]
    g1, g2 = -B11 * k1x, -(B21 * k1x + B22 * k1y)
    h21, h22 = B21 * kxx + B22 * kxy, B21 * kxy + B22 * kyy
    H11, H12, H22 = B11 * B11 * kxx, B11 * h21, B21 * h21 + B22 * h22
    v = weights * s2
    grams = np.empty((len(L), 2, 2))
    grams[:, 0, 0] = (v * (cx * cx * kept + 2.0 * cx * g1 + H11)).sum(axis=1)
    grams[:, 0, 1] = (v * (cx * cy * kept + cx * g2 + cy * g1 + H12)).sum(axis=1)
    grams[:, 1, 1] = (v * (cy * cy * kept + 2.0 * cy * g2 + H22)).sum(axis=1)
    grams /= 2 * len(cos)
    grams[:, 1, 0] = grams[:, 0, 1]
    return grams, (weights * kept).sum(axis=1) / (2 * len(cos))


def _expected_grams(mean: np.ndarray, L: np.ndarray, count: int, rank_tol: float,
                    rule: tuple[np.ndarray, ...] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Each J = 2 row's Gram matrix (R, 2, 2) in expectation,
    E[s(a)^2 w w^T 1{s(a) |w| > rank_tol}] under its step's law
    (a, w) = mean + L z, and which rows are quiet (R,): those whose
    ``count`` draws would keep fewer than one in expectation,
    count P(kept) < 1.  A quiet row's Gram matrix is zero.  ``rule``, by
    default ``_rule(count)``, is a ``_quadrature``.

    a = mean_a + L00 z0, and given z0, w is Gaussian in u = (z1, z2): the
    expectation is an integral over z0, by composite Gauss-Legendre on
    panels fitted to each row (``_z0_nodes``) over the z0 where a draw can
    be kept (``_window``; a row with none keeps nothing), of a periodic
    integral over the angle of u, by the trapezoid rule (Trefethen and
    Weideman, *SIAM Review* 56(3), 2014), of closed-form radial moments over
    the radii the kept test keeps (``_expected_chunk``): conditional Monte
    Carlo taken to its limit (Glasserman 2003, ch. 4).  The rows go a few at
    a time (``_EXPECT_SIZE``), so no array grows with the stack, and every
    operation acts on one row, so a row has the bytes it has in a stack of
    one.
    """
    rule, (lo, hi) = rule or _rule(count), _window(mean, L, rank_tol)
    grams, kept = np.zeros((len(L), 2, 2)), np.zeros(len(L))
    live = np.flatnonzero(~(hi <= lo))
    panels, nodes, _, lines, _ = rule
    chunk = max(1, _EXPECT_SIZE // (panels * len(nodes) * len(lines)))
    for first in range(0, len(live), chunk):
        rows = live[first:first + chunk]
        grams[rows], kept[rows] = _expected_chunk(mean[rows], L[rows], lo[rows], hi[rows],
                                                  rank_tol, rule)
    quiet = count * kept < 1.0
    grams[quiet] = 0.0
    return grams, quiet


def morph_step_directions(pred_grads: np.ndarray, probs: np.ndarray, histories: np.ndarray,
                          basis_rows: np.ndarray, master_seed: int,
                          config: MorphConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One morph step for a stack of runs of ``master_seed``: each row's
    direction (R, 2J), the rank of the span it removes (R,), and whether it
    is quiet (R,), its Gram matrix zero.

    Row k's theory draws ``config.n_gradient_samples`` utility vectors
    U = (U0, U1) around its fit history ``histories[k]`` (h, K);
    ``basis_rows[k]`` (2J, K) holds the basis values at the menu's payoffs
    and ``probs[k]`` (2, J) its probabilities (p0, p1).  Draw i's choice
    probability has gradient s_i v_i over (p0, p1), with v_i = (-U0_i, U1_i),
    logit a_i = p1 . U1_i - p0 . U0_i and slope
    s_i = sigma(a_i)(1 - sigma(a_i)).  In the coordinates w = T^T v of the
    tangent basis T, the direction is the predictor's gradient T^T g with the
    span of the gradients s_i w_i removed, lifted back by T.  A gradient is
    kept when its norm exceeds ``config.rank_tol``, and the span is read from
    the kept gradients' Gram matrix with the relative cutoff
    ``config.rank_tol``.

    For J = 2 that Gram matrix is the expectation of one draw's
    (``_expected_grams``), and a row is quiet when its draws would keep
    fewer than one gradient in expectation; ``master_seed`` is not read.
    For J >= 3 it is summed over the draws, each mapped from a row of the
    seed's (count, d) standard normals (``normals_rng(master_seed)``, read
    from its start, ``_draw_grams``), and a row is quiet when the block
    bound found, in every block, that it keeps none.  A quiet row's
    direction is the whole tangent gradient T T^T g.

    The history means and one QR factor per run (``_step_factors``), the
    Gram eigendecompositions and the projections are done for the whole
    stack at once, and no count-wide array is built.  Every operation acts
    on one row, elementwise or in a product of its own, so a row's bytes do
    not depend on the rows stacked with it.
    """
    T = _tangent_basis(probs.shape[-1])
    mean, L = _step_factors(probs, histories, basis_rows, T)
    if probs.shape[-1] == 2:
        grams, quiet = _expected_grams(mean, L, config.n_gradient_samples, config.rank_tol)
    else:
        grams, quiet = _draw_grams(master_seed, mean, L, config.n_gradient_samples,
                                   config.rank_tol)
    directions, ranks = _project_off_span((T.T @ pred_grads[..., None])[..., 0], grams,
                                          config.rank_tol)
    return (T @ directions[..., None])[..., 0], ranks, quiet


def morph_lockstep(predictor, config: MorphConfig, basis, Z, P, master_seed,
                   indices) -> list[dict]:
    """Morphing runs ``indices`` of ``master_seed`` from the menus (Z, P)
    with fits on ``basis``, advanced in ``lockstep``; a run stops early
    once its direction vanishes (``stop``: ``direction_vanished``).  Its
    record also holds the rank of the span removed by its last projection
    (``retained_rank``, None when it stopped before its first), and the
    count of its quiet steps (``certified_steps``): for J = 2 those whose
    draws would keep fewer than one gradient in expectation, for J >= 3
    those whose every block of the seed's normals the block bound proved
    keeps no draw (``morph_step_directions``).

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
