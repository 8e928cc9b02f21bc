"""The morphing search (example morphing): move menus along directions the
theory cannot see.

At each step the predictor's probability-gradient is projected onto the
(approximate) common null space of sampled theory gradients and the menu is
stepped against that projection.  The theory gradients come from coefficient
vectors drawn around the run's inner fits, one per step; directions they pin
down are removed, directions they leave free carry the morph.  The projected
step is always a descent direction for the predictor and is orthogonal to
every gradient its Gram matrix's kept span holds.

Payoffs stay frozen, so a sampled theory enters only through its 2J
utilities at the menu's payoffs, and a step reads a utility draw only
through its logit and its gradient in the simplex's tangent space: 2J - 1
numbers, a linear map of 2J - 1 standard normals through one QR factor of
the fit history's deviations (``_step_factors``).  The span of the
gradients is read from their m x m Gram matrix in tangent coordinates,
m = 2J - 2, of the gradients whose norm exceeds ``rank_tol``.

A step takes that Gram matrix in expectation under the step's law instead
of summing draws (``_expected_grams``): given the logit's normal, the
tangent gradient is Gaussian in the other m, so the expectation is a
one-dimensional quadrature of closed-form moments over lines through the
origin, and a row is quiet, its Gram matrix zero and its direction the
whole predictor gradient, when its draws would keep fewer than one gradient
in expectation.  This replaces the paper's sampled span by its limit;
``n_gradient_samples`` enters only through that rule and the quadrature's
size (``_rule``).  No normal is drawn, at any J.

Runs advance through the adversarial search's loop
(``adversarial.lockstep``), and one call per step,
``morph_step_directions``, gives every running run its direction: the
QR factors, eigendecompositions and projections act on the whole stack.
Each row's Gram matrix is computed on its own, in the expectation's row
chunks, so every row has the bytes it has in a stack of one.
"""

from __future__ import annotations

import functools

import numpy as np

from .adversarial import lockstep
from .basis import ISplineBasis
from .config import MorphConfig
from .lotteries import index_block

STOP_NORM = 1e-8
# Variance added to each coefficient of the sampled law, theta ~ N(mean,
# cov + COV_JITTER I): a history's fits may not vary along every coefficient
# (a one-fit history along none), and ``MorphConfig.rank_tol`` is calibrated
# against the spread it adds.
COV_JITTER = 1e-8

# The rule of a step's Gram matrix in expectation (``_expected_grams``):
# panels of _Z0_NODES Gauss-Legendre nodes in z0, laid over the part of
# [-_Z0_REACH, _Z0_REACH] (outside it the normal's mass is 1.2e-15) where a
# row's draw can be kept, times lines through the origin of the other m
# normals.  At _RULE_COUNT draws, m = 2 takes 12 panels and _LINES
# equispaced lines (6 angles), and m = 4 takes 6 panels and the tesseract's
# 8 lines (``_TESSERACT``); past it, m = 4 takes the 24-cell's 12
# (``_CELL24``).
_Z0_REACH, _Z0_NODES, _LINES = 8.0, 4, 3
_Z0_PANELS = {2: 12, 4: 6}
# The tesseract's vertices (+-1, +-1, +-1, +-1) / 2, one per antipodal
# pair, as columns: a spherical 3-design on S^3 (Delsarte, Goethals and
# Seidel, *Geom. Dedicata* 6, 1977), whose mean of e e^T is I / 4 and whose
# odd moments vanish by antipodal symmetry.
_TESSERACT = np.concatenate([np.ones((1, 8)),
                             1.0 - 2.0 * (np.arange(8) >> np.arange(3)[:, None] & 1)]) / 2.0
# The 24-cell's vertices, one per antipodal pair: the 4 axes, the
# permutations of (+-1, 0, 0, 0), and the tesseract's 8 lines, a spherical
# 5-design.
_CELL24 = np.concatenate([np.eye(4), _TESSERACT], axis=1)
# The sample count at which a rule's error, a few parts in a thousand of
# the eigenvalue ratio, matches the draws' Monte Carlo error; larger counts
# refine it (``_rule``).
_RULE_COUNT = 2_000
# Radii are clipped here: e^(-40**2 / 2) is 0 in float64, so no moment moves.
_RHO_MAX = 40.0
# Floors that keep a ratio of the root formulas finite where its divisor
# vanishes (a zero B e, a zero discriminant), past any radius that matters.
_TINY = 1e-300
# Elements of the (lines, rows, z0 nodes) arrays of the rows taken at a
# time, 64 rows of the m = 2 rule of ``_RULE_COUNT`` draws and 48 of the
# m = 4 one: the arrays stay in cache, neither the stack nor the rule grows
# them, and the size moves no byte.  On captured 200,000-draw steps, 4,608
# took 3-12% more CPU for J = 2 and 1-5% more for J = 3; 18,432 took 5-9%
# less, but won only 8 of 10 alternating pairs at J = 3 in one of two runs,
# and saved nothing on J = 3's 2,000-draw steps.
_EXPECT_SIZE = 9216
# The Mills ratio Q(x) / phi(x) on [0, 40] as P(x) / Q(x), lowest degree
# first: a weighted least-squares fit of the relative error in 50-digit
# arithmetic, within 2.1e-8 of it there, five decades under the rule's
# error.  Every coefficient is positive, so Horner's rule cancels nothing.
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
    ``histories[k]``, h >= 1 fits of K coefficients with deviations X from
    their mean.  (a, w) = G theta for G = [a_map; T^T v_map] @ basis_rows, so
    its covariance is N^T N for N = [X G^T / sqrt(max(h - 1, 1));
    sqrt(COV_JITTER) G^T], the jitter's alone for one fit.  One QR of N, the
    square-root form, gives L = R^T with L L^T = N^T N: no covariance is
    formed, and a singular law needs no care.  mean + L z with z ~ N(0, I_d)
    draws (a, w) from d = 2J - 1 normals (h + K, if fewer), and L's first
    row is (L00, 0, ...).
    """
    h = histories.shape[1]
    if h < 1:
        raise ValueError("history must contain at least one fit")
    J = probs.shape[-1]
    logit = np.concatenate([-probs[:, 0], probs[:, 1]], axis=1)[:, None, :]
    flip = np.repeat([-1.0, 1.0], J)                # U -> v
    G = np.concatenate([logit @ basis_rows, (T.T * flip) @ basis_rows], axis=1)
    theta_mean = histories.mean(axis=1)
    Gt = G.transpose(0, 2, 1)
    N = np.concatenate([(histories - theta_mean[:, None, :]) @ Gt / np.sqrt(max(h - 1, 1)),
                        np.sqrt(COV_JITTER) * Gt], axis=1)
    return (G @ theta_mean[..., None])[..., 0], np.linalg.qr(N, mode="r").transpose(0, 2, 1)


def _slope(a: np.ndarray) -> np.ndarray:
    """The logistic slope sigma'(a) = e / (1 + e)^2 at |a|, with e = exp(-|a|):
    one exp, no overflow, and falling in |a|."""
    e = np.abs(a)
    e = np.exp(np.negative(e, out=e), out=e)
    s = np.square(np.add(1.0, e))
    return np.divide(e, s, out=s)


def _quadrature(panels: int, nodes: int, lines: np.ndarray) -> tuple[np.ndarray, ...]:
    """A rule of ``_expected_grams``: its count of panels in z0; the
    Gauss-Legendre nodes and weights (``nodes``,) on [-1, 1], the
    eigenvalues of the Jacobi matrix and twice the squared first entries of
    its eigenvectors (Golub and Welsch, *Math. Comp.* 23, 1969); and its
    ``lines`` (m, n), unit vectors of the lines through the origin of the
    other m normals, two rays each, every ray of equal weight.  Its arrays
    are read-only."""
    k = np.arange(1.0, nodes)
    x, vecs = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    arrays = x, 2.0 * vecs[0] ** 2, np.array(lines, dtype=float)
    for part in arrays:
        part.flags.writeable = False
    return (panels, *arrays)


def _circle(lines: int) -> np.ndarray:
    """(2, ``lines``): the cosines and sines of ``lines`` lines through the
    origin of the plane that carry 2 ``lines`` equispaced rays."""
    theta = np.pi * (np.arange(lines) + 0.5) / lines
    return np.stack([np.cos(theta), np.sin(theta)])


@functools.cache
def _rule(m: int, count: int) -> tuple[np.ndarray, ...]:
    """The rule of a step of ``count`` draws of m tangent coordinates, built
    once and shared: ``_Z0_PANELS[m]`` panels in z0 up to ``_RULE_COUNT``
    draws, past that scaled by (count / _RULE_COUNT)^(1/4).  For m = 2 the
    _LINES equispaced lines (``_circle``) scale alike: the rule's error falls
    as the square of its spacing, and the Monte Carlo error of the draws it
    replaces as count^(-1/2), so the rule stays as accurate as the sample.
    For m = 4 the lines are the tesseract's 8 (``_TESSERACT``) up to
    ``_RULE_COUNT`` draws and the 24-cell's 12 (``_CELL24``) past it, at
    every larger count: there only the z0 panels refine, and the error of
    the integral over the direction no longer falls with the count."""
    scale = max(1.0, (count / _RULE_COUNT) ** 0.25)
    if m == 2:
        lines = _circle(round(_LINES * scale))
    else:
        lines = _TESSERACT if count <= _RULE_COUNT else _CELL24
    return _quadrature(round(_Z0_PANELS[m] * scale), _Z0_NODES, lines)


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


def _tails(rho: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The radial tail moments, from ``rho`` (>= 0) out, of the standard
    normal on R^m, m = 2 or 4: T_k = I_(k+m-1)(rho) / I_(m-1)(0) for
    k = 0, 1, 2, where I_n(x) = int_x^inf r^n e^(-r^2 / 2) dr, in closed form
    from I_n = x^(n-1) e + (n - 1) I_(n-2), I_1 = e and I_0 = e Q(x) / phi(x)
    (``_mills``), e = e^(-x^2 / 2).  For m = 2 they are e times 1,
    rho + mills(rho) and rho^2 + 2; for m = 4, e / 2 times rho^2 + 2,
    rho^3 + 3 rho + 3 mills(rho) and rho^4 + 4 rho^2 + 8.  At 0 they are 1,
    sqrt(pi / 2) (1.5 sqrt(pi / 2) for m = 4) and m."""
    square = np.square(rho)
    e = np.multiply(square, -0.5)
    np.exp(e, out=e)
    first = _mills(rho)
    first += rho
    if m == 2:
        zeroth = e
        square += 2.0
    else:
        first *= 3.0
        first += rho * square
        e *= 0.5
        zeroth = np.add(square, 2.0)
        square *= square
        square += 4.0 * zeroth
        zeroth *= e
    first *= e
    square *= e
    return zeroth, first, square


def _dot(a: list, b: list) -> np.ndarray:
    """sum_k a[k] b[k] over the k that ``a`` holds, one product and one sum at
    a time in order of k."""
    total = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        total = total + x * y
    return total


def _centre(mean: np.ndarray, L: np.ndarray, rank_tol: float,
            z0: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """At each row's z0 (r, N): the squared slope s(a)^2, C = |c|^2 - r^2
    for the draws' centre c = mean_w + L[1:, 0] z0 and r = ``rank_tol`` /
    s(a), so that the draw at u = 0 is kept where C > 0, and c's m
    entries.  r is taken at a slope floored at 1e-100, past which no draw
    is kept."""
    s2 = np.square(_slope(mean[:, :1] + L[:, 0, :1] * z0))
    c = [mean[:, i:i + 1] + L[:, i, :1] * z0 for i in range(1, mean.shape[1])]
    C = _dot(c, c)
    C -= rank_tol ** 2 / np.maximum(s2, 1e-200)
    return s2, C, c


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
    """``_expected_grams`` of a chunk of rows: their Gram matrices (r, m, m)
    and kept probabilities (r,), each row computed on its own.

    Arrays run over (row, z0 node) and over (line, row, z0 node).  On the
    line through the origin of u = (z1, ..., zm) along e, w = c + rho B e,
    with c = mean_w + L[1:, 0] z0 and B = L[1:, 1:], lower triangular, and
    the draw is dropped where |w|^2 <= r^2, r = ``rank_tol`` / s(a):
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
    the ray along which beta is positive counting against it.  So a line
    adds c c^T 0th + (c (Be)^T + Be c^T) 1st + Be (Be)^T 2nd, and with the
    sums over the lines kept = sum 0th and g = sum 1st Be, the Gram matrix
    is c c^T kept + c g^T + g c^T + sum 2nd Be (Be)^T, integrated over z0
    and averaged over the rays.
    """
    lines = rule[3]
    m = len(lines)
    z0, weights = _z0_nodes(mean, L, lo, hi, rank_tol, rule)
    s2, C, c = _centre(mean, L, rank_tol, z0)
    # Per line and row: Be, its square floored where B e vanishes.
    Be = [_dot([L[:, i + 1, j + 1] for j in range(i + 1)], [line[:, None] for line in lines])
          [..., None] for i in range(m)]
    A = np.maximum(_dot(Be, Be), _TINY)
    # Per line, row and z0 node: the roots.
    beta = _dot(Be, c)
    p = beta * beta
    p -= A * C
    p = np.sqrt(np.maximum(p, 0.0, out=p), out=p)
    p += np.abs(beta)
    t = np.divide(C, np.maximum(p, _TINY, out=p))
    ends = np.empty((2,) + beta.shape)
    np.minimum(np.maximum(np.divide(p, A, out=p), t, out=ends[0]), _RHO_MAX, out=ends[0])
    np.minimum(np.abs(t, out=ends[1]), _RHO_MAX, out=ends[1])
    (e, e_t), (first, first_t), (second, second_t) = _tails(ends, m)
    # The two rays' kept moments.  With sign = +1 where t >= 0, the 0th is
    # e + 2 - e_t there and e + e_t elsewhere, the 2nd likewise with
    # second + 2 m - second_t (m is the 2nd's whole mass); the 1st along e
    # is taken along beta here.
    sign = np.copysign(1.0, t, out=t)
    both = np.add(sign, 1.0, out=p)
    zeroth = np.add(e, both, out=e)
    zeroth -= np.multiply(sign, e_t, out=e_t)
    even = np.add(second, np.multiply(both, m, out=both), out=second)
    even -= np.multiply(sign, second_t, out=second_t)
    odd = np.subtract(first, first_t, out=first)
    odd *= np.copysign(1.0, beta, out=beta)
    # Per row and z0 node, each a sum over the lines in order: the kept
    # mass, g = -sum odd Be (negated, as the 1st moment was taken along
    # beta) and each entry's sum even Be_i Be_j; then the integral over z0
    # and the mean over the rays.
    kept = zeroth.sum(axis=0)
    g = [-np.multiply(odd, Be[i], out=p).sum(axis=0) for i in range(m)]
    v = weights * s2
    grams = np.empty((len(L), m, m))
    for i in range(m):
        for j in range(i, m):
            entry = c[i] * c[j] * kept + c[i] * g[j] + c[j] * g[i]
            entry += np.multiply(even, Be[i] * Be[j], out=p).sum(axis=0)
            grams[:, i, j] = grams[:, j, i] = (v * entry).sum(axis=1)
    grams /= 2 * lines.shape[1]
    return grams, (weights * kept).sum(axis=1) / (2 * lines.shape[1])


def _expected_grams(mean: np.ndarray, L: np.ndarray, count: int, rank_tol: float,
                    rule: tuple[np.ndarray, ...] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Each row's Gram matrix (R, m, m) in expectation,
    E[s(a)^2 w w^T 1{s(a) |w| > rank_tol}] under its step's law
    (a, w) = mean + L z, and its kept probability P(kept) (R,).  A row is
    quiet when its ``count`` draws would keep fewer than one in
    expectation, count P(kept) < 1, and a quiet row's Gram matrix is zero.
    ``rule``, by default ``_rule(m, count)``, is a ``_quadrature``.

    a = mean_a + L00 z0, and given z0, w is Gaussian in u = (z1, ..., zm):
    the expectation is an integral over z0, by composite Gauss-Legendre on
    panels fitted to each row (``_z0_nodes``) over the z0 where a draw can
    be kept (``_window``; a row with none keeps nothing), of an integral
    over the direction of u, on the rule's lines through the origin, of
    closed-form radial moments over the radii the kept test keeps
    (``_expected_chunk``): conditional Monte Carlo taken to its limit
    (Glasserman, *Monte Carlo Methods in Financial Engineering*, 2003,
    ch. 4).  For m = 2 the lines are equispaced angles, the trapezoid rule
    of a periodic integral (Trefethen and Weideman, *SIAM Review* 56(3),
    2014); for m = 4 they are a spherical design (``_rule``).  The rows
    go a few at a time (``_EXPECT_SIZE``), so no array grows with the stack,
    and every operation acts on one row, so a row has the bytes it has in a
    stack of one.
    """
    # The factors are read in the layout ``_step_factors`` returns, each
    # row's L stored column by column: a sum's order follows the layout, so
    # another layout of the same values would move bytes.
    mean = np.ascontiguousarray(mean)
    L = np.ascontiguousarray(L.transpose(0, 2, 1)).transpose(0, 2, 1)
    m = L.shape[1] - 1
    rule, (lo, hi) = rule or _rule(m, count), _window(mean, L, rank_tol)
    grams, kept = np.zeros((len(L), m, m)), np.zeros(len(L))
    live = np.flatnonzero(~(hi <= lo))
    panels, nodes, _, lines = rule
    chunk = max(1, _EXPECT_SIZE // (panels * len(nodes) * lines.shape[1]))
    for first in range(0, len(live), chunk):
        rows = live[first:first + chunk]
        grams[rows], kept[rows] = _expected_chunk(mean[rows], L[rows], lo[rows], hi[rows],
                                                  rank_tol, rule)
    grams[count * kept < 1.0] = 0.0
    return grams, kept


def morph_step_directions(pred_grads: np.ndarray, probs: np.ndarray, histories: np.ndarray,
                          basis_rows: np.ndarray,
                          config: MorphConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One morph step for a stack of runs: each row's direction (R, 2J), the
    rank of the span it removes (R,), and whether it is quiet (R,), its Gram
    matrix zero.

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

    That Gram matrix is the expectation of one draw's
    (``_expected_grams``), and a row is quiet when its draws would keep
    fewer than one gradient in expectation.  A quiet row's direction is the
    whole tangent gradient T T^T g.

    The history means and one QR factor per run (``_step_factors``), the
    Gram eigendecompositions and the projections are done for the whole
    stack at once, and no count-wide array is built.  Every operation acts
    on one row, elementwise or in a product of its own, so a row's bytes do
    not depend on the rows stacked with it.
    """
    T = _tangent_basis(probs.shape[-1])
    mean, L = _step_factors(probs, histories, basis_rows, T)
    grams, kept = _expected_grams(mean, L, config.n_gradient_samples, config.rank_tol)
    quiet = config.n_gradient_samples * kept < 1.0
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
    count of its quiet steps (``certified_steps``), those whose draws would
    keep fewer than one gradient in expectation (``morph_step_directions``).

    Each step's directions come from one ``morph_step_directions`` call over
    the rows ``lockstep`` gives it.  The fit histories live in one
    (R, max_iters, K) array, one fit per step, so at step s every running
    row holds its s + 1 fits: step 0's is its (anchor, anchor) pair's.
    """
    R = len(Z)
    history = np.empty((R, config.max_iters, basis.dim))
    rank = [None] * R
    certified_steps = np.zeros(R, dtype=int)

    def morph(s, rows, D, theta, P, B, f, df):
        history[rows, s] = theta
        n = 2 * P.shape[-1]         # a menu's probabilities; ``rows`` may be empty
        directions, ranks, quiet = morph_step_directions(
            df.reshape(-1, n), P, history[rows, :s + 1], B.reshape(-1, n, B.shape[-1]), config)
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
