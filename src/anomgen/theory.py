"""Parametrized logit expected-utility theory.

With utility u_theta(z) = theta . b(z) linear in the basis, the expected
utility difference of a menu is linear in theta, so the theory's choice
probability is a logistic regression on the per-menu feature vector

    d(x) = sum_j p1_j b(z1_j) - sum_j p0_j b(z0_j).

Fitting cross-entropy over theta is therefore convex; the inner minimization
of the anomaly search reduces to small soft-label logistic regressions, which
one stacked damped Newton solver fits, as it fits the weighting parameters.
A fit converges when its duality gap, which bounds theta's loss's excess over
its minimum on the coefficient ball, is at most 1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cpt import logistic

TARGET_CLIP = 1e-6
# Radius of the coefficient ball standing in for a compact parameter space.
# On the rescaled payoff domain this allows utility swings two orders beyond
# behaviorally plausible logits; anything larger lets exploding coefficients
# rationalize near-parallel conflicting menus and empties the parametrized
# class of content.  The logit noise scale is fixed at 1, because scale s
# with this radius is the same class as scale 1 with radius 100 s.  The
# weighting fit runs in the same ball on (log delta, log gamma), far from
# its edge.
THETA_NORM_BOUND = 100.0


def stack_basis_values(basis, Z: np.ndarray) -> np.ndarray:
    """Basis values (..., 2, J, K) at a (..., 2, J) payoff stack, from one
    evaluation over all payoffs."""
    return basis.eval(Z.reshape(-1)).reshape(*Z.shape, basis.dim)


def eu_difference_rows(P: np.ndarray, B: np.ndarray) -> np.ndarray:
    """d(x) (R, K) for a stack of menus: P (R, 2, J) probabilities and B
    (R, 2, J, K) basis values at their payoffs.  One stacked (1, J) x (J, K)
    product per lottery, so a row does not depend on the others."""
    E = np.matmul(P[..., None, :], B)[..., 0, :]
    return E[:, 1] - E[:, 0]


def _clip_targets(y: np.ndarray) -> np.ndarray:
    return np.clip(y, TARGET_CLIP, 1.0 - TARGET_CLIP)


# Means over the last axis are taken as sum / count, which is what np.mean
# and np.average compute, without their per-call overhead on the inner fit's
# tiny arrays.

def _cross_entropy(u: np.ndarray, y: np.ndarray, w: np.ndarray):
    """w-weighted mean CE (over the last axis) of logits u against soft
    targets y, stable for large |u|."""
    # -y*log(sigma(u)) - (1-y)*log(1-sigma(u)) = softplus(u) - y*u
    return ((np.logaddexp(0.0, u) - y * u) * w).sum(axis=-1) / w.sum(axis=-1)


def _entropy(y: np.ndarray):
    """Mean binary entropy (over the last axis) of clipped targets."""
    return (-y * np.log(y) - (1 - y) * np.log(1 - y)).sum(axis=-1) / y.shape[-1]


# ``damped_newton`` stops a row once its Frank-Wolfe duality gap is at most
# GAP_TOL, three decades under the default ``kl_threshold``; the cap only
# bounds a fit whose line search keeps failing.
MAX_NEWTON_ITER = 50
GAP_TOL = 1e-8
BOUND_TOL = 1e-9      # a norm this close to the bound counts as on it


@dataclass
class FitResult:
    """The fits of a stack, one entry per row."""

    theta: np.ndarray
    kl: np.ndarray
    cross_entropy: np.ndarray
    converged: np.ndarray       # the gap test holds at theta (or the fit is exact)
    on_norm_bound: np.ndarray


# Stacked products that act row by row: one BLAS call per row, the call a
# one-problem ``@`` makes, so a row's bytes do not depend on its stack.
def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.matmul(M, v[..., None])[..., 0]


def _ball_point(H: np.ndarray, b: np.ndarray, radius: float) -> np.ndarray:
    """argmin b.z + z.Hz/2 over ||z|| <= radius, for stacks of symmetric PSD
    H (R, k, k) and b (R, k).  Eigenvalues at most k eps times the largest
    count as flat, so the free point is -H^+ b; where it lies outside the
    ball, z = -(H + mu I)^-1 b with mu > 0 solving 1/||z(mu)|| = 1/radius.
    That function of mu is concave and increasing (More and Sorensen 1983),
    so Newton started below its root climbs to it monotonically, with no
    bracket: each row starts at the lower bound max(0, max_i(|beta_i| /
    radius - evals_i)), beta = Q^T b, and stops once mu no longer increases
    or ||z|| <= radius, at the root to working precision.  z is then scaled
    onto the ball.
    """
    evals, Q = np.linalg.eigh(H)
    evals = np.maximum(evals, 0.0)
    beta = _matvec(np.swapaxes(Q, 1, 2), b)
    kept = evals > H.shape[-1] * np.finfo(float).eps * evals[:, -1:]
    q = np.divide(beta, evals, out=np.zeros_like(beta), where=kept)
    out = np.flatnonzero(~(np.sqrt(_dot(q, q)) <= radius))
    beta, evals = beta[out], evals[out]
    mu = (abs(beta) / radius - evals).max(axis=-1, initial=0.0)
    live = np.arange(len(out))
    while live.size:
        d = evals[live] + mu[live, None]
        d[d == 0.0] = 1.0           # only where beta is 0, by the bound mu starts at
        q[out[live]] = z = beta[live] / d
        zz = _dot(z, z)
        zn = np.sqrt(zz)
        m = mu[live] + (zn - radius) / radius * zz / _dot(z, z / d)
        go = (zn > radius) & (m > mu[live])
        mu[live[go]] = m[go]
        live = live[go]
    z = -_matvec(Q, q)
    z[out] *= (radius / np.sqrt(_dot(z[out], z[out])))[:, None]
    return z


def damped_newton(logits, x: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Damped Newton for both fits, theta's and the weighting fit's: the
    w-weighted mean CE of sigma(u) against y over the ball ||x|| <= rho =
    ``THETA_NORM_BOUND``, for a stack x (R, k).  ``logits(rows, x)`` gives the
    logits u (R', n) of problems ``rows`` at x and their Jacobian (R', n, k).
    Returns (x, value, converged, steps) per row.  Rows that take another
    step form the Fisher matrix J^T S J (the Hessian when u is linear in x)
    and go to the model's minimizer over the ball; the Armijo backtrack tries
    t = 1, 1/2, ... > 1e-10, with a few ulps of slack for a last full step
    whose predicted decrease is below the rounding of the loss.  A row leaves
    the stack once its Frank-Wolfe duality gap g.x + rho ||g|| (Jaggi 2013)
    is at most ``GAP_TOL``, after ``MAX_NEWTON_ITER`` steps, on a step that
    does not descend, or when every t fails; ``converged`` is the gap test at
    the returned point.  For a loss convex in x, as theta's is, the gap
    bounds its excess over the minimum; at ||x|| << rho it reads ||g|| <~ 1e-10.
    """
    total = w.sum(axis=-1)
    x, steps, converged = x.copy(), np.zeros(len(x), dtype=int), np.zeros(len(x), dtype=bool)

    def gradient(rows):
        return np.matmul(((sig[rows] - y[rows]) * w[rows])[:, None, :], J[rows])[:, 0] \
            / total[rows, None]

    rows = np.arange(len(x))
    u, J = logits(rows, x)
    value, sig = _cross_entropy(u, y, w), logistic(u)
    g = gradient(rows)
    while True:
        gr = g[rows]
        converged[rows] = _dot(gr, x[rows]) + THETA_NORM_BOUND * np.sqrt(_dot(gr, gr)) <= GAP_TOL
        rows = rows[~converged[rows] & (steps[rows] < MAX_NEWTON_ITER)]
        if not rows.size:
            return x, value, converged, steps
        s = sig[rows] * (1.0 - sig[rows]) * w[rows]
        H = np.matmul(np.swapaxes(J[rows], 1, 2) * s[:, None], J[rows]) / total[rows, None, None]
        step = _ball_point(H, g[rows] - _matvec(H, x[rows]), THETA_NORM_BOUND) - x[rows]
        slope = _dot(g[rows], step)
        rows, step, slope = rows[slope < 0.0], step[slope < 0.0], slope[slope < 0.0]
        t, search = np.ones(len(rows)), np.arange(len(rows))
        while search.size:
            r = rows[search]
            cand = x[r] + t[search, None] * step[search]
            u, Jc = logits(r, cand)
            cand_value = _cross_entropy(u, y[r], w[r])
            ok = cand_value <= (value[r] + 1e-4 * t[search] * slope[search]
                                + 4 * np.finfo(float).eps * value[r])
            a = r[ok]
            x[a], value[a], sig[a], J[a] = cand[ok], cand_value[ok], logistic(u[ok]), Jc[ok]
            g[a] = gradient(a)
            steps[a] += 1
            t[search[~ok]] *= 0.5
            search = search[~ok & (t[search] > 1e-10)]
        rows = rows[t > 1e-10]          # a row whose every t failed stops


def _fit_logits(D: np.ndarray, y: np.ndarray) -> FitResult:
    """Minimize mean CE of sigma(D_r theta_r) against targets y_r over the
    ball, for each problem r of a stack: D is (R, n, K) and y is (R, n).

    One stacked thin SVD, D = U S V^T, serves every step.  Interpolating
    start: the pseudo-inverse solution of D theta = logit(y), with singular
    values below ``max(n, K) eps`` times the largest treated as zero, clipped
    to the ball.  Where that attains the CE lower bound (the target entropy)
    the row is exact and needs no search.  The loss sees theta only through
    D theta, so any other row's optimum lies in D's row space: theta = V^T w
    with logits A w, A = U S.  A singular value below the cutoff gives A a
    zero column and w a zero coordinate, so one ``damped_newton`` call fits
    every such row, whatever its rank.  Every operation acts row by row, so
    a row's fit does not depend on its stack.
    """
    R, n, K = D.shape
    y = _clip_targets(y)
    entropy, ones = _entropy(y), np.ones_like(y)
    c = np.log(y / (1 - y))
    U, svals, Vt = np.linalg.svd(D, full_matrices=False)
    kept = svals > svals[:, :1] * max(n, K) * np.finfo(float).eps
    inv = np.divide(1.0, svals, out=np.zeros_like(svals), where=kept)
    coef = inv * np.matmul(c[:, None, :], U)[:, 0]
    theta = np.matmul(coef[:, None, :], Vt)[:, 0]
    # Scale each row down onto the ball; a row inside it is scaled by 1.0,
    # which leaves it bit-for-bit as it was.
    norm = np.sqrt((theta * theta).sum(axis=-1))
    theta *= (THETA_NORM_BOUND / np.maximum(norm, THETA_NORM_BOUND))[:, None]
    ce = _cross_entropy(_matvec(D, theta), y, ones)
    converged, on_bound = np.ones(R, dtype=bool), np.zeros(R, dtype=bool)
    todo = np.flatnonzero(~(ce - entropy < 1e-12))
    A, V, kept = U[todo] * (svals * kept)[todo, None], Vt[todo], kept[todo]
    w, _, converged[todo], _ = damped_newton(lambda i, w: (_matvec(A[i], w), A[i]),
                                             _matvec(V, theta[todo]) * kept, y[todo], ones[todo])
    theta[todo] = _matvec(np.swapaxes(V, 1, 2), w)
    ce[todo] = _cross_entropy(_matvec(D[todo], theta[todo]), y[todo], ones[todo])
    on_bound[todo] = np.sqrt(_dot(theta[todo], theta[todo])) >= THETA_NORM_BOUND - BOUND_TOL
    return FitResult(theta, np.maximum(ce - entropy, 0.0), ce, converged, on_bound)
