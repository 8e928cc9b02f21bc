"""Parametrized logit expected-utility theory.

With utility u_theta(z) = theta . b(z) linear in the basis, the expected
utility difference of a menu is linear in theta, so the theory's choice
probability is a logistic regression on the per-menu feature vector

    d(x) = sum_j p1_j b(z1_j) - sum_j p0_j b(z0_j).

Fitting cross-entropy over theta is therefore convex; the inner minimization
of the anomaly search reduces to small soft-label logistic regressions.
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
# with this radius is the same class as scale 1 with radius 100 s.
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
# computes, without its per-call overhead on the inner fit's tiny arrays.

def _cross_entropy(u: np.ndarray, y: np.ndarray):
    """Mean CE (over the last axis) of logits u against soft targets y,
    stable for large |u|."""
    # -y*log(sigma(u)) - (1-y)*log(1-sigma(u)) = softplus(u) - y*u
    softplus = np.logaddexp(0.0, u)
    return (softplus - y * u).sum(axis=-1) / u.shape[-1]


def _entropy(y: np.ndarray):
    """Mean binary entropy (over the last axis) of clipped targets."""
    return (-y * np.log(y) - (1 - y) * np.log(1 - y)).sum(axis=-1) / y.shape[-1]


# ``damped_newton`` stops once the residual is below KKT_TOL; the cap only
# bounds a fit whose line search keeps failing.
MAX_NEWTON_ITER = 50
KKT_TOL = 1e-10
BOUND_TOL = 1e-9      # a norm this close to the bound counts as on it


@dataclass
class FitResult:
    """The fits of a stack, one entry per row."""

    theta: np.ndarray
    kl: np.ndarray
    cross_entropy: np.ndarray
    converged: np.ndarray       # the KKT test holds at theta (or the fit is exact)
    on_norm_bound: np.ndarray


def _ball_newton_point(H: np.ndarray, b: np.ndarray, radius: float) -> np.ndarray:
    """argmin b.z + z.Hz/2 over ||z|| <= radius, H symmetric positive semidefinite.

    Inside the ball this is the Newton point; otherwise z = -(H + mu I)^-1 b
    with mu > 0 solving the secular equation 1/||z(mu)|| = 1/radius by
    bracketed Newton (More and Sorensen 1983).
    """
    evals, Q = np.linalg.eigh(H)
    evals = np.maximum(evals, 0.0)
    beta = Q.T @ b
    if evals[0] > 0.0 and np.linalg.norm(beta / evals) <= radius:
        return -(Q @ (beta / evals))
    bnorm = np.linalg.norm(beta)
    if bnorm == 0.0:
        return np.zeros_like(b)
    # ||z(mu)|| lies between ||beta||/(evals[-1]+mu) and ||beta||/(evals[0]+mu).
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


def damped_newton(objective, x: np.ndarray, newton_step, residual):
    """Damped Newton from ``x`` for both fits, theta's and the weighting
    fit's: (x, value, converged, steps).

    ``objective`` maps a point to its loss and a no-argument function giving
    the (gradient, Hessian) there, called only at accepted points.  Each
    ``newton_step(x, g, H)`` backtracks (Armijo) along ``x + t step`` for
    t = 1, 1/2, ... > 1e-10, with a few ulps of slack for a last full step
    whose predicted decrease is below the rounding of the loss.  The loop stops
    when ``residual(x, g)`` is at most ``KKT_TOL``, after ``MAX_NEWTON_ITER``
    steps, on a step that does not descend, or when every t fails;
    ``converged`` says that the residual test holds at the returned point.
    """
    value, derivatives = objective(x)
    g, H = derivatives()
    steps = 0
    while (res := residual(x, g)) > KKT_TOL and steps < MAX_NEWTON_ITER:
        step = newton_step(x, g, H)
        slope = g @ step
        if not slope < 0.0:
            break
        t = 1.0
        while t > 1e-10:
            cand = x + t * step
            cand_value, derivatives = objective(cand)
            if cand_value <= value + 1e-4 * t * slope + 4 * np.finfo(float).eps * value:
                break
            t *= 0.5
        else:
            break               # the line search failed
        x, value = cand, cand_value
        g, H = derivatives()
        steps += 1
    return x, value, bool(res <= KKT_TOL), steps


def _fit_logits(D: np.ndarray, y: np.ndarray) -> FitResult:
    """Minimize mean CE of sigma(D_r theta_r) against targets y_r over the
    ball, for each problem r of a stack: D is (R, n, K) and y is (R, n).

    One stacked thin SVD, D = U S V^T, serves every step.  Interpolating
    start: the pseudo-inverse solution of D theta = logit(y), with singular
    values below ``max(n, K) eps`` times the largest treated as zero, clipped
    to the ball.  Where that attains the CE lower bound (the target entropy)
    the row is exact and needs no search.  Only the other rows go through
    ``_newton``, one at a time, from that start and with their own factors.
    Every operation on the stack acts row by row, so a row's result does not
    depend on the problems stacked with it.
    """
    R, n, K = D.shape
    y = _clip_targets(y)
    entropy = _entropy(y)
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
    ce = _cross_entropy(np.matmul(D, theta[..., None])[..., 0], y)
    converged = np.ones(R, dtype=bool)
    on_bound = np.zeros(R, dtype=bool)
    for r in np.flatnonzero(~(ce - entropy < 1e-12)):
        rank = int(kept[r].sum())
        theta[r], converged[r] = _newton(U[r, :, :rank] * svals[r, :rank], Vt[r, :rank],
                                         y[r], theta[r])
        ce[r] = _cross_entropy(D[r] @ theta[r], y[r])
        on_bound[r] = np.linalg.norm(theta[r]) >= THETA_NORM_BOUND - BOUND_TOL
    return FitResult(theta, np.maximum(ce - entropy, 0.0), ce, converged, on_bound)


def _newton(A: np.ndarray, V: np.ndarray, y: np.ndarray,
            theta: np.ndarray) -> tuple[np.ndarray, bool]:
    """Ball-constrained Newton fit of one problem from ``theta``: (theta,
    converged).

    The loss sees theta only through D theta, so the constrained optimum lies
    in the row space of D: theta = V^T w, with V (rank, K) the leading right
    singular vectors and A = U S (n, rank), so that the logits are A w.  Each
    ``damped_newton`` step minimizes the quadratic model over the ball, so the
    backtracking segment stays in it; the residual is the KKT residual
    ||grad + lam w||, lam = max(0, -grad.w/||w||^2) on the ball and 0 inside.
    """
    n = A.shape[0]

    def objective(w):
        u = A @ w

        def derivatives():
            sig = logistic(u)
            return ((sig - y) @ A) / n, (A.T * (sig * (1.0 - sig))) @ A / n

        return _cross_entropy(u, y), derivatives

    def kkt_residual(w, g):
        on_ball = w @ w >= (THETA_NORM_BOUND - BOUND_TOL) ** 2
        lam = max(0.0, -(g @ w) / (w @ w)) if on_ball else 0.0
        return np.linalg.norm(g + lam * w)

    w, _, converged, _ = damped_newton(
        objective, V @ theta,
        lambda w, g, H: _ball_newton_point(H, g - H @ w, THETA_NORM_BOUND) - w,
        kkt_residual)
    return V.T @ w, converged
