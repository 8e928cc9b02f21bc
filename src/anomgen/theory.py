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
from .lotteries import Menu

TARGET_CLIP = 1e-6
# Radius of the coefficient ball standing in for a compact parameter space.
# On the rescaled payoff domain this allows utility swings two orders beyond
# behaviorally plausible logits; anything larger lets exploding coefficients
# rationalize near-parallel conflicting menus and empties the parametrized
# class of content.  The logit noise scale is fixed at 1, because scale s
# with this radius is the same class as scale 1 with radius 100 s.
THETA_NORM_BOUND = 100.0


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


def basis_values(basis, menu: Menu) -> tuple[np.ndarray, np.ndarray]:
    """Basis values (J, K) at the payoffs of lottery 0 and of lottery 1."""
    return basis.eval(menu.lottery0.payoffs), basis.eval(menu.lottery1.payoffs)


def eu_difference_row(menu: Menu, b0: np.ndarray, b1: np.ndarray) -> np.ndarray:
    """d(x) from the basis values at the menu's payoffs.

    The searches keep payoffs frozen, so they evaluate the basis once per
    menu and build every later row from these values.
    """
    return menu.lottery1.probs @ b1 - menu.lottery0.probs @ b0


def eu_difference_features(basis, menu: Menu) -> np.ndarray:
    """d(x): basis-weighted expected-utility difference feature vector."""
    return eu_difference_row(menu, *basis_values(basis, menu))


def design_matrix(basis, menus) -> np.ndarray:
    return np.array([eu_difference_features(basis, m) for m in menus])


def theory_choice_prob(spec: TheorySpec, menu: Menu) -> float:
    d = eu_difference_features(spec.basis, menu)
    return float(logistic(d @ spec.theta))


def _clip_targets(y: np.ndarray) -> np.ndarray:
    return np.clip(y, TARGET_CLIP, 1.0 - TARGET_CLIP)


def _cross_entropy(u: np.ndarray, y: np.ndarray) -> float:
    """Mean CE of logits u against soft targets y, stable for large |u|."""
    # -y*log(sigma(u)) - (1-y)*log(1-sigma(u)) = softplus(u) - y*u
    softplus = np.logaddexp(0.0, u)
    return float(np.mean(softplus - y * u))


def target_entropy(y: np.ndarray) -> float:
    y = _clip_targets(np.asarray(y, dtype=float))
    return float(np.mean(-y * np.log(y) - (1 - y) * np.log(1 - y)))


# The Newton solve stops once the KKT residual is below KKT_TOL; the cap
# only bounds a fit whose line search keeps failing.
MAX_NEWTON_ITER = 50
KKT_TOL = 1e-10
BOUND_TOL = 1e-9      # a norm this close to the bound counts as on it


@dataclass
class FitResult:
    theta: np.ndarray
    kl: float
    cross_entropy: float
    converged: bool = True      # the KKT stop fired (or the fit is exact)
    on_norm_bound: bool = False


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


def _backtrack(objective, x: np.ndarray, step: np.ndarray, value: float,
               slope: float):
    """Armijo backtracking along ``x + t step`` for t = 1, 1/2, ... > 1e-10.

    ``objective`` maps a point to a tuple whose first entry is the loss;
    ``value`` is the loss at ``x`` and ``slope`` its directional derivative
    along ``step``.  Returns the first accepted ``(point, objective(point))``,
    or None when every t fails.  A few ulps of slack let through a last full
    step whose predicted decrease is below the rounding of the loss.  Both
    Newton fits, theta's and the weighting fit's, step through here.
    """
    t = 1.0
    while t > 1e-10:
        cand = x + t * step
        out = objective(cand)
        if out[0] <= value + 1e-4 * t * slope + 4 * np.finfo(float).eps * value:
            return cand, out
        t *= 0.5
    return None


def _fit_logits(D: np.ndarray, y: np.ndarray) -> FitResult:
    """Minimize mean CE of sigma(D theta) against targets y over the ball.

    The loss sees theta only through D theta, so the constrained optimum lies
    in the row space of D: theta = V w, with V from a thin SVD and w of the
    rank r <= rows.  Each Newton step minimizes the quadratic model over the
    ball, then backtracks; the fit stops when the KKT residual
    ||grad + lam w||, lam = max(0, -grad.w/||w||^2) on the ball and 0 inside,
    is at most ``KKT_TOL``.
    """
    n = D.shape[0]
    y = _clip_targets(y)
    entropy = target_entropy(y)

    def ce(theta):
        return _cross_entropy(D @ theta, y)

    # Interpolating start: if D theta = logit(y) is solvable the CE lower
    # bound (target entropy) is attained and no search is needed.
    c = np.log(y / (1 - y))
    theta_ls, *_ = np.linalg.lstsq(D, c, rcond=None)
    if np.linalg.norm(theta_ls) > THETA_NORM_BOUND:
        theta_ls = theta_ls * (THETA_NORM_BOUND / np.linalg.norm(theta_ls))
    if ce(theta_ls) - entropy < 1e-12:
        return FitResult(theta_ls, max(ce(theta_ls) - entropy, 0.0), ce(theta_ls))

    U, svals, Vt = np.linalg.svd(D, full_matrices=False)
    rank = int(np.sum(svals > svals[0] * max(D.shape) * np.finfo(float).eps))
    V = Vt[:rank]
    A = U[:, :rank] * svals[:rank]                # logits are A @ w
    w = V @ theta_ls
    value = _cross_entropy(A @ w, y)
    converged = False
    for _ in range(MAX_NEWTON_ITER):
        sig = logistic(A @ w)
        g = ((sig - y) @ A) / n
        on_ball = w @ w >= (THETA_NORM_BOUND - BOUND_TOL) ** 2
        lam = max(0.0, -(g @ w) / (w @ w)) if on_ball else 0.0
        if np.linalg.norm(g + lam * w) <= KKT_TOL:
            converged = True
            break
        H = (A.T * (sig * (1.0 - sig))) @ A / n
        step = _ball_newton_point(H, g - H @ w, THETA_NORM_BOUND) - w
        slope = g @ step
        if not slope < 0.0:
            break
        # Backtrack on the segment, which stays in the ball.
        accepted = _backtrack(lambda v: (_cross_entropy(A @ v, y),), w, step,
                              value, slope)
        if accepted is None:
            break
        w, (value,) = accepted
    theta = V.T @ w
    value = ce(theta)
    return FitResult(theta, max(value - entropy, 0.0), value, converged,
                     on_norm_bound=bool(np.linalg.norm(theta) >= THETA_NORM_BOUND - BOUND_TOL))


def fit_theta(basis, examples, design=None) -> FitResult:
    """Fit theta to (menu, target probability) pairs by mean cross-entropy.

    The reported loss is the mean KL divergence of the fit from the targets,
    which is 0 exactly when the theory matches them.  ``design`` optionally
    supplies the rows of ``design_matrix(basis, menus)`` precomputed.
    """
    if not examples:
        raise ValueError("need at least one example")
    y = np.array([t for _, t in examples], dtype=float)
    D = design_matrix(basis, [m for m, _ in examples]) if design is None \
        else np.asarray(design, dtype=float)
    return _fit_logits(D, y)


def theory_loss(spec: TheorySpec, examples) -> tuple[float, float]:
    """(mean cross-entropy, mean KL) of a spec on (menu, target) examples."""
    menus = [m for m, _ in examples]
    y = _clip_targets(np.array([t for _, t in examples], dtype=float))
    D = design_matrix(spec.basis, menus)
    ce = _cross_entropy(D @ spec.theta, y)
    return ce, max(ce - target_entropy(y), 0.0)

