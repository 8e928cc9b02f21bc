"""Gradient descent-ascent search for collections the theory cannot fit.

Each run moves the probabilities of one menu against the fixed initial menu:
the inner minimization refits the logit-EUT theta to the pair (initial,
moving), the outer step ascends a disagreement score on the moving menu, and
every iterate is projected back onto the simplex.  A run emits the (initial,
final) menu pair with the predictor's choice probabilities attached; the
verifier decides what counts as an anomaly.

The score is not the raw cross-entropy: that stalls wherever the theory fits
the pair exactly (its gradient vanishes with the residual).  It is the
negated product of the predictor's log-odds and the theory's
expected-utility difference, which stays informative at exact fits.  The
product is negated so that the score is positive exactly when the best-fit
utility ranks the lotteries against the predictor's majority choice.

Both searches keep a menu's payoffs fixed, move only its probabilities and
refit the theory once per step, so their runs share one loop: ``lockstep``
moves an (R, 2, J) probability stack against fixed payoffs and basis values,
through the predictor's batch methods and one stacked inner fit per step,
and a search supplies only its step rule (``gda_run`` here, the morph step in
``morphing``).  Only the final stack is kept: each run's candidate is built
from it.  Every operation acts row by row, so a run's bytes depend only on
(master seed, run index), not on the runs it is stacked with; a caller picks
which runs share a stack (the CLI stacks a block of ``cli._RUN_BLOCK``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import PolynomialBasis, basis_from_config
from .lotteries import (LOTTERY_SIGN, Example, ExampleCollection, Lottery, Menu,
                        check_probs, project_to_simplex, run_rng, sample_random_menu,
                        stack_menus)
from .theory import _fit_logits, eu_difference_rows, stack_basis_values

INTERIOR_EPS = 1e-8
DEFAULT_BASIS = PolynomialBasis().config_dict()


@dataclass(frozen=True)
class GdaConfig:
    step_size: float = 0.01
    max_iters: int = 50
    inits: int = 100                    # runs a CLI batch makes without --inits
    basis_config: dict = field(default_factory=lambda: dict(DEFAULT_BASIS))
    n_payoffs: int = 2

    def __post_init__(self):
        if self.step_size <= 0 or self.max_iters < 1:
            raise ValueError("step size must be positive and iterations >= 1")

    def make_basis(self):
        return basis_from_config(self.basis_config)


def interior_menu(P: np.ndarray, eps: float = INTERIOR_EPS) -> np.ndarray:
    """A probability stack (..., J) moved at least ``eps`` inside the
    simplex, lottery by lottery, for differentiation.

    Probabilities are clamped to ``[eps, 1 - eps]`` and renormalized.  When
    renormalizing pushes a clamped coordinate back below ``eps``, the lottery
    becomes ``eps + (1 - J eps) p``, which sums to one with every coordinate
    at least ``eps``.
    """
    p = np.clip(P, eps, 1.0 - eps)
    p = p / p.sum(axis=-1, keepdims=True)
    low = p.min(axis=-1) < eps
    if np.any(low):
        p[low] = eps + (1.0 - p.shape[-1] * eps) * p[low]
    return p


def ascent_objective(theta: np.ndarray, P: np.ndarray, B: np.ndarray, f: np.ndarray,
                     df: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values (R,), gradients (R, 2, J) over the probabilities (p0, p1)) of
    the disagreement score for a stack of menus.

    ``theta`` (R, K) holds each menu's coefficients and ``B`` (R, 2, J, K)
    the basis values at its payoffs (``stack_basis_values``); ``f`` and
    ``df`` are the predictor's probabilities and their gradients
    (``grad_batch``).  Only probabilities move, and the expected-utility
    difference is linear in them with gradient (-u0, u1), the utilities at
    the frozen payoffs.
    """
    g = np.matmul(eu_difference_rows(P, B)[:, None, :], theta[:, :, None])[:, 0, 0]
    grad_g = LOTTERY_SIGN * np.matmul(B, theta[:, None, :, None])[..., 0]
    f = np.clip(f, 1e-12, 1 - 1e-12)
    m = np.log(f / (1.0 - f))
    grad_m = df / (f * (1.0 - f))[:, None, None]
    return -m * g, -(g[:, None, None] * grad_m + m[:, None, None] * grad_g)


def lockstep(predictor, config, menus, step, provenance,
             procedure: str) -> list[ExampleCollection]:
    """Both searches' loop: runs that each move a copy of their initial menu
    (a sequence of ``menus``) against the menu itself, as one (R, 2, J) stack.

    Step ``s`` refits the running rows (run indices ``rows``) to their
    (anchor, current) pairs; ``step(s, rows, D, y, fit, P, B, f, df)`` maps
    the fit's design rows D (R', 2, K), targets y (R', 2) and result, the
    rows' probabilities P and basis values B, and the predictor's f and df at
    ``interior_menu(P)`` to the rows' moves (R', 2, J) and a mask of the rows
    that take them.  A row whose move is not finite is flagged
    ``nonfinite_gradient@iter{s}``; a row that takes no move leaves the
    stack.  Each run's (initial, final) candidate is built from the final
    stack; ``provenance(r)`` gives run r's provenance after the loop.
    """
    Z, P = stack_menus(menus)
    B = stack_basis_values(config.make_basis(), Z)
    f0 = predictor.predict_batch(Z, P)
    d0 = eu_difference_rows(P, B)

    iterations = np.zeros(len(menus), dtype=int)
    flags = [[] for _ in menus]
    active = np.arange(len(menus))
    for s in range(config.max_iters):
        if active.size == 0:
            break
        Za, Pa, Ba = Z[active], P[active], B[active]
        D = np.stack([d0[active], eu_difference_rows(Pa, Ba)], axis=1)
        y = np.stack([f0[active], predictor.predict_batch(Za, Pa)], axis=1)
        fit = _fit_logits(D, y)
        f, df = predictor.grad_batch(Za, interior_menu(Pa))
        delta, go = step(s, active, D, y, fit, Pa, Ba, f, df)
        finite = np.all(np.isfinite(delta), axis=(1, 2))
        for r in active[~finite]:
            flags[r].append(f"nonfinite_gradient@iter{s}")
        go = finite & go
        active = active[go]
        P[active] = project_to_simplex(Pa[go] + delta[go])
        check_probs(P[active])
        iterations[active] += 1

    f_final = predictor.predict_batch(Z, P)
    candidates = []
    for r, n in enumerate(iterations.tolist()):
        prov = {"procedure": procedure, **provenance(r), "iterations": n}
        if flags[r]:
            prov["flags"] = flags[r]
        final = Menu(Lottery(Z[r, 0], P[r, 0]), Lottery(Z[r, 1], P[r, 1]))
        candidates.append(ExampleCollection(
            (Example(menus[r], float(f0[r])), Example(final, float(f_final[r]))), prov))
    return candidates


def gda_run(predictor, config: GdaConfig, menus,
            provenances=None) -> list[ExampleCollection]:
    """Descent-ascent runs advanced in ``lockstep``.  Each run's provenance
    counts its inner fits that ended on the coefficient ball
    (``inner_fits_on_bound``) and unconverged (``inner_fits_unconverged``)."""
    provenances = provenances or [{}] * len(menus)
    on_bound = np.zeros(len(menus), dtype=int)
    unconverged = np.zeros(len(menus), dtype=int)

    def ascend(s, rows, D, y, fit, P, B, f, df):
        on_bound[rows] += fit.on_norm_bound
        unconverged[rows] += ~fit.converged
        return config.step_size * ascent_objective(fit.theta, P, B, f, df)[1], True

    return lockstep(predictor, config, menus, ascend,
                    lambda r: {**provenances[r], "inner_fits_on_bound": int(on_bound[r]),
                               "inner_fits_unconverged": int(unconverged[r])},
                    "adversarial")


def index_block(config, master_seed: int, indices):
    """Runs addressed by (master seed, run index), stacked together: their
    initial menus, the generators they were drawn from (a run's own stream
    goes on from there) and provenances."""
    low, high = config.make_basis().domain
    rngs = [run_rng(master_seed, i) for i in indices]
    return ([sample_random_menu(rng, config.n_payoffs, low, high) for rng in rngs],
            rngs, [{"master_seed": master_seed, "run_index": i} for i in indices])


def run_adversarial_indices(predictor, config: GdaConfig, master_seed: int, indices):
    """Adversarial runs addressed by (master seed, run index), advanced as one
    stack; their candidates in the order of ``indices``."""
    menus, _, provenances = index_block(config, master_seed, indices)
    return gda_run(predictor, config, menus, provenances)
