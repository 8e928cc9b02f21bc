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
``morphing``).  Only the final stack is kept: each run's record is written
from it.  Every operation acts row by row, so a run's bytes depend only on
(master seed, run index), not on the runs it is stacked with; a caller picks
which runs share a stack (the CLI stacks a block of ``cli._RUN_BLOCK``).
"""

from __future__ import annotations

import numpy as np

from .basis import basis_from_config
from .config import GdaConfig
from .cpt import GRAD_BOUNDARY
from .lotteries import LOTTERY_SIGN, index_block, project_to_simplex
from .records import stack_to_records
from .theory import _fit_logits, eu_difference_rows, stack_basis_values


def interior_menu(P: np.ndarray) -> np.ndarray:
    """A probability stack (..., J) moved at least ``eps = GRAD_BOUNDARY``,
    the bound the oracle's gradient enforces, inside the simplex, lottery by
    lottery, for differentiation.

    Probabilities are clamped to ``[eps, 1 - eps]`` and renormalized.  When
    renormalizing pushes a clamped coordinate back below ``eps``, the lottery
    becomes ``eps + (1 - J eps) p``, which sums to one with every coordinate
    at least ``eps``.
    """
    p = np.clip(P, GRAD_BOUNDARY, 1.0 - GRAD_BOUNDARY)
    p = p / p.sum(axis=-1, keepdims=True)
    low = p.min(axis=-1) < GRAD_BOUNDARY
    if np.any(low):
        p[low] = GRAD_BOUNDARY + (1.0 - p.shape[-1] * GRAD_BOUNDARY) * p[low]
    return p


def ascent_objective(theta: np.ndarray, d: np.ndarray, B: np.ndarray, f: np.ndarray,
                     df: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values (R,), gradients (R, 2, J) over the probabilities (p0, p1)) of
    the disagreement score for a stack of menus.

    ``theta`` (R, K) holds each menu's coefficients, ``d`` (R, K) its design
    row (``eu_difference_rows``) and ``B`` (R, 2, J, K) the basis values at
    its payoffs; ``f`` and ``df`` are the predictor's probabilities and their
    gradients (``grad_batch``).  Only probabilities move, and the
    expected-utility difference d . theta is linear in them with gradient
    (-u0, u1), the utilities at the frozen payoffs.
    """
    g = np.matmul(d[:, None, :], theta[:, :, None])[:, 0, 0]
    grad_g = LOTTERY_SIGN * np.matmul(B, theta[:, None, :, None])[..., 0]
    f = np.clip(f, 1e-12, 1 - 1e-12)
    m = np.log(f / (1.0 - f))
    grad_m = df / (f * (1.0 - f))[:, None, None]
    return -m * g, -(g[:, None, None] * grad_m + m[:, None, None] * grad_g)


def lockstep(predictor, config, basis, Z, P, step, procedure: str, master_seed, indices,
             declined=None, columns=dict) -> list[dict]:
    """Both searches' loop: runs that each move a copy of their initial menu
    (payoffs ``Z`` and probabilities ``P``, (R, 2, J)) against the menu
    itself, as one stack, with the theory fit on ``basis``; ``P`` moves in
    place.  The loop keeps every run's books; a step rule keeps only what
    its search adds (the morph rule: fit histories, ``retained_rank`` and
    quiet steps).

    Step ``s`` refits the running rows to their (anchor, current) pairs,
    counts each row's fits that end on the coefficient ball or unconverged,
    and drops the rows whose predictor gradient df at ``interior_menu(P)``
    is not finite.  ``step(s, rows, D, theta, P, B, f, df)`` maps the others
    (run positions ``rows``), with their fits' design rows D (R', 2, K), the
    moving menu's at ``D[:, 1]``, and coefficients, their probabilities P and
    basis values B and the predictor's f and df, to their moves (R', 2, J)
    and a mask of the rows that take them.  A row whose gradient or move is
    not finite is flagged ``nonfinite_gradient@iter{s}``; a row that takes no
    move stops for the step's one reason, ``declined``.  Returns the records
    of runs ``indices`` of ``master_seed``: each run's (initial, final) pair,
    ``iterations``, why it stopped (``stop``: ``max_iters``,
    ``nonfinite_gradient`` or ``declined``), its fit counts
    (``inner_fits_on_bound``, ``inner_fits_unconverged``) and the fields
    ``columns()`` gives after the loop.
    """
    P0 = P.copy()
    B = stack_basis_values(basis, Z)
    f0 = predictor.predict_batch(Z, P)
    d0 = eu_difference_rows(P, B)

    iterations, on_bound, unconverged = (np.zeros(len(Z), dtype=int) for _ in range(3))
    flags, stop = [[] for _ in Z], ["max_iters"] * len(Z)
    active = np.arange(len(Z))
    for s in range(config.max_iters):
        if active.size == 0:
            break
        Za, Pa, Ba = Z[active], P[active], B[active]
        D = np.stack([d0[active], eu_difference_rows(Pa, Ba)], axis=1)
        fit = _fit_logits(D, np.stack([f0[active], predictor.predict_batch(Za, Pa)], axis=1))
        on_bound[active] += fit.on_norm_bound
        unconverged[active] += ~fit.converged
        f, df = predictor.grad_batch(Za, interior_menu(Pa))
        ok = np.all(np.isfinite(df), axis=(1, 2))
        rows, D, theta, Pa, Ba, f, df = (a[ok] for a in (active, D, fit.theta, Pa, Ba, f, df))
        delta, go = step(s, rows, D, theta, Pa, Ba, f, df)
        finite = np.all(np.isfinite(delta), axis=(1, 2))
        ok[ok] = finite
        for r in active[~ok]:
            flags[r].append(f"nonfinite_gradient@iter{s}")
            stop[r] = "nonfinite_gradient"
        go = finite & go
        for r in rows[finite & ~go]:
            stop[r] = declined
        active = rows[go]
        P[active] = project_to_simplex(Pa[go] + delta[go])
        iterations[active] += 1

    return stack_to_records(
        np.stack([Z, Z], axis=1), np.stack([P0, P], axis=1),
        np.stack([f0, predictor.predict_batch(Z, P)], axis=1), procedure, predictor.label,
        master_seed, indices, iterations=iterations.tolist(), flags=flags, stop=stop,
        inner_fits_on_bound=on_bound.tolist(), inner_fits_unconverged=unconverged.tolist(),
        **columns())


def gda_run(predictor, config: GdaConfig, basis, Z, P, master_seed, indices) -> list[dict]:
    """Descent-ascent runs from the menus (Z, P) against the theory on
    ``basis``, advanced in ``lockstep``; the step takes every row's move."""

    def ascend(s, rows, D, theta, P, B, f, df):
        return config.step_size * ascent_objective(theta, D[:, 1], B, f, df)[1], True

    return lockstep(predictor, config, basis, Z, P, ascend, "adversarial", master_seed, indices)


def run_adversarial_indices(predictor, cfg, indices):
    """Adversarial runs ``indices`` of the pipeline config ``cfg``, on its
    theory basis, advanced as one stack; their records in the order of
    ``indices``."""
    Z, P = index_block(cfg, indices, 1)
    return gda_run(predictor, cfg.adversarial, basis_from_config(cfg.theory_basis),
                   Z[:, 0], P[:, 0], cfg.seed, indices)
