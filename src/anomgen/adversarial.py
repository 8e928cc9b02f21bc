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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import basis_from_config
from .lotteries import (Example, ExampleCollection, Menu, menu_from_flat,
                        run_rng, sample_random_menu, step_probs)
from .theory import TheorySpec, basis_values, eu_difference_row, fit_theta

INTERIOR_EPS = 1e-8
DEFAULT_BASIS = {"kind": "polynomial", "order": 6, "domain": [0.0, 10.0]}


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


def interior_menu(menu: Menu, eps: float = INTERIOR_EPS) -> Menu:
    """Move probabilities at least ``eps`` inside the simplex for differentiation.

    Probabilities are clamped to ``[eps, 1 - eps]`` and renormalized.  When
    renormalizing pushes a clamped coordinate back below ``eps``, the lottery
    becomes ``eps + (1 - J eps) p``, which sums to one with every coordinate
    at least ``eps``.
    """
    def fix(lot):
        p = np.clip(lot.probs, eps, 1.0 - eps)
        p = p / p.sum()
        if p.min() < eps:
            p = eps + (1.0 - p.size * eps) * p
        return type(lot)(lot.payoffs, p)
    return Menu(fix(menu.lottery0), fix(menu.lottery1))


def ascent_objective(predictor, spec: TheorySpec, menu: Menu, values):
    """(value, gradient over the probability coordinates (p0, p1)) of the
    disagreement score.

    ``values`` are the basis values at the menu's payoffs (``basis_values``).
    Only probabilities move, and the expected-utility difference is linear in
    them with gradient (-u0, u1), the utilities at the frozen payoffs.
    """
    B0, B1 = values
    g = float(eu_difference_row(menu, B0, B1) @ spec.theta)
    grad_g = np.concatenate([-(B0 @ spec.theta), B1 @ spec.theta])
    safe = interior_menu(menu)
    f = float(np.clip(predictor.predict(safe), 1e-12, 1 - 1e-12))
    m = np.log(f / (1.0 - f))
    grad_m = predictor.grad(safe) / (f * (1.0 - f))
    return -m * g, -(g * grad_m + m * grad_g)


@dataclass
class SearchResult:
    """One search run: the (initial, final) candidate, the flat iterates from
    the start on, the number of completed steps and any stop flags."""

    candidate: ExampleCollection
    trajectory: list
    iterations: int
    flags: list = field(default_factory=list)


def search_result(predictor, procedure: str, x0: Menu, f0: float, trajectory: list,
                  flags: list, provenance: dict | None) -> SearchResult:
    """Package a run that moved ``x0`` (predicted ``f0``) along ``trajectory``,
    which holds ``x0`` flattened and then one entry per completed step."""
    iterations = len(trajectory) - 1
    final = menu_from_flat(trajectory[-1], x0.n_payoffs)
    prov = dict(provenance or {})
    prov.setdefault("procedure", procedure)
    prov["iterations"] = iterations
    if flags:
        prov["flags"] = list(flags)
    examples = (Example(x0, f0), Example(final, predictor.predict(final)))
    return SearchResult(candidate=ExampleCollection(examples, prov),
                        trajectory=trajectory, iterations=iterations, flags=flags)


def gda_run(predictor, config: GdaConfig, x0: Menu,
            provenance: dict | None = None) -> SearchResult:
    """One descent-ascent run moving a copy of ``x0`` against ``x0`` itself."""
    basis = config.make_basis()
    J = x0.n_payoffs
    flags: list = []

    # Payoffs are frozen and both menus share them, so the basis values, the
    # anchor's prediction and its design row stay fixed for the whole run.
    B0, B1 = basis_values(basis, x0)
    f0 = predictor.predict(x0)
    d0 = eu_difference_row(x0, B0, B1)

    x = x0.flatten()
    trajectory = [x.copy()]
    for s in range(config.max_iters):
        menu = menu_from_flat(x, J)
        fit = fit_theta(basis, [(x0, f0), (menu, predictor.predict(menu))],
                        design=np.array([d0, eu_difference_row(menu, B0, B1)]))
        _, grad = ascent_objective(predictor, TheorySpec(basis, fit.theta),
                                   menu, (B0, B1))
        if not np.all(np.isfinite(grad)):
            flags.append(f"nonfinite_gradient@iter{s}")
            break
        x = step_probs(x, J, config.step_size * grad)
        trajectory.append(x.copy())
    return search_result(predictor, "adversarial", x0, f0, trajectory, flags,
                         provenance)


def run_adversarial_index(predictor, config: GdaConfig, master_seed: int,
                          run_index: int) -> SearchResult:
    """Single run addressed by (master seed, run index); worker-pool friendly."""
    low, high = config.make_basis().domain
    rng = run_rng(master_seed, run_index)
    x0 = sample_random_menu(rng, config.n_payoffs, low, high)
    prov = {"procedure": "adversarial", "master_seed": master_seed,
            "run_index": run_index}
    return gda_run(predictor, config, x0, prov)
