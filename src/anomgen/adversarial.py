"""Gradient descent-ascent search for collections the theory cannot fit.

Each run evolves menu probabilities against the best-responding logit-EUT
fit: the inner minimization refits theta, the outer step ascends a
disagreement objective, and every iterate is projected back onto the simplex.
A run emits the (initial, final) menu pair with the predictor's choice
probabilities attached; the verifier decides what counts as an anomaly.

Raw cross-entropy ascent stalls wherever the theory fits the current
collection exactly (the gradient vanishes with the residual), so the default
objective ascends the negated product of the predictor's log-odds and the
theory's expected-utility difference, which stays informative at exact fits.
The product is negated so that the score is positive exactly when the
best-fit utility ranks the lotteries against the predictor's majority choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import basis_from_config
from .cpt import logistic
from .lotteries import (Example, ExampleCollection, Menu, menu_from_flat,
                        run_rng, sample_random_menu, step_probs)
from .theory import (TARGET_CLIP, TheorySpec, basis_values, eu_difference_row,
                     fit_theta)

INTERIOR_EPS = 1e-8
DEFAULT_BASIS = {"kind": "polynomial", "order": 6, "domain": [0.0, 10.0]}


@dataclass(frozen=True)
class GdaConfig:
    step_size: float = 0.01
    max_iters: int = 50
    basis_config: dict = field(default_factory=lambda: dict(DEFAULT_BASIS))
    objective: str = "logit_disagreement"       # or "raw_loss"
    collection_mode: str = "pair_anchored"      # or "free"
    free_size: int = 2
    n_payoffs: int = 2

    def __post_init__(self):
        if self.step_size <= 0 or self.max_iters < 1:
            raise ValueError("step size must be positive and iterations >= 1")
        if self.objective not in ("raw_loss", "logit_disagreement"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.collection_mode not in ("pair_anchored", "free"):
            raise ValueError(f"unknown collection mode {self.collection_mode!r}")

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


def ascent_objective(kind: str, predictor, spec: TheorySpec, menu: Menu, values):
    """(value, gradient over the probability coordinates (p0, p1)) of the
    outer objective.

    ``values`` are the basis values at the menu's payoffs (``basis_values``).
    Only probabilities move, and the expected-utility difference is linear in
    them with gradient (-u0, u1), the utilities at the frozen payoffs.
    """
    B0, B1 = values
    g = float(eu_difference_row(menu, B0, B1) @ spec.theta)
    grad_g = np.concatenate([-(B0 @ spec.theta), B1 @ spec.theta])
    if kind == "raw_loss":
        # Cross-entropy of the fit against the predictor's value, held fixed.
        y = float(np.clip(predictor.predict(menu), TARGET_CLIP, 1 - TARGET_CLIP))
        return float(np.logaddexp(0.0, g) - y * g), (logistic(g) - y) * grad_g
    if kind == "logit_disagreement":
        safe = interior_menu(menu)
        f = float(np.clip(predictor.predict(safe), 1e-12, 1 - 1e-12))
        m = np.log(f / (1.0 - f))
        grad_m = predictor.grad(safe) / (f * (1.0 - f))
        return -m * g, -(g * grad_m + m * grad_g)
    raise ValueError(f"unknown objective {kind!r}")


@dataclass
class GdaRunResult:
    candidate: ExampleCollection
    trajectory: list
    iterations: int
    flags: list = field(default_factory=list)


def gda_run(predictor, config: GdaConfig, x0, provenance: dict | None = None) -> GdaRunResult:
    """One descent-ascent run.

    ``x0`` is the initial menu; free mode instead takes a sequence of
    ``free_size`` initial menus that evolve jointly.
    """
    basis = config.make_basis()
    flags = []

    if config.collection_mode == "pair_anchored":
        if not isinstance(x0, Menu):
            raise TypeError("pair_anchored mode expects a single initial menu")
        anchor = x0
        moving = [x0.flatten()]
    else:
        inits = [x0] if isinstance(x0, Menu) else list(x0)
        if len(inits) != config.free_size:
            raise ValueError(f"free mode expects {config.free_size} initial menus")
        anchor = None
        moving = [m.flatten() for m in inits]
    J = (anchor or inits[0]).n_payoffs
    # Only probabilities move: each menu's basis values, and the anchor's
    # prediction, stay fixed for the whole run.
    fixed = [] if anchor is None else [(anchor, predictor.predict(anchor))]
    values = [basis_values(basis, m) for m, _ in fixed]
    values += [basis_values(basis, menu_from_flat(x, J)) for x in moving]

    trajectory = [[m.copy() for m in moving]]
    iterations = 0
    for s in range(config.max_iters):
        menus = [menu_from_flat(x, J) for x in moving]
        examples = fixed + [(m, predictor.predict(m)) for m in menus]
        rows = [eu_difference_row(m, *v) for (m, _), v in zip(examples, values)]
        fit = fit_theta(basis, examples, design=np.array(rows))
        spec = TheorySpec(basis, fit.theta)

        new_moving = []
        for x, menu, v in zip(moving, menus, values[len(fixed):]):
            _, grad = ascent_objective(config.objective, predictor, spec, menu, v)
            if not np.all(np.isfinite(grad)):
                flags.append(f"nonfinite_gradient@iter{s}")
                break
            new_moving.append(step_probs(x, J, config.step_size * grad))
        if flags:
            break
        moving = new_moving
        trajectory.append([m.copy() for m in moving])
        iterations = s + 1

    if anchor is not None:
        menus_out = [anchor, menu_from_flat(moving[0], J)]
    else:
        menus_out = [menu_from_flat(x, J) for x in moving]
    prov = dict(provenance or {})
    prov.setdefault("procedure", "adversarial")
    prov["iterations"] = iterations
    if flags:
        prov["flags"] = list(flags)
    examples = tuple(Example(m, predictor.predict(m)) for m in menus_out)
    return GdaRunResult(candidate=ExampleCollection(examples, prov),
                        trajectory=trajectory, iterations=iterations, flags=flags)


def run_adversarial_index(predictor, config: GdaConfig, master_seed: int,
                          run_index: int) -> GdaRunResult:
    """Single run addressed by (master seed, run index); worker-pool friendly."""
    low, high = config.make_basis().domain
    rng = run_rng(master_seed, run_index)
    if config.collection_mode == "free":
        x0 = [sample_random_menu(rng, config.n_payoffs, low, high)
              for _ in range(config.free_size)]
    else:
        x0 = sample_random_menu(rng, config.n_payoffs, low, high)
    prov = {"procedure": "adversarial", "master_seed": master_seed,
            "run_index": run_index}
    return gda_run(predictor, config, x0, prov)
