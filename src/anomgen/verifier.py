"""Consistency checks against expected utility theory.

Two layers:

* ``verify_increasing_utility`` asks whether ANY strictly increasing utility
  (no noise) rationalizes the implied binary choices.  Strict inequalities are
  encoded through a shared maximized slack t over the merged payoff grid, so
  the verdict comes with a margin and, when consistent, a witness utility.
  The LP is built as arrays, once the grid's size has been checked.
* ``verify_parametrized`` asks whether the logit-EUT class fits the stated
  choice probabilities, thresholding the best achievable mean KL.

``minimal_anomaly`` adds the minimality requirement: a collection is an
anomaly (inconsistent, with every proper subset consistent) exactly when the
smallest inconsistent sub-collection it returns is the whole collection.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import simplex_lp
from .lotteries import ExampleCollection, merge_payoff_grid, probs_on_grid
from .theory import fit_theta

MARGIN_THRESHOLD = 1e-9
MAX_MENUS = 8
MAX_DISTINCT_PAYOFFS = 12
DEFAULT_KL_THRESHOLD = 1e-5


@dataclass(frozen=True)
class VerificationResult:
    status: str                      # "consistent" | "inconsistent"
    margin: float
    witness_utility: np.ndarray | None
    note: str = ""

    @property
    def consistent(self) -> bool:
        return self.status == "consistent"


def _margin_lp(menus, choices, grid):
    """(margin, witness) of the max-slack LP over utilities on ``grid``.

    Variables are the interior utility levels u_2..u_{k-1} (u_1 = 0, u_k = 1
    pin down location and scale) plus tau = t + 1 >= 0.  Each row c of C, a
    menu's chosen-minus-other grid probabilities or a monotonicity step
    u_{j+1} - u_j, asks c . u >= t, which is the LP row (-c_free, 1) <= 1 + c_k.
    The box rows u_j <= 1 follow.  All right-hand sides are nonnegative by
    construction, so the one-phase solver applies.
    """
    k = grid.size
    n_free = k - 2
    probs = np.array([[probs_on_grid(m.lottery0, grid), probs_on_grid(m.lottery1, grid)]
                      for m in menus])
    i = np.arange(len(menus))
    C = np.vstack([probs[i, choices] - probs[i, 1 - choices], np.diff(np.eye(k), axis=0)])
    A = np.block([[-C[:, 1:-1], np.ones((len(C), 1))],
                  [np.eye(n_free), np.zeros((n_free, 1))]])
    b = np.concatenate([1.0 + C[:, -1], np.ones(n_free)])
    sol = simplex_lp.solve_max(np.eye(n_free + 1)[-1], A, b)
    witness = np.concatenate([[0.0], sol.x[:n_free], [1.0]])
    return sol.objective - 1.0, witness


def verify_increasing_utility(menus, choices,
                              margin_threshold: float = MARGIN_THRESHOLD) -> VerificationResult:
    """Feasibility of the strict rationalization system, with margin."""
    menus = list(menus)
    choices = np.asarray(choices, dtype=int)
    if not 1 <= len(menus) <= MAX_MENUS:
        raise ValueError(f"collection size must be in [1, {MAX_MENUS}]")
    if choices.shape != (len(menus),):
        raise ValueError("one choice per menu required")
    grid = merge_payoff_grid([l for m in menus for l in (m.lottery0, m.lottery1)])
    if grid.size > MAX_DISTINCT_PAYOFFS:
        raise ValueError(f"{grid.size} distinct payoffs exceeds {MAX_DISTINCT_PAYOFFS}")
    if grid.size < 2:
        # All payoffs identical: every choice is a tie between identical
        # lotteries; vacuously consistent.
        return VerificationResult("consistent", 0.0, None,
                                  note="degenerate: single merged payoff")
    margin, witness = _margin_lp(menus, choices, grid)
    status = "consistent" if margin > margin_threshold else "inconsistent"
    return VerificationResult(status, float(margin),
                              witness if status == "consistent" else None)


def verify_collection(collection: ExampleCollection,
                      margin_threshold: float = MARGIN_THRESHOLD) -> VerificationResult:
    return verify_increasing_utility(collection.menus, collection.implied_choices,
                                     margin_threshold)


def minimal_anomaly(collection: ExampleCollection,
                    margin_threshold: float = MARGIN_THRESHOLD):
    """Smallest inconsistent sub-collection, or None if consistent.

    A candidate pair whose one menu is already a dominance violation yields
    that singleton; a pair inconsistent only jointly yields the pair itself.
    Subsets are judged at the same margin threshold as the full collection.
    The collection is an anomaly (Definition 2) exactly when the returned
    subset holds all of its indices.
    """
    menus = collection.menus
    choices = collection.implied_choices
    n = len(menus)
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            sub = verify_increasing_utility([menus[i] for i in subset],
                                            choices[list(subset)], margin_threshold)
            if not sub.consistent:
                return subset, sub
    return None


@dataclass(frozen=True)
class ParametrizedVerdict:
    inconsistent: bool
    min_kl: float
    converged: bool = True
    on_norm_bound: bool = False


def verify_parametrized(basis, collection: ExampleCollection,
                        kl_threshold: float = DEFAULT_KL_THRESHOLD) -> ParametrizedVerdict:
    """Inconsistency with the logit-EUT class: best-fit mean KL above threshold."""
    examples = [(e.menu, e.choice_prob) for e in collection]
    fit = fit_theta(basis, examples)
    return ParametrizedVerdict(inconsistent=fit.kl > kl_threshold,
                               min_kl=fit.kl, converged=fit.converged,
                               on_norm_bound=fit.on_norm_bound)
