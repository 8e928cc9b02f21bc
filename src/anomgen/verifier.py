"""Consistency checks against expected utility theory.

Two layers:

* ``verify_increasing_utility`` asks whether ANY strictly increasing utility
  (no noise) rationalizes the implied binary choices.  Strict inequalities are
  encoded through a shared maximized slack t over the merged payoff grid, so
  the verdict comes with a margin and, when consistent, a witness utility.
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


def _margin_lp(menus, choices):
    """Max-slack LP over utilities on the merged grid.

    Variables are the interior utility levels u_2..u_{k-1} (u_1 = 0, u_k = 1
    pin down location and scale) plus tau = t + 1 >= 0.  All right-hand sides
    are nonnegative by construction, so the one-phase solver applies.
    """
    grid = merge_payoff_grid([l for m in menus for l in (m.lottery0, m.lottery1)])
    k = grid.size
    if k < 2:
        return grid, None, None
    n_free = k - 2
    rows, rhs = [], []

    def add_geq(coeffs_full, const):
        # sum_j coeffs_full[j] * u_j + const >= t  ->  LP row in (u_free, tau).
        row = np.zeros(n_free + 1)
        row[:n_free] = -np.asarray(coeffs_full)[1:k - 1]
        row[-1] = 1.0
        rows.append(row)
        rhs.append(1.0 + const + coeffs_full[-1])

    for menu, y in zip(menus, choices):
        chosen = menu.lottery1 if y == 1 else menu.lottery0
        other = menu.lottery0 if y == 1 else menu.lottery1
        diff = probs_on_grid(chosen, grid) - probs_on_grid(other, grid)
        add_geq(diff, 0.0)
    for j in range(k - 1):
        e = np.zeros(k)
        e[j + 1], e[j] = 1.0, -1.0
        add_geq(e, 0.0)
    for j in range(n_free):
        row = np.zeros(n_free + 1)
        row[j] = 1.0
        rows.append(row)
        rhs.append(1.0)

    c = np.zeros(n_free + 1)
    c[-1] = 1.0
    sol = simplex_lp.solve_max(c, np.array(rows), np.array(rhs))
    margin = sol.objective - 1.0
    witness = np.empty(k)
    witness[0], witness[-1] = 0.0, 1.0
    witness[1:k - 1] = sol.x[:n_free]
    return grid, margin, witness


def verify_increasing_utility(menus, choices,
                              margin_threshold: float = MARGIN_THRESHOLD) -> VerificationResult:
    """Feasibility of the strict rationalization system, with margin."""
    menus = list(menus)
    choices = np.asarray(choices, dtype=int)
    if not 1 <= len(menus) <= MAX_MENUS:
        raise ValueError(f"collection size must be in [1, {MAX_MENUS}]")
    if choices.shape != (len(menus),):
        raise ValueError("one choice per menu required")
    grid, margin, witness = _margin_lp(menus, choices)
    if grid.size > MAX_DISTINCT_PAYOFFS:
        raise ValueError(f"{grid.size} distinct payoffs exceeds {MAX_DISTINCT_PAYOFFS}")
    if margin is None:
        # All payoffs identical: every choice is a tie between identical
        # lotteries; vacuously consistent.
        return VerificationResult("consistent", 0.0, None,
                                  note="degenerate: single merged payoff")
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
