"""Consistency checks against expected utility theory.

Two layers, each verifying a stack of collections of one shape, m menus over
J payoffs, given as (R, m, 2, J) payoff and probability arrays:

* ``utility_verdicts`` asks whether ANY strictly increasing utility (no
  noise) rationalizes the implied binary choices.  Strict inequalities are
  encoded through a shared maximized slack t over the merged payoff grid, so
  the verdict comes with a margin and, when consistent, a witness utility.
  The LPs of the collections whose grids have one size are built as one
  array and solved by one stacked ``simplex_lp.solve_max`` call.
* ``parametrized_verdicts`` asks whether the logit-EUT class fits the stated
  choice probabilities, thresholding the best achievable mean KL; the whole
  stack is one ``theory._fit_logits`` call.

Every step acts on each collection of a stack on its own, so a verdict has
the same bytes whatever it is stacked with; bit-reproducibility matters more
than speed.  The per-collection functions ``verify_collection`` and
``verify_parametrized`` are one-collection stacks; a collection is a
record's arrays (``lotteries.Collection``: Z and P (m, 2, J), q (m,)).

``minimal_anomaly`` adds the minimality requirement: a collection is an
anomaly (inconsistent, with every proper subset consistent) exactly when the
smallest inconsistent sub-collection it returns is the whole collection.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import simplex_lp
from .config import DEFAULT_KL_THRESHOLD, MARGIN_THRESHOLD
from .lotteries import Collection, implied_choices, merge_payoff_grids
from .theory import _fit_logits, eu_difference_rows, stack_basis_values

MAX_MENUS = 8
MAX_DISTINCT_PAYOFFS = 12


@dataclass(frozen=True)
class VerificationResult:
    consistent: bool
    margin: float
    witness_utility: np.ndarray | None


def _margin_lp(Q, choices):
    """(margins, witnesses) of the max-slack LPs over utilities on each
    collection's grid: Q (R, m, 2, k) holds the menus' probabilities on
    grids of k payoffs, choices (R, m) the implied choices.

    Variables are the interior utility levels u_2..u_{k-1} (u_1 = 0, u_k = 1
    pin down location and scale) plus tau = t + 1 >= 0.  Each row c of C, a
    menu's chosen-minus-other grid probabilities or a monotonicity step
    u_{j+1} - u_j, asks c . u >= t, which is the LP row (-c_free, 1) <= 1 + c_k.
    The box rows u_j <= 1 follow.  All right-hand sides are nonnegative by
    construction, so the one-phase solver applies.
    """
    R, m, _, k = Q.shape
    n_free = k - 2
    r, i = np.indices((R, m))
    chosen, other = Q[r, i, choices], Q[r, i, 1 - choices]
    steps = np.broadcast_to(np.diff(np.eye(k), axis=0), (R, k - 1, k))
    C = np.concatenate([chosen - other, steps], axis=1)
    A = np.zeros((R, m + k - 1 + n_free, n_free + 1))
    A[:, :m + k - 1, :n_free] = -C[:, :, 1:-1]
    A[:, :m + k - 1, -1] = 1.0
    A[:, m + k - 1:, :n_free] = np.eye(n_free)
    b = np.concatenate([1.0 + C[:, :, -1], np.ones((R, n_free))], axis=1)
    sol = simplex_lp.solve_max(np.tile(np.eye(n_free + 1)[-1], (R, 1)), A, b)
    witnesses = np.zeros((R, k))
    witnesses[:, 1:-1] = sol.x[:, :n_free]
    witnesses[:, -1] = 1.0
    return sol.objective - 1.0, witnesses


def size_fault(Z, sizes) -> tuple[int, str] | None:
    """(row, why) of the first collection of Z (R, m, 2, J) too large to
    verify: more than ``MAX_MENUS`` menus, or a grid size in ``sizes`` (R,),
    of ``merge_payoff_grids``, above ``MAX_DISTINCT_PAYOFFS``; else None."""
    if not 1 <= Z.shape[1] <= MAX_MENUS:
        return 0, f"collection size must be in [1, {MAX_MENUS}]"
    big = np.flatnonzero(sizes > MAX_DISTINCT_PAYOFFS)
    if big.size:
        return int(big[0]), f"{sizes[big[0]]} distinct payoffs exceeds {MAX_DISTINCT_PAYOFFS}"
    return None


def utility_verdicts(Z, P, choices, margin_threshold: float = MARGIN_THRESHOLD,
                     merged=None) -> list[VerificationResult]:
    """Feasibility of each collection's strict rationalization system, with
    margin: Z and P (R, m, 2, J), choices (R, m), merged merge_payoff_grids(Z, P)
    or None.  A collection too large to verify (``size_fault``) raises ValueError."""
    _, sizes, Q = merge_payoff_grids(Z, P) if merged is None else merged
    if fault := size_fault(Z, sizes):
        raise ValueError(fault[1])
    # All payoffs identical: every choice is a tie between identical
    # lotteries; vacuously consistent.
    out = [VerificationResult(True, 0.0, None)] * len(Z)
    for k in sorted(set(sizes[sizes >= 2].tolist())):
        rows = np.flatnonzero(sizes == k)
        margins, witnesses = _margin_lp(Q[rows, ..., :k], choices[rows])
        for r, margin, witness in zip(rows, margins, witnesses):
            consistent = bool(margin > margin_threshold)
            out[r] = VerificationResult(consistent, float(margin),
                                        witness if consistent else None)
    return out


def verify_collection(collection: Collection,
                      margin_threshold: float = MARGIN_THRESHOLD) -> VerificationResult:
    """``utility_verdicts`` of one collection's implied choices."""
    Z, P, q = collection
    return utility_verdicts(Z[None], P[None], implied_choices(q)[None], margin_threshold)[0]


def minimal_anomaly(collection: Collection,
                    margin_threshold: float = MARGIN_THRESHOLD):
    """Smallest inconsistent sub-collection, or None if consistent.

    A candidate pair whose one menu is already a dominance violation yields
    that singleton; a pair inconsistent only jointly yields the pair itself.
    Subsets are judged at the same margin threshold as the full collection,
    the subsets of one size as one stack, and the first inconsistent one in
    ``itertools.combinations`` order is returned.  The collection is an
    anomaly (Definition 2) exactly when the returned subset holds all of its
    indices.
    """
    Z, P, q = collection
    choices = implied_choices(q)
    n = len(choices)
    for size in range(1, n + 1):
        subsets = list(itertools.combinations(range(n), size))
        idx = np.array(subsets)
        for subset, sub in zip(subsets, utility_verdicts(Z[idx], P[idx], choices[idx],
                                                         margin_threshold)):
            if not sub.consistent:
                return subset, sub
    return None


@dataclass(frozen=True)
class ParametrizedVerdict:
    inconsistent: bool
    min_kl: float
    converged: bool = True
    on_norm_bound: bool = False


def parametrized_verdicts(basis, Z, P, q,
                          kl_threshold: float = DEFAULT_KL_THRESHOLD) -> list[ParametrizedVerdict]:
    """Inconsistency of each collection with the logit-EUT class, best-fit
    mean KL above threshold: Z and P (R, m, 2, J), q (R, m) the predicted
    probabilities of lottery 1."""
    R, m, _, J = Z.shape
    D = eu_difference_rows(P.reshape(-1, 2, J), stack_basis_values(basis, Z.reshape(-1, 2, J)))
    fit = _fit_logits(D.reshape(R, m, -1), np.asarray(q, dtype=float))
    return [ParametrizedVerdict(inconsistent=bool(kl > kl_threshold), min_kl=float(kl),
                                converged=bool(converged), on_norm_bound=bool(on_bound))
            for kl, converged, on_bound in zip(fit.kl, fit.converged, fit.on_norm_bound)]


def verify_parametrized(basis, collection: Collection,
                        kl_threshold: float = DEFAULT_KL_THRESHOLD) -> ParametrizedVerdict:
    """Inconsistency with the logit-EUT class: best-fit mean KL above threshold."""
    Z, P, q = collection
    return parametrized_verdicts(basis, Z[None], P[None], np.asarray(q, dtype=float)[None],
                                 kl_threshold)[0]
