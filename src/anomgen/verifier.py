"""Consistency checks against expected utility theory.

Two layers, each verifying a stack of collections of one shape, m menus over
J payoffs, given as (R, m, 2, J) payoff and probability arrays:

* ``utility_verdicts`` asks whether ANY strictly increasing utility (no
  noise) rationalizes the implied binary choices.  By Gordan's alternative
  none does exactly when some mixture of the menus' tails is nowhere
  positive; the verdict's margin is the value of that mixture LP, which
  ``simplex_lp.simplex_value`` finds in closed form for m <= 2 menus.
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

MAX_MENUS = 2
MAX_DISTINCT_PAYOFFS = 12
# Fills the tails past a grid's size: never the maximum of real tails, which
# lie in [-1, 1], and finite, so that its crossings with them are not NaN.
_PAD = -1e300


@dataclass(frozen=True)
class VerificationResult:
    consistent: bool
    margin: float


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
    """Whether some strictly increasing utility rationalizes each
    collection's choices, with margin: Z and P (R, m, 2, J), choices (R, m),
    merged merge_payoff_grids(Z, P) or None.

    Write a utility on a grid of k payoffs as u_1 plus steps d_l > 0 at grid
    points l = 2..k.  A menu's choice then asks T_i . d > 0, where T_il sums
    its chosen-minus-other probabilities from grid point l up.  By Gordan's
    alternative no d > 0 meets every menu's ask exactly when some mixture
    lambda of the menus has sum_i lambda_i T_i <= 0, so the collection is
    consistent when v = min_lambda max_l sum_i lambda_i T_il exceeds
    ``margin_threshold``, and v is its margin.  A grid of one payoff is
    vacuously consistent at margin 0.  A collection too large to verify
    (``size_fault``) raises ValueError."""
    _, sizes, Q = merge_payoff_grids(Z, P) if merged is None else merged
    if fault := size_fault(Z, sizes):
        raise ValueError(fault[1])
    r, i = np.indices(choices.shape)
    diff = Q[r, i, choices] - Q[r, i, 1 - choices]
    tails = np.cumsum(diff[..., ::-1], axis=-1)[..., -2::-1]     # grid points 2..n
    on_grid = np.arange(1, Q.shape[-1]) < sizes[:, None, None]
    values = simplex_lp.simplex_value(np.where(on_grid, tails, _PAD))
    return [VerificationResult(True, 0.0) if k < 2
            else VerificationResult(bool(v > margin_threshold), float(v))
            for k, v in zip(sizes, values)]


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
