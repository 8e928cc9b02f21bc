"""Categorize verified anomalies by the expected-utility violation they show.

Two-payoff pairs are matched against three compounding operations that mix
each lottery of a base menu with a degenerate payoff: both mixed toward their
low payoffs (dominated consequence), both toward their high payoffs (reverse
dominated consequence), or ell0 down and ell1 up (strict dominance).  A
compound lottery is a point on the chord from its anchor's point mass to its
base lottery.  The choices fix the roles: the base menu's chosen lottery is
ell1, the compound menu's chosen lottery is comp0.  Direct dominance
violations are tagged first.  Three-payoff pairs are instead decomposed as
compound lotteries over shared two-payoff components: a family's two
lotteries lie on one chord of the probability simplex, whose two ends are the
components, so two different lotteries on at most three payoffs always split.

A collection is a record's arrays (``lotteries.Collection``), and a lottery
a (payoffs, probs) pair of vectors.  Every category but ``other`` has one
rule, which builds its certificate at an anchor the certificate names:
``menu_index`` for ``fosd``, ``base_menu`` for the three patterns, and
``family`` for ``shared_component_reversal``.  ``categorize`` tries the rules
in turn; ``check_certificate`` runs the named rule at the named anchor and
the caller's tolerance, and compares every field of the JSON form of what it
re-derives with the certificate's, floats within that tolerance.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .lotteries import (PAYOFF_MERGE_TOL, Collection, fosd_dominates, implied_choices,
                        on_merged_grid)

DEFAULT_TOL = 1e-6      # raw optimizer output; paper tables need 0.02
# A probability, or its change along a family's line, within this of zero is
# rounding (``decompose_shared_components``): such a change crosses zero
# nowhere, and two crossings at an end within it meet at a vertex.
_ROUNDING = 1e-14
# In the row order of the category report.
CATEGORY_TAGS = ("dominated_consequence", "reverse_dominated_consequence",
                 "strict_dominance", "fosd", "shared_component_reversal", "other")


@dataclass(frozen=True)
class AnomalyCategory:
    tag: str
    certificate: dict

    def __post_init__(self):
        if self.tag not in CATEGORY_TAGS:
            raise ValueError(f"unknown category tag {self.tag!r}")


def _lottery(collection: Collection, i: int, l: int) -> tuple:
    """The lottery ``l`` of menu ``i``, as its (payoffs, probs) vectors."""
    return collection.Z[i, l], collection.P[i, l]


def solve_degenerate_mix(base, candidate, anchor: float, tol: float = DEFAULT_TOL):
    """alpha in [0, 1] with candidate = alpha * base + (1 - alpha) * delta(anchor),
    for (payoffs, probs) lotteries whose payoffs include the anchor, or None.

    The candidate must lie on the chord from the anchor's point mass e to the
    base: on the merged grid alpha projects c = p_candidate - e onto
    d = p_base - e, and max |c - alpha d| <= tol, over every coordinate, decides.
    A base within ``tol`` of e spans no chord and takes alpha = 1.
    """
    grid, (pb, pc) = on_merged_grid([base, candidate])
    payoff_tol = max(tol, PAYOFF_MERGE_TOL)
    at = int(np.argmin(np.abs(grid - anchor)))
    if max(np.min(np.abs(base[0] - anchor)), abs(grid[at] - anchor)) > payoff_tol:
        return None
    d, c = (p - np.eye(grid.size)[at] for p in (pb, pc))
    # fsum, not a BLAS dot, so that alpha's bits do not depend on the kernel.
    alpha = math.fsum(c * d) / math.fsum(d * d) if np.max(np.abs(d)) > tol else 1.0
    if not -tol <= alpha <= 1 + tol:
        return None
    alpha = min(max(alpha, 0.0), 1.0)
    return alpha if np.max(np.abs(c - alpha * d)) <= tol else None


# tag -> (anchor sides of ell0 and ell1, (i, k) when alpha_i >= alpha_k must hold)
_PATTERNS = {
    "dominated_consequence": (("low", "low"), (1, 0)),
    "reverse_dominated_consequence": (("high", "high"), (0, 1)),
    "strict_dominance": (("low", "high"), None),
}


def _pattern_certificate(tag: str, collection: Collection, choices, base_idx: int, tol: float):
    """Certificate that menu ``base_idx`` and its compound menu show ``tag``.

    The roles follow from the choices: the base menu's chosen lottery is ell1
    and the compound menu's chosen lottery is comp0.  Each compound lottery
    must be its base lottery mixed toward the pattern's anchor payoff, and
    when both anchors sit on one side, ell0's must be strictly below ell1's.
    Returns None when the pattern does not hold.
    """
    sides, order = _PATTERNS[tag]
    a1, c0 = int(choices[base_idx]), int(choices[1 - base_idx])
    roles = {"ell0": 1 - a1, "ell1": a1, "comp0": c0, "comp1": 1 - c0}
    ells = [_lottery(collection, base_idx, l) for l in (1 - a1, a1)]
    comps = [_lottery(collection, 1 - base_idx, l) for l in (c0, 1 - c0)]
    anchors = [float(ell[0].min() if side == "low" else ell[0].max())
               for ell, side in zip(ells, sides)]
    if sides[0] == sides[1] and not anchors[0] < anchors[1] - PAYOFF_MERGE_TOL:
        return None
    alphas = [solve_degenerate_mix(ell, comp, anchor, tol)
              for ell, comp, anchor in zip(ells, comps, anchors)]
    if None in alphas or (order and alphas[order[0]] < alphas[order[1]] - tol):
        return None
    cert = {"pattern": tag, "base_menu": base_idx, "roles": roles, "anchors": anchors,
            "alpha0": alphas[0], "alpha1": alphas[1], "tol": tol}
    if tag == "dominated_consequence":
        cert["common_ratio"] = bool(abs(alphas[0] - alphas[1]) <= tol)
    return cert


def _fosd_certificate(collection: Collection, choices, i: int, tol: float):
    """Certificate that menu ``i``'s unchosen lottery first-order dominates
    its choice, or None."""
    choice = choices[i]
    if not fosd_dominates(_lottery(collection, i, 1 - choice), _lottery(collection, i, choice)):
        return None
    return {"menu_index": i, "implied_choice": choice}


def decompose_shared_components(lot_a, lot_b, tol: float = DEFAULT_TOL):
    """Write both lotteries, (payoffs, probs) pairs, as mixtures
    lot = alpha * comp1 + (1 - alpha) * comp2 of the same two components,
    each on the merged payoffs with at most two of them positive, or None if
    there are none.

    On at most three payoffs both probability vectors lie on one line
    pa + t d, d = pb - pa, and the components are the ends of its chord:
    on each side the first zero crossing of a coordinate whose change is
    more than ``_ROUNDING``, the mean of two that meet there at a vertex.
    The end keeping fewer payoffs, then lower ones, comes first, and
    ``_orient`` makes comp1 the higher-expected-value component."""
    grid, (pa, pb) = on_merged_grid([lot_a, lot_b])
    k = grid.size
    if k > 3:
        raise ValueError("shared-component decomposition expects <= 3 payoffs")
    if k == 1:
        comp = (grid, np.ones(1))
        return {"comp1": comp, "comp2": comp, "alpha_a": 1.0, "alpha_b": 1.0}

    d = pb - pa
    if np.max(np.abs(d)) <= tol:
        # Identical lotteries: split off pa's first support payoff; the rest
        # of pa, however little, is comp2, so the split reproduces pa.
        i = int(np.argmax(pa > tol))
        alpha = float(pa[i])
        comp1 = (grid, np.eye(k)[i])
        rest = pa.copy()
        rest[i] = 0.0
        comp2 = comp1 if rest.sum() <= _ROUNDING else (grid, rest / rest.sum())
        return _orient(comp1, comp2, alpha, alpha)

    if not (np.any(d > _ROUNDING) and np.any(d < -_ROUNDING)):
        return None     # totals that differ by more than tol: the line misses the simplex
    cross = np.divide(-pa, d, out=np.zeros(k), where=np.abs(d) > _ROUNDING)
    ends = []
    for side, nearest in ((d > _ROUNDING, np.max), (d < -_ROUNDING, np.min)):
        zero = side & (np.abs(pa + nearest(cross[side]) * d) <= _ROUNDING)
        t = float(np.mean(cross[zero]))
        q = np.clip(pa + t * d, 0.0, None)
        kept = tuple(np.flatnonzero(~zero))
        ends.append((len(kept), kept, t, (grid, q / q.sum())))
    (*_, t1, comp1), (*_, t2, comp2) = sorted(ends, key=lambda end: end[:2])
    alpha_a, alpha_b = (float(np.clip((s - t2) / (t1 - t2), 0, 1)) for s in (0.0, 1.0))
    return _orient(comp1, comp2, alpha_a, alpha_b)


def _orient(comp1, comp2, alpha_a: float, alpha_b: float) -> dict:
    """Normalize labeling: comp1 is the higher-expected-value component."""
    if comp2[1] @ comp2[0] > comp1[1] @ comp1[0]:
        comp1, comp2 = comp2, comp1
        alpha_a, alpha_b = 1.0 - alpha_a, 1.0 - alpha_b
    return {"comp1": comp1, "comp2": comp2, "alpha_a": alpha_a, "alpha_b": alpha_b}


def _family_decomposition(collection: Collection, j: int, tol: float):
    """Shared components of both menus' lottery j, or None when there are none."""
    try:
        return decompose_shared_components(_lottery(collection, 0, j),
                                           _lottery(collection, 1, j), tol)
    except ValueError:
        return None


def _reversal_certificate(collection: Collection, choices, j: int, tol: float):
    """Certificate that the choice switch reverses family ``j``'s
    shared-component order, or None.

    Both families must decompose.  Family j's comp1 must dominate its comp2,
    and the weight on comp1 must move against the switch: down when the
    second menu's choice moved to lottery j, up when it moved away.
    """
    if choices[0] == choices[1]:
        return None
    decs = [_family_decomposition(collection, i, tol) for i in (0, 1)]
    if None in decs or not fosd_dominates(decs[j]["comp1"], decs[j]["comp2"]):
        return None
    delta_alpha = decs[j]["alpha_b"] - decs[j]["alpha_a"]
    if not (delta_alpha < -tol if choices[1] == j else delta_alpha > tol):
        return None
    return {"family": j,
            "alpha_a": {i: decs[i]["alpha_a"] for i in (0, 1)},
            "alpha_b": {i: decs[i]["alpha_b"] for i in (0, 1)},
            "comp1": _lottery_json(decs[j]["comp1"]),
            "comp2": _lottery_json(decs[j]["comp2"]),
            "choices": choices,
            "tol": tol}


def _lottery_json(lottery) -> dict:
    return {"payoffs": lottery[0].tolist(), "probs": lottery[1].tolist()}


# tag -> (the rule that builds its certificate, the certificate key of the
# rule's anchor), in the order categorize tries them.
_RULES = {"fosd": (_fosd_certificate, "menu_index"),
          **{tag: (functools.partial(_pattern_certificate, tag), "base_menu")
             for tag in _PATTERNS},
          "shared_component_reversal": (_reversal_certificate, "family")}


def _anchors(tag: str, collection: Collection):
    """The anchors at which ``tag``'s rule applies, in the order categorize
    tries them: every menu for ``fosd``; a pair's two menus for a pattern on
    two payoffs, and its two lottery families for the reversal on more."""
    n_menus, n_payoffs = collection.Z.shape[0], collection.Z.shape[-1]
    if tag == "fosd":
        return range(n_menus)
    if n_menus != 2 or (n_payoffs > 2) != (tag == "shared_component_reversal"):
        return ()
    return (0, 1)


def _agree(got, stored, tol: float) -> bool:
    """Whether two JSON values are equal, floats within ``tol``."""
    if type(got) is not type(stored):
        return False
    if isinstance(got, dict):
        return got.keys() == stored.keys() and all(_agree(got[k], stored[k], tol) for k in got)
    if isinstance(got, list):
        return len(got) == len(stored) and all(_agree(g, s, tol) for g, s in zip(got, stored))
    return abs(got - stored) <= tol if isinstance(got, float) else got == stored


def check_certificate(category: AnomalyCategory, collection: Collection,
                      tol: float = DEFAULT_TOL) -> bool:
    """Whether the category's rule, run at ``tol`` and at the anchor the
    certificate names, re-derives the certificate from the raw menus: every
    field of the two JSON forms equal, floats within ``tol``.  An anchor that
    is not one of the rule's is no certificate.  ``other`` has no rule: it
    checks when its certificate is empty and ``categorize`` at ``tol`` finds
    no rule that holds."""
    tag, cert = category.tag, category.certificate
    if tag == "other":
        return cert == {} and categorize(collection, tol).tag == "other"
    if not cert or not isinstance(cert, dict):
        raise ValueError(f"missing certificate, or not a JSON object: {cert!r}")
    rule, key = _RULES[tag]
    anchor = cert.get(key)
    if type(anchor) is not int or anchor not in _anchors(tag, collection):
        return False
    got = rule(collection, implied_choices(collection.q).tolist(), anchor, tol)
    # JSONL gives integer keys back as strings: compare the JSON forms.
    return got is not None and _agree(json.loads(json.dumps(got)), json.loads(json.dumps(cert)),
                                      tol)


def categorize(collection: Collection, tol: float = DEFAULT_TOL) -> AnomalyCategory:
    """Category of a verified anomaly: the first rule that holds at one of its
    anchors, else ``other``.

    A menu whose choice is first-order dominated is tagged first, at every
    collection size and payoff arity.  Otherwise a collection of other than
    two menus is "other", a two-payoff pair is matched against the
    compounding patterns, and a pair over more payoffs against the
    shared-component reversal.
    """
    choices = implied_choices(collection.q).tolist()
    for tag, (rule, _) in _RULES.items():
        for anchor in _anchors(tag, collection):
            cert = rule(collection, choices, anchor, tol)
            if cert is not None:
                return AnomalyCategory(tag, cert)
    return AnomalyCategory("other", {})
