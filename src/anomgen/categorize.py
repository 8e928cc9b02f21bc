"""Categorize verified anomalies by the expected-utility violation they show.

Two-payoff pairs are matched, over every labeling of menus and lotteries,
against three compounding operations that mix each lottery with a degenerate
payoff: both mixed toward their low payoffs (dominated consequence), both
toward their high payoffs (reverse dominated consequence), or lottery 0 down
and lottery 1 up (strict dominance).  Direct dominance violations are tagged
first.  Three-payoff pairs are instead decomposed as compound lotteries over
shared two-payoff components.

Every category carries a machine-checkable certificate; ``check_certificate``
re-derives all of its inequalities from the raw menus.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .lotteries import (ExampleCollection, FosdOrder, Lottery, Menu,
                        fosd_compare, lottery_stats, merge_payoff_grid,
                        probs_on_grid)

PAYOFF_STRICT = 1e-9
DEFAULT_TOL = 1e-6      # raw optimizer output; paper tables need 0.02
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


def solve_degenerate_mix(base: Lottery, candidate: Lottery, anchor: float,
                         tol: float = DEFAULT_TOL):
    """alpha in [0, 1] with candidate = alpha * base + (1 - alpha) * delta(anchor).

    Returns None when no alpha reproduces the candidate within tolerance.
    """
    grid = merge_payoff_grid([base, candidate])
    try:
        pb = probs_on_grid(base, grid)
        pc = probs_on_grid(candidate, grid)
    except ValueError:
        return None
    payoff_tol = max(tol, PAYOFF_STRICT)
    if not np.any(np.abs(base.payoffs - anchor) <= payoff_tol):
        return None
    anchor_idx = int(np.argmin(np.abs(grid - anchor)))
    if abs(grid[anchor_idx] - anchor) > payoff_tol:
        return None
    mask = np.ones(grid.size, dtype=bool)
    mask[anchor_idx] = False
    pb_o, pc_o = pb[mask], pc[mask]
    if np.any((pb_o <= tol) & (pc_o > tol)):
        return None
    active = pb_o > tol
    if not np.any(active):
        # Base is (numerically) the degenerate anchor lottery itself.
        if np.all(pc_o <= tol):
            return 1.0
        return None
    alpha = float(pc_o[active] @ pb_o[active] / (pb_o[active] @ pb_o[active]))
    if not -tol <= alpha <= 1 + tol:
        return None
    alpha = float(np.clip(alpha, 0.0, 1.0))
    if np.max(np.abs(pc_o - alpha * pb_o)) > tol:
        return None
    if abs(pc[anchor_idx] - (alpha * pb[anchor_idx] + (1 - alpha))) > tol:
        return None
    return alpha


def _anchor(lottery: Lottery, side: str) -> float:
    return float(lottery.payoffs.min() if side == "low" else lottery.payoffs.max())


# pattern -> (anchor side for ell0, anchor side for ell1, alpha condition)
_PATTERNS = {
    "dominated_consequence": ("low", "low", "alpha1_ge_alpha0"),
    "reverse_dominated_consequence": ("high", "high", "alpha0_ge_alpha1"),
    "strict_dominance": ("low", "high", None),
}


def _pattern_conditions(tag: str, ell0: Lottery, ell1: Lottery) -> bool:
    if tag == "dominated_consequence":
        return ell0.payoffs.min() < ell1.payoffs.min() - PAYOFF_STRICT
    if tag == "reverse_dominated_consequence":
        return ell0.payoffs.max() < ell1.payoffs.max() - PAYOFF_STRICT
    return True


def _match_pattern(tag: str, base: Menu, comp: Menu, base_choice: int,
                   comp_choice: int, tol: float):
    """Search lottery labelings of (base, compound) for one pattern."""
    side0, side1, alpha_cond = _PATTERNS[tag]
    for a0, a1 in ((0, 1), (1, 0)):
        if base_choice != a1:       # base menu must choose the ell1 role
            continue
        ell0 = base.lottery0 if a0 == 0 else base.lottery1
        ell1 = base.lottery0 if a1 == 0 else base.lottery1
        if not _pattern_conditions(tag, ell0, ell1):
            continue
        for c0, c1 in ((0, 1), (1, 0)):
            if comp_choice != c0:   # compound menu must choose the ell0' role
                continue
            comp0 = comp.lottery0 if c0 == 0 else comp.lottery1
            comp1 = comp.lottery0 if c1 == 0 else comp.lottery1
            anchor0 = _anchor(ell0, side0)
            anchor1 = _anchor(ell1, side1)
            alpha0 = solve_degenerate_mix(ell0, comp0, anchor0, tol)
            alpha1 = solve_degenerate_mix(ell1, comp1, anchor1, tol)
            if alpha0 is None or alpha1 is None:
                continue
            if alpha_cond == "alpha1_ge_alpha0" and alpha1 < alpha0 - tol:
                continue
            if alpha_cond == "alpha0_ge_alpha1" and alpha0 < alpha1 - tol:
                continue
            cert = {
                "pattern": tag,
                "base_menu": None,  # filled by caller
                "roles": {"ell0": a0, "ell1": a1, "comp0": c0, "comp1": c1},
                "anchors": [anchor0, anchor1],
                "alpha0": alpha0,
                "alpha1": alpha1,
                "tol": tol,
            }
            if tag == "dominated_consequence":
                cert["common_ratio"] = bool(abs(alpha0 - alpha1) <= tol)
            return cert
    return None


def _fosd_certificate(collection: ExampleCollection) -> dict | None:
    for idx, example in enumerate(collection):
        menu = example.menu
        chosen = menu.lottery1 if example.implied_choice == 1 else menu.lottery0
        other = menu.lottery0 if example.implied_choice == 1 else menu.lottery1
        if fosd_compare(other, chosen) is FosdOrder.A_DOMINATES:
            return {"menu_index": idx, "implied_choice": int(example.implied_choice)}
    return None


def categorize_two_payoff(collection: ExampleCollection,
                          tol: float = DEFAULT_TOL) -> AnomalyCategory:
    """Category of a verified two-menu anomaly over two-payoff lotteries."""
    if len(collection) != 2:
        raise ValueError("expected a two-menu collection")
    fosd_cert = _fosd_certificate(collection)
    if fosd_cert is not None:
        return AnomalyCategory("fosd", fosd_cert)
    choices = collection.implied_choices
    menus = collection.menus
    for tag in ("dominated_consequence", "reverse_dominated_consequence",
                "strict_dominance"):
        for base_idx, comp_idx in ((0, 1), (1, 0)):
            cert = _match_pattern(tag, menus[base_idx], menus[comp_idx],
                                  int(choices[base_idx]), int(choices[comp_idx]), tol)
            if cert is not None:
                cert["base_menu"] = base_idx
                return AnomalyCategory(tag, cert)
    return AnomalyCategory("other", {})


def _subsets(indices):
    for size in (1, 2):
        yield from itertools.combinations(indices, size)


def decompose_shared_components(lot_a: Lottery, lot_b: Lottery,
                                tol: float = DEFAULT_TOL):
    """Write both lotteries as mixtures of the same two components.

    Solves lot = alpha * comp1 + (1 - alpha) * comp2 where each component is
    supported on at most two of the merged payoffs.  Geometrically: the line
    through the two probability vectors must cross both component faces of the
    simplex.  Returns the first feasible split in canonical order, with comp1
    normalized to the higher-expected-value component.
    """
    grid = merge_payoff_grid([lot_a, lot_b])
    k = grid.size
    if k > 3:
        raise ValueError("shared-component decomposition expects <= 3 payoffs")
    pa = probs_on_grid(lot_a, grid)
    pb = probs_on_grid(lot_b, grid)
    if k == 1:
        comp = Lottery(grid, np.ones(1))
        return {"comp1": comp, "comp2": comp, "alpha_a": 1.0, "alpha_b": 1.0}

    d = pb - pa
    if np.max(np.abs(d)) <= tol:
        # Identical lotteries: split off the first support payoff.
        i = int(np.argmax(pa > tol))
        alpha = float(pa[i])
        comp1 = Lottery(grid[[i]], np.ones(1))
        rest = pa.copy()
        rest[i] = 0.0
        if rest.sum() <= tol:
            comp2 = comp1
        else:
            keep = rest > tol
            comp2 = Lottery(grid[keep], rest[keep] / rest[keep].sum())
        return _orient(comp1, comp2, alpha, alpha)

    def face_param(vanish):
        """t with (pa + t d) zero on the vanish coordinates, or None."""
        ts = []
        for i in vanish:
            if abs(d[i]) <= 1e-14:
                if abs(pa[i]) > tol:
                    return None
            else:
                ts.append(-pa[i] / d[i])
        if not ts:
            return None
        t = float(np.mean(ts))
        q = pa + t * d
        if np.any(np.abs(q[list(vanish)]) > tol) or np.any(q < -tol):
            return None
        return t

    indices = tuple(range(k))
    for s1 in _subsets(indices):
        for s2 in _subsets(indices):
            if s1 == s2 or set(s1) | set(s2) != set(indices):
                continue
            t1 = face_param([i for i in indices if i not in s1])
            t2 = face_param([i for i in indices if i not in s2])
            if t1 is None or t2 is None or abs(t1 - t2) <= 1e-12:
                continue
            alpha_a = (0.0 - t2) / (t1 - t2)
            alpha_b = (1.0 - t2) / (t1 - t2)
            if not (-tol <= alpha_a <= 1 + tol and -tol <= alpha_b <= 1 + tol):
                continue
            q1 = np.clip(pa + t1 * d, 0.0, None)
            q2 = np.clip(pa + t2 * d, 0.0, None)
            comp1 = Lottery(grid, q1 / q1.sum())
            comp2 = Lottery(grid, q2 / q2.sum())
            return _orient(comp1, comp2, float(np.clip(alpha_a, 0, 1)),
                           float(np.clip(alpha_b, 0, 1)))
    return None


def _orient(comp1: Lottery, comp2: Lottery, alpha_a: float, alpha_b: float) -> dict:
    """Normalize labeling: comp1 is the higher-expected-value component."""
    if lottery_stats(comp2).expected_value > lottery_stats(comp1).expected_value:
        comp1, comp2 = comp2, comp1
        alpha_a, alpha_b = 1.0 - alpha_a, 1.0 - alpha_b
    return {"comp1": comp1, "comp2": comp2, "alpha_a": alpha_a, "alpha_b": alpha_b}


def categorize_three_payoff(collection: ExampleCollection,
                            tol: float = DEFAULT_TOL) -> AnomalyCategory:
    """Category of a verified two-menu anomaly over three-payoff lotteries."""
    if len(collection) != 2:
        raise ValueError("expected a two-menu collection")
    fosd_cert = _fosd_certificate(collection)
    if fosd_cert is not None:
        return AnomalyCategory("fosd", fosd_cert)
    menu_a, menu_b = collection.menus
    choice_a, choice_b = (int(c) for c in collection.implied_choices)
    if choice_a == choice_b:
        return AnomalyCategory("other", {})
    decs = {}
    for j in (0, 1):
        try:
            dec = decompose_shared_components(
                menu_a.lottery1 if j == 1 else menu_a.lottery0,
                menu_b.lottery1 if j == 1 else menu_b.lottery0, tol)
        except ValueError:
            dec = None
        if dec is None:
            return AnomalyCategory("other", {})
        decs[j] = dec
    for j in (0, 1):
        dec = decs[j]
        if fosd_compare(dec["comp1"], dec["comp2"]) is not FosdOrder.A_DOMINATES:
            continue
        delta_alpha = dec["alpha_b"] - dec["alpha_a"]
        moved_to_j = choice_b == j
        # Reversal: the lottery's dominating-component weight moves against
        # the direction of the choice switch.
        if (moved_to_j and delta_alpha < -tol) or (not moved_to_j and delta_alpha > tol):
            cert = {
                "family": j,
                "alpha_a": {i: decs[i]["alpha_a"] for i in (0, 1)},
                "alpha_b": {i: decs[i]["alpha_b"] for i in (0, 1)},
                "comp1": dec["comp1"].to_json_dict(),
                "comp2": dec["comp2"].to_json_dict(),
                "choices": [choice_a, choice_b],
                "tol": tol,
            }
            return AnomalyCategory("shared_component_reversal", cert)
    return AnomalyCategory("other", {})


def check_certificate(category: AnomalyCategory, collection: ExampleCollection) -> bool:
    """Re-derive every inequality in a certificate from the raw menus."""
    tag, cert = category.tag, category.certificate
    if tag == "other":
        return True
    if not cert:
        raise ValueError("missing certificate")
    choices = collection.implied_choices
    menus = collection.menus
    if tag == "fosd":
        example = collection.examples[cert["menu_index"]]
        menu = example.menu
        chosen = menu.lottery1 if example.implied_choice == 1 else menu.lottery0
        other = menu.lottery0 if example.implied_choice == 1 else menu.lottery1
        return (fosd_compare(other, chosen) is FosdOrder.A_DOMINATES
                and example.implied_choice == cert["implied_choice"])
    if tag in _PATTERNS:
        tol = cert.get("tol", DEFAULT_TOL)
        base_idx = cert["base_menu"]
        comp_idx = 1 - base_idx
        roles = cert["roles"]
        base, comp = menus[base_idx], menus[comp_idx]
        ell0 = base.lottery0 if roles["ell0"] == 0 else base.lottery1
        ell1 = base.lottery0 if roles["ell1"] == 0 else base.lottery1
        comp0 = comp.lottery0 if roles["comp0"] == 0 else comp.lottery1
        comp1 = comp.lottery0 if roles["comp1"] == 0 else comp.lottery1
        if choices[base_idx] != roles["ell1"] or choices[comp_idx] != roles["comp0"]:
            return False
        if not _pattern_conditions(tag, ell0, ell1):
            return False
        side0, side1, alpha_cond = _PATTERNS[tag]
        a0 = solve_degenerate_mix(ell0, comp0, _anchor(ell0, side0), tol)
        a1 = solve_degenerate_mix(ell1, comp1, _anchor(ell1, side1), tol)
        if a0 is None or a1 is None:
            return False
        if abs(a0 - cert["alpha0"]) > tol or abs(a1 - cert["alpha1"]) > tol:
            return False
        if alpha_cond == "alpha1_ge_alpha0" and a1 < a0 - tol:
            return False
        if alpha_cond == "alpha0_ge_alpha1" and a0 < a1 - tol:
            return False
        if cert.get("common_ratio") and abs(a0 - a1) > tol:
            return False
        return True
    if tag == "shared_component_reversal":
        tol = cert.get("tol", DEFAULT_TOL)
        j = cert["family"]
        menu_a, menu_b = menus
        try:
            dec = decompose_shared_components(
                menu_a.lottery1 if j == 1 else menu_a.lottery0,
                menu_b.lottery1 if j == 1 else menu_b.lottery0, tol)
        except ValueError:
            return False
        if dec is None:
            return False
        if fosd_compare(dec["comp1"], dec["comp2"]) is not FosdOrder.A_DOMINATES:
            return False
        if list(choices) != cert["choices"] or choices[0] == choices[1]:
            return False
        delta_alpha = dec["alpha_b"] - dec["alpha_a"]
        moved_to_j = choices[1] == j
        return bool((moved_to_j and delta_alpha < -tol)
                    or (not moved_to_j and delta_alpha > tol))
    raise ValueError(f"unknown category tag {tag!r}")


def categorize(collection: ExampleCollection, tol: float = DEFAULT_TOL) -> AnomalyCategory:
    """Dispatch on the menus' payoff arity."""
    J = collection.menus[0].n_payoffs
    if len(collection) == 1:
        cert = _fosd_certificate(collection)
        if cert is not None:
            return AnomalyCategory("fosd", cert)
        return AnomalyCategory("other", {})
    if J <= 2:
        return categorize_two_payoff(collection, tol)
    return categorize_three_payoff(collection, tol)
