"""Closed-form choice-probability oracle with Lattimore probability weighting.

A lottery (z, p) is valued as sum_j w_j(p) * z_j where
``w_j = delta p_j^gamma / (delta p_j^gamma + sum_{k!=j} p_k^gamma)``, and the
probability of choosing lottery 1 from a menu is the logistic of the value
difference.  Weights need not sum to one: delta < 1 gives subcertainty
(pessimism), delta > 1 supercertainty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lotteries import Lottery, Menu

# Calibrated (delta, gamma) presets used throughout the experiments.
PRESETS = {
    "bruhin-a": (0.926, 0.377),
    "bruhin-b": (0.726, 0.309),
    "bruhin-c": (1.063, 0.451),
}

# Probability coordinates below this are treated as boundary points: the
# weighting function is not differentiable at p_j = 0.
GRAD_BOUNDARY = 1e-8


@dataclass(frozen=True)
class CptParams:
    delta: float
    gamma: float

    def __post_init__(self):
        if not (self.delta > 0 and self.gamma > 0):
            raise ValueError("delta and gamma must be strictly positive")

    @classmethod
    def preset(cls, name: str) -> "CptParams":
        if name not in PRESETS:
            raise KeyError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
        return cls(*PRESETS[name])


def logistic(u):
    """Numerically stable standard logistic: one ``exp``, of ``-|u|``."""
    u = np.asarray(u, dtype=float)
    e = np.exp(-np.abs(u))
    out = np.where(u >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    if out.ndim == 0:
        return float(out)
    return out


def prob_weights(p, params: CptParams) -> np.ndarray:
    """Weight vector for a probability vector on the simplex.

    Convention: 0^gamma = 0, and a weight is 0 whenever its denominator is 0.
    """
    p = np.asarray(p, dtype=float)
    if p.size == 0:
        raise ValueError("empty probability vector")
    w = np.where(p > 0.0, np.power(np.clip(p, 1e-300, None), params.gamma), 0.0)
    total = w.sum()
    denom = params.delta * w + (total - w)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(denom > 0.0, params.delta * w / np.where(denom > 0, denom, 1.0), 0.0)
    return out


def cpt_value(lottery: Lottery, params: CptParams) -> float:
    """Weighted payoff sum with linear utility."""
    return float(prob_weights(lottery.probs, params) @ lottery.payoffs)


def choice_prob(menu: Menu, params: CptParams, scale: float = 1.0) -> float:
    """P(choose lottery 1) = logistic(scale * CPT-value difference)."""
    diff = cpt_value(menu.lottery1, params) - cpt_value(menu.lottery0, params)
    return logistic(scale * diff)


def _value_grads(lottery: Lottery, params: CptParams) -> np.ndarray:
    """dV/dp for one lottery; requires interior probabilities."""
    z, p = lottery.payoffs, lottery.probs
    d, g = params.delta, params.gamma
    w = np.power(p, g)
    total = w.sum()
    denom = d * w + (total - w)
    wp = g * np.power(p, g - 1.0)  # dw_j/dp_j
    # dpi_j/dp_i = -d w_j wp_i / denom_j^2 for i != j,
    # dpi_j/dp_j = d wp_j (total - w_j) / denom_j^2.
    common = d * w / denom ** 2          # row j factor for off-diagonal terms
    dv_dp = np.empty_like(p)
    for i in range(p.size):
        diag = d * wp[i] * (total - w[i]) / denom[i] ** 2 * z[i]
        off = -(wp[i] * common * z).sum() + wp[i] * common[i] * z[i]
        dv_dp[i] = diag + off
    return dv_dp


def choice_prob_grad(menu: Menu, params: CptParams, scale: float = 1.0) -> np.ndarray:
    """Analytic gradient of choice_prob over the probabilities (p0, p1).

    Payoffs never move in the searches, so only the 2J probability
    coordinates are differentiated.

    Raises if any probability coordinate is below the boundary tolerance;
    callers clamp iterates into the interior before differentiating.
    """
    for lot in (menu.lottery0, menu.lottery1):
        if np.any(lot.probs < GRAD_BOUNDARY):
            raise ValueError("probability coordinate at the simplex boundary")
    f = choice_prob(menu, params, scale)
    slope = scale * f * (1.0 - f)
    return slope * np.concatenate([-_value_grads(menu.lottery0, params),
                                   _value_grads(menu.lottery1, params)])


class CptPredictor:
    """Predictor handle backed by the closed-form oracle."""

    def __init__(self, params: CptParams, scale: float = 1.0, label: str | None = None):
        self.params = params
        self.scale = scale
        self.label = label or f"cpt({params.delta:g},{params.gamma:g})"

    def predict(self, menu: Menu) -> float:
        return choice_prob(menu, self.params, self.scale)

    def grad(self, menu: Menu) -> np.ndarray:
        return choice_prob_grad(menu, self.params, self.scale)


def simulate_choices(rng: np.random.Generator, menus, params: CptParams,
                     kind: str = "binary", count: int = 1, scale: float = 1.0):
    """Simulate a choice dataset from the oracle.

    ``binary`` draws one Bernoulli(f*(x)) outcome per menu; ``rate`` records
    the empirical mean of ``count`` draws.
    """
    from .data import ChoiceDataset, ChoiceRow

    if kind not in ("binary", "rate"):
        raise ValueError("kind must be 'binary' or 'rate'")
    if kind == "rate" and count < 1:
        raise ValueError("rate mode needs count >= 1")
    rows = []
    for menu in menus:
        f = choice_prob(menu, params, scale)
        if kind == "binary":
            y = float(rng.random() < f)
        else:
            y = float((rng.random(count) < f).mean())
        rows.append(ChoiceRow(menu=menu, outcome=y, outcome_kind=kind))
    return ChoiceDataset(rows)
