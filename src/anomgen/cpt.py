"""Closed-form choice-probability oracle with Lattimore probability weighting.

A lottery (z, p) is valued as sum_j w_j(p) * z_j where
``w_j = delta p_j^gamma / (delta p_j^gamma + sum_{k!=j} p_k^gamma)``, and the
probability of choosing lottery 1 from a menu is the logistic of the value
difference.  Weights need not sum to one: delta < 1 gives subcertainty
(pessimism), delta > 1 supercertainty.

``CptPredictor`` is the oracle as a predictor handle, which
``config.build_predictor`` builds; the module imports ``lotteries`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lotteries import LOTTERY_SIGN

# Calibrated (delta, gamma) presets used throughout the experiments.
PRESETS = {
    "bruhin-a": (0.926, 0.377),
    "bruhin-b": (0.726, 0.309),
    "bruhin-c": (1.063, 0.451),
}

# Probability coordinates below this are treated as boundary points: the
# weighting function is not differentiable at p_j = 0.  The searches lift
# their menus this far inside before differentiating
# (``adversarial.interior_menu``).
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
    return np.where(u >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def lottery_values(Z, P, params: CptParams, wrt: str | None = None):
    """Values of the lotteries in (..., J) payoff and probability arrays.

    The one implementation of the weighting formula, with 0^gamma = 0; every
    lottery needs some positive probability.  ``wrt="p"`` also returns
    dV/dp, shape (..., J), and raises if a probability is below
    ``GRAD_BOUNDARY``; ``wrt="params"`` also returns dV/d(delta) and
    dV/d(gamma).  Derivatives not asked for are not computed.
    """
    if P.shape[-1] == 0:
        raise ValueError("empty probability vector")
    d, g = params.delta, params.gamma
    W = np.where(P > 0.0, np.power(np.clip(P, 1e-300, None), g), 0.0)
    T = W.sum(axis=-1, keepdims=True)
    D = d * W + (T - W)                  # positive when some probability is
    pi = d * W / D
    V = np.matmul(pi[..., None, :], Z[..., :, None])[..., 0, 0]
    if wrt is None:
        return V
    if wrt == "p":
        if np.any(P < GRAD_BOUNDARY):
            raise ValueError("probability coordinate at the simplex boundary")
        # dpi_j/dp_i = -d w_j w'_i / D_j^2 for i != j and
        # d w'_j (T - w_j) / D_j^2 for i = j, with w' = dw/dp.  The diagonal
        # squares through C pow (float_power), not x*x: the two differ in the
        # last bit on some inputs, and search outputs are byte-compared.
        Wp = g * np.power(P, g - 1.0)
        common = d * W / D ** 2
        diag = d * Wp * (T - W) / np.float_power(D, 2) * Z
        off = (Wp[..., :, None] * common[..., None, :] * Z[..., None, :]).sum(axis=-1)
        return V, diag + (-off + Wp * common * Z)
    if wrt == "params":
        Wg = W * np.where(P > 0.0, np.log(np.clip(P, 1e-300, None)), 0.0)  # dW/dgamma
        Dg = d * Wg + (Wg.sum(axis=-1, keepdims=True) - Wg)
        dpi_dd = W * (T - W) / D ** 2
        dpi_dg = d * (Wg * D - W * Dg) / D ** 2
        return V, (dpi_dd * Z).sum(axis=-1), (dpi_dg * Z).sum(axis=-1)
    raise ValueError(f"unknown derivative {wrt!r}")


class CptPredictor:
    """Predictor handle backed by the closed-form oracle.

    ``predict_batch`` and ``grad_batch`` take (R, 2, J) payoff and
    probability stacks, lottery 0 first; one menu is a stack of one.  The
    kernel acts row by row, so a row's bytes do not depend on the stack it
    sits in.
    """

    def __init__(self, params: CptParams, scale: float = 1.0, label: str | None = None):
        self.params = params
        self.scale = scale
        self.label = label or f"cpt({params.delta:g},{params.gamma:g})"

    def predict_batch(self, Z: np.ndarray, P: np.ndarray) -> np.ndarray:
        V = lottery_values(Z, P, self.params)
        return logistic(self.scale * (V[..., 1] - V[..., 0]))

    def grad_batch(self, Z: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(f, df/dp): choice probabilities (R,) from the same kernel call
        as ``predict_batch``, and their gradients (R, 2, J) over (p0, p1)."""
        V, dV = lottery_values(Z, P, self.params, wrt="p")
        f = logistic(self.scale * (V[..., 1] - V[..., 0]))
        slope = self.scale * f * (1.0 - f)
        return f, slope[..., None, None] * (LOTTERY_SIGN * dV)
