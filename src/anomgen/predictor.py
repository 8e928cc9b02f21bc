"""Predictive choice models: a from-scratch MLP, and a parametric CPT fit that
runs ``theory.damped_newton``, the inner fit's stacked solver, on one problem.

Both expose the same handle surface as the closed-form oracle:
``predict_batch(Z, P)`` returning probabilities in (0, 1) for (R, 2, J)
payoff and probability stacks, ``grad_batch(Z, P)`` returning those
probabilities with their gradients (R, 2, J) over the probability coordinates
(p0, p1); one menu is a stack of one.  Payoffs never move in the searches, so
they are not differentiated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .cpt import CptParams, CptPredictor, logistic, lottery_values
from .data import ChoiceDataset
from .lotteries import flat_stack
from .theory import _clip_targets, _cross_entropy, damped_newton


# ---------------------------------------------------------------------------
# Multilayer perceptron
# ---------------------------------------------------------------------------

class MlpModel:
    """ReLU hidden layers, logistic output, fixed per-input scaling."""

    def __init__(self, widths, weights, biases, input_scaling):
        self.widths = list(widths)
        self.weights = [np.asarray(W, dtype=float) for W in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        self.input_scaling = np.asarray(input_scaling, dtype=float)
        if self.widths[-1] != 1:
            raise ValueError("output layer must have width 1")
        if len(self.weights) != len(self.widths) - 1:
            raise ValueError("weight count does not match layer count")
        for l, W in enumerate(self.weights):
            if W.shape != (self.widths[l], self.widths[l + 1]):
                raise ValueError(f"layer {l} weight shape {W.shape} inconsistent")
            if self.biases[l].shape != (self.widths[l + 1],):
                raise ValueError(f"layer {l} bias shape inconsistent")
            if not (np.all(np.isfinite(W)) and np.all(np.isfinite(self.biases[l]))):
                raise ValueError("non-finite parameter")
        if self.input_scaling.shape != (self.widths[0],):
            raise ValueError("input scaling length mismatch")

    @classmethod
    def init_random(cls, widths, input_scaling, seed: int = 0) -> "MlpModel":
        """Symmetric uniform init, a = sqrt(6 / (fan_in + fan_out))."""
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            a = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-a, a, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(widths, weights, biases, input_scaling)

    def copy(self) -> "MlpModel":
        return MlpModel(self.widths, [W.copy() for W in self.weights],
                        [b.copy() for b in self.biases], self.input_scaling.copy())

    def forward(self, X: np.ndarray, keep: bool = False):
        """Logits for a batch of scaled inputs; optionally keep activations.

        Inputs (N, width) give logits (N,); inputs (R, 1, width) give (R, 1)
        through stacked (1, width) products, one row at a time.
        """
        acts = [X]
        h = X
        for l, (W, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ W + b
            if l < len(self.weights) - 1:
                h = np.maximum(h, 0.0)
            if keep:
                acts.append(h)
        logits = h[:, 0]
        return (logits, acts) if keep else logits

    def predict_batch(self, X_raw: np.ndarray) -> np.ndarray:
        return logistic(self.forward(X_raw * self.input_scaling))

    def to_json_dict(self) -> dict:
        return {
            "widths": self.widths,
            "weights": [W.ravel().tolist() for W in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "input_scaling": self.input_scaling.tolist(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "MlpModel":
        widths = d["widths"]
        weights = [np.array(w).reshape(widths[l], widths[l + 1])
                   for l, w in enumerate(d["weights"])]
        return cls(widths, weights, [np.array(b) for b in d["biases"]],
                   np.array(d["input_scaling"]))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)

    @classmethod
    def load(cls, path) -> "MlpModel":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


# The width of the default payoff domain [0, 10]; MLP payoff inputs are divided by it.
PAYOFF_SCALE = 10.0


def menu_input_scaling(n_payoffs: int) -> np.ndarray:
    """Divide payoff coordinates by the sampling range so inputs lie in [0, 1]."""
    J = n_payoffs
    s = np.ones(4 * J)
    s[:J] = 1.0 / PAYOFF_SCALE
    s[2 * J:3 * J] = 1.0 / PAYOFF_SCALE
    return s


def _backprop(model: MlpModel, X: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Mean-CE gradients for all weights and biases on a scaled batch."""
    logits, acts = model.forward(X, keep=True)
    f = logistic(logits)
    wn = w / w.sum()
    delta = ((f - _clip_targets(y)) * wn)[:, None]
    gW, gb = [None] * len(model.weights), [None] * len(model.weights)
    for l in range(len(model.weights) - 1, -1, -1):
        inputs = acts[l]
        gW[l] = inputs.T @ delta
        gb[l] = delta.sum(axis=0)
        if l > 0:
            delta = delta @ model.weights[l].T
            delta[acts[l] <= 0.0] = 0.0
    return gW, gb


@dataclass(frozen=True)
class MlpTrainConfig:
    batch_size: int = 256
    epochs: int = 500
    step_size: float = 0.5
    seed: int = 0


# A diverging run overflows before its loss is checked; the check reports it.
@np.errstate(over="ignore", invalid="ignore")
def train_mlp(train: ChoiceDataset, hidden=(32, 32),
              config: MlpTrainConfig | None = None) -> MlpModel:
    """Mini-batch gradient descent on mean cross-entropy with soft labels.

    The full-set loss is monitored each epoch; an epoch that raises it is
    rolled back and the step size halved, so the recorded loss path is
    non-increasing.  Divergence (non-finite loss) aborts with diagnostics.
    """
    if len(train) == 0:
        raise ValueError("empty training set")
    cfg = config or MlpTrainConfig()
    J = train.Z.shape[-1]
    y, w = _clip_targets(train.outcomes), train.weights
    scaling = menu_input_scaling(J)
    X = flat_stack(train.Z, train.P) * scaling
    widths = [4 * J, *hidden, 1]
    model = MlpModel.init_random(widths, scaling, seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)

    step = cfg.step_size
    prev_loss = _cross_entropy(model.forward(X), y, w)
    snapshot = model.copy()
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(train))
        for start in range(0, len(train), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            gW, gb = _backprop(model, X[idx], y[idx], w[idx])
            for l in range(len(model.weights)):
                model.weights[l] -= step * gW[l]
                model.biases[l] -= step * gb[l]
        loss = _cross_entropy(model.forward(X), y, w)
        if not np.isfinite(loss):
            raise RuntimeError(
                f"training diverged at epoch {epoch} (step size {step}); "
                "lower the step size")
        if loss > prev_loss + 1e-12:
            model = snapshot.copy()
            step *= 0.5
        else:
            prev_loss = loss
            snapshot = model.copy()
    return model


class MlpPredictor:
    """Predictor handle backed by an ``MlpModel``.

    The batch methods push each row through its own stacked (1, width)
    products.  One (R, width) product would be faster, but BLAS blocks it
    differently at different R, so a row's bytes would depend on its batch.
    """

    def __init__(self, model: MlpModel, label: str = "mlp"):
        self.model = model
        self.label = label

    def _forward(self, Z: np.ndarray, P: np.ndarray):
        """Logits (R,) and the activations of ``MlpModel.forward`` on the
        scaled inputs as (R, 1, width) rows."""
        X = flat_stack(Z, P)
        if X.shape[-1] != self.model.widths[0]:
            raise ValueError("menu dimension does not match model input layer")
        logits, acts = self.model.forward((X * self.model.input_scaling)[:, None, :],
                                          keep=True)
        return logits[:, 0], acts

    def predict_batch(self, Z: np.ndarray, P: np.ndarray) -> np.ndarray:
        return logistic(self._forward(Z, P)[0])

    def grad_batch(self, Z: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(f, df/dp): ``predict_batch``'s probabilities and their gradients
        (R, 2, J) over (p0, p1).  Backpropagation yields all 4J input
        coordinates; the payoff entries are dropped."""
        logits, acts = self._forward(Z, P)
        weights = self.model.weights
        f = logistic(logits)
        delta = np.ones((f.size, 1, 1))
        for l in range(len(weights) - 1, 0, -1):
            delta = np.matmul(delta, weights[l].T)
            delta[acts[l] <= 0.0] = 0.0
        dx_scaled = np.matmul(delta, weights[0].T)[:, 0, :]
        grad = (f * (1.0 - f))[:, None] * dx_scaled * self.model.input_scaling
        return f, grad.reshape(f.size, 2, 2, -1)[:, :, 1, :]


# ---------------------------------------------------------------------------
# Parametric probability-weighting fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CptFit:
    params: CptParams
    cross_entropy: float
    converged: bool       # the gradient stop test holds at params
    iterations: int       # Newton steps taken


def _cpt_logits(Z: np.ndarray, P: np.ndarray, scale: float):
    """The weighting fit's logit map: x = log(delta, gamma) (1, 2) to the
    logits u (1, n) of menus Z, P (n, 2, J) and their Jacobian (1, n, 2)."""

    def logits(rows, x):
        V, *dV = lottery_values(Z, P, CptParams(*np.exp(x[0])), wrt="params")
        dV = np.stack(dV, axis=-1)                 # (row, lottery, parameter)
        return ((scale * (V[:, 1] - V[:, 0]))[None],
                (scale * (dV[:, 1] - dV[:, 0]) * np.exp(x[0]))[None])

    return logits


def fit_cpt_params(ds: ChoiceDataset, scale: float = 1.0) -> CptFit:
    """Max-likelihood probability-weighting parameters: ``damped_newton`` on
    (log delta, log gamma) from (1, 1), one problem with no ball (radius inf)
    and the dataset's row weights.  A direction the data cannot identify is
    left out of each Fisher step; the residual is the gradient norm, so
    ``converged`` says that it is at most ``KKT_TOL`` at the returned point."""
    if len(ds) == 0:
        raise ValueError("empty dataset")
    x, value, converged, steps = damped_newton(
        _cpt_logits(ds.Z, ds.P, scale), np.zeros((1, 2)),
        _clip_targets(ds.outcomes)[None], ds.weights[None], np.inf)
    return CptFit(CptParams(*map(float, np.exp(x[0]))), float(value[0]), bool(converged[0]),
                  int(steps[0]))


def cpt_fit_predictor(ds: ChoiceDataset, scale: float = 1.0) -> CptPredictor:
    fit = fit_cpt_params(ds, scale=scale)
    return CptPredictor(fit.params, scale=scale,
                        label=f"cpt-fit({fit.params.delta:.3f},{fit.params.gamma:.3f})")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def evaluate(handle, ds: ChoiceDataset) -> dict:
    """Row-weighted mean squared error and cross-entropy of a handle."""
    if len(ds) == 0:
        raise ValueError("empty dataset")
    y, w = ds.outcomes, ds.weights
    preds = handle.predict_batch(ds.Z, ds.P)
    yc, pc = _clip_targets(y), _clip_targets(preds)
    ce = float(np.average(-yc * np.log(pc) - (1 - yc) * np.log(1 - pc), weights=w))
    return {"mse": float(np.average((preds - y) ** 2, weights=w)), "cross_entropy": ce}
