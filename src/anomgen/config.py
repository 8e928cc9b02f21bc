"""Pipeline configuration: JSON in, validated dataclass out, defaults filled.

Unknown keys are rejected with their path so config typos fail loudly before
a long batch run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .adversarial import DEFAULT_BASIS
from .cpt import PRESETS
from .morphing import DEFAULT_BASIS as MORPH_BASIS


class ConfigError(ValueError):
    pass


def _take(section: dict, path: str, key: str, default, check=None):
    value = section.pop(key, default)
    if check is not None and not check(value):
        raise ConfigError(f"{path}.{key}: invalid value {value!r}")
    return value


def _reject_unknown(section: dict, path: str):
    if section:
        key = next(iter(section))
        full = f"{path}.{key}" if path else key
        raise ConfigError(f"unknown key {full!r}")


@dataclass
class PredictorSection:
    kind: str = "cpt"                   # cpt | mlp | cpt_fit
    preset: str = "bruhin-b"
    delta: float | None = None
    gamma: float | None = None
    model_path: str | None = None
    dataset_path: str | None = None
    scale: float = 1.0


@dataclass
class SearchSection:
    step_size: float
    max_iters: int = 50
    inits: int = 100
    n_gradient_samples: int = 2_000
    rank_tol: float = 0.1
    basis: dict = field(default_factory=dict)


@dataclass
class PipelineConfig:
    predictor: PredictorSection
    theory_basis: dict
    adversarial: SearchSection
    morph: SearchSection
    kl_threshold: float = 1e-5
    margin_threshold: float = 1e-9
    clusters: int = 4
    n_payoffs: int = 2
    seed: int = 0
    workers: int = 1


def parse_config(raw: dict) -> PipelineConfig:
    raw = dict(raw)
    pred_raw = dict(raw.pop("predictor", {}))
    predictor = PredictorSection(
        kind=_take(pred_raw, "predictor", "kind", "cpt",
                   lambda v: v in ("cpt", "mlp", "cpt_fit")),
        preset=_take(pred_raw, "predictor", "preset", "bruhin-b",
                     lambda v: v is None or v in PRESETS),
        delta=_take(pred_raw, "predictor", "delta", None),
        gamma=_take(pred_raw, "predictor", "gamma", None),
        model_path=_take(pred_raw, "predictor", "model_path", None),
        dataset_path=_take(pred_raw, "predictor", "dataset_path", None),
        scale=_take(pred_raw, "predictor", "scale", 1.0, lambda v: v > 0),
    )
    _reject_unknown(pred_raw, "predictor")

    theory_raw = dict(raw.pop("theory", {}))
    theory_basis = {**DEFAULT_BASIS, **_take(theory_raw, "theory", "basis", {},
                                             lambda v: isinstance(v, dict))}
    _reject_unknown(theory_raw, "theory")

    adv_raw = dict(raw.pop("adversarial", {}))
    adversarial = SearchSection(
        step_size=_take(adv_raw, "adversarial", "step_size", 0.01, lambda v: v > 0),
        max_iters=_take(adv_raw, "adversarial", "max_iters", 50, lambda v: v >= 1),
        inits=_take(adv_raw, "adversarial", "inits", 100, lambda v: v >= 0),
        basis=_take(adv_raw, "adversarial", "basis", {},
                    lambda v: isinstance(v, dict)),
    )
    _reject_unknown(adv_raw, "adversarial")

    morph_raw = dict(raw.pop("morph", {}))
    morph = SearchSection(
        step_size=_take(morph_raw, "morph", "step_size", 10.0, lambda v: v > 0),
        max_iters=_take(morph_raw, "morph", "max_iters", 50, lambda v: v >= 1),
        inits=_take(morph_raw, "morph", "inits", 100, lambda v: v >= 0),
        n_gradient_samples=_take(morph_raw, "morph", "n_gradient_samples", 2_000,
                                 lambda v: v >= 1),
        rank_tol=_take(morph_raw, "morph", "rank_tol", 0.1, lambda v: v > 0),
        basis=_take(morph_raw, "morph", "basis", {}, lambda v: isinstance(v, dict)),
    )
    _reject_unknown(morph_raw, "morph")

    ver_raw = dict(raw.pop("verification", {}))
    kl_threshold = _take(ver_raw, "verification", "kl_threshold", 1e-5,
                         lambda v: v > 0)
    margin_threshold = _take(ver_raw, "verification", "margin_threshold", 1e-9,
                             lambda v: v > 0)
    _reject_unknown(ver_raw, "verification")

    ana_raw = dict(raw.pop("analysis", {}))
    clusters = _take(ana_raw, "analysis", "clusters", 4, lambda v: v >= 1)
    _reject_unknown(ana_raw, "analysis")

    cfg = PipelineConfig(
        predictor=predictor,
        theory_basis=theory_basis,
        adversarial=adversarial,
        morph=morph,
        kl_threshold=kl_threshold,
        margin_threshold=margin_threshold,
        clusters=clusters,
        n_payoffs=_take(raw, "", "n_payoffs", 2, lambda v: v in (2, 3)),
        seed=_take(raw, "", "seed", 0),
        workers=_take(raw, "", "workers", 1, lambda v: v >= 1),
    )
    _reject_unknown(raw, "")
    if not cfg.adversarial.basis:
        cfg.adversarial.basis = dict(theory_basis)
    else:
        cfg.adversarial.basis = {**DEFAULT_BASIS, **cfg.adversarial.basis}
    if not cfg.morph.basis:
        cfg.morph.basis = {**MORPH_BASIS, "domain": list(theory_basis["domain"])}
    else:
        cfg.morph.basis = {**MORPH_BASIS, **cfg.morph.basis}
    return cfg


def load_config(path) -> PipelineConfig:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return parse_config(raw)


def build_predictor(section: PredictorSection):
    """Materialize the configured predictor handle."""
    from .cpt import CptParams, CptPredictor
    from .predictor import MlpModel, MlpPredictor, cpt_fit_predictor
    from .data import load_dataset

    if section.kind == "cpt":
        if section.delta is not None and section.gamma is not None:
            params = CptParams(section.delta, section.gamma)
            label = f"cpt({section.delta:g},{section.gamma:g})"
        else:
            params = CptParams.preset(section.preset)
            label = f"cpt:{section.preset}"
        return CptPredictor(params, scale=section.scale, label=label)
    if section.kind == "mlp":
        if not section.model_path:
            raise ConfigError("predictor.model_path required for kind 'mlp'")
        return MlpPredictor(MlpModel.load(section.model_path),
                            label=f"mlp:{section.model_path}")
    if section.kind == "cpt_fit":
        if not section.dataset_path:
            raise ConfigError("predictor.dataset_path required for kind 'cpt_fit'")
        ds = load_dataset(section.dataset_path)
        return cpt_fit_predictor(ds, scale=section.scale)
    raise ConfigError(f"unknown predictor kind {section.kind!r}")
