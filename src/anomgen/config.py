"""Pipeline configuration: JSON in, validated dataclasses out.

This module holds every setting: the search sections' dataclasses
(``GdaConfig``, ``MorphConfig``), the verifier's default thresholds and the
smallest rank cutoff, beside the parser.  It imports only ``basis`` and
``cpt``, so a command pays for the modules it runs and no others.  The
predictor section is every command's one source of choice probabilities:
the oracle at a preset or at the (delta, gamma) ``fit-cpt`` writes, or an
MLP.  Each search section parses straight into its search's config type,
which holds only that search's settings, and a key left out takes that
dataclass field's default.  The menu description (``n_payoffs``,
``theory_basis``) and the run address (``seed``) live in ``PipelineConfig``
alone, and every generator takes it; no byte depends on a batch's run and
worker counts, which are flags only.  Each value is checked here, once;
unknown keys and bad values are rejected with their path so config typos
fail loudly before a long batch run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .basis import BASES
from .cpt import PRESETS, CptParams, CptPredictor

# The verifier's default thresholds: the best logit-EUT fit's mean KL above
# which a collection is parametrized-inconsistent, and the value (the
# verifier's margin) a collection's menu tails must exceed for some
# increasing utility to rationalize its choices.
DEFAULT_KL_THRESHOLD = 1e-5
MARGIN_THRESHOLD = 1e-9
# Smallest rank cutoff a morph step accepts.  The eigenvalue cutoff is
# rank_tol**2 times the largest eigenvalue, and ``MorphConfig.rank_tol`` is
# calibrated against the spread the covariance jitter adds: a run's first
# step draws from the jitter alone, and on the desk setting's first steps
# (300 runs; seeds 23 and 1729 at J = 2, 23 at J = 3) its Gram matrices
# hold second eigenvalues up to (4.9e-4)**2 of the first.  Below 1e-2 the
# cutoff ends most runs after about one step (README).
MIN_RANK_TOL = 1e-2


class ConfigError(ValueError):
    pass


def _number(v) -> bool:
    # A finite JSON number: bool is an int subclass, and JSON reads Infinity.
    return type(v) in (int, float) and abs(v) < math.inf


def _positive(v):
    return _number(v) and v > 0


def _count(minimum: int):
    # bool is an int subclass and a float count fails later inside range().
    return lambda v: type(v) is int and v >= minimum


# Each basis kind's defaults, and the check of every key some kind takes.
_BASIS_DEFAULTS = {cls.kind: cls().config_dict() for cls in BASES}
_BASIS_CHECKS = {"kind": None, "order": _count(1), "knots": _count(2), "degree": _count(1),
                 "domain": lambda v: type(v) is list and len(v) == 2
                 and all(map(_number, v)) and 0 < v[1] - v[0] < math.inf}
# Each predictor kind's keys and their checks: the oracle's weighting and
# logit scale, or the network's file.
_PREDICTOR_CHECKS = {
    "cpt": {"kind": None, "preset": lambda v: v in PRESETS, "delta": _positive,
            "gamma": _positive, "scale": _positive},
    "mlp": {"kind": None, "model_path": None}}


def _kind(section, path: str, kinds: dict) -> str:
    """The kind ``section`` names, by default the first of ``kinds``; a kind
    ``kinds`` does not hold is rejected with its path."""
    kind = next(iter(kinds))
    if isinstance(section, dict):
        kind = section.get("kind", kind)
    if not (isinstance(kind, str) and kind in kinds):
        raise ConfigError(f"{path}.kind: invalid value {kind!r}")
    return kind


def _pick(section, path: str, checks: dict) -> dict:
    """``section`` with each key checked by ``checks[key]`` (None: no check).

    A key ``checks`` does not name is rejected.  Keys left out stay out, so the
    dataclass built from the result supplies its own defaults.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: must be a JSON object")
    prefix = f"{path}." if path else ""
    for key, value in section.items():
        if key not in checks:
            raise ConfigError(f"unknown key {prefix + key!r}")
        try:
            ok = checks[key] is None or checks[key](value)
        except TypeError:
            ok = False
        if not ok:
            raise ConfigError(f"{prefix}{key}: invalid value {value!r}")
    return dict(section)


@dataclass(frozen=True)
class GdaConfig:
    step_size: float = 0.01
    max_iters: int = 50


@dataclass(frozen=True)
class MorphConfig:
    step_size: float = 10.0
    max_iters: int = 50
    n_gradient_samples: int = 2_000     # paper-scale runs use 200,000
    # Rank cutoff separating genuinely pinned directions from covariance
    # jitter.  First steps' expected Gram matrices, from jitter alone, have
    # second eigenvalues whose square roots reach ~5e-4 of the first's, and
    # cutoffs below ~1e-2 treat the span as full-rank after about one step.
    rank_tol: float = 0.1


@dataclass
class PredictorSection:
    kind: str = "cpt"                   # cpt | mlp
    preset: str = "bruhin-b"
    delta: float | None = None          # with gamma, overrides the preset
    gamma: float | None = None
    model_path: str | None = None
    scale: float = 1.0


@dataclass
class PipelineConfig:
    predictor: PredictorSection
    theory_basis: dict
    adversarial: GdaConfig
    morph: MorphConfig
    kl_threshold: float = DEFAULT_KL_THRESHOLD
    margin_threshold: float = MARGIN_THRESHOLD
    n_payoffs: int = 2
    seed: int = 0


def parse_config(raw: dict) -> PipelineConfig:
    raw = dict(raw)
    section = raw.pop("predictor", {})
    predictor = PredictorSection(**_pick(section, "predictor", _PREDICTOR_CHECKS[
        _kind(section, "predictor", _PREDICTOR_CHECKS)]))
    if (predictor.delta is None) != (predictor.gamma is None):
        raise ConfigError("predictor.delta and predictor.gamma must be given together")
    theory = _pick(raw.pop("theory", {}), "theory", {"basis": lambda v: isinstance(v, dict)})
    search = {"step_size": _positive, "max_iters": _count(1)}
    adversarial = _pick(raw.pop("adversarial", {}), "adversarial", search)
    morph = _pick(raw.pop("morph", {}), "morph", {
        **search, "n_gradient_samples": _count(1),
        "rank_tol": lambda v: _number(v) and v >= MIN_RANK_TOL})
    verification = _pick(raw.pop("verification", {}), "verification", {
        "kl_threshold": _positive, "margin_threshold": _positive})
    top = _pick(raw, "", {"n_payoffs": lambda v: v in (2, 3) and type(v) is int,
                          "seed": _count(0)})

    # The theory basis merges over the defaults of the kind it names.
    basis = theory.get("basis", {})
    defaults = _BASIS_DEFAULTS[_kind(basis, "theory.basis", _BASIS_DEFAULTS)]
    theory_basis = {**defaults, **_pick(basis, "theory.basis",
                                        {key: _BASIS_CHECKS[key] for key in defaults})}
    return PipelineConfig(predictor=predictor, theory_basis=theory_basis,
                          adversarial=GdaConfig(**adversarial), morph=MorphConfig(**morph),
                          **verification, **top)


def load_config(path) -> PipelineConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return parse_config(raw)


def build_predictor(section: PredictorSection):
    """Materialize the configured predictor handle: the ``mlp`` model, the
    one kind that loads the model module, or the oracle at the explicit
    (delta, gamma) when given, else at the preset."""
    if section.kind == "mlp":
        if not section.model_path:
            raise ConfigError("predictor.model_path required for kind 'mlp'")
        from .predictor import MlpModel, MlpPredictor

        return MlpPredictor(MlpModel.load(section.model_path), label=f"mlp:{section.model_path}")
    if section.delta is None:
        return CptPredictor(CptParams.preset(section.preset), scale=section.scale,
                            label=f"cpt:{section.preset}")
    return CptPredictor(CptParams(section.delta, section.gamma), scale=section.scale)
