"""Anomaly generation for expected utility theory from predictive choice models."""

from .lotteries import Collection, draw_menus, fosd_dominates, lottery_stats, project_to_simplex
from .cpt import CptParams, CptPredictor, lottery_values
from .basis import ISplineBasis, PolynomialBasis, basis_from_config
from .records import record_to_collection
from .verifier import VerificationResult, minimal_anomaly, verify_collection, verify_parametrized
from .categorize import (AnomalyCategory, categorize, check_certificate,
                         decompose_shared_components, solve_degenerate_mix)
from .adversarial import GdaConfig, run_adversarial_indices
from .morphing import MorphConfig, run_morph_indices
from .config import parse_config

__all__ = [name for name in dir() if not name.startswith("_")]
