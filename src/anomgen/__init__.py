"""Anomaly generation for expected utility theory from predictive choice models."""

from .lotteries import (Collection, FosdOrder, draw_menus, fosd_compare, lottery_stats,
                        project_to_simplex)
from .cpt import CptParams, CptPredictor, lottery_values
from .basis import ISplineBasis, PolynomialBasis, basis_from_config
from .records import record_to_collection
from .verifier import (VerificationResult, minimal_anomaly, verify_collection,
                       verify_increasing_utility, verify_parametrized)
from .categorize import (AnomalyCategory, categorize, categorize_three_payoff,
                         categorize_two_payoff, check_certificate,
                         decompose_shared_components, solve_degenerate_mix)
from .adversarial import GdaConfig, run_adversarial_indices
from .morphing import MorphConfig, run_morph_indices

__all__ = [name for name in dir() if not name.startswith("_")]
