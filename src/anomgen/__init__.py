"""Anomaly generation for expected utility theory from predictive choice models.

The exported names load on first access (PEP 562), so ``import anomgen`` or
a command that imports one submodule loads only the modules it uses.
"""

import importlib
import sys
import types

# Each exported name and the submodule that defines it.
_NAMES = {name: module for module, names in {
    "lotteries": "Collection draw_menus fosd_dominates lottery_stats project_to_simplex",
    "cpt": "CptParams CptPredictor lottery_values",
    "basis": "ISplineBasis PolynomialBasis basis_from_config",
    "records": "record_to_collection",
    "verifier": "VerificationResult minimal_anomaly verify_collection verify_parametrized",
    "categorize": "AnomalyCategory categorize check_certificate decompose_shared_components "
                  "solve_degenerate_mix",
    "config": "GdaConfig MorphConfig parse_config",
    "adversarial": "run_adversarial_indices",
    "morphing": "run_morph_indices",
}.items() for name in names.split()}
# The submodules exported as modules.
_MODULES = ("adversarial", "basis", "config", "cpt", "data", "lotteries", "morphing",
            "records", "simplex_lp", "theory", "verifier")

__all__ = sorted({*_NAMES, *_MODULES})


def __getattr__(name):
    if name in _NAMES:
        value = getattr(importlib.import_module(f".{_NAMES[name]}", __name__), name)
    elif name in _MODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """The package: importing a submodule binds it here by its name, except
    over an exported name, so ``anomgen.categorize`` stays the function
    whichever loads first."""

    def __setattr__(self, name, value):
        if not (name in _NAMES and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
