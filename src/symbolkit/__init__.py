"""Toolkit for Levy-type processes with killing: symbol evaluation,
path simulation on the extended state space, generalized scaling
indices and compensator diagnostics.

The names below are re-exported from their submodules on first use
(PEP 562), so ``import symbolkit`` loads no submodule and
``import symbolkit.config`` loads only what ``config`` imports.
"""

import importlib

__version__ = "0.1.0"

# Exported name -> the submodule that defines it.
_SUBMODULE = {
    name: module
    for module, names in {
        "expr": ("Expression", "parse_expression"),
        "extended": ("ExtPoint", "KillingTimes", "Path", "PointKind",
                     "UndefinedExtendedOperation", "classify_killing", "e_xi",
                     "ext_add", "ext_norm", "ext_scale"),
        "triplet": ("ConditionEstimate", "CutoffFunction", "DensityMeasure",
                    "DiscreteMeasure", "LevyTriplet", "StableMeasure", "StateModel",
                    "ZeroMeasure", "check_growth", "check_sector", "eval_exponent",
                    "eval_symbol"),
        "simulate": ("Ensemble", "PathSampler", "SimSpec", "sample_autonomous",
                     "sample_levy", "sample_sde"),
        "symbol": ("ProbeSettings", "SymbolReport", "estimate_symbol",
                   "estimate_symbol_grid", "symbol_independence_check"),
        "indices": ("IndexReport", "estimate_indices", "kappa", "quantity_H",
                    "quantity_h", "scaling_diagnostic", "verify_maximal_inequality"),
        "martingale": ("TruncationDecomposition", "canonical_representation_residual",
                       "exponential_martingale_check", "killing_compensator_check",
                       "truncate_jumps"),
        "config": ("bundled_model_path", "load_model"),
    }.items()
    for name in names
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
