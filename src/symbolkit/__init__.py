"""Toolkit for Levy-type processes with killing: symbol evaluation,
path simulation on the extended state space, generalized scaling
indices and compensator diagnostics."""

__version__ = "0.1.0"

from .expr import Expression, parse_expression
from .extended import (
    ExtPoint,
    KillingTimes,
    Path,
    PointKind,
    UndefinedExtendedOperation,
    classify_killing,
    e_xi,
    ext_add,
    ext_norm,
    ext_scale,
)
from .triplet import (
    ConditionEstimate,
    CutoffFunction,
    DensityMeasure,
    DiscreteMeasure,
    LevyTriplet,
    StableMeasure,
    StateModel,
    ZeroMeasure,
    check_growth,
    check_sector,
    eval_exponent,
    eval_symbol,
)
from .simulate import (
    Ensemble,
    PathSampler,
    SimSpec,
    sample_autonomous,
    sample_levy,
    sample_sde,
)
from .symbol import (
    ProbeSettings,
    SymbolReport,
    estimate_symbol,
    estimate_symbol_grid,
    symbol_independence_check,
)
from .indices import (
    IndexReport,
    estimate_indices,
    kappa,
    quantity_H,
    quantity_h,
    scaling_diagnostic,
    verify_maximal_inequality,
)
from .martingale import (
    TruncationDecomposition,
    canonical_representation_residual,
    exponential_martingale_check,
    killing_compensator_check,
    truncate_jumps,
)
from .config import bundled_model_path, load_model

__all__ = [name for name in dir() if not name.startswith("_")]
