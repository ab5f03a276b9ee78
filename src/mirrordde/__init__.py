"""mirrordde: a mirrored-time delay model of journal influence.

The package models the influence p(t) of a journal through the delay
relation p'(t) = a p(-t) + b p(t), provides closed-form solutions with an
independent Runge-Kutta oracle, recovers coefficients from sampled series
by least squares, and ranks journals from scientometric feature tables by
recursive l1-guided elimination.

Importing the package does not import numpy: the fitting and ranking names
are loaded from their modules on first access (PEP 562), and the array
kernels import numpy when they are first called.
"""

import importlib

from .core import (
    ControlConfig,
    DdeParams,
    EtaArticleBased,
    EtaTimeExponential,
    FeatureMatrix,
    InfluenceSeries,
    ModeCoefficients,
    RankingEntry,
    RankingResult,
    Regime,
    RegimeTag,
    ThetaConstant,
    ThetaExponential,
    ThetaLinear,
    validate_series,
)
from .errors import (
    AsymmetricGrid,
    ConvergenceFailure,
    DegenerateSystem,
    DimensionMismatch,
    MirrorDdeError,
    NegativeInfluenceWarning,
    NonFiniteState,
    NonFiniteValue,
    NonPositiveR,
    NonUniformGrid,
    OutOfRange,
    ResonantForcing,
    SingularSystem,
    TooShort,
    UnknownResponseFeature,
    WrongRegime,
    ZeroCoefficient,
    ZeroVarianceColumn,
)
from .numerics import (
    FdMode,
    finite_diff,
    lasso_fit,
    rk4_integrate,
    solve_2x2,
    svd_values,
)
from .solver import (
    GrowthKind,
    OscillatoryValue,
    base_solution,
    classify,
    control_solution,
    degenerate_solution,
    eta_article,
    evaluate,
    initial_conditions_to_modes,
    linear_growth_solution,
    nonsymmetric_solution,
    oracle_solution,
    oscillatory_solution,
)

__version__ = "1.0.0"

#: Names whose modules import numpy at load time, resolved on first access.
_LAZY = {
    "FitReport": "fitting",
    "fit_ab": "fitting",
    "fit_modes": "fitting",
    "fit_pipeline": "fitting",
    "modes_to_AB": "fitting",
    "EliminationTrace": "ranking",
    "TraceStep": "ranking",
    "rank_journals": "ranking",
    "standardize": "ranking",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "AsymmetricGrid",
    "ControlConfig",
    "ConvergenceFailure",
    "DdeParams",
    "DegenerateSystem",
    "DimensionMismatch",
    "EliminationTrace",
    "EtaArticleBased",
    "EtaTimeExponential",
    "FdMode",
    "FeatureMatrix",
    "FitReport",
    "GrowthKind",
    "InfluenceSeries",
    "MirrorDdeError",
    "ModeCoefficients",
    "NegativeInfluenceWarning",
    "NonFiniteState",
    "NonFiniteValue",
    "NonPositiveR",
    "NonUniformGrid",
    "OscillatoryValue",
    "OutOfRange",
    "RankingEntry",
    "RankingResult",
    "Regime",
    "RegimeTag",
    "ResonantForcing",
    "SingularSystem",
    "ThetaConstant",
    "ThetaExponential",
    "ThetaLinear",
    "TooShort",
    "TraceStep",
    "UnknownResponseFeature",
    "WrongRegime",
    "ZeroCoefficient",
    "ZeroVarianceColumn",
    "base_solution",
    "classify",
    "control_solution",
    "degenerate_solution",
    "eta_article",
    "evaluate",
    "finite_diff",
    "fit_ab",
    "fit_modes",
    "fit_pipeline",
    "initial_conditions_to_modes",
    "lasso_fit",
    "linear_growth_solution",
    "modes_to_AB",
    "nonsymmetric_solution",
    "oracle_solution",
    "oscillatory_solution",
    "rank_journals",
    "rk4_integrate",
    "solve_2x2",
    "standardize",
    "svd_values",
    "validate_series",
    "__version__",
]
