"""mirrordde: a mirrored-time delay model of journal influence.

The package models the influence p(t) of a journal through the delay
relation p'(t) = a p(-t) + b p(t), provides closed-form solutions with an
independent Runge-Kutta oracle, recovers coefficients from sampled series
by least squares, and ranks journals from scientometric feature tables by
recursive l1-guided elimination.

Importing the package does not import numpy: every module imports it
inside the functions that use it, so it loads when the first array kernel
is called.
"""

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
    InvalidName,
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
from .fitting import FitReport, fit_ab, fit_modes, fit_pipeline, modes_to_AB
from .numerics import (
    FdMode,
    finite_diff,
    lasso_fit,
    solve_2x2,
    svd_values,
)
from .ranking import EliminationTrace, TraceStep, rank_journals, standardize
from .solver import (
    GrowthKind,
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
)

__version__ = "1.0.0"

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
    "InvalidName",
    "MirrorDdeError",
    "ModeCoefficients",
    "NegativeInfluenceWarning",
    "NonFiniteState",
    "NonFiniteValue",
    "NonPositiveR",
    "NonUniformGrid",
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
    "rank_journals",
    "solve_2x2",
    "standardize",
    "svd_values",
    "validate_series",
    "__version__",
]
