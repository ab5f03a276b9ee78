"""Exception hierarchy shared across the package.

Every error raised deliberately by this package derives from
:class:`MirrorDdeError`, so callers can catch the whole family with one
``except`` clause.  The input errors :class:`TooShort`,
:class:`OutOfRange`, :class:`DimensionMismatch` and :class:`InvalidName`
are ``ValueError`` as well.  Validation errors carry enough context in
their message to identify the offending input; a few carry structured
attributes as well (``DegenerateSystem.stage``,
``ZeroVarianceColumn.column``).
"""

from __future__ import annotations


class MirrorDdeError(Exception):
    """Base class for all errors raised by mirrordde."""


# --- series / grid validation -------------------------------------------------

class NonUniformGrid(MirrorDdeError):
    """Time grid is not uniformly spaced (or not strictly increasing)."""


class AsymmetricGrid(MirrorDdeError):
    """Time grid is not symmetric about t=0 or lacks a sample at t=0."""


class NonFiniteValue(MirrorDdeError):
    """An input contains NaN or infinity."""


class TooShort(MirrorDdeError, ValueError):
    """Not enough samples to perform the requested operation."""


class OutOfRange(MirrorDdeError, ValueError):
    """A scalar input lies outside its admissible interval."""


# --- numerical kernels --------------------------------------------------------

class SingularSystem(MirrorDdeError):
    """A linear system is singular to working precision."""


class ConvergenceFailure(MirrorDdeError):
    """An iterative kernel exhausted its sweep budget without converging."""


class DimensionMismatch(MirrorDdeError, ValueError):
    """Array shapes are inconsistent with each other."""


class NonFiniteState(MirrorDdeError):
    """An integration trajectory left the finite range of float64."""


# --- model semantics ----------------------------------------------------------

class WrongRegime(MirrorDdeError):
    """An operation only defined in another parameter regime was requested."""


class ZeroCoefficient(MirrorDdeError):
    """A model coefficient that must be nonzero is zero."""


class ResonantForcing(MirrorDdeError):
    """A forcing rate coincides with the homogeneous rate; no particular
    solution of the assumed form exists."""


class DegenerateSystem(MirrorDdeError):
    """A fitting stage cannot identify its unknowns from the data: a
    singular normal system, or no rate or no s = a + b that the mode fit
    can take from the series.

    ``stage`` names the pipeline stage that failed (``"fit_ab"`` or
    ``"fit_modes"``) so callers can report where the data went flat.
    """

    def __init__(self, message: str, stage: str | None = None):
        super().__init__(message)
        self.stage = stage


class NonPositiveR(MirrorDdeError):
    """A mode-fit was requested with a rate that is not strictly positive."""


# --- ranking ------------------------------------------------------------------

class ZeroVarianceColumn(MirrorDdeError):
    """A feature column is constant, so it cannot be standardized.

    ``column`` is the feature name; ``step`` is the elimination step at which
    the column went flat (``None`` when standardizing a matrix directly).
    """

    def __init__(self, message: str, column: str | None = None,
                 step: int | None = None):
        super().__init__(message)
        self.column = column
        self.step = step


class UnknownResponseFeature(MirrorDdeError):
    """The requested response feature is not a column of the feature matrix."""


class InvalidName(MirrorDdeError, ValueError):
    """A journal or feature name is empty or repeated."""


# --- warnings -----------------------------------------------------------------

class NegativeInfluenceWarning(UserWarning):
    """The forced solution starts from a negative influence value.

    Influence is a non-negative quantity in the modelling domain; a negative
    value at t=0 means the chosen coefficients or forcing place the trajectory
    outside the meaningful region.  The value is still returned.
    """
