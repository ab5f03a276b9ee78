"""Domain types for the mirrored-time influence model.

The model describes the influence p(t) of a journal around a reference time
t=0 through the delay relation

    p'(t) = a * p(-t) + b * p(t)

where ``a`` weighs the mirrored (history) sample and ``b`` the present one.
All types here are immutable after construction.  Types that take outside
data validate their invariants in ``__post_init__``; invalid data raises
instead of being clamped or repaired.  ``Regime`` and ``RankingResult`` are
built only by the library, valid by construction, and are not re-checked.

Every record, here and in :mod:`~mirrordde.fitting` and
:mod:`~mirrordde.ranking`, derives from :class:`_Record`, which gives it
what a frozen dataclass would: a constructor, immutability, equality and
hashing by field tuple, ``repr`` and ``__match_args__``.  It replaces
``dataclasses``, whose import and per-class code generation cost more than
the rest of the CLI's startup.
"""

from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING, Sequence, Union

from .errors import (
    AsymmetricGrid,
    DimensionMismatch,
    InvalidName,
    NonFiniteValue,
    NonUniformGrid,
    OutOfRange,
    TooShort,
)

if TYPE_CHECKING:
    import numpy as np
    from numpy.typing import NDArray

#: Relative tolerance for grid uniformity and symmetry checks.
GRID_RTOL = 1e-9

#: Relative tolerance deciding when b**2 - a**2 counts as zero.
DEGENERACY_RTOL = 1e-12


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise NonFiniteValue(f"{name} must be finite, got {v!r}")


# ---------------------------------------------------------------------------
# the record base
# ---------------------------------------------------------------------------

class _Record:
    """Base of the frozen record types.

    A subclass declares its fields as annotations, in order, and a class
    attribute of a field's name is that field's default.  Creating the
    subclass compiles an ``__init__`` with exactly those parameters, as
    :func:`collections.namedtuple` does, so :mod:`inspect` reports them; it
    stores each argument, then calls ``__post_init__`` if the class has one.
    Names listed in ``derived`` are fields that ``__post_init__`` sets: they
    show in the repr but are not parameters.  Instances refuse attribute
    assignment and deletion, compare equal when of one type with equal field
    tuples, and hash that tuple.
    """

    _fields: tuple[str, ...]

    def __init_subclass__(cls, derived: tuple[str, ...] = ()):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls.__match_args__ = params = tuple(
            name for name in cls._fields if name not in derived)
        # Defaults are read off the class when the def runs; a required
        # parameter after a defaulted one is a SyntaxError there.
        signature = "".join(f", {name}=_cls.{name}" if name in cls.__dict__
                            else f", {name}" for name in params)
        lines = [f"def __init__(self{signature}):", "    _d = self.__dict__"]
        lines += [f"    _d[{name!r}] = {name}" for name in params]
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
        namespace = {"_cls": cls}
        exec("\n".join(lines), namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# sampled series
# ---------------------------------------------------------------------------

class InfluenceSeries(_Record, derived=("step",)):
    """Uniformly sampled influence values on a time grid symmetric about 0.

    The symmetric grid is what makes mirrored lookups exact: the sample taken
    at ``-times[i]`` is ``values[n - 1 - i]``, no interpolation involved.  The
    grid always contains t=0 itself (odd length), so the influence at the
    origin is a sample rather than an estimate.

    The constructor copies 1-d array-likes into read-only float64 arrays,
    derives ``step`` as the span of the grid over its intervals,
    ``(t[-1] - t[0])/(n-1)`` in Python floats, and checks every invariant
    once, each spacing against that step included.  Equality is identity.
    """

    times: NDArray[np.float64]
    values: NDArray[np.float64]
    step: float

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __post_init__(self) -> None:
        import numpy as np

        t = _as_vector("times", self.times)
        v = _as_vector("values", self.values)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

        n = t.size
        if n != v.size:
            raise DimensionMismatch(
                f"times and values differ in length: {n} vs {v.size}")
        if n < 3:
            raise TooShort(f"need at least 3 samples, got {n}")
        for name, arr in (("times", t), ("values", v)):
            i = _first_true(~np.isfinite(arr))
            if i is not None:
                raise NonFiniteValue(f"{name} must be finite, got {float(arr[i])!r}")

        i = _first_true(~(t[:-1] < t[1:]))
        if i is not None:
            raise NonUniformGrid(
                f"times must be strictly increasing; "
                f"times[{i}]={float(t[i])!r} >= times[{i + 1}]={float(t[i + 1])!r}"
            )

        # Symmetry about the origin comes before uniformity: a grid like
        # (-1, 0, 2) is reported as asymmetric, not as unevenly spaced.
        # Two large times of one sign may sum to inf, which still counts as
        # asymmetric.
        # two window-length buffers: the tolerance, and |t| then |t + t[::-1]|
        a = np.abs(t)
        tol = np.maximum(a, a[::-1])
        np.maximum(1.0, tol, out=tol)
        np.multiply(GRID_RTOL, tol, out=tol)
        with np.errstate(over="ignore"):
            np.add(t, t[::-1], out=a)
        i = _first_true(np.abs(a, out=a) > tol)
        if i is not None:
            j = n - 1 - i
            raise AsymmetricGrid(
                f"times[{i}]={float(t[i])!r} has no mirror partner; "
                f"expected -times[{j}]={-float(t[j])!r}"
            )
        if n % 2 == 0:
            raise AsymmetricGrid(f"grid of even length {n} has no sample at t=0")

        step = (float(t[-1]) - float(t[0])) / (n - 1)
        object.__setattr__(self, "step", step)
        if not (math.isfinite(step) and step > 0.0):
            raise NonUniformGrid(
                f"step must be finite and positive, got {step!r}")
        d = t[1:] - t[:-1]
        d -= step
        i = _first_true(np.abs(d, out=d) > GRID_RTOL * step)
        if i is not None:
            raise NonUniformGrid(
                f"spacing between times[{i}] and times[{i + 1}] is "
                f"{float(t[i + 1] - t[i])!r}, expected {step!r}"
            )

    def __len__(self) -> int:
        return len(self.times)

    @property
    def zero_index(self) -> int:
        """Index of the t=0 sample (the middle of the grid)."""
        return (len(self.times) - 1) // 2

    @property
    def value_at_zero(self) -> float:
        return float(self.values[self.zero_index])


def _as_vector(name: str, seq) -> NDArray[np.float64]:
    import numpy as np

    # Always a copy: freezing the caller's own array would be a side effect.
    arr = np.array(seq, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-d, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


def _first_true(mask: NDArray[np.bool_]) -> int | None:
    """Index of the first True entry of a non-empty boolean array, or None."""
    i = int(mask.argmax())
    return i if mask[i] else None


def validate_series(times, values) -> InfluenceSeries:
    """Build an :class:`InfluenceSeries`; every check is the constructor's."""
    return InfluenceSeries(times=times, values=values)


# ---------------------------------------------------------------------------
# model parameters and regimes
# ---------------------------------------------------------------------------

class DdeParams(_Record):
    """Coefficients of the mirrored-time model ``p'(t) = a p(-t) + b p(t)``.

    ``a`` scales the mirrored sample, ``b`` the present one; ``p0`` is the
    influence at t=0 and ``half_width`` the half-width of the modelling
    window [-half_width, half_width].  ``half_width`` is carried, and
    reported by :func:`~mirrordde.fitting.fit_pipeline`, but no computation
    reads it.
    """

    a: float
    b: float
    p0: float
    half_width: float = 5.0

    def __post_init__(self) -> None:
        _require_finite("DdeParams", self.a, self.b, self.p0, self.half_width)
        if self.half_width <= 0.0:
            raise OutOfRange(
                f"half_width must be positive, got {self.half_width!r}"
            )

    @property
    def discriminant(self) -> float:
        """b**2 - a**2, the quantity whose sign selects the regime."""
        return self.b * self.b - self.a * self.a


class RegimeTag(enum.Enum):
    EXPONENTIAL = "exponential"
    OSCILLATORY = "oscillatory"
    DEGENERATE = "degenerate"


class Regime(_Record):
    """Classification of a parameter pair together with its rate.

    ``r`` is sqrt(|b**2 - a**2|): the growth rate in the exponential regime,
    the angular frequency in the oscillatory one, and 0 for a degenerate
    pair.
    """

    tag: RegimeTag
    r: float


class ModeCoefficients(_Record):
    """Amplitudes of the growing and decaying modes, with their pre-image.

    ``w1`` and ``w2`` multiply exp(r t) and exp(-r t) in the solution; they
    are what a least-squares mode fit estimates directly.  ``A`` and ``B``
    are the underlying amplitude pair seen through the model coefficients,

        w1 = a*A + b*B,        w2 = a*B + b*A,

    recovered from (w1, w2) by solving that 2x2 system backwards.
    """

    A: float
    B: float
    w1: float
    w2: float

    def __post_init__(self) -> None:
        _require_finite("ModeCoefficients", self.A, self.B, self.w1, self.w2)

    @classmethod
    def from_amplitudes(cls, A: float, B: float, params: DdeParams) -> "ModeCoefficients":
        return cls(A=A, B=B,
                   w1=params.a * A + params.b * B,
                   w2=params.a * B + params.b * A)

    def consistent_with(self, params: DdeParams, tol: float = 1e-9) -> bool:
        """True when (w1, w2) matches (A, B) through the given coefficients."""
        scale = max(1.0, abs(self.w1), abs(self.w2))
        return (abs(self.w1 - (params.a * self.A + params.b * self.B)) <= tol * scale
                and abs(self.w2 - (params.a * self.B + params.b * self.A)) <= tol * scale)


# ---------------------------------------------------------------------------
# control terms
# ---------------------------------------------------------------------------
# Each term supplies its share of the forced solution: ``particular(params,
# times)`` works out its constants once, then returns the list of its
# particular solution P(t) at every t; ``start_values(params)`` is P'(0) and
# its value as it enters the slope p'(0); ``rate`` is its exponential rate,
# checked for resonance by the solver, or None for a polynomial term.

class ThetaConstant(_Record):
    """Self-development effort held constant: theta(t) = value."""

    value: float
    rate = None

    def __post_init__(self) -> None:
        _require_finite("ThetaConstant", self.value)

    def particular(self, params: DdeParams,
                   times: Sequence[float]) -> list[float]:
        return [self.value / (params.a - params.b)] * len(times)

    def start_values(self, params: DdeParams) -> tuple[float, float]:
        return 0.0, self.value


class ThetaLinear(_Record):
    """Linearly ramped effort: theta(t) = slope * t + intercept."""

    slope: float
    intercept: float
    rate = None

    def __post_init__(self) -> None:
        _require_finite("ThetaLinear", self.slope, self.intercept)

    def particular(self, params: DdeParams,
                   times: Sequence[float]) -> list[float]:
        slope, intercept, d = self.slope, self.intercept, params.a - params.b
        return [(slope * t + intercept) / d for t in times]

    def start_values(self, params: DdeParams) -> tuple[float, float]:
        return self.slope / (params.a - params.b), self.intercept


class ThetaExponential(_Record):
    """Exponentially growing effort: theta(t) = exp(rate * t)."""

    rate: float

    def __post_init__(self) -> None:
        _require_finite("ThetaExponential", self.rate)

    def particular(self, params: DdeParams,
                   times: Sequence[float]) -> list[float]:
        A, s = self.rate, params.a + params.b
        gap = A * A - params.discriminant
        return [s * math.exp(A * t) / gap for t in times]

    def start_values(self, params: DdeParams) -> tuple[float, float]:
        # P'(0) = A P(0); math.exp(A * 0.0) is exactly 1.0, so it is left out
        A = self.rate
        return A * (params.a + params.b) / (A * A - params.discriminant), 1.0


ThetaTerm = Union[ThetaConstant, ThetaLinear, ThetaExponential]


class EtaArticleBased(_Record):
    """External-influence term driven by the accepted-article share.

    ``art`` is the fraction of accepted articles, a number in [0, 1]; the
    term itself is constant in time: eta = exp(-art) + alpha * (a - b).
    """

    alpha: float
    art: float
    rate = None

    def __post_init__(self) -> None:
        _require_finite("EtaArticleBased", self.alpha, self.art)
        if not 0.0 <= self.art <= 1.0:
            raise OutOfRange(
                f"art must lie in [0, 1], got {self.art!r}"
            )

    def particular(self, params: DdeParams,
                   times: Sequence[float]) -> list[float]:
        value = self.start_values(params)[1]
        return [value / (params.a - params.b)] * len(times)

    def start_values(self, params: DdeParams) -> tuple[float, float]:
        """P'(0) = 0 and the constant value exp(-art) + alpha (a - b)."""
        return 0.0, math.exp(-self.art) + self.alpha * (params.a - params.b)


class EtaTimeExponential(_Record):
    """External-influence pulse eta(t) = k * exp(k1 * t)."""

    k: float
    k1: float

    def __post_init__(self) -> None:
        _require_finite("EtaTimeExponential", self.k, self.k1)

    @property
    def rate(self) -> float:
        return self.k1

    def particular(self, params: DdeParams,
                   times: Sequence[float]) -> list[float]:
        k, k1 = self.k, self.k1
        gap = k1 * k1 - params.discriminant
        return [k * math.exp(k1 * t) / gap for t in times]

    def start_values(self, params: DdeParams) -> tuple[float, float]:
        # P'(0) = k1 P(0).  The pulse enters p'(0) through the (a+b) factor of
        # the homogeneous slope, so dividing it out keeps
        # p'(0) = (a+b) p0 + theta(0) + eta(0).
        k, k1 = self.k, self.k1
        return k1 * k / (k1 * k1 - params.discriminant), k / (params.a + params.b)


EtaTerm = Union[EtaArticleBased, EtaTimeExponential]


class ControlConfig(_Record):
    """A choice of self-development term theta and external term eta.

    ``eta=None`` means no external influence.  Resonance between a forcing
    rate and the homogeneous rate is checked by the solver, where the model
    parameters are known.
    """

    theta: ThetaTerm = ThetaConstant(0.0)  # shared: records are immutable
    eta: EtaTerm | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.theta, ThetaTerm):
            raise TypeError(f"unsupported theta term: {self.theta!r}")
        if self.eta is not None and not isinstance(self.eta, EtaTerm):
            raise TypeError(f"unsupported eta term: {self.eta!r}")


# ---------------------------------------------------------------------------
# feature matrices and ranking output
# ---------------------------------------------------------------------------

class FeatureMatrix(_Record):
    """A journals-by-features table of scientometric indicators.

    Rows are journals, columns are named features.  The data array is copied
    on construction and frozen read-only, so instances can be shared safely.
    """

    journal_names: tuple[str, ...]
    feature_names: tuple[str, ...]
    data: NDArray[np.float64]

    def __post_init__(self) -> None:
        import numpy as np

        names = tuple(str(s) for s in self.journal_names)
        feats = tuple(str(s) for s in self.feature_names)
        data = np.array(self.data, dtype=float, copy=True)
        object.__setattr__(self, "journal_names", names)
        object.__setattr__(self, "feature_names", feats)
        object.__setattr__(self, "data", data)

        if any(not s for s in names):
            raise InvalidName("journal names must be non-empty")
        if any(not s for s in feats):
            raise InvalidName("feature names must be non-empty")
        if len(set(names)) != len(names):
            raise InvalidName("journal names must be unique")
        if len(set(feats)) != len(feats):
            raise InvalidName("feature names must be unique")
        if len(names) < 1:
            raise TooShort("need at least one journal")
        if len(feats) < 2:
            raise TooShort("need at least two features")
        if data.shape != (len(names), len(feats)):
            raise DimensionMismatch(
                f"data shape {data.shape} does not match "
                f"{len(names)} journals x {len(feats)} features"
            )
        if not np.all(np.isfinite(data)):
            raise NonFiniteValue("feature matrix contains non-finite entries")
        data.flags.writeable = False

    @property
    def n_journals(self) -> int:
        return len(self.journal_names)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    def feature_index(self, name: str) -> int:
        try:
            return self.feature_names.index(name)
        except ValueError:
            raise KeyError(name) from None


class RankingEntry(_Record):
    """One journal's line in a ranking: step eliminated, score, final rank."""

    journal_name: str
    elimination_step: int
    singval: float
    rank: int

    def __post_init__(self) -> None:
        _require_finite("RankingEntry.singval", self.singval)


class RankingResult(_Record):
    """A complete ranking, entries ordered by rank (best first).

    Rank 1 is the journal with the smallest singular-value score; ties are
    broken by the earlier elimination step.  Both the steps and the ranks
    form a permutation of 1..m.
    """

    entries: tuple[RankingEntry, ...]

    def by_name(self, name: str) -> RankingEntry:
        for e in self.entries:
            if e.journal_name == name:
                return e
        raise KeyError(name)
