"""Semantics of the sixteen frozen record types.

Every record is built from its annotated fields, in order: positional and
keyword construction, defaults, ``__post_init__`` checks, frozenness,
``repr``, equality and hashing by type and field tuple, ``__match_args__``,
the signature ``inspect`` reports, and round trips through ``copy`` and
``pickle``.  ``InfluenceSeries`` compares by identity and shows its derived
``step`` in its repr; ``FeatureMatrix`` holds an array and is unhashable.
"""

from __future__ import annotations

import copy
import inspect
import pickle

import pytest

from mirrordde.core import (
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
)
from mirrordde.fitting import FitReport
from mirrordde.ranking import EliminationTrace, TraceStep

EMPTY = inspect.Parameter.empty

PARAMS = DdeParams(0.3, 0.9, 1.0)
REGIME = Regime(RegimeTag.EXPONENTIAL, 0.5)
ENTRY = RankingEntry("A", 1, 0.25, 2)
STEP = TraceStep(1, "A", 0.5, 0.25, 0.125)

#: (type, positional arguments, exact repr, constructor parameters with
#: their defaults, ``EMPTY`` when required)
RECORDS = [
    (InfluenceSeries, ([-1.0, 0.0, 1.0], [1.0, 2.0, 3.0]),
     "InfluenceSeries(times=array([-1.,  0.,  1.]), "
     "values=array([1., 2., 3.]), step=1.0)",
     [("times", EMPTY), ("values", EMPTY)]),
    (DdeParams, (0.3, 0.9, 1.0),
     "DdeParams(a=0.3, b=0.9, p0=1.0, half_width=5.0)",
     [("a", EMPTY), ("b", EMPTY), ("p0", EMPTY), ("half_width", 5.0)]),
    (Regime, (RegimeTag.OSCILLATORY, 0.5),
     "Regime(tag=<RegimeTag.OSCILLATORY: 'oscillatory'>, r=0.5)",
     [("tag", EMPTY), ("r", EMPTY)]),
    (ModeCoefficients, (1.0, 2.0, 2.1, 1.2),
     "ModeCoefficients(A=1.0, B=2.0, w1=2.1, w2=1.2)",
     [("A", EMPTY), ("B", EMPTY), ("w1", EMPTY), ("w2", EMPTY)]),
    (ThetaConstant, (0.5,), "ThetaConstant(value=0.5)", [("value", EMPTY)]),
    (ThetaLinear, (0.1, 0.2), "ThetaLinear(slope=0.1, intercept=0.2)",
     [("slope", EMPTY), ("intercept", EMPTY)]),
    (ThetaExponential, (0.3,), "ThetaExponential(rate=0.3)",
     [("rate", EMPTY)]),
    (EtaArticleBased, (0.2, 0.5), "EtaArticleBased(alpha=0.2, art=0.5)",
     [("alpha", EMPTY), ("art", EMPTY)]),
    (EtaTimeExponential, (0.5, 0.2), "EtaTimeExponential(k=0.5, k1=0.2)",
     [("k", EMPTY), ("k1", EMPTY)]),
    (ControlConfig, (ThetaLinear(0.1, 0.2), EtaTimeExponential(0.5, 0.2)),
     "ControlConfig(theta=ThetaLinear(slope=0.1, intercept=0.2), "
     "eta=EtaTimeExponential(k=0.5, k1=0.2))",
     [("theta", ThetaConstant(0.0)), ("eta", None)]),
    (FeatureMatrix, (("A", "B"), ("x", "y"), [[1.0, 2.0], [3.0, 4.0]]),
     "FeatureMatrix(journal_names=('A', 'B'), feature_names=('x', 'y'), "
     "data=array([[1., 2.],\n       [3., 4.]]))",
     [("journal_names", EMPTY), ("feature_names", EMPTY), ("data", EMPTY)]),
    (RankingEntry, ("A", 1, 0.25, 2),
     "RankingEntry(journal_name='A', elimination_step=1, singval=0.25, "
     "rank=2)",
     [("journal_name", EMPTY), ("elimination_step", EMPTY),
      ("singval", EMPTY), ("rank", EMPTY)]),
    (RankingResult, ((ENTRY,),),
     "RankingResult(entries=(RankingEntry(journal_name='A', "
     "elimination_step=1, singval=0.25, rank=2),))",
     [("entries", EMPTY)]),
    (FitReport, (PARAMS, REGIME, None, 0.5, None, 41, "skipped"),
     "FitReport(params=DdeParams(a=0.3, b=0.9, p0=1.0, half_width=5.0), "
     "regime=Regime(tag=<RegimeTag.EXPONENTIAL: 'exponential'>, r=0.5), "
     "modes=None, rss_ab=0.5, rss_modes=None, n_points=41, "
     "modes_note='skipped')",
     [("params", EMPTY), ("regime", EMPTY), ("modes", EMPTY),
      ("rss_ab", EMPTY), ("rss_modes", EMPTY), ("n_points", EMPTY),
      ("modes_note", None)]),
    (TraceStep, (1, "A", 0.5, 0.25, 0.125),
     "TraceStep(step_index=1, journal_name='A', row_norm=0.5, "
     "chosen_col_norm=0.25, singval=0.125)",
     [("step_index", EMPTY), ("journal_name", EMPTY), ("row_norm", EMPTY),
      ("chosen_col_norm", EMPTY), ("singval", EMPTY)]),
    (EliminationTrace, ((STEP,),),
     "EliminationTrace(steps=(TraceStep(step_index=1, journal_name='A', "
     "row_norm=0.5, chosen_col_norm=0.25, singval=0.125),))",
     [("steps", EMPTY)]),
]

#: the types that compare by their field tuple and hash it
VALUE_RECORDS = [r for r in RECORDS
                 if r[0] not in (InfluenceSeries, FeatureMatrix)]


def ids(records):
    return [r[0].__name__ for r in records]


def names(cls) -> tuple[str, ...]:
    """The fields a repr shows, in order."""
    return tuple(cls.__annotations__)


@pytest.mark.parametrize("cls, args, text, params", RECORDS, ids=ids(RECORDS))
class TestEveryRecord:
    def test_repr(self, cls, args, text, params):
        assert repr(cls(*args)) == text

    def test_keyword_construction_equals_positional(self, cls, args, text,
                                                    params):
        kwargs = {name: arg for (name, _), arg in zip(params, args)}
        assert repr(cls(**kwargs)) == text

    def test_signature(self, cls, args, text, params):
        got = [(p.name, p.default)
               for p in inspect.signature(cls).parameters.values()]
        assert got == params

    def test_match_args(self, cls, args, text, params):
        assert cls.__match_args__ == tuple(name for name, _ in params)

    def test_bad_arguments_raise_type_error(self, cls, args, text, params):
        required = sum(default is EMPTY for _, default in params)
        if required:
            with pytest.raises(TypeError, match="missing 1 required") as info:
                cls(*args[:required - 1])
            assert str(info.value).startswith(f"{cls.__name__}.__init__()")
        with pytest.raises(TypeError, match="unexpected keyword argument "
                                            "'no_such_field'"):
            cls(*args, no_such_field=1)
        first = params[0][0]
        with pytest.raises(TypeError, match=f"multiple values for argument "
                                            f"'{first}'"):
            cls(*args, **{first: args[0]})
        with pytest.raises(TypeError, match="positional argument"):
            cls(*args, *[None] * len(params))

    def test_frozen(self, cls, args, text, params):
        obj = cls(*args)
        for name in (*names(cls), "no_such_field"):
            with pytest.raises(AttributeError,
                               match=f"^cannot assign to field '{name}'$"):
                setattr(obj, name, 1.0)
        for name in names(cls):
            with pytest.raises(AttributeError,
                               match=f"^cannot delete field '{name}'$"):
                delattr(obj, name)
        assert repr(obj) == text

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy,
        lambda obj: pickle.loads(pickle.dumps(obj)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_round_trip(self, cls, args, text, params, clone):
        obj = cls(*args)
        twin = clone(obj)
        assert type(twin) is cls
        assert repr(twin) == text
        with pytest.raises(AttributeError):
            setattr(twin, names(cls)[0], 1.0)
        if cls not in (InfluenceSeries, FeatureMatrix):
            assert twin == obj and hash(twin) == hash(obj)


@pytest.mark.parametrize("cls, args, text, params", VALUE_RECORDS,
                         ids=ids(VALUE_RECORDS))
def test_equality_and_hash_by_field_tuple(cls, args, text, params):
    obj = cls(*args)
    fields = tuple(getattr(obj, name) for name in names(cls))
    assert obj == cls(*args)
    assert hash(obj) == hash(fields)
    assert obj != fields
    assert obj.__eq__(fields) is NotImplemented
    assert obj != object()


def test_unequal_fields_compare_unequal():
    assert DdeParams(0.3, 0.9, 1.0) != DdeParams(0.3, 0.9, 1.0, 4.0)
    assert ThetaConstant(0.0) != ThetaExponential(0.0)
    assert {ThetaConstant(0.0), ThetaConstant(0.0), ThetaConstant(1.0)} \
        == {ThetaConstant(0.0), ThetaConstant(1.0)}


def test_series_hashes_by_identity_and_takes_no_step():
    times, values = [-1.0, 0.0, 1.0], [1.0, 2.0, 3.0]
    series = InfluenceSeries(times, values)
    assert hash(series) == object.__hash__(series)
    with pytest.raises(TypeError, match="unexpected keyword argument 'step'"):
        InfluenceSeries(times, values, step=1.0)


def test_feature_matrix_is_unhashable():
    matrix = FeatureMatrix(("A",), ("x", "y"), [[1.0, 2.0]])
    with pytest.raises(TypeError, match="unhashable type: 'numpy.ndarray'"):
        hash(matrix)


def test_defaults():
    assert ControlConfig() == ControlConfig(ThetaConstant(0.0), None)
    assert ControlConfig(eta=EtaArticleBased(0.2, 0.5)).theta \
        == ThetaConstant(0.0)
    assert FitReport(PARAMS, REGIME, None, 0.5, None, 41).modes_note is None


def test_checks_run_on_positional_construction():
    with pytest.raises(ValueError, match="half_width must be positive"):
        DdeParams(0.3, 0.9, 1.0, 0.0)


def test_class_attributes_that_are_not_fields():
    assert ThetaConstant(0.5).rate is None
    assert EtaArticleBased(0.2, 0.5).rate is None
    assert EtaTimeExponential(0.5, 0.2).rate == 0.2
    assert "rate" not in ThetaConstant.__match_args__


def test_structural_pattern_matching():
    match DdeParams(0.3, 0.9, 1.0):
        case DdeParams(a, b, half_width=w):
            assert (a, b, w) == (0.3, 0.9, 5.0)
        case _:
            pytest.fail("DdeParams did not match its own class pattern")
    match InfluenceSeries([-1.0, 0.0, 1.0], [1.0, 2.0, 3.0]):
        case InfluenceSeries(t, v, step=h):
            assert (t.tolist(), v.tolist(), h) == ([-1.0, 0.0, 1.0],
                                                   [1.0, 2.0, 3.0], 1.0)
