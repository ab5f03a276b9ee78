"""Container and validation behaviour of the core data types."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrordde import (
    AsymmetricGrid,
    ControlConfig,
    DdeParams,
    DimensionMismatch,
    EtaArticleBased,
    EtaTimeExponential,
    FeatureMatrix,
    InfluenceSeries,
    InvalidName,
    MirrorDdeError,
    ModeCoefficients,
    NonFiniteValue,
    NonUniformGrid,
    OutOfRange,
    RankingEntry,
    RankingResult,
    RegimeTag,
    ThetaConstant,
    ThetaExponential,
    ThetaLinear,
    TooShort,
    finite_diff,
    lasso_fit,
    oracle_solution,
    rank_journals,
    svd_values,
    validate_series,
)

from oracles import longhand_series_error, rk4_trajectory


# ---------------------------------------------------------------------------
# InfluenceSeries / validate_series
# ---------------------------------------------------------------------------

class TestInfluenceSeries:
    def test_minimal_valid_grid(self):
        series = validate_series([-1.0, 0.0, 1.0], [1.0, 2.0, 3.0])
        assert series.step == 1.0
        assert series.zero_index == 1
        assert series.value_at_zero == 2.0
        assert len(series) == 3

    def test_asymmetric_grid_rejected(self):
        with pytest.raises(AsymmetricGrid):
            validate_series([-1.0, 0.0, 2.0], [1.0, 2.0, 3.0])

    def test_even_length_has_no_origin_sample(self):
        with pytest.raises(AsymmetricGrid):
            validate_series([-1.5, -0.5, 0.5, 1.5], [1.0, 2.0, 3.0, 4.0])

    def test_nan_value_rejected(self):
        with pytest.raises(NonFiniteValue):
            validate_series([-1.0, 0.0, 1.0], [1.0, math.nan, 3.0])

    def test_infinite_time_rejected(self):
        with pytest.raises(NonFiniteValue):
            validate_series([-math.inf, 0.0, math.inf], [1.0, 2.0, 3.0])

    def test_symmetric_but_uneven_spacing(self):
        # Mirror partners all exist, so this must surface as non-uniformity.
        with pytest.raises(NonUniformGrid):
            validate_series([-2.0, -1.5, 0.0, 1.5, 2.0], [1.0] * 5)

    def test_not_strictly_increasing(self):
        with pytest.raises(NonUniformGrid):
            validate_series([-1.0, -1.0, 0.0, 1.0, 1.0], [1.0] * 5)

    def test_too_short(self):
        with pytest.raises(TooShort):
            validate_series([0.0], [1.0])
        with pytest.raises(TooShort):
            validate_series([-1.0, 1.0], [1.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            validate_series([-1.0, 0.0, 1.0], [1.0, 2.0])

    @pytest.mark.parametrize("times,values,exc,message", [
        ([-1.0, 0.0, 1.0], [1.0, 2.0], DimensionMismatch,
         "times and values differ in length: 3 vs 2"),
        ([], [], TooShort, "need at least 3 samples, got 0"),
        ([-1.0, 1.0], [1.0, 2.0], TooShort,
         "need at least 3 samples, got 2"),
        ([-1.0, math.nan, 1.0], [1.0, 2.0, 3.0], NonFiniteValue,
         "times must be finite, got nan"),
        ([-1.0, 0.0, 1.0], [1.0, math.nan, 3.0], NonFiniteValue,
         "values must be finite, got nan"),
        ([-1.0, -1.0, 0.0, 1.0, 1.0], [1.0] * 5, NonUniformGrid,
         "times must be strictly increasing; times[0]=-1.0 >= times[1]=-1.0"),
        ([-1.0, 0.0, 2.0], [1.0, 2.0, 3.0], AsymmetricGrid,
         "times[0]=-1.0 has no mirror partner; expected -times[2]=-2.0"),
        # t[0] + t[2] overflows to inf, which is still asymmetric
        ([1e308, 1.5e308, 1.7e308], [1.0, 2.0, 3.0], AsymmetricGrid,
         "times[0]=1e+308 has no mirror partner; expected -times[2]=-1.7e+308"),
        ([-1.5, -0.5, 0.5, 1.5], [1.0] * 4, AsymmetricGrid,
         "grid of even length 4 has no sample at t=0"),
        # a finite span wider than float64 gives an infinite step
        ([-1e308, 0.0, 1e308], [1.0, 2.0, 3.0], NonUniformGrid,
         "step must be finite and positive, got inf"),
        ([-2.0, -1.5, 0.0, 1.5, 2.0], [1.0] * 5, NonUniformGrid,
         "spacing between times[0] and times[1] is 0.5, expected 1.0"),
        # first rejected by the finiteness check, so no inf - inf step
        # warning escapes
        ([math.inf, 0.0, math.inf], [1.0, 2.0, 3.0], NonFiniteValue,
         "times must be finite, got inf"),
        ([[-1.0], [0.0], [1.0]], [1.0, 2.0, 3.0], DimensionMismatch,
         "times must be 1-d, got shape (3, 1)"),
        ([-1.0, 0.0, 1.0], [[1, 1], [2, 2], [3, 3]], DimensionMismatch,
         "values must be 1-d, got shape (3, 2)"),
    ], ids=["length-mismatch", "n0", "n2", "nan-time", "nan-value",
            "repeated-time", "asymmetric", "sum-overflows", "even-length",
            "inf-step", "uneven-spacing", "inf-0-inf", "nested-times",
            "nested-values"])
    def test_rejection_type_and_message(self, times, values, exc, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(exc) as info:
                validate_series(times, values)
        assert type(info.value) is exc
        assert str(info.value) == message

    @given(
        n=st.integers(min_value=0, max_value=12),
        h=st.sampled_from([1.0, 0.05, 1e-3, 0.3, 1e150, 1e300]),
        fault=st.sampled_from(["none", "nan", "inf", "repeat", "shift",
                               "mirror-shift", "scale", "drop-value"]),
        where=st.integers(min_value=0, max_value=11),
        delta=st.sampled_from([1e-12, 1e-10, 1e-8, 0.3, 2.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_checks_agree_with_longhand_loops(self, n, h, fault, where, delta):
        times = [h * (i - (n - 1) / 2) for i in range(n)]
        values = [1.0 + 0.1 * i for i in range(n)]
        i = where % n if n else 0
        if n and fault in ("nan", "inf"):
            times[i] = math.nan if fault == "nan" else math.inf
        elif n > 1 and fault == "repeat":
            times[min(i, n - 2) + 1] = times[min(i, n - 2)]
        elif n and fault == "shift":
            times[i] += delta * h
        elif n and fault == "mirror-shift":
            times[i] += delta * h
            times[n - 1 - i] -= delta * h
        elif fault == "scale":
            times = [t * 1.7 for t in times]
        elif n and fault == "drop-value":
            values.pop()
        want = longhand_series_error(times, values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                series = validate_series(times, values)
            except Exception as exc:  # compared with the reference below
                assert (type(exc), str(exc)) == want
            else:
                assert want is None
                assert series.times.tolist() == times
                assert series.values.tolist() == values

    def test_fields_are_read_only_float64_arrays(self):
        times = np.array([-1.0, 0.0, 1.0])
        series = InfluenceSeries(times=times, values=[1, 2, 3])
        for field, want in ((series.times, [-1.0, 0.0, 1.0]),
                            (series.values, [1.0, 2.0, 3.0])):
            assert type(field) is np.ndarray and field.dtype == np.float64
            assert field.tolist() == want
            assert not field.flags.writeable
            with pytest.raises(ValueError):
                field[0] = 9.0
        assert type(series.step) is float
        assert type(series.value_at_zero) is float
        # the caller's array is copied, not frozen or aliased
        assert times.flags.writeable
        assert not np.shares_memory(times, series.times)
        times[0] = -2.0
        assert series.times[0] == -1.0

    def test_equality_is_identity(self):
        series = validate_series([-0.5, 0.0, 0.5], [4.0, 5.0, 6.0])
        twin = validate_series([-0.5, 0.0, 0.5], [4.0, 5.0, 6.0])
        assert series == series
        assert series != twin

    @given(
        n_half=st.integers(min_value=1, max_value=40),
        h=st.floats(min_value=1e-3, max_value=10.0,
                    allow_nan=False, allow_infinity=False),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetric_uniform_grids_validate(self, n_half, h, seed):
        rng = np.random.default_rng(seed)
        times = [h * (i - n_half) for i in range(2 * n_half + 1)]
        values = rng.uniform(-1e6, 1e6, size=len(times)).tolist()
        series = validate_series(times, values)
        assert len(series) == 2 * n_half + 1
        assert series.zero_index == n_half
        assert series.times[series.zero_index] == 0.0
        assert math.isclose(series.step, h, rel_tol=1e-9)


# ---------------------------------------------------------------------------
# DdeParams / Regime
# ---------------------------------------------------------------------------

class TestDdeParams:
    def test_discriminant(self):
        params = DdeParams(a=0.3, b=0.5, p0=1.0)
        assert params.discriminant == pytest.approx(0.16, abs=1e-15)

    def test_half_width_must_be_positive(self):
        with pytest.raises(ValueError):
            DdeParams(a=0.1, b=0.2, p0=1.0, half_width=0.0)

    def test_non_finite_coefficient(self):
        with pytest.raises(NonFiniteValue):
            DdeParams(a=math.nan, b=0.2, p0=1.0)

    def test_default_half_width(self):
        assert DdeParams(a=0.0, b=0.5, p0=1.0).half_width == 5.0


class TestRegime:
    def test_tag_values(self):
        assert RegimeTag.EXPONENTIAL.value == "exponential"
        assert RegimeTag.OSCILLATORY.value == "oscillatory"
        assert RegimeTag.DEGENERATE.value == "degenerate"


# ---------------------------------------------------------------------------
# ModeCoefficients
# ---------------------------------------------------------------------------

class TestModeCoefficients:
    def test_from_amplitudes(self):
        params = DdeParams(a=0.3, b=0.5, p0=1.0)
        modes = ModeCoefficients.from_amplitudes(2.0, 3.0, params)
        assert modes.A == 2.0 and modes.B == 3.0
        assert modes.w1 == pytest.approx(0.3 * 2.0 + 0.5 * 3.0, abs=1e-15)
        assert modes.w2 == pytest.approx(0.3 * 3.0 + 0.5 * 2.0, abs=1e-15)

    def test_consistency_check(self):
        params = DdeParams(a=0.3, b=0.5, p0=1.0)
        good = ModeCoefficients.from_amplitudes(2.0, 3.0, params)
        assert good.consistent_with(params)
        bad = ModeCoefficients(A=2.0, B=3.0, w1=2.1, w2=2.5)
        assert not bad.consistent_with(params)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteValue):
            ModeCoefficients(A=math.inf, B=0.0, w1=0.0, w2=0.0)


# ---------------------------------------------------------------------------
# Forcing terms
# ---------------------------------------------------------------------------

class TestForcingTerms:
    def test_article_share_bounds(self):
        EtaArticleBased(alpha=0.5, art=0.0)
        EtaArticleBased(alpha=0.5, art=1.0)
        with pytest.raises(OutOfRange):
            EtaArticleBased(alpha=0.5, art=1.2)
        with pytest.raises(OutOfRange):
            EtaArticleBased(alpha=0.5, art=-0.1)

    def test_non_finite_terms_rejected(self):
        with pytest.raises(NonFiniteValue):
            ThetaConstant(math.nan)
        with pytest.raises(NonFiniteValue):
            ThetaLinear(slope=1.0, intercept=math.inf)
        with pytest.raises(NonFiniteValue):
            ThetaExponential(rate=math.nan)
        with pytest.raises(NonFiniteValue):
            EtaTimeExponential(k=math.nan, k1=0.1)

    def test_config_defaults(self):
        config = ControlConfig()
        assert config.theta == ThetaConstant(0.0)
        assert config.eta is None

    def test_config_type_checks(self):
        with pytest.raises(TypeError):
            ControlConfig(theta=0.5)
        with pytest.raises(TypeError):
            ControlConfig(eta=0.5)


# ---------------------------------------------------------------------------
# FeatureMatrix
# ---------------------------------------------------------------------------

def small_matrix() -> FeatureMatrix:
    return FeatureMatrix(
        journal_names=("Alpha Journal", "Beta Review", "Gamma Letters"),
        feature_names=("CiteScore", "SJR", "SNIP"),
        data=[[3.0, 1.2, 0.9], [5.5, 2.0, 1.4], [1.1, 0.4, 0.7]],
    )


class TestFeatureMatrix:
    def test_shape_properties(self):
        m = small_matrix()
        assert m.n_journals == 3
        assert m.n_features == 3
        assert m.feature_index("SJR") == 1

    def test_data_is_copied_and_read_only(self):
        raw = [[3.0, 1.2, 0.9], [5.5, 2.0, 1.4], [1.1, 0.4, 0.7]]
        m = FeatureMatrix(journal_names=("A", "B", "C"),
                          feature_names=("x", "y", "z"), data=raw)
        raw[0][0] = 99.0
        assert m.data[0, 0] == 3.0
        with pytest.raises(ValueError):
            m.data[0, 0] = 7.0

    def test_unknown_feature(self):
        with pytest.raises(KeyError):
            small_matrix().feature_index("Percentile")

    def test_validation_failures(self):
        with pytest.raises(ValueError):
            FeatureMatrix(("A", "A"), ("x", "y"), [[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            FeatureMatrix(("A", ""), ("x", "y"), [[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            FeatureMatrix(("A",), ("x",), [[1.0]])  # needs two features
        with pytest.raises(ValueError):
            FeatureMatrix(("A", "B"), ("x", "y"), [[1.0, 2.0]])  # ragged
        with pytest.raises(NonFiniteValue):
            FeatureMatrix(("A", "B"), ("x", "y"),
                          [[1.0, 2.0], [math.nan, 4.0]])

    @pytest.mark.parametrize("journals, features, data, message", [
        (("A", "B"), ("x", ""), [[1.0, 2.0], [3.0, 4.0]],
         "feature names must be non-empty"),
        (("A", "B"), ("x", "x"), [[1.0, 2.0], [3.0, 4.0]],
         "feature names must be unique"),
        ((), ("x", "y"), np.empty((0, 2)), "need at least one journal"),
    ])
    def test_validation_messages(self, journals, features, data, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FeatureMatrix(journals, features, data)


# ---------------------------------------------------------------------------
# RankingEntry / RankingResult
# ---------------------------------------------------------------------------

def entry(rank, name, singval, step):
    return RankingEntry(journal_name=name, elimination_step=step,
                        singval=singval, rank=rank)


class TestRankingResult:
    def test_valid_result(self):
        result = RankingResult(entries=(
            entry(1, "A", 0.2, 1),
            entry(2, "B", 0.5, 2),
            entry(3, "C", 0.5, 3),   # ties on singval resolved by step (asc)
        ))
        assert result.by_name("B").rank == 2

    def test_entry_validation(self):
        with pytest.raises(NonFiniteValue, match="RankingEntry.singval"):
            entry(1, "A", math.inf, 1)

    def test_unknown_name(self):
        result = RankingResult(entries=(entry(1, "A", 0.0, 1),))
        with pytest.raises(KeyError):
            result.by_name("Z")


# ---------------------------------------------------------------------------
# Input errors: typed, and still the ValueError they were before
# ---------------------------------------------------------------------------

_PARAMS = DdeParams(a=0.3, b=0.9, p0=1.0)
_SERIES = validate_series([-1.0, 0.0, 1.0], [1.0, 2.0, 3.0])
_ZERO = ((0.0, 0.0), (0.0, 0.0))


@pytest.mark.parametrize("call, exc, message", [
    (lambda: validate_series([-1.0, 0.0, 1.0], [1.0, 2.0]),
     DimensionMismatch, "times and values differ in length: 3 vs 2"),
    (lambda: DdeParams(a=0.3, b=0.9, p0=1.0, half_width=0.0),
     OutOfRange, "half_width must be positive, got 0.0"),
    (lambda: FeatureMatrix(("A", ""), ("x", "y"), [[1.0, 2.0], [3.0, 4.0]]),
     InvalidName, "journal names must be non-empty"),
    (lambda: FeatureMatrix(("A", "B"), ("", "y"), [[1.0, 2.0], [3.0, 4.0]]),
     InvalidName, "feature names must be non-empty"),
    (lambda: FeatureMatrix(("A", "A"), ("x", "y"), [[1.0, 2.0], [3.0, 4.0]]),
     InvalidName, "journal names must be unique"),
    (lambda: FeatureMatrix(("A", "B"), ("x", "x"), [[1.0, 2.0], [3.0, 4.0]]),
     InvalidName, "feature names must be unique"),
    (lambda: FeatureMatrix((), ("x", "y"), np.empty((0, 2))),
     TooShort, "need at least one journal"),
    (lambda: FeatureMatrix(("A",), ("x",), [[1.0]]),
     TooShort, "need at least two features"),
    (lambda: FeatureMatrix(("A", "B"), ("x", "y"), [[1.0, 2.0]]),
     DimensionMismatch, "data shape (1, 2) does not match 2 journals x 2 features"),
    (lambda: svd_values(np.empty((0, 2))),
     DimensionMismatch, "matrix must be non-empty, got shape (0, 2)"),
    (lambda: lasso_fit([[1.0]], [1.0], 0.1),
     TooShort, "need at least 2 observations"),
    (lambda: lasso_fit([[1.0], [2.0]], [1.0, 2.0, 3.0], 0.1),
     DimensionMismatch,
     "response of shape (3,) does not match design of shape (2, 1)"),
    (lambda: lasso_fit([[1.0], [2.0]], [1.0, 2.0], -1.0),
     OutOfRange, "lam must be non-negative and finite, got -1.0"),
    (lambda: rank_journals(small_matrix(), "SJR", lam=math.nan),
     OutOfRange, "lam must be non-negative and finite, got nan"),
    (lambda: rk4_trajectory(_ZERO, (1.0, 1.0), 0.0, 0.1),
     OutOfRange, "t_end must be positive, got 0.0"),
    (lambda: rk4_trajectory(_ZERO, (1.0, 1.0), 1.0, math.inf),
     OutOfRange, "step must be positive, got inf"),
    (lambda: rk4_trajectory(((0.0, 0.0), (0.0, 1e100)), (1.0, 1.0), 1.0, 1.0),
     OutOfRange, "the RK4 step 1.0 on M = ((0.0, 0.0), (0.0, 1e+100)) leaves "
     "the float64 range"),
    (lambda: oracle_solution(_PARAMS, -1.0, 0.1),
     OutOfRange, "t_max must be positive, got -1.0"),
    (lambda: finite_diff(_SERIES, "central"),
     OutOfRange, "unknown finite-difference mode: 'central'"),
], ids=["series-length", "half-width", "empty-journal", "empty-feature",
        "repeated-journal", "repeated-feature", "no-journal", "one-feature",
        "data-shape", "empty-matrix", "one-observation", "lasso-response",
        "lasso-lam",
        "rank-lam", "t-end", "rk4-step", "rk4-propagator", "t-max",
        "fd-mode"])
def test_input_errors_are_typed_value_errors(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc
    assert isinstance(info.value, MirrorDdeError)
    assert isinstance(info.value, ValueError)
    assert str(info.value) == message
