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
    ModeCoefficients,
    NonFiniteValue,
    NonUniformGrid,
    OutOfRange,
    RankingEntry,
    RankingResult,
    Regime,
    RegimeTag,
    ThetaConstant,
    ThetaExponential,
    ThetaLinear,
    TooShort,
    validate_series,
)

from oracles import longhand_series_error


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

    def test_explicit_step_must_match_grid(self):
        with pytest.raises(NonUniformGrid):
            InfluenceSeries(times=(-1.0, 0.0, 1.0), values=(1.0, 2.0, 3.0),
                            step=0.5)
        with pytest.raises(NonUniformGrid):
            InfluenceSeries(times=(-1.0, 0.0, 1.0), values=(1.0, 2.0, 3.0),
                            step=-1.0)

    @pytest.mark.parametrize("times,values,step,exc,message", [
        ([-1.0, 0.0, 1.0], [1.0, 2.0], None, ValueError,
         "times and values differ in length: 3 vs 2"),
        ([], [], None, TooShort, "need at least 3 samples, got 0"),
        ([-1.0, 1.0], [1.0, 2.0], None, TooShort,
         "need at least 3 samples, got 2"),
        ([-1.0, math.nan, 1.0], [1.0, 2.0, 3.0], None, NonFiniteValue,
         "times must be finite, got nan"),
        ([-1.0, 0.0, 1.0], [1.0, math.nan, 3.0], None, NonFiniteValue,
         "values must be finite, got nan"),
        ([-1.0, -1.0, 0.0, 1.0, 1.0], [1.0] * 5, None, NonUniformGrid,
         "times must be strictly increasing; times[0]=-1.0 >= times[1]=-1.0"),
        ([-1.0, 0.0, 2.0], [1.0, 2.0, 3.0], None, AsymmetricGrid,
         "times[0]=-1.0 has no mirror partner; expected -times[2]=-2.0"),
        # t[0] + t[2] overflows to inf, which is still asymmetric
        ([1e308, 1.5e308, 1.7e308], [1.0, 2.0, 3.0], None, AsymmetricGrid,
         "times[0]=1e+308 has no mirror partner; expected -times[2]=-1.7e+308"),
        ([-1.5, -0.5, 0.5, 1.5], [1.0] * 4, None, AsymmetricGrid,
         "grid of even length 4 has no sample at t=0"),
        ([-1.0, 0.0, 1.0], [1.0, 2.0, 3.0], -1.0, NonUniformGrid,
         "step must be positive, got -1.0"),
        ([-1.0, 0.0, 1.0], [1.0, 2.0, 3.0], 0.5, NonUniformGrid,
         "spacing between times[0] and times[1] is 1.0, expected 0.5"),
        ([-2.0, -1.5, 0.0, 1.5, 2.0], [1.0] * 5, None, NonUniformGrid,
         "spacing between times[0] and times[1] is 0.5, expected 1.0"),
        # first rejected by the finiteness check, so no inf - inf step
        # warning escapes
        ([math.inf, 0.0, math.inf], [1.0, 2.0, 3.0], None, NonFiniteValue,
         "times must be finite, got inf"),
        ([[-1.0], [0.0], [1.0]], [1.0, 2.0, 3.0], None, DimensionMismatch,
         "times must be 1-d, got shape (3, 1)"),
        ([-1.0, 0.0, 1.0], [[1, 1], [2, 2], [3, 3]], None, DimensionMismatch,
         "values must be 1-d, got shape (3, 2)"),
    ], ids=["length-mismatch", "n0", "n2", "nan-time", "nan-value",
            "repeated-time", "asymmetric", "sum-overflows", "even-length", "negative-step",
            "step-mismatch", "uneven-spacing", "inf-0-inf", "nested-times",
            "nested-values"])
    def test_rejection_type_and_message(self, times, values, step, exc,
                                        message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(exc) as info:
                if step is None:
                    validate_series(times, values)
                else:
                    InfluenceSeries(times=times, values=values, step=step)
        assert type(info.value) is exc
        assert str(info.value) == message

    @given(
        n=st.integers(min_value=0, max_value=12),
        h=st.sampled_from([1.0, 0.05, 1e-3, 0.3, 1e150, 1e300]),
        fault=st.sampled_from(["none", "nan", "inf", "repeat", "shift",
                               "mirror-shift", "scale", "drop-value"]),
        where=st.integers(min_value=0, max_value=11),
        delta=st.sampled_from([1e-12, 1e-10, 1e-8, 0.3, 2.0]),
        step=st.sampled_from([None, 1.0, 0.05, -1.0, math.nan]),
    )
    @settings(max_examples=300, deadline=None)
    def test_checks_agree_with_longhand_loops(self, n, h, fault, where, delta,
                                              step):
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
        want = longhand_series_error(times, values, step)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                if step is None:
                    series = validate_series(times, values)
                else:
                    series = InfluenceSeries(times=times, values=values,
                                             step=step)
            except Exception as exc:  # compared with the reference below
                assert (type(exc), str(exc)) == want
            else:
                assert want is None
                assert series.times.tolist() == times
                assert series.values.tolist() == values

    def test_fields_are_read_only_float64_arrays(self):
        times = np.array([-1.0, 0.0, 1.0])
        series = InfluenceSeries(times=times, values=[1, 2, 3], step=1)
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

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            Regime(tag=RegimeTag.EXPONENTIAL, r=-0.1)

    def test_tag_type_checked(self):
        with pytest.raises(TypeError):
            Regime(tag="exponential", r=0.1)


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

    def test_rank_permutation_enforced(self):
        with pytest.raises(ValueError):
            RankingResult(entries=(entry(1, "A", 0.2, 1), entry(3, "B", 0.5, 2)))

    def test_step_permutation_enforced(self):
        with pytest.raises(ValueError):
            RankingResult(entries=(entry(1, "A", 0.2, 1), entry(2, "B", 0.5, 1)))

    def test_order_by_rank_enforced(self):
        with pytest.raises(ValueError):
            RankingResult(entries=(entry(2, "B", 0.5, 2), entry(1, "A", 0.2, 1)))

    def test_sort_key_consistency_enforced(self):
        # rank order must agree with ascending (singval, elimination_step)
        with pytest.raises(ValueError):
            RankingResult(entries=(entry(1, "A", 0.9, 1), entry(2, "B", 0.2, 2)))

    def test_entry_validation(self):
        with pytest.raises(ValueError):
            entry(0, "A", 0.2, 1)
        with pytest.raises(ValueError):
            entry(1, "A", -0.2, 1)
        with pytest.raises(ValueError):
            entry(1, "A", 0.2, 0)

    def test_unknown_name(self):
        result = RankingResult(entries=(entry(1, "A", 0.0, 1),))
        with pytest.raises(KeyError):
            result.by_name("Z")
