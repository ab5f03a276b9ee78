"""Coefficient recovery from sampled series."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mirrordde import (
    DdeParams,
    DegenerateSystem,
    FdMode,
    ModeCoefficients,
    NonFiniteValue,
    NonPositiveR,
    RegimeTag,
    SingularSystem,
    TooShort,
    base_solution,
    fit_ab,
    fit_modes,
    fit_pipeline,
    modes_to_AB,
    oscillatory_solution,
    validate_series,
)

from oracles import loop_fit_ab, loop_fit_modes, lstsq_coefficients


def symmetric_grid(half_width: float, h: float) -> list[float]:
    n_half = round(half_width / h)
    return [h * (i - n_half) for i in range(2 * n_half + 1)]


def series_from_model(a, b, p0=1.0, half_width=3.0, h=0.05, noise=None, seed=0):
    params = DdeParams(a=a, b=b, p0=p0, half_width=half_width)
    times = symmetric_grid(half_width, h)
    values = [base_solution(params, t) for t in times]
    if noise is not None:
        rng = np.random.default_rng(seed)
        values = [v + e for v, e in zip(values, rng.normal(0.0, noise,
                                                           len(values)))]
    return validate_series(times, values)


# ---------------------------------------------------------------------------
# fit_ab
# ---------------------------------------------------------------------------

class TestFitAb:
    def test_recovers_coefficients_central(self):
        series = series_from_model(0.2, 0.6)
        a, b, rss = fit_ab(series)
        assert abs(a - 0.2) <= 1e-3
        assert abs(b - 0.6) <= 1e-3
        assert 0.0 <= rss <= 1e-12

    def test_recovers_coefficients_forward(self):
        series = series_from_model(0.2, 0.6)
        a, b, _ = fit_ab(series, FdMode.FORWARD)
        # first-order differences leave an O(h) bias
        assert abs(a - 0.2) <= 5e-2
        assert abs(b - 0.6) <= 5e-2

    def test_matches_dense_least_squares(self):
        series = series_from_model(0.15, 0.55, p0=0.8)
        a, b, _ = fit_ab(series)
        # same regression assembled longhand and solved by lstsq
        n = len(series)
        v = series.values
        h = series.step
        z = [(v[i + 1] - v[i - 1]) / (2 * h) for i in range(1, n - 1)]
        x = [v[n - 1 - i] for i in range(1, n - 1)]
        y = [v[i] for i in range(1, n - 1)]
        want = lstsq_coefficients(list(zip(x, y)), z)
        assert a == pytest.approx(want[0], rel=1e-9, abs=1e-12)
        assert b == pytest.approx(want[1], rel=1e-9, abs=1e-12)

    def test_second_order_truncation_decay(self):
        # central-difference bias scales the estimates by (1 + r^2 h^2 / 6),
        # so halving h divides the coefficient error by 4
        errors = []
        for h in (0.1, 0.05, 0.025):
            series = series_from_model(0.2, 0.6, h=h)
            a, b, _ = fit_ab(series)
            errors.append(abs(b - 0.6))
        assert 3.5 <= errors[0] / errors[1] <= 4.5
        assert 3.5 <= errors[1] / errors[2] <= 4.5

    def test_constant_series_degenerate(self):
        times = symmetric_grid(2.0, 0.25)
        with pytest.raises(DegenerateSystem) as excinfo:
            fit_ab(validate_series(times, [1.0] * len(times)))
        assert excinfo.value.stage == "fit_ab"

    def test_even_series_degenerate(self):
        # cosh makes the mirrored and plain samples identical: collinear
        times = symmetric_grid(2.0, 0.25)
        with pytest.raises(DegenerateSystem):
            fit_ab(validate_series(times, [math.cosh(t) for t in times]))

    def test_overflowing_sums_degenerate(self):
        # the products reach 1e300, so det = inf - inf = nan
        base = series_from_model(0.2, 0.6)
        scaled = validate_series(base.times, [1e150 * v for v in base.values])
        with pytest.raises(DegenerateSystem, match="det=nan") as excinfo:
            fit_ab(scaled)
        assert excinfo.value.stage == "fit_ab"

    @pytest.mark.parametrize("mode", list(FdMode))
    def test_overflow_near_float_max_is_quiet(self, mode):
        times = symmetric_grid(2.0, 0.25)
        values = [1.7e308 * (-1.0) ** i for i in range(len(times))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateSystem) as excinfo:
                fit_ab(validate_series(times, values), mode)
        assert excinfo.value.stage == "fit_ab"

    def test_too_few_interior_points(self):
        with pytest.raises(TooShort):
            fit_ab(validate_series([-0.1, 0.0, 0.1], [0.9, 1.0, 1.15]))
        with pytest.raises(TooShort):
            fit_ab(validate_series([-0.1, 0.0, 0.1], [0.9, 1.0, 1.15]),
                   FdMode.FORWARD)


# ---------------------------------------------------------------------------
# the array reductions against the per-sample loops
# ---------------------------------------------------------------------------

def outcome(fn, *args) -> str:
    """``repr`` of the result, or the type and text of the exception."""
    try:
        return repr(fn(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


# ordinary values, values near the edge of float64, and zeros of both signs
sample_values = st.one_of(
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=-1.7e308, max_value=1.7e308),
    st.sampled_from([0.0, -0.0]),
)


@st.composite
def symmetric_series(draw):
    n_half = draw(st.integers(min_value=1, max_value=20))
    h = draw(st.floats(min_value=1e-3, max_value=10.0))
    times = [h * (i - n_half) for i in range(2 * n_half + 1)]
    values = draw(st.lists(sample_values, min_size=len(times),
                           max_size=len(times)))
    return validate_series(times, values)


class TestLoopReference:
    """Bit-for-bit agreement with the sums written as Python loops.

    The golden files print 12 digits, so a reordered sum that moves the last
    bit only shows up here.
    """

    @given(series=symmetric_series(), mode=st.sampled_from(list(FdMode)))
    # every product of the szx and sxy sums is -0.0: a reduction that does
    # not start from +0.0 returns a = -0.0
    @example(series=validate_series([-2.0, -1.0, 0.0, 1.0, 2.0],
                                    [-0.0, 0.0, 0.0, -1.0, -1.0]),
             mode=FdMode.CENTRAL)
    @example(series=series_from_model(0.15, 0.55), mode=FdMode.CENTRAL)
    @example(series=series_from_model(-0.3, 0.9), mode=FdMode.FORWARD)
    @settings(max_examples=300, deadline=None)
    def test_fit_ab_matches_loop(self, series, mode):
        assert outcome(fit_ab, series, mode) == outcome(loop_fit_ab, series, mode)

    @given(series=symmetric_series(),
           r=st.floats(min_value=1e-3, max_value=5.0))
    @example(series=series_from_model(-0.3, 0.9), r=math.sqrt(0.9**2 - 0.3**2))
    @settings(max_examples=300, deadline=None)
    def test_fit_modes_matches_loop(self, series, r):
        assert outcome(fit_modes, series, r) == outcome(loop_fit_modes, series, r)


# ---------------------------------------------------------------------------
# fit_modes
# ---------------------------------------------------------------------------

class TestFitModes:
    def two_mode_series(self, w1, w2, r=0.4, h=0.05, half_width=3.0):
        times = symmetric_grid(half_width, h)
        values = [w1 * math.exp(r * t) + w2 * math.exp(-r * t) for t in times]
        return validate_series(times, values)

    def test_exact_two_mode_recovery(self):
        series = self.two_mode_series(2.0, 3.0)
        w1, w2, rss = fit_modes(series, 0.4)
        assert abs(w1 - 2.0) <= 1e-6
        assert abs(w2 - 3.0) <= 1e-6
        assert 0.0 <= rss <= 1e-10

    def test_pure_decaying_mode(self):
        series = self.two_mode_series(0.0, 1.0)
        w1, w2, _ = fit_modes(series, 0.4)
        assert abs(w1 - 0.0) <= 1e-6
        assert abs(w2 - 1.0) <= 1e-6

    def test_pure_growing_mode(self):
        series = self.two_mode_series(1.0, 0.0)
        w1, w2, _ = fit_modes(series, 0.4)
        assert abs(w1 - 1.0) <= 1e-6
        assert abs(w2 - 0.0) <= 1e-6

    def test_matches_dense_least_squares(self):
        series = self.two_mode_series(1.3, -0.4)
        r = 0.4
        w1, w2, _ = fit_modes(series, r)
        X = [math.exp(2 * r * t) for t in series.times]
        Y = [math.exp(r * t) * p for t, p in zip(series.times, series.values)]
        want = lstsq_coefficients([[xi, 1.0] for xi in X], Y)
        assert w1 == pytest.approx(want[0], rel=1e-9, abs=1e-12)
        assert w2 == pytest.approx(want[1], rel=1e-9, abs=1e-12)

    def test_rate_must_be_positive(self):
        series = self.two_mode_series(2.0, 3.0)
        with pytest.raises(NonPositiveR):
            fit_modes(series, 0.0)
        with pytest.raises(NonPositiveR):
            fit_modes(series, -0.4)

    def test_vanishing_rate_collapses_design(self):
        series = self.two_mode_series(2.0, 3.0)
        with pytest.raises(DegenerateSystem) as excinfo:
            fit_modes(series, 1e-12)
        assert excinfo.value.stage == "fit_modes"

    def test_overflowing_exponential_is_non_finite_value(self):
        # e^(2rt) = e^800 at t = 1 leaves float64, so math.exp raises
        times = symmetric_grid(1.0, 0.02)
        series = validate_series(times, [1 + t for t in times])
        with pytest.raises(NonFiniteValue, match="overflows float64"):
            fit_modes(series, 400.0)


# ---------------------------------------------------------------------------
# modes_to_AB
# ---------------------------------------------------------------------------

class TestModesToAB:
    def test_identity_like_system(self):
        assert modes_to_AB(2.0, 3.0, 1.0, 0.0) == pytest.approx((2.0, 3.0),
                                                                abs=1e-15)

    def test_equal_coefficients_singular(self):
        with pytest.raises(SingularSystem):
            modes_to_AB(1.0, 1.0, 0.4, 0.4)
        with pytest.raises(SingularSystem):
            modes_to_AB(1.0, 1.0, 0.4, -0.4)

    def test_worked_inversion(self):
        # forward: w1 = 0.3*2 + 0.5*3 = 2.1, w2 = 0.3*3 + 0.5*2 = 1.9
        A, B = modes_to_AB(2.1, 1.9, 0.3, 0.5)
        assert A == pytest.approx(2.0, abs=1e-12)
        assert B == pytest.approx(3.0, abs=1e-12)

    @given(
        a=st.floats(min_value=-2.0, max_value=2.0),
        b=st.floats(min_value=-2.0, max_value=2.0),
        A=st.floats(min_value=-5.0, max_value=5.0),
        B=st.floats(min_value=-5.0, max_value=5.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_through_amplitudes(self, a, b, A, B):
        assume(abs(a * a - b * b) > 1e-3)
        params = DdeParams(a=a, b=b, p0=1.0)
        modes = ModeCoefficients.from_amplitudes(A, B, params)
        back = modes_to_AB(modes.w1, modes.w2, a, b)
        assert back[0] == pytest.approx(A, rel=1e-9, abs=1e-9)
        assert back[1] == pytest.approx(B, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# fit_pipeline
# ---------------------------------------------------------------------------

class TestFitPipeline:
    def test_full_report_on_exponential_series(self):
        series = series_from_model(0.2, 0.6)
        report = fit_pipeline(series)
        assert report.regime.tag is RegimeTag.EXPONENTIAL
        assert abs(report.params.a - 0.2) <= 1e-3
        assert abs(report.params.b - 0.6) <= 1e-3
        assert report.params.p0 == series.value_at_zero
        assert type(report.params.p0) is float
        assert type(report.params.half_width) is float
        assert report.n_points == len(series)
        assert report.modes is not None
        assert report.modes.consistent_with(report.params)
        assert report.rss_ab <= 1e-6
        assert report.rss_modes <= 1e-6
        assert report.modes_note is None

    def test_oscillatory_series_skips_modes(self):
        params = DdeParams(a=0.6, b=0.2, p0=1.0)
        times = symmetric_grid(3.0, 0.05)
        values = [oscillatory_solution(params, t).value for t in times]
        report = fit_pipeline(validate_series(times, values))
        assert report.regime.tag is RegimeTag.OSCILLATORY
        assert abs(report.params.a - 0.6) <= 1e-3
        assert abs(report.params.b - 0.2) <= 1e-3
        assert report.modes is None
        assert report.rss_modes is None
        assert "oscillatory" in report.modes_note

    def test_noisy_recovery_within_statistical_tolerance(self):
        series = series_from_model(0.2, 0.6, noise=0.01, seed=42)
        report = fit_pipeline(series)
        assert abs(report.params.a - 0.2) / 0.2 <= 0.05
        assert abs(report.params.b - 0.6) / 0.6 <= 0.05

    @given(s=st.floats(min_value=0.05, max_value=40.0))
    @settings(max_examples=25, deadline=None)
    def test_value_scaling_scales_modes_only(self, s):
        base = series_from_model(0.2, 0.6)
        scaled = validate_series(base.times, [s * v for v in base.values])
        rep0 = fit_pipeline(base)
        rep1 = fit_pipeline(scaled)
        assert rep1.params.a == pytest.approx(rep0.params.a, abs=1e-9)
        assert rep1.params.b == pytest.approx(rep0.params.b, abs=1e-9)
        for field in ("w1", "w2", "A", "B"):
            got = getattr(rep1.modes, field)
            want = s * getattr(rep0.modes, field)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_deterministic(self):
        rep0 = fit_pipeline(series_from_model(0.2, 0.6))
        rep1 = fit_pipeline(series_from_model(0.2, 0.6))
        assert rep0.params == rep1.params
        assert rep0.modes == rep1.modes
        assert rep0.rss_ab == rep1.rss_ab
        assert rep0.rss_modes == rep1.rss_modes

    def test_degenerate_input_labelled_with_stage(self):
        times = symmetric_grid(2.0, 0.25)
        with pytest.raises(DegenerateSystem) as excinfo:
            fit_pipeline(validate_series(times, [2.0] * len(times)))
        assert excinfo.value.stage == "fit_ab"
