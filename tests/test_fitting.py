"""Coefficient recovery from sampled series."""

from __future__ import annotations

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
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
    evaluate,
    fit_ab,
    fit_modes,
    finite_diff,
    fit_pipeline,
    modes_to_AB,
    validate_series,
)
from mirrordde.fitting import _rate

from oracles import (loop_fit_ab, loop_fit_modes, lstsq_coefficients,
                     mp_forced_solution, mp_two_mode_lstsq)
from test_acceptance import round_trip_windows


#: A series on a subnormal step: its difference quotients are about 1e323
#: times its samples, so (a, b) are beyond float64.
SUBNORMAL_TIMES = [-1e-323, -5e-324, 0.0, 5e-324, 1e-323]
SUBNORMAL_VALUES = [1e-320, 2e-320, 4e-320, 7e-320, 1.1e-319]


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


def ab_or_error(series, mode):
    """(a, b) of ``fit_ab`` as bits, or the type of the exception."""
    try:
        a, b, _ = fit_ab(series, mode)
    except Exception as exc:
        return type(exc)
    return a.hex(), b.hex()


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

    def test_overflowing_sums_recover(self):
        # unscaled, the products reach 1e300 and det = inf - inf = nan
        base = series_from_model(0.2, 0.6)
        scaled = validate_series(base.times, [1e150 * v for v in base.values])
        a, b, rss = fit_ab(scaled)
        a0, b0, _ = fit_ab(base)
        assert a == pytest.approx(a0, rel=1e-12)
        assert b == pytest.approx(b0, rel=1e-12)
        assert 0.0 <= rss <= 1e300 * 1e-12  # the unscaled bound, times 1e300

    def test_wide_exponential_series_recovers(self):
        # b = 80 on [-5, 5]: |p| reaches 5e173 and its squares overflow
        a, b, _ = fit_ab(series_from_model(0.0, 80.0, half_width=5.0, h=0.01))
        # central differences scale (a, b) by sinh(rh)/(rh), r = 80, h = 0.01
        assert a == 0.0
        assert b == pytest.approx(80.0 * math.sinh(0.8) / 0.8, rel=1e-12)

    @given(series=symmetric_series(), mode=st.sampled_from(list(FdMode)),
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_power_of_two_scale_leaves_ab_bitwise(self, series, mode, data):
        # any 2**k that keeps every sample and difference quotient a normal
        # float64, in the series and in its scaled copy, scales out of (a, b)
        # exactly; the differences, taken before the division by the step,
        # must stay finite too, or the scaled copy's quotients are inf
        v = series.values
        diffs = v[2:] - v[:-2] if mode is FdMode.CENTRAL else v[1:] - v[:-1]
        mags = np.abs(np.concatenate([v, finite_diff(series, mode)]))
        assume(np.isfinite(mags).all() and mags.max() > 0.0)
        assume(mags[mags > 0.0].min() >= np.finfo(float).tiny)
        lo = -1021 - math.frexp(float(mags[mags > 0.0].min()))[1]
        hi = 1024 - math.frexp(float(max(mags.max(),
                                          np.abs(diffs).max())))[1]
        assume(lo <= hi)
        k = data.draw(st.integers(min_value=lo, max_value=hi))
        scaled = validate_series(series.times, np.ldexp(series.values, k))
        assert ab_or_error(scaled, mode) == ab_or_error(series, mode)

    @pytest.mark.parametrize("mode", list(FdMode))
    def test_overflow_near_float_max_is_quiet(self, mode):
        times = symmetric_grid(2.0, 0.25)
        values = [1.7e308 * (-1.0) ** i for i in range(len(times))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateSystem) as excinfo:
                fit_ab(validate_series(times, values), mode)
        assert excinfo.value.stage == "fit_ab"

    @pytest.mark.parametrize("mode", list(FdMode))
    def test_subnormal_step_is_a_quiet_non_finite_value(self, mode):
        # the quotients used to be scaled by the samples' power of two,
        # which overflowed with numpy's RuntimeWarning
        series = validate_series(SUBNORMAL_TIMES, SUBNORMAL_VALUES)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match=(
                    r"^fit_ab's \(a, b\) = \(inf, inf\) leave float64$")):
                fit_ab(series, mode)

    def test_too_few_interior_points(self):
        with pytest.raises(TooShort):
            fit_ab(validate_series([-0.1, 0.0, 0.1], [0.9, 1.0, 1.15]))
        with pytest.raises(TooShort):
            fit_ab(validate_series([-0.1, 0.0, 0.1], [0.9, 1.0, 1.15]),
                   FdMode.FORWARD)


# ---------------------------------------------------------------------------
# the array reductions against the per-sample loops
# ---------------------------------------------------------------------------

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
    # scaled by 2**-512 the last forward quotient's products no longer
    # overflow: a singular det = 0.0 instead of nan on both sides
    @example(series=validate_series([-2.0, -1.0, 0.0, 1.0, 2.0],
                                    [0.0, 0.0, 0.0, 0.0, 1.34e154]),
             mode=FdMode.FORWARD)
    @example(series=series_from_model(0.15, 0.55), mode=FdMode.CENTRAL)
    @example(series=series_from_model(-0.3, 0.9), mode=FdMode.FORWARD)
    # a subnormal step: the quotients need a scale of their own
    @example(series=validate_series(SUBNORMAL_TIMES, SUBNORMAL_VALUES),
             mode=FdMode.CENTRAL)
    @settings(max_examples=300, deadline=None)
    def test_fit_ab_matches_loop(self, series, mode):
        assert outcome(fit_ab, series, mode) == outcome(loop_fit_ab, series, mode)

    @given(series=symmetric_series(),
           r=st.floats(min_value=1e-3, max_value=5.0))
    @example(series=series_from_model(-0.3, 0.9), r=math.sqrt(0.9**2 - 0.3**2))
    # e^54 times the last value is just past float64: an array product
    # outside np.errstate warns (an error under the pytest filters), while
    # the loop gets inf and then a singular system
    @example(series=validate_series([6.0 * (i - 9) for i in range(19)],
                                    [0.0] * 18 + [6.35058214e284]),
             r=1.0)
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
        """Least squares of p on e^{rt}, e^{-rt} over the whole grid, solved
        in 50-digit arithmetic from the same float samples: on exact
        two-mode data, and with a cubic that no two-mode curve fits."""
        r = 0.4
        exact = self.two_mode_series(1.3, -0.4, r=r)
        cubic = validate_series(exact.times,
                                exact.values + 0.01 * exact.times ** 3)
        for series in (exact, cubic):
            w1, w2, _ = fit_modes(series, r)
            want = mp_two_mode_lstsq(series, r)
            assert w1 == pytest.approx(want[0], rel=1e-12)
            assert w2 == pytest.approx(want[1], rel=1e-12)

    def test_rate_must_be_positive(self):
        series = self.two_mode_series(2.0, 3.0)
        with pytest.raises(NonPositiveR):
            fit_modes(series, 0.0)
        with pytest.raises(NonPositiveR):
            fit_modes(series, -0.4)

    def test_vanishing_rate_collapses_design(self):
        # e^{rt} and e^{-rt} agree to 1e-12, but cosh(rt) is 1.0 and
        # sinh(rt)/r is t to rounding: the fit is the straight line
        # alpha + beta t, and w1, w2 = (alpha +- beta/r)/2
        series = self.two_mode_series(2.0, 3.0)
        r = 1e-12
        w1, w2, _ = fit_modes(series, r)
        alpha, beta = lstsq_coefficients(
            [[1.0, t] for t in series.times], series.values)
        assert w1 == pytest.approx((alpha + beta / r) / 2, rel=1e-12)
        assert w2 == pytest.approx((alpha - beta / r) / 2, rel=1e-12)

    def test_overflowing_exponential_is_non_finite_value(self):
        # cosh(rt) = cosh(800) at t = 1 leaves float64, so math.cosh raises
        times = symmetric_grid(1.0, 0.02)
        series = validate_series(times, [1 + t for t in times])
        with pytest.raises(NonFiniteValue, match=(
                r"^the mode fit's columns leave float64 \(math range "
                r"error\)$")):
            fit_modes(series, 800.0)
        # sinh(710) = 1.1e308 is finite, sinh(710)/0.5 is not
        times = symmetric_grid(1420.0, 1.0)
        series = validate_series(times, [1 + t for t in times])
        with pytest.raises(NonFiniteValue, match=r"\(sinh\(rt\)/r overflows\)$"):
            fit_modes(series, 0.5)
        # r t itself is beyond float64
        times = symmetric_grid(1e10, 1e9)
        series = validate_series(times, [1 + t for t in times])
        with pytest.raises(NonFiniteValue, match=r"\(r\*t overflows\)$"):
            fit_modes(series, 1e300)

    def test_samples_near_float_max_are_scaled(self):
        # e^(rt) p(t) reached 7.4e308 = inf in the line fit, whose sums then
        # gave (nan, nan, nan); the series is scaled by a power of two now,
        # and only the mean squared residual in p's units leaves float64
        series = validate_series([-2.0, -1.0, 0.0, 1.0, 2.0],
                                 [1e308, -1e308, 1e308, 1e308, -1e308])
        w1, w2, rss = fit_modes(series, 1.0)
        want = mp_two_mode_lstsq(series, 1.0)
        assert w1 == pytest.approx(want[0], rel=1e-12)
        assert w2 == pytest.approx(want[1], rel=1e-12)
        assert rss == math.inf

    def test_rate_times_grid_underflows_to_zero(self):
        # r t = 5e-324 * 0.25 rounds to 0.0, so sinh(rt)/r is 0 everywhere
        series = validate_series([-0.25, 0.0, 0.25], [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateSystem, match="is 0 on the whole grid"):
            fit_modes(series, 5e-324)

    def test_even_part_near_zero_overflows_s(self):
        # sinh(rt)/r = t = 1e-300 makes beta/alpha about 2**997 * 3e10
        series = validate_series([-1e-300, 0.0, 1e-300], [-1.0, 1e-10, 1.0])
        with pytest.raises(DegenerateSystem, match=r"a \+ b overflows"):
            fit_modes(series, 1.0)

    def test_amplitudes_beyond_float64(self):
        # w1 = alpha (r + s) / 2r with r = 5e-324 and s near 1
        series = validate_series([-2.0, -1.0, 0.0, 1.0, 2.0],
                                 [-1.0, 0.0, 1.0, 2.0, 3.0])
        with pytest.raises(NonFiniteValue, match="^mode amplitudes"):
            fit_modes(series, 5e-324)

    def test_even_series_has_no_s(self):
        # s = beta/alpha = 0, as a = -b gives: a - b cannot be identified
        times = symmetric_grid(3.0, 0.05)
        for values in ([2.0] * len(times), [math.cosh(0.4 * t) for t in times]):
            with pytest.raises(DegenerateSystem) as excinfo:
                fit_modes(validate_series(times, values), 0.4)
            assert excinfo.value.stage == "fit_modes"
            assert "odd (a = -b) part" in str(excinfo.value)

    def test_odd_series_has_no_alpha(self):
        times = symmetric_grid(3.0, 0.05)
        with pytest.raises(DegenerateSystem) as excinfo:
            fit_modes(validate_series(times, times), 0.4)
        assert excinfo.value.stage == "fit_modes"
        assert "even part" in str(excinfo.value)


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

    def test_coefficients_whose_squares_sum_past_float64(self):
        # a**2 + b**2 overflows; a**2 - b**2 = -6.9e307 does not
        A, B = modes_to_AB(1.0, 2.0, 1e154, 1.3e154)
        assert math.isfinite(A) and math.isfinite(B)
        assert 1e154 * A + 1.3e154 * B == pytest.approx(1.0, rel=1e-14)
        assert 1.3e154 * A + 1e154 * B == pytest.approx(2.0, rel=1e-14)

    def test_overflowing_amplitudes_are_non_finite_value(self):
        # det = 1e-20 passes the relative test; A = 1e300 * 1e-10 / 1e-20
        with pytest.raises(NonFiniteValue, match=r"^2x2 solution \(inf, "):
            modes_to_AB(1e300, 1.0, 1e-10, 0.0)

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
        values = evaluate(params, times)
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

    # ROADMAP item 2's five series: (a, b, half width, steps)
    MODEL_SERIES = [
        (0.3, 0.9, 5.0, 100),       # simulate's default window
        (1.0, 2.0, 5.0, 10000),
        (1.0, 4.0, 5.0, 200),       # r T = 19.4: the line fit's det 2.6e36
        (0.9, 0.3, 5.0, 100),       # oscillatory
        (-0.7, 0.2, 5.0, 100),
    ]

    @staticmethod
    def model_series(a, b, half_width, steps, p0=1.0):
        times = [(-half_width * (steps - i) + half_width * i) / steps
                 for i in range(steps + 1)]
        return validate_series(times, evaluate(DdeParams(a=a, b=b, p0=p0),
                                               times))

    @pytest.mark.parametrize("a,b,half_width,steps", MODEL_SERIES)
    @pytest.mark.parametrize("mode", list(FdMode))
    def test_exact_on_model_data(self, a, b, half_width, steps, mode):
        report = fit_pipeline(self.model_series(a, b, half_width, steps), mode)
        assert report.params.a == pytest.approx(a, rel=1e-12)
        assert report.params.b == pytest.approx(b, rel=1e-12)
        assert report.regime.r == pytest.approx(math.sqrt(abs(b * b - a * a)),
                                                rel=1e-12)

    @given(window=round_trip_windows(), mode=st.sampled_from(list(FdMode)))
    @example(window=("exponential", 1.875, -2.125, -0.001, 6.0, 20, 0.0),
             mode=FdMode.FORWARD)  # 1 + h b < 0
    @settings(max_examples=200, deadline=None)
    def test_exact_on_mpmath_model_data(self, window, mode):
        """C14's windows, sampled in mpmath at 50 digits and rounded once:
        a and b within 1e-12 of max(|a|, |b|), and in the exponential
        regime w1 and w2 within 1e-12 of |w1| + |w2|, both against the
        exact values of the float (a, b, p0).  Forward quotients whose
        1 + h b is not positive match no rate, and must fail with that
        error (counted as a hypothesis event)."""
        regime, a, b, p0, half_width, steps, _ = window
        times = [(-half_width * (steps - i) + half_width * i) / steps
                 for i in range(steps + 1)]
        with mp.workdps(50):
            # r is imaginary in the oscillatory regime
            r = mp.sqrt(mp.mpf(b) ** 2 - mp.mpf(a) ** 2)
            s = mp.mpf(a) + mp.mpf(b)
            w1, w2 = p0 * (r + s) / (2 * r), p0 * (r - s) / (2 * r)
            p = mp_forced_solution(a, b, w1, w2, dps=50)
            values = [float(mp.re(p(t))) for t in times]
        try:
            report = fit_pipeline(validate_series(times, values), mode)
        except DegenerateSystem as exc:
            assert mode is FdMode.FORWARD, exc
            assert str(exc).startswith("forward differences identify no "
                                       "rate: 1 + h*b = "), exc
            event("forward quotients identify no rate")
            return
        assert report.regime.tag.value == regime
        scale = max(abs(a), abs(b))
        assert abs(report.params.a - a) <= 1e-12 * scale
        assert abs(report.params.b - b) <= 1e-12 * scale
        if regime == "exponential":
            w1, w2 = float(w1), float(w2)
            bound = 1e-12 * (abs(w1) + abs(w2))
            assert abs(report.modes.w1 - w1) <= bound
            assert abs(report.modes.w2 - w2) <= bound

    @pytest.mark.parametrize("a,b,half_width,steps", MODEL_SERIES)
    def test_central_and_forward_agree(self, a, b, half_width, steps):
        # both invert their own difference quotient exactly, so --fd moves
        # only rss_ab and rounding
        series = self.model_series(a, b, half_width, steps)
        central = fit_pipeline(series, FdMode.CENTRAL)
        forward = fit_pipeline(series, FdMode.FORWARD)
        assert forward.params.a == pytest.approx(central.params.a, rel=1e-12)
        assert forward.params.b == pytest.approx(central.params.b, rel=1e-12)
        assert forward.rss_ab != central.rss_ab

    @pytest.mark.parametrize("mode", list(FdMode))
    def test_wide_window_two_mode_series(self, mode):
        # 49 points at h = 0.5 on [-12, 12]: the line fit in e^{2rt} gave
        # w2 = 3.5e8 from the sinh(rh)/(rh) bias of the rate
        r, w1, w2 = 1.1476, 0.5434, 0.2246
        times = symmetric_grid(12.0, 0.5)
        series = validate_series(times, [w1 * math.exp(r * t)
                                         + w2 * math.exp(-r * t)
                                         for t in times])
        report = fit_pipeline(series, mode)
        assert report.regime.r == pytest.approx(r, rel=1e-14)
        assert report.modes.w1 == pytest.approx(w1, rel=1e-13)
        assert report.modes.w2 == pytest.approx(w2, rel=1e-13)

    def test_under_sampled_oscillation_is_degenerate(self):
        # (a, b) = (1.5, 0.5) at h = 1: sin(w h) would be sqrt(2)
        series = validate_series([-2.0, -1.0, 0.0, 1.0, 2.0],
                                 [-1.0, 1.0, 0.0, 0.0, 3.0])
        with pytest.raises(DegenerateSystem, match="under-sampled") as excinfo:
            fit_pipeline(series)
        assert excinfo.value.stage == "fit_modes"

    def test_forward_differences_past_the_rate(self):
        # a = -1, b = -3 at h = 0.75: 1 + h b_fd = cosh(rh) + (s/r) sinh(rh)
        # < 0, so no rate has these forward quotients; central ones do
        series = self.model_series(-1.0, -3.0, 6.0, 16)
        with pytest.raises(DegenerateSystem, match="1 \\+ h\\*b") as excinfo:
            fit_pipeline(series, FdMode.FORWARD)
        assert excinfo.value.stage == "fit_modes"
        report = fit_pipeline(series)
        assert report.params.a == pytest.approx(-1.0, rel=1e-12)
        assert report.params.b == pytest.approx(-3.0, rel=1e-12)

    @pytest.mark.parametrize("mode", list(FdMode))
    def test_rate_that_underflows_is_refused(self, mode):
        # h sqrt(b**2 - a**2) = 5e-324 * 0.1 rounds to 0.0, so r = 0.0.
        # At a subnormal step fit_ab's quotients are about 2**-53 / h times
        # the samples, so no series is known to give it so small a pair:
        # the guard is pinned on _rate itself
        with pytest.raises(DegenerateSystem, match=r"at step 5e-324 is 0\.0$"):
            _rate(0.0, 0.1, 5e-324, mode)

    def test_degenerate_pair_passes_through(self):
        # inside the degenerate band r = 0, where a difference quotient is
        # exact: the pipeline reports fit_ab's pair
        series = self.model_series(0.37, 0.37, 5.0, 400, p0=0.9)
        a, b, rss_ab = fit_ab(series)
        report = fit_pipeline(series)
        assert report.regime.tag is RegimeTag.DEGENERATE
        assert (report.params.a, report.params.b, report.rss_ab) == (a, b, rss_ab)
        assert report.modes is None and report.rss_modes is None
