"""Regime classification and the closed-form solution family."""

from __future__ import annotations

import math
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from mirrordde import (
    ControlConfig,
    DdeParams,
    EtaArticleBased,
    EtaTimeExponential,
    FdMode,
    FeatureMatrix,
    GrowthKind,
    InfluenceSeries,
    MirrorDdeError,
    NegativeInfluenceWarning,
    NonFiniteState,
    NonFiniteValue,
    OutOfRange,
    RegimeTag,
    ResonantForcing,
    ThetaConstant,
    ThetaExponential,
    ThetaLinear,
    WrongRegime,
    ZeroCoefficient,
    base_solution,
    classify,
    control_solution,
    degenerate_solution,
    eta_article,
    evaluate,
    fit_ab,
    fit_modes,
    finite_diff,
    fit_pipeline,
    initial_conditions_to_modes,
    lasso_fit,
    linear_growth_solution,
    modes_to_AB,
    nonsymmetric_solution,
    oracle_solution,
    rank_journals,
    solve_2x2,
    standardize,
    svd_values,
    validate_series,
)
from mirrordde import numerics, solver
from mirrordde.numerics import lasso_objective
from mirrordde.solver import _max_deviation, _require_regime

from oracles import (
    loop_forced_evaluate,
    loop_initial_conditions_to_modes,
    max_relative_deviation,
    mp_forced_solution,
    mp_forcing,
    mp_substitution_residual,
    rk4_trajectory,
    sample_layout_oracle,
)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

class TestClassify:
    def test_exponential(self):
        regime = classify(DdeParams(a=0.3, b=0.5, p0=1.0))
        assert regime.tag is RegimeTag.EXPONENTIAL
        assert regime.r == pytest.approx(0.4, abs=1e-15)

    def test_oscillatory(self):
        regime = classify(DdeParams(a=0.5, b=0.3, p0=1.0))
        assert regime.tag is RegimeTag.OSCILLATORY
        assert regime.r == pytest.approx(0.4, abs=1e-15)

    def test_degenerate(self):
        regime = classify(DdeParams(a=0.4, b=0.4, p0=1.0))
        assert regime.tag is RegimeTag.DEGENERATE
        assert regime.r == 0.0

    def test_degenerate_band_is_relative(self):
        # |b^2 - a^2| of ~8e-15 sits inside the 1e-12 relative band
        regime = classify(DdeParams(a=0.4, b=0.4 + 1e-14, p0=1.0))
        assert regime.tag is RegimeTag.DEGENERATE
        # but a clear gap does not
        assert classify(DdeParams(a=0.4, b=0.4001, p0=1.0)).tag \
            is RegimeTag.EXPONENTIAL

    def test_negated_coefficients_classify_alike(self):
        for a, b in [(0.3, 0.5), (0.5, 0.3)]:
            tag = classify(DdeParams(a=a, b=b, p0=1.0)).tag
            assert classify(DdeParams(a=-a, b=b, p0=1.0)).tag is tag
            assert classify(DdeParams(a=a, b=-b, p0=1.0)).tag is tag

    @pytest.mark.parametrize("a, b", [(1e200, 1e300), (0.0, 1e200),
                                      (1e200, 0.0)])
    def test_overflowing_squares_name_the_inputs(self, a, b):
        # b**2 - a**2 is nan, inf and -inf: each names a and b, not Regime.r
        with pytest.raises(NonFiniteValue) as info:
            classify(DdeParams(a=a, b=b, p0=1.0))
        assert str(info.value) == (f"b**2 - a**2 overflows float64 for "
                                   f"a={a!r}, b={b!r}")

    def test_squares_whose_sum_overflows(self):
        # b**2 + a**2 overflows float64, b**2 - a**2 = 6.9e307 does not
        regime = classify(DdeParams(a=1e154, b=1.3e154, p0=1.0))
        assert regime.tag is RegimeTag.EXPONENTIAL
        assert regime.r == math.sqrt(1.3e154 * 1.3e154 - 1e154 * 1e154)

    @given(a=st.floats(allow_nan=False, allow_infinity=False),
           b=st.floats(allow_nan=False, allow_infinity=False),
           near=st.floats(min_value=-4e-12, max_value=4e-12),
           pair=st.sampled_from(["free", "near"]))
    @example(a=0.4, b=0.0, near=1e-12, pair="near")
    @settings(max_examples=300, deadline=None)
    def test_band_is_the_textbook_one_wherever_that_is_finite(self, a, b,
                                                              near, pair):
        if pair == "near":
            b = a * (1.0 + near)  # |b**2 - a**2| near the band's edge
        disc = b * b - a * a
        tol = 1e-12 * max(1.0, b * b + a * a)
        assume(math.isfinite(disc) and math.isfinite(tol))
        if abs(disc) <= tol:
            want = RegimeTag.DEGENERATE
        else:
            want = RegimeTag.EXPONENTIAL if disc > 0.0 else RegimeTag.OSCILLATORY
        assert classify(DdeParams(a=a, b=b, p0=1.0)).tag is want


# ---------------------------------------------------------------------------
# base_solution
# ---------------------------------------------------------------------------

class TestBaseSolution:
    def test_value_at_origin_is_exact(self):
        for p0 in (1.0, 0.3, -2.5, 7.25):
            params = DdeParams(a=0.3, b=0.5, p0=p0)
            assert base_solution(params, 0.0) == p0

    def test_pure_present_term_gives_plain_exponential(self):
        params = DdeParams(a=0.0, b=1.0, p0=1.0)
        for t in np.linspace(-2.0, 2.0, 17):
            assert base_solution(params, t) == pytest.approx(
                math.exp(t), rel=1e-12)

    def test_wrong_regime_rejected(self):
        with pytest.raises(WrongRegime):
            base_solution(DdeParams(a=0.5, b=0.3, p0=1.0), 1.0)
        with pytest.raises(WrongRegime):
            base_solution(DdeParams(a=0.4, b=0.4, p0=1.0), 1.0)

    @given(
        a=st.floats(min_value=-0.9, max_value=0.9),
        b=st.floats(min_value=-0.95, max_value=0.95),
        p0=st.floats(min_value=0.1, max_value=3.0),
        t=st.floats(min_value=-4.0, max_value=4.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_hyperbolic_and_two_mode_forms_agree(self, a, b, p0, t):
        assume(b * b - a * a > 1e-6)
        params = DdeParams(a=a, b=b, p0=p0)
        r = math.sqrt(b * b - a * a)
        two_mode = (p0 / (2.0 * r)) * ((r + a + b) * math.exp(r * t)
                                       + (r - a - b) * math.exp(-r * t))
        value = base_solution(params, t)
        assert value == pytest.approx(two_mode, rel=1e-9, abs=1e-12)

    def test_dde_residual_small(self):
        # p'(t) = a p(-t) + b p(t), derivative via central difference
        params = DdeParams(a=0.3, b=0.5, p0=1.0)
        h = 1e-5
        for t in np.linspace(-3.0, 3.0, 25):
            deriv = (base_solution(params, t + h)
                     - base_solution(params, t - h)) / (2.0 * h)
            rhs = (params.a * base_solution(params, -t)
                   + params.b * base_solution(params, t))
            assert abs(deriv - rhs) <= 1e-7


# ---------------------------------------------------------------------------
# degenerate / oscillatory branches
# ---------------------------------------------------------------------------

class TestDegenerateSolution:
    def test_matched_coefficients(self):
        params = DdeParams(a=0.4, b=0.4, p0=1.0)
        assert degenerate_solution(params, 1.0) == pytest.approx(1.8, abs=1e-15)

    def test_antisymmetric_coefficients_freeze(self):
        params = DdeParams(a=-1.0, b=1.0, p0=2.0)
        for t in (-2.0, 0.0, 3.5):
            assert degenerate_solution(params, t) == 2.0

    def test_wrong_regime_rejected(self):
        with pytest.raises(WrongRegime):
            degenerate_solution(DdeParams(a=0.3, b=0.5, p0=1.0), 1.0)

    def test_limit_of_exponential_branch(self):
        # as r -> 0 with a+b fixed, the hyperbolic form collapses to the ramp
        a_plus_b = 0.8
        r = 1e-6
        # b - a = r^2 / (a+b)
        b = (a_plus_b + r * r / a_plus_b) / 2.0
        a = a_plus_b - b
        params = DdeParams(a=a, b=b, p0=1.3)
        ramp = DdeParams(a=0.4, b=0.4, p0=1.3)
        for t in (-2.0, -0.5, 1.0, 2.0):
            exact = base_solution(params, t)
            limit = degenerate_solution(ramp, t) / 1.3 * 1.3
            # the ramp uses a+b = 0.8 as well
            assert limit == pytest.approx(1.3 * (1.0 + 0.8 * t), abs=1e-15)
            assert exact == pytest.approx(limit, rel=1e-4, abs=1e-4)


class TestOscillatorySolution:
    def test_origin_value_and_flag(self):
        params = DdeParams(a=0.5, b=0.3, p0=1.7)
        assert classify(params).tag is RegimeTag.OSCILLATORY
        assert evaluate(params, [0.0]) == [1.7]

    def test_quarter_period(self):
        # w = 1, so at t = pi/2 only the sine term survives: p0 (a+b)/w
        params = DdeParams(a=1.0, b=0.0, p0=1.0)
        value, = evaluate(params, [math.pi / 2.0])
        assert value == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# nonsymmetric first-order model
# ---------------------------------------------------------------------------

class TestNonsymmetricSolution:
    def test_origin(self):
        assert nonsymmetric_solution(1.0, 2.0, 3.0, 0.7, 0.0).value \
            == pytest.approx(0.7, abs=1e-15)

    def test_homogeneous_pure_exponential(self):
        out = nonsymmetric_solution(2.0, 0.0, 1.0, 1.5, 1.0)
        assert out.kind is GrowthKind.EXPONENTIAL
        assert out.value == pytest.approx(1.5 * math.exp(0.5), rel=1e-12)

    def test_unit_coefficients_from_rest(self):
        out = nonsymmetric_solution(1.0, 1.0, 1.0, 0.0, 1.0)
        assert out.value == pytest.approx(math.e - 1.0, rel=1e-12)

    def test_against_integration(self):
        # a_c p' = b_c + c_c p integrated with RK4 on the augmented linear
        # state (p, 1): p' = (c_c/a_c) p + (b_c/a_c) 1, 1' = 0
        a_c, b_c, c_c, p0 = 2.0, -0.5, 0.8, 1.2
        out = rk4_trajectory(((c_c / a_c, b_c / a_c), (0.0, 0.0)), (p0, 1.0),
                             2.0, 1e-3)
        want = out[-1][1][0]
        got = nonsymmetric_solution(a_c, b_c, c_c, p0, 2.0).value
        assert got == pytest.approx(want, rel=1e-9)

    def test_linear_branch(self):
        out = nonsymmetric_solution(2.0, 1.0, 0.0, 0.5, 3.0)
        assert out.kind is GrowthKind.LINEAR
        assert out.value == pytest.approx(0.5 + 1.5, abs=1e-15)

    def test_zero_derivative_coefficient(self):
        with pytest.raises(ZeroCoefficient):
            nonsymmetric_solution(0.0, 1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("index, name", enumerate(["a_c", "b_c", "c_c",
                                                       "p0", "t"]))
    def test_non_finite_input_is_named(self, index, name):
        args = [1.0, 1.0, 1.0, 1.0, 1.0]
        args[index] = math.inf
        for solution in (nonsymmetric_solution, linear_growth_solution):
            with pytest.raises(NonFiniteValue,
                               match=f"^{name} must be finite, got inf$"):
                solution(*args)

    @pytest.mark.parametrize("args, message", [
        # e^1000 overflows math.exp
        ((1.0, 0.0, 1.0, 1.0, 1000.0),
         "p(t) overflows float64 (math range error)"),
        # b_c / c_c overflows, and -inf + inf * e is nan
        ((1e-300, 1e300, 1e-300, 1.0, 1.0), "p(1.0) = nan overflows float64"),
        ((1.0, 1e308, 1.0, 1e308, 1.0), "p(1.0) = inf overflows float64"),
        ((1e-300, 1e300, 0.0, 1.0, 1.0), "p(1.0) = inf overflows float64"),
    ])
    def test_overflowing_value_is_typed(self, args, message):
        with pytest.raises(NonFiniteValue) as info:
            nonsymmetric_solution(*args)
        assert str(info.value) == message

    def test_equilibrium_evaluates_no_exponential(self):
        # p0 = -b_c/c_c stays put, however large e^{(c_c/a_c) t} would be
        assert nonsymmetric_solution(1.0, -2.0, 1.0, 2.0, 1000.0) == \
            (2.0, GrowthKind.EXPONENTIAL)


class TestLinearGrowthSolution:
    def test_worked_example(self):
        assert linear_growth_solution(1.0, 2.0, 0.0, 5.0, 3.0) \
            == pytest.approx(11.0, abs=1e-12)

    def test_second_difference_vanishes(self):
        h = 0.25
        values = [linear_growth_solution(1.5, -0.4, 0.6, 2.0, i * h)
                  for i in range(12)]
        for lo, mid, hi in zip(values, values[1:], values[2:]):
            assert abs(hi - 2.0 * mid + lo) <= 1e-10

    def test_tangent_to_exponential_branch(self):
        a_c, b_c, c_c, p0 = 1.0, 0.5, 0.7, 1.1
        for t in (1e-4, -1e-4):
            full = nonsymmetric_solution(a_c, b_c, c_c, p0, t).value
            line = linear_growth_solution(a_c, b_c, c_c, p0, t)
            assert abs(full - line) <= 1e-7     # quadratic in t

    def test_zero_derivative_coefficient(self):
        with pytest.raises(ZeroCoefficient):
            linear_growth_solution(0.0, 1.0, 1.0, 1.0, 1.0)

    def test_overflowing_value_is_typed(self):
        with pytest.raises(NonFiniteValue,
                           match=r"^p\(1\.0\) = inf overflows float64$"):
            linear_growth_solution(1e-300, 1e300, 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# eta_article
# ---------------------------------------------------------------------------

class TestEtaArticle:
    def test_spot_values(self):
        params = DdeParams(a=0.5, b=0.3, p0=1.0)
        assert eta_article(0.0, 2.0, params) == pytest.approx(1.4, abs=1e-15)
        params2 = DdeParams(a=0.3, b=0.5, p0=1.0)
        assert eta_article(1.0, 0.5, params2) == pytest.approx(
            math.exp(-1.0) + 0.5 * (-0.2), rel=1e-12)

    def test_share_bounds(self):
        params = DdeParams(a=0.3, b=0.5, p0=1.0)
        with pytest.raises(OutOfRange):
            eta_article(1.5, 1.0, params)
        with pytest.raises(OutOfRange):
            eta_article(-0.2, 1.0, params)

    def test_overflow_raises(self):
        # alpha * (a - b) = 1e300 * 2e300 overflows
        params = DdeParams(a=1e300, b=-1e300, p0=1.0)
        with pytest.raises(NonFiniteValue, match="^eta must be finite, got inf$"):
            eta_article(0.5, 1e300, params)


# ---------------------------------------------------------------------------
# control_solution / initial_conditions_to_modes
# ---------------------------------------------------------------------------

PARAMS = DdeParams(a=0.3, b=0.5, p0=1.0)


class TestControlSolution:
    def test_zero_forcing_matches_base(self):
        c1, c2 = initial_conditions_to_modes(PARAMS, ControlConfig())
        for t in np.linspace(-4.0, 4.0, 33):
            forced = control_solution(PARAMS, ControlConfig(), c1, c2, t)
            assert abs(forced - base_solution(PARAMS, t)) <= 1e-12

    def test_constant_theta_origin_algebra(self):
        config = ControlConfig(theta=ThetaConstant(0.2))
        value = control_solution(PARAMS, config, 1.0, 1.0, 0.0)
        assert value == pytest.approx(1.0 + 1.0 + 0.2 / (0.3 - 0.5), abs=1e-14)

    def test_mixed_forcing_satisfies_equation(self):
        # residual of p'' - (b^2-a^2) p = (a+b) theta(t) + k e^{k1 t},
        # with everything evaluated in 60-digit arithmetic
        theta = ("const", 0.2)
        eta = ("pulse", 0.1, 0.2)
        p = mp_forced_solution(0.3, 0.5, 1.0, 1.0, theta=theta, eta=eta)
        f = mp_forcing(0.3, 0.5, theta=theta, eta=eta)
        residual = mp_substitution_residual(p, f, 0.3, 0.5, t=1.0, h=1e-4)
        assert abs(residual) <= 1e-8
        # and the float64 implementation agrees with the 60-digit value
        config = ControlConfig(theta=ThetaConstant(0.2),
                               eta=EtaTimeExponential(k=0.1, k1=0.2))
        got = control_solution(PARAMS, config, 1.0, 1.0, 1.0)
        assert abs(got - float(p(1.0))) <= 1e-12

    @pytest.mark.parametrize("theta,eta", [
        (("lin", 0.3, -0.1), None),
        (("exp", 0.25), None),
        (None, ("pulse", -0.2, 0.15)),
        (("const", 0.4), ("article", None)),   # article value filled below
    ])
    def test_forced_branches_satisfy_equation(self, theta, eta):
        if eta is not None and eta[0] == "article":
            eta = ("article", eta_article(0.5, 1.2, PARAMS))
        config_map = {
            None: None,
            "const": lambda s: ThetaConstant(s[1]),
            "lin": lambda s: ThetaLinear(slope=s[1], intercept=s[2]),
            "exp": lambda s: ThetaExponential(rate=s[1]),
        }
        p = mp_forced_solution(0.3, 0.5, 0.8, 0.4, theta=theta, eta=eta)
        f = mp_forcing(0.3, 0.5, theta=theta, eta=eta)
        for t in (-1.5, 0.0, 0.7, 2.0):
            assert abs(mp_substitution_residual(p, f, 0.3, 0.5, t)) <= 1e-8

        theta_term = config_map[theta[0] if theta else None]
        config = ControlConfig(
            theta=theta_term(theta) if theta_term else ThetaConstant(0.0),
            eta=(EtaTimeExponential(k=eta[1], k1=eta[2])
                 if eta and eta[0] == "pulse"
                 else EtaArticleBased(alpha=1.2, art=0.5)
                 if eta else None),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeInfluenceWarning)
            for t in (-1.5, 0.0, 0.7, 2.0):
                got = control_solution(PARAMS, config, 0.8, 0.4, t)
                assert abs(got - float(p(t))) <= 1e-12

    def test_resonant_rates_rejected(self):
        # r = 0.4, so rate^2 = 0.16 = b^2 - a^2 collapses the particular form
        with pytest.raises(ResonantForcing):
            control_solution(PARAMS, ControlConfig(theta=ThetaExponential(0.4)),
                             1.0, 1.0, 0.5)
        with pytest.raises(ResonantForcing):
            control_solution(
                PARAMS,
                ControlConfig(eta=EtaTimeExponential(k=1.0, k1=-0.4)),
                1.0, 1.0, 0.5)

    def test_wrong_regime_rejected(self):
        with pytest.raises(WrongRegime):
            control_solution(DdeParams(a=0.5, b=0.3, p0=1.0), ControlConfig(),
                             1.0, 1.0, 0.5)

    def test_negative_origin_warns_but_returns(self):
        with pytest.warns(NegativeInfluenceWarning):
            value = control_solution(PARAMS, ControlConfig(), -2.0, 0.5, 1.0)
        assert math.isfinite(value)

    @pytest.mark.parametrize("call", [
        lambda: control_solution(PARAMS, ControlConfig(), -2.0, 0.5, 1.0),
        lambda: evaluate(PARAMS, [1.0], ControlConfig(), (-2.0, 0.5)),
    ], ids=["control_solution", "evaluate"])
    def test_negative_origin_warning_names_the_caller(self, call):
        with pytest.warns(NegativeInfluenceWarning) as caught:
            call()
        assert [w.filename for w in caught] == [__file__]

    def test_positive_origin_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            control_solution(PARAMS, ControlConfig(), 1.0, 0.5, 1.0)


class TestInitialConditionsToModes:
    def test_forcing_free_two_mode_amplitudes(self):
        r = 0.4
        c1, c2 = initial_conditions_to_modes(PARAMS, ControlConfig())
        assert c1 == pytest.approx((1.0 / (2 * r)) * (r + 0.8), rel=1e-12)
        assert c2 == pytest.approx((1.0 / (2 * r)) * (r - 0.8), rel=1e-12)

    def test_zero_start_gives_zero_modes(self):
        params = DdeParams(a=0.3, b=0.5, p0=0.0)
        assert initial_conditions_to_modes(params, ControlConfig()) == (0.0, 0.0)

    @pytest.mark.parametrize("config", [
        ControlConfig(theta=ThetaConstant(0.2)),
        ControlConfig(theta=ThetaLinear(slope=0.1, intercept=-0.3)),
        ControlConfig(theta=ThetaExponential(rate=0.25)),
        ControlConfig(eta=EtaTimeExponential(k=0.3, k1=-0.15)),
        ControlConfig(theta=ThetaConstant(-0.1),
                      eta=EtaArticleBased(alpha=0.7, art=0.4)),
    ])
    def test_matched_modes_reproduce_origin_value(self, config):
        c1, c2 = initial_conditions_to_modes(PARAMS, config)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeInfluenceWarning)
            value = control_solution(PARAMS, config, c1, c2, 0.0)
        assert abs(value - PARAMS.p0) <= 1e-10

    @pytest.mark.parametrize("config", [
        ControlConfig(theta=ThetaExponential(1e200)),
        ControlConfig(theta=ThetaExponential(-1e155)),
        ControlConfig(eta=EtaTimeExponential(k=1.0, k1=1e300)),
    ])
    def test_rate_with_overflowing_square_is_not_resonant(self, config):
        # rate * rate = inf, and inf <= 1e-12 * inf used to read as resonant
        c1, c2 = initial_conditions_to_modes(PARAMS, config)
        assert math.isfinite(c1) and math.isfinite(c2)
        assert evaluate(PARAMS, [0.0], config) == [c1 + c2 + 0.0]

    def test_resonance_tolerance_grows_with_the_square(self):
        # |rate**2 - disc| is about 2e-7 here: within 1e-12 of disc = 1e6,
        # though far above an absolute 1e-12
        params = DdeParams(a=0.0, b=1000.0, p0=1.0)
        with pytest.raises(ResonantForcing):
            initial_conditions_to_modes(
                params, ControlConfig(theta=ThetaExponential(1000.0000000001)))
        initial_conditions_to_modes(
            params, ControlConfig(theta=ThetaExponential(1000.000001)))

    def test_overflowing_start_slope_is_non_finite_value(self):
        # k1 * k = inf over (k1 * k1 - disc) = inf makes P'(0) NaN
        config = ControlConfig(eta=EtaTimeExponential(k=1e300, k1=1e300))
        with pytest.raises(NonFiniteValue,
                           match=r"^2x2 solution \(nan, nan\) of right-hand side"
                                 r" \(.*, nan\) overflows float64$"):
            initial_conditions_to_modes(PARAMS, config)


# ---------------------------------------------------------------------------
# evaluate and the control-term methods
# ---------------------------------------------------------------------------

TIMES = [-4.0 + 0.08 * i for i in range(100)]

THETAS = [ThetaConstant(0.2), ThetaLinear(slope=0.1, intercept=-0.3),
          ThetaExponential(rate=0.25)]
ETAS = [None, EtaTimeExponential(k=0.3, k1=-0.15),
        EtaArticleBased(alpha=0.7, art=0.4)]


class TestEvaluate:
    @pytest.mark.parametrize("params,wrapper", [
        (PARAMS, base_solution),
        (DdeParams(a=0.4, b=0.4, p0=1.3), degenerate_solution),
    ])
    def test_homogeneous_equals_wrappers_bitwise(self, params, wrapper):
        assert evaluate(params, TIMES) == [wrapper(params, t) for t in TIMES]

    def test_homogeneous_closed_forms_bitwise(self):
        # the expressions each regime's docstring gives, term for term
        a, b, p0 = 0.3, 0.5, 1.3
        r = math.sqrt(b * b - a * a)
        assert evaluate(DdeParams(a=a, b=b, p0=p0), TIMES) == [
            p0 * (math.cosh(r * t) + ((a + b) / r) * math.sinh(r * t))
            for t in TIMES]
        assert evaluate(DdeParams(a=0.4, b=0.4, p0=1.3), TIMES) == [
            1.3 * (1.0 + (0.4 + 0.4) * t) for t in TIMES]
        w = math.sqrt(0.5 * 0.5 - 0.3 * 0.3)
        assert evaluate(DdeParams(a=0.5, b=-0.3, p0=0.7), TIMES) == [
            0.7 * (math.cos(w * t) + ((0.5 - 0.3) / w) * math.sin(w * t))
            for t in TIMES]

    def test_overflowing_phase_is_non_finite_value(self):
        # w t = inf left cos with a bare ValueError ("math domain error")
        params = DdeParams(a=20.0, b=1.0, p0=1.0)
        w = math.sqrt(399.0)
        with pytest.raises(NonFiniteValue) as got:
            evaluate(params, [0.0, 1e307, -1e308])
        assert str(got.value) == f"w*t overflows float64 at t=1e+307 (w={w!r})"

    @pytest.mark.parametrize("params, times, signs", [
        # k = -1.9 / sqrt(0.19) < -1: cosh x + k sinh x is negative from
        # x near 0.23 on, and math.cosh overflows at |x| = 0.436 * 2000
        (DdeParams(a=-0.9, b=-1.0, p0=0.0), [-2000.0, -1.0, 0.0, 1.0, 2000.0],
         [1.0, 1.0, 1.0, -1.0, -1.0]),
        # k = 1: cosh x + sinh x is e^x, tiny at x = -1000, yet math.cosh
        # overflows there as at x = 1000
        (DdeParams(a=0.0, b=1000.0, p0=0.0), [-1.0, 0.0, 1.0],
         [1.0, 1.0, 1.0]),
        # 1 + 2 t is -inf, -1, 1 and inf
        (DdeParams(a=1.0, b=1.0, p0=-0.0), [-1e308, -1.0, 0.0, 1e308],
         [-1.0, -1.0, 1.0, 1.0]),
        # cos(w t) + k sin(w t) is negative at t = 0.2; w t overflows at
        # 1e307, where cos(inf) was a domain error
        (DdeParams(a=20.0, b=1.0, p0=-0.0), [-1e307, 0.0, 0.2, 1e307],
         [1.0, 1.0, -1.0, 1.0]),
    ])
    def test_zero_p0_gives_zeros_with_the_factors_signs(self, params, times,
                                                       signs):
        """0 * an overflowing cosh was a math range error, 0 * inf nan, and
        cos(inf) a domain error.
        A zero p0 now gives zeros everywhere: p0 times the sign of the
        factor it scales, or of that factor's limit where math overflows."""
        got = evaluate(params, times)
        assert got == [0.0] * len(times)
        assert [math.copysign(1.0, p) for p in got] == \
            [s * math.copysign(1.0, params.p0) for s in signs]

    @pytest.mark.parametrize("modes, times", [
        ((0.0, 1.0), [0.0, 1000.0, 2000.0]),
        ((-0.0, 1.0), [0.0, 1000.0, 2000.0]),
        ((1.0, 0.0), [-2000.0, -1000.0, 0.0]),
        ((0.0, -0.0), [-2000.0, 0.0, 2000.0]),
    ])
    def test_zero_amplitude_contributes_its_zero(self, modes, times):
        """0 * exp(800) was a math range error; a zero amplitude's term is
        that zero wherever its exponential is finite, and now everywhere."""
        c1, c2 = modes
        got = evaluate(PARAMS, times, modes=modes)
        want = [(c1 * math.exp(0.4 * t) if c1 else c1)
                + (c2 * math.exp(-0.4 * t) if c2 else c2) + 0.0
                for t in times]
        assert [v.hex() for v in got] == [v.hex() for v in want]

    @pytest.mark.parametrize("eta", ETAS)
    @pytest.mark.parametrize("theta", THETAS)
    def test_forced_equals_control_solution_bitwise(self, theta, eta):
        config = ControlConfig(theta=theta, eta=eta)
        c1, c2 = initial_conditions_to_modes(PARAMS, config)
        a, b, r = 0.3, 0.5, 0.4
        disc = b * b - a * a
        theta_part = {
            ThetaConstant: lambda t: 0.2 / (a - b),
            ThetaLinear: lambda t: (0.1 * t + -0.3) / (a - b),
            ThetaExponential:
                lambda t: (a + b) * math.exp(0.25 * t) / (0.25 * 0.25 - disc),
        }[type(theta)]
        eta_part = {
            type(None): lambda t: 0.0,
            EtaTimeExponential:
                lambda t: 0.3 * math.exp(-0.15 * t) / (-0.15 * -0.15 - disc),
            EtaArticleBased:
                lambda t: (math.exp(-0.4) + 0.7 * (a - b)) / (a - b),
        }[type(eta)]

        def written_out(t):
            return (c1 * math.exp(r * t) + c2 * math.exp(-r * t)
                    + (theta_part(t) + eta_part(t)))

        want = [written_out(t) for t in TIMES]
        assert [control_solution(PARAMS, config, c1, c2, t)
                for t in TIMES] == want
        assert evaluate(PARAMS, TIMES, config) == want
        assert evaluate(PARAMS, TIMES, config, (c1, c2)) == want

    def test_modes_without_config_is_the_two_mode_form(self):
        r = 0.4
        got = evaluate(PARAMS, TIMES, modes=(0.7, -0.2))
        assert got == [0.7 * math.exp(r * t) + -0.2 * math.exp(-r * t)
                       for t in TIMES]

    def test_negative_origin_warns_once_per_call(self):
        config = ControlConfig(theta=ThetaLinear(slope=0.1, intercept=0.2))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evaluate(PARAMS, TIMES, config, (-2.0, 0.5))
            evaluate(PARAMS, TIMES[:3], config, (-2.0, 0.5))
        assert [w.category for w in caught] == [NegativeInfluenceWarning] * 2

    def test_unforced_modes_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evaluate(PARAMS, TIMES, modes=(-2.0, 0.5))

    @pytest.fixture
    def no_point_evaluated(self, monkeypatch):
        """Make any term evaluation, P(0) included, fail loudly."""
        def fail(*args):
            raise AssertionError("a point was evaluated")

        for term in (ThetaConstant, ThetaLinear, ThetaExponential,
                     EtaArticleBased, EtaTimeExponential):
            monkeypatch.setattr(term, "particular", fail)
            monkeypatch.setattr(term, "start_values", fail)

    def test_resonance_raised_before_any_point(self, no_point_evaluated):
        # r = 0.4, so rate^2 = 0.16 = b^2 - a^2
        for config in (ControlConfig(theta=ThetaExponential(0.4)),
                       ControlConfig(eta=EtaTimeExponential(k=1.0, k1=-0.4))):
            with pytest.raises(ResonantForcing):
                evaluate(PARAMS, TIMES, config)
            with pytest.raises(ResonantForcing):
                evaluate(PARAMS, TIMES, config, (1.0, 1.0))

    def test_wrong_regime_raised_before_any_point(self, no_point_evaluated):
        config = ControlConfig(theta=ThetaLinear(slope=0.1, intercept=0.2))
        for params in (DdeParams(a=0.5, b=0.3, p0=1.0),
                       DdeParams(a=0.4, b=0.4, p0=1.0)):
            with pytest.raises(WrongRegime, match="initial_conditions_to_modes"):
                evaluate(params, TIMES, config)
            with pytest.raises(WrongRegime, match="control_solution"):
                evaluate(params, TIMES, config, (1.0, 1.0))
            with pytest.raises(WrongRegime, match="control_solution"):
                evaluate(params, TIMES, modes=(1.0, 1.0))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_time_rejected(self, bad):
        with pytest.raises(NonFiniteValue, match="t must be finite"):
            evaluate(PARAMS, [0.0, bad])
        with pytest.raises(NonFiniteValue, match="t must be finite"):
            evaluate(DdeParams(a=0.5, b=0.3, p0=1.0), [bad])

    def test_non_finite_modes_rejected(self):
        with pytest.raises(NonFiniteValue, match="c2 must be finite"):
            evaluate(PARAMS, TIMES, modes=(1.0, math.nan))

    @pytest.mark.parametrize("params,t", [
        (DdeParams(a=1.0, b=1.0, p0=1e308), -5.0),     # degenerate ramp
        (DdeParams(a=0.0, b=1.0, p0=10.0), 709.0),     # cosh + sinh
    ])
    def test_non_finite_value_rejected(self, params, t):
        with pytest.raises(NonFiniteValue, match="overflows float64"):
            evaluate(params, [0.0, t])

    def test_math_overflow_is_non_finite_value(self):
        # math.cosh(1000.0) raises OverflowError rather than returning inf
        params = DdeParams(a=0.0, b=1000.0, p0=1.0)
        with pytest.raises(NonFiniteValue, match="overflows float64"):
            base_solution(params, 1.0)
        with pytest.raises(NonFiniteValue, match="overflows float64"):
            evaluate(params, [0.0, 1.0], modes=(1.0, 1.0))

    def test_empty_times(self):
        assert evaluate(PARAMS, []) == []


class TestControlTerms:
    """The term methods against the particular solutions written out."""

    def test_theta_terms(self):
        a, b, t = 0.3, 0.5, 1.7
        disc = b * b - a * a
        const, lin, exp_ = THETAS
        times = (t, 0.0, -t)
        assert list(const.particular(PARAMS, times)) == [0.2 / (a - b)] * 3
        assert const.start_values(PARAMS) == (0.0, 0.2)
        assert list(lin.particular(PARAMS, times)) == [
            (0.1 * s + -0.3) / (a - b) for s in times]
        assert lin.start_values(PARAMS) == (0.1 / (a - b), -0.3)
        assert list(exp_.particular(PARAMS, times)) == [
            (a + b) * math.exp(0.25 * s) / (0.25 * 0.25 - disc) for s in times]
        assert exp_.start_values(PARAMS) == (
            0.25 * (a + b) * math.exp(0.25 * 0.0) / (0.25 * 0.25 - disc), 1.0)
        assert (const.rate, lin.rate, exp_.rate) == (None, None, 0.25)

    def test_eta_terms(self):
        a, b, t = 0.3, 0.5, 1.7
        disc = b * b - a * a
        _, pulse, article = ETAS
        times = (t, 0.0, -t)
        assert list(pulse.particular(PARAMS, times)) == [
            0.3 * math.exp(-0.15 * s) / (-0.15 * -0.15 - disc) for s in times]
        assert pulse.start_values(PARAMS) == (
            -0.15 * 0.3 * math.exp(-0.15 * 0.0) / (-0.15 * -0.15 - disc),
            0.3 / (a + b))
        value = eta_article(0.4, 0.7, PARAMS)
        assert value == math.exp(-0.4) + 0.7 * (a - b)
        assert article.start_values(PARAMS) == (0.0, value)
        assert list(article.particular(PARAMS, times)) == [value / (a - b)] * 3
        assert (pulse.rate, article.rate) == (-0.15, None)


# ---------------------------------------------------------------------------
# forced runs against the per-point term formulas
# ---------------------------------------------------------------------------

def outcome(fn, *args) -> tuple[str, int]:
    """``repr`` of the result or the type and text of the exception, and the
    number of warnings the call emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = repr(fn(*args))
        except Exception as exc:
            result = f"{type(exc).__name__}: {exc}"
    return result, len(caught)


# ordinary values, values near the edge of float64, and zeros of both signs
term_values = st.one_of(
    st.floats(min_value=-10.0, max_value=10.0),
    st.sampled_from([0.0, -0.0, 1e155, 1e300, -1e300]),
)


@st.composite
def forced_cases(draw):
    """(params, config) over all nine theta/eta pairs, mostly exponential,
    with ordinary, resonant and square-overflowing forcing rates."""
    a = draw(st.floats(min_value=-2.0, max_value=2.0))
    if draw(st.booleans()):
        gap = draw(st.floats(min_value=1e-3, max_value=2.0))
        b = draw(st.sampled_from([1.0, -1.0])) * (abs(a) + gap)
    else:
        b = draw(st.floats(min_value=-2.0, max_value=2.0))
    p0 = draw(st.one_of(st.floats(min_value=-10.0, max_value=10.0),
                        st.sampled_from([0.0, -0.0, 1e300])))
    params = DdeParams(a=a, b=b, p0=p0)
    r = math.sqrt(abs(params.discriminant))
    rates = st.one_of(term_values, st.sampled_from([r, -r, 1e200, -1e300]))
    theta = draw(st.one_of(
        st.builds(ThetaConstant, term_values),
        st.builds(ThetaLinear, term_values, term_values),
        st.builds(ThetaExponential, rates)))
    eta = draw(st.one_of(
        st.none(),
        st.builds(EtaArticleBased, term_values,
                  st.floats(min_value=0.0, max_value=1.0)),
        st.builds(EtaTimeExponential, term_values, rates)))
    return params, ControlConfig(theta=theta, eta=eta)


mode_values = st.one_of(st.floats(min_value=-10.0, max_value=10.0),
                        st.sampled_from([0.0, -0.0, 1e300]))


class TestForcedLoopReference:
    """Forced runs bit for bit against each term's P(t) written out and
    evaluated once per point, in exceptions and warnings too."""

    @given(case=forced_cases(),
           times=st.lists(st.one_of(st.floats(min_value=-5.0, max_value=5.0),
                                    st.floats(min_value=-1000.0,
                                              max_value=1000.0)),
                          max_size=6),
           modes=st.one_of(st.none(), st.tuples(mode_values, mode_values)))
    # a theta rate whose square overflows is not resonant
    @example(case=(PARAMS, ControlConfig(theta=ThetaExponential(1e155))),
             times=[-1.0, 0.0, 1.0], modes=None)
    # k1 * k overflows in P'(0): the modes are NaN
    @example(case=(PARAMS, ControlConfig(eta=EtaTimeExponential(1e300, 1e300))),
             times=[-1.0, 0.0], modes=None)
    # P(t) = 0.0 / (a - b) = -0.0 on -0.0 modes: a missing eta adds 0.0
    @example(case=(PARAMS, ControlConfig(theta=ThetaConstant(0.0))),
             times=[0.0, 2.0], modes=(-0.0, -0.0))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_point_formulas(self, case, times, modes):
        params, config = case
        assert outcome(evaluate, params, times, config, modes) == \
            outcome(loop_forced_evaluate, params, times, config, modes)
        assert outcome(initial_conditions_to_modes, params, config) == \
            outcome(loop_initial_conditions_to_modes, params, config)
        for t in times if modes is not None else ():
            assert outcome(control_solution, params, config, *modes, t) == \
                outcome(lambda: loop_forced_evaluate(params, (t,), config,
                                                     modes)[0])


# ---------------------------------------------------------------------------
# oracle_solution
# ---------------------------------------------------------------------------

class TestOracleSolution:
    @pytest.mark.parametrize("t_max", [0.0, -1.0, math.inf, math.nan])
    def test_window_must_be_positive(self, t_max):
        with pytest.raises(ValueError, match="t_max must be positive"):
            oracle_solution(DdeParams(a=0.3, b=0.5, p0=1.0), t_max, 1e-3)

    def test_zero_step_is_out_of_range(self):
        with pytest.raises(OutOfRange, match="step must be positive"):
            oracle_solution(DdeParams(a=0.3, b=0.5, p0=1.0), 1.0, 0.0)

    def test_pure_present_term(self):
        params = DdeParams(a=0.0, b=1.0, p0=1.0)
        for t, p in zip(*oracle_solution(params, 1.0, 1e-3)):
            assert abs(p - math.exp(t)) <= 1e-10

    def test_sample_layout(self):
        params = DdeParams(a=0.3, b=0.5, p0=1.0)
        times, _ = oracle_solution(params, 1.0, 0.25)
        assert times == sorted(times)
        assert times.count(0.0) == 1
        assert times[0] == -1.0 and times[-1] == 1.0
        assert len(times) == 9

    def test_mirror_half_matches_closed_form(self):
        params = DdeParams(a=0.3, b=0.5, p0=1.0)
        for t, p in zip(*oracle_solution(params, 3.0, 1e-3)):
            if t < 0.0:
                want = base_solution(params, t)
                assert abs(p - want) <= 1e-6 * max(1.0, abs(want))

    def test_sum_of_mirror_pair_is_hyperbolic(self):
        # u+v obeys s'' = (b^2-a^2) s with s(0)=2 p0, s'(0)=0, i.e.
        # 2 p0 cosh(rt) — not a single exponential
        params = DdeParams(a=0.3, b=0.5, p0=1.2)
        by_time = {round(t, 10): p
                   for t, p in zip(*oracle_solution(params, 2.0, 1e-3))}
        r = math.sqrt(params.discriminant)
        for t in np.arange(0.0, 2.0 + 1e-12, 0.25):
            want = 2.0 * params.p0 * math.cosh(r * t)
            got = by_time[round(float(t), 10)] + by_time[round(float(-t), 10)]
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))

    @given(
        a=st.floats(min_value=-2.0, max_value=2.0),
        margin=st.floats(min_value=0.01, max_value=1.0),
        sign=st.sampled_from([1.0, -1.0]),
        p0=st.floats(min_value=-5.0, max_value=5.0),
        t_max=st.floats(min_value=0.01, max_value=3.0),
        step=st.floats(min_value=1e-3, max_value=1.0),
    )
    @example(a=0.3, margin=0.2, sign=1.0, p0=1.0, t_max=1.0, step=0.25)
    @example(a=0.3, margin=0.2, sign=1.0, p0=1.0, t_max=0.35, step=0.1)
    @example(a=0.3, margin=0.2, sign=1.0, p0=1.0, t_max=0.1, step=0.5)
    @example(a=0.3, margin=0.2, sign=1.0, p0=1.0, t_max=1e-12, step=1.0)
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_to_sample_layout(self, a, margin, sign, p0,
                                            t_max, step):
        """(times, values) are the per-sample layout of the mirror system's
        RK4 trajectory run as one block, value for value, whether or not
        step divides t_max."""
        b = sign * (abs(a) + margin)
        times, values = oracle_solution(DdeParams(a=a, b=b, p0=p0),
                                        t_max, step)
        samples = sample_layout_oracle(one_block_mirror_rk4(a, b, p0, t_max,
                                                            step))
        assert times == [t for t, _ in samples]
        assert values == [p for _, p in samples]

    def test_window_far_below_one_step(self):
        # t_max < 1e-9 * step is one short step each way, not t=0 alone
        a, b, p0 = 0.3, 0.5, 1.0
        times, values = oracle_solution(DdeParams(a=a, b=b, p0=p0), 1e-12, 1.0)
        assert times == [-1e-12, 0.0, 1e-12]
        assert values == [p for _, p in sample_layout_oracle(
            one_block_mirror_rk4(a, b, p0, 1e-12, 1.0))]
        assert values[0] < values[1] == p0 < values[2]

    def test_overflowing_trajectory_raises(self):
        # the integrator checks every state, so no non-finite sample is built
        with pytest.raises(NonFiniteState):
            oracle_solution(DdeParams(a=0.3, b=0.5, p0=1e308), 5.0, 1e-3)


def one_block_mirror_rk4(a, b, p0, t_max, step):
    """RK4 on u' = b u + a v, v' = -(a u + b v) from u = v = p0, all of it
    in one block."""
    with mock.patch.object(numerics, "RK4_BLOCK_STEPS",
                           numerics.RK4_MAX_STEPS):
        return rk4_trajectory(((b, a), (-a, -b)), (p0, p0), t_max, step)


# ---------------------------------------------------------------------------
# _max_deviation, verify's streamed comparison
# ---------------------------------------------------------------------------

def whole_window_deviation(params, t_max, step):
    """The largest relative gap between ``evaluate`` over the whole oracle
    window and the oracle, or the type and message of the first error."""
    try:
        times, oracle = oracle_solution(params, t_max, step)
        return max_relative_deviation(evaluate(params, times), oracle)
    except MirrorDdeError as exc:
        return type(exc), str(exc)


def streamed_deviation(params, t_max, step):
    try:
        return _max_deviation(params, t_max, step)
    except MirrorDdeError as exc:
        return type(exc), str(exc)


def no_oracle(*args):
    raise AssertionError("the oracle must not run")


class TestMaxDeviation:
    @given(
        # a = u b with |u| < 1 is exponential but for a tiny b; with u None
        # a is drawn free, and mostly lies outside that regime
        u=st.none() | st.floats(min_value=-1.0, max_value=1.0,
                                exclude_min=True, exclude_max=True),
        a=st.floats(min_value=-1.0, max_value=1.0),
        b=st.floats(min_value=-1.0, max_value=1.0),
        p0=st.builds(lambda m, e: m * 10.0 ** e,
                     st.floats(min_value=0.1, max_value=10.0)
                     | st.floats(min_value=-10.0, max_value=-0.1),
                     st.integers(min_value=-300, max_value=300)),
        t_max=st.floats(min_value=1e-3, max_value=8000.0),
        steps=st.floats(min_value=0.5, max_value=800.0),
    )
    # RK4 overflows at t = 7200 before the closed form's deferred overflow,
    # which starts near t = 7010 (math.cosh), is raised
    @example(u=None, a=0.0, b=0.2, p0=1e-300, t_max=7500.0, steps=750.0)
    @example(u=None, a=0.0, b=0.2, p0=1e-300, t_max=7100.0, steps=710.0)
    # the first non-finite p is the most negative t, in the last block ...
    @example(u=None, a=0.0, b=-0.1, p0=2.4880700676029834e+221,
             t_max=2000.0, steps=200.0)
    # ... or else the smallest positive t, in an earlier block
    @example(u=None, a=0.0, b=0.1, p0=2.4880700676029834e+221, t_max=2000.0,
             steps=200.0)
    @example(u=None, a=0.3, b=0.5, p0=1.0, t_max=1e-12, steps=1e-12)
    # b**2 overflows: refused before integrating, as the other regimes are
    @example(u=None, a=0.0, b=1e200, p0=1.0, t_max=1.0, steps=1.0)
    @example(u=None, a=0.5, b=0.5, p0=1.0, t_max=1.0, steps=10.0)
    # a zero p0: zeros on both sides, where cosh overflows too
    @example(u=None, a=0.0, b=1000.0, p0=0.0, t_max=1.0, steps=100.0)
    @settings(max_examples=150, deadline=None)
    def test_streamed_equals_whole_window(self, u, a, b, p0, t_max, steps):
        """In the exponential regime, blocks of 7 RK4 steps give the whole
        window's deviation, or its error: the same type and message.  Any
        other pair raises base_solution's regime error before the first RK4
        step."""
        if u is not None:
            a = u * b
        params = DdeParams(a=a, b=b, p0=p0)
        step = t_max / steps
        try:
            _require_regime(params, "base_solution")
        except MirrorDdeError as exc:
            with mock.patch.object(solver, "_oracle_blocks", no_oracle):
                assert streamed_deviation(params, t_max, step) == \
                    (type(exc), str(exc))
            return
        with mock.patch.object(numerics, "RK4_BLOCK_STEPS", 7):
            assert streamed_deviation(params, t_max, step) == \
                whole_window_deviation(params, t_max, step)

    @given(
        b=st.builds(lambda m, e: m * 10.0 ** e,
                    st.floats(min_value=1.0, max_value=10.0)
                    | st.floats(min_value=-10.0, max_value=-1.0),
                    st.integers(min_value=-3, max_value=2)),
        # a / b: k = (a + b) / r is +-1 at 0, near it for a tiny ratio, and
        # far from it near +-1
        ratio=st.just(0.0) | st.floats(min_value=-1e-9, max_value=1e-9)
        | st.floats(min_value=-0.999999999999, max_value=0.999999999999),
        p0=st.floats(min_value=-1e300, max_value=1e300),
        # t = 0, a subnormal t, or t = x / r with |rt| = x up to and past
        # where cosh overflows, near 710.48
        t=st.tuples(st.just("t"), st.just(0.0)
                    | st.floats(min_value=5e-324,
                                max_value=2.2250738585072014e-308))
        | st.tuples(st.just("x"), st.floats(min_value=0.0, max_value=712.0)),
    )
    @example(b=0.5, ratio=0.0, p0=-1.7, t=("t", 0.0))
    @example(b=-0.5, ratio=0.0, p0=1.0, t=("t", 5e-324))
    @example(b=0.61, ratio=-0.37 / 0.61, p0=1.7, t=("x", 710.47))
    @example(b=0.61, ratio=-0.37 / 0.61, p0=1.7, t=("x", 710.48))
    @example(b=2.0, ratio=0.999999999999, p0=-3.0, t=("x", 700.0))
    @example(b=1.0, ratio=0.0, p0=0.0, t=("x", 711.0))
    @example(b=-1.0, ratio=0.0, p0=-0.0, t=("x", 709.9))
    @settings(max_examples=400, deadline=None)
    def test_one_cosh_sinh_pair_gives_both_mirrored_values(self, b, ratio,
                                                          p0, t):
        """With x = r t, ch = cosh(x) and ks = k sinh(x), ``evaluate`` at
        t and -t is p0 (ch + ks) and p0 (ch - ks), bit for bit, or raises
        where they overflow: the identity the oracle comparison's one pass
        over an exponential block rests on.  A zero p0 gives zeros, with
        those bits where they are numbers."""
        params = DdeParams(a=b * ratio, b=b, p0=p0)
        regime = classify(params)
        assume(regime.tag is RegimeTag.EXPONENTIAL)
        r, k = regime.r, (params.a + params.b) / regime.r
        t = t[1] if t[0] == "t" else t[1] / r
        try:
            ch = math.cosh(r * t)
            ks = k * math.sinh(r * t)
        except OverflowError:
            want = None
        else:
            want = [p0 * (ch + ks), p0 * (ch - ks)]
        if not p0:
            got = evaluate(params, [t, -t])
            assert got == [0.0, 0.0]
            for v, w in zip(got, want or ()):
                assert w != w or v.hex() == w.hex()
        elif want is None or not all(map(math.isfinite, want)):
            with pytest.raises(NonFiniteValue):
                evaluate(params, [t, -t])
        else:
            assert [v.hex() for v in evaluate(params, [t, -t])] == \
                [v.hex() for v in want]

    def test_exponential_block_fails_exactly_where_evaluate_does(self):
        """A finite c whose gap overflows is an infinite deviation; a c that
        is not finite gives None, and ``evaluate`` raises on it.  A zero p0
        gives zeros to both, also where cosh or sinh overflows."""
        assert solver._exponential_block(1e308, 1.0, 0.5, [0.0], [-1e308],
                                         [-1e308]) == math.inf
        # cosh(709.9) + sinh(709.9) overflows to inf, and 1e-300 * inf is inf
        params = DdeParams(a=0.0, b=1.0, p0=1e-300)
        regime = classify(params)
        r, k = regime.r, (params.a + params.b) / regime.r
        assert solver._exponential_block(params.p0, r, k, [709.9], [0.0],
                                         [0.0]) is None
        with pytest.raises(NonFiniteValue) as info:
            evaluate(params, [709.9])
        assert str(info.value) == "p(709.9) = inf overflows float64"
        # 0 * inf was nan there, and math.cosh(711) raises
        zero = DdeParams(a=0.0, b=1.0, p0=0.0)
        for t in (709.9, 711.0):
            assert solver._exponential_block(zero.p0, r, k, [t], [0.0],
                                             [0.0]) == 0.0
            assert evaluate(zero, [-t, t]) == [0.0, 0.0]

    def test_block_size_leaves_the_value(self):
        params = DdeParams(a=0.3, b=0.9, p0=-2.0)
        want = _max_deviation(params, 4.0, 2.0 ** -11)
        assert want == whole_window_deviation(params, 4.0, 2.0 ** -11)
        for block in (1, 2, 8192, 8193):
            with mock.patch.object(numerics, "RK4_BLOCK_STEPS", block):
                assert _max_deviation(params, 4.0, 2.0 ** -11) == want

    @given(
        n=st.integers(min_value=1, max_value=40),
        negative=st.frozensets(st.integers(min_value=1, max_value=40)),
        positive=st.frozensets(st.integers(min_value=1, max_value=40)),
        overflow=st.none() | st.integers(min_value=1, max_value=40),
        bad=st.sampled_from([math.inf, -math.inf, math.nan]),
    )
    @example(n=20, negative=frozenset({3, 16}), positive=frozenset({2}),
             overflow=None, bad=math.inf)
    @example(n=20, negative=frozenset({3}), positive=frozenset({2}),
             overflow=18, bad=math.inf)
    @settings(max_examples=150, deadline=None)
    def test_error_order_of_any_pointwise_closed_form(self, n, negative,
                                                      positive, overflow,
                                                      bad):
        """A stand-in closed form fails at chosen grid points i * step: it
        is ``bad`` at -i for i in ``negative`` and at +i for i in
        ``positive``, and its ``math`` call overflows from |i| = overflow
        on.  It stands in for both of the exponential regime's closed
        forms, the one-pass block and ``evaluate``'s, so a failing block
        goes from the first to the second.  Blocks of 7 steps raise the
        whole window's error: an overflow anywhere, else the first
        non-finite p in ascending t."""
        step = 0.125

        def closed(params, times):
            values = []
            for t in times:
                i = round(abs(t) / step)
                if overflow is not None and i >= overflow:
                    raise OverflowError("math range error")
                failing = negative if t < 0.0 else positive if t > 0.0 else ()
                values.append(bad if i in failing else t)
            return values

        def closed_block(p0, r, k, times, ahead, behind):
            try:
                values = closed(None, times) + closed(None, [-t for t in times])
            except OverflowError:
                return None
            gaps = [abs(c - p) / max(1.0, abs(c))
                    for c, p in zip(values, ahead + behind)]
            return max(gaps) if all(map(math.isfinite, gaps)) else None

        params = DdeParams(a=0.3, b=0.5, p0=1.0)
        with mock.patch.object(numerics, "RK4_BLOCK_STEPS", 7), \
                mock.patch.object(solver, "_exponential_block", closed_block), \
                mock.patch.object(solver, "_homogeneous", closed):
            assert streamed_deviation(params, n * step, step) == \
                whole_window_deviation(params, n * step, step)


# ---------------------------------------------------------------------------
# every entry point on scalars or tables: a finite result or a typed error
# ---------------------------------------------------------------------------

#: Magnitudes at the edges of float64 and of the closed forms' exponentials.
EDGE_MAGNITUDES = (0.0, 5e-324, 1e-320, 1e-300, 1e-8, 0.3, 1.0, 3.0, 700.0,
                   710.0, 1e16, 1e300, 1e308, sys.float_info.max)
EDGE_FLOATS = st.sampled_from([sign * v for sign in (1.0, -1.0)
                               for v in EDGE_MAGNITUDES])
SCALARS = EDGE_FLOATS | st.floats(allow_nan=False, allow_infinity=False)
#: Grid steps: the positive edge magnitudes, subnormal ones included.
STEPS = st.sampled_from(EDGE_MAGNITUDES[1:])


def _f(data) -> float:
    return data.draw(SCALARS)


def _params(data, tag: RegimeTag | None = None) -> DdeParams:
    """Drawn (a, b, p0).  For a ``tag``, a is drawn as u b with |u| < 1
    (exponential), b as u a (oscillatory), or a as +-b (degenerate), so that
    entry points bound to one regime get past its check.  Without one the
    tag is drawn, None (a and b both free) included."""
    if tag is None:
        tag = data.draw(st.sampled_from([None, *RegimeTag]))
    a, b = _f(data), _f(data)
    u = data.draw(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    if tag is RegimeTag.EXPONENTIAL:
        a = u * b
    elif tag is RegimeTag.OSCILLATORY:
        b = u * a
    elif tag is RegimeTag.DEGENERATE:
        a = data.draw(st.sampled_from([b, -b]))
    return DdeParams(a=a, b=b, p0=_f(data))


def _config(data) -> ControlConfig:
    theta = data.draw(st.sampled_from(
        [ThetaConstant, ThetaLinear, ThetaExponential]))
    eta = data.draw(st.sampled_from(
        [None, EtaArticleBased, EtaTimeExponential]))
    terms = [None if kind is None
             else kind(*(_f(data) for _ in kind.__match_args__))
             for kind in (theta, eta)]
    return ControlConfig(*terms)


def _table(data) -> list[list[float]]:
    """A drawn table of 2-6 rows and 2-4 columns."""
    rows, columns = data.draw(st.integers(2, 6)), data.draw(st.integers(2, 4))
    return [[_f(data) for _ in range(columns)] for _ in range(rows)]


def _features(data) -> FeatureMatrix:
    """A drawn table as journals j0, j1, ... by features f0, f1, ..."""
    table = _table(data)
    return FeatureMatrix(journal_names=[f"j{i}" for i in range(len(table))],
                         feature_names=[f"f{j}" for j in range(len(table[0]))],
                         data=table)


#: Penalty weights: plain least squares, the CLI's default 0.1 and two
#: weights beside it.
LAMBDAS = st.sampled_from([0.0, 0.05, 0.1, 1.0])


def _lasso(data) -> list[float]:
    """``lasso_fit`` of a drawn table's first column on its other columns."""
    table = _table(data)
    return lasso_fit([row[1:] for row in table], [row[0] for row in table],
                     data.draw(LAMBDAS))


def _objective(data) -> float:
    """``lasso_objective`` of a drawn table's first column on its other
    columns, at drawn coefficients."""
    table = _table(data)
    return lasso_objective([row[1:] for row in table],
                           [row[0] for row in table], data.draw(LAMBDAS),
                           [_f(data) for _ in table[0][1:]])


def _series(data) -> InfluenceSeries:
    """A drawn series: 2-5 steps of a drawn edge size either side of t = 0,
    and at its 5-11 samples small multiples of one drawn scalar, which keep
    the series within one scale, as data are."""
    h, m, scale = data.draw(STEPS), data.draw(st.integers(2, 5)), _f(data)
    return validate_series([i * h for i in range(-m, m + 1)],
                           [k * scale for k in data.draw(st.lists(
                               st.integers(-3, 3), min_size=2 * m + 1,
                               max_size=2 * m + 1))])


def _validated(data) -> InfluenceSeries:
    """``validate_series`` on 3-7 drawn values, at sorted drawn times or at
    multiples of a drawn edge step, symmetric about t = 0 for an odd
    count."""
    n, h = data.draw(st.integers(3, 7)), data.draw(STEPS)
    times = data.draw(st.just([(i - n // 2) * h for i in range(n)])
                      | st.lists(SCALARS, min_size=n, max_size=n).map(sorted))
    return validate_series(times, [_f(data) for _ in range(n)])


#: The difference modes of the fit.
FD_MODES = st.sampled_from(list(FdMode))


def _finite_diff(data) -> list[float]:
    """``finite_diff`` on a drawn series, an inf quotient read as 0: a
    quotient beyond the float64 range is inf, as documented, but none is
    nan."""
    d = finite_diff(_series(data), data.draw(FD_MODES)).tolist()
    assert not any(map(math.isnan, d))
    return [0.0 if math.isinf(q) else q for q in d]


def _oracle(data) -> tuple[list[float], list[float]]:
    """``oracle_solution`` on a drawn pair, window and step, the step
    sometimes a whole fraction of the window; the step cap is lowered to
    64, so that a long draw raises the cap's error instead of running."""
    params, t_max = _params(data), _f(data)
    step = data.draw(st.integers(1, 64).map(lambda n: t_max / n)
                     | SCALARS)
    with mock.patch.object(numerics, "RK4_MAX_STEPS", 64):
        return oracle_solution(params, t_max, step)


def _fit_ab(data) -> tuple[float, float]:
    """``fit_ab``'s (a, b) on a drawn series; its rss may be inf, as
    documented, but never nan."""
    a, b, rss = fit_ab(_series(data), data.draw(FD_MODES))
    assert rss >= 0.0
    return a, b


def _fit_modes(data) -> tuple[float, float]:
    """``fit_modes``' (w1, w2) on a drawn series at a drawn rate; its rss
    may be inf, as documented, but never nan."""
    w1, w2, rss = fit_modes(_series(data), abs(_f(data)))
    assert rss >= 0.0
    return w1, w2


def _fit_pipeline(data) -> tuple:
    """The parameters, regime and modes of ``fit_pipeline`` on a drawn
    series; its two rss may be inf, as documented, but never nan."""
    report = fit_pipeline(_series(data), data.draw(FD_MODES))
    assert report.rss_ab >= 0.0
    assert report.rss_modes is None or report.rss_modes >= 0.0
    return report.params, report.regime, report.modes


EXP = RegimeTag.EXPONENTIAL

ENTRY_POINTS = {
    "classify": lambda d: classify(_params(d)),
    "evaluate": lambda d: evaluate(_params(d), [_f(d)]),
    "evaluate forced": lambda d: evaluate(_params(d, EXP), [_f(d)],
                                          _config(d)),
    "evaluate modes": lambda d: evaluate(_params(d, EXP), [_f(d)],
                                         modes=(_f(d), _f(d))),
    "base_solution": lambda d: base_solution(_params(d, EXP), _f(d)),
    "degenerate_solution": lambda d: degenerate_solution(
        _params(d, RegimeTag.DEGENERATE), _f(d)),
    "evaluate oscillatory": lambda d: evaluate(
        _params(d, RegimeTag.OSCILLATORY), [_f(d)]),
    "control_solution": lambda d: control_solution(
        _params(d, EXP), _config(d), _f(d), _f(d), _f(d)),
    "initial_conditions_to_modes": lambda d: initial_conditions_to_modes(
        _params(d, EXP), _config(d)),
    "nonsymmetric_solution": lambda d: nonsymmetric_solution(
        *(_f(d) for _ in range(5))),
    "linear_growth_solution": lambda d: linear_growth_solution(
        *(_f(d) for _ in range(5))),
    "eta_article": lambda d: eta_article(_f(d), _f(d), _params(d)),
    "solve_2x2": lambda d: solve_2x2(*(_f(d) for _ in range(6))),
    "modes_to_AB": lambda d: modes_to_AB(*(_f(d) for _ in range(4))),
    "svd_values": lambda d: svd_values(_table(d)),
    "standardize": lambda d: standardize(_features(d)),
    "lasso_fit": _lasso,
    "lasso_objective": _objective,
    "rank_journals": lambda d: rank_journals(_features(d), "f0",
                                             d.draw(LAMBDAS)),
    "fit_ab": _fit_ab,
    "fit_modes": _fit_modes,
    "fit_pipeline": _fit_pipeline,
    "validate_series": _validated,
    "finite_diff": _finite_diff,
    "oracle_solution": _oracle,
}


def returned_floats(result) -> list[float]:
    """Every float in a result: a float, or the floats of a list, tuple,
    array or record's fields (flags, growth kinds, regime tags, names and
    indices are not floats)."""
    if isinstance(result, float):
        return [result]
    if isinstance(result, np.ndarray):
        result = result.tolist()
    elif hasattr(result, "_fields"):  # a record or a NamedTuple
        result = [getattr(result, name) for name in result._fields]
    if isinstance(result, (list, tuple)):
        return [x for item in result for x in returned_floats(item)]
    return []


class TestFiniteOrTyped:
    """Each public entry point that takes scalars, a small table of them or
    a short series of them, and C12's ``lasso_objective``, returns only
    finite floats or raises a :class:`MirrorDdeError`, on edge and ordinary
    floats alike, subnormal grid steps included.  The package documents
    four other exceptions: ``KeyError`` from the feature lookups,
    ``ControlConfig``'s ``TypeError`` for a term of the wrong type, the
    fit's infinite ``rss`` and ``finite_diff``'s infinite quotient.  The
    first two are not reachable from float arguments to these entry
    points, so neither is allowed here; each rss and quotient is checked on
    its own, as at most inf.  The negative-influence warning
    at t=0 is ignored; numpy's ``RuntimeWarning`` fails, as everywhere in
    the suite."""

    @pytest.mark.parametrize("name", list(ENTRY_POINTS))
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_finite_result_or_typed_error(self, name, data):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeInfluenceWarning)
            try:
                result = ENTRY_POINTS[name](data)
            except MirrorDdeError as exc:
                event(type(exc).__name__)
                return
        event("result")
        floats = returned_floats(result)
        assert floats and all(map(math.isfinite, floats)), result
