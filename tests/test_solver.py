"""Regime classification and the closed-form solution family."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mirrordde import (
    ControlConfig,
    DdeParams,
    EtaArticleBased,
    EtaTimeExponential,
    GrowthKind,
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
    initial_conditions_to_modes,
    linear_growth_solution,
    nonsymmetric_solution,
    oracle_solution,
    oscillatory_solution,
)

from oracles import (
    loop_forced_evaluate,
    loop_initial_conditions_to_modes,
    mp_forced_solution,
    mp_forcing,
    mp_substitution_residual,
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
        out = oscillatory_solution(params, 0.0)
        assert out.value == 1.7
        assert out.infeasible is True

    def test_quarter_period(self):
        # w = 1, so at t = pi/2 only the sine term survives: p0 (a+b)/w
        params = DdeParams(a=1.0, b=0.0, p0=1.0)
        out = oscillatory_solution(params, math.pi / 2.0)
        assert out.value == pytest.approx(1.0, abs=1e-12)

    def test_always_flagged_infeasible(self):
        params = DdeParams(a=0.9, b=0.1, p0=1.0)
        for t in np.linspace(-3.0, 3.0, 13):
            assert oscillatory_solution(params, t).infeasible is True

    def test_wrong_regime_rejected(self):
        with pytest.raises(WrongRegime):
            oscillatory_solution(DdeParams(a=0.3, b=0.5, p0=1.0), 1.0)


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
        from mirrordde import rk4_integrate

        a_c, b_c, c_c, p0 = 2.0, -0.5, 0.8, 1.2
        out = rk4_integrate(((c_c / a_c, b_c / a_c), (0.0, 0.0)), (p0, 1.0),
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

    def test_overflowing_start_slope_is_non_finite_value(self):
        # k1 * k = inf over (k1 * k1 - disc) = inf makes P'(0) NaN
        config = ControlConfig(eta=EtaTimeExponential(k=1e300, k1=1e300))
        with pytest.raises(NonFiniteValue, match=r"\(c1, c2\) = \(nan, nan\)"):
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
        (DdeParams(a=0.5, b=-0.3, p0=0.7),
         lambda params, t: oscillatory_solution(params, t).value),
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
        """(times, values) are the per-sample layout of a closure-driven
        RK4, value for value, whether or not step divides t_max."""
        b = sign * (abs(a) + margin)
        times, values = oracle_solution(DdeParams(a=a, b=b, p0=p0),
                                        t_max, step)
        samples = sample_layout_oracle(a, b, p0, t_max, step)
        assert times == [t for t, _ in samples]
        assert values == [p for _, p in samples]

    def test_window_far_below_one_step(self):
        # t_max < 1e-9 * step is one short step each way, not t=0 alone
        a, b, p0 = 0.3, 0.5, 1.0
        times, values = oracle_solution(DdeParams(a=a, b=b, p0=p0), 1e-12, 1.0)
        assert times == [-1e-12, 0.0, 1e-12]
        assert values == [p for _, p in sample_layout_oracle(a, b, p0,
                                                             1e-12, 1.0)]
        assert values[0] < values[1] == p0 < values[2]

    def test_overflowing_trajectory_raises(self):
        # the integrator checks every state, so no non-finite sample is built
        with pytest.raises(NonFiniteState):
            oracle_solution(DdeParams(a=0.3, b=0.5, p0=1e308), 5.0, 1e-3)
