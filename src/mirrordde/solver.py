"""Closed-form solutions of the mirrored-time model and a numerical oracle.

The homogeneous model p'(t) = a p(-t) + b p(t) behaves like a second-order
equation in disguise: differentiating once and substituting the mirrored
relation gives p'' = (b**2 - a**2) p.  The sign of the discriminant
b**2 - a**2 therefore selects the character of the solution:

* exponential (b**2 > a**2): with r = sqrt(b**2 - a**2),

      p(t) = (p0 / 2r) * [(r + a + b) e^{rt} + (r - a - b) e^{-rt}]
           = p0 * (cosh(rt) + ((a + b)/r) sinh(rt)),

* degenerate (b**2 = a**2): the r -> 0 limit, p(t) = p0 (1 + (a + b) t),

* oscillatory (b**2 < a**2): with w = sqrt(a**2 - b**2),

      p(t) = p0 cos(wt) + p0 ((a + b)/w) sin(wt),

  which solves the equation but describes an influence that keeps changing
  sign, so it is flagged infeasible for the modelling domain.

All branches satisfy p(0) = p0 and p'(0) = (a + b) p0.

:func:`evaluate` settles regime, forcing checks and mode amplitudes once per
trajectory, then applies one closed form per t.  The scalar solutions are
one-point wrappers around it, so each formula is written once.

The oracle integrates the equivalent mirror system u' = b u + a v,
v' = -(b v + a u) with u(0) = v(0) = p0, where u(t) = p(t) and v(t) = p(-t);
it shares no code path with the closed forms beyond elementary arithmetic.
"""

from __future__ import annotations

import enum
import math
import warnings
from typing import NamedTuple, Sequence

from .core import (
    DEGENERACY_RTOL,
    ControlConfig,
    DdeParams,
    EtaArticleBased,
    Regime,
    RegimeTag,
    _require_finite,
)
from .errors import (
    NegativeInfluenceWarning,
    NonFiniteValue,
    ResonantForcing,
    WrongRegime,
    ZeroCoefficient,
)
from .numerics import rk4_integrate, solve_2x2

#: Relative tolerance for the resonance guard on forcing rates.
RESONANCE_RTOL = 1e-12


def classify(params: DdeParams) -> Regime:
    """Classify a parameter pair by the sign of b**2 - a**2.

    The degenerate band |b**2 - a**2| <= 1e-12 * max(1, b**2 + a**2) absorbs
    rounding noise around the boundary; inside it r is reported as the tiny
    sqrt(|b**2 - a**2|) (exactly 0 when a = +-b exactly).  Finite
    coefficients whose squares overflow raise :class:`NonFiniteValue`.
    """
    disc = params.discriminant
    if not math.isfinite(disc):
        raise NonFiniteValue(f"b**2 - a**2 overflows float64 for "
                             f"a={params.a!r}, b={params.b!r}")
    tol = DEGENERACY_RTOL * max(1.0, params.b * params.b + params.a * params.a)
    r = math.sqrt(abs(disc))
    if abs(disc) <= tol:
        return Regime(tag=RegimeTag.DEGENERATE, r=r)
    if disc > 0.0:
        return Regime(tag=RegimeTag.EXPONENTIAL, r=r)
    return Regime(tag=RegimeTag.OSCILLATORY, r=r)


_REGIME_RULES = {
    RegimeTag.EXPONENTIAL: "the exponential regime (b**2 > a**2)",
    RegimeTag.DEGENERATE: "b**2 = a**2",
    RegimeTag.OSCILLATORY: "b**2 < a**2",
}


def _require_regime(params: DdeParams, what: str,
                    tag: RegimeTag = RegimeTag.EXPONENTIAL) -> Regime:
    regime = classify(params)
    if regime.tag is not tag:
        raise WrongRegime(
            f"{what} requires {_REGIME_RULES[tag]}; "
            f"a={params.a!r}, b={params.b!r} is {regime.tag.value}"
        )
    return regime


def base_solution(params: DdeParams, t: float) -> float:
    """Homogeneous solution in the exponential regime.

    Evaluates p0 * (cosh(rt) + ((a+b)/r) sinh(rt)), the hyperbolic form of
    the two-mode solution; at t=0 this returns p0 exactly.  Raises
    :class:`WrongRegime` outside the exponential regime.
    """
    _require_regime(params, "base_solution")
    return evaluate(params, (t,))[0]


def degenerate_solution(params: DdeParams, t: float) -> float:
    """Boundary-case solution p0 * (1 + (a+b) t), the r -> 0 limit."""
    _require_regime(params, "degenerate_solution", RegimeTag.DEGENERATE)
    return evaluate(params, (t,))[0]


class OscillatoryValue(NamedTuple):
    """Value of the sign-changing branch plus its standing infeasibility flag."""

    value: float
    infeasible: bool


def oscillatory_solution(params: DdeParams, t: float) -> OscillatoryValue:
    """Oscillatory-branch value p0 cos(wt) + p0 ((a+b)/w) sin(wt).

    The returned flag is always True: a solution that oscillates through
    zero cannot describe a journal's influence, which is non-negative by
    nature.  The value is still computed so the branch can be inspected.
    """
    _require_regime(params, "oscillatory_solution", RegimeTag.OSCILLATORY)
    return OscillatoryValue(value=evaluate(params, (t,))[0], infeasible=True)


class GrowthKind(enum.Enum):
    EXPONENTIAL = "exponential"
    LINEAR = "linear"


class NonsymmetricValue(NamedTuple):
    value: float
    kind: GrowthKind


def nonsymmetric_solution(a_c: float, b_c: float, c_c: float,
                          p0: float, t: float) -> NonsymmetricValue:
    """Solution of the plain first-order model a_c * p' = b_c + c_c * p.

    For c_c != 0 the solution is the saturating/growing exponential

        p(t) = -b_c/c_c + (p0 + b_c/c_c) e^{(c_c/a_c) t},

    and for c_c = 0 it degrades gracefully to the linear ramp
    p0 + (b_c/a_c) t.  ``a_c = 0`` leaves no derivative to solve for and
    raises :class:`ZeroCoefficient`.
    """
    _check_first_order(a_c, b_c, c_c, p0, t)
    if c_c == 0.0:
        return NonsymmetricValue(value=p0 + (b_c / a_c) * t,
                                 kind=GrowthKind.LINEAR)
    shift = b_c / c_c
    value = -shift + (p0 + shift) * math.exp((c_c / a_c) * t)
    return NonsymmetricValue(value=value, kind=GrowthKind.EXPONENTIAL)


def linear_growth_solution(a_c: float, b_c: float, c_c: float,
                           p0: float, t: float) -> float:
    """First-order (in time) picture of the nonsymmetric model's early growth.

    Expanding the exponential branch to first order around t=0 gives the
    straight line p0 + (b_c/a_c + (c_c/a_c) p0) t, exact when c_c = 0.
    """
    _check_first_order(a_c, b_c, c_c, p0, t)
    return p0 + (b_c / a_c + (c_c / a_c) * p0) * t


def _check_first_order(a_c, b_c, c_c, p0, t) -> None:
    for name, v in (("a_c", a_c), ("b_c", b_c), ("c_c", c_c),
                    ("p0", p0), ("t", t)):
        _require_finite(name, v)
    if a_c == 0.0:
        raise ZeroCoefficient("a_c must be nonzero in a_c * p' = b_c + c_c * p")


# ---------------------------------------------------------------------------
# forced (controlled) solutions
# ---------------------------------------------------------------------------

def _check_resonance(params: DdeParams, config: ControlConfig) -> None:
    """Reject forcing rates whose square hits the discriminant b**2 - a**2.

    At such a rate the assumed particular form collapses onto a homogeneous
    mode and its coefficient would divide by zero.  A rate whose square
    overflows is not resonant: b**2 - a**2 is finite.
    """
    disc = params.discriminant
    for name, term in (("theta", config.theta), ("eta", config.eta)):
        rate = None if term is None else term.rate
        if rate is None or not math.isfinite(square := rate * rate):
            continue
        if abs(square - disc) <= RESONANCE_RTOL * max(1.0, square, abs(disc)):
            raise ResonantForcing(
                f"{name} rate {rate!r} squared coincides with "
                f"b**2 - a**2 = {disc!r}"
            )


def _particular(params: DdeParams, config: ControlConfig,
                times: Sequence[float]) -> list[float]:
    """The particular part P(t) = theta's + eta's at every t."""
    theta = config.theta.particular(params, times)
    if config.eta is None:
        # a missing eta adds a zero, which turns a -0.0 into 0.0
        return [p + 0.0 for p in theta]
    return [p + q for p, q in zip(theta, config.eta.particular(params, times))]


def eta_article(art: float, alpha: float, params: DdeParams) -> float:
    """Article-share external influence: exp(-art) + alpha * (a - b).

    ``art`` is the accepted-article fraction and must lie in [0, 1]; the
    :class:`EtaArticleBased` term it builds checks both inputs.  A value
    beyond the float64 range raises :class:`NonFiniteValue`.
    """
    value = EtaArticleBased(alpha=alpha, art=art).start_values(params)[1]
    _require_finite("eta", value)
    return value


def control_solution(params: DdeParams, config: ControlConfig,
                     c1: float, c2: float, t: float) -> float:
    """Forced solution c1 e^{rt} + c2 e^{-rt} + particular terms.

    ``c1`` and ``c2`` are the homogeneous amplitudes (see
    :func:`initial_conditions_to_modes` for the pair matching given initial
    conditions).  Only defined in the exponential regime; resonant forcing
    rates raise before any evaluation.  If the assembled solution is
    negative at t=0, a :class:`NegativeInfluenceWarning` is emitted — the
    value is still returned.
    """
    return evaluate(params, (t,), config, (c1, c2))[0]


def initial_conditions_to_modes(params: DdeParams,
                                config: ControlConfig) -> tuple[float, float]:
    """Homogeneous amplitudes (c1, c2) matching the model's own initial data.

    The full solution must satisfy p(0) = p0 and the first-order slope
    p'(0) = (a+b) p0 + theta(0) + eta(0).  Subtracting the particular part
    P and its derivative at 0 leaves the 2x2 system

        c1 + c2       = p0    - P(0)
        r (c1 - c2)   = p'(0) - P'(0)

    solved here directly.  With no forcing this reproduces the two-mode
    amplitudes of the homogeneous solution, (p0/2r)(r + a + b) and
    (p0/2r)(r - a - b).  Amplitudes beyond the float64 range raise
    :class:`NonFiniteValue`.
    """
    modes = _forced_start(params, config, None)[2]
    if not all(map(math.isfinite, modes)):
        raise NonFiniteValue(f"(c1, c2) = {modes!r} overflows float64")
    return modes


def _forced_start(params: DdeParams, config: ControlConfig,
                  modes: tuple[float, float] | None
                  ) -> tuple[float, float, tuple[float, float]]:
    """r, P(0) and (c1, c2) of a forced run, after the regime and resonance
    checks; ``modes=None`` solves for the modes that match p0 and p'(0)."""
    what = "initial_conditions_to_modes" if modes is None else "control_solution"
    r = _require_regime(params, what).r
    _check_resonance(params, config)
    part0, = _particular(params, config, (0.0,))
    if modes is None:
        theta_d, theta_0 = config.theta.start_values(params)
        eta_d, eta_0 = ((0.0, 0.0) if config.eta is None
                        else config.eta.start_values(params))
        slope0 = (params.a + params.b) * params.p0 + theta_0 + eta_0
        modes = solve_2x2(1.0, 1.0, r, -r,
                          params.p0 - part0, slope0 - (theta_d + eta_d))
    return r, part0, modes


# ---------------------------------------------------------------------------
# whole trajectories
# ---------------------------------------------------------------------------

def evaluate(params: DdeParams, times: Sequence[float],
             config: ControlConfig | None = None,
             modes: tuple[float, float] | None = None) -> list[float]:
    """The trajectory p(t) at every t of ``times``.

    With neither ``config`` nor ``modes``: the homogeneous solution of the
    regime :func:`classify` finds, oscillatory included.  Otherwise
    c1 e^{rt} + c2 e^{-rt} + P(t) as in :func:`control_solution`, with P from
    ``config`` (none without one) and ``modes`` = (c1, c2) defaulting to
    :func:`initial_conditions_to_modes`; a forced run negative at t=0 warns
    once per call.  Raises :class:`NonFiniteValue` on a non-finite t or p,
    including a p whose ``math`` evaluation overflows.
    """
    if modes is not None:
        for name, v in zip(("c1", "c2"), modes):
            _require_finite(name, v)
    if not all(map(math.isfinite, times)):
        bad = next(t for t in times if not math.isfinite(t))
        raise NonFiniteValue(f"t must be finite, got {bad!r}")

    try:
        if config is None and modes is None:
            values = _homogeneous(params, times)
        else:
            values = _two_mode(params, times, config, modes)
    except OverflowError as exc:
        raise NonFiniteValue(f"p(t) overflows float64 ({exc})") from exc

    if not all(map(math.isfinite, values)):
        t, p = next((t, p) for t, p in zip(times, values)
                    if not math.isfinite(p))
        raise NonFiniteValue(f"p({t!r}) = {p!r} overflows float64")
    return values


def _homogeneous(params: DdeParams, times: Sequence[float]) -> list[float]:
    regime = classify(params)
    p0, s = params.p0, params.a + params.b
    if regime.tag is RegimeTag.DEGENERATE:
        return [p0 * (1.0 + s * t) for t in times]
    r, k = regime.r, s / regime.r
    if regime.tag is RegimeTag.EXPONENTIAL:
        return [p0 * (math.cosh(rt := r * t) + k * math.sinh(rt))
                for t in times]
    return [p0 * (math.cos(wt := r * t) + k * math.sin(wt)) for t in times]


def _two_mode(params: DdeParams, times: Sequence[float],
              config: ControlConfig | None,
              modes: tuple[float, float] | None) -> list[float]:
    if config is None:
        c1, c2 = modes
        r = _require_regime(params, "control_solution").r
        return [c1 * math.exp(r * t) + c2 * math.exp(-r * t) for t in times]

    r, part0, (c1, c2) = _forced_start(params, config, modes)
    p_zero = c1 + c2 + part0
    if p_zero < 0.0:
        warnings.warn(
            f"influence at t=0 is negative ({p_zero!r})",
            NegativeInfluenceWarning,
            stacklevel=3,
        )
    return [c1 * math.exp(r * t) + c2 * math.exp(-r * t) + p
            for t, p in zip(times, _particular(params, config, times))]


# ---------------------------------------------------------------------------
# numerical oracle
# ---------------------------------------------------------------------------

def oracle_solution(params: DdeParams, t_max: float,
                    step: float) -> tuple[list[float], list[float]]:
    """Runge-Kutta reference trajectory on the symmetric window [-t_max, t_max].

    Integrates the mirror system u' = b u + a v, v' = -(b v + a u) with
    u(0) = v(0) = p0 forward to t_max; u(t) reproduces p(t) and v(t)
    reproduces p(-t), so one forward integration covers the whole window.
    Returns two parallel lists ``(times, values)``, ascending in time with a
    single entry at t=0.
    """
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise ValueError(f"t_max must be positive, got {t_max!r}")
    a, b = params.a, params.b
    # (-a) u + (-b) v is -(b v + a u) bit for bit, up to the sign of a zero
    trajectory = rk4_integrate(((b, a), (-a, -b)), (params.p0, params.p0),
                               t_max, step)
    mirrored = trajectory[:0:-1]           # t > 0, descending
    times = [-t for t, _ in mirrored] + [t for t, _ in trajectory]
    values = [v for _, (_, v) in mirrored] + [u for _, (u, _) in trajectory]
    return times, values
