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
  sign, so it is infeasible for the modelling domain: :func:`evaluate`
  serves it, and ``simulate`` prints it only under ``--allow-oscillatory``.

All branches satisfy p(0) = p0 and p'(0) = (a + b) p0.  A zero p0, or a
zero mode amplitude, contributes exact zeros, also where the exponential it
scales overflows.

:func:`evaluate` settles regime, forcing checks and mode amplitudes once per
trajectory, then applies one closed form per t.  :func:`base_solution`,
:func:`degenerate_solution` and :func:`control_solution` are one-point
wrappers around it, so each formula is written once.  The one other
evaluation of a closed form is the oracle comparison's
(:func:`_max_deviation`, behind ``verify``).  It refuses every regime but
the exponential one before integrating, then takes one cosh and one sinh at
each t for the pair t, -t (:func:`_exponential_block`), which gives
:func:`evaluate`'s bits; ``evaluate`` only names the error where they
overflow or are not finite.

The oracle integrates the equivalent mirror system u' = b u + a v,
v' = -(b v + a u) with u(0) = v(0) = p0, where u(t) = p(t) and v(t) = p(-t),
in any regime; it shares no code path with the closed forms beyond
elementary arithmetic.
"""

from __future__ import annotations

import enum
import math
import warnings
from typing import Iterator, NamedTuple, Sequence

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
    OutOfRange,
    ResonantForcing,
    WrongRegime,
    ZeroCoefficient,
)
from .numerics import _rk4_blocks, solve_2x2

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
    # the band's bound from halved squares, whose sum cannot overflow where
    # b**2 - a**2 does not; halving and doubling are exact, so are its bits
    half = max(0.5, 0.5 * (params.b * params.b) + 0.5 * (params.a * params.a))
    tol = 2.0 * (DEGENERACY_RTOL * half)
    r = math.sqrt(abs(disc))
    if abs(disc) <= tol:
        return Regime(tag=RegimeTag.DEGENERATE, r=r)
    if disc > 0.0:
        return Regime(tag=RegimeTag.EXPONENTIAL, r=r)
    return Regime(tag=RegimeTag.OSCILLATORY, r=r)


_REGIME_RULES = {
    RegimeTag.EXPONENTIAL: "the exponential regime (b**2 > a**2)",
    RegimeTag.DEGENERATE: "b**2 = a**2",
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
    raises :class:`ZeroCoefficient`, and a p beyond the float64 range (an
    overflowing exponential included) :class:`NonFiniteValue`.
    """
    _check_first_order(a_c, b_c, c_c, p0, t)
    if c_c == 0.0:
        return NonsymmetricValue(value=_finite_p(t, p0 + (b_c / a_c) * t),
                                 kind=GrowthKind.LINEAR)
    shift = b_c / c_c
    amplitude = p0 + shift
    try:
        # at the equilibrium p0 = -b_c/c_c no exponential is evaluated
        growth = amplitude * math.exp((c_c / a_c) * t) if amplitude else 0.0
    except OverflowError as exc:
        raise NonFiniteValue(f"p(t) overflows float64 ({exc})") from exc
    return NonsymmetricValue(value=_finite_p(t, -shift + growth),
                             kind=GrowthKind.EXPONENTIAL)


def linear_growth_solution(a_c: float, b_c: float, c_c: float,
                           p0: float, t: float) -> float:
    """First-order (in time) picture of the nonsymmetric model's early growth.

    Expanding the exponential branch to first order around t=0 gives the
    straight line p0 + (b_c/a_c + (c_c/a_c) p0) t, exact when c_c = 0.  A
    p beyond the float64 range raises :class:`NonFiniteValue`.
    """
    _check_first_order(a_c, b_c, c_c, p0, t)
    return _finite_p(t, p0 + (b_c / a_c + (c_c / a_c) * p0) * t)


def _finite_p(t: float, p: float) -> float:
    if not math.isfinite(p):
        raise NonFiniteValue(f"p({t!r}) = {p!r} overflows float64")
    return p


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
    return _evaluate(params, (t,), config, (c1, c2))[0]


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
    return _forced_start(params, config, None)[2]


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
    ``config`` and ``modes`` = (c1, c2) defaulting to
    :func:`initial_conditions_to_modes`.  Explicit ``modes`` alone are a
    forced run without forcing; a run with ``config`` warns once per call if
    negative at t=0.  Raises :class:`NonFiniteValue` on a non-finite t or p,
    including a p whose ``math`` evaluation overflows.  A zero p0 (without
    ``config`` or ``modes``) or a zero mode amplitude contributes exact
    zeros, also where the factor it scales, or that factor's phase,
    overflows.
    """
    return _evaluate(params, times, config, modes)


def _evaluate(params, times, config, modes) -> list[float]:
    """:func:`evaluate` one frame down, as :func:`control_solution` calls it
    too: the warning of :func:`_two_mode` names the caller of either."""
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
    # a zero p0 times the factor's sign is p0 times the factor bit for bit,
    # where that is not nan (0 * inf) or a math range or domain error
    regime = classify(params)
    p0, s = params.p0, params.a + params.b
    if regime.tag is RegimeTag.DEGENERATE:
        if not p0:
            return [p0 * math.copysign(1.0, 1.0 + s * t) for t in times]
        return [p0 * (1.0 + s * t) for t in times]
    r, k = regime.r, s / regime.r
    if regime.tag is RegimeTag.EXPONENTIAL:
        if not p0:
            return [p0 * _hyperbolic_sign(k, r * t) for t in times]
        return [p0 * (math.cosh(rt := r * t) + k * math.sinh(rt))
                for t in times]
    if not p0:  # where w t overflows there is no factor: p0 itself
        return [p0 * math.copysign(1.0, math.cos(wt) + k * math.sin(wt))
                if math.isfinite(wt := r * t) else p0 for t in times]
    try:
        return [p0 * (math.cos(wt := r * t) + k * math.sin(wt)) for t in times]
    except ValueError:  # cos(inf) is a domain error
        t = next(t for t in times if not math.isfinite(r * t))
        raise NonFiniteValue(f"w*t overflows float64 at t={t!r} "
                             f"(w={r!r})") from None


def _hyperbolic_sign(k: float, x: float) -> float:
    """The sign (+-1.0) of cosh(x) + k sinh(x), or where ``math`` overflows,
    of (1 + k sign(x)) e^|x| / 2, +1.0 where that is 0 and e^-|x| is left."""
    try:
        return math.copysign(1.0, math.cosh(x) + k * math.sinh(x))
    except OverflowError:
        return math.copysign(1.0, 1.0 + k * math.copysign(1.0, x))


def _two_mode(params: DdeParams, times: Sequence[float],
              config: ControlConfig | None,
              modes: tuple[float, float] | None) -> list[float]:
    forcing = ControlConfig() if config is None else config
    r, part0, (c1, c2) = _forced_start(params, forcing, modes)
    if config is not None and (p_zero := c1 + c2 + part0) < 0.0:
        warnings.warn(
            f"influence at t=0 is negative ({p_zero!r})",
            NegativeInfluenceWarning,
            stacklevel=4,  # past _two_mode, _evaluate and its public caller
        )
    # a zero amplitude times a finite exponential is that zero, and so is
    # its term at rate 0, where the exponential cannot overflow
    r1, r2 = (r if c1 else 0.0), (r if c2 else 0.0)
    return [c1 * math.exp(r1 * t) + c2 * math.exp(-r2 * t) + p
            for t, p in zip(times, _particular(params, forcing, times))]


# ---------------------------------------------------------------------------
# numerical oracle
# ---------------------------------------------------------------------------

def _oracle_blocks(params: DdeParams, t_max: float, step: float
                   ) -> Iterator[tuple[list[float], list[float], list[float]]]:
    """The oracle's RK4 blocks ``(times, p(t), p(-t))``, t ascending from 0
    (first block) to t_max (last); see :func:`oracle_solution`."""
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise OutOfRange(f"t_max must be positive, got {t_max!r}")
    a, b = params.a, params.b
    return _rk4_blocks(((b, a), (-a, -b)), (params.p0, params.p0), t_max, step)


def oracle_solution(params: DdeParams, t_max: float,
                    step: float) -> tuple[list[float], list[float]]:
    """Runge-Kutta reference trajectory on the symmetric window [-t_max, t_max].

    Integrates the mirror system u' = b u + a v, v' = -(b v + a u) with
    u(0) = v(0) = p0 forward to t_max; u(t) reproduces p(t) and v(t)
    reproduces p(-t), so one forward integration covers the whole window.
    Returns two parallel lists ``(times, values)``, ascending in time with a
    single entry at t=0.
    """
    times: list[float] = []
    ahead: list[float] = []
    behind: list[float] = []
    for block_times, block_ahead, block_behind in _oracle_blocks(params, t_max,
                                                                 step):
        times += block_times
        ahead += block_ahead
        behind += block_behind
    # the mirrored half descends from t_max and stops short of t = 0
    return [-t for t in times[:0:-1]] + times, behind[:0:-1] + ahead


def _exponential_block(p0: float, r: float, k: float, times: Sequence[float],
                       ahead: Sequence[float], behind: Sequence[float]
                       ) -> float | None:
    """The largest |c - p| / max(1, |c|) over one oracle block of the
    exponential regime, or None where ``math`` overflows or a c is not
    finite: exactly the blocks on which :func:`evaluate` raises.

    One cosh and one sinh at each t serve both of its samples: with
    x = r t, ch = cosh(x) and ks = k sinh(x), the closed form is
    p0 (ch + ks) at t, against ``ahead``, and p0 (ch - ks) at -t, against
    ``behind``.  r (-t) = -(r t) exactly, cosh is even and sinh odd, so the
    second is :func:`evaluate`'s value at -t bit for bit.  The oracle is
    finite, so a gap is nan exactly where its c is inf or nan; a finite c
    whose gap overflows gives an infinite deviation.  A zero p0 makes every
    c a zero, as in ``evaluate``, and every gap the oracle's |p|.
    """
    if not p0:
        return max(map(abs, [*ahead, *behind]))
    hi = lo = 0.0
    try:
        for t, u, v in zip(times, ahead, behind):
            ch = math.cosh(x := r * t)
            ks = k * math.sinh(x)
            c = p0 * (ch + ks)
            d = c - u
            if c > 1.0 or c < -1.0:
                d /= c  # |(c - p) / c| is |c - p| / |c| bit for bit
            c = p0 * (ch - ks)
            e = c - v
            if c > 1.0 or c < -1.0:
                e /= c
            if d != d or e != e:
                return None
            # the gaps keep their signs, so the largest |gap| is max(hi, -lo)
            if d > hi:
                hi = d
            elif d < lo:
                lo = d
            if e > hi:
                hi = e
            elif e < lo:
                lo = e
    except OverflowError:
        return None
    return max(hi, -lo)


def _max_deviation(params: DdeParams, t_max: float, step: float) -> float:
    """The largest |c - p| / max(1, |c|) between :func:`base_solution`'s
    closed form c and the oracle p over [-t_max, t_max], one RK4 block at
    a time.

    It refuses a pair outside the exponential regime before integrating,
    as ``base_solution`` does, and :func:`_exponential_block` compares each
    block in one pass.  On a block that the pass cannot serve,
    :func:`evaluate` at its -t and +t only names the error.

    It raises what ``evaluate`` over the whole of :func:`oracle_solution`'s
    window would, after it: an RK4 error when the integration reaches it;
    then, once the integration finishes, the closed form's error at the
    first failing t in ascending order.  A ``math`` overflow (cosh or sinh)
    happens for every |t| from some bound on, so it happens at -t_max too,
    first in that order as ``evaluate`` raises it first.
    """
    regime = _require_regime(params, "base_solution")
    r, k = regime.r, (params.a + params.b) / regime.r
    deviation = 0.0
    error: NonFiniteValue | None = None
    for times, ahead, behind in _oracle_blocks(params, t_max, step):
        worst = _exponential_block(params.p0, r, k, times, ahead, behind)
        if worst is not None:
            deviation = max(deviation, worst)
            continue
        for side, mirrored in (([-t for t in reversed(times)], True),
                               (times, False)):
            try:
                evaluate(params, side)
            except NonFiniteValue as exc:
                # a later block mirrors to a more negative t
                if mirrored or error is None:
                    error = exc
    if error is not None:
        raise error
    return deviation
