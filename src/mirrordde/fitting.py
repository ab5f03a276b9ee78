"""Recovery of model coefficients from a sampled influence series.

Stage one, :func:`fit_ab`, linearizes the model itself: with z_i a
finite-difference estimate of p'(t_i), x_i = p(-t_i) the mirrored sample and
y_i = p(t_i), the normal equations of

    z ~ a x + b y

are solved for a difference-quotient pair (a_fd, b_fd).  On model data that
pair is exact up to the difference quotient's own factor: M = ((b, a),
(-a, -b)) squares to (b**2 - a**2) I, so a central difference returns
sigma (a, b) with sigma = sinh(rh)/(rh), and a forward one adds
(cosh(rh) - 1)/h to b as well.

The mode stage inverts that factor, then fits the series once more.  The
sign of b_fd**2 - a_fd**2 is the regime's (in both difference modes), and
the rate r (w in the oscillatory regime) follows in closed form from asinh
(asin).  The solution through p(0) = p0 is p0 (C(t) + s S(t)) with
s = a + b, where C and S are cosh(rt) and sinh(rt)/r (cos and sin/w).  C is
even and S odd, so on the symmetric grid the least squares of
p ~ alpha C + beta S splits into two one-column fits: the even part of the
series against C and its odd part against S, over the t >= 0 half.  Then
s = beta/alpha, and

    a, b = (s -+ q/s) / 2,    q = r**2 (exponential) or -w**2,

and in the exponential regime the amplitudes of p = w1 e^{rt} + w2 e^{-rt}
are w1, w2 = alpha (r +- s) / 2r.  Solving the little system

    a A + b B = w1,        b A + a B = w2

backwards then yields the underlying amplitude pair (A, B).  A pair in
the degenerate band (b**2 = a**2 to working precision) has r = 0, where
either difference quotient is exact, so (a_fd, b_fd) are the answer.

Every sum is a left-to-right array reduction, bit for bit what a Python
loop over the samples gives, on arrays scaled by a power of two so that no
sum overflows.
"""

from __future__ import annotations

import math

from .core import (DdeParams, InfluenceSeries, ModeCoefficients, Regime,
                   RegimeTag, _Record)
from .errors import (DegenerateSystem, NonFiniteValue, NonPositiveR,
                     SingularSystem, TooShort)
from .numerics import (FdMode, _pow2_scaled, _sum_left_to_right,
                       finite_diff, solve_2x2)
from .solver import classify

def fit_ab(series: InfluenceSeries,
           fd_mode: FdMode = FdMode.CENTRAL) -> tuple[float, float, float]:
    """Least-squares estimate of (a, b) from the linearized model.

    Derivative estimates come from :func:`finite_diff`; each estimate at
    index i is regressed on the mirrored sample x_i = values[n-1-i] and the
    direct sample y_i = values[i], both slices of the float64 array.  Returns
    (a, b, rss), rss the sum of squared residuals, inf where it exceeds the
    float64 range.  The series and the quotients are each scaled by
    :func:`~mirrordde.numerics._pow2_scaled`, and the solution back, so no
    sum overflows and (a, b) do not change bit for bit when the series is
    scaled by a power of two (while every sample and difference quotient
    stays a normal float).  A flat or mirror-symmetric series, or Gram sums
    that still overflow float64, make the normal matrix singular and raise
    :class:`DegenerateSystem` with stage ``"fit_ab"``; an (a, b) beyond the
    float64 range (as a subnormal step gives) raises :class:`NonFiniteValue`.
    """
    z = finite_diff(series, fd_mode)
    if len(z) < 3:
        raise TooShort(
            f"need at least 3 usable derivative estimates, got {len(z)}"
        )
    import numpy as np

    values, e = _pow2_scaled(series.values)
    first = 1 if fd_mode is FdMode.CENTRAL else 0
    usable = slice(first, first + len(z))
    x, y = values[::-1][usable], values[usable]
    with np.errstate(over="ignore", invalid="ignore"):
        z, ez = _pow2_scaled(z)  # so the fit gives (a, b) * 2**(e - ez)
        # one product at a time, each summed and dropped before the next
        sxx, sxy, syy, szx, szy = (_sum_left_to_right(u * v) for u, v in
                                   ((x, x), (x, y), (y, y), (z, x), (z, y)))
        try:
            a, b = solve_2x2(sxx, sxy, sxy, syy, szx, szy)
        except SingularSystem as exc:
            raise DegenerateSystem(
                f"normal equations for (a, b) are singular: {exc}",
                stage="fit_ab",
            ) from exc
        resid = z - a * x
        resid -= b * y
        resid *= resid
        rss = float(np.ldexp(_sum_left_to_right(resid), 2 * ez))
        a, b = (float(np.ldexp(v, ez - e)) for v in (a, b))
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NonFiniteValue(f"fit_ab's (a, b) = ({a!r}, {b!r}) leave float64")
    return a, b, rss


def _rate(a_fd: float, b_fd: float, h: float,
          fd_mode: FdMode) -> tuple[RegimeTag, float]:
    """The regime and rate (r, or w in the oscillatory regime) of the model
    whose difference quotients at step h are exactly (a_fd, b_fd).

    The regime is :func:`~mirrordde.solver.classify`'s for (a_fd, b_fd):
    the sign of b_fd**2 - a_fd**2, which is the model's in both difference
    modes, or degenerate (rate 0) inside its rounding band.  Central:
    r = asinh(h sqrt(b_fd**2 - a_fd**2)) / h.  Forward, in its
    cancellation-free form: cosh(rh) - 1 = h**2 (b_fd**2 - a_fd**2) /
    2 (1 + h b_fd), so r = (2/h) asinh((h/2) sqrt((b_fd**2 - a_fd**2) /
    (1 + h b_fd))).  asin takes the place of asinh in the oscillatory
    regime.  An argument outside asin's domain (an oscillation under-sampled
    at step h), 1 + h b_fd <= 0 in forward mode, or a rate that underflows
    or overflows identifies no rate and raises :class:`DegenerateSystem`.
    """
    tag = classify(DdeParams(a=a_fd, b=b_fd, p0=1.0)).tag
    if tag is RegimeTag.DEGENERATE:
        return tag, 0.0
    # sqrt|b**2 - a**2| without squares that could overflow
    x = h * (math.sqrt(abs(b_fd - a_fd)) * math.sqrt(abs(b_fd + a_fd)))
    if fd_mode is FdMode.FORWARD:
        g = 1.0 + h * b_fd
        if not g > 0.0:
            raise DegenerateSystem(
                f"forward differences identify no rate: 1 + h*b = {g!r} <= 0",
                stage="fit_modes")
        x = 0.5 * x / math.sqrt(g)
    try:
        theta = (math.asinh if tag is RegimeTag.EXPONENTIAL else math.asin)(x)
    except ValueError:
        raise DegenerateSystem(
            f"oscillation under-sampled at step {h!r}: sin(w*h) would be "
            f"{x!r}", stage="fit_modes") from None
    r = theta / h if fd_mode is FdMode.CENTRAL else 2.0 * theta / h
    if not 0.0 < r < math.inf:
        raise DegenerateSystem(
            f"the rate of (a, b) = ({a_fd!r}, {b_fd!r}) at step {h!r} is "
            f"{r!r}", stage="fit_modes")
    return tag, r


def _even_odd_fit(series: InfluenceSeries, tag: RegimeTag,
                  r: float) -> tuple[float, float, float]:
    """Least squares of p ~ alpha C + beta S at rate r: (alpha, s, rss).

    s = beta/alpha, rss the mean squared residual of p.  C is even and S
    odd, so the normal equations over the whole grid are two one-column
    fits over the t >= 0 half: the even part (p(t) + p(-t))/2 against C,
    counting t = 0 once, and the odd part against S.  Series, C and S are
    each scaled by a power of two first, so no sum overflows.  An even or
    odd part that fits to zero identifies no s and raises
    :class:`DegenerateSystem`.
    """
    import numpy as np

    m = len(series) // 2
    values, e = _pow2_scaled(series.values)
    pos, neg = values[m:], values[m::-1]      # p(t) and p(-t), t >= 0
    even, odd = pos + neg, pos - neg          # twice the even and odd parts
    even[0] = pos[0]                          # t = 0 counts once
    # math, not numpy (they differ in the last bit on some inputs), mapped
    # over a memoryview, which yields Python floats without a list
    if tag is RegimeTag.OSCILLATORY:
        c_of, s_of = math.cos, math.sin
    else:
        c_of, s_of = math.cosh, math.sinh
    with np.errstate(over="ignore"):
        rt = r * series.times[m:]
    try:
        if math.isinf(rt[-1]):
            raise OverflowError("r*t overflows")
        cee = np.fromiter(map(c_of, memoryview(rt)), float, m + 1)
        ess = np.fromiter(map(s_of, memoryview(rt)), float, m + 1)
        with np.errstate(over="ignore"):
            ess /= r
        if math.isinf(ess[-1]):     # sinh(rt)/r grows with t; sin(wt)/w <= t
            raise OverflowError("sinh(rt)/r overflows")
    except OverflowError as exc:
        raise NonFiniteValue(f"the mode fit's columns leave float64 "
                             f"({exc})") from exc
    cee, ec = _pow2_scaled(cee)
    ess, es = _pow2_scaled(ess)
    with np.errstate(over="ignore", invalid="ignore"):
        # half the normal equations' sums: t = 0 enters C**2 as 1/2
        cc = cee * cee
        cc[0] *= 0.5
        sss = _sum_left_to_right(ess * ess)
        if sss == 0.0:
            raise DegenerateSystem(f"sinh(rt)/r is 0 on the whole grid at "
                                   f"r = {r!r}", stage="fit_modes")
        alpha = _sum_left_to_right(even * cee) / (2.0 * _sum_left_to_right(cc))
        beta = _sum_left_to_right(odd * ess) / (2.0 * sss)
        if alpha == 0.0 or beta == 0.0:
            part = "even" if alpha == 0.0 else "odd (a = -b)"
            raise DegenerateSystem(
                f"the {part} part of the series fits to zero, so a - b "
                f"cannot be identified", stage="fit_modes")
        s = float(np.ldexp(beta / alpha, ec - es))
        if not math.isfinite(s):
            raise DegenerateSystem(
                "the even part of the series fits to almost zero (a + b "
                "overflows), so a - b cannot be identified", stage="fit_modes")
        cee *= alpha            # both fitted parts, in the series' scale
        ess *= beta
        resid = pos - cee
        resid -= ess
        resid *= resid
        rss = _sum_left_to_right(resid)
        resid = neg - cee
        resid += ess
        resid *= resid
        resid[0] = 0.0          # t = 0 counts once
        rss = (rss + _sum_left_to_right(resid)) / len(series)
        return (float(np.ldexp(alpha, e - ec)), s,
                float(np.ldexp(rss, 2 * e)))


def _coefficients(s: float, tag: RegimeTag, r: float) -> tuple[float, float]:
    """(a, b) = ((s - q/s)/2, (s + q/s)/2), q = r**2 in the exponential
    regime and -r**2 in the oscillatory one; the one of them that cancels
    as (s - r)(s + r)/2s."""
    lo = 0.5 * (s - r) * ((s + r) / s)      # s - r is exact near s = r
    hi = 0.5 * (s + r * (r / s))
    return (lo, hi) if tag is RegimeTag.EXPONENTIAL else (hi, lo)


def _amplitudes(alpha: float, s: float, r: float,
                a: float) -> tuple[float, float]:
    """(w1, w2) = alpha (r +- s) / 2r, with r + |s| computed directly and
    the other one of r +- s, which cancels, from (r + s)(r - s) = -2 a s."""
    big = r + abs(s)
    small = -2.0 * a * (s / big)
    plus, minus = (big, small) if s >= 0.0 else (small, big)
    w1, w2 = alpha * (plus / (2.0 * r)), alpha * (minus / (2.0 * r))
    if not (math.isfinite(w1) and math.isfinite(w2)):
        raise NonFiniteValue(f"mode amplitudes ({w1!r}, {w2!r}) leave the "
                             f"float64 range")
    return w1, w2


def fit_modes(series: InfluenceSeries, r: float) -> tuple[float, float, float]:
    """Mode amplitudes (w1, w2) at a known rate r > 0.

    Fits p(t) = w1 e^{rt} + w2 e^{-rt} by least squares over the whole grid,
    in the equivalent form alpha cosh(rt) + beta sinh(rt)/r, whose columns
    are orthogonal on the symmetric grid (see :func:`_even_odd_fit`); then
    w1, w2 = alpha (r +- s) / 2r with s = beta/alpha.  Returns (w1, w2, rss),
    rss the mean squared residual of p itself (per sample, so the figure is
    comparable across window sizes, and 0 for exact two-mode data at the
    supplied rate; inf where it exceeds float64).  An even part that fits to
    zero, or an odd one (s = 0, as a = -b gives), raises
    :class:`DegenerateSystem` with stage ``"fit_modes"``; a cosh(rt) or an
    amplitude beyond the float64 range raises :class:`NonFiniteValue`.
    """
    if not (math.isfinite(r) and r > 0.0):
        raise NonPositiveR(f"mode fit needs a positive rate, got {r!r}")
    alpha, s, rss = _even_odd_fit(series, RegimeTag.EXPONENTIAL, r)
    a, _ = _coefficients(s, RegimeTag.EXPONENTIAL, r)
    return (*_amplitudes(alpha, s, r, a), rss)


def modes_to_AB(w1: float, w2: float, a: float, b: float) -> tuple[float, float]:
    """Recover the underlying pair: solve a A + b B = w1, b A + a B = w2.

    Raises :class:`SingularSystem` when a**2 = b**2 to working precision, in
    which case the two equations no longer separate the amplitudes, and
    :class:`NonFiniteValue` when (A, B) leaves the float64 range.
    """
    return solve_2x2(a, b, b, a, w1, w2)


class FitReport(_Record):
    """Everything the fitting pipeline learned from one series.

    ``rss_ab`` is the residual sum of squares of the derivative regression;
    ``rss_modes`` is the mean squared residual of the mode fit, in p itself.
    ``modes`` (and ``rss_modes``) are None outside the exponential regime,
    with ``modes_note`` explaining why the stage was skipped.
    """

    params: DdeParams
    regime: Regime
    modes: ModeCoefficients | None
    rss_ab: float
    rss_modes: float | None
    n_points: int
    modes_note: str | None = None


def fit_pipeline(series: InfluenceSeries,
                 fd_mode: FdMode = FdMode.CENTRAL) -> FitReport:
    """Full coefficient recovery: (a, b), regime, then modes if available.

    :func:`fit_ab`'s difference-quotient pair gives the regime and the rate
    (:func:`_rate`), the even/odd fit at that rate gives s = a + b, and
    (a, b) follow from s and the rate, exact on model data whatever the step.
    ``fd_mode`` moves only ``rss_ab`` and rounding, except that forward
    differences refuse a series whose quotient b has 1 + h b <= 0 (a
    ``"fit_modes"`` failure, exit 4 in ``fit``).  In the degenerate band the
    difference quotients are exact and pass through.  Stage failures
    propagate as :class:`DegenerateSystem` labeled with the stage name
    (``"fit_ab"``, or ``"fit_modes"`` for a rate or an s that the data
    cannot identify); values beyond float64 raise :class:`NonFiniteValue`.
    Outside the exponential regime the amplitudes are skipped rather than
    failed: the report still carries the coefficients and the regime, with a
    note in ``modes_note``.
    """
    a, b, rss_ab = fit_ab(series, fd_mode)
    tag, r = _rate(a, b, series.step, fd_mode)
    rss_modes = None
    if tag is not RegimeTag.DEGENERATE:     # else the quotients are exact
        alpha, s, rss_modes = _even_odd_fit(series, tag, r)
        a, b = _coefficients(s, tag, r)
    params = DdeParams(a=a, b=b, p0=series.value_at_zero,
                       half_width=float(series.times[-1]))
    regime = classify(params)

    modes = note = None
    if regime.tag is RegimeTag.EXPONENTIAL:
        w1, w2 = _amplitudes(alpha, s, r, a)
        A, B = modes_to_AB(w1, w2, a, b)
        modes = ModeCoefficients(A=A, B=B, w1=w1, w2=w2)
    else:
        rss_modes = None
        note = (f"mode fit skipped: fitted coefficients fall in the "
                f"{regime.tag.value} regime")
    return FitReport(
        params=params,
        regime=regime,
        modes=modes,
        rss_ab=rss_ab,
        rss_modes=rss_modes,
        n_points=len(series),
        modes_note=note,
    )
