"""Recovery of model coefficients from a sampled influence series.

The pipeline has two least-squares stages.  Stage one linearizes the model
itself: with z_i a finite-difference estimate of p'(t_i), x_i = p(-t_i) the
mirrored sample and y_i = p(t_i), the normal equations of

    z ~ a x + b y

are solved for (a, b).  Stage two, only available in the exponential
regime, fits the mode amplitudes (w1, w2) of the solution written as
Y = w1 X + w2 with X = e^{2 r t} and Y = e^{r t} p(t) — a plain line fit
in transformed coordinates.  Solving the little system

    a A + b B = w1,        b A + a B = w2

backwards then yields the underlying amplitude pair (A, B).

Both stages are two-column fits z ~ c1 u + c2 v and share one kernel: the
normal-equation sums and the residual sum of squares are left-to-right
array reductions, bit for bit what a Python loop over the samples gives.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .core import (DdeParams, InfluenceSeries, ModeCoefficients, Regime,
                   RegimeTag, _Record)
from .errors import (DegenerateSystem, NonFiniteValue, NonPositiveR,
                     SingularSystem, TooShort)
from .numerics import (FdMode, _pow2_scaled, _sum_left_to_right,
                       finite_diff, solve_2x2)
from .solver import classify

if TYPE_CHECKING:
    import numpy as np
    from numpy.typing import NDArray


def _lstsq2(u: NDArray[np.float64], v: NDArray[np.float64], z: NDArray[np.float64],
            unknowns: str, stage: str) -> tuple[float, float, float]:
    """Least squares of z ~ c1 u + c2 v by its normal equations: (c1, c2, rss).

    A singular system, or sums that overflow to a non-finite determinant,
    raises :class:`DegenerateSystem` labeled with ``stage``; a non-finite
    solution of the normal equations (as overflowing right-hand-side sums
    give) raises :class:`NonFiniteValue`.
    """
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        # one product at a time, each summed and dropped before the next
        suu, suv, svv, szu, szv = (_sum_left_to_right(x * y) for x, y in
                                   ((u, u), (u, v), (v, v), (z, u), (z, v)))
        try:
            c1, c2 = solve_2x2(suu, suv, suv, svv, szu, szv)
        except SingularSystem as exc:
            raise DegenerateSystem(
                f"normal equations for {unknowns} are singular: {exc}",
                stage=stage,
            ) from exc
        resid = z - c1 * u
        resid -= c2 * v
        resid *= resid
        return c1, c2, _sum_left_to_right(resid)


def fit_ab(series: InfluenceSeries,
           fd_mode: FdMode = FdMode.CENTRAL) -> tuple[float, float, float]:
    """Least-squares estimate of (a, b) from the linearized model.

    Derivative estimates come from :func:`finite_diff`; each estimate at
    index i is regressed on the mirrored sample x_i = values[n-1-i] and the
    direct sample y_i = values[i], both slices of the float64 array.  Returns
    (a, b, rss), rss the sum of squared residuals, inf where it exceeds the
    float64 range.  The regression runs on the series scaled by
    :func:`~mirrordde.numerics._pow2_scaled`, so no sum overflows and (a, b)
    do not change bit for bit when the series is scaled by a power of two
    (while every sample and difference quotient stays a normal float).
    A flat or mirror-symmetric series, or Gram sums that still overflow
    float64, make the normal matrix singular and raise
    :class:`DegenerateSystem` with stage ``"fit_ab"``; a non-finite solution
    of the normal equations (as overflowing right-hand-side sums give)
    raises :class:`NonFiniteValue`.
    """
    z = finite_diff(series, fd_mode)
    if len(z) < 3:
        raise TooShort(
            f"need at least 3 usable derivative estimates, got {len(z)}"
        )
    import numpy as np

    values, e = _pow2_scaled(series.values)
    np.ldexp(z, -e, out=z)
    first = 1 if fd_mode is FdMode.CENTRAL else 0
    usable = slice(first, first + len(z))
    a, b, rss = _lstsq2(values[::-1][usable], values[usable], z, "(a, b)",
                        "fit_ab")
    with np.errstate(over="ignore"):
        return a, b, float(np.ldexp(rss, 2 * e))


def fit_modes(series: InfluenceSeries, r: float) -> tuple[float, float, float]:
    """Line fit of the mode amplitudes (w1, w2) at a known rate r > 0.

    Writing the exponential-regime solution as p(t) = w1 e^{rt} + w2 e^{-rt}
    and multiplying through by e^{rt} gives Y = w1 X + w2 with X = e^{2rt},
    Y = e^{rt} p(t): an ordinary straight-line fit.  Returns (w1, w2, rss)
    where rss is the mean squared residual in the transformed coordinates
    (per-sample, so the figure is comparable across window sizes, and 0 for
    exact two-mode data at the supplied rate).  A grid too narrow to spread
    X raises :class:`DegenerateSystem` with stage ``"fit_modes"``; an X
    beyond the float64 range, or normal equations whose solution leaves it
    (as sums of Y that overflow do), raise :class:`NonFiniteValue`.
    """
    if not (math.isfinite(r) and r > 0.0):
        raise NonPositiveR(f"mode fit needs a positive rate, got {r!r}")
    import numpy as np

    n, t = len(series), series.times
    # math.exp, not np.exp (they differ in the last bit on some inputs),
    # mapped over memoryviews, which yield Python floats without a list.
    # 2.0 * r * t multiplies (2.0 * r) by t, as the per-sample form does.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            X = np.fromiter(map(math.exp, memoryview(2.0 * r * t)), float, n)
            Y = np.fromiter(map(math.exp, memoryview(r * t)), float, n)
        except OverflowError as exc:
            raise NonFiniteValue(f"e^(2rt) overflows float64 ({exc})") from exc
        Y *= series.values      # e^{rt} p(t), in the buffer of e^{rt}
    w1, w2, rss = _lstsq2(X, np.ones(n), Y, "(w1, w2)", "fit_modes")
    return w1, w2, rss / n


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
    ``rss_modes`` is the mean squared residual of the mode regression in its
    transformed coordinates.  ``modes`` (and ``rss_modes``) are None outside
    the exponential regime, with ``modes_note`` explaining why the stage was
    skipped.
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

    Stage failures propagate as :class:`DegenerateSystem` labeled with the
    stage name; a stage whose normal equations have a non-finite solution
    (as overflowing right-hand-side sums give) raises
    :class:`NonFiniteValue`.  Outside the exponential regime the mode stage
    is skipped rather than failed: the report still carries the coefficient
    estimates and the regime, with a note in ``modes_note``.
    """
    a, b, rss_ab = fit_ab(series, fd_mode)
    params = DdeParams(a=a, b=b, p0=series.value_at_zero,
                       half_width=float(series.times[-1]))
    regime = classify(params)

    modes = rss_modes = note = None
    if regime.tag is RegimeTag.EXPONENTIAL:
        w1, w2, rss_modes = fit_modes(series, regime.r)
        A, B = modes_to_AB(w1, w2, a, b)
        modes = ModeCoefficients(A=A, B=B, w1=w1, w2=w2)
    else:
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
