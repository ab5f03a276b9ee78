"""Independent reference implementations used to check the package.

Everything in this module is deliberately written *differently* from the
library code: high-precision arithmetic via mpmath, dense linear algebra via
numpy.linalg, longhand loops over stdlib ``statistics``.  Tests compare the
package against these re-derivations rather than against itself.
"""

from __future__ import annotations

import math
import statistics
import warnings

import mpmath as mp
import numpy as np

from mirrordde.core import (
    GRID_RTOL,
    EtaArticleBased,
    EtaTimeExponential,
    RegimeTag,
    ThetaConstant,
    ThetaExponential,
    ThetaLinear,
)
from mirrordde.errors import (
    AsymmetricGrid,
    DegenerateSystem,
    NegativeInfluenceWarning,
    NonFiniteValue,
    NonUniformGrid,
    ResonantForcing,
    SingularSystem,
    TooShort,
    WrongRegime,
)
from mirrordde.numerics import (
    LASSO_TOL,
    FdMode,
    lasso_fit,
    rk4_integrate,
    solve_2x2,
)
from mirrordde.solver import RESONANCE_RTOL, classify


# ---------------------------------------------------------------------------
# High-precision forced-solution evaluator
# ---------------------------------------------------------------------------

def mp_forced_solution(a, b, c1, c2, theta=None, eta=None, dps=60):
    """Build ``p(t)`` for the forced second-order model in mpmath arithmetic.

    ``theta`` is ``None``, ``("const", v)``, ``("lin", slope, intercept)`` or
    ``("exp", rate)``; ``eta`` is ``None``, ``("pulse", k, k1)`` or
    ``("article", value)``.  The homogeneous part is ``c1*e^{rt} + c2*e^{-rt}``
    with ``r = sqrt(b^2 - a^2)``; particular terms follow the
    undetermined-coefficients solutions of ``p'' - (b^2-a^2) p = f(t)``.

    Returns a callable mapping ``t`` to an ``mp.mpf``.  The parameters are
    converted from float64 exactly, so the evaluator sees the same numbers the
    library does.
    """

    with mp.workdps(dps):
        a_, b_ = mp.mpf(a), mp.mpf(b)
        c1_, c2_ = mp.mpf(c1), mp.mpf(c2)
        disc = b_ * b_ - a_ * a_
        r = mp.sqrt(disc)

    def p(t):
        with mp.workdps(dps):
            t_ = mp.mpf(t)
            out = c1_ * mp.e ** (r * t_) + c2_ * mp.e ** (-r * t_)
            if theta is not None:
                kind = theta[0]
                if kind == "const":
                    out += mp.mpf(theta[1]) / (a_ - b_)
                elif kind == "lin":
                    slope, intercept = mp.mpf(theta[1]), mp.mpf(theta[2])
                    out += (slope * t_ + intercept) / (a_ - b_)
                elif kind == "exp":
                    rate = mp.mpf(theta[1])
                    out += (a_ + b_) * mp.e ** (rate * t_) / (rate * rate - disc)
                else:  # pragma: no cover - guard against typos in tests
                    raise ValueError(kind)
            if eta is not None:
                if eta[0] == "pulse":
                    k, k1 = mp.mpf(eta[1]), mp.mpf(eta[2])
                    out += k * mp.e ** (k1 * t_) / (k1 * k1 - disc)
                elif eta[0] == "article":
                    out += mp.mpf(eta[1]) / (a_ - b_)
                else:  # pragma: no cover
                    raise ValueError(eta[0])
            return out

    return p


def mp_forcing(a, b, theta=None, eta=None, dps=60):
    """Right-hand side ``(a+b)*theta(t) + eta(t)`` of the forced model."""

    def f(t):
        with mp.workdps(dps):
            a_, b_, t_ = mp.mpf(a), mp.mpf(b), mp.mpf(t)
            out = mp.mpf(0)
            if theta is not None:
                kind = theta[0]
                if kind == "const":
                    out += (a_ + b_) * mp.mpf(theta[1])
                elif kind == "lin":
                    out += (a_ + b_) * (mp.mpf(theta[1]) * t_ + mp.mpf(theta[2]))
                elif kind == "exp":
                    out += (a_ + b_) * mp.e ** (mp.mpf(theta[1]) * t_)
            if eta is not None:
                if eta[0] == "pulse":
                    out += mp.mpf(eta[1]) * mp.e ** (mp.mpf(eta[2]) * t_)
                elif eta[0] == "article":
                    # a constant eta forces the second-order form the same way
                    # a constant theta does, through the (a+b) factor
                    out += (a_ + b_) * mp.mpf(eta[1])
            return out

    return f


def mp_substitution_residual(p, f, a, b, t, h=1e-4, dps=60):
    """``(p(t+h) - 2 p(t) + p(t-h)) / h^2 - (b^2 - a^2) p(t) - f(t)`` in mpmath.

    With exact arithmetic this measures only the O(h^2) truncation of the
    central second difference, which is how the tests bound it.
    """

    with mp.workdps(dps):
        a_, b_, t_, h_ = mp.mpf(a), mp.mpf(b), mp.mpf(t), mp.mpf(h)
        second = (p(t_ + h_) - 2 * p(t_) + p(t_ - h_)) / (h_ * h_)
        return float(second - (b_ * b_ - a_ * a_) * p(t_) - f(t_))


# ---------------------------------------------------------------------------
# Singular values via the characteristic polynomial of A^T A
# ---------------------------------------------------------------------------

def charpoly_singular_values(array) -> list:
    """Singular values of a matrix with at most two columns, longhand.

    Forms the (at most 2x2) Gram matrix and solves its characteristic
    polynomial with the quadratic formula — no SVD routine involved.
    """

    arr = np.asarray(array, dtype=float)
    if arr.shape[1] > arr.shape[0]:
        arr = arr.T
    if arr.shape[1] == 1:
        return [math.sqrt(float(arr[:, 0] @ arr[:, 0]))]
    if arr.shape[1] != 2:
        raise ValueError("charpoly oracle handles at most two columns")
    g11 = float(arr[:, 0] @ arr[:, 0])
    g22 = float(arr[:, 1] @ arr[:, 1])
    g12 = float(arr[:, 0] @ arr[:, 1])
    tr, det = g11 + g22, g11 * g22 - g12 * g12
    half_gap = math.sqrt(max((tr / 2.0) ** 2 - det, 0.0))
    lo, hi = tr / 2.0 - half_gap, tr / 2.0 + half_gap
    return [math.sqrt(max(hi, 0.0)), math.sqrt(max(lo, 0.0))]


# ---------------------------------------------------------------------------
# Elimination-loop re-implementation for the journal ranking
# ---------------------------------------------------------------------------

def brute_force_ranking(journal_names, feature_names, rows, response, lam):
    """Longhand re-run of the backward-elimination ranking.

    Standardization, the two L1 norms, the gap argmin with its tie rule, the
    survivor convention, and the final rank assignment are all spelled out
    here from scratch with stdlib ``statistics`` and plain loops.  Only the
    penalized regression itself is delegated to :func:`lasso_fit`: once fewer
    journals than features remain, the standardized design is rank-deficient
    and *any* independent solver would converge to a different least-squares
    representative, so there is no solver-agnostic value to compare against.

    Returns ``(entries, trace)`` where ``entries`` is a list of
    ``(rank, journal, singval, elimination_step)`` tuples sorted by rank and
    ``trace`` is a list of ``(step, journal, row_norm, chosen_col_norm,
    singval)`` tuples.
    """

    n = len(feature_names)
    resp = feature_names.index(response)
    data = [list(map(float, row)) for row in rows]
    remaining = list(range(len(journal_names)))

    eliminated = {}        # original index -> (step, singval)
    trace = []
    last_singval = 0.0
    last_row_norm = 0.0
    survivor_col_norm = 0.0
    step = 0
    while len(remaining) > 1:
        step += 1
        sub = [data[i] for i in remaining]
        m_cur = len(sub)

        standardized = [[0.0] * n for _ in range(m_cur)]
        for j in range(n):
            column = [sub[i][j] for i in range(m_cur)]
            mu = statistics.fmean(column)
            sd = statistics.pstdev(column)
            for i in range(m_cur):
                standardized[i][j] = (column[i] - mu) / sd

        design = [[row[j] for j in range(n) if j != resp] for row in standardized]
        target = [row[resp] for row in standardized]
        weights = lasso_fit(design, target, lam)

        singval = math.sqrt(sum(w * w for w in weights))
        row_norm = sum(abs(w) for w in weights) / (n - 1)
        col_norms = [sum(abs(v) for v in row) / n for row in standardized]

        best = 0
        best_gap = abs(col_norms[0] - row_norm)
        for i in range(1, m_cur):
            gap = abs(col_norms[i] - row_norm)
            if gap < best_gap:
                best, best_gap = i, gap
        if m_cur == 2:
            survivor_col_norm = col_norms[1 - best]

        victim = remaining[best]
        eliminated[victim] = (step, singval)
        trace.append((step, journal_names[victim], row_norm, col_norms[best], singval))
        last_singval, last_row_norm = singval, row_norm
        remaining.pop(best)

    step += 1
    eliminated[remaining[0]] = (step, last_singval)
    trace.append((step, journal_names[remaining[0]], last_row_norm,
                  survivor_col_norm, last_singval))

    order = sorted(eliminated, key=lambda idx: (eliminated[idx][1], eliminated[idx][0]))
    entries = [
        (rank, journal_names[idx], eliminated[idx][1], eliminated[idx][0])
        for rank, idx in enumerate(order, start=1)
    ]
    return entries, trace


# ---------------------------------------------------------------------------
# Residual-update coordinate descent for the lasso
# ---------------------------------------------------------------------------

def residual_lasso_sweeps(X, y, lam):
    """Yield the coefficients after each sweep of residual-update descent.

    The textbook form of cyclic coordinate descent for
    ``||y - X w||**2 / (2 m) + lam * ||w||_1``: it keeps the m-vector
    residual ``y - X w`` and takes each coordinate's correlation as a fresh
    dot product with it, where the library forms the Gram matrix once and
    takes each correlation from it.  Same zero start, cyclic order,
    soft-threshold update, zero-norm column skip and stopping rule
    (largest change in a sweep at or below ``LASSO_TOL``), so both take the
    same iterates up to rounding.  There is no sweep cap.
    """

    X = np.asarray(X, dtype=float)
    m, k = X.shape
    w = np.zeros(k)
    resid = np.asarray(y, dtype=float).copy()
    col_sq = np.einsum("ij,ij->j", X, X)
    while True:
        delta = 0.0
        for j in range(k):
            if col_sq[j] == 0.0:
                continue
            rho = float(X[:, j] @ resid) + w[j] * col_sq[j]
            v = rho / m
            wj = math.copysign(max(abs(v) - lam, 0.0), v) / (col_sq[j] / m)
            if wj != w[j]:
                resid += X[:, j] * (w[j] - wj)
                delta = max(delta, abs(wj - w[j]))
                w[j] = wj
        yield w.copy()
        if delta <= LASSO_TOL:
            return


# ---------------------------------------------------------------------------
# Small dense least-squares helper
# ---------------------------------------------------------------------------

def lstsq_coefficients(design, target):
    """Unpenalized least-squares fit via numpy's dense solver."""

    sol, *_ = np.linalg.lstsq(np.asarray(design, float), np.asarray(target, float),
                              rcond=None)
    return [float(v) for v in sol]


# ---------------------------------------------------------------------------
# Series grid checks as per-index loops
# ---------------------------------------------------------------------------

def longhand_series_error(times, values, step):
    """The ``InfluenceSeries`` checks written as scalar loops.

    Returns ``(exception type, message)`` for the first check that fails, in
    the library's order, or ``None`` for a valid series.  ``step=None``
    infers the step from the span, as ``validate_series`` does.
    """
    times = [float(t) for t in times]
    values = [float(v) for v in values]
    n = len(times)
    if n != len(values):
        return ValueError, f"times and values differ in length: {n} vs {len(values)}"
    if n < 3:
        return TooShort, f"need at least 3 samples, got {n}"
    for name, seq in (("times", times), ("values", values)):
        for x in seq:
            if not math.isfinite(x):
                return NonFiniteValue, f"{name} must be finite, got {x!r}"
    for i in range(n - 1):
        if not times[i] < times[i + 1]:
            return NonUniformGrid, (
                f"times must be strictly increasing; "
                f"times[{i}]={times[i]!r} >= times[{i + 1}]={times[i + 1]!r}")
    for i in range(n):
        j = n - 1 - i
        tol = GRID_RTOL * max(1.0, abs(times[i]), abs(times[j]))
        if abs(times[i] + times[j]) > tol:
            return AsymmetricGrid, (f"times[{i}]={times[i]!r} has no mirror "
                                    f"partner; expected -times[{j}]={-times[j]!r}")
    if n % 2 == 0:
        return AsymmetricGrid, f"grid of even length {n} has no sample at t=0"
    step = (times[-1] - times[0]) / (n - 1) if step is None else float(step)
    if not (math.isfinite(step) and step > 0.0):
        return NonUniformGrid, f"step must be positive, got {step!r}"
    for i in range(n - 1):
        d = times[i + 1] - times[i]
        if abs(d - step) > GRID_RTOL * step:
            return NonUniformGrid, (f"spacing between times[{i}] and "
                                    f"times[{i + 1}] is {d!r}, expected {step!r}")
    return None


# ---------------------------------------------------------------------------
# Least-squares fit stages as per-sample loops
# ---------------------------------------------------------------------------

def _solve_normal(m11, m12, m22, r1, r2, unknowns, stage):
    try:
        return solve_2x2(m11, m12, m12, m22, r1, r2)
    except SingularSystem as exc:
        raise DegenerateSystem(
            f"normal equations for {unknowns} are singular: {exc}", stage=stage
        ) from exc


def loop_fit_ab(series, fd_mode=FdMode.CENTRAL):
    """``fit_ab`` with every sum a Python ``+=`` loop over Python floats.

    The reference for the bitwise check of the array reductions: the
    difference quotients, the five sums and the residual sum of squares are
    accumulated sample by sample, left to right, starting from 0.0.  The 2x2
    solve is the library's, so both sides reject the same systems.
    """
    v, h, n = series.values.tolist(), series.step, len(series)
    if fd_mode is FdMode.CENTRAL:
        indices = range(1, n - 1)
        derivs = [(v[i + 1] - v[i - 1]) / (2.0 * h) for i in indices]
    else:
        indices = range(0, n - 1)
        derivs = [(v[i + 1] - v[i]) / h for i in indices]
    if len(derivs) < 3:
        raise TooShort(
            f"need at least 3 usable derivative estimates, got {len(derivs)}"
        )
    sxx = sxy = syy = szx = szy = 0.0
    for z, i in zip(derivs, indices):
        x, y = v[n - 1 - i], v[i]
        sxx += x * x
        sxy += x * y
        syy += y * y
        szx += z * x
        szy += z * y
    a, b = _solve_normal(sxx, sxy, syy, szx, szy, "(a, b)", "fit_ab")
    rss = 0.0
    for z, i in zip(derivs, indices):
        resid = z - a * v[n - 1 - i] - b * v[i]
        rss += resid * resid
    return a, b, rss


def loop_fit_modes(series, r):
    """``fit_modes`` with its four sums and the residuals as Python loops.

    An ``OverflowError`` of ``math.exp`` is reported as the library's
    :class:`NonFiniteValue`; e^(2rt) overflows before e^(rt) can.
    """
    n = len(series)
    times, values = series.times.tolist(), series.values.tolist()
    sx = sxx = sy = sxy = 0.0
    try:
        for t, p in zip(times, values):
            X = math.exp(2.0 * r * t)
            Y = math.exp(r * t) * p
            sx += X
            sxx += X * X
            sy += Y
            sxy += X * Y
    except OverflowError as exc:
        raise NonFiniteValue(f"e^(2rt) overflows float64 ({exc})") from exc
    w1, w2 = _solve_normal(sxx, sx, float(n), sxy, sy, "(w1, w2)", "fit_modes")
    rss = 0.0
    for t, p in zip(times, values):
        resid = math.exp(r * t) * p - w1 * math.exp(2.0 * r * t) - w2
        rss += resid * resid
    return w1, w2, rss / n


# ---------------------------------------------------------------------------
# Forced trajectories with every control term evaluated point by point
# ---------------------------------------------------------------------------

def loop_particular(term, params, t):
    """P(t) of one control term (``None`` for no eta), written out at one t.

    Every expression is re-evaluated per call, constants included, in the
    association the library keeps.
    """
    a, b = params.a, params.b
    if term is None:
        return 0.0
    if isinstance(term, ThetaConstant):
        return term.value / (a - b)
    if isinstance(term, ThetaLinear):
        return (term.slope * t + term.intercept) / (a - b)
    if isinstance(term, ThetaExponential):
        A = term.rate
        return (a + b) * math.exp(A * t) / (A * A - (b * b - a * a))
    if isinstance(term, EtaArticleBased):
        return (math.exp(-term.art) + term.alpha * (a - b)) / (a - b)
    k, k1 = term.k, term.k1
    return k * math.exp(k1 * t) / (k1 * k1 - (b * b - a * a))


def loop_slope_terms(term, params):
    """P'(0) of one control term and its value as it enters p'(0)."""
    a, b = params.a, params.b
    if term is None:
        return 0.0, 0.0
    if isinstance(term, ThetaConstant):
        return 0.0, term.value
    if isinstance(term, ThetaLinear):
        return term.slope / (a - b), term.intercept
    if isinstance(term, ThetaExponential):
        A = term.rate
        return A * (a + b) * math.exp(A * 0.0) / (A * A - (b * b - a * a)), 1.0
    if isinstance(term, EtaArticleBased):
        return 0.0, math.exp(-term.art) + term.alpha * (a - b)
    k, k1 = term.k, term.k1
    return k1 * k * math.exp(k1 * 0.0) / (k1 * k1 - (b * b - a * a)), k / (a + b)


def _loop_checks(params, config, what):
    """The exponential-regime requirement, then the resonance guard."""
    regime = classify(params)
    if regime.tag is not RegimeTag.EXPONENTIAL:
        raise WrongRegime(
            f"{what} requires the exponential regime (b**2 > a**2); "
            f"a={params.a!r}, b={params.b!r} is {regime.tag.value}")
    disc = params.discriminant
    for name, term in (("theta", config.theta), ("eta", config.eta)):
        if isinstance(term, ThetaExponential):
            rate = term.rate
        elif isinstance(term, EtaTimeExponential):
            rate = term.k1
        else:
            continue
        square = rate * rate
        # an overflowing square is not resonant
        if math.isfinite(square) and abs(square - disc) <= \
                RESONANCE_RTOL * max(1.0, square, abs(disc)):
            raise ResonantForcing(f"{name} rate {rate!r} squared coincides "
                                  f"with b**2 - a**2 = {disc!r}")
    return regime.r


def _loop_modes(params, config):
    r = _loop_checks(params, config, "initial_conditions_to_modes")
    theta, eta = config.theta, config.eta
    part0 = loop_particular(theta, params, 0.0) + loop_particular(eta, params, 0.0)
    theta_d, theta_0 = loop_slope_terms(theta, params)
    eta_d, eta_0 = loop_slope_terms(eta, params)
    slope0 = (params.a + params.b) * params.p0 + theta_0 + eta_0
    return solve_2x2(1.0, 1.0, r, -r,
                     params.p0 - part0, slope0 - (theta_d + eta_d))


def loop_initial_conditions_to_modes(params, config):
    """``initial_conditions_to_modes`` from the per-point term formulas."""
    modes = _loop_modes(params, config)
    if not all(map(math.isfinite, modes)):
        raise NonFiniteValue(f"(c1, c2) = {modes!r} overflows float64")
    return modes


def loop_forced_evaluate(params, times, config, modes=None):
    """``evaluate(params, times, config, modes)`` for finite ``times`` and
    ``modes``, with both terms called once per point.

    Follows the steps of the per-point evaluator: the matching modes when
    ``modes`` is None, the regime and resonance checks again, P(0) for the
    negative-origin warning, then one sum per t; ``eta=None`` adds 0.0.
    """
    theta, eta = config.theta, config.eta
    try:
        c1, c2 = _loop_modes(params, config) if modes is None else modes
        r = _loop_checks(params, config, "control_solution")
        p_zero = c1 + c2 + (loop_particular(theta, params, 0.0)
                            + loop_particular(eta, params, 0.0))
        if p_zero < 0.0:
            warnings.warn(f"influence at t=0 is negative ({p_zero!r})",
                          NegativeInfluenceWarning)
        values = [c1 * math.exp(r * t) + c2 * math.exp(-r * t)
                  + (loop_particular(theta, params, t)
                     + loop_particular(eta, params, t)) for t in times]
    except OverflowError as exc:
        raise NonFiniteValue(f"p(t) overflows float64 ({exc})") from exc
    for t, p in zip(times, values):
        if not math.isfinite(p):
            raise NonFiniteValue(f"p({t!r}) = {p!r} overflows float64")
    return values


# ---------------------------------------------------------------------------
# Sample-by-sample layout of the integration oracle
# ---------------------------------------------------------------------------

def sample_layout_oracle(a, b, p0, t_max, step):
    """``(t, p)`` samples of the mirror-system integration, one at a time.

    Integrates u' = b u + a v, v' = -(b v + a u) from u = v = p0 with
    ``rk4_integrate`` and lays its own output out sample by sample: the
    t > 0 entries in reverse as ``(-t, v)``, then every entry as ``(t, u)``.
    """
    def rhs(y):
        u, v = y
        return (b * u + a * v, -(b * v + a * u))

    trajectory = rk4_integrate(rhs, (p0, p0), t_max, step)
    samples = [(-t, v) for t, (u, v) in reversed(trajectory) if t > 0.0]
    samples.extend((t, u) for t, (u, v) in trajectory)
    return samples
