"""Independent reference implementations used to check the package.

Everything in this module is deliberately written *differently* from the
library code: high-precision arithmetic via mpmath, dense linear algebra via
numpy.linalg, longhand loops over stdlib ``statistics``.  Tests compare the
package against these re-derivations rather than against itself.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
import warnings

import mpmath as mp
import numpy as np

from mirrordde.cli import EXIT_USAGE, _CliError, _read_bytes
from mirrordde.core import (
    GRID_RTOL,
    EtaArticleBased,
    EtaTimeExponential,
    FeatureMatrix,
    RankingEntry,
    RankingResult,
    RegimeTag,
    ThetaConstant,
    ThetaExponential,
    ThetaLinear,
)
from mirrordde.errors import (
    AsymmetricGrid,
    ConvergenceFailure,
    DegenerateSystem,
    DimensionMismatch,
    NegativeInfluenceWarning,
    NonFiniteState,
    NonFiniteValue,
    NonPositiveR,
    NonUniformGrid,
    OutOfRange,
    ResonantForcing,
    SingularSystem,
    TooShort,
    WrongRegime,
    ZeroVarianceColumn,
)
from mirrordde.numerics import (
    LASSO_MAX_SWEEPS,
    LASSO_TOL,
    FdMode,
    _pow2_scaled,
    _rk4_blocks,
    _sum_left_to_right,
    _sweep_kernel,
    lasso_fit,
    solve_2x2,
)
from mirrordde.ranking import STD_RTOL, EliminationTrace, TraceStep
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
    library does.  ``c1`` and ``c2`` may also be mpmath numbers: with b^2 < a^2
    r is imaginary, and conjugate complex amplitudes give a p whose real part
    is the oscillatory solution.
    """

    with mp.workdps(dps):
        a_, b_ = mp.mpf(a), mp.mpf(b)
        c1_, c2_ = mp.mpmathify(c1), mp.mpmathify(c2)
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

        # sums run left to right: from 3.12 the builtin float sum compensates
        sq_sum = abs_sum = 0.0
        for w in weights:
            sq_sum += w * w
            abs_sum += abs(w)
        singval = math.sqrt(sq_sum)
        row_norm = abs_sum / (n - 1)
        col_norms = []
        for row in standardized:
            s = 0.0
            for v in row:
                s += abs(v)
            col_norms.append(s / n)

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


def _stepwise_standardized(block, e, feature_names):
    """One step's z-scores as a fresh Fortran copy of the block, with the
    flatness rule decided on numpy arrays (``np.ldexp`` gives inf where the
    unscaled statistic overflows)."""
    block = np.asfortranarray(block)
    m = block.shape[0]
    mu = block.sum(axis=0) / m
    dev = block - mu
    sigma = np.sqrt((dev ** 2).sum(axis=0) / m)
    flat = (np.ldexp(sigma, e)
            <= STD_RTOL * np.maximum(1.0, np.ldexp(np.abs(mu), e)))
    if flat.any():
        name = feature_names[int(flat.argmax())]
        raise ZeroVarianceColumn(f"feature {name!r} has zero variance",
                                 column=name)
    if m == 2:
        return np.sign(dev)
    return dev / sigma


def _stepwise_lasso(X, y, lam):
    """The capped coordinate descent with G's diagonal read and zeroed on
    the numpy array and an integer m handed to the sweep kernel.  The
    kernel runs one sweep per call, chained from the previous iterate and
    counted here against the cap, and the fit holds numpy's overflow and
    invalid warnings off on its own, so the caller's ``np.errstate``
    reaches the standardization and the norms alone."""
    m, k = X.shape
    with np.errstate(over="ignore", invalid="ignore"):
        G = X.T @ X
        c = (X.T @ y).tolist()
    col_sq = G.diagonal().tolist()
    np.fill_diagonal(G, 0.0)
    G = G.tolist()
    scale = [sq / m if sq != 0.0 else math.inf for sq in col_sq]
    kernel = _sweep_kernel(k)
    w, converged, count = [0.0] * k, False, 0
    while not converged:
        count += 1
        if count > LASSO_MAX_SWEEPS:
            raise ConvergenceFailure(
                f"coordinate descent did not converge within "
                f"{LASSO_MAX_SWEEPS} sweeps")
        w, converged = kernel(w, c, G, scale, m, lam, LASSO_TOL, 1)
    return w


def stepwise_ranking(matrix, response, lam):
    """The elimination of ``rank_journals`` rebuilt afresh at every
    step: the surviving rows gathered with ``take`` and copied to Fortran
    order, numpy's flatness decision, and ``np.argmin`` over the gaps.  Its
    records, exceptions and messages are meant to be ``rank_journals``'
    bit for bit; it skips the argument checks, which the callers pass."""
    n = matrix.n_features
    m = matrix.n_journals
    resp = matrix.feature_index(response)
    preds = [j for j in range(n) if j != resp]
    data, e = _pow2_scaled(matrix.data, axis=0)
    names = matrix.journal_names
    remaining = list(range(m))
    steps = []
    row_norm = singval = survivor_col_norm = 0.0
    for step in range(1, m):
        try:
            std = _stepwise_standardized(data.take(remaining, axis=0), e,
                                         matrix.feature_names)
            coeffs = _stepwise_lasso(std[:, preds], std[:, resp], lam)
        except ZeroVarianceColumn as exc:
            raise ZeroVarianceColumn(f"step {step}: {exc}", column=exc.column,
                                     step=step) from exc
        except ConvergenceFailure as exc:
            raise ConvergenceFailure(f"step {step}: {exc}") from exc
        w = np.array(coeffs)
        singval = math.sqrt(float(w @ w))
        row_norm = _sum_left_to_right(np.abs(w)) / (n - 1)
        col_norms = np.abs(std, order="C").sum(axis=1) / n
        best = int(np.argmin(np.abs(col_norms - row_norm)))
        if step == m - 1:
            survivor_col_norm = float(col_norms[1 - best])
        steps.append(TraceStep(step_index=step,
                               journal_name=names[remaining[best]],
                               row_norm=row_norm,
                               chosen_col_norm=float(col_norms[best]),
                               singval=singval))
        del remaining[best]
    steps.append(TraceStep(step_index=m, journal_name=names[remaining[0]],
                           row_norm=row_norm,
                           chosen_col_norm=survivor_col_norm,
                           singval=singval))
    order = sorted(steps, key=lambda s: (s.singval, s.step_index))
    entries = tuple(RankingEntry(journal_name=s.journal_name,
                                 elimination_step=s.step_index,
                                 singval=s.singval, rank=rank)
                    for rank, s in enumerate(order, start=1))
    return RankingResult(entries=entries), EliminationTrace(steps=tuple(steps))


# ---------------------------------------------------------------------------
# Residual-update and dense covariance-update coordinate descent for the lasso
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


def dense_lasso_sweeps(X, y, lam):
    """Yield the coefficients after each sweep of dense covariance descent.

    Covariance-update coordinate descent over the full sum, as loops: every
    coordinate subtracts ``G_ji * w_i`` for all i, its own zeroed diagonal
    included, in ascending order, where the library's generated kernel
    writes out the terms for i != j.  The diagonal's term ``0.0 * w_j`` is
    a signed zero, which leaves every nonzero partial sum as it is, so the
    two must agree to the bit, sweep for sweep.
    """

    def soft_threshold(v, lam):
        if v > lam:
            return v - lam
        if v < -lam:
            return v + lam
        return 0.0

    m, k = X.shape
    G = X.T @ X
    col_sq = G.diagonal().tolist()
    G[np.diag_indices(k)] = 0.0
    G = G.tolist()
    c = (X.T @ y).tolist()
    active = [j for j in range(k) if col_sq[j] != 0.0]
    w = [0.0] * k
    while True:
        delta = 0.0
        for j in active:
            rho = c[j]
            for g, wi in zip(G[j], w):
                rho -= g * wi
            wj = soft_threshold(rho / m, lam) / (col_sq[j] / m)
            change = abs(wj - w[j])
            if change != 0.0:
                w[j] = wj
                if change > delta:
                    delta = change
        yield list(w)
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


def mp_two_mode_lstsq(series, r, dps=50):
    """(w1, w2) minimizing sum (p - w1 e^{rt} - w2 e^{-rt})**2 over the
    whole grid: the normal equations in ``dps``-digit arithmetic, from the
    float samples, times and rate taken as exact."""
    with mp.workdps(dps):
        r = mp.mpf(r)
        rows = [(mp.exp(r * mp.mpf(t)), mp.exp(-r * mp.mpf(t)), mp.mpf(p))
                for t, p in zip(series.times.tolist(), series.values.tolist())]
        gram = mp.matrix([[sum(u[i] * u[j] for u in rows) for j in (0, 1)]
                          for i in (0, 1)])
        rhs = mp.matrix([sum(u[i] * u[2] for u in rows) for i in (0, 1)])
        w = mp.lu_solve(gram, rhs)
        return float(w[0]), float(w[1])


# ---------------------------------------------------------------------------
# Series grid checks as per-index loops
# ---------------------------------------------------------------------------

def longhand_series_error(times, values):
    """The ``InfluenceSeries`` checks written as scalar loops.

    Returns ``(exception type, message)`` for the first check that fails, in
    the library's order, or ``None`` for a valid series.  The step is the
    span over the intervals, as the library derives it.
    """
    times = [float(t) for t in times]
    values = [float(v) for v in values]
    n = len(times)
    if n != len(values):
        return DimensionMismatch, f"times and values differ in length: {n} vs {len(values)}"
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
    step = (times[-1] - times[0]) / (n - 1)
    if not (math.isfinite(step) and step > 0.0):
        return NonUniformGrid, f"step must be finite and positive, got {step!r}"
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
    solve is the library's, so both sides reject the same systems.  Samples
    are divided by 2**e, 2**(e-1) <= max|p| < 2**e, and quotients by their
    own 2**ez (ez = 0 if one is inf); the residual sum of squares is
    multiplied back by 4**ez, and a and b by 2**(ez - e).
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
    e = _pow2_exponent(v)
    v = [math.ldexp(x, -e) for x in v]
    ez = 0 if math.inf in map(abs, derivs) else _pow2_exponent(derivs)
    derivs = [math.ldexp(z, -ez) for z in derivs]
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
    a, b = _ldexp(a, ez - e), _ldexp(b, ez - e)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NonFiniteValue(f"fit_ab's (a, b) = ({a!r}, {b!r}) leave float64")
    return a, b, _ldexp(rss, 2 * ez)


def _pow2_exponent(xs):
    """e with 2**(e-1) <= max|x| < 2**e (0 for all zeros), by halving."""
    peak, e = max(map(abs, xs)), 0
    while peak >= 1.0:
        peak, e = peak / 2.0, e + 1
    while 0.0 < peak < 0.5:
        peak, e = peak * 2.0, e - 1
    return e


def _ldexp(x, e):
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def loop_fit_modes(series, r):
    """``fit_modes`` with its sums and residuals as Python loops.

    Over the t >= 0 half: the even part p(t) + p(-t) (p(0) once) and the
    odd part p(t) - p(-t), against C = cosh(rt) and S = sinh(rt)/r, each
    divided by its power of two, as in :func:`loop_fit_ab`.  Then
    s = beta/alpha, a = (s - r)(s + r)/2s, and w1, w2 = alpha (r +- s)/2r,
    with r -+ s from (r + s)(r - s) = -2as where it cancels.
    """
    if not (math.isfinite(r) and r > 0.0):
        raise NonPositiveR(f"mode fit needs a positive rate, got {r!r}")
    n, m = len(series), len(series) // 2
    v, times = series.values.tolist(), series.times.tolist()
    e = _pow2_exponent(v)
    v = [math.ldexp(x, -e) for x in v]
    cs, ss = [], []
    try:
        if math.isinf(r * times[-1]):
            raise OverflowError("r*t overflows")
        for t in times[m:]:
            cs.append(math.cosh(r * t))
        for t in times[m:]:
            ss.append(math.sinh(r * t) / r)
        if math.isinf(ss[-1]):
            raise OverflowError("sinh(rt)/r overflows")
    except OverflowError as exc:
        raise NonFiniteValue(f"the mode fit's columns leave float64 "
                             f"({exc})") from exc
    ec, es = _pow2_exponent(cs), _pow2_exponent(ss)
    cs = [math.ldexp(c, -ec) for c in cs]
    ss = [math.ldexp(x, -es) for x in ss]
    sec = scc = sos = sss = 0.0
    for i, (c, s_) in enumerate(zip(cs, ss)):
        p, q = v[m + i], v[m - i]
        sec += (p if i == 0 else p + q) * c
        scc += c * c * (0.5 if i == 0 else 1.0)
        sos += (p - q) * s_
        sss += s_ * s_
    if sss == 0.0:
        raise DegenerateSystem(f"sinh(rt)/r is 0 on the whole grid at "
                               f"r = {r!r}", stage="fit_modes")
    alpha, beta = sec / (2.0 * scc), sos / (2.0 * sss)
    if alpha == 0.0 or beta == 0.0:
        part = "even" if alpha == 0.0 else "odd (a = -b)"
        raise DegenerateSystem(
            f"the {part} part of the series fits to zero, so a - b "
            f"cannot be identified", stage="fit_modes")
    s = _ldexp(beta / alpha, ec - es)
    if not math.isfinite(s):
        raise DegenerateSystem(
            "the even part of the series fits to almost zero (a + b "
            "overflows), so a - b cannot be identified", stage="fit_modes")
    rss_pos = rss_neg = 0.0
    for i, (c, s_) in enumerate(zip(cs, ss)):
        resid = v[m + i] - c * alpha - s_ * beta
        rss_pos += resid * resid
        if i:
            resid = v[m - i] - c * alpha + s_ * beta
            rss_neg += resid * resid
    rss = _ldexp((rss_pos + rss_neg) / n, 2 * e)
    alpha = _ldexp(alpha, e - ec)
    a = 0.5 * (s - r) * ((s + r) / s)
    big = r + abs(s)
    small = -2.0 * a * (s / big)
    plus, minus = (big, small) if s >= 0.0 else (small, big)
    w1, w2 = alpha * (plus / (2.0 * r)), alpha * (minus / (2.0 * r))
    if not (math.isfinite(w1) and math.isfinite(w2)):
        raise NonFiniteValue(f"mode amplitudes ({w1!r}, {w2!r}) leave the "
                             f"float64 range")
    return w1, w2, rss


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
    negative-origin warning, then one sum per t; ``eta=None`` adds 0.0,
    and a zero amplitude's term is that zero, whatever its exponential.
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
        values = [(c1 * math.exp(r * t) if c1 else c1)
                  + (c2 * math.exp(-r * t) if c2 else c2)
                  + (loop_particular(theta, params, t)
                     + loop_particular(eta, params, t)) for t in times]
    except OverflowError as exc:
        raise NonFiniteValue(f"p(t) overflows float64 ({exc})") from exc
    for t, p in zip(times, values):
        if not math.isfinite(p):
            raise NonFiniteValue(f"p({t!r}) = {p!r} overflows float64")
    return values


# ---------------------------------------------------------------------------
# Runge-Kutta on a derivative callable
# ---------------------------------------------------------------------------

def closure_rk4(f, y0, t_end, step):
    """Classical fourth-order Runge-Kutta from t=0 to t_end inclusive.

    ``f`` maps a two-component state to its derivative and must not depend
    on time; each stage is one call of ``f`` on a fresh tuple.  Returns the
    list of (t, state) pairs including both endpoints.  If t_end is not a
    whole number of steps, the final step is shortened to land on it
    exactly; a t_end shorter than one step is one short step.  A non-finite
    step count raises :class:`OutOfRange` and a non-finite state
    :class:`NonFiniteState`.
    """
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ValueError(f"t_end must be positive, got {t_end!r}")
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be positive, got {step!r}")
    u, v = float(y0[0]), float(y0[1])
    if not (math.isfinite(u) and math.isfinite(v)):
        raise NonFiniteState(f"initial state {y0!r} is not finite")

    n_steps = t_end / step + 1e-9
    if not math.isfinite(n_steps):
        raise OutOfRange(f"step count {t_end!r}/{step!r} exceeds the float64 range")
    n_whole = int(math.floor(n_steps))
    remainder = t_end - n_whole * step

    out = [(0.0, (u, v))]
    t = 0.0
    for i in range(n_whole):
        u, v = _closure_rk4_step(f, (u, v), step)
        t = (i + 1) * step
        if not (math.isfinite(u) and math.isfinite(v)):
            raise NonFiniteState(f"state became non-finite at t={t!r}")
        out.append((t, (u, v)))
    if n_whole == 0 or remainder > 1e-9 * step:
        u, v = _closure_rk4_step(f, (u, v), remainder)
        if not (math.isfinite(u) and math.isfinite(v)):
            raise NonFiniteState(f"state became non-finite at t={t_end!r}")
        out.append((t_end, (u, v)))
    else:
        # snap the recorded endpoint to t_end to hide accumulated rounding
        out[-1] = (t_end, out[-1][1])
    return out


def _closure_rk4_step(f, y, h):
    try:
        k1 = f(y)
        k2 = f((y[0] + 0.5 * h * k1[0], y[1] + 0.5 * h * k1[1]))
        k3 = f((y[0] + 0.5 * h * k2[0], y[1] + 0.5 * h * k2[1]))
        k4 = f((y[0] + h * k3[0], y[1] + h * k3[1]))
        return (
            y[0] + (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
            y[1] + (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
        )
    except OverflowError as exc:
        raise NonFiniteState("derivative evaluation overflowed") from exc


# ---------------------------------------------------------------------------
# RK4 in exact arithmetic
# ---------------------------------------------------------------------------

def exact_rk4(m, y0, t_end, step, dps=40):
    """RK4 on ``y' = M y`` without rounding, ``m = ((m11, m12), (m21, m22))``.

    For a constant ``M`` one RK4 step of length h is exactly
    ``y <- R(hM) y`` with ``R(Z) = I + Z + Z**2/2 + Z**3/6 + Z**4/24``, the
    method's stability function; each step applies that matrix, formed
    from the float h and ``m`` by mpmath at ``dps`` digits.  The steps are
    :func:`closure_rk4`'s: whole steps of ``step``, then one step of the
    float remainder ``t_end - n * step`` if they fall short of t_end or
    none fits.  Returns (t, (u, v)) pairs with t as :func:`closure_rk4`
    records it and the state as unrounded mpf values, which may lie beyond
    the float64 range.
    """
    n_whole = int(math.floor(t_end / step + 1e-9))
    remainder = t_end - n_whole * step
    with mp.workdps(dps):
        def propagator(h):
            z = mp.mpf(h) * mp.matrix(m)
            r = mp.eye(2) + z + z**2 / 2 + z**3 / 6 + z**4 / 24
            return r[0, 0], r[0, 1], r[1, 0], r[1, 1]

        r11, r12, r21, r22 = propagator(step)
        u, v = mp.mpf(y0[0]), mp.mpf(y0[1])
        out = [(0.0, (u, v))]
        for i in range(n_whole):
            u, v = r11 * u + r12 * v, r21 * u + r22 * v
            out.append(((i + 1) * step, (u, v)))
        if n_whole == 0 or remainder > 1e-9 * step:
            r11, r12, r21, r22 = propagator(remainder)
            u, v = r11 * u + r12 * v, r21 * u + r22 * v
            out.append((t_end, (u, v)))
        else:
            out[-1] = (t_end, out[-1][1])
    return out


# ---------------------------------------------------------------------------
# The package's RK4 kernel as one list
# ---------------------------------------------------------------------------

def rk4_trajectory(m, y0, t_end, step):
    """The blocks of ``numerics._rk4_blocks`` joined into the (t, (u, v))
    list that :func:`closure_rk4` returns.  It is a collector, not a
    reference: the kernel's argument checks raise here, at its first
    block."""
    return [(t, (u, v)) for times, us, vs in _rk4_blocks(m, y0, t_end, step)
            for t, u, v in zip(times, us, vs)]


# ---------------------------------------------------------------------------
# Sample-by-sample layout of the integration oracle
# ---------------------------------------------------------------------------

def sample_layout_oracle(trajectory):
    """``(t, p)`` samples of a mirror-system trajectory, one at a time.

    ``trajectory`` is the (t, (u, v)) list of u' = b u + a v,
    v' = -(b v + a u) from u = v = p0, where u(t) is p(t) and v(t) is
    p(-t); the samples are its t > 0 entries in reverse as ``(-t, v)``, then
    every entry as ``(t, u)``.
    """
    samples = [(-t, v) for t, (u, v) in reversed(trajectory) if t > 0.0]
    samples.extend((t, u) for t, (u, v) in trajectory)
    return samples


def max_relative_deviation(closed, oracle):
    """``verify``'s deviation as one expression: the largest
    ``|c - p| / max(1, |c|)`` over paired samples."""
    return max(abs(c - p) / max(1.0, abs(c)) for c, p in zip(closed, oracle))


# ---------------------------------------------------------------------------
# List-based CSV readers
# ---------------------------------------------------------------------------

def list_csv_rows(path, data):
    """Every non-empty CSV row of ``data`` and the number of each row's last
    line, read into two lists before any row is checked; none is ERROR 2."""
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")
    reader = csv.reader(text)
    rows, line_numbers = [], []
    try:
        for row in reader:
            if row:
                rows.append(row)
                line_numbers.append(reader.line_num)
    except csv.Error as exc:
        raise _CliError(EXIT_USAGE, f"{path!r}: {exc}") from exc
    if not rows:
        raise _CliError(EXIT_USAGE, f"{path!r} is empty")
    return rows, line_numbers


def list_read_series_csv(path):
    """``fit``'s csv reader over the lists of :func:`list_csv_rows`: the
    header, then each row in turn, the first fault raised."""
    rows, line_numbers = list_csv_rows(path, _read_bytes(path))
    header = [cell.strip() for cell in rows[0][:2]]
    if header != ["t", "p"]:
        raise _CliError(
            EXIT_USAGE,
            f"{path!r} must start with header 't,p', got {rows[0]!r}",
        )
    times, values = [], []
    for lineno, row in zip(line_numbers[1:], rows[1:]):
        if len(row) < 2:
            raise _CliError(
                EXIT_USAGE, f"{path!r} line {lineno}: expected 't,p' values"
            )
        try:
            times.append(float(row[0]))
            values.append(float(row[1]))
        except ValueError:
            raise _CliError(
                EXIT_USAGE,
                f"{path!r} line {lineno}: not numeric: {row[:2]!r}",
            ) from None
    return times, values


def list_read_journals_csv(path):
    """``rank``'s reader over the lists of :func:`list_csv_rows`."""
    rows, line_numbers = list_csv_rows(path, _read_bytes(path))
    header = rows[0]
    if header[0].strip() != "journal" or len(header) < 3:
        raise _CliError(
            EXIT_USAGE,
            f"{path!r} must start with header 'journal,<feature1>,"
            f"<feature2>,...', got {header!r}",
        )
    journal_names, data = [], []
    for lineno, row in zip(line_numbers[1:], rows[1:]):
        if len(row) != len(header):
            raise _CliError(
                EXIT_USAGE,
                f"{path!r} line {lineno}: expected {len(header)} cells, "
                f"got {len(row)}",
            )
        journal_names.append(row[0].strip())
        try:
            data.append([float(cell) for cell in row[1:]])
        except ValueError:
            raise _CliError(
                EXIT_USAGE, f"{path!r} line {lineno}: non-numeric feature value"
            ) from None
    return FeatureMatrix(journal_names=tuple(journal_names),
                         feature_names=tuple(cell.strip() for cell in header[1:]),
                         data=data)
