"""Numerical kernels: singular values, 2x2 solves, l1 regression, RK4,
finite differences.

The problems this package actually solves are small — matrices with a
handful of columns, trajectories with a few thousand steps — so most
kernels are written directly for that size class: Cramer's rule for 2x2
systems, cyclic coordinate descent with covariance updates for the l1 fit
(one Gram product per call, then O(q) work per coordinate step for q
nonzero coefficients), and classical RK4 on local floats for the one system
integrated, ``y' = M y`` with a constant 2x2 ``M``, yielded in blocks of
steps so that a caller can fold the trajectory without holding all of it
(``verify`` holds one block).  Singular values, which
no command needs, come from numpy's LAPACK SVD on a power-of-two-scaled
copy.  The 2x2 solve and RK4 run on ``math`` alone; numpy is imported by
the array kernels (singular values, the l1 fit, finite differences) when
first called, so a process that never uses them never loads it.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, Iterator

from .core import InfluenceSeries
from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NonFiniteState,
    NonFiniteValue,
    OutOfRange,
    SingularSystem,
    TooShort,
)

if TYPE_CHECKING:
    import numpy as np
    from numpy.typing import NDArray

#: Relative determinant threshold for the 2x2 solver.
SOLVE2_RTOL = 1e-12

#: Coordinate-descent stopping threshold on the largest coefficient change.
LASSO_TOL = 1e-8

#: Hard cap on coordinate-descent sweeps.
LASSO_MAX_SWEEPS = 10_000

#: Hard cap on RK4 steps per call.  It bounds the run time of every
#: integration and the size of the whole-trajectory lists of
#: :func:`rk4_integrate` (about 265 bytes a step, so near 0.3 GB).
RK4_MAX_STEPS = 2**20

#: :func:`_rk4_blocks` yields the trajectory this many steps at a time, so a
#: caller that folds each block in turn holds only one.
RK4_BLOCK_STEPS = 256


def _as_matrix_array(m) -> NDArray[np.float64]:
    import numpy as np

    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionMismatch(f"matrix must be non-empty, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteValue("matrix contains non-finite entries")
    return arr


def _pow2_scaled(a: NDArray[np.float64], axis: int | None = None
                 ) -> tuple[NDArray[np.float64], NDArray[np.intc]]:
    """``a`` scaled by ``2**-e``, the power of two that brings its largest
    |entry| (per column with ``axis=0``; ``e = 0`` for zeros) into [0.5, 1),
    and ``e``.  No square or sum of the result overflows, and the scaling is
    exact for entries at least 2**-1021 times the largest."""
    import numpy as np

    e = np.frexp(np.abs(a).max(axis=axis))[1]
    return np.ldexp(a, -e), e


def _sum_left_to_right(terms: NDArray[np.float64]) -> float:
    """``s = 0.0; s += x`` over non-empty ``terms``, bit for bit (``np.sum``
    adds pairwise, and from Python 3.12 the builtin ``sum`` compensates)."""
    import numpy as np

    return 0.0 + float(np.add.accumulate(terms)[-1])


def svd_values(matrix) -> list[float]:
    """Singular values of a matrix, descending, by LAPACK (``numpy.linalg``).

    The SVD runs on the matrix (anything array-like) scaled by
    :func:`_pow2_scaled`, and the values are scaled back exactly, so scaling
    the input by a power of two scales the result by the same power bit for
    bit (LAPACK's own rescaling is not by powers of two).  A singular value
    beyond the float64 range raises :class:`NonFiniteValue`, and an SVD
    that does not converge raises :class:`ConvergenceFailure`.
    """
    import numpy as np

    a, e = _pow2_scaled(_as_matrix_array(m=matrix))
    try:
        s = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"LAPACK: {exc}") from exc
    try:
        return [math.ldexp(float(v), int(e)) for v in s]
    except OverflowError as exc:
        raise NonFiniteValue("a singular value overflows float64") from exc


def solve_2x2(m11: float, m12: float, m21: float, m22: float,
              r1: float, r2: float) -> tuple[float, float]:
    """Solve the 2x2 system ``[[m11, m12], [m21, m22]] @ (x, y) = (r1, r2)``.

    Uses Cramer's rule; raises :class:`SingularSystem` when the determinant
    is not finite or is below :data:`SOLVE2_RTOL` relative to the product of
    the row norms (which also catches the all-zero matrix).
    """
    det = m11 * m22 - m12 * m21
    h2 = math.hypot(m21, m22)
    tol = SOLVE2_RTOL * (math.hypot(m11, m12) * h2)
    if not tol < math.inf:
        # the product of the row norms overflowed: scale before multiplying
        tol = math.hypot(SOLVE2_RTOL * m11, SOLVE2_RTOL * m12) * h2
    if not math.isfinite(det) or abs(det) <= tol:
        raise SingularSystem(
            f"2x2 system is singular to working precision (det={det!r})"
        )
    x = (r1 * m22 - m12 * r2) / det
    y = (m11 * r2 - m21 * r1) / det
    return x, y


def _lasso_sweeps(X: NDArray[np.float64], y: NDArray[np.float64],
                  lam: float) -> Iterator[list[float]]:
    """Yield the coefficient vector after each coordinate-descent sweep.

    Covariance updates (Friedman, Hastie & Tibshirani, JSS 2010, sec. 2.2):
    ``G = X^T X`` and ``c = X^T y`` are formed once, after which each
    coordinate's correlation with the partial residual,
    ``c_j - sum_{i != j} G_ji w_i``, costs O(q) for q nonzero coefficients
    instead of O(m).  The sum runs over the ascending indices of the nonzero
    coefficients only.  A zero coefficient's term ``g * 0.0`` is a signed
    zero, which leaves a nonzero partial sum as it is and at most flips the
    sign of a zero one, and a zero correlation thresholds to 0.0 whatever
    its sign; so with a finite ``G`` the iterates are bit for bit those of
    the sum over every i.  Up to rounding, they are those of the
    residual-update form from the same zero start.  The iterator stops on
    its own once the largest single-coefficient change in a sweep drops to
    :data:`LASSO_TOL` or below; the caller enforces the sweep cap.  Columns
    with zero sum of squares keep a zero coefficient.  A ``G`` or ``c``
    beyond the float64 range raises :class:`NonFiniteValue`.
    """
    import numpy as np

    m, k = X.shape
    with np.errstate(over="ignore", invalid="ignore"):
        G = X.T @ X
        c = (X.T @ y).tolist()
    col_sq = G.diagonal().tolist()
    # by Cauchy-Schwarz a finite diagonal bounds every entry of G
    if not all(map(math.isfinite, col_sq + c)):
        raise NonFiniteValue("X^T X or X^T y overflows float64")
    G = G.tolist()
    for j, row in enumerate(G):
        row[j] = 0.0  # so the sums skip i == j
    coords = [(j, c[j], G[j], col_sq[j] / m)
              for j in range(k) if col_sq[j] != 0.0]
    w = [0.0] * k
    nonzero: list[int] = []  # ascending indices i with w[i] != 0
    while True:
        delta = 0.0
        for j, rho, g, scale in coords:
            for i in nonzero:
                rho -= g[i] * w[i]
            v = rho / m
            if v > lam:
                wj = (v - lam) / scale
            elif v < -lam:
                wj = (v + lam) / scale
            else:
                wj = 0.0
            old = w[j]
            if wj != old:
                w[j] = wj
                change = wj - old if wj > old else old - wj
                if change > delta:
                    delta = change
                if old == 0.0 or wj == 0.0:
                    nonzero = [i for i in range(k) if w[i] != 0.0]
        yield list(w)
        if delta <= LASSO_TOL:
            return


def lasso_fit(X, y, lam: float) -> list[float]:
    """l1-penalized least squares by cyclic coordinate descent.

    Minimizes ``||y - X w||**2 / (2 m) + lam * ||w||_1`` for an m-by-k
    design ``X``.  The caller is expected to standardize columns; the update
    itself only requires nonzero column norms (flat columns keep weight 0).
    ``lam=0`` reduces to ordinary least squares.  An ``X^T X`` or ``X^T y``
    beyond the float64 range raises :class:`NonFiniteValue`.
    """
    import numpy as np

    A = _as_matrix_array(m=X)
    rhs = np.asarray(y, dtype=float)
    if rhs.ndim != 1 or rhs.shape[0] != A.shape[0]:
        raise DimensionMismatch(
            f"response of shape {rhs.shape} does not match design "
            f"with {A.shape[0]} rows"
        )
    if not np.isfinite(rhs).all():
        raise NonFiniteValue("response contains non-finite entries")
    if A.shape[0] < 2:
        raise TooShort("need at least 2 observations")
    if not (math.isfinite(lam) and lam >= 0.0):
        raise OutOfRange(f"lam must be non-negative and finite, got {lam!r}")

    for count, w in enumerate(_lasso_sweeps(A, rhs, lam), 1):
        if count > LASSO_MAX_SWEEPS:
            raise ConvergenceFailure(
                f"coordinate descent did not converge within "
                f"{LASSO_MAX_SWEEPS} sweeps"
            )
    return w


def lasso_objective(X, y, lam: float, w) -> float:
    """The objective ``||y - X w||**2 / (2 m) + lam * ||w||_1``."""
    import numpy as np

    A = _as_matrix_array(m=X)
    rhs = np.asarray(y, dtype=float)
    wv = np.asarray(w, dtype=float)
    resid = rhs - A @ wv
    m = A.shape[0]
    return float(resid @ resid) / (2.0 * m) + lam * float(np.abs(wv).sum())


State = tuple[float, float]


def _rk4_blocks(m: tuple[State, State], y0: State, t_end: float, step: float
                ) -> Iterator[tuple[list[float], list[float], list[float]]]:
    """The RK4 trajectory of :func:`rk4_integrate` as ``(times, u, v)``
    lists, block by block: each block holds at most :data:`RK4_BLOCK_STEPS`
    steps, and the first also starts with t=0.  The checks and their errors
    are :func:`rk4_integrate`'s; a non-finite state raises when its block is
    reached, after the blocks before it were yielded."""
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise OutOfRange(f"t_end must be positive, got {t_end!r}")
    if not (math.isfinite(step) and step > 0.0):
        raise OutOfRange(f"step must be positive, got {step!r}")
    u, v = float(y0[0]), float(y0[1])
    if not (math.isfinite(u) and math.isfinite(v)):
        raise NonFiniteState(f"initial state {y0!r} is not finite")

    n_steps = t_end / step + 1e-9
    if not math.isfinite(n_steps):
        raise OutOfRange(f"step count {t_end!r}/{step!r} exceeds the float64 range")
    n_whole = int(math.floor(n_steps))
    remainder = t_end - n_whole * step
    (m11, m12), (m21, m22) = m

    # whole steps, then one shortened step if they fall short of t_end; the
    # last is recorded at t_end (hiding rounding), an error names its own t
    shortened = n_whole == 0 or remainder > 1e-9 * step
    last = n_whole if shortened else n_whole - 1
    if last + 1 > RK4_MAX_STEPS:
        raise OutOfRange(f"step count {t_end!r}/{step!r} exceeds the cap "
                         f"of {RK4_MAX_STEPS} steps")
    block = RK4_BLOCK_STEPS
    times, us, vs = [0.0], [u], [v]
    h, half, sixth = step, 0.5 * step, step / 6.0
    for start in range(0, last + 1, block):
        for i in range(start, min(start + block, last + 1)):
            if i == n_whole:
                h, half, sixth = remainder, 0.5 * remainder, remainder / 6.0
            k1u, k1v = m11 * u + m12 * v, m21 * u + m22 * v
            x, y = u + half * k1u, v + half * k1v
            k2u, k2v = m11 * x + m12 * y, m21 * x + m22 * y
            x, y = u + half * k2u, v + half * k2v
            k3u, k3v = m11 * x + m12 * y, m21 * x + m22 * y
            x, y = u + h * k3u, v + h * k3v
            k4u, k4v = m11 * x + m12 * y, m21 * x + m22 * y
            u = u + sixth * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
            v = v + sixth * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            if not (math.isfinite(u) and math.isfinite(v)):
                t = t_end if i == n_whole else (i + 1) * step
                raise NonFiniteState(f"state became non-finite at t={t!r}")
            times.append(t_end if i == last else (i + 1) * step)
            us.append(u)
            vs.append(v)
        yield times, us, vs
        times, us, vs = [], [], []


def rk4_integrate(m: tuple[State, State], y0: State, t_end: float,
                  step: float) -> list[tuple[float, State]]:
    """Classical fourth-order Runge-Kutta for ``y' = M y`` from t=0 to t_end
    inclusive, ``m = ((m11, m12), (m21, m22))``.

    Operation for operation the textbook scheme on ``f(y) = M y``.  Returns
    the list of (t, state) pairs including both endpoints.  If t_end is not
    a whole number of steps, or is shorter than one, the final step is
    shortened to land on it exactly.  A non-finite step count, or one above
    :data:`RK4_MAX_STEPS`, raises :class:`OutOfRange` before any step, and a
    non-finite state :class:`NonFiniteState`.
    """
    out: list[tuple[float, State]] = []
    for times, us, vs in _rk4_blocks(m, y0, t_end, step):
        out += zip(times, zip(us, vs))
    return out


class FdMode(Enum):
    FORWARD = "forward"
    CENTRAL = "central"


def finite_diff(series: InfluenceSeries, mode: FdMode) -> NDArray[np.float64]:
    """Difference-quotient derivative estimates along a sampled series.

    Central differences cover the interior samples (indices 1..n-2, length
    n-2); forward differences cover indices 0..n-2 (length n-1).  Returns a
    float64 array, computed from the read-only ``series.values`` without a
    copy; the caller tracks which time indices the estimates belong to.  A
    difference beyond the float64 range is inf, without a warning.
    """
    import numpy as np

    v = series.values
    h = series.step
    with np.errstate(over="ignore", invalid="ignore"):
        if mode is FdMode.CENTRAL:
            return (v[2:] - v[:-2]) / (2.0 * h)
        if mode is FdMode.FORWARD:
            return (v[1:] - v[:-1]) / h
    raise OutOfRange(f"unknown finite-difference mode: {mode!r}")
