"""Numerical kernels: singular values, 2x2 solves, l1 regression, RK4,
finite differences.

The problems this package actually solves are small — matrices with a
handful of columns, trajectories with a few thousand steps — so each kernel
is written directly for that size class instead of pulling in a large
solver: one-sided Jacobi rotations for singular values, Cramer's rule for
2x2 systems, cyclic coordinate descent with covariance updates for the l1
fit (one Gram product per call, then O(k) work per coordinate step), and
classical RK4 on local floats for the one system integrated, ``y' = M y``
with a constant 2x2 ``M``.  The 2x2 solve and RK4 run on ``math`` alone;
numpy, which supplies array storage and elementwise arithmetic only, is
imported by the array kernels (singular values, the l1 fit, finite
differences) when first called, so a process that never uses them never
loads it.
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
)

if TYPE_CHECKING:
    import numpy as np
    from numpy.typing import NDArray

#: Off-diagonal threshold below which a Jacobi column pair counts as orthogonal.
JACOBI_TOL = 1e-12

#: Hard cap on Jacobi sweeps; reaching it raises ConvergenceFailure.
JACOBI_MAX_SWEEPS = 100

#: Relative determinant threshold for the 2x2 solver.
SOLVE2_RTOL = 1e-12

#: Coordinate-descent stopping threshold on the largest coefficient change.
LASSO_TOL = 1e-8

#: Hard cap on coordinate-descent sweeps.
LASSO_MAX_SWEEPS = 10_000

#: Hard cap on RK4 steps per call: each recorded step holds about 265 bytes,
#: so the cap bounds the output near 0.3 GB.
RK4_MAX_STEPS = 2**20


def _as_matrix_array(m) -> NDArray[np.float64]:
    import numpy as np

    arr = np.array(m, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"matrix must be non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue("matrix contains non-finite entries")
    return arr


def svd_values(matrix) -> list[float]:
    """Singular values of a matrix, descending, via one-sided Jacobi.

    The matrix (anything array-like) is first oriented tall, then pairs of
    columns are rotated until every pair is orthogonal to within
    :data:`JACOBI_TOL` relative to the column norms.
    The singular values are the final column norms.  Rotations preserve the
    Frobenius norm, so ``sum(s**2 for s in result)`` equals the squared
    Frobenius norm of the input up to rounding.

    The rotations run on the matrix scaled by the power of two that brings
    its largest entry into [0.5, 1), so no column product overflows; the
    scaling is exact for entries above 2**-1022 times the largest.  A
    singular value beyond the float64 range raises :class:`NonFiniteValue`.
    """
    import numpy as np

    a = _as_matrix_array(m=matrix)
    if a.shape[0] < a.shape[1]:
        a = a.T.copy()
    n = a.shape[1]
    e = math.frexp(float(np.abs(a).max()))[1]
    np.ldexp(a, -e, out=a)

    for _ in range(JACOBI_MAX_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                cp = a[:, p]
                cq = a[:, q]
                app = float(cp @ cp)
                aqq = float(cq @ cq)
                apq = float(cp @ cq)
                if abs(apq) <= JACOBI_TOL * math.sqrt(app * aqq):
                    continue
                rotated = True
                tau = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                new_p = c * cp - s * cq
                new_q = s * cp + c * cq
                a[:, p] = new_p
                a[:, q] = new_q
        if not rotated:
            break
    else:
        raise ConvergenceFailure(
            f"Jacobi sweeps did not orthogonalize columns within "
            f"{JACOBI_MAX_SWEEPS} sweeps"
        )

    try:
        norms = [math.ldexp(math.sqrt(a[:, j] @ a[:, j]), e) for j in range(n)]
    except OverflowError as exc:
        raise NonFiniteValue("a singular value overflows float64") from exc
    norms.sort(reverse=True)
    return norms


def solve_2x2(m11: float, m12: float, m21: float, m22: float,
              r1: float, r2: float) -> tuple[float, float]:
    """Solve the 2x2 system ``[[m11, m12], [m21, m22]] @ (x, y) = (r1, r2)``.

    Uses Cramer's rule; raises :class:`SingularSystem` when the determinant
    is not finite or is below :data:`SOLVE2_RTOL` relative to the product of
    the row norms (which also catches the all-zero matrix).
    """
    det = m11 * m22 - m12 * m21
    scale = math.hypot(m11, m12) * math.hypot(m21, m22)
    if not math.isfinite(det) or abs(det) <= SOLVE2_RTOL * scale:
        raise SingularSystem(
            f"2x2 system is singular to working precision (det={det!r})"
        )
    x = (r1 * m22 - m12 * r2) / det
    y = (m11 * r2 - m21 * r1) / det
    return x, y


def _soft_threshold(v: float, lam: float) -> float:
    if v > lam:
        return v - lam
    if v < -lam:
        return v + lam
    return 0.0


def _lasso_sweeps(X: NDArray[np.float64], y: NDArray[np.float64],
                  lam: float) -> Iterator[list[float]]:
    """Yield the coefficient vector after each coordinate-descent sweep.

    Covariance updates (Friedman, Hastie & Tibshirani, JSS 2010, sec. 2.2):
    ``G = X^T X`` and ``c = X^T y`` are formed once, after which each
    coordinate's correlation with the partial residual,
    ``c_j - sum_{i != j} G_ji w_i``, costs O(k) instead of O(m).  Up to
    rounding, the iterates are those of the residual-update form from the
    same zero start.  The iterator stops on its own once the largest
    single-coefficient change in a sweep drops to :data:`LASSO_TOL` or
    below; the caller enforces the sweep cap.  Columns with zero sum of
    squares keep a zero coefficient.
    """
    import numpy as np

    m, k = X.shape
    G = X.T @ X
    col_sq = G.diagonal().tolist()
    G[np.diag_indices(k)] = 0.0  # so the row sums skip i == j
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
            wj = _soft_threshold(rho / m, lam) / (col_sq[j] / m)
            change = abs(wj - w[j])
            if change != 0.0:
                w[j] = wj
                if change > delta:
                    delta = change
        yield list(w)
        if delta <= LASSO_TOL:
            return


def lasso_fit(X, y, lam: float) -> list[float]:
    """l1-penalized least squares by cyclic coordinate descent.

    Minimizes ``||y - X w||**2 / (2 m) + lam * ||w||_1`` for an m-by-k
    design ``X``.  The caller is expected to standardize columns; the update
    itself only requires nonzero column norms (flat columns keep weight 0).
    ``lam=0`` reduces to ordinary least squares.
    """
    import numpy as np

    A = _as_matrix_array(m=X)
    rhs = np.asarray(y, dtype=float)
    if rhs.ndim != 1 or rhs.shape[0] != A.shape[0]:
        raise DimensionMismatch(
            f"response of shape {rhs.shape} does not match design "
            f"with {A.shape[0]} rows"
        )
    if not np.all(np.isfinite(rhs)):
        raise NonFiniteValue("response contains non-finite entries")
    if A.shape[0] < 2:
        raise ValueError("need at least 2 observations")
    if not (math.isfinite(lam) and lam >= 0.0):
        raise ValueError(f"lam must be non-negative and finite, got {lam!r}")

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
    (m11, m12), (m21, m22) = m

    out: list[tuple[float, State]] = [(0.0, (u, v))]
    # whole steps, then one shortened step if they fall short of t_end; the
    # last is recorded at t_end (hiding rounding), an error names its own t
    shortened = n_whole == 0 or remainder > 1e-9 * step
    last = n_whole if shortened else n_whole - 1
    if last + 1 > RK4_MAX_STEPS:
        raise OutOfRange(f"step count {t_end!r}/{step!r} exceeds the cap "
                         f"of {RK4_MAX_STEPS} steps")
    h, half, sixth = step, 0.5 * step, step / 6.0
    for i in range(last + 1):
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
        out.append((t_end if i == last else (i + 1) * step, (u, v)))
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
    raise ValueError(f"unknown finite-difference mode: {mode!r}")
