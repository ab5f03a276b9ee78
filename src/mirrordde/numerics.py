"""Numerical kernels: singular values, 2x2 solves, l1 regression, RK4,
finite differences.

The problems this package actually solves are small — matrices with a
handful of columns, trajectories with a few thousand steps — so most
kernels are written directly for that size class: Cramer's rule for 2x2
systems, cyclic coordinate descent with covariance updates for the l1 fit
(one Gram product per call, with its diagonal zeroed and an infinite scale
for a zero column, then the same inputs to either sweep kernel: for up to 20
columns straight-line code generated once per column count k, with O(k**2)
source and work per sweep; wider designs sum over the nonzero coefficients),
and classical RK4 for the one system integrated, ``y' = M y`` with a constant
2x2 ``M``, as its one-step propagator: each step adds ``E y``, with
``E = R(hM) - I`` built exactly once per step length, under compensated
summation.  The RK4 kernel is private: it yields the trajectory in blocks
of steps (:func:`_rk4_blocks`), so that a caller can fold it without
holding all of it (``verify`` holds one block), and
``solver.oracle_solution`` is its public face.  Singular values, which no
command needs, come from numpy's LAPACK SVD on a power-of-two-scaled copy.
The 2x2 solve and RK4 run on ``math`` and integers alone; numpy is imported
by the array kernels (singular values, the l1 fit, finite differences) when
first called, so a process that never uses them never loads it.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from typing import TYPE_CHECKING, Callable, Iterator

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

#: Hard cap on RK4 steps per call: it bounds every integration's run time
#: and the whole-window lists of ``solver.oracle_solution`` (near 0.17 GB).
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
    the row norms (which also catches the all-zero matrix), and
    :class:`NonFiniteValue` when the solution is not finite (a quotient
    beyond the float64 range, or a non-finite right-hand side).
    """
    det = m11 * m22 - m12 * m21
    h2 = math.hypot(m21, m22)
    tol = SOLVE2_RTOL * (math.hypot(m11, m12) * h2)
    if not tol < math.inf:
        # the product of the row norms overflowed: scale before multiplying
        tol = math.hypot(SOLVE2_RTOL * m11, SOLVE2_RTOL * m12) * h2
    # tol is nan only as 0 * inf: a zero first row under an overflowing
    # second-row norm, which is singular
    if not math.isfinite(det) or not abs(det) > tol:
        raise SingularSystem(
            f"2x2 system is singular to working precision (det={det!r})"
        )
    x = (r1 * m22 - m12 * r2) / det
    y = (m11 * r2 - m21 * r1) / det
    if not (math.isfinite(x) and math.isfinite(y)):
        raise NonFiniteValue(f"2x2 solution ({x!r}, {y!r}) of right-hand "
                             f"side ({r1!r}, {r2!r}) overflows float64")
    return x, y


#: Widest design, in columns, whose sweeps run in a generated kernel.  Its
#: source and each of its sweeps cost O(k**2), against O(k q) for the loop
#: over q nonzero coefficients that wider designs take: past about 20
#: columns a sparse fit runs faster in the loop, and the generated source
#: of a few thousand columns would not even compile (its sums nest k deep).
SWEEP_KERNEL_MAX_K = 20


@functools.cache
def _sweep_kernel(k: int) -> Callable[..., tuple[list[float], bool]]:
    """The sweep kernel for k columns, ``kernel(w, c, G, scale, m, lam, tol,
    budget)``, chosen once per k: :func:`_nonzero_sweeps` above
    :data:`SWEEP_KERNEL_MAX_K`, else straight-line code built on first use.

    From the start vector ``w`` it sweeps until the largest coefficient
    change in a sweep is at most ``tol``, or ``budget`` sweeps have run, and
    returns the last iterate as a new list with whether it converged.  The
    generated source has every ``c_j``, ``G_ji``, ``w_i`` and ``scale_j`` in
    a local: for each coordinate j in turn,
    ``v = (c_j - G_j0 * w_0 - ...) / m`` over every i != j in ascending
    order, then the soft threshold and the largest-change rule.  A sweep
    reads nothing but its inputs and the previous iterate, so one call with
    budget b and b chained calls with budget 1 give the same bits.  Only k
    enters the source, which holds k (k - 1) terms, so it grows and runs as
    O(k**2).
    """
    if k > SWEEP_KERNEL_MAX_K:
        return _nonzero_sweeps
    cols = range(k)
    ws = "".join(f"w{i}, " for i in cols)
    lines = [
        "def sweeps(w, c, G, scale, m, lam, tol, budget):",
        "    " + "".join(f"c{j}, " for j in cols) + "= c",
        "    " + "".join(f"s{j}, " for j in cols) + "= scale",
        "    " + "".join("(" + "".join(f"g{j}_{i}, " for i in cols) + "), "
                        for j in cols) + "= G",
        f"    {ws}= w",
        "    nlam = -lam",
        "    for _ in range(budget):",
        "        delta = 0.0",
    ]
    for j in cols:
        rho = "".join(f" - g{j}_{i} * w{i}" for i in cols if i != j)
        lines += [
            f"        v = (c{j}{rho}) / m",
            "        if v > lam:",
            f"            wj = (v - lam) / s{j}",
            "        elif v < nlam:",
            f"            wj = (v + lam) / s{j}",
            "        else:",
            "            wj = 0.0",
            f"        if wj != w{j}:",
            f"            change = wj - w{j} if wj > w{j} else w{j} - wj",
            "            if change > delta:",
            "                delta = change",
            f"            w{j} = wj",
        ]
    lines += [
        "        if delta <= tol:",
        f"            return [{ws}], True",
        f"    return [{ws}], False",
    ]
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["sweeps"]


def _nonzero_sweeps(w: list[float], c: list[float], G: list[list[float]],
                    scale: list[float], m: float, lam: float, tol: float,
                    budget: int) -> tuple[list[float], bool]:
    """The sweeps of a design too wide for :func:`_sweep_kernel`, with the
    generated kernel's arguments and result (G's diagonal zeroed, an
    infinite scale for a zero column): each sum runs over the ascending
    indices of the nonzero coefficients only, in O(k q) for q of them.  The
    list of those indices is rebuilt from the start vector, so it holds
    what a longer call would have held at that sweep.  A skipped term
    ``g * 0.0`` is a signed zero, which leaves a nonzero partial sum as it
    is and at most flips the sign of a zero one, and a zero correlation
    thresholds to 0.0 whatever its sign; so the iterates are bit for bit
    those of the generated kernel, and a zero column never enters the
    nonzero list."""
    k = len(c)
    coords = list(zip(range(k), c, G, scale))
    w = list(w)
    nonzero = [i for i in range(k) if w[i] != 0.0]  # ascending
    for _ in range(budget):
        delta = 0.0
        for j, rho, g, sj in coords:
            for i in nonzero:
                rho -= g[i] * w[i]
            v = rho / m
            if v > lam:
                wj = (v - lam) / sj
            elif v < -lam:
                wj = (v + lam) / sj
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
        if delta <= tol:
            return w, True
    return w, False


def _lasso_inputs(X: NDArray[np.float64], y: NDArray[np.float64]
                  ) -> tuple[Callable[..., tuple[list[float], bool]], tuple]:
    """The sweep kernel that fits the width of ``X`` and its inputs
    ``(c, G, scale, m)``, formed once per fit.

    Covariance updates (Friedman, Hastie & Tibshirani, JSS 2010, sec. 2.2):
    ``G = X^T X`` and ``c = X^T y`` are formed once, after which each
    coordinate's correlation with the partial residual,
    ``c_j - sum_{i != j} G_ji w_i``, costs O(k) instead of O(m).  G comes
    with its diagonal zeroed, and column j's scale is its sum of squares
    over m, or inf where that sum is zero (all zeros, or squares that
    underflow), so that such a column's update is a signed zero, which
    equals its 0.0 and never moves.  The kernel is :func:`_sweep_kernel`'s
    for the width of ``X``.  A ``G`` or ``c`` beyond the float64 range raises
    :class:`NonFiniteValue`; the caller holds numpy's overflow and invalid
    warnings off (``np.errstate``), once for all its fits.

    G is read and its diagonal zeroed as nested lists, and the kernels get
    m as a float: it converts exactly below 2**53, so every ``/ m`` keeps
    its bits and takes CPython's float-by-float division.
    """
    m, k = float(X.shape[0]), X.shape[1]
    G = (X.T @ X).tolist()
    c = (X.T @ y).tolist()
    col_sq = [row[j] for j, row in enumerate(G)]
    # by Cauchy-Schwarz a finite diagonal bounds every entry of G
    if not all(map(math.isfinite, col_sq + c)):
        raise NonFiniteValue("X^T X or X^T y overflows float64")
    for j, row in enumerate(G):
        row[j] = 0.0
    scale = [sq / m if sq != 0.0 else math.inf for sq in col_sq]
    return _sweep_kernel(k), (c, G, scale, m)


def _lasso_sweeps(X: NDArray[np.float64], y: NDArray[np.float64],
                  lam: float) -> Iterator[list[float]]:
    """The coefficient vector after each coordinate-descent sweep.

    Each sweep is one call of the kernel from :func:`_lasso_inputs` with a
    budget of one sweep, started from the previous iterate (zero at
    first), so the iterates are bit for bit those of the single call that
    :func:`lasso_fit` makes.  Up to rounding they are those of the
    residual-update form from the same zero start.  The iterator stops on
    its own after the first sweep whose largest single-coefficient change
    is :data:`LASSO_TOL` or below; the caller enforces any sweep cap.  A
    ``G`` or ``c`` beyond the float64 range raises :class:`NonFiniteValue`
    when this is called, before any sweep, without a warning.
    """
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        kernel, inputs = _lasso_inputs(X, y)

    def sweeps() -> Iterator[list[float]]:
        w, converged = [0.0] * X.shape[1], False
        while not converged:
            w, converged = kernel(w, *inputs, lam, LASSO_TOL, 1)
            yield w

    return sweeps()


def _check_lam(lam: float) -> None:
    """Raise :class:`OutOfRange` unless ``lam`` is finite and >= 0."""
    if not (math.isfinite(lam) and lam >= 0.0):
        raise OutOfRange(f"lam must be non-negative and finite, got {lam!r}")


def _lasso_vector(name: str, v, size: int, design) -> NDArray[np.float64]:
    """``v`` as a float64 array of ``size`` finite entries, else
    :class:`DimensionMismatch` or :class:`NonFiniteValue`."""
    import numpy as np

    arr = np.asarray(v, dtype=float)
    if arr.shape != (size,):
        raise DimensionMismatch(f"{name} of shape {arr.shape} does not match "
                                f"design of shape {design.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteValue(f"{name} contains non-finite entries")
    return arr


def lasso_fit(X, y, lam: float) -> list[float]:
    """l1-penalized least squares by cyclic coordinate descent.

    Minimizes ``||y - X w||**2 / (2 m) + lam * ||w||_1`` for an m-by-k
    design ``X``.  The caller is expected to standardize columns; the update
    itself only requires nonzero column norms (flat columns keep weight 0).
    ``lam=0`` reduces to ordinary least squares.  X, y and ``lam`` raise as
    in :func:`lasso_objective`, messages included, and fewer than 2 rows
    :class:`TooShort`.  An ``X^T X``, ``X^T y`` or coefficient beyond the
    float64 range raises :class:`NonFiniteValue`, without a numpy warning.
    """
    import numpy as np

    A = _as_matrix_array(m=X)
    rhs = _lasso_vector("response", y, A.shape[0], A)
    if A.shape[0] < 2:
        raise TooShort("need at least 2 observations")
    _check_lam(lam)
    with np.errstate(over="ignore", invalid="ignore"):
        w = _lasso_capped(A, rhs, lam)
    if not all(map(math.isfinite, w)):
        raise NonFiniteValue("a coefficient overflows float64")
    return w


def _lasso_capped(X: NDArray[np.float64], y: NDArray[np.float64],
                  lam: float) -> list[float]:
    """:func:`lasso_fit` without its checks: one kernel call from zero with
    a budget of :data:`LASSO_MAX_SWEEPS` sweeps (read at call time), whose
    last iterate is :func:`_lasso_sweeps`' last, or
    :class:`ConvergenceFailure` if the budget runs out first.  The caller
    guarantees a finite float design with at least 2 rows, a matching
    finite response and a finite ``lam >= 0``, and holds numpy's overflow
    and invalid warnings off (see :func:`_lasso_inputs`)."""
    kernel, inputs = _lasso_inputs(X, y)
    w, converged = kernel([0.0] * X.shape[1], *inputs, lam, LASSO_TOL,
                          LASSO_MAX_SWEEPS)
    if not converged:
        raise ConvergenceFailure(
            f"coordinate descent did not converge within "
            f"{LASSO_MAX_SWEEPS} sweeps"
        )
    return w


def lasso_objective(X, y, lam: float, w) -> float:
    """The objective ``||y - X w||**2 / (2 m) + lam * ||w||_1``.

    The inputs are checked as :func:`lasso_fit` checks them, with ``w``
    held to one coefficient per column of ``X``: a shape that does not fit
    raises :class:`DimensionMismatch`, a non-finite entry
    :class:`NonFiniteValue` and a negative or non-finite ``lam``
    :class:`OutOfRange`.  An objective beyond the float64 range raises
    :class:`NonFiniteValue`, without a warning.

    The value is the plain expression wherever that is finite.  Where the
    residual's sum of squares or the l1 norm overflows, it is formed again
    from power-of-two-scaled vectors, so an objective that float64 holds
    is returned even when one of its sums is not.  A residual entry beyond
    the float64 range raises: a product in ``X w`` has then overflowed,
    and unless such products are exact, float64 resolves their sum only to
    about 1e292, whose square is beyond the range too.
    """
    import numpy as np

    A = _as_matrix_array(m=X)
    m, k = A.shape
    rhs = _lasso_vector("response", y, m, A)
    wv = _lasso_vector("coefficient vector", w, k, A)
    _check_lam(lam)
    with np.errstate(over="ignore", invalid="ignore"):
        resid = rhs - A @ wv
        value = (float(resid @ resid) / (2.0 * m)
                 + lam * float(np.abs(wv).sum()))
        if not math.isfinite(value) and np.isfinite(resid).all():
            # both sums of the vectors scaled by _pow2_scaled, scaled back
            # by math.ldexp: wherever no scaled square underflows, each is
            # the plain sum times a power of two, bit for bit
            r, er = _pow2_scaled(resid)
            a, ea = _pow2_scaled(wv)
            try:
                value = (math.ldexp(float(r @ r) / (2.0 * m), 2 * int(er))
                         + math.ldexp(lam * float(np.abs(a).sum()), int(ea)))
            except OverflowError:
                pass  # beyond float64: value stays non-finite
    if not math.isfinite(value):
        raise NonFiniteValue("the residual or the objective overflows float64")
    return value


State = tuple[float, float]


def _rk4_increment(m: tuple[State, State], h: float
                   ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """``E = R(hM) - I`` in row-major order, where ``R(z) = 1 + z + z**2/2 + z**3/6
    + z**4/24`` is RK4's stability function: one RK4 step of ``y' = M y``
    is exactly ``y + E y``.

    Horner's ``24 E = Z (24 I + Z (12 I + Z (4 I + Z)))`` on ``Z = hM``
    runs in integer arithmetic, exactly (a float is an integer over a power
    of two), and uses no identity of ``M`` (such as ``M**2 = (b**2 - a**2) I``
    for the mirror system, which the closed forms rest on).  E comes back
    as the nearest floats and the nearest floats to what those leave out,
    so a step adds E y with about 106 bits of E: a rounded E would repeat
    its error on every step.  A non-finite E raises :class:`OutOfRange`."""
    try:
        (hn, hd), *entries = [x.as_integer_ratio()
                              for x in (h, *m[0], *m[1])]
        # every h * m_ij is an integer over d, and z holds those integers
        d = hd * max(md for _, md in entries)
        z = [hn * mn * (d // (hd * md)) for mn, md in entries]
        acc, scale = z, d
        for c in (4, 12, 24):
            x11, x12, x21, x22 = (acc[0] + c * scale, acc[1], acc[2],
                                  acc[3] + c * scale)
            acc = [z[0] * x11 + z[1] * x21, z[0] * x12 + z[1] * x22,
                   z[2] * x11 + z[3] * x21, z[2] * x12 + z[3] * x22]
            scale *= d
        scale *= 24  # each entry of E is acc_ij / scale
        hi = tuple(a / scale for a in acc)
    except (OverflowError, ValueError) as exc:  # inf or nan in, inf out
        raise OutOfRange(f"the RK4 step {h!r} on M = {m!r} leaves the "
                         f"float64 range") from exc
    lo = tuple((a * q - p * scale) / (scale * q)
               for a, (p, q) in zip(acc, map(float.as_integer_ratio, hi)))
    return hi, lo


def _rk4_blocks(m: tuple[State, State], y0: State, t_end: float, step: float
                ) -> Iterator[tuple[list[float], list[float], list[float]]]:
    """Classical RK4 for ``y' = M y``, ``m = ((m11, m12), (m21, m22))``,
    from t=0 to t_end inclusive, as ``(times, u, v)`` lists of at most
    :data:`RK4_BLOCK_STEPS` steps each, the first also holding t=0.

    One RK4 step of length h is exactly ``y <- R(hM) y``, with R the
    method's stability function (Hairer & Wanner, *Solving Ordinary
    Differential Equations II*, sec. IV.2).  So each step adds ``E y``, with
    ``E = R(hM) - I`` held to about 106 bits (:func:`_rk4_increment`), and
    Kahan terms carry the sums' rounding: the states stay within a few ulps
    of exact-arithmetic RK4 at any step count, where the textbook stage
    form drifts.  A t_end that is not a whole number of steps, or is below
    one, ends on one shortened step.

    At the first ``next()``, before any step, a non-positive t_end or step,
    a step count beyond float64 or above :data:`RK4_MAX_STEPS`, or a
    non-finite ``E`` (``|hM|`` above about 1e77) raises :class:`OutOfRange`,
    and a non-finite y0 :class:`NonFiniteState`.  A non-finite state raises
    :class:`NonFiniteState` when its block is reached, after the blocks
    before it.
    """
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

    # whole steps, then one shortened step if they fall short of t_end; the
    # last is recorded at t_end (hiding rounding), an error names its own t
    shortened = n_whole == 0 or remainder > 1e-9 * step
    last = n_whole if shortened else n_whole - 1
    if last + 1 > RK4_MAX_STEPS:
        raise OutOfRange(f"step count {t_end!r}/{step!r} exceeds the cap "
                         f"of {RK4_MAX_STEPS} steps")
    # the E of each step length taken, both built before the first step
    (e11, e12, e21, e22), (l11, l12, l21, l22) = _rk4_increment(
        m, step if n_whole else remainder)
    short = _rk4_increment(m, remainder) if shortened else None
    block = RK4_BLOCK_STEPS
    times, us, vs = [0.0], [u], [v]
    # Kahan summation of the increments: cu and cv carry what rounding took
    # from u and v, so the sum does not drift with the step count
    cu = cv = 0.0
    for start in range(0, last + 1, block):
        for i in range(start, min(start + block, last + 1)):
            if i == n_whole:
                (e11, e12, e21, e22), (l11, l12, l21, l22) = short
            du = e11 * u + e12 * v + (l11 * u + l12 * v) - cu
            dv = e21 * u + e22 * v + (l21 * u + l22 * v) - cv
            s = u + du
            cu = (s - u) - du
            u = s
            s = v + dv
            cv = (s - v) - dv
            v = s
            if not (math.isfinite(u) and math.isfinite(v)):
                t = t_end if i == n_whole else (i + 1) * step
                raise NonFiniteState(f"state became non-finite at t={t!r}")
            times.append(t_end if i == last else (i + 1) * step)
            us.append(u)
            vs.append(v)
        yield times, us, vs
        times, us, vs = [], [], []


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
