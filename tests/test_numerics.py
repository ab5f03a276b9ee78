"""Kernels: Jacobi singular values, 2x2 solves, lasso, RK4, finite differences.

Reference values come from sources independent of the implementation:
``numpy.linalg`` (tests only), a characteristic-polynomial oracle for thin
matrices, and closed-form solutions.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirrordde import (
    ConvergenceFailure,
    DimensionMismatch,
    FdMode,
    NonFiniteState,
    NonFiniteValue,
    OutOfRange,
    SingularSystem,
    finite_diff,
    lasso_fit,
    rk4_integrate,
    solve_2x2,
    svd_values,
    validate_series,
)
from mirrordde import numerics
from mirrordde.numerics import _lasso_sweeps, lasso_objective

from oracles import (
    charpoly_singular_values,
    closure_rk4,
    residual_lasso_sweeps,
)


# ---------------------------------------------------------------------------
# svd_values
# ---------------------------------------------------------------------------

class TestSvdValues:
    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteValue):
            svd_values([[1.0, math.nan], [0.0, 1.0]])

    def test_identity(self):
        assert svd_values([[1.0, 0.0], [0.0, 1.0]]) == [1.0, 1.0]

    def test_diagonal_sorted_descending(self):
        out = svd_values([[3.0, 0.0], [0.0, 4.0]])
        assert out == pytest.approx([4.0, 3.0], abs=1e-12)

    def test_single_entry(self):
        assert svd_values([[-2.0]]) == [2.0]

    def test_zero_matrix(self):
        assert svd_values([[0.0, 0.0], [0.0, 0.0]]) == [0.0, 0.0]

    def test_thin_matrix_against_charpoly(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 2))
        got = svd_values(a)
        want = charpoly_singular_values(a)
        assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("shape", [(4, 4), (5, 3), (3, 5), (6, 2), (1, 4)])
    def test_against_dense_svd(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        a = rng.uniform(-3.0, 3.0, size=shape)
        got = svd_values(a)
        want = np.linalg.svd(a, compute_uv=False)
        assert got == pytest.approx(list(want), abs=1e-9)

    @pytest.mark.parametrize("k", [-1000, -560, 260, 1000])
    def test_power_of_two_scaling_is_exact(self, k):
        # e.g. at 2**260 every column product used to overflow to inf
        a = np.random.default_rng(11).uniform(-3.0, 3.0, size=(5, 3))
        assert svd_values(np.ldexp(a, k)) == [
            math.ldexp(s, k) for s in svd_values(a)]

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e77, 1e160, 1e300])
    def test_against_dense_svd_at_float64_edges(self, scale):
        # at 1e77 the pair [[s, s], [0, s]] read as orthogonal and gave the
        # column norms; 1e-170 gave zeros, 1e160 inf
        for a in (np.array([[1.0, 1.0], [0.0, 1.0]]),
                  np.random.default_rng(5).uniform(-3.0, 3.0, size=(4, 3))):
            got = svd_values(a * scale)
            want = np.linalg.svd(a * scale, compute_uv=False)
            assert got == pytest.approx(list(want), rel=1e-12, abs=0.0)

    def test_singular_value_beyond_float64_is_typed(self):
        # the largest singular value is 2e308; it used to escape the final
        # ldexp as a bare OverflowError
        with pytest.raises(NonFiniteValue):
            svd_values([[1e308, 1e308], [1e308, 1e308]])

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           rows=st.integers(min_value=1, max_value=6),
           cols=st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_permutation_and_transpose_invariance(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-5.0, 5.0, size=(rows, cols))
        base = svd_values(a)
        shuffled = a[rng.permutation(rows), :]
        assert svd_values(shuffled) == pytest.approx(base, abs=1e-9)
        assert svd_values(a.T) == pytest.approx(base, abs=1e-9)
        # rotations preserve the Frobenius norm
        assert math.fsum(s * s for s in base) == pytest.approx(
            float((a * a).sum()), rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# solve_2x2
# ---------------------------------------------------------------------------

class TestSolve2x2:
    def test_worked_example(self):
        x, y = solve_2x2(2.0, 1.0, 1.0, 3.0, 5.0, 10.0)
        assert (x, y) == pytest.approx((1.0, 3.0), abs=1e-12)

    def test_singular_rejected(self):
        with pytest.raises(SingularSystem):
            solve_2x2(1.0, 2.0, 2.0, 4.0, 1.0, 2.0)

    def test_zero_matrix_rejected(self):
        with pytest.raises(SingularSystem):
            solve_2x2(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_non_finite_determinant_rejected(self):
        # det = inf - inf = nan
        with pytest.raises(SingularSystem, match=r"\(det=nan\)"):
            solve_2x2(1e200, 1e200, 1e200, 1e200, 1.0, 1.0)

    def test_matches_dense_solver(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 25:
            m = rng.uniform(-2.0, 2.0, size=(2, 2))
            if abs(np.linalg.det(m)) < 1e-3:
                continue
            rhs = rng.uniform(-2.0, 2.0, size=2)
            got = solve_2x2(m[0, 0], m[0, 1], m[1, 0], m[1, 1], rhs[0], rhs[1])
            want = np.linalg.solve(m, rhs)
            assert got == pytest.approx(tuple(want), rel=1e-9, abs=1e-12)
            checked += 1


# ---------------------------------------------------------------------------
# lasso_fit
# ---------------------------------------------------------------------------

def random_design(seed, m=40, k=4):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, k))
    y = rng.standard_normal(m)
    return X, y


class TestLasso:
    def test_zero_penalty_matches_normal_equations(self):
        X, y = random_design(3)
        w = np.array(lasso_fit(X, y, 0.0))
        want = np.linalg.solve(X.T @ X, X.T @ y)
        assert w == pytest.approx(want, abs=1e-6)

    def test_zero_penalty_residual_orthogonal_to_columns(self):
        X, y = random_design(5)
        w = np.array(lasso_fit(X, y, 0.0))
        grad = X.T @ (y - X @ w)
        assert float(np.abs(grad).max()) <= 1e-6 * max(1.0, float(np.abs(X.T @ y).max()))

    def test_annihilation_threshold(self):
        X, y = random_design(9)
        m = X.shape[0]
        lam_max = float(np.abs(X.T @ y).max()) / m
        # at the knife edge the solver's per-column dot may disagree with the
        # matmul above by one ulp, so only bound the result there
        assert max(abs(w) for w in lasso_fit(X, y, lam_max)) <= 1e-12
        assert lasso_fit(X, y, lam_max * (1.0 + 1e-10)) == [0.0] * X.shape[1]
        assert lasso_fit(X, y, 2.0 * lam_max) == [0.0] * X.shape[1]
        # strictly below the threshold at least one coefficient activates
        assert any(w != 0.0 for w in lasso_fit(X, y, 0.9 * lam_max))

    def test_orthogonal_design_closed_form(self):
        # columns are orthogonal with squared norm m=4, so each coefficient
        # is the soft-thresholded per-sample correlation
        X = np.array([
            [1.0, 1.0, 1.0],
            [1.0, -1.0, -1.0],
            [-1.0, 1.0, -1.0],
            [-1.0, -1.0, 1.0],
        ])
        y = np.array([1.0, 2.0, 3.0, 5.0])
        # per-sample correlations: -1.25, -0.75, 0.25
        assert lasso_fit(X, y, 0.5) == pytest.approx([-0.75, -0.25, 0.0],
                                                     abs=1e-12)
        assert lasso_fit(X, y, 0.0) == pytest.approx([-1.25, -0.75, 0.25],
                                                     abs=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 0.05, 0.3])
    def test_objective_decreases_sweep_to_sweep(self, lam):
        X, y = random_design(17, m=30, k=5)
        values = [lasso_objective(X, y, lam, np.zeros(X.shape[1]))]
        for w in _lasso_sweeps(X, y, lam):
            values.append(lasso_objective(X, y, lam, w))
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_flat_column_keeps_zero_weight(self):
        X = np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]])
        y = np.array([1.0, 2.0, 3.0])
        w = lasso_fit(X, y, 0.0)
        assert w[0] == 0.0
        assert w[1] == pytest.approx(1.0, abs=1e-8)

    def test_sweep_cap_is_inclusive(self, monkeypatch):
        X, y = random_design(7, m=20, k=3)
        sweeps = list(_lasso_sweeps(X, y, 0.05))
        assert len(sweeps) > 1
        monkeypatch.setattr(numerics, "LASSO_MAX_SWEEPS", len(sweeps))
        assert lasso_fit(X, y, 0.05) == sweeps[-1]
        monkeypatch.setattr(numerics, "LASSO_MAX_SWEEPS", len(sweeps) - 1)
        with pytest.raises(ConvergenceFailure,
                           match=f"within {len(sweeps) - 1} sweeps"):
            lasso_fit(X, y, 0.05)

    def test_argument_validation(self):
        X, y = random_design(1)
        with pytest.raises(ValueError):
            lasso_fit(X, y, -0.1)
        with pytest.raises(DimensionMismatch):
            lasso_fit(X, y[:-1], 0.1)

    def test_non_finite_response(self):
        X, y = random_design(1)
        y[3] = math.nan
        with pytest.raises(NonFiniteValue,
                           match="response contains non-finite entries"):
            lasso_fit(X, y, 0.1)

    def test_single_observation(self):
        with pytest.raises(ValueError, match="need at least 2 observations"):
            lasso_fit([[1.0, 2.0]], [1.0], 0.1)


def standardized_design(seed, m, k):
    """Population z-scored lognormal columns: a response and k predictors."""
    rng = np.random.default_rng(seed)
    raw = rng.lognormal(0.0, 0.75, size=(m, k + 1))
    z = (raw - raw.mean(axis=0)) / raw.std(axis=0)
    return z[:, 1:], z[:, 0]


class TestLassoAgainstResidualReference:
    """The Gram-matrix kernel against residual-update coordinate descent.

    Both take the same iterates from the same zero start, so they must stop
    at the same sweep with coefficients equal up to rounding.  Underdetermined
    designs (rows <= predictors) are the late elimination steps of a
    ranking, where convergence is slowest and rounding has longest to grow.
    """

    @pytest.mark.parametrize("m, k, lam", [
        (40, 6, 0.05),     # tall
        (150, 7, 0.1),     # tall, ranking-sized
        (3, 6, 0.1),       # underdetermined
        (4, 6, 0.05),
        (5, 6, 0.02),
        (40, 6, 0.0),      # ordinary least squares
        (5, 6, 0.0),
    ])
    def test_same_sweeps_and_coefficients(self, m, k, lam):
        for seed in range(25):
            X, y = standardized_design(seed, m, k)
            want = list(residual_lasso_sweeps(X, y, lam))
            got = list(_lasso_sweeps(X, y, lam))
            assert len(got) == len(want), f"seed {seed}"
            assert got[-1] == pytest.approx(want[-1], rel=0, abs=1e-10)
            assert lasso_fit(X, y, lam) == got[-1]


# ---------------------------------------------------------------------------
# rk4_integrate
# ---------------------------------------------------------------------------

#: y' = (u, 0): u grows as e^t and v stays put.
GROWTH = ((1.0, 0.0), (0.0, 0.0))
ZERO = ((0.0, 0.0), (0.0, 0.0))


def rk4_outcome(integrate, *args):
    """The returned trajectory, or the type and message of the error."""
    try:
        return integrate(*args)
    except NonFiniteState as exc:
        return type(exc), str(exc)


def matrix_field(m):
    (m11, m12), (m21, m22) = m
    return lambda s: (m11 * s[0] + m12 * s[1], m21 * s[0] + m22 * s[1])


class TestRk4:
    def test_exponential_growth(self):
        out = rk4_integrate(GROWTH, (1.0, 0.0), 1.0, 1e-3)
        t_end, (u, _) = out[-1]
        assert t_end == 1.0
        assert abs(u - math.e) <= 1e-10

    def test_fourth_order_convergence(self):
        def err(h):
            out = rk4_integrate(GROWTH, (1.0, 0.0), 1.0, h)
            return abs(out[-1][1][0] - math.e)

        ratio = err(0.05) / err(0.025)
        assert 15.0 <= ratio <= 17.0

    def test_zero_field_is_constant(self):
        out = rk4_integrate(ZERO, (2.5, -1.5), 3.0, 0.7)
        assert all(state == (2.5, -1.5) for _, state in out)
        assert out[-1][0] == 3.0

    def test_partial_final_step_lands_exactly(self):
        out = rk4_integrate(GROWTH, (1.0, 0.0), 0.35, 0.1)
        times = [t for t, _ in out]
        assert times[-1] == 0.35
        assert abs(out[-1][1][0] - math.exp(0.35)) <= 1e-6

    def test_end_far_below_one_step_is_one_short_step(self):
        # t_end < 1e-9 * step once fell between the whole steps and the
        # shortened one, and only t=0 came back
        out = rk4_integrate(GROWTH, (1.0, 0.0), 1e-12, 1.0)
        assert [t for t, _ in out] == [0.0, 1e-12]
        assert out[-1][1] == pytest.approx((math.exp(1e-12), 0.0),
                                           rel=1e-15)
        assert out == closure_rk4(matrix_field(GROWTH), (1.0, 0.0), 1e-12, 1.0)

    def test_sum_difference_pair_integrates_exactly(self):
        # for u'=bu+av, v'=-(bv+au) the sum couples to the difference:
        # s'=(b-a)d, d'=(a+b)s, hence s''=(b^2-a^2)s with closed form
        # s0 cosh(rt) + (b-a) d0 sinh(rt)/r (complex r handled via real parts)
        rng = np.random.default_rng(23)
        for _ in range(5):
            a, b = rng.uniform(-0.8, 0.8, size=2)
            u0, v0 = rng.uniform(0.2, 1.5, size=2)
            s0, d0 = u0 + v0, u0 - v0
            r = complex(b * b - a * a, 0.0) ** 0.5

            def s_exact(t):
                if abs(r) < 1e-12:
                    return s0 + (b - a) * d0 * t
                val = s0 * np.cosh(r * t) + (b - a) * d0 * np.sinh(r * t) / r
                return float(val.real)

            m = ((float(b), float(a)), (float(-a), float(-b)))
            for t, (u, v) in rk4_integrate(m, (u0, v0), 2.0, 1e-3):
                assert abs((u + v) - s_exact(t)) <= 1e-8 * max(1.0, abs(s_exact(t)))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            rk4_integrate(ZERO, (1.0, 0.0), 0.0, 0.1)
        with pytest.raises(ValueError):
            rk4_integrate(ZERO, (1.0, 0.0), 1.0, -0.1)
        with pytest.raises(NonFiniteState):
            rk4_integrate(ZERO, (math.nan, 0.0), 1.0, 0.1)

    def test_step_count_beyond_float_range(self):
        # any step taken with a NaN matrix would raise NonFiniteState instead
        nan_field = ((math.nan, math.nan), (math.nan, math.nan))
        with pytest.raises(OutOfRange, match="exceeds the float64 range"):
            rk4_integrate(nan_field, (1.0, 0.0), 1e308, 1e-300)

    def test_step_count_above_cap(self):
        # a NaN matrix as above: the cap must raise before the first step
        nan_field = ((math.nan, math.nan), (math.nan, math.nan))
        cap = numerics.RK4_MAX_STEPS
        with pytest.raises(OutOfRange, match="exceeds the cap of 1048576 steps"):
            rk4_integrate(nan_field, (1.0, 0.0), float(cap + 1), 1.0)
        # a shortened final step counts as a step
        with pytest.raises(OutOfRange, match="step count"):
            rk4_integrate(nan_field, (1.0, 0.0), cap + 0.5, 1.0)

    def test_step_count_at_cap(self, monkeypatch):
        monkeypatch.setattr(numerics, "RK4_MAX_STEPS", 100)
        assert len(rk4_integrate(GROWTH, (1.0, 0.0), 100.0, 1.0)) == 101
        assert len(rk4_integrate(GROWTH, (1.0, 0.0), 0.1, 1e-3)) == 101
        with pytest.raises(OutOfRange, match="exceeds the cap of 100 steps"):
            rk4_integrate(GROWTH, (1.0, 0.0), 100.5, 1.0)

    def test_blowup_raises(self):
        # u grows by about (h lambda)^4 / 24 = 4e18 a step and overflows
        # on the sixth
        m = ((1e6, 0.0), (0.0, 0.0))
        with pytest.raises(NonFiniteState) as got:
            rk4_integrate(m, (1e200, 0.0), 1.0, 0.1)
        with pytest.raises(NonFiniteState) as want:
            closure_rk4(matrix_field(m), (1e200, 0.0), 1.0, 0.1)
        assert str(got.value) == str(want.value)
        assert str(got.value).endswith(f"t={6 * 0.1!r}")

    def test_blowup_on_last_whole_step_names_the_step_time(self):
        """The last whole step is recorded at t_end = 0.3, but an overflow
        on it names the t the step reached, 3 * 0.1, as the reference does."""
        m = ((2.0, 0.0), (0.0, -2.0))
        y0 = (1.1079719796608072e307, 1.1079719796608072e307)
        assert rk4_integrate(m, y0, 0.2, 0.1)[-1][0] == 0.2
        with pytest.raises(NonFiniteState) as got:
            rk4_integrate(m, y0, 0.3, 0.1)
        with pytest.raises(NonFiniteState) as want:
            closure_rk4(matrix_field(m), y0, 0.3, 0.1)
        assert str(got.value) == str(want.value)
        assert str(got.value).endswith(f"t={3 * 0.1!r}")

    @given(
        m=st.tuples(*[st.floats(min_value=-4.0, max_value=4.0)] * 4),
        y0=st.tuples(*[st.floats(min_value=-10.0, max_value=10.0)
                       | st.floats(min_value=-1e300, max_value=1e300)] * 2),
        t_end=st.floats(min_value=1e-12, max_value=3.0),
        step=st.floats(min_value=1e-3, max_value=1.0),
    )
    @example(m=(0.5, 0.3, -0.3, -0.5), y0=(1.0, 1.0), t_end=0.1, step=0.5)
    @example(m=(0.5, 0.3, -0.3, -0.5), y0=(1.0, 1.0), t_end=0.35, step=0.1)
    @example(m=(0.5, 0.3, -0.3, -0.5), y0=(1.0, 1.0), t_end=0.3, step=0.1)
    @example(m=(0.5, 0.3, -0.3, -0.5), y0=(1.0, 1.0), t_end=1e-12, step=1.0)
    @example(m=(-1.5, 2.0, 0.7, 3.0), y0=(-2.0, 7.5), t_end=3.0, step=1e-3)
    @example(m=(4.0, 4.0, 4.0, 4.0), y0=(1e300, 1e300), t_end=3.0, step=0.5)
    @settings(max_examples=80, deadline=None)
    def test_equal_to_closure_reference(self, m, y0, t_end, step):
        """Pair for pair, times included, the trajectory (or the error) of
        the textbook scheme driven by ``f(y) = M y``: a step longer than
        t_end, a shortened final step, and the snap to t_end alike."""
        matrix = (m[:2], m[2:])
        assert rk4_outcome(rk4_integrate, matrix, y0, t_end, step) == \
            rk4_outcome(closure_rk4, matrix_field(matrix), y0, t_end, step)


# ---------------------------------------------------------------------------
# finite_diff
# ---------------------------------------------------------------------------

class TestFiniteDiff:
    def quadratic_series(self, h=0.1, n_half=15):
        times = [h * (i - n_half) for i in range(2 * n_half + 1)]
        return validate_series(times, [t * t for t in times])

    def test_central_exact_on_quadratic(self):
        series = self.quadratic_series()
        d = finite_diff(series, FdMode.CENTRAL)
        assert len(d) == len(series) - 2
        idx = series.zero_index + 10          # the sample at t = 10 h = 1.0
        assert series.times[idx] == 1.0
        assert d[idx - 1] == pytest.approx(2.0, abs=1e-12)

    def test_forward_biased_on_quadratic(self):
        series = self.quadratic_series()
        d = finite_diff(series, FdMode.FORWARD)
        assert len(d) == len(series) - 1
        idx = series.zero_index + 10
        # forward difference of t^2 at t with step h is 2t + h
        assert d[idx] == pytest.approx(2.1, abs=1e-12)

    def test_central_truncation_factor_on_sine(self):
        h = 0.01
        n_half = 4
        times = [h * (i - n_half) for i in range(2 * n_half + 1)]
        series = validate_series(times, [math.sin(t) for t in times])
        d = finite_diff(series, FdMode.CENTRAL)
        at_zero = d[series.zero_index - 1]
        # sin(h)/h = 1 - h^2/6 + O(h^4)
        assert abs(at_zero - (1.0 - h * h / 6.0)) <= 1e-9

    @pytest.mark.parametrize("mode", list(FdMode))
    def test_returns_float64_array(self, mode):
        d = finite_diff(self.quadratic_series(), mode)
        assert isinstance(d, np.ndarray) and d.dtype == np.float64

    @pytest.mark.parametrize("mode", list(FdMode))
    def test_overflow_gives_inf_quietly(self, mode):
        series = validate_series([-1.0, -0.5, 0.0, 0.5, 1.0],
                                 [-1.7e308, -1e308, 0.0, 1e308, 1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = finite_diff(series, mode)
        assert np.isinf(d).any() and not np.isnan(d).any()
