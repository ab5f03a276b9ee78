"""Kernels: singular values, 2x2 solves, lasso, RK4, finite differences.

Reference values come from sources independent of the implementation and
closed-form solutions.  ``svd_values`` is numpy's LAPACK SVD on a scaled
copy, so ``numpy.linalg`` checks only its scaling and bookkeeping; its
independent reference is a characteristic-polynomial oracle for matrices
with one or two columns, which forms the Gram matrix and solves the
quadratic longhand.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import sys
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    solve_2x2,
    svd_values,
    validate_series,
)
from mirrordde import numerics
from mirrordde.numerics import _lasso_sweeps, lasso_objective

from oracles import (
    charpoly_singular_values,
    closure_rk4,
    dense_lasso_sweeps,
    exact_rk4,
    residual_lasso_sweeps,
    rk4_trajectory,
)
from test_acceptance import TRIPLES


# ---------------------------------------------------------------------------
# _pow2_scaled
# ---------------------------------------------------------------------------

class TestPow2Scaled:
    @given(a=hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=5),
                        elements=st.floats(allow_nan=False,
                                           allow_infinity=False)),
           axis=st.sampled_from([None, 0]),
           zero_col=st.one_of(st.none(), st.integers(0, 4)))
    @example(a=np.array([0.0, -0.0]), axis=None, zero_col=None)
    @example(a=np.array([[1e308, 5e-324], [-1.7e308, 0.0]]), axis=0,
             zero_col=None)
    @settings(max_examples=300, deadline=None)
    def test_largest_entry_lands_in_half_open_unit_and_scales_back(
            self, a, axis, zero_col):
        if zero_col is not None and a.ndim == 2:
            a[:, zero_col % a.shape[1]] = 0.0
        scaled, e = numerics._pow2_scaled(a, axis=axis)
        top = np.abs(a).max(axis=axis)
        peak = np.abs(scaled).max(axis=axis)
        zero = top == 0.0
        assert (np.asarray(e)[zero] == 0).all()
        assert ((0.5 <= peak) & (peak < 1.0))[~zero].all()
        # entries at least 2**-1021 times the largest stay normal when scaled
        exact = np.abs(a) >= np.ldexp(top, -1021)
        assert np.ldexp(scaled, e)[exact].tobytes() == a[exact].tobytes()

    def test_one_binade_lower_can_round(self):
        # 1.5 scales by 2**-1, which takes an entry just above 1.5 * 2**-1022
        # into the subnormals, where its last bit is lost
        x = math.ldexp(1.5, -1022) + math.ldexp(1.0, -1074)
        scaled, e = numerics._pow2_scaled(np.array([1.5, x]))
        assert e == 1
        assert np.ldexp(scaled, e)[1] != x


# ---------------------------------------------------------------------------
# svd_values
# ---------------------------------------------------------------------------

class TestSvdValues:
    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteValue):
            svd_values([[1.0, math.nan], [0.0, 1.0]])

    def test_one_dimensional_rejected(self):
        with pytest.raises(DimensionMismatch,
                           match=r"expected a 2-d array, got shape \(3,\)"):
            svd_values([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_rejected(self, shape):
        with pytest.raises(ValueError, match="matrix must be non-empty"):
            svd_values(np.zeros(shape))

    def test_lapack_failure_is_convergence_failure(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        a = np.random.default_rng(3).standard_normal((5, 4))
        with pytest.raises(ConvergenceFailure, match="SVD did not converge"):
            svd_values(a)

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
           cols=st.integers(min_value=1, max_value=2),
           transpose=st.booleans(),
           k=st.integers(min_value=-1000, max_value=1000))
    @settings(max_examples=60, deadline=None)
    def test_against_charpoly_across_scales(self, seed, rows, cols,
                                            transpose, k):
        a = np.random.default_rng(seed).uniform(-5.0, 5.0, size=(rows, cols))
        if transpose:
            a = a.T
        want = charpoly_singular_values(a)
        # the oracle's smaller value is a difference of Gram terms: it keeps
        # about 16 - 2*log10(cond) digits, so ill-conditioned draws say little
        assume(want[-1] >= 1e-3 * want[0])
        got = svd_values(np.ldexp(a, k))
        assert got == pytest.approx([math.ldexp(s, k) for s in want],
                                    rel=1e-9, abs=0.0)

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

    def test_row_norms_whose_product_overflows(self):
        # |det| = 6.9e307 against 1e-12 times a product of 2.7e308
        x, y = solve_2x2(1e154, 1.3e154, 1.3e154, 1e154, 1.0, 2.0)
        assert (x, y) == (2.3188405797101453e-154, -1.0144927536231889e-154)

    def test_non_finite_solution_is_typed(self):
        # det = 1e-300 passes the relative test; x = 1e10 / 1e-300 = inf
        with pytest.raises(NonFiniteValue, match=(
                r"^2x2 solution \(inf, 1\.0\) of right-hand side "
                r"\(10000000000\.0, 1\) overflows float64$")):
            solve_2x2(1e-300, 0, 0, 1, 1e10, 1)
        with pytest.raises(NonFiniteValue, match=r"\(nan, 1\.0\)"):
            solve_2x2(1.0, 0.0, 0.0, 1.0, math.nan, 1.0)

    def test_zero_row_under_an_overflowing_norm_is_singular(self):
        with pytest.raises(SingularSystem, match=r"\(det=0\.0\)"):
            solve_2x2(1.5e308, 1.5e308, 0.0, 0.0, 1.0, 1.0)

    def test_zero_first_row_under_an_overflowing_norm_is_singular(self):
        # the tolerance is 0 * inf = nan here; this once divided by det = 0
        with pytest.raises(SingularSystem, match=r"\(det=0\.0\)"):
            solve_2x2(0.0, 0.0, 1e308, 1.7976931348623157e308, 0.0, 0.0)

    @given(m=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                      min_size=4, max_size=4),
           near=st.floats(min_value=-4e-12, max_value=4e-12),
           pair=st.sampled_from(["free", "near"]))
    @settings(max_examples=300, deadline=None)
    def test_decision_is_the_textbook_one_wherever_that_is_finite(self, m,
                                                                  near, pair):
        m11, m12, m21, m22 = m
        if pair == "near" and m11 != 0.0:
            m22 = m12 * m21 / m11 * (1.0 + near)  # det near the threshold
        det = m11 * m22 - m12 * m21
        scale = math.hypot(m11, m12) * math.hypot(m21, m22)
        assume(math.isfinite(scale))
        if not math.isfinite(det) or abs(det) <= 1e-12 * scale:
            with pytest.raises(SingularSystem):
                solve_2x2(m11, m12, m21, m22, 1.0, -1.0)
            return
        want = ((1.0 * m22 - m12 * -1.0) / det, (m11 * -1.0 - m21 * 1.0) / det)
        if all(map(math.isfinite, want)):
            assert solve_2x2(m11, m12, m21, m22, 1.0, -1.0) == want
        else:
            with pytest.raises(NonFiniteValue, match="overflows float64"):
                solve_2x2(m11, m12, m21, m22, 1.0, -1.0)

    @given(mantissas=st.lists(st.floats(1.0, 2.0, exclude_max=True),
                              min_size=6, max_size=6),
           signs=st.lists(st.booleans(), min_size=6, max_size=6),
           powers=st.lists(st.integers(-300, 300), min_size=6, max_size=6),
           near=st.one_of(st.none(), st.none(), st.floats(-1e-3, 1e-3)))
    @settings(max_examples=400, deadline=None)
    def test_within_first_order_cramer_error_of_exact(self, mantissas, signs,
                                                      powers, near):
        """Each component is within the first-order error of Cramer's rule,
        measured against the exact rational solution of the same floats."""
        m11, m12, m21, m22, r1, r2 = (
            math.ldexp(-u if neg else u, k)
            for u, neg, k in zip(mantissas, signs, powers))
        if near is not None:
            # a second row nearly proportional to the first: det near 0
            m21, m22 = m11 * r1, m12 * r1 * (1.0 + near)
        try:
            got = solve_2x2(m11, m12, m21, m22, r1, r2)
        except SingularSystem:
            return
        f11, f12, f21, f22, g1, g2 = map(Fraction,
                                         (m11, m12, m21, m22, r1, r2))
        det = f11 * f22 - f12 * f21
        exact = ((g1 * f22 - f12 * g2) / det, (f11 * g2 - f21 * g1) / det)
        eps, tiny = Fraction(1, 2**53), Fraction(1, 2**1074)
        gram = abs(f11 * f22) + abs(f12 * f21)
        for x_hat, x, terms in zip(got, exact,
                                   (abs(g1 * f22) + abs(f12 * g2),
                                    abs(f11 * g2) + abs(f21 * g1))):
            bound = 4 * eps * (terms + abs(x) * gram) / abs(det) + 4 * tiny
            assert abs(Fraction(x_hat) - x) <= bound

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
        # a fit that converges at sweep N returns the last of the N sweeps
        # under a cap of N and raises under N - 1
        X, y = random_design(7, m=20, k=3)
        sweeps = list(_lasso_sweeps(X, y, 0.05))
        assert len(sweeps) > 1
        monkeypatch.setattr(numerics, "LASSO_MAX_SWEEPS", len(sweeps))
        assert hex_sweeps([lasso_fit(X, y, 0.05)]) == hex_sweeps(sweeps[-1:])
        monkeypatch.setattr(numerics, "LASSO_MAX_SWEEPS", len(sweeps) - 1)
        with pytest.raises(ConvergenceFailure) as info:
            lasso_fit(X, y, 0.05)
        assert str(info.value) == (f"coordinate descent did not converge "
                                   f"within {len(sweeps) - 1} sweeps")

    def test_sweep_cap_is_inclusive_in_the_loop(self, monkeypatch):
        # the same boundary in the loop over the nonzero coefficients
        with loop_kernels_only():
            self.test_sweep_cap_is_inclusive(monkeypatch)
            assert numerics._sweep_kernel(3) is numerics._nonzero_sweeps

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

    def test_overflowing_gram_product(self):
        # the first column's sum of squares overflows; numpy's matmul
        # warning would be an error here
        X = np.random.default_rng(0).normal(size=(6, 3))
        X[:, 0] *= 1e160
        y = np.random.default_rng(1).normal(size=6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue,
                               match=r"X\^T X or X\^T y overflows float64"):
                lasso_fit(X, y, 0.1)

    @pytest.mark.parametrize("X, lam", [
        ([[1e-150], [-1e-150]], 0.1),
        ([[1e-150, 1.0], [-1e-150, 2.0]], 0.0),
    ])
    def test_overflowing_coefficient(self, X, lam):
        # G and c are finite, but the minimizer is about 1e450
        with pytest.raises(NonFiniteValue,
                           match="^a coefficient overflows float64$"):
            lasso_fit(X, [1e300, -1e300], lam)


class TestLassoObjective:
    def test_value_of_a_hand_example(self):
        # residuals (0, -2), so 4 / 4, plus 0.1 * (1 + 2)
        got = lasso_objective([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0], 0.1,
                              [1.0, 2.0])
        assert got == 1.0 + 0.1 * 3.0

    def test_overflow_raises_without_a_warning(self):
        # the residual 2e200 is finite, its square is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match="overflows float64"):
                lasso_objective([[1e200]], [1e200], 0.1, [-1e200])

    def test_square_sum_that_overflows_before_the_division(self):
        # the residual -1.5e154 squares to about 2.25e308, beyond float64,
        # but half of it is not: the value is the exact square of the float
        # residual the plain expression forms, rounded once, then halved
        resid = 1.5 * 1e154
        want = float(Fraction(resid) ** 2 / 2)
        assert want == 1.1250000000000002e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lasso_objective([[1e154]], [0.0], 0.0, [1.5])
        assert got.hex() == want.hex()

    def test_l1_norm_that_overflows_before_the_penalty_weight(self):
        # |w|_1 = 2e308 overflows, lam * |w|_1 = 1e308 does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lasso_objective([[0.0, 0.0]], [0.0], 0.5, [1e308, 1e308])
        assert got.hex() == (1e308).hex()
        assert got == float(Fraction(1, 2) * 2 * Fraction(1e308))

    def test_objective_beyond_float64_still_raises(self):
        # 1.125e308 + 1.5e308: each term is finite once scaled, their sum
        # is not
        with pytest.raises(NonFiniteValue, match="overflows float64"):
            lasso_objective([[1e154]], [0.0], 1e308, [1.5])
        # a residual entry of -1e310
        with pytest.raises(NonFiniteValue, match="overflows float64"):
            lasso_objective([[1e300]], [0.0], 0.0, [1e10])

    @pytest.mark.parametrize("y, w, error, match", [
        ([math.nan, 1.0], [1.0], NonFiniteValue,
         "response contains non-finite"),
        ([1.0, 2.0], [math.inf], NonFiniteValue,
         "coefficient vector contains non-finite"),
        ([1.0, 2.0], [1.0, 2.0], DimensionMismatch,
         r"coefficient vector of shape \(2,\) does not match"),
        ([1.0, 2.0, 3.0], [1.0], DimensionMismatch,
         r"response of shape \(3,\) does not match"),
    ])
    def test_inputs_checked_as_lasso_fit_checks_them(self, y, w, error,
                                                     match):
        with pytest.raises(error, match=match):
            lasso_objective([[1.0], [2.0]], y, 0.1, w)

    @pytest.mark.parametrize("lam", [-0.1, math.inf, math.nan])
    def test_penalty_weight_checked(self, lam):
        with pytest.raises(OutOfRange):
            lasso_objective([[1.0], [2.0]], [1.0, 2.0], lam, [1.0])


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


def drawn_design(m, k, seed, standardized, zero_col, dup_col):
    """A seeded normal design and response, optionally z-scored, with the
    last column a copy of the first and/or the middle column zeroed."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, k))
    y = rng.standard_normal(m)
    if standardized:
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        y = (y - y.mean()) / y.std()
    if dup_col and k > 1:
        X[:, k - 1] = X[:, 0]
    if zero_col and k > 1:
        X[:, k // 2] = 0.0
    return X, y


def hex_sweeps(sweeps):
    return [[v.hex() for v in w] for w in sweeps]


@contextlib.contextmanager
def loop_kernels_only():
    """Every width runs in the loop over nonzero coefficients inside: the
    widest generated kernel is 0 columns, and ``_sweep_kernel``'s cache is
    emptied on entry and on exit, so no choice made under the patch
    outlives it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numerics, "SWEEP_KERNEL_MAX_K", 0)
        numerics._sweep_kernel.cache_clear()
        try:
            yield
        finally:
            numerics._sweep_kernel.cache_clear()


#: Sweeps compared per drawn problem; the slow m < k, lam = 0 draws would
#: otherwise run to the 10 000-sweep cap on both kernels.
SWEEP_WINDOW = 2000

#: A design where coefficient 1 leaves zero, returns to it and leaves again
#: within 9 sweeps.
REENTRY = dict(m=8, k=5, seed=6, standardized=False, zero_col=False,
               dup_col=False, lam=0.1)


class TestLassoAgainstDenseKernel:
    """The straight-line kernel built for each column count, against the
    dense kernel written as loops: the same iterates to the bit.

    Both subtract ``G_ji * w_i`` in ascending i; the dense kernel also
    subtracts its zeroed diagonal's ``0.0 * w_j``, a signed zero, which
    leaves every nonzero partial sum as it is, and a zero correlation
    thresholds to 0.0 whatever its sign, so no entry of any sweep may
    differ.  A column with zero sum of squares never moves from 0.0 in
    either.  Kernels are generated per k, so k covers every size that gets
    one, and ten sizes past it, which run the loop over the nonzero
    coefficients and must give the same bits too.  With ``loop`` drawn, the
    width bound is patched to 0, so the loop runs at every k from 1, on the
    same prepared inputs, and no kernel is built.
    """

    @given(m=st.integers(2, 30),
           k=st.integers(1, numerics.SWEEP_KERNEL_MAX_K + 10),
           seed=st.integers(0, 2**32 - 1), standardized=st.booleans(),
           zero_col=st.booleans(), dup_col=st.booleans(),
           lam=st.just(0.0) | st.floats(0.0, 1.0),
           cap=st.none() | st.integers(1, 5), loop=st.booleans())
    @example(**REENTRY, cap=None, loop=False)
    @example(**REENTRY, cap=None, loop=True)
    @example(m=5, k=6, seed=1, standardized=True, zero_col=False,
             dup_col=False, lam=0.0, cap=3, loop=False)
    @example(m=5, k=6, seed=1, standardized=True, zero_col=False,
             dup_col=False, lam=0.0, cap=3, loop=True)
    @settings(deadline=None)
    def test_same_sweeps_bitwise(self, m, k, seed, standardized, zero_col,
                                 dup_col, lam, cap, loop):
        # hypothesis reuses fixtures across examples, so patch per example
        with loop_kernels_only() if loop else contextlib.nullcontext():
            self.check_same_sweeps(m, k, seed, standardized, zero_col,
                                   dup_col, lam, cap)
            if loop:
                assert numerics._sweep_kernel(k) is numerics._nonzero_sweeps
                assert numerics._sweep_kernel.cache_info().currsize == 1

    @staticmethod
    def check_same_sweeps(m, k, seed, standardized, zero_col, dup_col, lam,
                          cap):
        X, y = drawn_design(m, k, seed, standardized, zero_col, dup_col)
        want = list(itertools.islice(dense_lasso_sweeps(X, y, lam),
                                     SWEEP_WINDOW))
        got = list(itertools.islice(_lasso_sweeps(X, y, lam), SWEEP_WINDOW))
        assert len(got) == len(want)
        assert hex_sweeps(got) == hex_sweeps(want)
        if cap is None:
            return
        # lasso_fit makes one kernel call with the cap as its budget, and
        # stops where the dense kernel stands after as many sweeps
        seen = []
        prepare = numerics._lasso_inputs

        def recorded(X, y):
            kernel, inputs = prepare(X, y)

            def run(*args):
                seen.append(kernel(*args))
                return seen[-1]

            return run, inputs

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(numerics, "LASSO_MAX_SWEEPS", cap)
            patch.setattr(numerics, "_lasso_inputs", recorded)
            if len(want) <= cap:
                assert hex_sweeps([lasso_fit(X, y, lam)]) == hex_sweeps(want[-1:])
                assert [converged for _, converged in seen] == [True]
                return
            with pytest.raises(ConvergenceFailure) as info:
                lasso_fit(X, y, lam)
        assert str(info.value) == (
            f"coordinate descent did not converge within {cap} sweeps")
        assert [converged for _, converged in seen] == [False]
        assert hex_sweeps([seen[0][0]]) == hex_sweeps(want[cap - 1:cap])

    def test_reentry_example_leaves_zero_twice(self):
        """In the first example above one coefficient leaves zero, returns
        to it and leaves again, so the terms it adds to the other
        coordinates' sums switch between signed zeros and nonzero values
        three times."""
        args = dict(REENTRY)
        lam = args.pop("lam")
        X, y = drawn_design(**args)
        path = [0.0] + [w[1] for w in _lasso_sweeps(X, y, lam)]
        moves = [(a == 0.0) != (b == 0.0) for a, b in zip(path, path[1:])]
        assert sum(moves) >= 3 and path[-1] != 0.0

    @pytest.mark.parametrize("k", [4, numerics.SWEEP_KERNEL_MAX_K + 4])
    def test_column_whose_squares_underflow_keeps_zero(self, k):
        """Entries of 1e-170 square to 0.0, so the column's sum of squares
        is zero while its correlation and Gram row are not: the generated
        kernel and the loop must both leave its coefficient at 0.0, which
        its infinite scale does, without dividing by zero."""
        X, y = drawn_design(9, k, 3, False, False, False)
        X[:, 2] = 1e-170 * np.arange(1, 10)
        for lam in (0.0, 0.1):
            want = list(dense_lasso_sweeps(X, y, lam))
            got = list(_lasso_sweeps(X, y, lam))
            assert hex_sweeps(got) == hex_sweeps(want)
            assert all(w[2].hex() == "0x0.0p+0" for w in got)


class TestKernelBudget:
    """A kernel call with a budget of b sweeps is b chained calls with a
    budget of one, each from the previous iterate, to the bit: a sweep
    reads only its inputs and the iterate it starts from, and the loop over
    the nonzero coefficients rebuilds its index list from that iterate.
    ``_lasso_sweeps`` is such a chain and ``lasso_fit`` one long call, so
    this is what lets C12's sweeps stand for the fit's."""

    @given(m=st.integers(2, 30),
           k=st.integers(1, numerics.SWEEP_KERNEL_MAX_K + 10),
           seed=st.integers(0, 2**32 - 1), standardized=st.booleans(),
           zero_col=st.booleans(), dup_col=st.booleans(),
           lam=st.sampled_from([0.0, 0.05, 0.1]))
    @example(**REENTRY)
    @example(m=5, k=6, seed=1, standardized=True, zero_col=True,
             dup_col=False, lam=0.0)
    @example(m=9, k=numerics.SWEEP_KERNEL_MAX_K + 4, seed=3,
             standardized=False, zero_col=True, dup_col=True, lam=0.05)
    @settings(deadline=None)
    def test_one_call_is_chained_single_sweeps(self, m, k, seed, standardized,
                                               zero_col, dup_col, lam):
        X, y = drawn_design(m, k, seed, standardized, zero_col, dup_col)
        kernel, inputs = numerics._lasso_inputs(X, y)
        assert (kernel is numerics._nonzero_sweeps) == (
            k > numerics.SWEEP_KERNEL_MAX_K)
        start = [0.0] * k
        w, converged = kernel(start, *inputs, lam, numerics.LASSO_TOL,
                              SWEEP_WINDOW)
        chained, done, count = start, False, 0
        while not done and count < SWEEP_WINDOW:
            chained, done = kernel(chained, *inputs, lam, numerics.LASSO_TOL,
                                   1)
            count += 1
        assert start == [0.0] * k  # the start vector is only read
        assert (hex_sweeps([w]), converged) == (hex_sweeps([chained]), done)
        if zero_col and k > 1:
            assert w[k // 2].hex() == "0x0.0p+0"

    @pytest.mark.parametrize("k", [3, numerics.SWEEP_KERNEL_MAX_K + 2])
    def test_zero_budget_returns_the_start_unconverged(self, k):
        X, y = drawn_design(12, k, 0, True, False, False)
        kernel, inputs = numerics._lasso_inputs(X, y)
        start = [0.5] * k
        w, converged = kernel(start, *inputs, 0.1, numerics.LASSO_TOL, 0)
        assert (w, converged) == (start, False) and w is not start


class TestSweepKernelCache:
    """Sweep kernels are chosen and generated on first use, once per column
    count, and wider designs get the loop over nonzero coefficients."""

    def test_each_column_count_is_built_once(self):
        numerics._sweep_kernel.cache_clear()
        X, y = drawn_design(12, 5, 0, True, False, False)
        first = lasso_fit(X[:, :3], y, 0.1)
        built = numerics._sweep_kernel(3)
        assert numerics._sweep_kernel.cache_info().currsize == 1
        assert lasso_fit(X[:, :3], y, 0.1) == first
        lasso_fit(X, y, 0.1)
        assert numerics._sweep_kernel.cache_info().currsize == 2
        assert numerics._sweep_kernel(3) is built
        assert built is not numerics._nonzero_sweeps
        assert numerics._sweep_kernel.cache_info().misses == 2

    def test_wider_designs_build_none(self):
        numerics._sweep_kernel.cache_clear()
        wide = numerics.SWEEP_KERNEL_MAX_K + 1
        X, y = drawn_design(2 * wide, wide, 0, True, False, False)
        lasso_fit(X[:, :-1], y, 0.1)
        assert numerics._sweep_kernel(wide - 1) is not numerics._nonzero_sweeps
        lasso_fit(X, y, 0.1)
        assert numerics._sweep_kernel(wide) is numerics._nonzero_sweeps
        assert numerics._sweep_kernel.cache_info().misses == 2


# ---------------------------------------------------------------------------
# _rk4_blocks, collected into one list by rk4_trajectory
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
        out = rk4_trajectory(GROWTH, (1.0, 0.0), 1.0, 1e-3)
        t_end, (u, _) = out[-1]
        assert t_end == 1.0
        assert abs(u - math.e) <= 1e-10

    def test_fourth_order_convergence(self):
        def err(h):
            out = rk4_trajectory(GROWTH, (1.0, 0.0), 1.0, h)
            return abs(out[-1][1][0] - math.e)

        ratio = err(0.05) / err(0.025)
        assert 15.0 <= ratio <= 17.0

    def test_zero_field_is_constant(self):
        out = rk4_trajectory(ZERO, (2.5, -1.5), 3.0, 0.7)
        assert all(state == (2.5, -1.5) for _, state in out)
        assert out[-1][0] == 3.0

    def test_partial_final_step_lands_exactly(self):
        out = rk4_trajectory(GROWTH, (1.0, 0.0), 0.35, 0.1)
        times = [t for t, _ in out]
        assert times[-1] == 0.35
        assert abs(out[-1][1][0] - math.exp(0.35)) <= 1e-6

    def test_end_far_below_one_step_is_one_short_step(self):
        # t_end < 1e-9 * step once fell between the whole steps and the
        # shortened one, and only t=0 came back
        out = rk4_trajectory(GROWTH, (1.0, 0.0), 1e-12, 1.0)
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
            for t, (u, v) in rk4_trajectory(m, (u0, v0), 2.0, 1e-3):
                assert abs((u + v) - s_exact(t)) <= 1e-8 * max(1.0, abs(s_exact(t)))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            rk4_trajectory(ZERO, (1.0, 0.0), 0.0, 0.1)
        with pytest.raises(ValueError):
            rk4_trajectory(ZERO, (1.0, 0.0), 1.0, -0.1)
        with pytest.raises(NonFiniteState):
            rk4_trajectory(ZERO, (math.nan, 0.0), 1.0, 0.1)

    def test_step_count_beyond_float_range(self):
        # any step taken with a NaN matrix would raise NonFiniteState instead
        nan_field = ((math.nan, math.nan), (math.nan, math.nan))
        with pytest.raises(OutOfRange, match="exceeds the float64 range"):
            rk4_trajectory(nan_field, (1.0, 0.0), 1e308, 1e-300)

    def test_step_count_above_cap(self):
        # a NaN matrix as above: the cap must raise before the first step
        nan_field = ((math.nan, math.nan), (math.nan, math.nan))
        cap = numerics.RK4_MAX_STEPS
        with pytest.raises(OutOfRange, match="exceeds the cap of 1048576 steps"):
            rk4_trajectory(nan_field, (1.0, 0.0), float(cap + 1), 1.0)
        # a shortened final step counts as a step
        with pytest.raises(OutOfRange, match="step count"):
            rk4_trajectory(nan_field, (1.0, 0.0), cap + 0.5, 1.0)

    def test_step_count_at_cap(self, monkeypatch):
        monkeypatch.setattr(numerics, "RK4_MAX_STEPS", 100)
        assert len(rk4_trajectory(GROWTH, (1.0, 0.0), 100.0, 1.0)) == 101
        assert len(rk4_trajectory(GROWTH, (1.0, 0.0), 0.1, 1e-3)) == 101
        with pytest.raises(OutOfRange, match="exceeds the cap of 100 steps"):
            rk4_trajectory(GROWTH, (1.0, 0.0), 100.5, 1.0)

    def test_blowup_raises(self):
        # u grows by about (h lambda)^4 / 24 = 4e18 a step and overflows
        # on the sixth
        m = ((1e6, 0.0), (0.0, 0.0))
        with pytest.raises(NonFiniteState) as got:
            rk4_trajectory(m, (1e200, 0.0), 1.0, 0.1)
        with pytest.raises(NonFiniteState) as want:
            closure_rk4(matrix_field(m), (1e200, 0.0), 1.0, 0.1)
        assert str(got.value) == str(want.value)
        assert str(got.value).endswith(f"t={6 * 0.1!r}")

    def test_state_beyond_a_stage_overflow_is_returned(self):
        """The textbook form's ``2.0 * k2u`` overflows on the third step
        here, so its reference raises, but the RK4 state there, 2.0188e307,
        is representable: the kernel returns it as exact RK4 rounds it."""
        m = ((2.0, 0.0), (0.0, -2.0))
        y0 = (1.1079719796608072e307, 1.1079719796608072e307)
        with pytest.raises(NonFiniteState):
            closure_rk4(matrix_field(m), y0, 0.3, 0.1)
        t, (u, _) = rk4_trajectory(m, y0, 0.3, 0.1)[-1]
        assert t == 0.3 and 2.0188e307 < u < 2.0189e307
        assert u == pytest.approx(float(exact_rk4(m, y0, 0.3, 0.1)[-1][1][0]),
                                  rel=2.0 ** -50)

    def test_blowup_on_last_whole_step_names_the_step_time(self):
        """The last whole step is recorded at t_end = 0.3, but an overflow
        on it names the t the step reached, 3 * 0.1; exact RK4 leaves the
        float64 range on that step and not before."""
        m = ((2.0, 0.0), (0.0, -2.0))
        y0 = (1e308, 1e308)
        sizes = [u for _, (u, _) in exact_rk4(m, y0, 0.3, 0.1)]
        assert sizes[2] < sys.float_info.max < sizes[3]
        assert rk4_trajectory(m, y0, 0.2, 0.1)[-1][0] == 0.2
        with pytest.raises(NonFiniteState) as got:
            rk4_trajectory(m, y0, 0.3, 0.1)
        assert str(got.value).endswith(f"t={3 * 0.1!r}")

    def test_non_finite_propagator_raises_before_any_step(self):
        """|h M| near 1e77 makes (hM)**4 / 24 overflow: OutOfRange, even
        for a zero state that no step would move.  Only the steps taken
        count: a t_end below one step builds the shortened step's alone."""
        m = ((0.0, 0.0), (0.0, 1e100))
        for t_end in (1.0, 2.5):
            with pytest.raises(OutOfRange, match="leaves the float64 range"):
                rk4_trajectory(m, (0.0, 0.0), t_end, 1.0)
        assert rk4_trajectory(m, (0.0, 0.0), 1e-40, 1.0) == \
            [(0.0, (0.0, 0.0)), (1e-40, (0.0, 0.0))]

    @given(m=st.tuples(*[st.floats(min_value=-4.0, max_value=4.0)] * 4),
           h=st.floats(min_value=2.0 ** -30, max_value=1.0)
           | st.floats(min_value=5e-324, max_value=1e-300))
    @example(m=(1.0, 0.999, -0.999, -1.0), h=1.0)
    @settings(max_examples=100, deadline=None)
    def test_increment_is_exact_to_two_floats(self, m, h):
        """The propagator's increment comes back as E = Z + Z**2/2 +
        Z**3/6 + Z**4/24 (Z = hM, summed as a series in fractions, not in
        Horner's form) rounded to the nearest float, and E minus that
        rounded to the nearest float."""
        z = [[Fraction(h) * Fraction(x) for x in row] for row in (m[:2], m[2:])]

        def times(a, b):
            return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in (0, 1)]
                    for i in (0, 1)]

        z2 = times(z, z)
        z3 = times(z2, z)
        z4 = times(z3, z)
        e = [z[i][j] + z2[i][j] / 2 + z3[i][j] / 6 + z4[i][j] / 24
             for i in (0, 1) for j in (0, 1)]
        hi, lo = numerics._rk4_increment((m[:2], m[2:]), h)
        assert hi == tuple(map(float, e))
        assert lo == tuple(float(x - Fraction(y)) for x, y in zip(e, hi))

    def test_near_defective_matrix_over_many_coarse_steps(self):
        """M = ((1, 0.999), (-0.999, -1)) is nearly defective (M**2 is
        0.002 I), and 300 steps of h = 1 stay within 2**-43 of exact RK4,
        relative to the largest |y|: a rounded E, whose error every step
        repeats, misses by 5x (5.5e-13)."""
        m = ((1.0, 0.999), (-0.999, -1.0))
        got = rk4_trajectory(m, (1.0, 1.0), 300.0, 1.0)
        exact = exact_rk4(m, (1.0, 1.0), 300.0, 1.0)
        gap = max(max(abs(u - eu), abs(v - ev)) / max(abs(eu), abs(ev))
                  for (_, (u, v)), (_, (eu, ev)) in zip(got, exact))
        assert gap <= 2.0 ** -43

    def test_within_2_49_of_exact_rk4_on_c01_pairs(self):
        """On C01's 20 seeded pairs (the mirror system, step 1e-3 to t = 5)
        every state is within 2**-49 of exact-arithmetic RK4, relative to
        max(1, |u|, |v|) of the exact state.  The textbook stage form
        misses this by up to 4x (6.8e-15); the increment form stays below
        3.3e-16."""
        worst = 0.0
        for a, b, p0 in TRIPLES:
            m = ((b, a), (-a, -b))
            got = rk4_trajectory(m, (p0, p0), 5.0, 1e-3)
            exact = exact_rk4(m, (p0, p0), 5.0, 1e-3)
            assert [t for t, _ in got] == [t for t, _ in exact]
            for (_, (u, v)), (_, (eu, ev)) in zip(got, exact):
                gap = max(abs(u - eu), abs(v - ev)) / max(1, abs(eu), abs(ev))
                worst = max(worst, float(gap))
        assert worst <= 2.0 ** -49

    @pytest.mark.parametrize("block", [1, 7, 256])
    @pytest.mark.parametrize("t_end, step", [(3.0, 0.1), (0.35, 0.1),
                                             (1e-12, 1.0), (2.0, 0.25)])
    def test_blocks_tile_the_trajectory(self, monkeypatch, block, t_end,
                                        step):
        """Every block but the last holds RK4_BLOCK_STEPS steps, the first
        also t=0, and together they are the trajectory of one block, bit
        for bit: the compensation carries from block to block."""
        m = ((0.5, 0.3), (-0.3, -0.5))
        monkeypatch.setattr(numerics, "RK4_BLOCK_STEPS",
                            numerics.RK4_MAX_STEPS)
        whole = rk4_trajectory(m, (1.0, 1.0), t_end, step)
        monkeypatch.setattr(numerics, "RK4_BLOCK_STEPS", block)
        blocks = list(numerics._rk4_blocks(m, (1.0, 1.0), t_end, step))
        steps = [len(times) for times, _, _ in blocks]
        steps[0] -= 1
        assert steps[:-1] == [block] * (len(steps) - 1)
        assert 1 <= steps[-1] <= block
        assert blocks[0][0][0] == 0.0
        assert [(t, (u, v)) for times, us, vs in blocks
                for t, u, v in zip(times, us, vs)] == whole

    def test_blowup_raises_after_the_blocks_before_it(self, monkeypatch):
        # as in test_blowup_raises: the state overflows on the sixth step
        monkeypatch.setattr(numerics, "RK4_BLOCK_STEPS", 2)
        blocks = numerics._rk4_blocks(((1e6, 0.0), (0.0, 0.0)), (1e200, 0.0),
                                      1.0, 0.1)
        assert [times for times, _, _ in itertools.islice(blocks, 2)] == \
            [[0.0, 0.1, 0.2], [0.30000000000000004, 0.4]]
        with pytest.raises(NonFiniteState, match=f"t={6 * 0.1!r}"):
            next(blocks)

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
    def test_close_to_closure_reference(self, m, y0, t_end, step):
        """The textbook scheme driven by ``f(y) = M y`` gives the same
        times (a step longer than t_end, a shortened final step and the
        snap to t_end alike), and states that differ from the kernel's
        after k steps by at most the rounding bound

            B_k = k rho**k (2**-45 |y0| + 2**-1065)

        in each component, where |y0| is the largest |y0_i|,
        z = step * (largest row sum of |M|) and
        rho = 1 + z + z**2/2 + z**3/6 + z**4/24 >= |R(hM)| for every step
        h <= step.  Each step of either form rounds by less than 2**-47
        rho |y| plus a few subnormal units, and R(hM) carries it on.  Where
        either one overflows, exact-arithmetic RK4 decides instead: the
        kernel raises at a step whose exact state is within B_k of the
        float64 range or beyond it, and at no earlier step."""
        matrix = (m[:2], m[2:])
        got = rk4_outcome(rk4_trajectory, matrix, y0, t_end, step)
        want = rk4_outcome(closure_rk4, matrix_field(matrix), y0, t_end, step)
        if isinstance(got, list) and isinstance(want, list):
            assert [t for t, _ in got] == [t for t, _ in want]
            bounds = rk4_rounding_bounds(matrix, y0, step, len(got))
            for (_, (u, v)), (_, (wu, wv)), bound in zip(got, want, bounds):
                assert abs(u - wu) <= bound and abs(v - wv) <= bound
            return
        exact = exact_rk4(matrix, y0, t_end, step)
        bounds = rk4_rounding_bounds(matrix, y0, step, len(exact))
        sizes = [max(abs(u), abs(v)) for _, (u, v) in exact]
        top = sys.float_info.max
        reached = len(got) if isinstance(got, list) else \
            states_before_error(matrix, y0, t_end, step)
        assert all(size <= top + bound
                   for size, bound in zip(sizes[:reached], bounds))
        if reached < len(exact):
            assert got[0] is NonFiniteState
            assert sizes[reached] >= top - bounds[reached]


def rk4_rounding_bounds(matrix, y0, step, n):
    """B_0 .. B_{n-1} of :meth:`TestRk4.test_close_to_closure_reference`."""
    z = step * max(abs(x) + abs(y) for x, y in matrix)
    rho = 1.0 + z + z * z / 2.0 + z ** 3 / 6.0 + z ** 4 / 24.0
    scale = 2.0 ** -45 * max(map(abs, y0)) + 2.0 ** -1065
    bounds = []
    for k in range(n):
        try:
            bounds.append(k * rho ** k * scale)
        except OverflowError:
            bounds.append(math.inf)
    return bounds


def states_before_error(matrix, y0, t_end, step):
    """How many states the kernel yields before a NonFiniteState."""
    count = 0
    with mock.patch.object(numerics, "RK4_BLOCK_STEPS", 1):
        try:
            for times, _, _ in numerics._rk4_blocks(matrix, y0, t_end, step):
                count += len(times)
        except NonFiniteState:
            pass
    return count


# ---------------------------------------------------------------------------
# finite_diff
# ---------------------------------------------------------------------------

class TestFiniteDiff:
    def quadratic_series(self, h=0.1, n_half=15):
        times = [h * (i - n_half) for i in range(2 * n_half + 1)]
        return validate_series(times, [t * t for t in times])

    def test_unknown_mode(self):
        with pytest.raises(ValueError,
                           match="unknown finite-difference mode: 'central'"):
            finite_diff(self.quadratic_series(), "central")

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
