"""Acceptance gate for the package.

Each test is one release criterion: closed-form/integration agreement,
initial conditions, equation residuals, regime classification, coefficient
recovery (clean and noisy), mode-amplitude inversion, forced solutions,
goodwill spot values, ranking oracle equivalence and structure, the sparse
regression kernel, and CLI round trips.  The terminal summary prints one
pass/fail line per criterion.
"""

from __future__ import annotations

import csv
import json
import math
import warnings

import numpy as np
import pytest

from mirrordde import (
    ControlConfig,
    DdeParams,
    EtaTimeExponential,
    FeatureMatrix,
    NegativeInfluenceWarning,
    RegimeTag,
    SingularSystem,
    ThetaConstant,
    ThetaExponential,
    ThetaLinear,
    base_solution,
    classify,
    control_solution,
    degenerate_solution,
    eta_article,
    fit_ab,
    fit_pipeline,
    modes_to_AB,
    oracle_solution,
    rank_journals,
    svd_values,
    validate_series,
)
from mirrordde.numerics import _lasso_sweeps, lasso_fit, lasso_objective

from helpers import run_cli, run_cli_bytes
from oracles import brute_force_ranking, mp_forced_solution, mp_forcing, \
    mp_substitution_residual


# ---------------------------------------------------------------------------
# shared generators
# ---------------------------------------------------------------------------

def exponential_triples(n, seed):
    """Seeded (a, b, p0) draws safely inside the exponential regime."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        a = rng.uniform(-1.0, 1.0)
        b = rng.uniform(-1.0, 1.0)
        if b * b - a * a > 1e-3:
            out.append((a, b, rng.uniform(0.2, 2.0)))
    return out


def synthetic_series(a, b, p0, half_width=3.0, h=0.05):
    params = DdeParams(a=a, b=b, p0=p0, half_width=half_width)
    n_half = round(half_width / h)
    times = [h * (i - n_half) for i in range(2 * n_half + 1)]
    values = [base_solution(params, t) for t in times]
    return times, values


def load_fixture(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    features = tuple(rows[0][1:])
    names = tuple(row[0] for row in rows[1:])
    data = [[float(cell) for cell in row[1:]] for row in rows[1:]]
    return names, features, data


TRIPLES = exponential_triples(20, seed=20260823)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_c01_closed_form_matches_integration_oracle():
    """Closed form tracks the RK4 oracle within 1e-6 on [-5, 5]."""
    for a, b, p0 in TRIPLES:
        params = DdeParams(a=a, b=b, p0=p0, half_width=5.0)
        samples = list(zip(*oracle_solution(params, t_max=5.0, step=1e-3)))
        worst = 0.0
        for t, p in samples[::100]:            # 101 evenly spaced points
            closed = base_solution(params, t)
            dev = abs(closed - p) / max(1.0, abs(closed))
            worst = max(worst, dev)
        assert worst <= 1e-6
    assert len(samples[::100]) == 101


def test_c02_initial_value_and_slope():
    """p(0) equals p0 exactly and p'(0) equals (a+b) p0 within 1e-6."""
    h = 1e-5
    for a, b, p0 in TRIPLES:
        params = DdeParams(a=a, b=b, p0=p0)
        assert base_solution(params, 0.0) == p0
        slope = (base_solution(params, h) - base_solution(params, -h)) / (2 * h)
        assert abs(slope - (a + b) * p0) <= 1e-6


def test_c03_equation_residual_on_grid():
    """p'(t) - a p(-t) - b p(t) stays below 1e-7 across [-5, 5]."""
    h = 1e-5
    for a, b, p0 in TRIPLES:
        params = DdeParams(a=a, b=b, p0=p0, half_width=5.0)
        for t in np.linspace(-5.0, 5.0, 101):
            slope = (base_solution(params, t + h)
                     - base_solution(params, t - h)) / (2 * h)
            residual = slope - a * base_solution(params, -t) \
                - b * base_solution(params, t)
            assert abs(residual) <= 1e-7


def test_c04_regime_grid_and_degenerate_limit():
    """Classification follows sign(b^2 - a^2); ramp is the r -> 0 limit."""
    values = [s * v for v in (0.1, 0.3, 0.5, 0.7, 0.9) for s in (1, -1)]
    n_degenerate = 0
    for a in values:
        for b in values:
            tag = classify(DdeParams(a=a, b=b, p0=1.0)).tag
            disc = b * b - a * a
            if disc > 0:
                assert tag is RegimeTag.EXPONENTIAL
            elif disc < 0:
                assert tag is RegimeTag.OSCILLATORY
            else:
                assert tag is RegimeTag.DEGENERATE
                n_degenerate += 1
    assert n_degenerate == 20              # b = a and b = -a diagonals

    # the ramp agrees with the two-mode form evaluated at r = 1e-6
    r, total, p0 = 1e-6, 0.8, 1.3
    params = DdeParams(a=0.4, b=0.4, p0=p0)
    for t in (-2.0, -0.5, 0.1, 1.0, 2.5):
        ramp = degenerate_solution(params, t)
        closed = p0 * (math.cosh(r * t) + (total / r) * math.sinh(r * t))
        assert abs(ramp - closed) / abs(closed) <= 1e-4


def test_c05_noise_free_fit_recovery_and_order():
    """Clean fits return a, b, A, B within 1e-3 with second-order bias."""
    a, b, p0 = 0.2, 0.6, 1.0
    times, values = synthetic_series(a, b, p0, half_width=3.0, h=0.05)
    report = fit_pipeline(validate_series(times, values))
    assert abs(report.params.a - a) <= 1e-3
    assert abs(report.params.b - b) <= 1e-3

    # ground-truth amplitudes, assembled by hand from the generator
    r = math.sqrt(b * b - a * a)
    w1 = p0 * (r + a + b) / (2 * r)
    w2 = p0 * (r - a - b) / (2 * r)
    det = a * a - b * b
    true_A = (w1 * a - b * w2) / det
    true_B = (a * w2 - w1 * b) / det
    assert abs(report.modes.A - true_A) <= 1e-3
    assert abs(report.modes.B - true_B) <= 1e-3
    assert report.rss_ab <= 1e-6
    assert report.rss_modes <= 1e-6

    errors = []
    for h in (0.1, 0.05, 0.025):
        times, values = synthetic_series(a, b, p0, half_width=3.0, h=h)
        a_fit, b_fit, _ = fit_ab(validate_series(times, values))
        errors.append(abs(a_fit - a) + abs(b_fit - b))
    assert 3.5 <= errors[0] / errors[1] <= 4.5
    assert 3.5 <= errors[1] / errors[2] <= 4.5


def test_c06_noisy_fit_recovery():
    """Gaussian noise at sigma 0.01 leaves a, b within 5% relative."""
    a, b, p0 = 0.2, 0.6, 1.0
    times, values = synthetic_series(a, b, p0, half_width=3.0, h=0.05)
    noise = np.random.default_rng(42).normal(0.0, 0.01, len(values))
    series = validate_series(times,
                             [float(v + e) for v, e in zip(values, noise)])
    report = fit_pipeline(series)
    assert abs(report.params.a - a) / a <= 0.05
    assert abs(report.params.b - b) / b <= 0.05


def test_c07_mode_amplitude_inversion_round_trip():
    """modes_to_AB inverts (A, B) -> (w1, w2) within 1e-9; a = b is singular."""
    rng = np.random.default_rng(7)
    done = 0
    while done < 100:
        a = rng.uniform(-1.0, 1.0)
        b = rng.uniform(-1.0, 1.0)
        if abs(a * a - b * b) <= 1e-6:
            continue
        A = rng.uniform(-1.5, 1.5)
        B = rng.uniform(-1.5, 1.5)
        got_A, got_B = modes_to_AB(a * A + b * B, a * B + b * A, a, b)
        assert abs(got_A - A) <= 1e-9
        assert abs(got_B - B) <= 1e-9
        done += 1
    with pytest.raises(SingularSystem):
        modes_to_AB(1.0, 0.5, 0.4, 0.4)


def test_c08_forced_solution_substitution_residual():
    """Forced solutions satisfy p'' - (b^2-a^2) p = forcing within 1e-8."""
    rng = np.random.default_rng(1618)
    points = np.linspace(0.0, 2.0, 21)

    def draw_rate(disc):
        while True:
            rate = rng.uniform(-0.35, 0.35)
            if abs(rate * rate - disc) >= 0.05:
                return rate

    for family in ("const", "lin", "exp", "pulse"):
        for _ in range(5):
            a = rng.uniform(-0.15, 0.15)
            b = rng.uniform(0.45, 0.55)
            disc = b * b - a * a
            c1 = rng.uniform(0.2, 0.6)
            c2 = rng.uniform(0.2, 0.6)
            if family == "const":
                theta, eta = ("const", rng.uniform(-0.3, 0.3)), None
                config = ControlConfig(theta=ThetaConstant(theta[1]))
            elif family == "lin":
                theta = ("lin", rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
                eta = None
                config = ControlConfig(theta=ThetaLinear(slope=theta[1],
                                                         intercept=theta[2]))
            elif family == "exp":
                theta, eta = ("exp", draw_rate(disc)), None
                config = ControlConfig(theta=ThetaExponential(rate=theta[1]))
            else:
                theta = None
                eta = ("pulse", rng.uniform(-0.3, 0.3), draw_rate(disc))
                config = ControlConfig(eta=EtaTimeExponential(k=eta[1],
                                                              k1=eta[2]))

            p = mp_forced_solution(a, b, c1, c2, theta=theta, eta=eta)
            f = mp_forcing(a, b, theta=theta, eta=eta)
            params = DdeParams(a=a, b=b, p0=1.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NegativeInfluenceWarning)
                for t in points:
                    assert abs(mp_substitution_residual(
                        p, f, a, b, float(t), h=1e-4)) <= 1e-8
                    got = control_solution(params, config, c1, c2, float(t))
                    assert abs(got - float(p(float(t)))) <= 1e-9


def test_c09_goodwill_spot_values():
    """Article-share goodwill hits its three analytic spot values."""
    params = DdeParams(a=0.5, b=0.3, p0=1.0)
    assert abs(eta_article(0.0, 0.0, params) - 1.0) <= 1e-12
    assert abs(eta_article(0.0, 2.0, params) - 1.4) <= 1e-12
    assert abs(eta_article(1.0, 0.0, params) - math.exp(-1.0)) <= 1e-12


def test_c10_ranking_matches_brute_force_and_goldens(data_dir):
    """rank_journals agrees with a longhand elimination loop and goldens."""
    for stem in ("rank_m3", "rank_m5", "rank_m8"):
        names, features, data = load_fixture(data_dir / f"{stem}.csv")
        matrix = FeatureMatrix(journal_names=names, feature_names=features,
                               data=data)
        result, trace = rank_journals(matrix, "CiteScore", 0.1)
        entries, bf_trace = brute_force_ranking(names, features, data,
                                                "CiteScore", 0.1)
        got = [(e.rank, e.journal_name, e.elimination_step)
               for e in result.entries]
        assert got == [(rank, name, step) for rank, name, _, step in entries]
        for e, (_, _, singval, _) in zip(result.entries, entries):
            assert abs(e.singval - singval) <= 1e-9
        for s, (step, name, row_norm, col_norm, singval) in zip(trace.steps,
                                                                bf_trace):
            assert (s.step_index, s.journal_name) == (step, name)
            assert abs(s.row_norm - row_norm) <= 1e-9
            assert abs(s.chosen_col_norm - col_norm) <= 1e-9
            assert abs(s.singval - singval) <= 1e-9

        code, out, _ = run_cli_bytes("rank", "--input",
                                     str(data_dir / f"{stem}.csv"))
        assert code == 0
        assert out == (data_dir / f"golden_{stem}.csv").read_bytes()


def test_c11_ranking_structure_and_permutation(data_dir):
    """m elimination steps, row-shuffle invariance, singval = row norm."""
    rng = np.random.default_rng(99)
    for stem in ("rank_m3", "rank_m5", "rank_m8"):
        names, features, data = load_fixture(data_dir / f"{stem}.csv")
        m = len(names)
        result, trace = rank_journals(
            FeatureMatrix(journal_names=names, feature_names=features,
                          data=data), "CiteScore", 0.1)
        assert len(trace.steps) == m
        assert [s.step_index for s in trace.steps] == list(range(1, m + 1))
        assert sorted(e.rank for e in result.entries) == list(range(1, m + 1))
        baseline = [(e.rank, e.journal_name, e.elimination_step)
                    for e in result.entries]
        base_singvals = {e.journal_name: e.singval for e in result.entries}

        # shuffles that keep the relative order of the last two survivors
        # (their two-point z-scores tie structurally, so the loop breaks
        # that tie by position)
        last_pair = [s.journal_name for s in trace.steps[-2:]]
        shuffles = 0
        while shuffles < 3:
            perm = list(rng.permutation(m))
            ordered = [names[i] for i in perm]
            if ordered.index(last_pair[0]) > ordered.index(last_pair[1]):
                continue
            shuffled = FeatureMatrix(
                journal_names=tuple(names[i] for i in perm),
                feature_names=features,
                data=[data[i] for i in perm])
            got, _ = rank_journals(shuffled, "CiteScore", 0.1)
            assert [(e.rank, e.journal_name, e.elimination_step)
                    for e in got.entries] == baseline
            for e in got.entries:
                assert abs(e.singval - base_singvals[e.journal_name]) <= 1e-9
            shuffles += 1

    for _ in range(20):
        row = rng.uniform(-3.0, 3.0, rng.integers(1, 8)).tolist()
        singvals = svd_values([row])
        assert len(singvals) == 1
        assert abs(singvals[0] - math.sqrt(sum(x * x for x in row))) <= 1e-12


def test_c12_sparse_regression_kernel():
    """Lasso: OLS at zero penalty, annihilation, monotone sweeps."""
    rng = np.random.default_rng(2024)
    X = rng.normal(0.0, 1.0, (12, 4))
    y = rng.normal(0.0, 1.0, 12)

    w0 = lasso_fit(X.tolist(), y.tolist(), 0.0)
    ols = np.linalg.solve(X.T @ X, X.T @ y)
    assert max(abs(w - o) for w, o in zip(w0, ols)) <= 1e-6

    threshold = max(abs(X.T @ y)) / len(y)
    assert lasso_fit(X.tolist(), y.tolist(), 2.0 * threshold) == [0.0] * 4

    previous = None
    for w in _lasso_sweeps(np.asarray(X), np.asarray(y), 0.1):
        objective = lasso_objective(np.asarray(X), np.asarray(y), 0.1, w)
        if previous is not None:
            assert objective <= previous + 1e-12
        previous = objective


def test_c13_cli_round_trip_and_byte_stability(tmp_path, data_dir):
    """simulate | fit recovers the generator; CLI output is byte-stable."""
    sim_path = str(tmp_path / "series.csv")
    code, _, _ = run_cli("simulate", "--a", "0.2", "--b", "0.6", "--p0", "1",
                         "--t-min", "-3", "--t-max", "3", "--steps", "120",
                         "--out", sim_path)
    assert code == 0
    code, out, _ = run_cli("fit", "--input", sim_path)
    assert code == 0
    report = json.loads(out)
    assert abs(report["a"] - 0.2) <= 1e-3
    assert abs(report["b"] - 0.6) <= 1e-3

    sim_args = ("simulate", "--a", "0.2", "--b", "0.6", "--p0", "1",
                "--t-min", "-3", "--t-max", "3", "--steps", "120")
    assert run_cli_bytes(*sim_args) == run_cli_bytes(*sim_args)
    fit_args = ("fit", "--input", sim_path)
    assert run_cli_bytes(*fit_args) == run_cli_bytes(*fit_args)
    rank_args = ("rank", "--input", str(data_dir / "rank_m8.csv"))
    assert run_cli_bytes(*rank_args) == run_cli_bytes(*rank_args)
