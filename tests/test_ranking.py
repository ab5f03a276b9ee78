"""Backward-elimination journal ranking."""

from __future__ import annotations

import csv
import math
import statistics
import sys

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from mirrordde import (
    FeatureMatrix,
    MirrorDdeError,
    UnknownResponseFeature,
    ZeroVarianceColumn,
    rank_journals,
    standardize,
    svd_values,
)

from mirrordde.numerics import _pow2_scaled
from mirrordde.ranking import STD_RTOL, _standardized

from oracles import brute_force_ranking, stepwise_ranking

M3_NAMES = ("Alpha Journal", "Beta Review", "Gamma Letters")
M3_FEATS = ("CiteScore", "SJR", "SNIP", "CitationCount")
M3_DATA = [[3.2, 1.4, 1.1, 820.0],
           [5.6, 2.3, 1.6, 1450.0],
           [1.1, 0.5, 0.8, 260.0]]

M5_NAMES = ("Alpha Journal", "Beta Review", "Gamma Letters",
            "Delta Annals", "Epsilon Studies")
M5_FEATS = ("CiteScore", "SJR", "SNIP", "CitationCount", "ScholarlyOutput")
M5_DATA = [[3.2, 1.4, 1.1, 820.0, 96.0],
           [5.6, 2.3, 1.6, 1450.0, 150.0],
           [1.1, 0.5, 0.8, 260.0, 75.0],
           [7.9, 3.5, 2.1, 2600.0, 240.0],
           [2.4, 0.9, 1.2, 510.0, 60.0]]


def matrix(names, feats, data):
    return FeatureMatrix(journal_names=names, feature_names=feats,
                         data=[row[:] for row in data])


# ---------------------------------------------------------------------------
# standardize
# ---------------------------------------------------------------------------

class TestStandardize:
    def test_population_z_scores(self):
        m = FeatureMatrix(("A", "B", "C"), ("x", "y"),
                          [[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
        out = standardize(m)
        want = 1.0 / math.sqrt(2.0 / 3.0)
        np.testing.assert_allclose(out.data[:, 0], [-want, 0.0, want],
                                   atol=1e-12)
        np.testing.assert_allclose(out.data[:, 1], [-want, 0.0, want],
                                   atol=1e-12)
        assert abs(want - 1.224744871) <= 1e-9

    def test_idempotent(self):
        m = matrix(M3_NAMES, M3_FEATS, M3_DATA)
        once = standardize(m)
        twice = standardize(once)
        np.testing.assert_allclose(twice.data, once.data, atol=1e-12)

    def test_constant_column_rejected(self):
        m = FeatureMatrix(("A", "B", "C"), ("x", "y"),
                          [[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
        with pytest.raises(ZeroVarianceColumn) as excinfo:
            standardize(m)
        assert excinfo.value.column == "x"

    def test_first_flat_column_is_named(self):
        m = FeatureMatrix(("A", "B", "C"), ("x", "y", "z"),
                          [[1.0, 5.0, 7.0], [2.0, 5.0, 7.0], [3.0, 5.0, 7.0]])
        with pytest.raises(ZeroVarianceColumn) as excinfo:
            standardize(m)
        assert excinfo.value.column == "y"

    def test_bitwise_equal_to_per_column_reduction(self, data_dir):
        # 60 rows: numpy sums columns this long in pairwise order, and only
        # a reduction over each contiguous column reproduces a 1-d column's
        # mean to the last bit; the goldens depend on that order
        data = np.loadtxt(data_dir / "rank_m60.csv", delimiter=",",
                          skiprows=1, usecols=range(1, 8))
        want = np.empty_like(data)
        for j in range(data.shape[1]):
            col = data[:, j]
            mu = float(col.mean())
            sigma = float(np.sqrt(np.mean((col - mu) ** 2)))
            want[:, j] = (col - mu) / sigma
        names = tuple(f"J{i}" for i in range(data.shape[0]))
        got = standardize(FeatureMatrix(names, tuple("abcdefg"), data)).data
        assert np.array_equal(got, want)

    @given(k=st.integers(min_value=2, max_value=4), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_two_rows_standardize_to_exact_signs(self, k, data):
        # two rows that pass the flatness check deviate from their mean by
        # ±sigma: every z-score is exactly ±1, at any power-of-two scale,
        # so the last elimination step is a tie whatever the rounding
        cells = st.floats(allow_nan=False, allow_infinity=False)
        block = np.array(data.draw(st.lists(
            st.lists(cells, min_size=k, max_size=k), min_size=2, max_size=2)))
        feats = tuple(f"f{j}" for j in range(k))
        try:
            base = standardize(FeatureMatrix(("A", "B"), feats, block)).data
        except ZeroVarianceColumn:
            assume(False)
        assert np.array_equal(np.abs(base), np.ones((2, k)))
        assert np.array_equal(base[0], -base[1])
        # any power that keeps every nonzero entry a finite normal float
        mags = np.abs(block[block != 0.0])
        lo = -1021 - math.frexp(float(mags.min()))[1]
        hi = 1024 - math.frexp(float(mags.max()))[1]
        assume(lo <= hi)
        scaled = np.ldexp(block, data.draw(st.integers(lo, hi)))
        try:
            out = standardize(FeatureMatrix(("A", "B"), feats, scaled)).data
        except ZeroVarianceColumn:
            return  # the flatness floor is absolute, not relative
        assert np.array_equal(out, base)

    def test_names_preserved(self):
        out = standardize(matrix(M3_NAMES, M3_FEATS, M3_DATA))
        assert out.journal_names == M3_NAMES
        assert out.feature_names == M3_FEATS


# ---------------------------------------------------------------------------
# rank_journals
# ---------------------------------------------------------------------------

class TestRankJournals:
    def test_single_journal(self):
        m = FeatureMatrix(("Alpha Journal",), ("CiteScore", "SJR"),
                          [[3.0, 1.5]])
        result, trace = rank_journals(m, "CiteScore", 0.1)
        assert len(result.entries) == 1
        entry = result.entries[0]
        assert entry.rank == 1
        assert entry.elimination_step == 1
        assert entry.singval == 0.0
        assert len(trace.steps) == 1
        assert trace.steps[0].singval == 0.0
        assert trace.steps[0].row_norm == 0.0

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_m3_matches_brute_force(self, lam):
        result, trace = rank_journals(matrix(M3_NAMES, M3_FEATS, M3_DATA),
                                      "CiteScore", lam)
        entries, bf_trace = brute_force_ranking(M3_NAMES, M3_FEATS, M3_DATA,
                                                "CiteScore", lam)
        got = [(e.rank, e.journal_name, e.elimination_step)
               for e in result.entries]
        want = [(rank, name, step) for rank, name, _, step in entries]
        assert got == want
        for e, (_, _, singval, _) in zip(result.entries, entries):
            assert abs(e.singval - singval) <= 1e-9
        for s, (step, name, row_norm, col_norm, singval) in zip(trace.steps,
                                                                bf_trace):
            assert (s.step_index, s.journal_name) == (step, name)
            assert abs(s.row_norm - row_norm) <= 1e-9
            assert abs(s.chosen_col_norm - col_norm) <= 1e-9
            assert abs(s.singval - singval) <= 1e-9

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_m5_matches_brute_force(self, lam):
        result, _ = rank_journals(matrix(M5_NAMES, M5_FEATS, M5_DATA),
                                  "CiteScore", lam)
        entries, _ = brute_force_ranking(M5_NAMES, M5_FEATS, M5_DATA,
                                         "CiteScore", lam)
        got = [(e.rank, e.journal_name) for e in result.entries]
        assert got == [(rank, name) for rank, name, _, _ in entries]

    def test_hand_checked_first_step(self):
        # first-step col norms of the m3 matrix, computed by hand from the
        # population z-scores: Alpha's standardized row is small in every
        # feature (it sits nearest the mean), so its norm gap wins
        _, trace = rank_journals(matrix(M3_NAMES, M3_FEATS, M3_DATA),
                                 "CiteScore", 0.0)
        first = trace.steps[0]
        assert first.journal_name == "Alpha Journal"
        assert first.chosen_col_norm == pytest.approx(0.0761062185766,
                                                      abs=1e-10)

    def test_structure_invariants(self):
        result, trace = rank_journals(matrix(M5_NAMES, M5_FEATS, M5_DATA),
                                      "CiteScore", 0.1)
        assert sorted(e.rank for e in result.entries) == [1, 2, 3, 4, 5]
        assert sorted(e.elimination_step for e in result.entries) == [1, 2, 3, 4, 5]
        assert sorted(s.step_index for s in trace.steps) == [1, 2, 3, 4, 5]
        assert (sorted(s.journal_name for s in trace.steps)
                == sorted(M5_NAMES))
        # scores sorted ascending along the rank order, ties by step
        keys = [(e.singval, e.elimination_step) for e in result.entries]
        assert keys == sorted(keys)

    def test_singval_equals_row_norm(self):
        # the singular value of a 1xk row is its Euclidean norm
        rng = np.random.default_rng(3)
        row = rng.uniform(-2.0, 2.0, size=6)
        got = svd_values(row.reshape(1, -1))
        assert got[0] == pytest.approx(float(np.sqrt(row @ row)), abs=1e-12)
        assert all(abs(v) <= 1e-12 for v in got[1:])

    def test_permutation_invariance_when_final_pair_order_kept(self):
        base, _ = rank_journals(matrix(M5_NAMES, M5_FEATS, M5_DATA),
                                "CiteScore", 0.1)
        base_by_name = {e.journal_name: e.rank for e in base.entries}
        # find the journals eliminated last (the structurally tied pair)
        by_step = {e.elimination_step: e.journal_name for e in base.entries}
        last_pair = {by_step[4], by_step[5]}
        # rotate the rows; keep only rotations preserving the pair's order
        for shift in range(1, 5):
            order = [(i + shift) % 5 for i in range(5)]
            names = tuple(M5_NAMES[i] for i in order)
            pair_positions = [names.index(by_step[4]), names.index(by_step[5])]
            if pair_positions[0] > pair_positions[1]:
                continue
            data = [M5_DATA[i] for i in order]
            result, _ = rank_journals(matrix(names, M5_FEATS, data),
                                      "CiteScore", 0.1)
            assert {e.journal_name: e.rank for e in result.entries} \
                == base_by_name

    def test_final_pair_tie_follows_input_order(self):
        # the 2-journal step always ties on |col_norm - row_norm| (both
        # standardized rows have unit mean absolute value), so the documented
        # lowest-current-index rule decides: swapping the pair's relative
        # order swaps exactly their two ranks
        base, _ = rank_journals(matrix(M3_NAMES, M3_FEATS, M3_DATA),
                                "CiteScore", 0.0)
        swapped_order = (2, 1, 0)
        names = tuple(M3_NAMES[i] for i in swapped_order)
        data = [M3_DATA[i] for i in swapped_order]
        flipped, _ = rank_journals(matrix(names, M3_FEATS, data),
                                   "CiteScore", 0.0)
        base_ranks = {e.journal_name: e.rank for e in base.entries}
        flip_ranks = {e.journal_name: e.rank for e in flipped.entries}
        assert base_ranks["Beta Review"] == flip_ranks["Gamma Letters"]
        assert base_ranks["Gamma Letters"] == flip_ranks["Beta Review"]
        assert base_ranks["Alpha Journal"] == flip_ranks["Alpha Journal"]

    def test_first_step_l1_norm_monotone_in_lambda(self):
        m = matrix(M5_NAMES, M5_FEATS, M5_DATA)
        std = standardize(m)
        from mirrordde import lasso_fit

        resp = std.feature_index("CiteScore")
        X = np.delete(std.data, resp, axis=1)
        y = std.data[:, resp]
        norms = []
        for lam in (0.0, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0):
            w = lasso_fit(X, y, lam)
            norms.append(sum(abs(v) for v in w))
        for bigger, smaller in zip(norms, norms[1:]):
            assert smaller <= bigger + 1e-6

    def test_unknown_response(self):
        with pytest.raises(UnknownResponseFeature):
            rank_journals(matrix(M3_NAMES, M3_FEATS, M3_DATA), "Prestige", 0.1)

    def test_mid_loop_zero_variance_reports_step(self):
        data = [row[:] for row in M3_DATA]
        data[2][2] = data[1][2]     # SNIP ties once Alpha is eliminated
        with pytest.raises(ZeroVarianceColumn) as excinfo:
            rank_journals(matrix(M3_NAMES, M3_FEATS, data), "CiteScore", 0.0)
        err = excinfo.value
        assert err.column == "SNIP"
        assert err.step == 2
        assert "step 2" in str(err)

    def test_deterministic(self):
        runs = [rank_journals(matrix(M5_NAMES, M5_FEATS, M5_DATA),
                              "CiteScore", 0.1) for _ in range(2)]
        first, second = runs
        assert [(e.rank, e.journal_name, e.singval, e.elimination_step)
                for e in first[0].entries] \
            == [(e.rank, e.journal_name, e.singval, e.elimination_step)
                for e in second[0].entries]


# ---------------------------------------------------------------------------
# columns whose squares or sums overflow
# ---------------------------------------------------------------------------

def lognormal_table(seed, m, k):
    """Positive journals-by-features values with one shared latent factor,
    drawn as the benchmark's ``rank`` tables are."""
    rng = np.random.default_rng(seed)
    mu = rng.uniform(0.0, 2.0, k)
    sigma = rng.uniform(0.3, 0.8, k)
    rho = rng.uniform(0.4, 0.8, k)
    z = rng.standard_normal(m)
    e = rng.standard_normal((m, k))
    return np.exp(mu + sigma * (rho * z[:, None] + np.sqrt(1 - rho ** 2) * e))


def ranking_outcome(matrix_, response, lam, rank=rank_journals):
    try:
        result, trace = rank(matrix_, response, lam)
    except MirrorDdeError as exc:
        return type(exc), str(exc)
    return result.entries, trace.steps


class TestColumnScale:
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           m=st.integers(min_value=3, max_value=12),
           k=st.integers(min_value=2, max_value=5),
           lam=st.sampled_from([0.0, 0.1]),
           data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_power_of_two_column_scale_is_exact(self, seed, m, k, lam, data):
        # standardization divides any per-column scale out, and a power of
        # two does so exactly, up to the largest that keeps every entry
        # finite (2**1023 at the top used to overflow the squares)
        values = lognormal_table(seed, m, k)
        col = data.draw(st.integers(min_value=0, max_value=k - 1))
        top = 1024 - math.frexp(float(values[:, col].max()))[1]
        power = data.draw(st.integers(min_value=0, max_value=top))
        scaled = values.copy()
        scaled[:, col] = np.ldexp(values[:, col], power)
        names = tuple(f"J{i}" for i in range(m))
        feats = tuple(f"f{j}" for j in range(k))
        base = FeatureMatrix(names, feats, values)
        big = FeatureMatrix(names, feats, scaled)
        assert (ranking_outcome(big, "f0", lam)
                == ranking_outcome(base, "f0", lam))
        assert np.array_equal(standardize(big).data, standardize(base).data)

    def test_column_at_the_top_of_float64(self):
        # the column sum 2**1024 overflowed to inf and read as flat
        top = math.ldexp(1.0, 1023)
        feats = ("CiteScore", "SJR")
        big = FeatureMatrix(("A", "B", "C"), feats,
                            [[top, 1.0], [top, 2.0], [0.0, 3.0]])
        base = FeatureMatrix(("A", "B", "C"), feats,
                             [[1.0, 1.0], [1.0, 2.0], [0.0, 3.0]])
        assert (ranking_outcome(big, "CiteScore", 0.1)
                == ranking_outcome(base, "CiteScore", 0.1))

    def test_scaled_m8_matches_brute_force(self, data_dir):
        # the oracle standardizes with ``statistics``, exactly, so the
        # scaled table must meet it within C10's bounds
        with open(data_dir / "rank_m8_2p1000.csv", newline="",
                  encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        feats = tuple(rows[0][1:])
        names = tuple(row[0] for row in rows[1:])
        data = [[float(cell) for cell in row[1:]] for row in rows[1:]]
        assert max(row[0] for row in data) > 1e301
        result, trace = rank_journals(matrix(names, feats, data),
                                      "CiteScore", 0.1)
        entries, bf_trace = brute_force_ranking(names, feats, data,
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


# ---------------------------------------------------------------------------
# the working buffer against the step-by-step rebuild
# ---------------------------------------------------------------------------

def outcome_bits(outcome):
    """A ranking outcome with every float as its hex string, so that equal
    outcomes agree to the bit (and to the sign of a zero)."""
    if isinstance(outcome[0], type):
        return outcome
    return tuple(
        tuple(tuple(v.hex() if isinstance(v, float) else v
                    for v in record._values())
              for record in records)
        for records in outcome)


def working_buffer_table(seed, m, k, data):
    """A lognormal table with one column scaled by a power of two up to the
    top of float64, and optionally one journal's cell copied into others,
    so that the column goes flat once the journals holding other values are
    gone; from 8 features the row sums of the column norms run pairwise.
    Returns the table and a drawn response feature."""
    values = lognormal_table(seed, m, k)
    col = data.draw(st.integers(min_value=0, max_value=k - 1))
    top = 1024 - math.frexp(float(values[:, col].max()))[1]
    power = data.draw(st.integers(min_value=0, max_value=top))
    values[:, col] = np.ldexp(values[:, col], power)
    copies = data.draw(st.lists(st.integers(min_value=0, max_value=m - 1),
                                max_size=m - 1, unique=True))
    if copies:
        source, flat_col = copies[0], data.draw(st.integers(0, k - 1))
        values[copies, flat_col] = values[source, flat_col]
    names = tuple(f"J{i}" for i in range(m))
    feats = tuple(f"f{j}" for j in range(k))
    response = data.draw(st.sampled_from(feats))
    return FeatureMatrix(names, feats, values), response


working_buffer_draws = given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    m=st.integers(min_value=3, max_value=40),
    k=st.integers(min_value=3, max_value=10),
    lam=st.sampled_from([0.0, 0.05, 0.1]),
    data=st.data())


class TestWorkingBuffer:
    @working_buffer_draws
    @settings(max_examples=150, deadline=None)
    def test_bits_of_the_stepwise_rebuild(self, seed, m, k, lam, data):
        table, response = working_buffer_table(seed, m, k, data)
        got = ranking_outcome(table, response, lam)
        if got[0] is ZeroVarianceColumn:
            event("flat at step 1" if got[1].startswith("step 1:")
                  else "flat mid-elimination")
        else:
            event(got[0].__name__ if isinstance(got[0], type) else "ranked")
        want = ranking_outcome(table, response, lam, stepwise_ranking)
        assert outcome_bits(got) == outcome_bits(want)

    @working_buffer_draws
    @settings(max_examples=150, deadline=None)
    def test_standardization_and_norms_raise_no_float_error(self, seed, m, k,
                                                           lam, data):
        # rank_journals holds numpy's overflow and invalid warnings off for
        # its whole elimination; the stepwise rebuild holds them off only
        # inside each fit, so with them raising here, a standardization or
        # a norm that overflowed or made a nan would raise
        # FloatingPointError, which is no MirrorDdeError
        table, response = working_buffer_table(seed, m, k, data)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            outcome = ranking_outcome(table, response, lam, stepwise_ranking)
        event(outcome[0].__name__ if isinstance(outcome[0], type)
              else "ranked")


class TestFlatnessEdges:
    """The flatness rule, decided on Python floats, against numpy's decision
    on the same statistics at both ends of float64."""

    @staticmethod
    def numpy_flat(block, e):
        block = np.asfortranarray(block, dtype=float)
        mu = block.sum(axis=0) / block.shape[0]
        sigma = np.sqrt(((block - mu) ** 2).sum(axis=0) / block.shape[0])
        with np.errstate(over="ignore"):
            return (np.ldexp(sigma, e)
                    <= STD_RTOL * np.maximum(1.0, np.ldexp(np.abs(mu), e)))

    def python_flat(self, block, e):
        flat = []
        for j in range(len(e)):
            try:
                _standardized(np.asfortranarray(block)[:, [j]], [e[j]],
                              (f"f{j}",))
                flat.append(False)
            except ZeroVarianceColumn:
                flat.append(True)
        return flat

    def test_constant_column_at_the_float64_top(self):
        top = sys.float_info.max
        rows = [[top, 1.0], [top, 2.0], [top, 3.0]]
        with pytest.raises(ZeroVarianceColumn) as excinfo:
            standardize(FeatureMatrix(("A", "B", "C"), ("x", "y"), rows))
        assert excinfo.value.column == "x"
        table = FeatureMatrix(("A", "B", "C"), ("x", "y"), rows)
        got = ranking_outcome(table, "y", 0.1)
        assert got == (ZeroVarianceColumn,
                       "step 1: feature 'x' has zero variance")
        assert got == ranking_outcome(table, "y", 0.1, stepwise_ranking)

    def test_spread_of_the_smallest_subnormal(self):
        # a spread of about 2**-1074 is flat under the absolute floor
        tiny = 5e-324
        rows = [[tiny, 1.0], [0.0, 2.0], [tiny, 3.0]]
        scaled, e = _pow2_scaled(np.array(rows), axis=0)
        assert list(self.numpy_flat(scaled, e)) == [True, False]
        table = FeatureMatrix(("A", "B", "C"), ("x", "y"), rows)
        with pytest.raises(ZeroVarianceColumn) as excinfo:
            standardize(table)
        assert excinfo.value.column == "x"
        got = ranking_outcome(table, "y", 0.1)
        assert got == (ZeroVarianceColumn,
                       "step 1: feature 'x' has zero variance")
        assert got == ranking_outcome(table, "y", 0.1, stepwise_ranking)

    @pytest.mark.parametrize("block, e", [
        # scaled statistics of 1 or more at e = 1024, where np.ldexp gives
        # inf and math.ldexp raises: an infinite mean is flat, an infinite
        # spread alone is not
        ([[1.0], [1.0]], [1024]),
        ([[1.0], [-1.0]], [1024]),
        ([[1.0], [-1.0], [1.0], [-1.0]], [1024]),
        ([[2.0], [0.0]], [1024]),
        ([[0.75], [1.0]], [1024]),
        ([[0.5], [0.25]], [1023]),
        ([[5e-324], [0.0], [5e-324]], [0]),
        ([[0.5], [0.5 + 2**-53]], [-1073]),
    ])
    def test_decisions_equal_numpys(self, block, e):
        assert self.python_flat(block, e) == list(self.numpy_flat(block, e))
