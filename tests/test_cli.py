"""Command-line surface: flags, formats, and exit codes."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirrordde import SingularSystem, cli, numerics, solver

from helpers import cli_peak_rss_mb, run_cli, run_cli_bytes
from oracles import max_relative_deviation
from pins import PINS

SIMULATE_GOLDENS = sorted(
    p.name for p in (pathlib.Path(__file__).parent / "data").glob(
        "golden_simulate_*.csv"))


#: (golden name, argv) of each ``golden_simulate_<name>.csv`` pin, one per
#: trajectory path
SIMULATE_GOLDEN_RUNS = [
    (pin.out.stem.removeprefix("golden_simulate_"), shlex.split(pin.argv)[1:])
    for pin in PINS if isinstance(pin.out, pathlib.Path)
    and pin.out.name.startswith("golden_simulate_")]


def write_series_csv(path, times, values, header="t,p"):
    lines = [header] + [f"{t},{p}" for t, p in zip(times, values)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def exponential_csv(path, a=0.2, b=0.6, p0=1.0, half=3.0, h=0.05):
    from mirrordde import DdeParams, base_solution

    params = DdeParams(a=a, b=b, p0=p0, half_width=half)
    n_half = round(half / h)
    times = [h * (i - n_half) for i in range(2 * n_half + 1)]
    values = [base_solution(params, t) for t in times]
    return write_series_csv(path, times, values)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

class TestSimulate:
    def test_plain_exponential_rows(self):
        code, out, err = run_cli("simulate", "--a", "0", "--b", "1",
                                 "--p0", "1", "--t-min", "0", "--t-max", "1",
                                 "--steps", "4")
        assert code == 0 and err == ""
        lines = out.strip().splitlines()
        assert lines[0] == "t,p"
        assert len(lines) == 6            # header + steps+1 samples
        assert lines[-1] == "1,2.71828182846"

    def test_symmetric_window_has_exact_endpoints(self):
        code, out, _ = run_cli("simulate", "--a", "0.3", "--b", "0.5",
                               "--p0", "1", "--t-min", "-2", "--t-max", "2",
                               "--steps", "8")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert rows[0][0] == "-2" and rows[-1][0] == "2"
        assert rows[4][0] == "0" and rows[4][1] == "1"

    def test_oscillatory_guard(self):
        code, out, err = run_cli("simulate", "--a", "0.5", "--b", "0.3",
                                 "--p0", "1")
        assert code == 3
        assert out == ""
        assert err.startswith("ERROR 3: ")
        assert "oscillatory" in err
        assert "\n" not in err.strip()

    def test_oscillatory_branch_inspection(self):
        code, out, err = run_cli("simulate", "--a", "0.5", "--b", "0.3",
                                 "--p0", "1", "--t-min", "-1", "--t-max", "1",
                                 "--steps", "4", "--allow-oscillatory")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,p,warning"
        assert all(line.endswith(",infeasible") for line in lines[1:])

    def test_degenerate_ramp(self):
        code, out, _ = run_cli("simulate", "--a", "0.4", "--b", "0.4",
                               "--p0", "1", "--t-min", "0", "--t-max", "1",
                               "--steps", "2")
        assert code == 0
        assert out.strip().splitlines()[1:] == ["0,1", "0.5,1.4", "1,1.8"]

    def test_forced_run_with_explicit_modes(self):
        code, out, _ = run_cli("simulate", "--a", "0.3", "--b", "0.5",
                               "--p0", "1", "--t-min", "0", "--t-max", "1",
                               "--steps", "4", "--theta-const", "0.2",
                               "--c1", "1", "--c2", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,p"
        # c1 + c2 + theta/(a-b) = 2 - 1 = 1 at the origin
        assert lines[1] == "0,1"

    def test_negative_influence_column(self):
        code, out, _ = run_cli("simulate", "--a", "0.3", "--b", "0.5",
                               "--p0", "1", "--t-min", "0", "--t-max", "1",
                               "--steps", "2", "--c1", "-3", "--c2", "0.5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,p,warning"
        assert all(line.endswith(",negative-influence") for line in lines[1:])

    def test_out_flag_writes_file(self, tmp_path):
        target = tmp_path / "sim.csv"
        code, out, _ = run_cli("simulate", "--a", "0", "--b", "1", "--p0", "1",
                               "--t-min", "0", "--t-max", "1", "--steps", "4",
                               "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().splitlines()[-1] == "1,2.71828182846"

    @pytest.mark.parametrize("where, reason", [
        ("missing/x.csv", "No such file or directory"),
        (".", "Is a directory"),
    ])
    def test_unwritable_out_is_one_error_line(self, tmp_path, where, reason):
        target = str(tmp_path / where)
        code, out, err = run_cli("simulate", "--a", "0.3", "--b", "0.9",
                                 "--p0", "1", "--out", target)
        assert (code, out) == (2, "")
        assert err.startswith(f"ERROR 2: cannot write {target!r}: ")
        assert reason in err and err.count("\n") == 1

    def test_deterministic_output(self):
        args = ("simulate", "--a", "0.3", "--b", "0.5", "--p0", "1.2",
                "--steps", "50")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first == second

    @pytest.mark.parametrize("extra", [
        ("--steps", "0"),
        ("--t-min", "2", "--t-max", "-2"),
        ("--c1", "1"),
    ])
    def test_flag_validation(self, extra):
        code, _, err = run_cli("simulate", "--a", "0.3", "--b", "0.5",
                               "--p0", "1", *extra)
        assert code == 2
        assert err.startswith("ERROR 2: ")

    @pytest.mark.parametrize("steps", [2**53 + 1, 10**400])
    def test_steps_beyond_distinct_floats(self, steps):
        code, out, err = run_cli("simulate", "--a", "0.3", "--b", "0.5",
                                 "--p0", "1", "--steps", str(steps))
        assert (code, out) == (2, "")
        assert err == f"ERROR 2: --steps must be <= 9007199254740992, got {steps}\n"

    def test_conflicting_theta_flags(self):
        code, _, err = run_cli("simulate", "--a", "0.3", "--b", "0.5",
                               "--p0", "1", "--theta-const", "0.1",
                               "--theta-exp", "0.2")
        assert code == 2
        assert err.startswith("ERROR 2: ")

    def test_resonant_forcing_exit(self):
        # rate^2 = 0.16 = b^2 - a^2
        code, _, err = run_cli("simulate", "--a", "0.3", "--b", "0.5",
                               "--p0", "1", "--theta-exp", "0.4")
        assert code == 3
        assert err.startswith("ERROR 3: ")

    @pytest.mark.parametrize("kind,argv", SIMULATE_GOLDEN_RUNS)
    def test_matches_golden(self, data_dir, tmp_path, kind, argv):
        """The golden pins' calls write their stdout bytes to ``--out``."""
        target = tmp_path / "sim.csv"
        code, out, err = run_cli("simulate", *argv, "--out", str(target))
        assert code == 0 and out == "" and err == ""
        golden = data_dir / f"golden_simulate_{kind}.csv"
        assert target.read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("kind,argv", SIMULATE_GOLDEN_RUNS)
    def test_blocks_of_seven_keep_the_golden_bytes(self, data_dir, tmp_path,
                                                   monkeypatch, kind, argv):
        """401 rows written 7 at a time, 57 full blocks and a short one, to
        stdout and to ``--out``: the same bytes as one block."""
        monkeypatch.setattr(cli, "WRITE_BLOCK_ROWS", 7)
        golden = (data_dir / f"golden_simulate_{kind}.csv").read_bytes()
        code, out, err = run_cli("simulate", *argv)
        assert (code, out.encode(), err) == (0, golden, "")
        target = tmp_path / "sim.csv"
        code, out, err = run_cli("simulate", *argv, "--out", str(target))
        assert (code, out, err) == (0, "", "")
        assert target.read_bytes() == golden

    @pytest.mark.parametrize("argv", [
        # cosh(1e308) overflows
        ("--a", "0", "--b", "1", "--p0", "1", "--t-min=-1e308",
         "--t-max=1e308", "--steps", "2"),
        # p0 (1 + (a+b) t) overflows without an OverflowError
        ("--a", "1", "--b", "1", "--p0", "1e308", "--t-min=-5", "--t-max=5",
         "--steps", "2"),
        # cosh and sinh stay finite, their weighted sum does not
        ("--a", "0", "--b", "1", "--p0", "10", "--t-min=-709", "--t-max=709",
         "--steps", "2"),
        # the particular term overflows: inf - inf = nan
        ("--a", "0", "--b", "1", "--p0", "1", "--theta-lin", "1e308,0",
         "--t-min=-5", "--t-max=5", "--steps", "2"),
        # cos(inf) was a bare "math domain error"; w t overflows here
        ("--a", "20", "--b", "1", "--p0", "1", "--t-min=-1e308",
         "--t-max=1e308", "--steps", "2", "--allow-oscillatory"),
    ])
    def test_non_finite_is_an_error_line(self, argv):
        code, out, err = run_cli("simulate", *argv)
        assert code == 2 and out == ""
        assert "Traceback" not in err
        assert err.count("ERROR 2: ") == 1 and err.count("\n") == 1
        assert "math domain error" not in err

    @given(ends=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                         min_size=2, max_size=2, unique=True).map(sorted),
           steps=st.integers(1, 64))
    # the scaled blend rounds a subnormal t_min
    @example(ends=[1e-320, 1.7976931348623157e308], steps=5)
    # the plain blend: fl(fl(x n) / n) != x
    @example(ends=[-4070.5986625161095, 1.0], steps=579716)
    @settings(max_examples=100, deadline=None)
    def test_grid_ends_are_the_flags(self, ends, steps):
        class GridSeen(Exception):
            pass

        t_min, t_max = ends
        with mock.patch.object(cli, "evaluate", side_effect=GridSeen) as seen:
            with pytest.raises(GridSeen):
                cli.main(["simulate", "--a", "0", "--b", "0", "--p0", "1",
                          f"--t-min={t_min!r}", f"--t-max={t_max!r}",
                          "--steps", str(steps)])
        times = seen.call_args.args[1]
        assert len(times) == steps + 1
        assert (times[0].hex(), times[-1].hex()) == (t_min.hex(), t_max.hex())

    def test_subnormal_end_prints_as_itself(self):
        code, out, err = run_cli("simulate", "--a", "0", "--b", "0", "--p0",
                                 "1", "--t-min=1e-320",
                                 "--t-max", "1.7976931348623157e308",
                                 "--steps", "5")
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == "9.99988867183e-321,1"

    def test_squares_whose_sum_overflows(self):
        # b**2 + a**2 overflows, b**2 - a**2 does not: exponential, not the
        # degenerate ramp -1.3, 1, 3.3; the values are mpmath's
        code, out, err = run_cli("simulate", "--a", "1e154", "--b", "1.3e154",
                                 "--p0", "1", "--t-min=-1e-154",
                                 "--t-max", "1e-154", "--steps", "2")
        assert (code, err) == (0, "")
        assert out == ("t,p\n-1e-154,-1.20847718292\n0,1\n"
                       "1e-154,3.93907603819\n")
        a, b = mpmath.mpf(1e154), mpmath.mpf(1.3e154)
        r = mpmath.sqrt(b * b - a * a)
        for row in out.splitlines()[1:]:
            t, p = map(float, row.split(","))
            rt = r * mpmath.mpf(t)
            assert p == float(mpmath.nstr(
                mpmath.cosh(rt) + (a + b) / r * mpmath.sinh(rt), 12))


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

EXPECTED_KEYS = ["a", "b", "p0", "r", "regime", "A", "B", "w1", "w2",
                 "rss_ab", "rss_modes", "n_points"]

#: (golden name, simulate argv) of each ``golden_fit_pipe_<name>.out``
FIT_PIPE_GOLDEN_RUNS = [
    ("default", ("--a", "0.3", "--b", "0.9", "--p0", "1")),
    ("a1_b2", ("--a", "1", "--b", "2", "--p0", "1", "--t-min=-5",
               "--t-max", "5", "--steps", "10000")),
    ("a1_b4", ("--a", "1", "--b", "4", "--p0", "1", "--t-min=-5",
               "--t-max", "5", "--steps", "200")),
    ("a0_b80", ("--a", "0", "--b", "80", "--p0", "1", "--t-min=-5",
                "--t-max", "5", "--steps", "1000")),
]


class TestFit:
    def test_report_on_synthetic_series(self, tmp_path):
        path = exponential_csv(tmp_path / "series.csv")
        code, out, err = run_cli("fit", "--input", path)
        assert code == 0 and err == ""
        report = json.loads(out)
        assert list(report.keys()) == EXPECTED_KEYS
        assert abs(report["a"] - 0.2) <= 1e-3
        assert abs(report["b"] - 0.6) <= 1e-3
        assert report["regime"] == "exponential"
        assert report["p0"] == 1.0
        assert report["n_points"] == 121
        assert report["rss_ab"] <= 1e-6 and report["rss_modes"] <= 1e-6

    def test_mode_fit_near_float_max(self, tmp_path):
        # the line fit's unscaled sums reached 5e307 here, so Cramer's
        # products overflowed and fit exited 2; the mode fit scales by a
        # power of two, and only the residuals in p's units overflow
        path = str(tmp_path / "series.csv")
        code, _, _ = run_cli("simulate", "--a", "0.3", "--b", "0.9",
                             "--p0", "1e305", "--t-min=-1", "--t-max", "1",
                             "--steps", "100", "--out", path)
        assert code == 0
        code, out, err = run_cli("fit", "--input", path)
        assert (code, err) == (0, "")
        report = json.loads(out)
        r = math.sqrt(0.9 ** 2 - 0.3 ** 2)
        assert report["w1"] == pytest.approx(1e305 * (r + 1.2) / (2 * r),
                                             rel=1e-11)
        assert report["w2"] == pytest.approx(1e305 * (r - 1.2) / (2 * r),
                                             rel=1e-11)
        assert report["rss_modes"] == math.inf

    def test_prediction_key_appended(self, tmp_path):
        path = exponential_csv(tmp_path / "series.csv")
        code, out, _ = run_cli("fit", "--input", path, "--predict", "4.0")
        assert code == 0
        report = json.loads(out)
        assert list(report.keys()) == EXPECTED_KEYS + ["prediction"]
        r = report["r"]
        want = report["w1"] * math.exp(r * 4.0) + report["w2"] * math.exp(-r * 4.0)
        assert report["prediction"] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("t,want", [
        ("4.0", 11.57801838101874),
        ("-2.7", -0.691850019093361),
    ])
    def test_prediction_exact_on_exponential_series(self, tmp_path, t, want):
        # w1 e^{rt} + w2 e^{-rt} with the fitted modes, to the last bit
        path = exponential_csv(tmp_path / "series.csv")
        code, out, _ = run_cli("fit", "--input", path, "--predict", t)
        assert code == 0
        assert json.loads(out)["prediction"] == want

    @pytest.mark.parametrize("t,want", [
        ("2.5", 1.5528556920385905),
        ("-4.2", -1.7010110402023517),
    ])
    def test_prediction_exact_on_oscillatory_series(self, tmp_path, t, want):
        # p0 (cos(wt) + ((a+b)/w) sin(wt)) with the fitted (a, b)
        from mirrordde import DdeParams, evaluate

        params = DdeParams(a=0.6, b=0.2, p0=1.0)
        times = [0.05 * (i - 60) for i in range(121)]
        values = evaluate(params, times)
        path = write_series_csv(tmp_path / "osc.csv", times, values)
        code, out, _ = run_cli("fit", "--input", path, "--predict", t)
        assert code == 0
        assert json.loads(out)["prediction"] == want

    def test_forward_mode_flag(self, tmp_path):
        path = exponential_csv(tmp_path / "series.csv")
        code, out, _ = run_cli("fit", "--input", path, "--fd", "forward")
        assert code == 0
        report = json.loads(out)
        assert abs(report["a"] - 0.2) <= 5e-2
        assert abs(report["b"] - 0.6) <= 5e-2

    def test_oscillatory_series_reports_null_modes(self, tmp_path):
        from mirrordde import DdeParams, evaluate

        params = DdeParams(a=0.6, b=0.2, p0=1.0)
        times = [0.05 * (i - 60) for i in range(121)]
        values = evaluate(params, times)
        path = write_series_csv(tmp_path / "osc.csv", times, values)
        code, out, err = run_cli("fit", "--input", path)
        assert code == 0
        report = json.loads(out)
        assert report["regime"] == "oscillatory"
        for key in ("A", "B", "w1", "w2", "rss_modes"):
            assert report[key] is None
        assert "oscillatory" in err

    @pytest.mark.parametrize("name,argv", FIT_PIPE_GOLDEN_RUNS)
    def test_pipe_matches_golden(self, tmp_path, data_dir, name, argv):
        """``simulate <argv> | fit --input /dev/stdin`` prints
        ``golden_fit_pipe_<name>.out`` byte for byte, and nothing to stderr:
        the windows on which the line fit in e^{2rt} went wrong (w2 off by
        a factor of 2.5 and 1.9) or failed (exit 4 and exit 2)."""
        path = str(tmp_path / "series.csv")
        assert run_cli("simulate", *argv, "--out", path)[0] == 0
        code, out, err = run_cli_bytes("fit", "--input", path)
        assert (code, err) == (0, b"")
        assert out == (data_dir / f"golden_fit_pipe_{name}.out").read_bytes()

    def test_too_short_input(self, tmp_path):
        path = write_series_csv(tmp_path / "short.csv", [-1.0, 1.0], [1.0, 2.0])
        code, _, err = run_cli("fit", "--input", path)
        assert code == 2
        assert err.startswith("ERROR 2: ")

    def test_overflowing_series_one_error_line(self, tmp_path):
        # differences and sums beyond float64 must not print numpy warnings
        times = [0.25 * (i - 8) for i in range(17)]
        values = [1.7e308 * (-1.0) ** i for i in range(17)]
        path = write_series_csv(tmp_path / "huge.csv", times, values)
        code, out, err = run_cli_bytes("fit", "--input", path)
        assert code == 4 and out == b""
        assert err.startswith(b"ERROR 4: [fit_ab]") and err.count(b"\n") == 1

    def test_constant_series_degenerate_exit(self, tmp_path):
        times = [0.25 * (i - 8) for i in range(17)]
        path = write_series_csv(tmp_path / "const.csv", times,
                                [1.0] * len(times))
        code, _, err = run_cli("fit", "--input", path)
        assert code == 4
        assert err.startswith("ERROR 4: ")
        assert "[fit_ab]" in err

    def test_malformed_header(self, tmp_path):
        path = write_series_csv(tmp_path / "bad.csv", [-1.0, 0.0, 1.0],
                                [1.0, 2.0, 3.0], header="time,value")
        code, _, err = run_cli("fit", "--input", path)
        assert code == 2

    def test_one_cell_header(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("t\n0\n")
        code, out, err = run_cli("fit", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == (f"ERROR 2: {str(path)!r} must start with header 't,p', "
                       f"got ['t']\n")

    def test_line_number_counts_blank_lines(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("t,p\n\n-1,1\n0,x\n1,3\n")
        code, out, err = run_cli("fit", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == (f"ERROR 2: {str(path)!r} line 4: "
                       f"not numeric: ['0', 'x']\n")

    def test_missing_file(self):
        code, _, err = run_cli("fit", "--input", "/nonexistent/series.csv")
        assert code == 2
        assert err.startswith("ERROR 2: ")

    def test_byte_order_mark_tolerated(self, tmp_path):
        path = tmp_path / "bom.csv"
        body = "t,p\n-0.1,0.95\n0,1\n0.1,1.08\n"
        path.write_bytes(b"\xef\xbb\xbf" + body.encode())
        code, _, _ = run_cli("fit", "--input", str(path))
        # parses the header despite the BOM (the tiny series then fails the
        # interior-point minimum, which is a clean modelling error, not a
        # parse error)
        assert code == 2

    def test_oversized_field_is_one_error_line(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("t,p\n-1,1\n0," + "1" * 200_000 + "\n1,1\n")
        assert cli._plain_series(path.read_bytes()) is None
        code, out, err = run_cli("fit", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == (f"ERROR 2: {str(path)!r}: field larger than field "
                       f"limit ({csv.field_size_limit()})\n")

    def test_subnormal_step_is_one_error_line(self, tmp_path):
        # in a child process, where numpy's RuntimeWarning would print
        path = tmp_path / "subnormal.csv"
        path.write_text("t,p\n-1e-323,1e-320\n-5e-324,2e-320\n0,4e-320\n"
                        "5e-324,7e-320\n1e-323,1.1e-319\n")
        code, out, err = run_cli_bytes("fit", "--input", str(path))
        assert (code, out) == (2, b"")
        assert err == b"ERROR 2: fit_ab's (a, b) = (inf, inf) leave float64\n"

    def test_asymmetric_grid_rejected(self, tmp_path):
        path = write_series_csv(tmp_path / "asym.csv", [-1.0, 0.0, 2.0],
                                [1.0, 2.0, 3.0])
        code, _, err = run_cli("fit", "--input", path)
        assert code == 2
        assert "mirror" in err or "symmetric" in err or "partner" in err


# ---------------------------------------------------------------------------
# fit: the plain-file reader against the csv reader
# ---------------------------------------------------------------------------

def csv_reader_only():
    """Context in which ``fit`` reads every file with the csv reader."""
    return mock.patch.object(cli, "_plain_series", return_value=None)


ODD_TOKENS = ("inf", "-inf", "nan", "Infinity", "1_0", "0x1p3", "", "1e400",
              "1e", ".", "+", "--1", "1..2", "-0", "+.5e-3")


@st.composite
def series_files(draw) -> bytes:
    """A ``t,p`` file as ``simulate`` writes it, then up to three mutations."""
    m = draw(st.integers(0, 5))
    h = draw(st.floats(1e-3, 10.0))
    r = draw(st.floats(0.05, 1.5))
    w1, w2 = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
    lines = [["t", "p"]] + [
        [cli.fmt(t), cli.fmt(w1 * math.exp(r * t) + w2 * math.exp(-r * t))]
        for t in (h * (i - m) for i in range(2 * m + 1))]
    bom, eol, last_eol = "", "\n", "\n"
    cell_edits = {
        "quote": lambda c: f'"{c}"',
        "spaces": lambda c: draw(st.sampled_from([" ", "\t", ""])) + c + " ",
        "token": lambda c: draw(st.sampled_from(ODD_TOKENS)
                                | st.text("0123456789.eE+-", max_size=6)),
        "huge": lambda c: "1" * (csv.field_size_limit() + draw(st.integers(-1, 1))),
    }
    kinds = ["bom", "crlf", "no-final-eol", "blank", "whitespace",
             "extra-column", "warning", *cell_edits]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=3)):
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "bom":
            bom = "\ufeff"
        elif kind == "crlf":
            eol = last_eol = "\r\n"
        elif kind == "no-final-eol":
            last_eol = ""
        elif kind == "blank":
            lines.insert(i + 1, [])
        elif kind == "whitespace":
            lines.insert(i + 1, [draw(st.sampled_from([" ", "\t", "  "]))])
        elif kind == "extra-column":
            lines[i].append("1")
        elif kind == "warning":
            lines = [cells + ["warning" if n == 0 else "infeasible"]
                     for n, cells in enumerate(lines)]
        elif lines[i]:
            j = draw(st.integers(0, len(lines[i]) - 1))
            lines[i][j] = cell_edits[kind](lines[i][j])
    text = bom + eol.join(",".join(cells) for cells in lines) + last_eol
    return text.encode("utf-8")


class TestSeriesReaders:
    @pytest.mark.parametrize("name", SIMULATE_GOLDENS)
    def test_plain_reader_taken_on_simulate_output(self, data_dir, name):
        path = str(data_dir / name)
        plain = (data_dir / name).read_text().startswith("t,p\n")
        columns = cli._plain_series((data_dir / name).read_bytes())
        assert (columns is not None) == plain
        if plain:
            with csv_reader_only():
                times, values = cli._read_series_csv(path)
            assert np.array(columns).tobytes() == np.array([times, values]).tobytes()
            with mock.patch.object(cli, "_csv_rows",
                                   side_effect=AssertionError("csv reader ran")):
                assert run_cli("fit", "--input", path)[0] == 0

    @given(data=series_files())
    @example(data=b"t,p\n-1,1\n0,2\n1,3\n")
    @example(data=b"t,p\n-1,1\n0,2\n1,3")
    @example(data=b"t,p\n-1,1\n0,2,\n1,3\n")
    @example(data=b"t,p\n-1,1\n0,\n1,3\n")
    @example(data=b"t,p\n")
    # the commas add up, but loadtxt reads one row of three cells
    @example(data=b"t,p\n1,2,3\n\n")
    @settings(max_examples=300, deadline=None)
    def test_readers_agree(self, tmp_path_factory, data):
        """Either the plain reader declines a file or its columns are the csv
        reader's bit for bit; ``fit`` prints the same bytes either way."""
        path = tmp_path_factory.getbasetemp() / "readers_series.csv"
        path.write_bytes(data)
        columns = cli._plain_series(data)
        with csv_reader_only():
            csv_result = run_cli("fit", "--input", str(path))
            if columns is not None:
                times, values = cli._read_series_csv(str(path))
                assert (np.array(columns).tobytes()
                        == np.array([times, values]).tobytes())
        assert run_cli("fit", "--input", str(path)) == csv_result

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"),
                        reason="needs /dev/stdin")
    @pytest.mark.parametrize("name", ["exponential", "oscillatory"])
    def test_fit_reads_a_pipe(self, data_dir, name):
        """A pipe can be read only once: a plain file (exponential) and one
        with a warning column (oscillatory) give the golden bytes either way."""
        data = (data_dir / f"golden_simulate_{name}.csv").read_bytes()
        assert run_cli_bytes("fit", "--input", "/dev/stdin", "--predict", "1.5",
                             stdin=data) == (
            0, (data_dir / f"golden_fit_{name}.out").read_bytes(),
            (data_dir / f"golden_fit_{name}.err").read_bytes())


# ---------------------------------------------------------------------------
# fit and rank: the streaming csv readers against the list-based reference
# ---------------------------------------------------------------------------

@st.composite
def faulty_tables(draw, header: str, cells) -> bytes:
    """``header``, then rows of ``cells``, then up to four faults: short rows,
    bad cells or headers, blank lines, NUL bytes, quotes, an over-long field,
    an undecodable byte, a BOM, CRLF line ends, or no bytes at all."""
    rows = [header] + [",".join(draw(st.lists(cells, min_size=1, max_size=4)))
                       for _ in range(draw(st.integers(0, 6)))]
    bad = {
        "blank": "",
        "short": draw(cells),
        "text": draw(st.text("tpjournal,\"x -.1\x00", max_size=6)),
        "huge": "1," + "1" * (csv.field_size_limit() + draw(st.integers(0, 1))),
        "quote": '"' + draw(cells),
        "header": draw(st.sampled_from(["t,q", "journal", "time,value", "p,t"])),
    }
    eol, bom = "\n", ""
    for kind in draw(st.lists(st.sampled_from(
            [*bad, "bytes", "bom", "crlf", "empty"]), max_size=4)):
        i = draw(st.integers(0, len(rows)))
        if kind == "bom":
            bom = "\ufeff"
        elif kind == "crlf":
            eol = "\r\n"
        elif kind == "empty":
            rows = []
        elif kind == "bytes":
            rows.insert(i, "\udcff")      # an undecodable byte, 0xff
        else:
            rows.insert(i, bad[kind])
    text = bom + "".join(row + eol for row in rows)
    return text.encode("utf-8", "surrogateescape")


#: Cells of a series file: mostly numbers, so that some files pass.
SERIES_CELLS = st.sampled_from(["-1", "0", "1", "2", "x", "", " 1", "1e400"])
#: Cells of a feature table: a journal name or a number.
TABLE_CELLS = st.sampled_from(["J", '"J,2"', "0", "1", "2.5", "-3", "x", ""])


def run_with(name: str, reference, *argv: str) -> tuple[int, str, str]:
    """``run_cli(*argv)`` with ``cli.<name>`` replaced by ``reference``."""
    with mock.patch.object(cli, name, reference):
        return run_cli(*argv)


def peak_traced_bytes(*argv: str) -> int:
    """Peak bytes ``tracemalloc`` sees while ``cli.main(argv)`` runs, once
    its imports are loaded by a first run."""
    import tracemalloc

    run_cli(*argv)
    tracemalloc.start()
    try:
        run_cli(*argv)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamingReaders:
    @given(data=faulty_tables("t,p", SERIES_CELLS))
    # a bad row, then a field over the limit: the csv fault is reported
    @example(data=b"t,p\n-1,x\n0,1\n1," + b"1" * 200_000 + b"\n")
    @example(data=b"time,value\n-1,1\n" + b"1" * 200_000 + b"\n")
    @example(data=b"t,p\n-1\n0,\xff\n")
    @example(data=b"\xef\xbb\xbf\r\n\r\n")
    @settings(max_examples=200, deadline=None)
    def test_fit_reports_what_the_list_reader_reports(self, tmp_path_factory,
                                                      data):
        from oracles import list_read_series_csv

        path = str(tmp_path_factory.getbasetemp() / "faulty_series.csv")
        pathlib.Path(path).write_bytes(data)
        assert run_cli("fit", "--input", path) == run_with(
            "_read_series_csv", list_read_series_csv, "fit", "--input", path)

    @given(data=faulty_tables("journal,CiteScore,h", TABLE_CELLS))
    @example(data=b"journal,a,b\nJ,1\nK,1,2\nL," + b"1" * 200_000 + b",3\n")
    @example(data=b"journal,a\nJ,1,2\n\xff\n")
    @example(data=b"journal,a,b\nJ,1,2\nK,2,1\nL,3,3\n")
    @settings(max_examples=200, deadline=None)
    def test_rank_reports_what_the_list_reader_reports(self, tmp_path_factory,
                                                       data):
        from oracles import list_read_journals_csv

        path = str(tmp_path_factory.getbasetemp() / "faulty_table.csv")
        pathlib.Path(path).write_bytes(data)
        assert run_cli("rank", "--input", path) == run_with(
            "_read_journals_csv", list_read_journals_csv, "rank", "--input",
            path)

    @pytest.mark.parametrize("eol", [
        pytest.param("\n", marks=pytest.mark.skipif(
            tuple(map(int, np.__version__.split(".")[:2])) < (1, 23),
            reason="np.loadtxt before numpy 1.23 parses through Python lists")),
        "\r\n",
    ], ids=["plain", "crlf"])
    def test_fit_holds_the_bytes_and_few_columns(self, tmp_path, eol):
        """2**16 intervals: the peak stays below the file's bytes plus six
        float64 columns, for the plain reader and the csv reader alike (with
        a byte check that copied the file and a csv reader that listed its
        rows, it was 2.7 and 9.6 times the bytes)."""
        m = 2**15
        rows = 2 * m + 1
        path = tmp_path / "wide.csv"
        path.write_bytes(("t,p" + eol + "".join(
            f"{t!r},{math.exp(0.5 * t) + math.exp(-0.5 * t)!r}{eol}"
            for t in (5.0 / m * (i - m) for i in range(rows)))).encode())
        peak = peak_traced_bytes("fit", "--input", str(path))
        assert peak < path.stat().st_size + 6 * 8 * rows


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

class TestRank:
    def test_wide_short_table_ranks_in_the_loop(self, tmp_path):
        """1000 predictors over 3 journals rank in the loop over nonzero
        coefficients and build no sweep kernel: a generated kernel that
        wide would take seconds to build, and one a few times wider would
        not compile (its sums nest k deep).  At lambda = 2 every
        standardized correlation thresholds to 0, so each fit is one
        sweep."""
        numerics._sweep_kernel.cache_clear()
        data = np.random.default_rng(0).lognormal(0.0, 0.75, size=(3, 1001))
        path = tmp_path / "wide.csv"
        path.write_text(
            "journal," + ",".join(f"f{i}" for i in range(1001)) + "\n"
            + "".join(f"J{r}," + ",".join(map(repr, row)) + "\n"
                      for r, row in enumerate(data.tolist())))
        code, out, err = run_cli("rank", "--input", str(path),
                                 "--lambda", "2")
        assert (code, err) == (0, "response=f0 lambda=2\n")
        lines = out.splitlines()
        assert lines[0] == "rank,journal,singval,elimination_step"
        assert sorted(line.split(",")[1] for line in lines[1:]) == [
            "J0", "J1", "J2"]
        # the one width asked for, and the loop chosen for it
        assert numerics._sweep_kernel.cache_info().currsize == 1
        assert numerics._sweep_kernel(1000) is numerics._nonzero_sweeps
        assert numerics._sweep_kernel.cache_info().currsize == 1

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"),
                        reason="needs /dev/stdin")
    def test_reads_a_pipe(self, data_dir):
        data = (data_dir / "rank_m8.csv").read_bytes()
        code, out, _ = run_cli_bytes("rank", "--input", "/dev/stdin",
                                     stdin=data)
        assert (code, out) == (0, (data_dir / "golden_rank_m8.csv").read_bytes())

    def test_convergence_failure_names_the_step(self, data_dir, monkeypatch):
        monkeypatch.setattr(numerics, "LASSO_MAX_SWEEPS", 1)
        code, out, err = run_cli("rank", "--input",
                                 str(data_dir / "rank_m8.csv"))
        assert code == 2 and out == ""
        assert err.strip().splitlines()[-1] == (
            "ERROR 2: step 1: coordinate descent did not converge within "
            "1 sweeps")

    def test_explicit_response_and_lambda(self, data_dir):
        code, _, err = run_cli("rank", "--input",
                               str(data_dir / "rank_m5.csv"),
                               "--response", "SJR", "--lambda", "0.25")
        assert code == 0
        assert err.strip() == "response=SJR lambda=0.25"

    def test_default_response_without_citescore(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("journal,x,y\nA,1,4\nB,2,6\nC,3.5,5\n")
        code, _, err = run_cli("rank", "--input", str(path))
        assert code == 0
        assert err.strip() == "response=x lambda=0.1"

    def test_unknown_response(self, data_dir):
        code, _, err = run_cli("rank", "--input",
                               str(data_dir / "rank_m3.csv"),
                               "--response", "Prestige")
        assert code == 2
        # the response/lambda echo still lands first on stderr
        assert err.strip().splitlines()[-1].startswith("ERROR 2: ")
        assert "Prestige" in err

    def test_flatness_floor_ignores_units(self, tmp_path):
        # the floor is absolute (ROADMAP item 9): a column whose largest
        # magnitude is 2**-511 is flat, and the same column times 2**511
        # ranks
        tiny = math.ldexp(1.0, -511)
        cells = [(tiny, 1), (-tiny, 2), (0.0, 3), (tiny / 2, 7)]

        def rank(scale):
            path = tmp_path / "units.csv"
            path.write_text("journal,CiteScore,SJR\n" + "".join(
                f"{name},{a * scale!r},{b}\n"
                for name, (a, b) in zip("ABCD", cells)))
            return run_cli("rank", "--input", str(path))

        assert rank(1.0) == (5, "", "response=CiteScore lambda=0.1\n"
                             "ERROR 5: step 1: feature 'CiteScore' has zero "
                             "variance\n")
        code, _, err = rank(math.ldexp(1.0, 511))
        assert code == 0, err

    def test_malformed_table(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name,x,y\nA,1,2\n")
        code, _, err = run_cli("rank", "--input", str(path))
        assert code == 2

    @pytest.mark.parametrize("row, detail", [
        ("B,1", "expected 3 cells, got 2"),
        ("B,1,2,3", "expected 3 cells, got 4"),
        ("B,1,high", "non-numeric feature value"),
    ])
    def test_malformed_row(self, tmp_path, row, detail):
        path = tmp_path / "rows.csv"
        path.write_text(f"journal,CiteScore,SJR\nA,1,2\n{row}\n")
        code, out, err = run_cli("rank", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"ERROR 2: {str(path)!r} line 3: {detail}"

    def test_line_number_counts_blank_lines(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("journal,A,B\n\nJ1,1,2\nJ2,1,y\n")
        code, out, err = run_cli("rank", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == (f"ERROR 2: {str(path)!r} line 4: "
                       f"non-numeric feature value\n")

    def test_line_number_of_a_multiline_row_is_its_last(self, tmp_path):
        path = tmp_path / "multiline.csv"
        path.write_text('journal,A,B\n"J\n1",1,2\nJ2,1\n')
        code, _, err = run_cli("rank", "--input", str(path))
        assert code == 2
        assert err.endswith(f"{str(path)!r} line 4: expected 3 cells, got 2\n")

    def test_oversized_field_is_one_error_line(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("journal,CiteScore,SJR\nA,1," + "1" * 200_000 + "\n")
        code, out, err = run_cli("rank", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == (f"ERROR 2: {str(path)!r}: field larger than field "
                       f"limit ({csv.field_size_limit()})\n")

    def test_quoted_journal_names_roundtrip(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('journal,CiteScore,SJR\n'
                        '"Annals, Applied",3.2,1.4\n'
                        'Plain Review,5.6,2.3\n'
                        'Other Letters,1.1,0.5\n')
        code, out, _ = run_cli("rank", "--input", str(path))
        assert code == 0
        assert '"Annals, Applied"' in out

    def test_carriage_return_in_name_roundtrips(self, tmp_path):
        path = tmp_path / "cr.csv"
        path.write_bytes(b'journal,CiteScore,SJR\n"J\rX",3.2,1.4\n'
                         b'Plain Review,5.6,2.3\nOther Letters,1.1,0.5\n')
        code, out, _ = run_cli("rank", "--input", str(path))
        assert code == 0
        rows = list(csv.reader(io.StringIO(out, newline="")))
        assert len(rows) == 4
        assert "J\rX" in [row[1] for row in rows]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

class TestVerify:
    def test_oscillatory_params_exit_3(self):
        code, _, err = run_cli("verify", "--a", "0.5", "--b", "0.3",
                               "--p0", "1")
        assert code == 3
        assert err.startswith("ERROR 3: ")

    def test_step_count_beyond_float_range_is_one_error_line(self):
        code, out, err = run_cli_bytes("verify", "--a", "0.3", "--b", "0.5",
                                       "--p0", "1", "--t-max", "1e308",
                                       "--step", "1e-300")
        assert code == 2 and out == b""
        assert b"Traceback" not in err
        assert err.count(b"ERROR 2: ") == 1 and err.count(b"\n") == 1
        assert b"step count" in err

    def test_step_count_above_cap_is_one_error_line(self, monkeypatch):
        monkeypatch.setattr(numerics, "RK4_MAX_STEPS", 100)
        code, out, err = run_cli("verify", "--a", "0.3", "--b", "0.5",
                                 "--p0", "1")
        assert (code, out) == (2, "")
        assert err == ("ERROR 2: step count 5.0/0.001 exceeds the cap of 100 "
                       "steps\n")

    def test_squares_whose_sum_overflows(self):
        code, out, err = run_cli("verify", "--a", "1e154", "--b", "1.3e154",
                                 "--p0", "1", "--t-max", "1e-154",
                                 "--step", "1e-156")
        assert (code, out, err) == (0, "8.28185298118e-11\n", "")

    def test_regime_checked_before_integration(self, monkeypatch):
        def no_oracle(*args):
            raise AssertionError("the oracle must not run")

        monkeypatch.setattr(solver, "_oracle_blocks", no_oracle)
        code, out, err = run_cli("verify", "--a", "2", "--b", "1", "--p0", "1",
                                 "--t-max", "5", "--step", "1e-5")
        assert code == 3 and out == ""
        assert err == ("ERROR 3: base_solution requires the exponential regime "
                       "(b**2 > a**2); a=2.0, b=1.0 is oscillatory\n")

    def test_step_validation(self):
        code, _, err = run_cli("verify", "--a", "0.3", "--b", "0.5",
                               "--p0", "1", "--step", "0")
        assert code == 2

    @pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
    def test_memory_does_not_grow_with_the_step_count(self):
        """One block of RK4 steps is held at a time: 2**18 steps peak
        within 4 MB of 2**11 (a whole window held about 300 bytes a step,
        some 80 MB here)."""
        argv = ("verify", "--a", "0.3", "--b", "0.9", "--p0", "1",
                "--t-max", "1", "--step")
        code, out, small = cli_peak_rss_mb(*argv, repr(2.0 ** -11))
        assert (code, out) == (0, b"5.531842727e-16\n")
        code, out, large = cli_peak_rss_mb(*argv, repr(2.0 ** -18))
        assert (code, out) == (0, b"5.13478148889e-16\n")
        assert large <= small + 4.0

    @given(
        a=st.floats(min_value=-2.0, max_value=2.0),
        margin=st.floats(min_value=0.01, max_value=1.0),
        sign=st.sampled_from([1.0, -1.0]),
        p0=st.floats(min_value=0.1, max_value=10.0)
        | st.floats(min_value=-10.0, max_value=-0.1),
        t_max=st.floats(min_value=0.01, max_value=3.0),
        step=st.floats(min_value=1e-3, max_value=1.0),
    )
    @example(a=0.3, margin=0.2, sign=1.0, p0=1.0, t_max=5.0, step=2.0 ** -11)
    @example(a=0.3, margin=0.2, sign=1.0, p0=-1.0, t_max=1.0, step=0.25)
    @settings(max_examples=40, deadline=None)
    def test_deviation_is_largest_relative_gap(self, a, margin, sign, p0,
                                               t_max, step):
        """stdout is the largest |c - p| / max(1, |c|) between the closed
        form c and the oracle p; at p0 = +-1, |c| is exactly 1 at t=0."""
        from mirrordde import DdeParams, evaluate, oracle_solution

        b = sign * (abs(a) + margin)
        params = DdeParams(a=a, b=b, p0=p0, half_width=t_max)
        times, oracle = oracle_solution(params, t_max, step)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            closed = evaluate(params, times)
        want = cli.fmt(max_relative_deviation(closed, oracle)) + "\n"
        # the "=" form; the space form reads the same (TestNegativeNumbers)
        _, out, _ = run_cli("verify", f"--a={a!r}", f"--b={b!r}",
                            f"--p0={p0!r}", f"--t-max={t_max!r}",
                            f"--step={step!r}")
        assert out == want


# ---------------------------------------------------------------------------
# eta
# ---------------------------------------------------------------------------

class TestEta:
    def test_spot_value(self):
        code, out, err = run_cli("eta", "--art", "0", "--alpha", "2",
                                 "--a", "0.5", "--b", "0.3")
        assert code == 0 and err == ""
        assert out.strip() == "1.4"

    def test_share_out_of_range(self):
        code, _, err = run_cli("eta", "--art", "1.5", "--alpha", "1",
                               "--a", "0.5", "--b", "0.3")
        assert code == 2
        assert err.startswith("ERROR 2: ")

    def test_overflow_is_an_error_line(self):
        code, out, err = run_cli("eta", "--art", "0.5", "--alpha", "1e300",
                                 "--a", "1e300", "--b=-1e300")
        assert (code, out) == (2, "")
        assert err == "ERROR 2: eta must be finite, got inf\n"


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

class TestDispatch:
    def test_no_subcommand(self):
        code, _, err = run_cli()
        assert code == 2
        assert err.startswith("ERROR 2: ")

    def test_unknown_subcommand(self):
        code, _, err = run_cli("transmogrify")
        assert code == 2

    def test_non_finite_flag_rejected(self):
        code, _, err = run_cli("simulate", "--a", "nan", "--b", "1",
                               "--p0", "1")
        assert code == 2

    def test_error_lines_are_single_line(self):
        for args in (("simulate", "--a", "0.5", "--b", "0.3", "--p0", "1"),
                     ("fit", "--input", "/nonexistent/x.csv"),
                     ("eta", "--art", "2", "--alpha", "1", "--a", "1",
                      "--b", "0")):
            _, _, err = run_cli(*args)
            assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("argv", [
        ("simulate", "--a", "0", "--b", "1000", "--p0", "1", "--steps", "10"),
        ("fit", "--predict", "1e6"),
        # an integer too large to convert to a float
        ("simulate", "--a", "0.2", "--b", "0.6", "--p0", "1",
         "--steps", "1" + "0" * 400),
    ])
    def test_overflow_is_an_error_line(self, tmp_path, argv):
        if argv[0] == "fit":
            argv = ("fit", "--input", exponential_csv(tmp_path / "s.csv"),
                    *argv[1:])
        code, out, err = run_cli_bytes(*argv)
        assert code == 2 and out == b""
        assert b"Traceback" not in err
        assert err.count(b"ERROR 2: ") == 1 and err.count(b"\n") == 1

    @pytest.mark.parametrize("flag, value, detail", [
        ("--theta-lin", "1", "expected two comma-separated numbers, got '1'"),
        ("--eta-exp", "1,x", "expected two comma-separated numbers, "
                             "got '1,x'"),
        ("--theta-const", "abc", "not a number: 'abc'"),
    ])
    def test_flag_value_errors(self, flag, value, detail):
        code, out, err = run_cli("simulate", "--a", "0.2", "--b", "0.6",
                                 "--p0", "1", flag, value)
        assert (code, out) == (2, "")
        assert err == f"ERROR 2: argument {flag}: {detail}\n"

    @pytest.mark.parametrize("subcommand", ["fit", "rank"])
    def test_empty_input(self, tmp_path, subcommand):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"\n\n")
        code, out, err = run_cli(subcommand, "--input", str(path))
        assert (code, out) == (2, "")
        assert err == f"ERROR 2: {str(path)!r} is empty\n"

    @pytest.mark.parametrize("exc, code, detail", [
        (SingularSystem("det=0.0"), 4, "det=0.0"),
        (OverflowError("math range error"), 2,
         "result exceeds the float64 range (math range error)"),
    ])
    def test_stage_errors_map_to_exit_codes(self, monkeypatch, exc, code,
                                            detail):
        def stage(*args):
            raise exc

        monkeypatch.setattr(cli, "eta_article", stage)
        got = run_cli("eta", "--art", "0.5", "--alpha", "0.2",
                      "--a", "0.3", "--b", "0.8")
        assert got == (code, "", f"ERROR {code}: {detail}\n")

    @pytest.mark.parametrize("argv", [
        ("simulate", "--a", "0.3", "--b", "0.9", "--p0", "1",
         "--steps", "200000"),
        # one short line, so the failure waits for main's flush
        ("verify", "--a", "0.3", "--b", "0.5", "--p0", "1", "--t-max", "0.5"),
    ])
    def test_closed_stdout_is_one_error_line(self, argv):
        """A reader that closes stdout early (``simulate ... | head -1``)
        gets exit 1 and one ERROR 1 line, not a BrokenPipeError
        traceback."""
        proc = subprocess.Popen([sys.executable, "-m", "mirrordde", *argv],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        if argv[0] == "simulate":
            assert proc.stdout.readline() == b"t,p\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=300) == 1
        assert err == b"ERROR 1: stdout was closed before all output was " \
            b"written\n"

    def test_module_entry_point(self, data_dir):
        code, out, err = run_cli_bytes("rank", "--input",
                                       str(data_dir / "rank_m5.csv"))
        assert code == 0
        assert out == (data_dir / "golden_rank_m5.csv").read_bytes()


# ---------------------------------------------------------------------------
# negative numbers and the never-raises property
# ---------------------------------------------------------------------------

#: Valid flag values per subcommand; one flag at a time is replaced.
BASE_FLAGS = {
    "simulate": {"--a": "0.2", "--b": "0.6", "--p0": "1", "--steps": "4"},
    "verify": {"--a": "0.3", "--b": "0.5", "--p0": "1", "--t-max": "0.5",
               "--step": "0.01"},
    "eta": {"--art": "0.5", "--alpha": "0.2", "--a": "0.3", "--b": "0.8"},
    "rank": {},
}

NEGATIVE_FLAGS = [
    *[("simulate", flag, "-2e-05")
      for flag in ("--a", "--b", "--p0", "--t-min", "--t-max", "--steps",
                   "--theta-const", "--theta-exp", "--c1", "--c2")],
    *[("simulate", flag, "-1e-3,2")
      for flag in ("--theta-lin", "--eta-exp", "--eta-article")],
    *[("verify", flag, "-2e-05")
      for flag in ("--a", "--b", "--p0", "--t-max", "--step")],
    *[("eta", flag, "-.5e-3") for flag in ("--art", "--alpha", "--a", "--b")],
    ("rank", "--lambda", "-2e-05"),
]


class TestNegativeNumbers:
    @pytest.mark.parametrize("command,flag,value", NEGATIVE_FLAGS)
    def test_space_form_equals_equals_form(self, data_dir, command, flag,
                                           value):
        """``--flag -2e-05`` reads as ``--flag=-2e-05``: argparse's stock
        pattern took a negative number in exponent notation, or a negative
        pair, for an option and left the flag without its value."""
        flags = dict(BASE_FLAGS[command])
        if flag in ("--c1", "--c2"):
            flags.update({"--c1": "0.5", "--c2": "0.5"})
        flags.pop(flag, None)
        argv = [command, *[x for item in flags.items() for x in item]]
        if command == "rank":
            argv += ["--input", str(data_dir / "rank_m8.csv")]
        spaced = run_cli(*argv, flag, value)
        assert spaced == run_cli(*argv, f"{flag}={value}")
        assert "expected one argument" not in spaced[2]

    def test_option_like_value_still_rejected(self):
        code, _, err = run_cli("verify", "--a", "-x", "--b", "0.5",
                               "--p0", "1")
        assert code == 2
        assert err == "ERROR 2: argument --a: expected one argument\n"


def number():
    """A flag value as ``repr`` of a finite float, often a small one: signs,
    exponents and -0.0 included."""
    return (st.floats(-10.0, 10.0)
            | st.floats(allow_nan=False, allow_infinity=False)).map(repr)


def pair():
    return st.tuples(number(), number()).map(",".join)


def flag_argv(draw, flags, required=()):
    """The required flags and a drawn subset of the others, each in the
    ``--flag value`` or the ``--flag=value`` form."""
    argv = []
    for flag, values in flags.items():
        if flag in required or draw(st.booleans()):
            value = draw(values)
            argv += draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
    return argv


#: ``--out`` values under a temporary directory {tmp} that holds a regular
#: file {tmp}/file: writable, a missing directory, the directory itself, a
#: path through the file, and the empty path.
OUT_PATHS = ["{tmp}/series.csv", "{tmp}/missing/x.csv", "{tmp}",
             "{tmp}/file/x.csv", ""]


@st.composite
def simulate_argv(draw):
    # one flag of each exclusive group, so that most draws get past argparse
    theta = draw(st.sampled_from(["--theta-const", "--theta-lin",
                                  "--theta-exp"]))
    eta = draw(st.sampled_from(["--eta-exp", "--eta-article"]))
    flags = {"--a": number(), "--b": number(), "--p0": number(),
             "--t-min": number(), "--t-max": number(),
             # at most 2001 grid points: the work stays small
             "--steps": st.integers(-1, 2000).map(str),
             theta: number() if theta != "--theta-lin" else pair(),
             eta: pair(), "--c1": number(), "--c2": number(),
             "--out": st.sampled_from(OUT_PATHS)}
    return ["simulate", *flag_argv(draw, flags, ("--a", "--b", "--p0")),
            *draw(st.sampled_from([[], ["--allow-oscillatory"]]))]


@st.composite
def verify_argv(draw):
    argv = ["verify", *flag_argv(draw, {"--a": number(), "--b": number(),
                                        "--p0": number()},
                                 ("--a", "--b", "--p0"))]
    if draw(st.booleans()):
        # a step of at least t_max / 2e4, so at most about 2e4 steps (or no
        # valid step); the default 1e-3 would be far too short for a long
        # window, so --t-max never comes without --step
        t_max = float(draw(number()))
        factor = draw(st.floats(min_value=1.0, max_value=1e6))
        sign = draw(st.sampled_from([1.0, -1.0]))
        argv += ["--t-max", repr(t_max),
                 "--step", repr(sign * abs(t_max) / 2e4 * factor)]
    return argv


@st.composite
def eta_argv(draw):
    flags = {"--art": st.floats(0.0, 1.0).map(repr) | number(),
             "--alpha": number(), "--a": number(), "--b": number()}
    return ["eta", *flag_argv(draw, flags, tuple(flags))]


@st.composite
def fit_case(draw):
    flags = {"--fd": st.sampled_from(["central", "forward"]),
             "--predict": number()}
    return "fit", draw(series_files()), flag_argv(draw, flags)


#: Table cells: small values, every finite float, and the edges of float64.
TABLE_CELLS = (st.floats(-10.0, 10.0)
               | st.floats(allow_nan=False, allow_infinity=False)
               | st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e-300,
                                  1e308, -1.7e308])).map(repr)


@st.composite
def rank_tables(draw) -> bytes:
    """A ``journal,<features...>`` table, then up to three mutations: a
    ragged row, a non-numeric cell, a duplicate name or a flat column."""
    m = draw(st.integers(1, 6))
    features = draw(st.lists(st.sampled_from(["CiteScore", "SJR", "SNIP", "h5"]),
                             min_size=2, max_size=4, unique=True))
    rows = [["journal", *features]] + [
        [f"J{i}", *(draw(TABLE_CELLS) for _ in features)] for i in range(m)]
    kinds = ["ragged", "token", "duplicate", "flat"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=3)):
        row = rows[draw(st.integers(1, m))]
        if kind == "ragged":
            if draw(st.booleans()):
                row.append("1")
            else:
                row.pop()
        elif kind == "token":
            if len(row) > 1:  # two ragged pops can leave the name alone
                row[draw(st.integers(1, len(row) - 1))] = draw(
                    st.sampled_from(ODD_TOKENS) | st.text("abc.e+-", max_size=4))
        elif kind == "duplicate":
            row[0] = rows[draw(st.integers(1, m))][0]
        else:
            j, value = draw(st.integers(1, len(features))), draw(TABLE_CELLS)
            for cells in rows[1:]:
                if j < len(cells):
                    cells[j] = value
    return ("\n".join(",".join(cells) for cells in rows) + "\n").encode()


@st.composite
def rank_case(draw):
    flags = {"--lambda": st.floats(0.0, 2.0).map(repr) | number(),
             "--response": st.sampled_from(["CiteScore", "SJR", "h5", "none"])}
    return "rank", draw(rank_tables()), flag_argv(draw, flags)


class TestNeverRaises:
    @given(argv=st.one_of(simulate_argv(), verify_argv(), eta_argv()))
    @example(argv=["verify", "--a", "-2e-05", "--b", "0.5", "--p0", "1"])
    @example(argv=["simulate", "--a", "0", "--b", "1e308", "--p0", "1"])
    @example(argv=["simulate", "--a", "0.3", "--b", "0.9", "--p0", "1",
                   "--out", "{tmp}/missing/x.csv"])
    @settings(max_examples=200, deadline=None)
    def test_exit_code_and_at_most_one_error_line(self, tmp_path_factory,
                                                  argv):
        """No argv of a subcommand's own flags gives a traceback: main
        returns an int, and stderr is empty on success or one ERROR line;
        with ``--out``, stdout stays empty."""
        tmp = tmp_path_factory.getbasetemp() / "never_raises_out"
        tmp.mkdir(exist_ok=True)
        (tmp / "file").write_text("")
        argv = [arg.replace("{tmp}", str(tmp)) for arg in argv]
        # a printed warning would be a second stderr line: fail on it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(*argv)
        assert isinstance(code, int)
        if code == 0:
            assert err == ""
        else:
            assert err.startswith(f"ERROR {code}: ")
            assert err.count("\n") == 1 and err.endswith("\n")
        if any(arg.startswith("--out") for arg in argv):
            assert out == ""

    @given(case=st.one_of(fit_case(), rank_case()))
    @example(case=("rank", b"journal,CiteScore,SJR\nA,1e308,-1.7e308\n"
                           b"B,5e-324,1\nC,-1e308,1e308\n", []))
    @example(case=("rank", b"journal,CiteScore,SJR\nA,1,2\nA,3,4\n", []))
    @example(case=("fit", b"t,p\n-1,1\n0,2\n1,3\n", ["--predict", "1e308"]))
    @settings(max_examples=200, deadline=None)
    def test_file_commands_end_in_at_most_one_error_line(self, tmp_path_factory,
                                                         case):
        """``fit`` and ``rank`` on any file and flags: main returns an int,
        and stderr holds at most ``rank``'s echo or ``fit``'s mode note,
        then one ERROR line exactly when the exit code is not 0."""
        command, data, flags = case
        path = tmp_path_factory.getbasetemp() / "never_raises_input.csv"
        path.write_bytes(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(command, "--input", str(path), *flags)
        assert isinstance(code, int)
        assert err == "" or err.endswith("\n")
        lines = err.splitlines()
        errors = [line for line in lines if line.startswith("ERROR ")]
        if code == 0:
            assert errors == [] and len(lines) <= 1
        else:
            assert errors == [lines[-1]] and len(lines) <= 2
            assert lines[-1].startswith(f"ERROR {code}: ")


# ---------------------------------------------------------------------------
# README examples
# ---------------------------------------------------------------------------

README = pathlib.Path(__file__).parents[1] / "README.md"


def readme_examples() -> list[tuple[list[str], list[str]]]:
    """(argv, shown output lines) of each ``$ mirrordde ...`` line in the
    ``sh`` blocks of README.md, in order."""
    examples, current = [], None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            current = [] if line == "```sh" else None
        elif current is not None and line.startswith("$ mirrordde "):
            current = []
            examples.append((shlex.split(line)[2:], current))
        elif current is not None and examples:
            current.append(line)
    return examples


def shown_output_matches(shown: list[str], out: list[str]) -> bool:
    """``...`` inside a shown line stands for any text; a lone ``...`` line
    ends the comparison."""
    for i, want in enumerate(shown):
        if want == "...":
            return True
        pattern = ".*".join(map(re.escape, want.split("...")))
        if i >= len(out) or not re.fullmatch(pattern, out[i]):
            return False
    return len(out) == len(shown)


def test_readme_examples_print_what_they_show(tmp_path, monkeypatch):
    """Each README example, run in order in one directory (so ``simulate
    --out`` feeds the ``fit`` after it), succeeds and prints what it shows."""
    (tmp_path / "tests").symlink_to(pathlib.Path(__file__).parent)
    monkeypatch.chdir(tmp_path)
    examples = readme_examples()
    assert len(examples) >= 5
    wrong = []
    for argv, shown in examples:
        code, out, _ = run_cli(*argv)
        if code != 0 or not shown_output_matches(shown, out.splitlines()):
            wrong.append((argv, code, out[:300]))
    assert wrong == []


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

def test_main_reuses_one_parser(data_dir, monkeypatch, capsys):
    """A mixed sequence of ``main`` calls in one process builds the parser
    once, and each call gives the exit code and bytes of a fresh process:
    every subcommand, an unknown flag, two flags of one exclusive group and
    then one of them alone, the first call again, and ``--help`` last, with
    its golden bytes."""
    monkeypatch.setenv("COLUMNS", "80")
    model = ["--a", "0.3", "--b", "0.9", "--p0", "1", "--steps", "4"]
    argvs = [
        ["simulate", *model],
        ["fit", "--input", str(data_dir / "golden_simulate_exponential.csv"),
         "--predict", "1.5"],
        ["rank", "--input", str(data_dir / "rank_m8.csv")],
        ["verify", "--a", "0.3", "--b", "0.5", "--p0", "1", "--t-max", "1"],
        ["eta", "--art", "0.5", "--alpha", "0.2", "--a", "0.3", "--b", "0.8"],
        ["simulate", *model, "--no-such-flag"],
        ["simulate", *model, "--theta-const", "0.1", "--theta-lin", "0.1,0.2"],
        ["simulate", *model, "--theta-lin", "0.1,0.2"],
        ["simulate", *model],
        ["--help"],
    ]

    cli.build_parser.cache_clear()
    shared = []
    for argv in argvs:
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
        out, err = capsys.readouterr()
        shared.append((code, out.encode(), err.encode()))
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(argvs) - 1)
    assert shared == [run_cli_bytes(*argv) for argv in argvs]
    assert [code for code, _, _ in shared] == [0] * 5 + [2, 2, 0, 0, 0]
    assert shared[6][2] == (b"ERROR 2: argument --theta-lin: not allowed "
                            b"with argument --theta-const\n")
    if sys.version_info < (3, 13):  # as for the help pins
        assert shared[-1][1:] == (
            (data_dir / "golden_help.txt").read_bytes(), b"")
