"""Command-line surface: flags, formats, and exit codes."""

from __future__ import annotations

import csv
import json
import math
import os
import pathlib
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirrordde import cli, numerics

from helpers import run_cli, run_cli_bytes
from oracles import max_relative_deviation

SIMULATE_GOLDENS = sorted(
    p.name for p in (pathlib.Path(__file__).parent / "data").glob(
        "golden_simulate_*.csv"))


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

    @pytest.mark.parametrize("kind,argv", [
        ("exponential", ("--a=0.23", "--b=0.61", "--p0=1.3")),
        ("degenerate", ("--a=0.37", "--b=0.37", "--p0=0.9")),
        ("oscillatory", ("--a=0.58", "--b=-0.21", "--p0=1.1",
                         "--allow-oscillatory")),
        ("modes", ("--a=-0.17", "--b=0.44", "--p0=1", "--c1=0.35",
                   "--c2=-1.2")),
        ("theta_const_eta_article", ("--a=0.12", "--b=0.47", "--p0=1.4",
                                     "--theta-const=-0.13",
                                     "--eta-article=0.62,0.8")),
        ("theta_lin_eta_exp", ("--a=-0.31", "--b=0.52", "--p0=0.8",
                               "--theta-lin=0.21,-0.07",
                               "--eta-exp=-0.15,0.33")),
        ("theta_exp", ("--a=0.2", "--b=0.55", "--p0=1.2",
                       "--theta-exp=-0.27")),
    ])
    def test_matches_golden(self, data_dir, tmp_path, kind, argv):
        """One golden per trajectory path, 401 rows on [-5, 5].

        Each file is ``simulate --t-min=-5 --t-max=5 --steps 400`` plus the
        argv above; a reordered floating-point expression in the solver
        shows up as a changed 12th digit somewhere in the 401 rows.
        """
        target = tmp_path / "sim.csv"
        code, out, err = run_cli("simulate", "--t-min=-5", "--t-max=5",
                                 "--steps", "400", *argv, "--out", str(target))
        assert code == 0 and out == "" and err == ""
        golden = data_dir / f"golden_simulate_{kind}.csv"
        assert target.read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("argv", [
        # the grid itself overflows to -inf/inf
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
        # cos(inf) was a bare "math domain error"
        ("--a", "2", "--b", "1", "--p0", "1", "--t-min=-1e308",
         "--t-max=1e308", "--steps", "2", "--allow-oscillatory"),
    ])
    def test_non_finite_is_an_error_line(self, argv):
        code, out, err = run_cli("simulate", *argv)
        assert code == 2 and out == ""
        assert "Traceback" not in err
        assert err.count("ERROR 2: ") == 1 and err.count("\n") == 1
        assert "math domain error" not in err

    @pytest.mark.parametrize("forcing", [("--theta-exp", "1e155"),
                                         ("--eta-exp", "1,1e300")])
    def test_rate_with_overflowing_square_is_not_resonant(self, forcing):
        # it used to print "ERROR 3: ... coincides with b**2 - a**2 = 0.16"
        code, out, err = run_cli("simulate", "--a", "0.3", "--b", "0.5",
                                 "--p0", "1", *forcing, "--steps", "2",
                                 "--t-min=-1", "--t-max", "1")
        assert (code, out) == (2, "")
        assert err == "ERROR 2: p(t) overflows float64 (math range error)\n"

    def test_overflowing_squares_name_the_inputs(self):
        code, out, err = run_cli("simulate", "--a", "0", "--b", "1e200",
                                 "--p0", "1", "--steps", "2")
        assert (code, out) == (2, "")
        assert err == ("ERROR 2: b**2 - a**2 overflows float64 for a=0.0, "
                       "b=1e+200\n")


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

EXPECTED_KEYS = ["a", "b", "p0", "r", "regime", "A", "B", "w1", "w2",
                 "rss_ab", "rss_modes", "n_points"]


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
        ("4.0", 11.579106043569585),
        ("-2.7", -0.690936807981872),
    ])
    def test_prediction_exact_on_exponential_series(self, tmp_path, t, want):
        # w1 e^{rt} + w2 e^{-rt} with the fitted modes, to the last bit
        path = exponential_csv(tmp_path / "series.csv")
        code, out, _ = run_cli("fit", "--input", path, "--predict", t)
        assert code == 0
        assert json.loads(out)["prediction"] == want

    @pytest.mark.parametrize("t,want", [
        ("2.5", 1.5530003285946303),
        ("-4.2", -1.7011143608451589),
    ])
    def test_prediction_exact_on_oscillatory_series(self, tmp_path, t, want):
        # p0 (cos(wt) + ((a+b)/w) sin(wt)) with the fitted (a, b)
        from mirrordde import DdeParams, oscillatory_solution

        params = DdeParams(a=0.6, b=0.2, p0=1.0)
        times = [0.05 * (i - 60) for i in range(121)]
        values = [oscillatory_solution(params, s).value for s in times]
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
        from mirrordde import DdeParams, oscillatory_solution

        params = DdeParams(a=0.6, b=0.2, p0=1.0)
        times = [0.05 * (i - 60) for i in range(121)]
        values = [oscillatory_solution(params, t).value for t in times]
        path = write_series_csv(tmp_path / "osc.csv", times, values)
        code, out, err = run_cli("fit", "--input", path)
        assert code == 0
        report = json.loads(out)
        assert report["regime"] == "oscillatory"
        for key in ("A", "B", "w1", "w2", "rss_modes"):
            assert report[key] is None
        assert "oscillatory" in err

    @pytest.mark.parametrize("name,source,extra", [
        ("exponential", "exponential", ()),
        ("exponential_forward", "exponential", ("--fd", "forward")),
        ("oscillatory", "oscillatory", ()),
        ("degenerate", "degenerate", ()),
    ])
    def test_matches_golden(self, data_dir, name, source, extra):
        """Full-precision JSON and the regime note, byte for byte.

        Inputs are the simulate goldens; each pair of files is stdout and
        stderr of ``fit --input golden_simulate_<source>.csv --predict 1.5``
        plus the extra flags.
        """
        code, out, err = run_cli(
            "fit", "--input", str(data_dir / f"golden_simulate_{source}.csv"),
            "--predict", "1.5", *extra)
        assert code == 0
        assert out.encode() == (data_dir / f"golden_fit_{name}.out").read_bytes()
        assert err.encode() == (data_dir / f"golden_fit_{name}.err").read_bytes()

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
# rank
# ---------------------------------------------------------------------------

class TestRank:
    def test_fixture_output_and_response_echo(self, data_dir):
        code, out, err = run_cli("rank", "--input",
                                 str(data_dir / "rank_m3.csv"))
        assert code == 0
        assert err.strip() == "response=CiteScore lambda=0.1"
        lines = out.strip().splitlines()
        assert lines[0] == "rank,journal,singval,elimination_step"
        assert len(lines) == 4
        golden = (data_dir / "golden_rank_m3.csv").read_text()
        assert out == golden

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"),
                        reason="needs /dev/stdin")
    def test_reads_a_pipe(self, data_dir):
        data = (data_dir / "rank_m8.csv").read_bytes()
        code, out, _ = run_cli_bytes("rank", "--input", "/dev/stdin",
                                     stdin=data)
        assert (code, out) == (0, (data_dir / "golden_rank_m8.csv").read_bytes())

    def test_matches_golden_m8(self, data_dir):
        code, out, _ = run_cli("rank", "--input",
                               str(data_dir / "rank_m8.csv"))
        assert code == 0
        assert out == (data_dir / "golden_rank_m8.csv").read_text()

    def test_matches_golden_m60(self, data_dir):
        """60 journals, so standardization sums columns longer than 8 rows.

        numpy sums such columns in pairwise order, which a row-by-row
        reduction does not reproduce in the last bit.  The table is
        ``numpy.random.default_rng(0).lognormal(0.0, 0.75, size=(60, 7))``
        printed with ``%.6g`` (journals ``Journal 01``..``Journal 60``); the
        golden is ``rank --input rank_m60.csv --lambda 0.05``.  Seed 0 ranks
        without error, so no seed was skipped.
        """
        code, out, err = run_cli_bytes("rank", "--input",
                                       str(data_dir / "rank_m60.csv"),
                                       "--lambda", "0.05")
        assert code == 0, err
        assert out == (data_dir / "golden_rank_m60.csv").read_bytes()

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

    def test_zero_variance_exit(self, tmp_path):
        path = tmp_path / "zv.csv"
        path.write_text("journal,CiteScore,SJR,SNIP,CitationCount\n"
                        "Alpha Journal,3.2,1.4,1.1,820\n"
                        "Beta Review,5.6,2.3,1.6,1450\n"
                        "Gamma Letters,1.1,0.5,1.6,260\n")
        code, _, err = run_cli("rank", "--input", str(path))
        assert code == 5
        assert err.strip().splitlines()[-1].startswith("ERROR 5: ")
        assert "SNIP" in err and "step 2" in err

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


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

VERIFY_GOLDEN_ARGVS = (
    # the benchmark size: 8192 steps of 2**-11
    ("--a", "0.3", "--b", "0.9", "--p0", "1.2", "--t-max", "4",
     "--step", "0.00048828125"),
    # a shortened final step
    ("--a", "0.3", "--b", "0.5", "--p0", "1", "--t-max", "0.35",
     "--step", "0.1"),
    ("--a=-0.4", "--b", "0.7", "--p0", "2.5"),
    # beyond the tolerance: exit 6 with one stderr line
    ("--a", "0.3", "--b", "0.5", "--p0", "1", "--step", "0.5"),
    ("--a", "0.3", "--b", "0.5", "--p0", "1", "--t-max", "5",
     "--step", "0.001"),
)


def verify_transcript() -> bytes:
    """Exit code, stdout and stderr of ``verify`` for each golden argv.

    ``tests/data/golden_verify.out`` holds these bytes; rewrite it with
    ``cd tests && PYTHONPATH=../src python -c "import sys, test_cli;
    sys.stdout.buffer.write(test_cli.verify_transcript())"``.
    """
    blocks = []
    for argv in VERIFY_GOLDEN_ARGVS:
        code, out, err = run_cli_bytes("verify", *argv)
        blocks.append(b"$ verify %s\nexit %d\n--- stdout\n%s--- stderr\n%s"
                      % (" ".join(argv).encode(), code, out, err))
    return b"".join(blocks)


class TestVerify:
    def test_matches_golden(self, data_dir):
        """stdout, stderr and exit code of five verify runs, byte for byte."""
        assert verify_transcript() == \
            (data_dir / "golden_verify.out").read_bytes()

    def test_agreement_at_default_step(self):
        code, out, err = run_cli("verify", "--a", "0.3", "--b", "0.5",
                                 "--p0", "1")
        assert code == 0 and err == ""
        assert float(out.strip()) <= 1e-6

    def test_coarse_step_fails_with_exit_6(self):
        code, out, err = run_cli("verify", "--a", "0.3", "--b", "0.5",
                                 "--p0", "1", "--step", "0.5")
        assert code == 6
        assert float(out.strip()) > 1e-6
        assert err.startswith("ERROR 6: ")

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

    def test_overflowing_squares_name_the_inputs(self):
        code, out, err = run_cli("verify", "--a", "1e200", "--b", "1e300",
                                 "--p0", "1")
        assert (code, out) == (2, "")
        assert err == ("ERROR 2: b**2 - a**2 overflows float64 for a=1e+200, "
                       "b=1e+300\n")

    def test_regime_checked_before_integration(self, monkeypatch):
        def no_oracle(*args):
            raise AssertionError("oracle_solution must not run")

        monkeypatch.setattr(cli, "oracle_solution", no_oracle)
        code, out, err = run_cli("verify", "--a", "2", "--b", "1", "--p0", "1",
                                 "--t-max", "5", "--step", "1e-5")
        assert code == 3 and out == ""
        assert err == ("ERROR 3: base_solution requires the exponential regime "
                       "(b**2 > a**2); a=2.0, b=1.0 is oscillatory\n")

    def test_step_validation(self):
        code, _, err = run_cli("verify", "--a", "0.3", "--b", "0.5",
                               "--p0", "1", "--step", "0")
        assert code == 2

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

    def test_verify_spot_value(self):
        assert run_cli("verify", "--a", "-2e-05", "--b", "0.5",
                       "--p0", "1") == (0, "6.13541863937e-15\n", "")

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
             eta: pair(), "--c1": number(), "--c2": number()}
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


class TestNeverRaises:
    @given(argv=st.one_of(simulate_argv(), verify_argv(), eta_argv()))
    @example(argv=["verify", "--a", "-2e-05", "--b", "0.5", "--p0", "1"])
    @example(argv=["simulate", "--a", "0", "--b", "1e308", "--p0", "1"])
    @settings(max_examples=200, deadline=None)
    def test_exit_code_and_at_most_one_error_line(self, argv):
        """No argv of a subcommand's own flags gives a traceback: main
        returns an int, and stderr is empty on success or one ERROR line."""
        # a printed warning would be a second stderr line: fail on it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(*argv)
        assert isinstance(code, int)
        if code == 0:
            assert err == ""
        else:
            assert err.startswith(f"ERROR {code}: ")
            assert err.count("\n") == 1 and err.endswith("\n")
