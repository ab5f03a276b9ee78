"""Every pinned CLI call: its argv and inputs, and the exact exit code,
stdout and stderr that it gives.

``tests/test_pins.py`` runs each entry through ``mirrordde.cli.main`` in
process at 80 columns, and CI runs that module against the installed
package as well.  To move a pin, edit its entry or its golden file: the
``git diff`` of those edits lists every byte that moved, old and new.  A
step that mends a reproducer adds an entry for it.
"""

from __future__ import annotations

import pathlib
from typing import NamedTuple

DATA = pathlib.Path(__file__).parent / "data"


class Pin(NamedTuple):
    """One call.  ``argv`` is split as a shell splits it; ``{data}`` in it is
    ``tests/data``, and ``{dir}`` a fresh directory that holds ``files``
    (name -> text).  ``out`` and ``err`` are the expected text, in which
    ``{dir}`` is substituted too, or the path of a ``tests/data`` file."""

    id: str
    argv: str
    code: int = 0
    out: str | pathlib.Path = ""
    err: str | pathlib.Path = ""
    files: dict[str, str] | None = None


#: Every pinned call.  ``rank`` echoes its response and lambda to stderr
#: before it ranks, and ``fit`` notes a mode fit it skips there.
PINS = [
    # one golden per trajectory path, 401 rows on [-5, 5]: a reordered
    # floating-point expression shows up as a changed 12th digit
    Pin("simulate-exponential", "simulate --t-min=-5 --t-max=5 --steps 400 "
        "--a=0.23 --b=0.61 --p0=1.3",
        out=DATA / "golden_simulate_exponential.csv"),
    Pin("simulate-degenerate", "simulate --t-min=-5 --t-max=5 --steps 400 "
        "--a=0.37 --b=0.37 --p0=0.9",
        out=DATA / "golden_simulate_degenerate.csv"),
    Pin("simulate-oscillatory", "simulate --t-min=-5 --t-max=5 --steps 400 "
        "--a=0.58 --b=-0.21 --p0=1.1 --allow-oscillatory",
        out=DATA / "golden_simulate_oscillatory.csv"),
    Pin("simulate-modes", "simulate --t-min=-5 --t-max=5 --steps 400 "
        "--a=-0.17 --b=0.44 --p0=1 --c1=0.35 --c2=-1.2",
        out=DATA / "golden_simulate_modes.csv"),
    Pin("simulate-theta-const-eta-article", "simulate --t-min=-5 --t-max=5 "
        "--steps 400 --a=0.12 --b=0.47 --p0=1.4 --theta-const=-0.13 "
        "--eta-article=0.62,0.8",
        out=DATA / "golden_simulate_theta_const_eta_article.csv"),
    Pin("simulate-theta-lin-eta-exp", "simulate --t-min=-5 --t-max=5 "
        "--steps 400 --a=-0.31 --b=0.52 --p0=0.8 --theta-lin=0.21,-0.07 "
        "--eta-exp=-0.15,0.33",
        out=DATA / "golden_simulate_theta_lin_eta_exp.csv"),
    Pin("simulate-theta-exp", "simulate --t-min=-5 --t-max=5 --steps 400 "
        "--a=0.2 --b=0.55 --p0=1.2 --theta-exp=-0.27",
        out=DATA / "golden_simulate_theta_exp.csv"),
    # a zero p0 or amplitude gives exact zeros: 0 times an overflowing
    # cosh was a math range error, 0 * -inf in the ramp nan, 0 * exp(800)
    # a range error, and in the oscillatory regime cos(inf) a domain error
    Pin("simulate-zero-p0-exponential", "simulate --a 0 --b 1000 --p0 0 "
        "--t-min=-1 --t-max 1 --steps 2", out="t,p\n-1,0\n0,0\n1,0\n"),
    Pin("simulate-zero-p0-degenerate", "simulate --a 1 --b 1 --p0 0 "
        "--t-min=-1e308 --t-max 1e308 --steps 2",
        out="t,p\n-1e+308,0\n0,0\n1e+308,0\n"),
    Pin("simulate-zero-amplitude", "simulate --a 0.3 --b 0.5 --p0 1 --c1 0 "
        "--c2 1 --t-min 0 --t-max 2000 --steps 2",
        out="t,p\n0,1\n1000,1.91516959671e-174\n2000,0\n"),
    Pin("simulate-zero-p0-oscillatory", "simulate --a 20 --b 1 --p0 0 "
        "--allow-oscillatory --t-min 0 --t-max 1e307 --steps 1",
        out="t,p,warning\n0,0,infeasible\n1e+307,0,infeasible\n"),
    # t_min * steps overflowed to -inf: "t must be finite, got -inf"
    Pin("simulate-grid-blend-overflows", "simulate --a 0 --b 0 --p0 1 "
        "--t-min=-1e308 --t-max 1e308 --steps 2",
        out="t,p\n-1e+308,1\n0,1\n1e+308,1\n"),
    Pin("simulate-squares-overflow", "simulate --a 0 --b 1e200 --p0 1 "
        "--steps 2", code=2,
        err="ERROR 2: b**2 - a**2 overflows float64 for a=0.0, b=1e+200\n"),
    # a rate whose square overflows is not resonant; it used to print
    # "ERROR 3: ... coincides with b**2 - a**2 = 0.16"
    Pin("simulate-theta-rate-square-overflows", "simulate --a 0.3 --b 0.5 "
        "--p0 1 --theta-exp 1e155 --steps 2 --t-min=-1 --t-max 1", code=2,
        err="ERROR 2: p(t) overflows float64 (math range error)\n"),
    Pin("simulate-eta-rate-square-overflows", "simulate --a 0.3 --b 0.5 "
        "--p0 1 --eta-exp 1,1e300 --steps 2 --t-min=-1 --t-max 1", code=2,
        err="ERROR 2: p(t) overflows float64 (math range error)\n"),
    # |rate**2 - disc| is about 2e-7: resonant within 1e-12 of 1e6
    Pin("simulate-resonance-relative-tolerance", "simulate --a 0 --b 1000 "
        "--p0 1 --theta-exp 1000.0000000001 --t-min=-0.001 --t-max 0.001 "
        "--steps 2", code=3, err="ERROR 3: theta rate 1000.0000000001 "
        "squared coincides with b**2 - a**2 = 1000000.0\n"),

    # full-precision JSON and the mode note of fit --predict 1.5 on the
    # simulate goldens
    Pin("fit-exponential", "fit --input {data}/golden_simulate_exponential.csv"
        " --predict 1.5", out=DATA / "golden_fit_exponential.out",
        err=DATA / "golden_fit_exponential.err"),
    Pin("fit-exponential-forward", "fit --input "
        "{data}/golden_simulate_exponential.csv --predict 1.5 --fd forward",
        out=DATA / "golden_fit_exponential_forward.out",
        err=DATA / "golden_fit_exponential_forward.err"),
    Pin("fit-oscillatory", "fit --input {data}/golden_simulate_oscillatory.csv"
        " --predict 1.5", out=DATA / "golden_fit_oscillatory.out",
        err=DATA / "golden_fit_oscillatory.err"),
    Pin("fit-degenerate", "fit --input {data}/golden_simulate_degenerate.csv "
        "--predict 1.5", out=DATA / "golden_fit_degenerate.out",
        err=DATA / "golden_fit_degenerate.err"),
    # a csv fault further on beats an earlier row error
    Pin("fit-field-limit-after-bad-row", "fit --input {dir}/series.csv",
        code=2, err="ERROR 2: '{dir}/series.csv': field larger than field "
        "limit (131072)\n",
        files={"series.csv": "t,p\r\n-1,1\r\n0,x\r\n1," + "1" * 200_000
               + "\r\n"}),
    # (a, b) beyond float64 is one error line, with no numpy warning
    Pin("fit-subnormal-step", "fit --input {dir}/subnormal.csv", code=2,
        err="ERROR 2: fit_ab's (a, b) = (inf, inf) leave float64\n",
        files={"subnormal.csv": "t,p\n-1e-323,1e-320\n-5e-324,2e-320\n"
               "0,4e-320\n5e-324,7e-320\n1e-323,1.1e-319\n"}),

    Pin("rank-m3", "rank --input {data}/rank_m3.csv",
        out=DATA / "golden_rank_m3.csv", err="response=CiteScore lambda=0.1\n"),
    Pin("rank-m8", "rank --input {data}/rank_m8.csv",
        out=DATA / "golden_rank_m8.csv", err="response=CiteScore lambda=0.1\n"),
    # rank_m8.csv with CiteScore times 2**1000 exactly: standardization
    # divides the scale out (its squared deviations overflowed, every score
    # printed as 0, and numpy's warning landed on stderr)
    Pin("rank-m8-times-2p1000", "rank --input {data}/rank_m8_2p1000.csv",
        out=DATA / "golden_rank_m8.csv", err="response=CiteScore lambda=0.1\n"),
    # 60 journals: numpy sums the standardized columns pairwise.  The
    # tables are numpy.random.default_rng(0).lognormal(0.0, 0.75, size=(m,
    # k)) printed with %.6g, and seed 0 ranks without error
    Pin("rank-m60", "rank --input {data}/rank_m60.csv --lambda 0.05",
        out=DATA / "golden_rank_m60.csv", err="response=CiteScore lambda=0.05\n"),
    # the last step is decided by the tie rule: every standardized entry
    # is exactly +-1, and the lower current row (Journal 24) goes at step
    # 59; rounded z-scores of 1 +- an ulp took Journal 34 instead.  At
    # lambda = 0 a zero correlation's sign reaches the threshold
    Pin("rank-m60-lambda0", "rank --input {data}/rank_m60.csv --lambda 0",
        out=DATA / "golden_rank_m60_lambda0.csv",
        err="response=CiteScore lambda=0\n"),
    # 150 by 8: late steps with fewer journals than predictors
    Pin("rank-m150", "rank --input {data}/rank_m150.csv --lambda 0.05",
        out=DATA / "golden_rank_m150.csv",
        err="response=CiteScore lambda=0.05\n"),
    Pin("rank-zero-variance", "rank --input {dir}/table.csv", code=5,
        err="response=CiteScore lambda=0.1\n"
        "ERROR 5: step 2: feature 'SNIP' has zero variance\n",
        files={"table.csv": "journal,CiteScore,SJR,SNIP,CitationCount\n"
               "Alpha Journal,3.2,1.4,1.1,820\nBeta Review,5.6,2.3,1.6,1450\n"
               "Gamma Letters,1.1,0.5,1.6,260\n"}),
    # bench/workloads.py::_write_table(path, 1, names, 8), journals J000001..
    # J000036, the seed that the benchmark's 36-by-8 table skips: at step 34
    # coordinate descent runs out of its 10000 sweeps
    Pin("rank-sweep-cap", "rank --input {data}/rank_cap_m36.csv --response "
        "SJR --lambda 0.08", code=2, err="response=SJR lambda=0.08\nERROR 2: "
        "step 34: coordinate descent did not converge within 10000 sweeps\n"),
    Pin("rank-field-limit-after-bad-row", "rank --input {dir}/table.csv",
        code=2, err="ERROR 2: '{dir}/table.csv': field larger than field "
        "limit (131072)\n",
        files={"table.csv": "journal,CiteScore,SJR\r\nAlpha,1\r\nBeta,2,"
               + "1" * 200_000 + "\r\n"}),

    # 8192 steps of 2**-11, the benchmark's size
    Pin("verify-benchmark-size", "verify --a 0.3 --b 0.9 --p0 1.2 --t-max 4 "
        "--step 0.00048828125", out="2.11628572391e-15\n"),
    Pin("verify-short-final-step", "verify --a 0.3 --b 0.5 --p0 1 --t-max 0.35"
        " --step 0.1", out="4.92608964731e-09\n"),
    Pin("verify-negative-a", "verify --a=-0.4 --b 0.7 --p0 2.5",
        out="2.91238714944e-15\n"),
    Pin("verify-beyond-tolerance", "verify --a 0.3 --b 0.5 --p0 1 --step 0.5",
        code=6, out="2.57269884182e-05\n", err="ERROR 6: closed form deviates "
        "from the integration oracle by 2.57269884182e-05 (tolerance 1e-06)\n"),
    Pin("verify-explicit-defaults", "verify --a 0.3 --b 0.5 --p0 1 --t-max 5 "
        "--step 0.001", out="1.3296403788e-15\n"),
    Pin("verify-defaults", "verify --a 0.3 --b 0.5 --p0 1",
        out="1.3296403788e-15\n"),
    Pin("verify-negative-exponent", "verify --a -2e-05 --b 0.5 --p0 1",
        out="2.42861286637e-15\n"),
    Pin("verify-deviation-negative-a", "verify --a=-0.37 --b 0.61 --p0 1.7 "
        "--t-max 4 --step 0.00048828125", out="6.87591293084e-16\n"),
    Pin("verify-deviation-negative-p0", "verify --a 0.3 --b 0.9 --p0=-2 "
        "--t-max 4 --step 0.00048828125", out="1.99535511112e-15\n"),
    # the oracle stays at 0, and so does the closed form where cosh overflows
    Pin("verify-zero-p0", "verify --a 0 --b 1000 --p0 0 --t-max 1 --step 0.01",
        out="0\n"),
    # the oracle's error first, then the closed form's over the ascending
    # window, though both are checked one block at a time: RK4 fails at
    # t = 7200, the closed form from t = 7010 on
    Pin("verify-oracle-error-first", "verify --a 0 --b 0.2 --p0 1e-300 "
        "--t-max 7500 --step 10", code=2,
        err="ERROR 2: state became non-finite at t=7200.0\n"),
    Pin("verify-closed-form-overflows", "verify --a 0 --b 0.2 --p0 1e-300 "
        "--t-max 7100 --step 10", code=2,
        err="ERROR 2: p(t) overflows float64 (math range error)\n"),
    # the first non-finite p in ascending t, on either side of 0
    Pin("verify-mirrored-side-overflows", "verify --a=0 --b=-0.1 "
        "--p0=2.4880700676029834e+221 --t-max=2000 --step=10.0", code=2,
        err="ERROR 2: p(-2000.0) = inf overflows float64\n"),
    Pin("verify-positive-side-overflows", "verify --a=0 --b=0.1 "
        "--p0=2.4880700676029834e+221 --t-max=2000 --step=10.0", code=2,
        err="ERROR 2: p(2000.0) = inf overflows float64\n"),
    Pin("verify-first-rk4-step-leaves-range", "verify --a 0 --b 1e100 --p0 0 "
        "--t-max 1 --step 1", code=2, err="ERROR 2: the RK4 step 1.0 on M = "
        "((1e+100, 0.0), (-0.0, -1e+100)) leaves the float64 range\n"),
    # other regimes, and squares that overflow, are refused before
    # integrating
    Pin("verify-oscillatory", "verify --a 2 --b 1 --p0 1", code=3,
        err="ERROR 3: base_solution requires the exponential regime "
        "(b**2 > a**2); a=2.0, b=1.0 is oscillatory\n"),
    Pin("verify-squares-overflow", "verify --a 1e200 --b 1e300 --p0 1", code=2,
        err="ERROR 2: b**2 - a**2 overflows float64 for a=1e+200, b=1e+300\n"),

    Pin("eta", "eta --art 0.5 --alpha 0.2 --a 0.3 --b 0.8",
        out="0.506530659713\n"),

    Pin("help", "--help", out=DATA / "golden_help.txt"),
    Pin("help-simulate", "simulate --help",
        out=DATA / "golden_help_simulate.txt"),
    Pin("help-fit", "fit --help", out=DATA / "golden_help_fit.txt"),
    Pin("help-rank", "rank --help", out=DATA / "golden_help_rank.txt"),
    Pin("help-verify", "verify --help", out=DATA / "golden_help_verify.txt"),
    Pin("help-eta", "eta --help", out=DATA / "golden_help_eta.txt"),
]

C10 = "test_acceptance.py::test_c10_ranking_matches_brute_force_and_goldens"
PIPE = "test_cli.py::TestFit::test_pipe_matches_golden"
SERIES = "--input of the fit-* entries, test_cli.py::TestSeriesReaders"

#: Goldens that tests outside the table read, each with those tests.
OTHER_READERS = {
    "golden_rank_m3.csv": C10,
    "golden_rank_m5.csv": C10 + ", test_cli.py::TestDispatch::"
                                "test_module_entry_point",
    "golden_rank_m8.csv": C10,
    "golden_fit_pipe_default.out": PIPE,
    "golden_fit_pipe_a1_b2.out": PIPE,
    "golden_fit_pipe_a1_b4.out": PIPE,
    "golden_fit_pipe_a0_b80.out": PIPE,
    "golden_simulate_exponential.csv": SERIES + ", test_cli.py::"
                                                "test_main_reuses_one_parser",
    "golden_simulate_oscillatory.csv": SERIES,
    "golden_simulate_degenerate.csv": SERIES,
}
