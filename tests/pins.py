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
    # short windows: the flags' ends exactly, p0 at t = 0, the degenerate
    # ramp, and the warning column of the oscillatory branch and of a
    # negative influence
    Pin("simulate-plain-rows", "simulate --a 0 --b 1 --p0 1 --t-min 0 "
        "--t-max 1 --steps 4", out="t,p\n0,1\n0.25,1.28402541669\n"
        "0.5,1.6487212707\n0.75,2.11700001661\n1,2.71828182846\n"),
    Pin("simulate-symmetric-endpoints", "simulate --a 0.3 --b 0.5 --p0 1 "
        "--t-min -2 --t-max 2 --steps 8", out="t,p\n-2,-0.43877701807\n"
        "-1.5,-0.0878419460542\n-1,0.259567720233\n-0.5,0.617394750537\n"
        "0,1\n0.5,1.4227387607\n1,1.90257702344\n1.5,2.45877238254\n"
        "2,3.11364691068\n"),
    Pin("simulate-degenerate-ramp", "simulate --a 0.4 --b 0.4 --p0 1 "
        "--t-min 0 --t-max 1 --steps 2", out="t,p\n0,1\n0.5,1.4\n1,1.8\n"),
    Pin("simulate-oscillatory-allowed", "simulate --a 0.5 --b 0.3 --p0 1 "
        "--t-min -1 --t-max 1 --steps 4 --allow-oscillatory",
        out="t,p,warning\n-1,0.142224309386,infeasible\n"
        "-0.5,0.582727916251,infeasible\n0,1,infeasible\n"
        "0.5,1.37740523943,infeasible\n1,1.69989767862,infeasible\n"),
    Pin("simulate-negative-influence", "simulate --a 0.3 --b 0.5 --p0 1 "
        "--t-min 0 --t-max 1 --steps 2 --c1 -3 --c2 0.5",
        out="t,p,warning\n0,-2.5,negative-influence\n"
        "0.5,-3.25484289794,negative-influence\n"
        "1,-4.14031406991,negative-influence\n"),
    # c1 + c2 + theta/(a - b) = 2 - 1 = 1 at the origin
    Pin("simulate-theta-const-modes", "simulate --a 0.3 --b 0.5 --p0 1 "
        "--t-min 0 --t-max 1 --steps 4 --theta-const 0.2 --c1 1 --c2 1",
        out="t,p\n0,1\n0.25,1.01000833611\n0.5,1.04013351124\n"
        "0.75,1.09067702826\n1,1.16214474368\n"),
    # the scaled blend keeps a subnormal t_min, which prints as itself
    Pin("simulate-subnormal-end", "simulate --a 0 --b 0 --p0 1 "
        "--t-min=1e-320 --t-max 1.7976931348623157e308 --steps 5",
        out="t,p\n9.99988867183e-321,1\n3.59538626972e+307,1\n"
        "7.19077253945e+307,1\n1.07861588092e+308,1\n"
        "1.43815450789e+308,1\n1.79769313486e+308,1\n"),
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
    Pin("simulate-resonant-theta", "simulate --a 0.3 --b 0.5 --p0 1 "
        "--theta-exp 0.4", code=3, err="ERROR 3: theta rate 0.4 squared "
        "coincides with b**2 - a**2 = 0.16\n"),
    Pin("simulate-oscillatory-refused", "simulate --a 0.5 --b 0.3 --p0 1",
        code=3, err="ERROR 3: a=0.5, b=0.3 falls in the oscillatory regime, "
        "which is infeasible for influence modelling; pass "
        "--allow-oscillatory to inspect the branch\n"),
    # flags refused before any row
    Pin("simulate-zero-steps", "simulate --a 0.3 --b 0.5 --p0 1 --steps 0",
        code=2, err="ERROR 2: --steps must be >= 1, got 0\n"),
    Pin("simulate-reversed-window", "simulate --a 0.3 --b 0.5 --p0 1 "
        "--t-min 2 --t-max -2", code=2,
        err="ERROR 2: --t-min must be below --t-max, got 2.0 and -2.0\n"),
    Pin("simulate-c1-without-c2", "simulate --a 0.3 --b 0.5 --p0 1 --c1 1",
        code=2, err="ERROR 2: --c1 and --c2 must be given together\n"),
    # past 2**53 steps the grid's points are no longer distinct floats;
    # 10**400 is too large to convert to a float at all
    Pin("simulate-steps-beyond-2p53", "simulate --a 0.3 --b 0.5 --p0 1 "
        "--steps 9007199254740993", code=2, err="ERROR 2: --steps must be "
        "<= 9007199254740992, got 9007199254740993\n"),
    Pin("simulate-steps-10p400", "simulate --a 0.3 --b 0.5 --p0 1 --steps 1"
        + "0" * 400, code=2, err="ERROR 2: --steps must be <= "
        "9007199254740992, got 1" + "0" * 400 + "\n"),
    Pin("simulate-two-theta-flags", "simulate --a 0.3 --b 0.5 --p0 1 "
        "--theta-const 0.1 --theta-exp 0.2", code=2, err="ERROR 2: argument "
        "--theta-exp: not allowed with argument --theta-const\n"),
    Pin("simulate-nan-flag", "simulate --a nan --b 1 --p0 1", code=2,
        err="ERROR 2: argument --a: must be finite: 'nan'\n"),
    Pin("simulate-theta-lin-one-number", "simulate --a 0.2 --b 0.6 --p0 1 "
        "--theta-lin 1", code=2, err="ERROR 2: argument --theta-lin: "
        "expected two comma-separated numbers, got '1'\n"),
    Pin("simulate-eta-exp-not-numeric", "simulate --a 0.2 --b 0.6 --p0 1 "
        "--eta-exp 1,x", code=2, err="ERROR 2: argument --eta-exp: "
        "expected two comma-separated numbers, got '1,x'\n"),
    Pin("simulate-theta-const-not-a-number", "simulate --a 0.2 --b 0.6 "
        "--p0 1 --theta-const abc", code=2,
        err="ERROR 2: argument --theta-const: not a number: 'abc'\n"),
    Pin("simulate-out-missing-dir", "simulate --a 0.3 --b 0.9 --p0 1 --out "
        "{dir}/missing/x.csv", code=2, err="ERROR 2: cannot write "
        "'{dir}/missing/x.csv': [Errno 2] No such file or directory: "
        "'{dir}/missing/x.csv'\n"),
    Pin("simulate-out-is-a-directory", "simulate --a 0.3 --b 0.9 --p0 1 "
        "--out {dir}", code=2, err="ERROR 2: cannot write '{dir}': "
        "[Errno 21] Is a directory: '{dir}'\n"),
    # a non-finite p is one error line, with no numpy warning: cosh(1e308)
    # overflows; p0 (1 + (a+b) t) overflows with no OverflowError; cosh and
    # sinh stay finite but their weighted sum does not; the particular term
    # gives inf - inf; w t overflows (cos(inf) was "math domain error")
    Pin("simulate-cosh-overflows", "simulate --a 0 --b 1 --p0 1 "
        "--t-min=-1e308 --t-max=1e308 --steps 2", code=2,
        err="ERROR 2: p(t) overflows float64 (math range error)\n"),
    Pin("simulate-ramp-overflows", "simulate --a 1 --b 1 --p0 1e308 "
        "--t-min=-5 --t-max=5 --steps 2", code=2,
        err="ERROR 2: p(-5.0) = -inf overflows float64\n"),
    Pin("simulate-mode-sum-overflows", "simulate --a 0 --b 1 --p0 10 "
        "--t-min=-709 --t-max=709 --steps 2", code=2,
        err="ERROR 2: p(709.0) = inf overflows float64\n"),
    Pin("simulate-particular-term-overflows", "simulate --a 0 --b 1 --p0 1 "
        "--theta-lin 1e308,0 --t-min=-5 --t-max=5 --steps 2", code=2,
        err="ERROR 2: p(-5.0) = nan overflows float64\n"),
    Pin("simulate-oscillatory-wt-overflows", "simulate --a 20 --b 1 --p0 1 "
        "--t-min=-1e308 --t-max=1e308 --steps 2 --allow-oscillatory", code=2,
        err="ERROR 2: w*t overflows float64 at t=-1e+308 "
        "(w=19.974984355438178)\n"),
    Pin("simulate-b1000-overflows", "simulate --a 0 --b 1000 --p0 1 "
        "--steps 10", code=2,
        err="ERROR 2: p(t) overflows float64 (math range error)\n"),

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
    # differences and sums beyond float64 give no numpy warning either
    Pin("fit-overflowing-series", "fit --input {dir}/huge.csv", code=4,
        err="ERROR 4: [fit_ab] normal equations for (a, b) are singular: 2x2 "
        "system is singular to working precision (det=0.0)\n",
        files={"huge.csv": "t,p\n" + "".join(
            f"{0.25 * (i - 8)},{1.7e308 * (-1.0) ** i}\n" for i in range(17))}),
    Pin("fit-constant-series", "fit --input {dir}/const.csv", code=4,
        err="ERROR 4: [fit_ab] normal equations for (a, b) are singular: 2x2 "
        "system is singular to working precision (det=0.0)\n",
        files={"const.csv": "t,p\n" + "".join(
            f"{0.25 * (i - 8)},1.0\n" for i in range(17))}),
    # w1 e^(rt) overflows at t = 1e6
    Pin("fit-predict-overflows", "fit --input "
        "{data}/golden_simulate_exponential.csv --predict 1e6", code=2,
        err="ERROR 2: p(t) overflows float64 (math range error)\n"),
    Pin("fit-too-short", "fit --input {dir}/short.csv", code=2,
        err="ERROR 2: need at least 3 samples, got 2\n",
        files={"short.csv": "t,p\n-1.0,1.0\n1.0,2.0\n"}),
    Pin("fit-asymmetric-grid", "fit --input {dir}/asym.csv", code=2,
        err="ERROR 2: times[0]=-1.0 has no mirror partner; expected "
        "-times[2]=-2.0\n",
        files={"asym.csv": "t,p\n-1.0,1.0\n0.0,2.0\n2.0,3.0\n"}),
    # the header parses despite the BOM; three rows are then too few
    Pin("fit-byte-order-mark", "fit --input {dir}/bom.csv", code=2,
        err="ERROR 2: need at least 3 usable derivative estimates, got 1\n",
        files={"bom.csv": "\ufefft,p\n-0.1,0.95\n0,1\n0.1,1.08\n"}),
    Pin("fit-malformed-header", "fit --input {dir}/bad.csv", code=2,
        err="ERROR 2: '{dir}/bad.csv' must start with header 't,p', got "
        "['time', 'value']\n",
        files={"bad.csv": "time,value\n-1.0,1.0\n0.0,2.0\n1.0,3.0\n"}),
    Pin("fit-one-cell-header", "fit --input {dir}/one.csv", code=2,
        err="ERROR 2: '{dir}/one.csv' must start with header 't,p', got "
        "['t']\n", files={"one.csv": "t\n0\n"}),
    # line numbers count blank lines
    Pin("fit-blank-line-numbering", "fit --input {dir}/blank.csv", code=2,
        err="ERROR 2: '{dir}/blank.csv' line 4: not numeric: ['0', 'x']\n",
        files={"blank.csv": "t,p\n\n-1,1\n0,x\n1,3\n"}),
    Pin("fit-empty-input", "fit --input {dir}/empty.csv", code=2,
        err="ERROR 2: '{dir}/empty.csv' is empty\n",
        files={"empty.csv": "\n\n"}),
    Pin("fit-missing-file", "fit --input /nonexistent/series.csv",
        code=2, err="ERROR 2: cannot read '/nonexistent/series.csv': "
        "[Errno 2] No such file or directory: '/nonexistent/series.csv'\n"),

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
    Pin("rank-m5-sjr", "rank --input {data}/rank_m5.csv --response SJR "
        "--lambda 0.25", out="rank,journal,singval,elimination_step\n"
        "1,Beta Review,0.538139528571,2\n2,Alpha Journal,0.540857987581,1\n"
        "3,Epsilon Studies,0.596788028929,3\n4,Gamma Letters,0.75,4\n"
        "5,Delta Annals,0.75,5\n", err="response=SJR lambda=0.25\n"),
    # with no CiteScore column the first feature is the response
    Pin("rank-default-response", "rank --input {dir}/t.csv",
        out="rank,journal,singval,elimination_step\n1,C,0.29735970712,1\n"
        "2,A,0.9,2\n3,B,0.9,3\n", err="response=x lambda=0.1\n",
        files={"t.csv": "journal,x,y\nA,1,4\nB,2,6\nC,3.5,5\n"}),
    Pin("rank-unknown-response", "rank --input {data}/rank_m3.csv "
        "--response Prestige", code=2, err="response=Prestige lambda=0.1\n"
        "ERROR 2: response feature 'Prestige' is not one of ['CiteScore', "
        "'SJR', 'SNIP', 'CitationCount']\n"),
    # names with a comma or a CR come back quoted
    Pin("rank-quoted-name", "rank --input {dir}/quoted.csv",
        out="rank,journal,singval,elimination_step\n"
        "1,Other Letters,0.89926008129,1\n2,\"Annals, Applied\",0.9,2\n"
        "3,Plain Review,0.9,3\n", err="response=CiteScore lambda=0.1\n",
        files={"quoted.csv": "journal,CiteScore,SJR\n\"Annals, Applied\","
               "3.2,1.4\nPlain Review,5.6,2.3\nOther Letters,1.1,0.5\n"}),
    Pin("rank-carriage-return-name", "rank --input {dir}/cr.csv",
        out="rank,journal,singval,elimination_step\n"
        "1,Other Letters,0.89926008129,1\n2,\"J\rX\",0.9,2\n"
        "3,Plain Review,0.9,3\n", err="response=CiteScore lambda=0.1\n",
        files={"cr.csv": "journal,CiteScore,SJR\n\"J\rX\",3.2,1.4\n"
               "Plain Review,5.6,2.3\nOther Letters,1.1,0.5\n"}),
    Pin("rank-malformed-header", "rank --input {dir}/bad.csv", code=2,
        err="ERROR 2: '{dir}/bad.csv' must start with header "
        "'journal,<feature1>,<feature2>,...', got ['name', 'x', 'y']\n",
        files={"bad.csv": "name,x,y\nA,1,2\n"}),
    Pin("rank-short-row", "rank --input {dir}/rows.csv", code=2,
        err="ERROR 2: '{dir}/rows.csv' line 3: expected 3 cells, got 2\n",
        files={"rows.csv": "journal,CiteScore,SJR\nA,1,2\nB,1\n"}),
    Pin("rank-long-row", "rank --input {dir}/rows.csv", code=2,
        err="ERROR 2: '{dir}/rows.csv' line 3: expected 3 cells, got 4\n",
        files={"rows.csv": "journal,CiteScore,SJR\nA,1,2\nB,1,2,3\n"}),
    Pin("rank-non-numeric-cell", "rank --input {dir}/rows.csv", code=2,
        err="ERROR 2: '{dir}/rows.csv' line 3: non-numeric feature value\n",
        files={"rows.csv": "journal,CiteScore,SJR\nA,1,2\nB,1,high\n"}),
    # line numbers count blank lines, and a row over two lines has its last
    Pin("rank-blank-line-numbering", "rank --input {dir}/blank.csv", code=2,
        err="ERROR 2: '{dir}/blank.csv' line 4: non-numeric feature value\n",
        files={"blank.csv": "journal,A,B\n\nJ1,1,2\nJ2,1,y\n"}),
    Pin("rank-multiline-row-numbering", "rank --input {dir}/multiline.csv",
        code=2, err="ERROR 2: '{dir}/multiline.csv' line 4: expected 3 "
        "cells, got 2\n", files={"multiline.csv": "journal,A,B\n\"J\n1\",1,2\n"
                                                  "J2,1\n"}),
    Pin("rank-field-limit", "rank --input {dir}/wide.csv", code=2,
        err="ERROR 2: '{dir}/wide.csv': field larger than field limit "
        "(131072)\n", files={"wide.csv": "journal,CiteScore,SJR\nA,1,"
                             + "1" * 200_000 + "\n"}),
    Pin("rank-empty-input", "rank --input {dir}/empty.csv", code=2,
        err="ERROR 2: '{dir}/empty.csv' is empty\n",
        files={"empty.csv": "\n\n"}),

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
    Pin("verify-oscillatory-a0.5", "verify --a 0.5 --b 0.3 --p0 1", code=3,
        err="ERROR 3: base_solution requires the exponential regime "
        "(b**2 > a**2); a=0.5, b=0.3 is oscillatory\n"),
    # b**2 + a**2 overflows, b**2 - a**2 does not
    Pin("verify-squares-sum-overflows", "verify --a 1e154 --b 1.3e154 --p0 1 "
        "--t-max 1e-154 --step 1e-156", out="8.28185298118e-11\n"),
    # t_max / step leaves float64: one error line, no numpy warning
    Pin("verify-step-count-beyond-float", "verify --a 0.3 --b 0.5 --p0 1 "
        "--t-max 1e308 --step 1e-300", code=2,
        err="ERROR 2: step count 1e+308/1e-300 exceeds the float64 range\n"),
    Pin("verify-zero-step", "verify --a 0.3 --b 0.5 --p0 1 --step 0", code=2,
        err="ERROR 2: --step must be positive, got 0.0\n"),
    # "-x" is not a negative number, so --a has no value
    Pin("verify-option-like-value", "verify --a -x --b 0.5 --p0 1", code=2,
        err="ERROR 2: argument --a: expected one argument\n"),

    Pin("eta", "eta --art 0.5 --alpha 0.2 --a 0.3 --b 0.8",
        out="0.506530659713\n"),
    Pin("eta-zero-share", "eta --art 0 --alpha 2 --a 0.5 --b 0.3",
        out="1.4\n"),
    Pin("eta-share-1.5", "eta --art 1.5 --alpha 1 --a 0.5 --b 0.3", code=2,
        err="ERROR 2: art must lie in [0, 1], got 1.5\n"),
    Pin("eta-share-2", "eta --art 2 --alpha 1 --a 1 --b 0", code=2,
        err="ERROR 2: art must lie in [0, 1], got 2.0\n"),
    Pin("eta-overflows", "eta --art 0.5 --alpha 1e300 --a 1e300 --b=-1e300",
        code=2, err="ERROR 2: eta must be finite, got inf\n"),

    # argparse's own wording: the same on Python 3.10.13, 3.11.7, 3.12.1 and
    # 3.13.0
    Pin("no-subcommand", "", code=2,
        err="ERROR 2: the following arguments are required: subcommand\n"),
    Pin("unknown-subcommand", "transmogrify", code=2,
        err="ERROR 2: argument subcommand: invalid choice: 'transmogrify' "
        "(choose from 'simulate', 'fit', 'rank', 'verify', 'eta')\n"),

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
    "golden_fit_pipe_a02_b06.out": PIPE + ", .github/workflows/tests.yml",
    "golden_simulate_exponential.csv": SERIES + ", test_cli.py::"
                                                "test_main_reuses_one_parser",
    "golden_simulate_oscillatory.csv": SERIES,
    "golden_simulate_degenerate.csv": SERIES,
}
