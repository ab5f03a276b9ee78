"""Command-line interface: simulate / fit / rank / verify / eta.

stdout carries data (CSV or JSON), stderr carries diagnostics.  Every error
path prints a single line ``ERROR <code>: <detail>`` to stderr and exits
with that code:

=====  ==========================================================
code   meaning
=====  ==========================================================
0      success
2      flag or input validation failed, or a float64 overflow
3      wrong regime or resonant forcing
4      degenerate fitting stage (singular normal equations)
5      zero-variance feature column during ranking
6      verify found closed form and oracle in disagreement
=====  ==========================================================

Floats are printed with 12 significant digits so output files are stable
byte-for-byte across runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
import warnings
from typing import TYPE_CHECKING, Sequence

from .core import (
    ControlConfig,
    DdeParams,
    EtaArticleBased,
    EtaTimeExponential,
    FeatureMatrix,
    RegimeTag,
    ThetaConstant,
    ThetaExponential,
    ThetaLinear,
    validate_series,
)
from .errors import (
    DegenerateSystem,
    MirrorDdeError,
    NegativeInfluenceWarning,
    ResonantForcing,
    SingularSystem,
    WrongRegime,
    ZeroVarianceColumn,
)
from .numerics import FdMode
from .solver import (
    _require_regime,
    classify,
    eta_article,
    evaluate,
    oracle_solution,
)

if TYPE_CHECKING:
    import numpy as np
    from numpy.typing import ArrayLike

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REGIME = 3
EXIT_DEGENERATE = 4
EXIT_ZERO_VARIANCE = 5
EXIT_VERIFY = 6

#: Verify accepts the closed form when it stays this close to the oracle.
VERIFY_TOL = 1e-6

#: Default ranking penalty weight.
DEFAULT_LAMBDA = 0.1

#: Largest ``simulate --steps``: above 2**53, consecutive grid indices are
#: no longer distinct floats.
MAX_STEPS = 2**53

#: Every byte a plain ``t,p`` body may hold (the shape ``simulate`` writes).
_PLAIN_BODY_BYTES = b"0123456789.eE+-,\n"


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports errors through the ERROR-line protocol."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # private, as argparse has no public switch: "-2e-05" is a value, not
        # an option, since no option of this CLI starts with "-<digit>"
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise _CliError(EXIT_USAGE, message)


def fmt(x: float) -> str:
    """Render a float with 12 significant digits (no locale, no negative zero)."""
    return "%.12g" % (x + 0.0)


def _pair(text: str) -> tuple[float, float]:
    try:
        # a count other than two fails to unpack, a non-number to convert
        first, second = map(float, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected two comma-separated numbers, got {text!r}"
        ) from None
    return first, second


def _finite(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"must be finite: {text!r}")
    return v


def build_parser() -> _Parser:
    parser = _Parser(prog="mirrordde",
                     description="Mirrored-time influence model toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sim = sub.add_parser("simulate", help="evaluate a model trajectory as CSV")
    sim.add_argument("--a", type=_finite, required=True,
                     help="weight of the mirrored sample p(-t)")
    sim.add_argument("--b", type=_finite, required=True,
                     help="weight of the present sample p(t)")
    sim.add_argument("--p0", type=_finite, required=True,
                     help="influence at t=0")
    sim.add_argument("--t-min", type=_finite, default=-5.0)
    sim.add_argument("--t-max", type=_finite, default=5.0)
    sim.add_argument("--steps", type=int, default=100,
                     help="number of grid intervals (rows = steps+1)")
    theta = sim.add_mutually_exclusive_group()
    theta.add_argument("--theta-const", type=_finite, metavar="VALUE",
                       help="constant self-development term")
    theta.add_argument("--theta-lin", type=_pair, metavar="SLOPE,INTERCEPT",
                       help="linear self-development term")
    theta.add_argument("--theta-exp", type=_finite, metavar="RATE",
                       help="exponential self-development term exp(RATE*t)")
    eta = sim.add_mutually_exclusive_group()
    eta.add_argument("--eta-exp", type=_pair, metavar="K,K1",
                     help="external pulse K*exp(K1*t)")
    eta.add_argument("--eta-article", type=_pair, metavar="ART,ALPHA",
                     help="article-share external term")
    sim.add_argument("--c1", type=_finite, default=None,
                     help="explicit growing-mode amplitude")
    sim.add_argument("--c2", type=_finite, default=None,
                     help="explicit decaying-mode amplitude")
    sim.add_argument("--allow-oscillatory", action="store_true",
                     help="evaluate the infeasible oscillatory branch instead "
                          "of failing")
    sim.add_argument("--out", default=None, help="output path (default stdout)")
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", help="recover model coefficients from a series")
    fit.add_argument("--input", required=True, help="CSV file with header t,p")
    fit.add_argument("--fd", choices=["central", "forward"], default="central",
                     help="finite-difference mode for the derivative estimates")
    fit.add_argument("--predict", type=_finite, default=None, metavar="T",
                     help="also evaluate the fitted model at time T")
    fit.set_defaults(func=cmd_fit)

    rank = sub.add_parser("rank", help="rank journals from a feature table")
    rank.add_argument("--input", required=True,
                      help="CSV file with header journal,<features...>")
    rank.add_argument("--response", default=None,
                      help="response feature (default: CiteScore if present, "
                           "else the first feature)")
    rank.add_argument("--lambda", dest="lam", type=_finite,
                      default=DEFAULT_LAMBDA, help="l1 penalty weight")
    rank.set_defaults(func=cmd_rank)

    verify = sub.add_parser("verify",
                            help="compare the closed form against the "
                                 "integration oracle")
    verify.add_argument("--a", type=_finite, required=True)
    verify.add_argument("--b", type=_finite, required=True)
    verify.add_argument("--p0", type=_finite, required=True)
    verify.add_argument("--t-max", type=_finite, default=5.0)
    verify.add_argument("--step", type=_finite, default=1e-3)
    verify.set_defaults(func=cmd_verify)

    eta_cmd = sub.add_parser("eta", help="evaluate the article-share term")
    eta_cmd.add_argument("--art", type=_finite, required=True,
                         help="accepted-article fraction in [0,1]")
    eta_cmd.add_argument("--alpha", type=_finite, required=True)
    eta_cmd.add_argument("--a", type=_finite, required=True)
    eta_cmd.add_argument("--b", type=_finite, required=True)
    eta_cmd.set_defaults(func=cmd_eta)

    return parser


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _sim_control(args) -> ControlConfig | None:
    """The ControlConfig of forcing flags or explicit modes, else None."""
    theta = None
    if args.theta_const is not None:
        theta = ThetaConstant(args.theta_const)
    elif args.theta_lin is not None:
        theta = ThetaLinear(*args.theta_lin)        # SLOPE,INTERCEPT
    elif args.theta_exp is not None:
        theta = ThetaExponential(rate=args.theta_exp)

    eta = None
    if args.eta_exp is not None:
        eta = EtaTimeExponential(*args.eta_exp)     # K,K1
    elif args.eta_article is not None:
        art, alpha = args.eta_article
        eta = EtaArticleBased(alpha=alpha, art=art)

    if theta is None and eta is None and args.c1 is None:
        return None
    return ControlConfig(theta=theta if theta is not None else ThetaConstant(0.0),
                         eta=eta)


def cmd_simulate(args) -> None:
    if args.steps < 1:
        raise _CliError(EXIT_USAGE, f"--steps must be >= 1, got {args.steps}")
    if args.steps > MAX_STEPS:
        raise _CliError(EXIT_USAGE,
                        f"--steps must be <= {MAX_STEPS}, got {args.steps}")
    if not args.t_min < args.t_max:
        raise _CliError(
            EXIT_USAGE,
            f"--t-min must be below --t-max, got {args.t_min} and {args.t_max}",
        )
    if (args.c1 is None) != (args.c2 is None):
        raise _CliError(EXIT_USAGE, "--c1 and --c2 must be given together")

    params = DdeParams(a=args.a, b=args.b, p0=args.p0)
    config = _sim_control(args)
    modes = None if args.c1 is None else (args.c1, args.c2)
    steps = args.steps
    # Endpoint-exact affine blend; keeps symmetric windows exactly symmetric.
    times = [(args.t_min * (steps - i) + args.t_max * i) / steps
             for i in range(steps + 1)]

    warning_flag = None
    if config is None and classify(params).tag is RegimeTag.OSCILLATORY:
        if not args.allow_oscillatory:
            raise WrongRegime(
                f"a={args.a}, b={args.b} falls in the oscillatory regime, "
                f"which is infeasible for influence modelling; pass "
                f"--allow-oscillatory to inspect the branch"
            )
        warning_flag = "infeasible"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        values = evaluate(params, times, config, modes)
    if any(isinstance(w.message, NegativeInfluenceWarning) for w in caught):
        warning_flag = "negative-influence"

    header, flag = ("t,p", "") if warning_flag is None else (
        "t,p,warning", "," + warning_flag)
    # + 0.0 as in fmt: -0.0 would print as "-0"
    lines = ["%.12g,%.12g%s" % (t + 0.0, p + 0.0, flag) for t, p in zip(times, values)]
    text = header + "\n" + "\n".join(lines) + "\n"

    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _read_bytes(path: str) -> bytes:
    """The whole file, read once, so that a pipe works; unreadable is ERROR 2."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliError(EXIT_USAGE, f"cannot read {path!r}: {exc}") from exc


def _csv_rows(path: str, data: bytes) -> list[list[str]]:
    """Non-empty CSV rows of ``data``, the bytes of ``path``; none is ERROR 2.

    The bytes are decoded as ``open(path, encoding="utf-8-sig", newline="")``
    would decode them, chunk by chunk.
    """
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")
    try:
        rows = [row for row in csv.reader(text) if row]
    except csv.Error as exc:
        raise _CliError(EXIT_USAGE, f"{path!r}: {exc}") from exc
    if not rows:
        raise _CliError(EXIT_USAGE, f"{path!r} is empty")
    return rows


def _plain_series(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """The t and p columns of a plain ``t,p`` file, or None for any other.

    Plain is the shape ``simulate`` writes: the header ``t,p``, then only
    bytes of :data:`_PLAIN_BODY_BYTES`, one comma per line, no empty line and
    no line longer than the csv field limit.  There ``np.loadtxt`` and
    ``float`` either both reject a token or both round it to the same double,
    so the columns equal the csv reader's bit for bit.  Any other file, and
    any exception (numpy's parse errors differ between versions), is left to
    the csv reader and its error lines.
    """
    import numpy as np

    lines = data.count(b"\n") - 1 + (not data.endswith(b"\n"))
    if (not data.startswith(b"t,p\n") or lines < 1 or b"\n\n" in data
            or data.translate(None, _PLAIN_BODY_BYTES) != b"tp"
            or data.count(b",") != lines + 1):
        return None
    # No line, so no field, may pass the csv limit: a newline-free run of
    # 2k - 1 bytes would cover one of these k-byte windows, so a newline
    # in each caps every line at 2k - 2 <= limit bytes.
    k = csv.field_size_limit() // 2 + 1
    if any(data.find(b"\n", i, i + k) < 0
           for i in range(0, len(data) - k + 1, k)):
        return None
    try:
        # The count above leaves one comma a line and loadtxt raises on
        # ragged rows, so shape (lines, 2) means one comma on every line.
        table = np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1,
                           ndmin=2, comments=None, encoding="ascii")
    except Exception:
        return None
    if table.shape != (lines, 2):
        return None
    return table[:, 0], table[:, 1]


def _read_series_csv(path: str) -> tuple[ArrayLike, ArrayLike]:
    data = _read_bytes(path)
    columns = _plain_series(data)
    if columns is not None:
        return columns
    rows = _csv_rows(path, data)
    header = [cell.strip() for cell in rows[0][:2]]
    if header != ["t", "p"]:
        raise _CliError(
            EXIT_USAGE,
            f"{path!r} must start with header 't,p', got {rows[0]!r}",
        )
    times: list[float] = []
    values: list[float] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) < 2:
            raise _CliError(
                EXIT_USAGE, f"{path!r} line {lineno}: expected 't,p' values"
            )
        try:
            times.append(float(row[0]))
            values.append(float(row[1]))
        except ValueError:
            raise _CliError(
                EXIT_USAGE,
                f"{path!r} line {lineno}: not numeric: {row[:2]!r}",
            ) from None
    return times, values


def cmd_fit(args) -> None:
    from .fitting import fit_pipeline

    times, values = _read_series_csv(args.input)
    series = validate_series(times, values)
    report = fit_pipeline(series, FdMode(args.fd))

    modes = report.modes
    out = {
        "a": report.params.a,
        "b": report.params.b,
        "p0": report.params.p0,
        "r": report.regime.r,
        "regime": report.regime.tag.value,
        **{key: getattr(modes, key) if modes else None
           for key in ("A", "B", "w1", "w2")},
        "rss_ab": report.rss_ab,
        "rss_modes": report.rss_modes,
        "n_points": report.n_points,
    }
    if args.predict is not None:
        out["prediction"] = evaluate(
            report.params, (args.predict,),
            modes=(modes.w1, modes.w2) if modes else None)[0]
    if report.modes_note:
        print(report.modes_note, file=sys.stderr)
    sys.stdout.write(json.dumps(out) + "\n")


def _read_journals_csv(path: str) -> FeatureMatrix:
    rows = _csv_rows(path, _read_bytes(path))
    header = rows[0]
    if header[0].strip() != "journal" or len(header) < 3:
        raise _CliError(
            EXIT_USAGE,
            f"{path!r} must start with header 'journal,<feature1>,"
            f"<feature2>,...', got {header!r}",
        )
    feature_names = [cell.strip() for cell in header[1:]]
    journal_names: list[str] = []
    data: list[list[float]] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise _CliError(
                EXIT_USAGE,
                f"{path!r} line {lineno}: expected {len(header)} cells, "
                f"got {len(row)}",
            )
        journal_names.append(row[0].strip())
        try:
            data.append([float(cell) for cell in row[1:]])
        except ValueError:
            raise _CliError(
                EXIT_USAGE, f"{path!r} line {lineno}: non-numeric feature value"
            ) from None
    return FeatureMatrix(journal_names=tuple(journal_names),
                         feature_names=tuple(feature_names),
                         data=data)


def cmd_rank(args) -> None:
    from .ranking import rank_journals

    matrix = _read_journals_csv(args.input)
    if args.response is not None:
        response = args.response
    elif "CiteScore" in matrix.feature_names:
        response = "CiteScore"
    else:
        response = matrix.feature_names[0]
    print(f"response={response} lambda={fmt(args.lam)}", file=sys.stderr)

    result, _trace = rank_journals(matrix, response, args.lam)
    lines = ["rank,journal,singval,elimination_step"]
    for e in result.entries:
        lines.append(
            f"{e.rank},{_csv_cell(e.journal_name)},{fmt(e.singval)},"
            f"{e.elimination_step}"
        )
    sys.stdout.write("\n".join(lines) + "\n")


def _csv_cell(text: str) -> str:
    if any(ch in text for ch in ",\"\n"):
        return '"' + text.replace('"', '""') + '"'
    return text


def cmd_verify(args) -> None:
    if not (args.step > 0.0):
        raise _CliError(EXIT_USAGE, f"--step must be positive, got {args.step}")
    if not (args.t_max > 0.0):
        raise _CliError(EXIT_USAGE, f"--t-max must be positive, got {args.t_max}")
    params = DdeParams(a=args.a, b=args.b, p0=args.p0)
    # The closed form is base_solution's: refuse its regime before integrating.
    _require_regime(params, "base_solution")

    times, oracle = oracle_solution(params, args.t_max, args.step)
    # the largest |closed - p| / max(1, |closed|); dividing by 1 is a no-op
    deviation = 0.0
    for closed, p in zip(evaluate(params, times), oracle):
        d = abs(closed - p)
        if abs(closed) > 1.0:
            d /= abs(closed)
        if d > deviation:
            deviation = d
    sys.stdout.write(fmt(deviation) + "\n")
    if deviation > VERIFY_TOL:
        raise _CliError(
            EXIT_VERIFY,
            f"closed form deviates from the integration oracle by "
            f"{fmt(deviation)} (tolerance {fmt(VERIFY_TOL)})",
        )


def cmd_eta(args) -> None:
    params = DdeParams(a=args.a, b=args.b, p0=1.0)
    value = eta_article(args.art, args.alpha, params)
    sys.stdout.write(fmt(value) + "\n")


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return EXIT_OK
    except _CliError as exc:
        code, detail = exc.code, str(exc)
    except (WrongRegime, ResonantForcing) as exc:
        code, detail = EXIT_REGIME, str(exc)
    except DegenerateSystem as exc:
        stage = exc.stage or "unknown stage"
        code, detail = EXIT_DEGENERATE, f"[{stage}] {exc}"
    except SingularSystem as exc:
        code, detail = EXIT_DEGENERATE, str(exc)
    except ZeroVarianceColumn as exc:
        code, detail = EXIT_ZERO_VARIANCE, str(exc)
    except (MirrorDdeError, ValueError, KeyError) as exc:
        code, detail = EXIT_USAGE, str(exc)
    except OverflowError as exc:
        # Last-resort guard: every known overflow (simulate --steps, a
        # non-finite trajectory or fit) has its own check and error line.
        code, detail = EXIT_USAGE, f"result exceeds the float64 range ({exc})"
    # the one error line: whitespace runs, newlines included, fold to a space
    detail = " ".join(detail.split()) or "unspecified failure"
    print(f"ERROR {code}: {detail}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
