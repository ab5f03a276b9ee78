"""The four benchmark workloads: seeded inputs, one pass of CLI calls, checks.

A workload is built once per run from its seed.  ``build`` writes every input
file and returns a plan: the list of ``mirrordde`` argv lists that make up
one pass, each with the number of work items it completes and the spec its
check needs.  Every pass of a run repeats the same list, so all passes cost
the same and a run is whole passes.

``check_call`` validates one call's output against quantities this module
computes itself (closed forms, truncation-error bounds, its own lasso) or
against properties the method must have.  It never compares with stored output.
The one tolerated failure is ``fit`` on the fixed high-rate series, which
fails through the ill-conditioned mode fit; ``check_call`` reports those
calls as ``"failed"`` and anything else wrong as ``"bad"``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random

import numpy as np

WORKLOADS = ("simulate", "fit", "rank", "verify")

# Per-workload sizes.  ``pass_s`` is the nominal wall time of one pass on the
# reference host (2-vCPU x86 VM, Python 3.11, numpy 2.4); a run executes
# round(seconds / pass_s) passes, so the amount of work depends on --seconds
# alone and never on how fast the host happens to be.
#
# A rank table is (journals, features, table seed, extra argv).  Its values
# come from the fixed table seed; --seed only draws the journal names.  The
# lasso's cost varies several-fold between random tables, and about one
# table in six makes ``rank`` fail (coordinate descent hits its sweep cap in
# a late step with fewer journals than predictors), so the values are fixed:
# each table seed is the lowest one whose elimination runs with every lasso
# below half the sweep cap.  Seeds skipped that way (the failing ones are
# reproducers of that fault): (240, 8) seed 0 peaks at 9801 sweeps and seed
# 3 fails; (220, 7) seed 3 and (36, 8) seeds 1 and 2 fail.
SIZES = {
    "full": {
        "simulate": {"steps": 6000, "pass_s": 0.32},
        "fit": {"steps": 10000, "pass_s": 0.33},
        "rank": {"tables": ((200, 6, 0, ()),
                            (220, 7, 0, ("--lambda", "0.05")),
                            (240, 8, 1, ("--response", "SJR", "--lambda", "0.08"))),
                 "pass_s": 1.1},
        "verify": {"step": 2.0 ** -11, "t_max": 4.0, "pass_s": 0.33},
    },
    "tiny": {
        "simulate": {"steps": 200, "pass_s": 0.01},
        "fit": {"steps": 400, "pass_s": 0.01},
        "rank": {"tables": ((24, 6, 0, ()),
                            (30, 7, 0, ("--lambda", "0.05")),
                            (36, 8, 0, ("--response", "SJR", "--lambda", "0.08"))),
                 "pass_s": 0.3},
        "verify": {"step": 2.0 ** -6, "t_max": 5.0, "pass_s": 0.01},
    },
}

# The high-rate fit series: fixed inputs (they do not depend on the seed) on
# which the mode fit fails every time.  r*T is 8.7 and 19.4 on [-5, 5].
HIGH_RATE = ((1.0, 2.0, 1.0), (1.0, 4.0, 1.0))

FEATURES = ("CiteScore", "SJR", "SNIP", "h5", "IF", "Eigen", "AI", "IPP")

# Relative width of the printed value: 12 significant digits.
PRINT_RTOL = 1e-11


def grid(t_min: float, t_max: float, steps: int) -> list[float]:
    """The CLI's endpoint-exact affine grid, symmetric when t_min = -t_max."""
    return [(t_min * (steps - i) + t_max * i) / steps for i in range(steps + 1)]


def two_mode(a: float, b: float, p0: float) -> tuple[float, float, float]:
    """(r, w1, w2) of p(t) = w1 e^{rt} + w2 e^{-rt} with p(0)=p0, p'(0)=(a+b)p0."""
    r = math.sqrt(b * b - a * a)
    return r, p0 * (r + a + b) / (2.0 * r), p0 * (r - a - b) / (2.0 * r)


def _exp_pair(rng: random.Random) -> tuple[float, float]:
    """An exponential-regime (a, b) with r in [0.2, 0.6], so r*T <= 3 on [-5, 5]."""
    a = rng.uniform(-0.5, 0.5)
    r = rng.uniform(0.2, 0.6)
    return a, math.sqrt(a * a + r * r)


def _rate_off_resonance(rng: random.Random, r: float) -> float:
    while True:
        rate = rng.uniform(-0.5, 0.5)
        if abs(rate * rate - r * r) >= 0.05:
            return rate


def _num(x: float) -> str:
    return repr(float(x))


def _opt(name: str, *values: float) -> str:
    """``--name=v1,v2``; the ``=`` form, since argparse takes "-5e-05" for a flag."""
    return f"--{name}=" + ",".join(_num(v) for v in values)


# ---------------------------------------------------------------------------
# building plans
# ---------------------------------------------------------------------------

def build(name: str, seed: int, workdir: str, size: str = "full") -> dict:
    """Write the inputs of workload ``name`` under ``workdir``; return its plan."""
    spec = SIZES[size][name]
    rng = random.Random(f"{name}:{seed}")
    calls = {"simulate": _build_simulate, "fit": _build_fit,
             "rank": _build_rank, "verify": _build_verify}[name](
        rng, spec, workdir)
    return {"workload": name, "calls": calls, "pass_s": spec["pass_s"]}


def _build_simulate(rng, spec, workdir):
    steps = spec["steps"]
    t_min, t_max = -5.0, 5.0
    base = ["simulate", _opt("t-min", t_min), _opt("t-max", t_max),
            f"--steps={steps}"]
    calls = []

    def add(kind, a, b, p0, extra=(), **fields):
        out = os.path.join(workdir, f"sim{len(calls)}.csv")
        argv = base + [_opt("a", a), _opt("b", b), _opt("p0", p0),
                       *extra, f"--out={out}"]
        calls.append({"argv": argv, "items": steps + 1, "out": out,
                      "spec": {"kind": kind, "a": a, "b": b, "p0": p0,
                               "t_min": t_min, "t_max": t_max,
                               "steps": steps, **fields}})

    a, b = _exp_pair(rng)
    add("exponential", a, b, rng.uniform(0.5, 2.0))
    a = rng.uniform(0.1, 0.5)
    add("degenerate", a, a, rng.uniform(0.5, 2.0))
    b = rng.uniform(-0.3, 0.3)
    w = rng.uniform(0.2, 0.6)
    add("oscillatory", math.sqrt(b * b + w * w), b, rng.uniform(0.5, 2.0),
        ["--allow-oscillatory"])
    # Explicit amplitudes with c1 + c2 < 0: the negative-influence flag.
    a, b = _exp_pair(rng)
    c1, c2 = rng.uniform(0.2, 0.5), rng.uniform(-1.5, -0.8)
    add("modes", a, b, 1.0, [_opt("c1", c1), _opt("c2", c2)], c1=c1, c2=c2)

    a, b = _exp_pair(rng)
    v, art, alpha = rng.uniform(-0.3, 0.3), rng.uniform(0.0, 1.0), rng.uniform(-1, 1)
    add("forced", a, b, rng.uniform(0.5, 2.0),
        [_opt("theta-const", v), _opt("eta-article", art, alpha)],
        theta=["const", v], eta=["article", art, alpha])
    a, b = _exp_pair(rng)
    r = math.sqrt(b * b - a * a)
    slope, icpt = rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)
    k, k1 = rng.uniform(-0.3, 0.3), _rate_off_resonance(rng, r)
    add("forced", a, b, rng.uniform(0.5, 2.0),
        [_opt("theta-lin", slope, icpt), _opt("eta-exp", k, k1)],
        theta=["lin", slope, icpt], eta=["pulse", k, k1])
    a, b = _exp_pair(rng)
    rate = _rate_off_resonance(rng, math.sqrt(b * b - a * a))
    add("forced", a, b, rng.uniform(0.5, 2.0), [_opt("theta-exp", rate)],
        theta=["exp", rate], eta=None)
    return calls


def _write_series(path, a, b, p0, T, steps):
    r, w1, w2 = two_mode(a, b, p0)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,p\n")
        for t in grid(-T, T, steps):
            fh.write(f"{t!r},{w1 * math.exp(r * t) + w2 * math.exp(-r * t)!r}\n")


def _build_fit(rng, spec, workdir):
    steps = spec["steps"]
    T = 5.0
    # (fd mode, predict?) for the seeded series; the high-rate ones follow.
    variants = (("central", False), ("central", False), ("forward", False),
                ("forward", True), ("central", True), ("central", True))
    series = [(*_exp_pair(rng), rng.uniform(0.5, 2.0), fd, predict, False)
              for fd, predict in variants]
    series += [(a, b, p0, "central", False, True) for a, b, p0 in HIGH_RATE]
    calls = []
    for i, (a, b, p0, fd, predict, high_rate) in enumerate(series):
        path = os.path.join(workdir, f"series{i}.csv")
        _write_series(path, a, b, p0, T, steps)
        argv = ["fit", "--input", path, "--fd", fd]
        t_pred = None
        if predict:
            t_pred = rng.uniform(-T, T)
            argv.append(_opt("predict", t_pred))
        calls.append({"argv": argv, "items": steps + 1, "out": None,
                      "spec": {"a": a, "b": b, "p0": p0, "T": T,
                               "steps": steps, "fd": fd, "predict": t_pred,
                               "high_rate": high_rate}})
    return calls


def _write_table(path, table_seed, names, k):
    """A lognormal journals-by-features table with one shared latent factor.

    The values come from ``table_seed`` alone; ``names`` label the rows.
    """
    nprng = np.random.default_rng(table_seed)
    m = len(names)
    mu = nprng.uniform(0.0, 2.0, k)
    sigma = nprng.uniform(0.3, 0.8, k)
    rho = nprng.uniform(0.4, 0.8, k)
    z = nprng.standard_normal(m)
    e = nprng.standard_normal((m, k))
    data = np.exp(mu + sigma * (rho * z[:, None] + np.sqrt(1 - rho ** 2) * e))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("journal," + ",".join(FEATURES[:k]) + "\n")
        for name, row in zip(names, data):
            fh.write(name + "," + ",".join("%.9g" % x for x in row) + "\n")


def _build_rank(rng, spec, workdir):
    calls = []
    for i, (m, k, table_seed, extra) in enumerate(spec["tables"]):
        path = os.path.join(workdir, f"table{i}.csv")
        names = [f"J{n:06d}" for n in rng.sample(range(10 ** 6), m)]
        _write_table(path, table_seed, names, k)
        opts = dict(zip(extra[::2], extra[1::2]))
        calls.append({"argv": ["rank", "--input", path, *extra], "items": m,
                      "out": None,
                      "spec": {"path": path,
                               "response": opts.get("--response", "CiteScore"),
                               "lam": float(opts.get("--lambda", 0.1))}})
    return calls


def _build_verify(rng, spec, workdir):
    step, t_max = spec["step"], spec["t_max"]
    samples = 2 * round(t_max / step) + 1  # t_max is a whole number of steps
    calls = []
    for _ in range(3):
        a, b = _exp_pair(rng)
        argv = ["verify", _opt("a", a), _opt("b", b),
                _opt("p0", rng.uniform(0.5, 2.0)),
                _opt("t-max", t_max), _opt("step", step)]
        calls.append({"argv": argv, "items": samples, "out": None, "spec": {}})
    return calls


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

class CheckError(Exception):
    """An output that disagrees with the benchmark's own computation."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def check_call(workload: str, call: dict, rc: int, out: str, err: str) -> str:
    """Check one call's output.  Returns "ok" or "failed"; raises CheckError."""
    spec = call["spec"]
    if workload == "fit" and spec["high_rate"]:
        return _check_high_rate_fit(spec, rc, out, err)
    _require(rc == 0, f"exit {rc}: {err.strip()[:200]}")
    if workload == "simulate":
        with open(call["out"], encoding="utf-8") as fh:
            _check_simulate(spec, fh.read())
    elif workload == "fit":
        _check_fit(spec, out)
    elif workload == "rank":
        _check_rank(spec, out)
    else:
        _check_verify(out)
    return "ok"


def _parse_rows(text: str, steps: int, warning: str | None):
    lines = text.split("\n")
    _require(lines[-1] == "", "output does not end with a newline")
    lines.pop()
    header = "t,p" if warning is None else "t,p,warning"
    _require(lines[0] == header, f"header {lines[0]!r}, expected {header!r}")
    _require(len(lines) == steps + 2, f"{len(lines) - 1} rows, expected {steps + 1}")
    ts, ps = [], []
    for line in lines[1:]:
        cells = line.split(",")
        if warning is not None:
            _require(cells[2:] == [warning], f"row {line!r}: warning is not {warning!r}")
        ts.append(float(cells[0]))
        ps.append(float(cells[1]))
    return ts, ps


def _check_simulate(spec: dict, text: str) -> None:
    kind, a, b, p0 = spec["kind"], spec["a"], spec["b"], spec["p0"]
    times = grid(spec["t_min"], spec["t_max"], spec["steps"])
    warning = {"oscillatory": "infeasible", "modes": "negative-influence"}.get(kind)
    ts, ps = _parse_rows(text, spec["steps"], warning)
    for t, t_out in zip(times, ts):
        _require(abs(t_out - t) <= PRINT_RTOL * max(1.0, abs(t)), f"time {t_out!r} != {t!r}")
    if kind == "forced":
        _check_forced(spec, times, ps)
        return

    def expected(t):
        """(value, magnitude scale) of the benchmark's own evaluation at t."""
        if kind == "degenerate":
            return p0 * (1.0 + (a + b) * t), abs(p0) * (1.0 + abs((a + b) * t))
        if kind == "oscillatory":
            w = math.sqrt(a * a - b * b)
            c = (a + b) / w
            return (p0 * (math.cos(w * t) + c * math.sin(w * t)),
                    abs(p0) * (1.0 + abs(c)))
        if kind == "modes":
            r, w1, w2 = math.sqrt(b * b - a * a), spec["c1"], spec["c2"]
        else:
            r, w1, w2 = two_mode(a, b, p0)
        g, d = w1 * math.exp(r * t), w2 * math.exp(-r * t)
        return g + d, abs(g) + abs(d)

    for t, p in zip(times, ps):
        want, scale = expected(t)
        _require(abs(p - want) <= PRINT_RTOL * scale,
                 f"{kind} p({t!r}) = {p!r}, expected {want!r}")


def _forcing(spec: dict, t: float) -> float:
    """(a+b) theta(t) + eta(t); a constant (article) eta enters like theta."""
    a, b = spec["a"], spec["b"]
    theta, eta = spec["theta"], spec["eta"]
    if theta[0] == "const":
        th = theta[1]
    elif theta[0] == "lin":
        th = theta[1] * t + theta[2]
    else:
        th = math.exp(theta[1] * t)
    f = (a + b) * th
    if eta is not None and eta[0] == "pulse":
        f += eta[1] * math.exp(eta[2] * t)
    elif eta is not None:
        f += (a + b) * (math.exp(-eta[1]) + eta[2] * (a - b))
    return f


def _check_forced(spec: dict, times: list[float], ps: list[float]) -> None:
    """p(0) = p0 and p'' - (b^2-a^2) p = forcing on a wide stencil."""
    steps, p0 = spec["steps"], spec["p0"]
    mid = steps // 2
    _require(times[mid] == 0.0 and abs(ps[mid] - p0) <= 1e-9 * max(1.0, abs(p0)),
             f"p(0) = {ps[mid]!r}, expected p0 = {p0!r}")
    h = times[1] - times[0]
    k = max(1, round(0.02 / h))
    H = k * h
    disc = spec["b"] ** 2 - spec["a"] ** 2
    pmax = max(abs(p) for p in ps)
    for i in range(k, steps + 1 - k):
        second = (ps[i + k] - 2.0 * ps[i] + ps[i - k]) / (H * H)
        f = _forcing(spec, times[i])
        resid = second - disc * ps[i] - f
        # O(H^2) truncation (rates are below 1) plus the 12-digit rounding
        # of three printed values amplified by 1/H^2.
        tol = 1e-3 * (abs(second) + abs(disc * ps[i]) + abs(f)) \
            + 4.0 * PRINT_RTOL * pmax / (H * H)
        _require(abs(resid) <= tol,
                 f"residual {resid!r} at t={times[i]!r} exceeds {tol!r}")


def _fit_coefficients(spec: dict, res: dict) -> None:
    """Checks that do not involve the mode amplitudes."""
    a, b, p0 = spec["a"], spec["b"], spec["p0"]
    r = math.sqrt(b * b - a * a)
    h = 2.0 * spec["T"] / spec["steps"]
    # Central differences bias (a, b) by about (h r)^2/6 relative; forward
    # differences shift b by about h r^2 / 2.
    tol = h * h * r * r * (abs(a) + abs(b)) + 1e-10
    if spec["fd"] == "forward":
        tol += h * r * r
    _require(res["n_points"] == spec["steps"] + 1, f"n_points {res['n_points']}")
    _require(res["regime"] == "exponential", f"regime {res['regime']!r}")
    _require(abs(res["a"] - a) <= tol and abs(res["b"] - b) <= tol,
             f"(a, b) = ({res['a']!r}, {res['b']!r}), expected ({a!r}, {b!r}) "
             f"within {tol:.3g}")
    _require(abs(res["p0"] - p0) <= 1e-12 * abs(p0), f"p0 {res['p0']!r} != {p0!r}")
    r_fit = math.sqrt(res["b"] ** 2 - res["a"] ** 2)
    _require(abs(res["r"] - r_fit) <= 1e-12 * r_fit, f"r {res['r']!r} != {r_fit!r}")


def _fit_modes_ok(spec: dict, res: dict) -> str | None:
    """None when (w1, w2, A, B, prediction) pass, else what is wrong.

    An error d in the fitted rate moves each mode by a factor e^{+-dt} with
    |dt| <= dT, and least squares spreads that over both amplitudes.  On
    series with r*T <= 3 the amplitude error stays below 3 dT (|w1| + |w2|)
    for a fit in e^{2rt} coordinates and below dT (|w1| + |w2|) for a direct
    two-mode fit; the tolerance allows ten.  The high-rate series miss it by
    four orders of magnitude or more.
    """
    a, b, p0 = spec["a"], spec["b"], spec["p0"]
    r, w1, w2 = two_mode(a, b, p0)
    scale = abs(w1) + abs(w2)
    tol = (10.0 * abs(res["r"] - r) * spec["T"] + 1e-9) * scale
    for name, got, true in (("w1", res["w1"], w1), ("w2", res["w2"], w2)):
        if not abs(got - true) <= tol:
            return f"{name} = {got!r}, true {true!r}, tolerance {tol:.3g}"
    A, B = res["A"], res["B"]
    fa, fb = res["a"], res["b"]
    if not (abs(fa * A + fb * B - res["w1"]) <= 1e-9 * (abs(fa * A) + abs(fb * B))
            and abs(fb * A + fa * B - res["w2"]) <= 1e-9 * (abs(fb * A) + abs(fa * B))):
        return f"(A, B) = ({A!r}, {B!r}) do not map to (w1, w2)"
    t = spec["predict"]
    if t is None:
        return None if "prediction" not in res else "unrequested prediction"
    true = w1 * math.exp(r * t) + w2 * math.exp(-r * t)
    tol_p = tol * (math.exp(r * t) + math.exp(-r * t))
    if not abs(res.get("prediction", math.nan) - true) <= tol_p:
        return (f"prediction {res.get('prediction')!r}, true {true!r}, "
                f"tolerance {tol_p:.3g}")
    return None


def _check_fit(spec: dict, out: str) -> None:
    res = json.loads(out)
    _fit_coefficients(spec, res)
    problem = _fit_modes_ok(spec, res)
    _require(problem is None, str(problem))


def _check_high_rate_fit(spec: dict, rc: int, out: str, err: str) -> str:
    """The mode fit on a high-rate series: pass, or fail in fit_modes only."""
    if rc == 4:
        _require(err.startswith("ERROR 4: [fit_modes]"),
                 f"high-rate fit failed outside fit_modes: {err.strip()[:200]}")
        return "failed"
    _require(rc == 0, f"exit {rc}: {err.strip()[:200]}")
    res = json.loads(out)
    _fit_coefficients(spec, res)
    return "ok" if _fit_modes_ok(spec, res) is None else "failed"


def _standardize(block: np.ndarray) -> np.ndarray:
    mu = block.mean(axis=0)
    sigma = np.sqrt(((block - mu) ** 2).mean(axis=0))
    return (block - mu) / sigma


def _lasso(X: np.ndarray, y: np.ndarray, lam: float) -> list[float]:
    """Covariance-update coordinate descent for ||y-Xw||^2/(2m) + lam ||w||_1."""
    m = X.shape[0]
    G = (X.T @ X / m).tolist()
    c = (X.T @ y / m).tolist()
    k = len(c)
    w = [0.0] * k
    for _ in range(100_000):
        delta = 0.0
        for j in range(k):
            rho = c[j] - sum(G[j][i] * w[i] for i in range(k) if i != j)
            new = math.copysign(max(abs(rho) - lam, 0.0), rho) / G[j][j]
            delta = max(delta, abs(new - w[j]))
            w[j] = new
        if delta <= 1e-14:
            return w
    raise CheckError("reference lasso did not converge")


def _check_rank(spec: dict, out: str) -> None:
    with open(spec["path"], encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    features = rows[0][1:]
    names = [row[0] for row in rows[1:]]
    data = np.array([[float(x) for x in row[1:]] for row in rows[1:]])
    m, n = data.shape
    lines = list(csv.reader(io.StringIO(out)))
    _require(lines[0] == ["rank", "journal", "singval", "elimination_step"],
             f"header {lines[0]!r}")
    _require(len(lines) == m + 1, f"{len(lines) - 1} rows, expected {m}")
    ranks = [int(x[0]) for x in lines[1:]]
    steps = [int(x[3]) for x in lines[1:]]
    scores = [float(x[2]) for x in lines[1:]]
    _require(ranks == list(range(1, m + 1)), "ranks are not 1..m in order")
    _require(sorted(steps) == list(range(1, m + 1)), "steps are not a permutation of 1..m")
    _require(sorted(x[1] for x in lines[1:]) == sorted(names), "journals differ from input")
    keys = list(zip(scores, steps))
    _require(keys == sorted(keys), "rows are not ordered by (singval, step)")

    index = {name: i for i, name in enumerate(names)}
    by_step = {s: (index[x[1]], sc) for x, s, sc in zip(lines[1:], steps, scores)}
    _require(by_step[m][1] == by_step[m - 1][1], "survivor score differs from the last step's")
    resp = features.index(spec["response"])
    preds = [j for j in range(n) if j != resp]
    remaining = list(range(m))
    for step in range(1, m):
        chosen, score = by_step[step]
        if len(remaining) > len(preds):
            std = _standardize(data[remaining])
            coef = _lasso(std[:, preds], std[:, resp], spec["lam"])
            own = math.sqrt(sum(c * c for c in coef))
            _require(abs(score - own) <= 1e-6 * max(1.0, own),
                     f"step {step}: score {score!r}, own lasso gives {own!r}")
            row_norm = sum(abs(c) for c in coef) / len(preds)
            gaps = np.abs(np.abs(std).sum(axis=1) / n - row_norm)
            gap = gaps[remaining.index(chosen)]
            _require(gap <= gaps.min() + 1e-6,
                     f"step {step}: eliminated gap {gap!r} > smallest {gaps.min()!r}")
        remaining.remove(chosen)


def _check_verify(out: str) -> None:
    deviation = float(out)
    _require(math.isfinite(deviation) and deviation <= 1e-6,
             f"deviation {deviation!r} above 1e-6")
