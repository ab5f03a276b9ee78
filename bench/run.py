"""Benchmark entry point for the mirrordde CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-check

Run from anywhere; the package is imported from ``src/`` next to this
directory.  The run writes the workload's seeded inputs under
``bench/work/``, starts one fresh single-threaded child process
(``child.py``) that executes round(S / pass_s) passes of the workload's CLI
calls, checks every output and reports its timings, and times fresh
interpreters importing ``mirrordde.cli`` before and after it (``setup_s``).  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``).  Reference figures that are not gated (tail
percentile, sample counts) go to stderr.  The full result and, for traced
runs, the span trace are written under ``bench/results/``.

``--self-check`` runs every workload at tiny size, traced, with all of its
checks, and exits non-zero if anything is off.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402

#: Fresh interpreter starts for setup_s, half before and half after the
#: child, so that they sample the host over the whole run.
SETUP_STARTS = 8

#: Whole-run deadline for the child, in seconds.
CHILD_TIMEOUT = 150.0

#: BLAS and OpenMP pools pinned to one thread; hash seed fixed.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PINNED_ENV)
    return env


def time_starts(starts: int) -> list[float]:
    """Wall times of fresh interpreters that import mirrordde.cli."""
    cmd = [sys.executable, "-c",
           f"import sys; sys.path.insert(0, {str(SRC)!r}); import mirrordde.cli"]
    env = child_env()
    times = []
    for _ in range(starts):
        t0 = time.perf_counter()
        # No timeout: Popen.wait(timeout) polls, which quantizes the time.
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def run_child(plan: dict, workdir: Path, timeout: float) -> dict:
    """Run child.py on ``plan`` and return its result; raises on failure."""
    plan_path, result_path = workdir / "plan.json", workdir / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), str(plan_path), str(result_path)],
        cwd=workdir, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=sys.stderr.fileno())
    try:
        rc = proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0:
        raise RuntimeError(f"child process exited with {rc}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it (n >= 40)."""
    n = len(samples)
    if n < 40:
        return None
    q = math.floor(100 * (n - 10) / n)
    return q, statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def summarize(result: dict, setup_s: float, trace: bool) -> dict:
    passes, per = result["passes"], result["ops_per_pass"]
    plain = [p for p in passes if not p["traced"]]
    op_s = [p["s"] / per for p in plain]
    out = {
        "correct": not result["problems"],
        "attempted": len(passes) * per,
        "failed": sum(p["failed"] for p in passes),
    }
    if not trace:
        out["metrics"] = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "items_per_s": {"value": sum(p["items"] for p in plain)
                            / sum(p["s"] for p in plain), "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(op_s), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
        return out
    traced_s = statistics.median(p["s"] / per for p in passes if p["traced"])
    metrics = {name: {"value": result["layers"][name],
                      "unit": "count" if name.endswith((".calls", ".steps")) else "s"}
               for name in tracer.metric_names()}
    metrics["trace.op_p50_s"] = {"value": traced_s, "unit": "s"}
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (traced_s / statistics.median(op_s) - 1.0), "unit": "%"}
    out["metrics"] = metrics
    return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: str = "full", setup_starts: int = SETUP_STARTS) -> dict:
    deadline = time.monotonic() + CHILD_TIMEOUT
    workdir = BENCH / "work" / f"{workload}-{seed}-{os.getpid()}"
    results = BENCH / "results"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    results.mkdir(exist_ok=True)
    try:
        plan = workloads.build(workload, seed, str(workdir), size)
        passes = max(2, round(seconds / plan["pass_s"]))
        if trace:  # traced runs alternate untraced and traced passes
            passes += passes % 2
        stem = f"{workload}-seed{seed}-trace{int(trace)}"
        plan.update(src=str(SRC), trace=trace, passes=passes,
                    trace_file=str(results / f"{stem}.spans.json"))
        time_starts(1)  # compiles bytecode and warms the page cache
        starts = time_starts(setup_starts // 2)
        result = run_child(plan, workdir, deadline - time.monotonic())
        starts += time_starts(setup_starts - setup_starts // 2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summary = summarize(result, statistics.median(starts), trace)
    (results / f"{stem}.json").write_text(
        json.dumps({"summary": summary, "child": result}), encoding="utf-8")
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    op_s = sorted(p["s"] / result["ops_per_pass"]
                  for p in result["passes"] if not p["traced"])
    note = f"reference: {len(op_s)} passes of {result['ops_per_pass']} ops, " \
           f"op median {statistics.median(op_s):.4g} s"
    tail = tail_percentile(op_s)
    note += (f", op p{tail[0]} {tail[1]:.4g} s" if tail
             else ", too few passes for a tail percentile")
    print(note, file=sys.stderr)
    return summary


def self_check() -> int:
    """Every workload at tiny size, traced, with all checks."""
    ok = True
    for name in workloads.WORKLOADS:
        summary = run(name, 1, 0.0, trace=True, size="tiny", setup_starts=2)
        metrics = summary["metrics"]
        problems = []
        if not summary["correct"]:
            problems.append("output checks failed")
        missing = set(tracer.metric_names()) - set(metrics)
        if missing:
            problems.append(f"missing metrics {sorted(missing)}")
        if not all(math.isfinite(m["value"]) for m in metrics.values()):
            problems.append("non-finite metric")
        if metrics["cli.main.calls"]["value"] != 1.0:
            problems.append("cli.main is not called once per op")
        print(f"self-check {name}: attempted {summary['attempted']}, "
              f"failed {summary['failed']}: "
              f"{'; '.join(problems) if problems else 'ok'}", file=sys.stderr)
        ok = ok and not problems
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "mirrordde" / "cli.py").is_file():
        print(f"error: no mirrordde sources under {SRC}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
