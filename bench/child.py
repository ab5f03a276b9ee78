"""Measured process: runs one workload's passes in-process and times each op.

Usage: python3 child.py PLAN.json RESULT.json

An op is one in-process call to ``mirrordde.cli.main(argv)`` with stdout and
stderr captured.  Only that call is timed.  Checking the output and
collecting garbage happen between ops, outside the timed region.  The first
pass is a warm-up: it is checked in full and not timed into the results.
Every later pass must reproduce its output byte for byte, as the CLI
promises stable output.  In a traced run, passes alternate untraced and
traced so that the tracing overhead is measured against the same process.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter


def run_op(cli, argv: list[str]) -> tuple[float, int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        rc = cli.main(argv)
        dt = perf_counter() - t0
    return dt, rc, out.getvalue(), err.getvalue()


def main() -> int:
    plan_path, result_path = sys.argv[1:3]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])

    import mirrordde.cli as cli
    import workloads
    from tracer import Tracer

    workload, calls = plan["workload"], plan["calls"]
    tracer = Tracer() if plan["trace"] else None
    first: list[tuple[str, str]] = []   # (digest, outcome) from the warm-up
    problems: list[str] = []
    passes: list[dict] = []

    for index in range(plan["passes"] + 1):
        traced = tracer is not None and index > 0 and index % 2 == 0
        if traced:
            tracer.install()
        elapsed, items, failed = 0.0, 0, 0
        for i, call in enumerate(calls):
            if traced:
                tracer.op += 1
            dt, rc, out, err = run_op(cli, call["argv"])
            elapsed += dt
            digest = hashlib.sha256(f"{rc}\0{out}\0{err}".encode())
            if call["out"] is not None and os.path.exists(call["out"]):
                with open(call["out"], "rb") as fh:
                    digest.update(fh.read())
            digest = digest.hexdigest()
            if index == 0:
                try:
                    outcome = workloads.check_call(workload, call, rc, out, err)
                except (workloads.CheckError, ArithmeticError, IndexError,
                        KeyError, OSError, TypeError, ValueError) as exc:
                    outcome = "bad"
                    problems.append(f"{workload} call {i}: "
                                    f"{type(exc).__name__}: {exc}")
                first.append((digest, outcome))
            else:
                outcome = first[i][1]
                if digest != first[i][0]:
                    outcome = "bad"
                    problems.append(f"pass {index} call {i}: output differs "
                                    f"from the first pass")
            if outcome == "ok":
                items += call["items"]
            elif outcome == "failed":
                failed += 1
            gc.collect()
        if traced:
            tracer.remove()
        if index == 0:
            gc.freeze()  # keep warm-up survivors out of later collections
        else:
            passes.append({"s": elapsed, "items": items, "failed": failed,
                           "traced": traced})

    result = {
        "passes": passes,
        "ops_per_pass": len(calls),
        "problems": problems[:20],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        traced_ops = sum(len(calls) for p in passes if p["traced"])
        result["layers"] = {k: v / traced_ops for k, v in tracer.totals.items()}
        with open(plan["trace_file"], "w", encoding="utf-8") as fh:
            json.dump({"workload": workload,
                       "fields": ["name", "start", "end", "parent", "op"],
                       "spans": tracer.spans}, fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
