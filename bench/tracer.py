"""Per-layer tracing by wrapping public functions of ``mirrordde``.

Each function is wrapped at every module attribute that holds it (for
example both ``mirrordde.solver.classify`` and ``mirrordde.fitting.classify``),
so calls are seen whichever module the caller looks the name up through.
For every wrapped ``<module>.<function>`` the tracer counts calls and the
seconds spent inside.  Calls made once or a few times per op are also kept
as spans (name, start, end, parent span) for the trace file; calls made per
point (10^5 per op) are only aggregated, so the trace stays small.
``cli.self_s`` is the time of ``cli.main`` not covered by the wrapped calls
made directly under it: argv parsing, CSV reading and parsing, formatting
and writing.
"""

from __future__ import annotations

import importlib
from time import perf_counter

MODULES = ("cli", "core", "solver", "fitting", "ranking", "numerics")

# (module, attribute path) of every wrapped function, in metric order.
TARGETS = (
    ("cli", "main"),
    ("core", "validate_series"),
    ("core", "FeatureMatrix.take_journals"),
    ("solver", "classify"),
    ("solver", "base_solution"),
    ("solver", "degenerate_solution"),
    ("solver", "oscillatory_solution"),
    ("solver", "control_solution"),
    ("solver", "initial_conditions_to_modes"),
    ("solver", "oracle_solution"),
    ("fitting", "fit_pipeline"),
    ("fitting", "fit_ab"),
    ("fitting", "fit_modes"),
    ("fitting", "modes_to_AB"),
    ("ranking", "rank_journals"),
    ("ranking", "standardize"),
    ("numerics", "lasso_fit"),
    ("numerics", "svd_values"),
    ("numerics", "solve_2x2"),
    ("numerics", "finite_diff"),
    ("numerics", "rk4_integrate"),
)

# Called once per row or oracle sample: aggregated, never kept as spans.
PER_POINT = frozenset({
    "solver.classify", "solver.base_solution", "solver.degenerate_solution",
    "solver.oscillatory_solution", "solver.control_solution",
})

# Extra counters read off a function's return value.
RESULT_COUNTS = {
    "ranking.rank_journals": ("steps", lambda result: len(result[1].steps)),
    "numerics.rk4_integrate": ("steps", len),
}


def metric_names() -> list[str]:
    """Every per-layer metric the tracer reports, in order."""
    names = []
    for module, attr in TARGETS:
        name = f"{module}.{attr}"
        names += [f"{name}.calls", f"{name}.s"]
        if name in RESULT_COUNTS:
            names.append(f"{name}.{RESULT_COUNTS[name][0]}")
        if name == "cli.main":
            names.append("cli.self_s")
    return names


class Tracer:
    """Installs wrappers on ``install`` and restores the originals on ``remove``."""

    def __init__(self) -> None:
        self.totals = {name: 0.0 for name in metric_names()}
        self.spans: list[tuple] = []  # (name, start, end, parent index, op)
        self.op = 0
        self._child_time = [0.0]       # wrapped time under each open frame
        self._open_spans = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module("mirrordde")]
        modules += [importlib.import_module(f"mirrordde.{n}") for n in MODULES]
        for module_name, attr in TARGETS:
            module = importlib.import_module(f"mirrordde.{module_name}")
            owner, _, fname = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = getattr(holder, fname, None) if holder is not None else None
            if original is None:
                continue  # a later version may drop a function: it reads 0
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            if owner:
                self._patch(holder, fname, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, obj, key, value) -> None:
        self._patches.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def remove(self) -> None:
        for obj, key, value in reversed(self._patches):
            setattr(obj, key, value)
        self._patches.clear()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        totals, child_time = self.totals, self._child_time
        calls_key, s_key = f"{name}.calls", f"{name}.s"
        extra = RESULT_COUNTS.get(name)
        extra_key = f"{name}.{extra[0]}" if extra else None
        is_main = name == "cli.main"

        if name in PER_POINT:
            def wrapper(*args, **kwargs):
                child_time.append(0.0)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    child_time.pop()
                    child_time[-1] += dt
                    totals[calls_key] += 1
                    totals[s_key] += dt
            return wrapper

        spans, open_spans = self.spans, self._open_spans

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            open_spans.append(index)
            child_time.append(0.0)
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                inner = child_time.pop()
                child_time[-1] += dt
                open_spans.pop()
                spans[index] = (name, t0, t1, open_spans[-1], self.op)
                totals[calls_key] += 1
                totals[s_key] += dt
                if is_main:
                    totals["cli.self_s"] += dt - inner
                if extra_key is not None and result is not None:
                    totals[extra_key] += extra[1](result)
        return wrapper
