"""Lean startup under one import rule.

Every ``mirrordde`` module is imported eagerly, and only numpy, ``csv``
and ``json`` are imported inside the functions that use them.
``simulate``, ``verify`` and ``eta`` run on ``math`` alone, so importing the
package or the CLI (``from mirrordde import *`` too), and running those
subcommands, must not import numpy; ``fit`` and ``rank`` load it on demand.
Nor may they import the standard modules that only some paths need or that
cost the most to import: ``csv`` and ``json`` (read and written only by
``fit`` and ``rank``), and ``dataclasses`` with the ``inspect`` it pulls in
(the records derive from ``core._Record`` instead).  Each case runs in a
fresh interpreter, because a module stays in ``sys.modules`` once any test
imports it, and is compared with what a bare interpreter already holds,
because ``site`` may preload some modules.  An AST scan checks the rule
itself on every module.
"""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import mirrordde
from mirrordde import fitting, ranking

SRC = str(pathlib.Path(mirrordde.__file__).resolve().parent.parent)

#: Modules that no import of the package or the CLI, and no math-only
#: subcommand, may add.
HEAVY = {"numpy", "dataclasses", "inspect", "csv", "json"}

#: Prints every loaded module on one line.
PRINT_MODULES = "import sys\nprint(*sorted(sys.modules))"

#: Runs ``cli.main`` on argv with stdout discarded, then prints the exit code
#: and, on a second line, every loaded module.
RUN_MAIN = """
import contextlib, io, sys
import mirrordde.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(code)
""" + PRINT_MODULES


def fresh_python(code: str, *argv: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.fixture(scope="module")
def preloaded() -> set[str]:
    """The modules a bare ``python -c`` already holds."""
    return set(fresh_python(PRINT_MODULES).split())


def run_main(*argv: str) -> tuple[int, set[str]]:
    """Exit code of the CLI on argv, and the modules loaded by then."""
    code, modules = fresh_python(RUN_MAIN, *argv).split("\n")
    return int(code), set(modules.split())


@pytest.mark.parametrize("statement", ["import mirrordde",
                                       "import mirrordde.cli",
                                       "from mirrordde import *"])
def test_import_does_not_load_numpy(statement, preloaded):
    loaded = set(fresh_python(f"{statement}\n{PRINT_MODULES}").split())
    assert "mirrordde" in loaded
    assert (loaded - preloaded) & HEAVY == set()


@pytest.mark.parametrize("argv", [
    ("--help",),
    ("simulate", "--a", "0.3", "--b", "0.9", "--p0", "1",
     "--theta-lin", "0.1,0.2", "--eta-exp", "0.5,0.2"),
    ("simulate", "--a", "0.9", "--b", "0.3", "--p0", "1",
     "--allow-oscillatory"),
    ("simulate", "--a", "0.3", "--b", "0.9", "--p0", "1", "--out", "{out}"),
    ("verify", "--a", "0.3", "--b", "0.5", "--p0", "1"),
    ("eta", "--art", "0.5", "--alpha", "0.2", "--a", "0.3", "--b", "0.8"),
], ids=["help", "simulate-forced", "simulate-oscillatory", "simulate-out",
        "verify", "eta"])
def test_math_only_subcommands_do_not_load_numpy(tmp_path, argv, preloaded):
    out_path = tmp_path / "series.csv"
    argv = [arg.format(out=out_path) for arg in argv]
    code, loaded = run_main(*argv)
    assert code == 0
    assert (loaded - preloaded) & HEAVY == set()
    if "--out" in argv:
        assert out_path.read_text().startswith("t,p\n")


def test_fit_loads_numpy(tmp_path, preloaded):
    series = tmp_path / "series.csv"
    code, loaded = run_main("simulate", "--a", "0.2", "--b", "0.6",
                            "--p0", "1", "--steps", "40",
                            "--out", str(series))
    assert code == 0 and "numpy" not in loaded
    code, loaded = run_main("fit", "--input", str(series))
    assert code == 0
    assert {"numpy", "json"} <= loaded - preloaded


def test_import_builds_no_sweep_kernel(data_dir):
    """Lasso sweep kernels are generated on first use, not at import: a
    ``rank`` on k + 1 features builds the one kernel for k predictors."""
    n_features = len((data_dir / "rank_m8.csv").read_text()
                     .split("\n")[0].split(",")) - 1
    out = fresh_python(
        "import contextlib, io, sys\n"
        "import mirrordde.cli as cli\n"
        "from mirrordde import numerics\n"
        "kernels = numerics._sweep_kernel.cache_info\n"
        "print(kernels().currsize)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['rank', '--input', sys.argv[1]]) == 0\n"
        "print(kernels().currsize)\n"
        "kernel = numerics._sweep_kernel(int(sys.argv[2]))\n"
        "print(kernel is not numerics._nonzero_sweeps, kernels().currsize)",
        str(data_dir / "rank_m8.csv"), str(n_features - 1))
    assert out.split("\n") == ["0", "1", "True 1"]


def test_import_builds_no_parser():
    """The CLI's argument parser is built on the first ``main`` call, not at
    import."""
    out = fresh_python("import mirrordde.cli as cli\n"
                       "print(cli.build_parser.cache_info().currsize)")
    assert out == "0"


# ---------------------------------------------------------------------------
# the package namespace
# ---------------------------------------------------------------------------

def test_every_public_name_resolves():
    for name in mirrordde.__all__:
        assert getattr(mirrordde, name) is not None, name


def test_dir_lists_every_public_name_after_import():
    names = fresh_python("import mirrordde\nprint(*dir(mirrordde))").split()
    assert set(mirrordde.__all__) - set(names) == set()


def test_names_are_the_submodule_objects():
    assert mirrordde.fit_pipeline is fitting.fit_pipeline
    assert mirrordde.FitReport is fitting.FitReport
    assert mirrordde.rank_journals is ranking.rank_journals
    assert mirrordde.EliminationTrace is ranking.EliminationTrace


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        mirrordde.no_such_name
    with pytest.raises(ImportError):
        from mirrordde import no_such_name  # noqa: F401


def _load_time_imports(node: ast.AST):
    """The import statements that run when the module is loaded: all of
    them but those in function bodies and under ``if TYPE_CHECKING:``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                  or (isinstance(child, ast.If)
                      and ast.unparse(child.test) == "TYPE_CHECKING")):
            yield from _load_time_imports(child)


@pytest.mark.parametrize("path", sorted(pathlib.Path(mirrordde.__file__)
                                        .parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_numpy_csv_and_json_load_only_inside_functions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    loaded = set()
    for node in _load_time_imports(tree):
        if isinstance(node, ast.Import):
            loaded |= {alias.name.split(".")[0] for alias in node.names}
        elif node.level == 0:
            loaded.add(node.module.split(".")[0])
    assert loaded & {"numpy", "csv", "json"} == set()
