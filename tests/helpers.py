"""Small utilities shared by the test modules."""

from __future__ import annotations

import contextlib
import io
import subprocess
import sys

from mirrordde.cli import main


def run_cli(*argv: str) -> tuple[int, str, str]:
    """Run the CLI entry point in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_cli_bytes(*argv: str, stdin: bytes | None = None
                  ) -> tuple[int, bytes, bytes]:
    """Run the CLI in a subprocess, fed ``stdin`` through a pipe if given,
    and return raw stdout/stderr bytes."""
    proc = subprocess.run(
        [sys.executable, "-m", "mirrordde", *argv],
        input=stdin, capture_output=True, timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr
