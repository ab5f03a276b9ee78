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


#: Runs ``argv[1:]`` with this stdout, then writes its exit code and the
#: ``ru_maxrss`` that ``os.wait4`` reports to stderr.
_PEAK_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, file=sys.stderr)
"""


def cli_peak_rss_mb(*argv: str) -> tuple[int, bytes, float]:
    """Run the CLI in a fresh process; return its exit code, stdout and
    peak resident set in MB (POSIX only: it needs ``os.wait4``).

    A small launcher process starts the CLI, because on Linux a process's
    ``ru_maxrss`` starts from the peak of the process it was forked from,
    which for the test process itself is larger than the CLI's.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_LAUNCHER,
         sys.executable, "-m", "mirrordde", *argv],
        capture_output=True, timeout=300, check=True)
    code, peak = proc.stderr.split(b"\n")[-2].split()
    # ru_maxrss counts KB on Linux and bytes on macOS
    unit = 2**20 if sys.platform == "darwin" else 2**10
    return int(code), proc.stdout, int(peak) / unit
