"""Shared pytest configuration.

Besides the usual fixtures this adds a terminal-summary section that reports
each acceptance criterion from ``test_acceptance.py`` with a single PASS/FAIL
line, so the overall gate can be read at a glance.

With the ``CI`` environment variable set, hypothesis runs derandomized: every
property draws the same examples on every run, so a CI failure reproduces
locally with ``CI=true``.  Without it, local runs stay random.
"""

from __future__ import annotations

import os
import pathlib

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

DATA_DIR = pathlib.Path(__file__).parent / "data"


@pytest.fixture
def data_dir() -> pathlib.Path:
    return DATA_DIR


def _criterion_label(test_name: str) -> str:
    label = test_name.removeprefix("test_")
    head, _, rest = label.partition("_")
    return f"{head.upper()} {rest.replace('_', ' ')}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    verdicts: dict[str, str] = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            if status == "passed":
                verdicts.setdefault(name, "PASS")
            else:
                verdicts[name] = "FAIL"
    if not verdicts:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name in sorted(verdicts):
        terminalreporter.write_line(f"{_criterion_label(name)}: {verdicts[name]}")
