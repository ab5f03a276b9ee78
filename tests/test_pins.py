"""Every entry of ``pins.PINS`` gives exactly its exit code, stdout and
stderr, and every golden file has a reader.

CI runs this module a second time against the installed package, from
outside the source tree.
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import shlex
import sys
import warnings

import pytest

from mirrordde import cli

from pins import DATA, OTHER_READERS, PINS

HELP = pytest.mark.skipif(sys.version_info >= (3, 13),
                          reason="argparse from 3.13 wraps the simulate usage "
                                 "block differently")


def run_main(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` in process: its exit code and the bytes that it
    writes to stdout and stderr, as text.  A warning fails the call, as its
    line would change a process's stderr."""
    out, err = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="",
                                 write_through=True) for _ in range(2))
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    return code, out.buffer.getvalue().decode(), err.buffer.getvalue().decode()


def text(expected: str | pathlib.Path, tmp: pathlib.Path) -> str:
    if isinstance(expected, pathlib.Path):
        return expected.read_bytes().decode()
    return expected.replace("{dir}", str(tmp))


def transcript(code: int, out: str, err: str) -> str:
    """One text for a call, so that a failure's diff names the moved lines."""
    return f"exit {code}\n--- stdout\n{out}--- stderr\n{err}"


@pytest.mark.parametrize("pin", [
    pytest.param(pin, id=pin.id,
                 marks=HELP if pin.argv.endswith("--help") else ())
    for pin in PINS])
def test_pin(pin, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for name, content in (pin.files or {}).items():
        (tmp_path / name).write_bytes(content.encode())
    argv = [arg.replace("{data}", str(DATA)).replace("{dir}", str(tmp_path))
            for arg in shlex.split(pin.argv)]
    assert transcript(*run_main(argv)) == transcript(
        pin.code, text(pin.out, tmp_path), text(pin.err, tmp_path))


def test_every_golden_has_a_reader():
    """Each ``tests/data/golden_*`` file is an entry's expected text or has
    a reader listed in ``OTHER_READERS``, and each name there exists."""
    goldens = {path.name for path in DATA.glob("golden_*")}
    pinned = {value.name for pin in PINS for value in (pin.out, pin.err)
              if isinstance(value, pathlib.Path)}
    assert goldens - pinned - OTHER_READERS.keys() == set()
    assert OTHER_READERS.keys() - goldens == set()
