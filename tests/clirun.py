"""Run the ``torbif`` command line in-process, as the tests call it."""

from __future__ import annotations

import contextlib
import io
from typing import NamedTuple

from torbif import cli


class CliResult(NamedTuple):
    exit_code: int
    output: str  # standard output and standard error, interleaved as written


def run_cli(args: list[str]) -> CliResult:
    """``torbif ARGS``: its exit code and everything it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            cli.main(args)
        except SystemExit as exc:
            return CliResult(exc.code, out.getvalue())
    raise AssertionError("cli.main returned without an exit code")
