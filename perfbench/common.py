"""Helpers shared by the workloads; none of them calls into bikerelay's decision code."""

from __future__ import annotations

import contextlib
import io

from bikerelay import cli


def run_cli(argv):
    """cli.run in-process with stdout captured; returns (exit code, output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


def porcelain(text):
    """`key: value` lines as a dict."""
    return dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)


def line_sums(rows):
    """(row sums, column sums) of a 0/1 matrix given as a sequence of rows."""
    return tuple(sum(r) for r in rows), tuple(sum(c) for c in zip(*rows))
