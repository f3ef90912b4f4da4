"""Shared test helpers, and the acceptance suite outcome printed as one
PASS/FAIL line per criterion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import robofp
from robofp.trace import Trace


def make_trace(rows, label=None, trace_id=None):
    """A Trace of (t, dir, size) rows, kept in the order given."""
    columns = tuple(zip(*rows)) or ((), (), ())
    return Trace(*columns, label=label, trace_id=trace_id)


def run_python(code, *args):
    """Standard output of ``python -c code args`` in a fresh interpreter that
    imports this robofp; raises if it exits non-zero."""
    src = str(Path(robofp.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, check=True
    )
    return done.stdout


_CRITERION = re.compile(r"test_acceptance\.py::test_c(\d+)_")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows = {}
    for bucket, ok in (("passed", True), ("failed", False), ("error", False)):
        for rep in terminalreporter.stats.get(bucket, []):
            m = _CRITERION.search(getattr(rep, "nodeid", ""))
            if not m:
                continue
            n = int(m.group(1))
            detail = ""
            if ok:
                out = getattr(rep, "capstdout", "").strip().splitlines()
                if out:
                    detail = "  " + out[-1]
            if n not in rows or not ok:
                rows[n] = (ok, rep.nodeid.split("::")[-1], detail)
    if not rows:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for n in sorted(rows):
        ok, name, detail = rows[n]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {n:2d}: {verdict}  {name}{detail}")
