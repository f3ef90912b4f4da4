"""Shared test helpers, and the acceptance suite outcome printed as one
PASS/FAIL line per criterion."""

import re

from robofp.trace import Trace


def make_trace(rows, label=None, trace_id=None):
    """A Trace of (t, dir, size) rows, kept in the order given."""
    columns = tuple(zip(*rows)) or ((), (), ())
    return Trace(*columns, label=label, trace_id=trace_id)


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
