"""Shared test helpers, and the acceptance suite outcome printed as one
PASS/FAIL line per criterion."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import robofp
from robofp.classifier import GBDTClassifier
from robofp.harness import ExperimentConfig, modulation_sweep
from robofp.trace import Trace


def make_trace(rows, label=None, trace_id=None):
    """A Trace of (t, dir, size) rows, kept in the order given."""
    columns = tuple(zip(*rows)) or ((), (), ())
    return Trace(*columns, label=label, trace_id=trace_id)


# independent oracles: plain double loops over the scan operators' definitions


def oracle_scan_same(x, h):
    """Normalised sliding dot product, full alignment grid, centre slice."""
    n, k = len(x), len(h)
    norm2 = sum(float(v) * float(v) for v in h)
    full = []
    for p in range(n + k - 1):
        acc = 0.0
        for i in range(k):
            j = p - (k - 1) + i
            if 0 <= j < n:
                acc += float(x[j]) * float(h[i])
        full.append(acc / norm2)
    lo = (k - 1) // 2
    return full[lo : lo + n]


def oracle_sliding_pearson(x, h):
    k = len(h)
    xs = [float(v) for v in x] + [0.0] * max(0, k - len(x))
    out = []
    mh = sum(h) / k
    vh = sum((v - mh) ** 2 for v in h) / k
    for m in range(len(xs) - k + 1):
        w = xs[m : m + k]
        mw = sum(w) / k
        vw = sum((v - mw) ** 2 for v in w) / k
        cov = sum((a - mw) * (b - mh) for a, b in zip(w, h)) / k
        if vw <= 0 or vh <= 0:
            out.append(0.0)
        else:
            out.append(max(-1.0, min(1.0, cov / math.sqrt(vw * vh))))
    return out


def run_python(code, *args, **env):
    """Standard output of ``python -c code args`` in a fresh interpreter that
    imports this robofp, with ``env`` added to its environment; raises if it
    exits non-zero."""
    src = str(Path(robofp.__file__).parents[1])
    pythonpath = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, **env, PYTHONPATH=pythonpath)
    done = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, check=True
    )
    return done.stdout


_CLI_PEAK = (
    "import re, sys\n"
    "from pathlib import Path\n"
    "from robofp.cli import cli\n"
    "assert cli(sys.argv[1:]) == 0\n"
    "status = Path('/proc/self/status').read_text()\n"
    "print(re.search(r'VmHWM:\\s*(\\d+) kB', status).group(1))\n"
)


def cli_peak_kb(*args):
    """Standard output and peak resident set (kB) of ``robofp args`` run in a
    fresh interpreter.  The peak is the child's VmHWM, which starts afresh at
    exec; ru_maxrss would keep this process's peak from before the fork."""
    out, _, peak = run_python(_CLI_PEAK, *args).rstrip("\n").rpartition("\n")
    return out, int(peak)


def count_fits(patch):
    """A list that gets one entry per GBDTClassifier.fit from now on."""
    fits = []
    fit = GBDTClassifier.fit

    def spy(self, X, y):
        fits.append(X.shape)
        return fit(self, X, y)

    patch.setattr(GBDTClassifier, "fit", spy)
    return fits


@pytest.fixture(scope="session")
def c07_sweep():
    """The rows of c07's seed-42 modulation sweep (s_p = 100..1000 B at
    t_i = 0.1 ms) and the number of GBDT fits it made, computed on first use
    and shared by every test that asks for it."""
    with pytest.MonkeyPatch.context() as patch:
        fits = count_fits(patch)
        rows = modulation_sweep(ExperimentConfig(), tuple(range(100, 1001, 100)), (0.0001,))
    return rows, len(fits)


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
