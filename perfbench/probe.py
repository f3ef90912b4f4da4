"""A fixed CPU probe that says how fast the host runs at this moment.

The benchmark shares its machine with other tenants, and their load changes
how fast the same code runs by up to half again, in spells of a few seconds
to minutes (measured on a 2-vCPU VM: the same attack operation took 3.4 s
in one spell and 5.0 s in the next).  A run of a minute sees one mix of
spells, the next run another, so wall times alone spread between runs by
about as much as any bound a regression could be judged by.

``HostClock`` runs the probe before and after every timed interval and
scales the interval's wall time by ``REFERENCE_S`` over the mean of the two
probe times: the result reads as seconds on a host where the probe takes
``REFERENCE_S``.  Only intervals of at most ``MAX_SCALED_S`` are scaled.
Two probes say little about the host over a longer interval, which spans
several spells: scaled, the 25 s modulation operation spread further
between runs than its wall time did (0.21 against 0.14 as quartile spread
over median, five runs), so long intervals keep their wall time.

The probe calls nothing from robofp, and it runs in a process of its own
on the benchmark's CPU, which the benchmark waits on: run in the
benchmark's process, its speed followed that process's state (it ran 1.5
times faster after the 2.4 GB modulation operation than before it).  So a
change to robofp moves the scaled time as it moves the wall time at a
steady host speed.

How well the scaling works depends on the probe slowing down with the host
as the operations do.  The probe is therefore a small gradient-boosted tree
fit of its own, the exact greedy split search over presorted columns that
dominates the attack operation: on that VM, over 15 one-minute windows,
operations scaled by it spread about half as much as wall times did, while
a probe of plain interpreter loops tracked the host so poorly that scaled
times spread more than wall times.  Set-up times, which the probe does not
mirror, still spread less scaled than unscaled in every set of runs tried.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# The probe's median time on the 2-vCPU VM the benchmark was defined on
# (Python 3.11, numpy 2.4).  It only sets the scale, so that scaled times
# and wall times there are of about the same size.
REFERENCE_S = 0.17
MAX_SCALED_S = 10.0
ROUNDS = 7
WARMUP_FITS = 3
MAX_DEPTH = 6
N_ROWS, N_FEATURES, N_CLASSES = 180, 96, 4

_rng = np.random.default_rng(0)
_X = _rng.random((N_ROWS, N_FEATURES))
_Y = np.eye(N_CLASSES)[_rng.integers(0, N_CLASSES, N_ROWS)]
_ORDER = np.argsort(_X, axis=0, kind="stable")


def _best_split(g, h, mask, g_sum, h_sum):
    keep = mask[_ORDER]
    n = int(mask.sum())
    rows = _ORDER.T[keep.T].reshape(N_FEATURES, n).T
    gs = np.cumsum(g[rows], axis=0)[:-1]
    hs = np.cumsum(h[rows], axis=0)[:-1]
    xs = np.take_along_axis(_X, rows, axis=0)
    valid = (xs[1:] > xs[:-1]) & (hs >= 1.0) & (h_sum - hs >= 1.0)
    if not valid.any():
        return None
    gain = np.where(
        valid,
        gs * gs / (hs + 1.0) + (g_sum - gs) ** 2 / (h_sum - hs + 1.0) - g_sum**2 / (h_sum + 1.0),
        -np.inf,
    )
    f, pos = divmod(int(np.argmax(gain.T)), gain.shape[0])
    if gain[pos, f] <= 1e-12:
        return None
    return f, 0.5 * (xs[pos, f] + xs[pos + 1, f])


def _grow(g, h, mask, depth, out) -> None:
    """Fit one tree over the rows in mask, writing leaf weights into out."""
    g_sum, h_sum = g[mask].sum(), h[mask].sum()
    split = None
    if depth < MAX_DEPTH and mask.sum() >= 2:
        split = _best_split(g, h, mask, g_sum, h_sum)
    if split is None:
        out[mask] = -g_sum / (h_sum + 1.0)
        return
    f, threshold = split
    left = mask & (_X[:, f] <= threshold)
    _grow(g, h, left, depth + 1, out)
    _grow(g, h, mask & ~left, depth + 1, out)


def fit_seconds() -> float:
    """Wall seconds of one fixed boosting fit: ROUNDS rounds of N_CLASSES trees."""
    t0 = time.perf_counter()
    scores = np.zeros((N_ROWS, N_CLASSES))
    for _ in range(ROUNDS):
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        g, h = p - _Y, p * (1.0 - p)
        for k in range(N_CLASSES):
            out = np.zeros(N_ROWS)
            _grow(g[:, k], h[:, k], np.ones(N_ROWS, dtype=bool), 0, out)
            scores[:, k] += 0.3 * out
    return time.perf_counter() - t0


def serve() -> None:
    """Probe process: for each line on stdin, time one fit and print it."""
    for _ in range(WARMUP_FITS):
        fit_seconds()
    for _ in sys.stdin:
        print(fit_seconds(), flush=True)


class HostClock:
    """Scales the wall time of each interval by the host speed around it.

    Starts the probe process, which inherits this process's CPU affinity
    (pin the process to one CPU first); use it as a context manager, so that
    the probe process has ended when the ``with`` block is left.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            self.probes = [self._probe()]
        except BaseException:
            self.__exit__()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def _probe(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"host probe process exited with {self._proc.wait()}")
        return float(line)

    def scaled(self, wall_s: float) -> float:
        """Probe again; the interval just timed, in seconds at ``REFERENCE_S``.

        Call it right after each timed interval, with nothing else run in
        between, so that the interval lies between the last two probes.  An
        interval longer than ``MAX_SCALED_S`` keeps its wall time.
        """
        self.probes.append(self._probe())
        if wall_s > MAX_SCALED_S:
            return wall_s
        return wall_s * REFERENCE_S * 2 / (self.probes[-2] + self.probes[-1])


if __name__ == "__main__":
    serve()
