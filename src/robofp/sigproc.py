"""Signal processing over binned traces: kernel matching and clustering.

The pipeline turns a packet trace into a regularly sampled signal (signed
byte counts per time bin), scans it with per-command-kind kernels, and
reduces the scan output to clusters and distribution statistics.

Two scan operators cover the two traffic shapes:

* ``convolve`` — normalised sliding dot product.  Suited to one-shot
  commands whose signature is a short size/direction pattern; a segment
  equal to the kernel scores exactly 1.0, so detection thresholds are
  calibrated in units of "fraction of a nominal command".
* ``sliding_correlation`` — Pearson correlation of the kernel against every
  window.  Suited to sustained bursts whose envelope shape repeats across
  executions while absolute amplitude varies.
"""

from __future__ import annotations

import bisect
import enum
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .defenses import SlotPlan
from .errors import (
    EmptyKernel,
    EmptyWindow,
    InvalidConfig,
    KernelTooShort,
    MissingKernel,
    OutOfRange,
    _json_array,
    check_field_types,
    load_json,
    read_input,
)
from .trace import Trace

_EPS = 1e-30
# median, p25 and p75 of a scan response, in CommandStats order
_RESPONSE_PERCENTILES = (50, 25, 75)

# bins one binned signal may allocate: 2**24 bins of 10 ms cover 46 hours
MAX_BINS = 2**24


class CommandKind(str, enum.Enum):
    CARTESIAN_MOVE = "CartesianMove"
    GRIPPER_POSITION = "GripperPosition"
    GRIPPER_SPEED = "GripperSpeed"

    def __str__(self) -> str:
        return self.value


ALL_KINDS = tuple(CommandKind)


@dataclass
class Signal:
    """Regularly sampled series from time 0; values[i] covers [i*bw, (i+1)*bw)."""

    values: np.ndarray
    bin_width: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if not 0 < self.bin_width < math.inf:  # NaN too
            raise InvalidConfig(f"bin_width must be positive and finite, got {self.bin_width}")

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class Kernel:
    """A command signature: the binned waveform of one command execution."""

    kind: CommandKind
    bin_width: float
    values: np.ndarray
    source_id: str = ""

    def __post_init__(self):
        check_field_types(self)
        self.kind = CommandKind(self.kind)
        self.values = np.asarray(self.values, dtype=np.float64)
        if len(self.values) == 0:
            raise EmptyKernel(f"kernel for {self.kind} has no bins")
        if not np.isfinite(self.values).all():
            raise InvalidConfig(f"kernel for {self.kind} has a non-finite value")
        with np.errstate(over="ignore"):  # finite values can square past float range
            self.norm = float(np.sqrt(np.sum(self.values**2)))
        if not math.isfinite(self.norm):
            raise InvalidConfig(f"kernel for {self.kind} has an L2 norm past float range")
        if self.norm <= 0.0:
            raise EmptyKernel(f"kernel for {self.kind} has zero L2 norm")
        if self.bin_width <= 0:
            raise InvalidConfig(f"kernel bin_width {self.bin_width} must be positive")


@dataclass
class Cluster:
    start: float
    end: float
    peak_value: float

    @property
    def length(self) -> float:
        return self.end - self.start


# ---------------------------------------------------------------------------
# binning


def bin_weights(
    times: np.ndarray, weights: np.ndarray, span: float, bin_width: float
) -> np.ndarray:
    """Sum weights into ceil(span / bin_width) bins from time 0, at least one.

    Packets at or past the last bin's end land in the last bin.
    """
    if not 0 < bin_width < math.inf:  # NaN too
        raise InvalidConfig(f"bin_width must be positive and finite, got {bin_width}")
    # compared before ceil, which an inf quotient would overflow; MAX_BINS is
    # an integer, so the quotient passes exactly when its ceil does
    quotient = span / bin_width - 1e-9
    if quotient > MAX_BINS:
        raise OutOfRange(f"{span} s at bin width {bin_width} needs more than {MAX_BINS} bins")
    n_bins = max(1, math.ceil(quotient))
    idx = np.minimum((times / bin_width).astype(np.int64), n_bins - 1)
    return np.bincount(idx, weights=weights, minlength=n_bins)


def bin_trace(capture: Trace | SlotPlan, bin_width: float = 0.01) -> Signal:
    """Accumulate a capture's signed packet bytes (its ``signed_bytes()``)
    into fixed-width time bins.

    Opposing directions cancel within a bin.  The signal starts at time 0
    and spans ceil(duration / bin_width) bins (at least one); a packet
    falling exactly on the end boundary lands in the last bin.  A modulated
    capture's ``SlotPlan`` bins to its wire packets' signal, bit for bit.
    """
    times, weights = capture.signed_bytes()
    return Signal(bin_weights(times, weights, capture.duration, bin_width), bin_width)


# ---------------------------------------------------------------------------
# kernel scans


def _full_scan(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    # Sliding dot product with the kernel read forward: at output position p
    # the kernel's last element sits on x[p].  Equivalent to convolution with
    # the time-reversed kernel, which is what makes a segment equal to the
    # kernel score ||h||^2 at its alignment.
    return np.convolve(x, h[::-1], mode="full")


def convolve(signal: Signal, kernel: Kernel) -> Signal:
    """Scan the signal with the kernel, normalised by the kernel's energy.

    Output has the same length as the input (centred alignment).  Both
    operands are divided by the kernel's L2 norm, so a signal segment that
    matches the kernel exactly peaks at 1.0 and proportionally scaled
    segments peak at their scale factor.
    """
    x = signal.values
    h = kernel.values
    n, k = len(x), len(h)
    if n == 0:  # np.convolve refuses an empty signal; its response is empty
        return Signal(x, signal.bin_width)
    full = _full_scan(x, h) / (kernel.norm**2)
    lo = (k - 1) // 2
    out = full[lo : lo + n]
    return Signal(out, signal.bin_width)


def _window_sums(y: np.ndarray, k: int) -> np.ndarray:
    # sums of every k-wide window as differences of prefix sums
    c = np.zeros(len(y) + 1)
    np.cumsum(y, out=c[1:])
    return c[k:] - c[:-k]


# values past about 1.3e154 square past float range: those windows score
# inf / inf or cov / inf, NaN or 0.0, without a warning
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def sliding_correlation(signal: Signal, kernel: Kernel) -> Signal:
    """Pearson correlation between the kernel and every signal window.

    Output index m holds the coefficient for the window starting at bin m
    (stride one bin), so output length is len(signal) - len(kernel) + 1.
    Signals shorter than the kernel are zero-padded on the right to yield a
    single window.  Windows (or kernels) with zero variance score 0; all
    values lie in [-1, 1], and none is -0.0.

    When the signal is integer-valued, as binned packet bytes are, and its
    squares sum below 2**53, each partial sum in any order is an exact
    integer, so the window sums come from prefix sums and equal
    ``np.convolve(x, ones(k))``'s bit for bit; any other signal takes those
    dot products.
    """
    h = kernel.values
    k = len(h)
    if k < 2:
        raise KernelTooShort("correlation kernels need at least 2 bins")
    x = signal.values
    if len(x) < k:
        x = np.concatenate([x, np.zeros(k - len(x))])

    sq = x * x
    if np.array_equal(x, np.rint(x)) and np.add.reduce(sq) < 2**53:
        win_sum, win_sq = _window_sums(x, k), _window_sums(sq, k)
    else:
        ones = np.ones(k)
        win_sum = np.convolve(x, ones, mode="valid")
        win_sq = np.convolve(sq, ones, mode="valid")
    cross = np.convolve(x, h[::-1], mode="valid")

    h_mean = h.mean()
    h_var = float(np.mean(h * h) - h_mean**2)
    w_mean = win_sum / k
    w_var = np.maximum(win_sq / k - w_mean**2, 0.0)

    cov = cross / k - w_mean * h_mean
    denom = np.sqrt(w_var * h_var)
    r = np.where(denom > _EPS, cov / np.where(denom > _EPS, denom, 1.0), 0.0)
    r = np.clip(r, -1.0, 1.0)
    r += 0.0  # -0.0, as from a negative cov over an infinite denom, reads +0.0
    return Signal(r, signal.bin_width)


# ---------------------------------------------------------------------------
# cluster detection and statistics


def detect_clusters(
    signal: Signal,
    threshold: float,
    merge_gap: float = 0.2,
    min_duration: float = 0.0,
) -> list[Cluster]:
    """Find the clusters of bins whose value is strictly above the threshold.

    Three rules, in order: a bin belongs to a run when its value exceeds
    ``threshold`` (strictly); a run joins the cluster before it when the gap
    between them, ``(start - previous stop) * bin_width``, is under
    ``merge_gap``; a cluster shorter than ``min_duration`` is dropped.
    Cluster times are in seconds from the signal's start, ``end`` exclusive.
    """
    v = signal.values
    bw = signal.bin_width
    # the False-padded mask changes at run starts and exclusive stops, alternating
    edges = np.flatnonzero(np.diff(np.concatenate(([False], v > threshold, [False]))))
    if not edges.size:
        return []
    starts, stops = edges[::2], edges[1::2]
    # both tests keep the `<` form, so a NaN merge_gap merges nothing and a
    # NaN min_duration drops nothing
    apart = np.ones(len(starts) + 1, dtype=bool)
    apart[1:-1] = ~((starts[1:] - stops[:-1]) * bw < merge_gap)
    # a cluster starts at each run apart from the one before, ends at each
    # run apart from the one after
    starts, stops = starts[apart[:-1]].tolist(), stops[apart[1:]].tolist()
    return [
        Cluster(s * bw, e * bw, float(v[s:e].max()))
        for s, e in zip(starts, stops)
        if not (e - s) * bw < min_duration - 1e-9
    ]


class CommandStats(NamedTuple):
    """A scan output's distribution and clusters: one kind's command feature block, in order."""

    mean: float
    std: float
    median: float
    p25: float
    p75: float
    max: float
    min: float
    skewness: float
    kurtosis: float
    cluster_count: int
    total_cluster_length: float
    avg_cluster_length: float
    total_time_span: float
    avg_time_gap: float


# a square or product past float range is inf, and a mean over infs of both
# signs is NaN; compute_features maps either to 0.0, as it does the NaNs below
@np.errstate(over="ignore", invalid="ignore")
def _moments(v: np.ndarray) -> tuple[float, float, float, float]:
    # population moments of v; zero-variance input maps skewness/kurtosis to
    # 0.  Each mean is np.add.reduce(x) / n, what np.mean computes.  The 3rd
    # and 4th powers are products, not np.power: IEEE products round alike
    # under every SIMD dispatch numpy picks, and power does not.
    n = len(v)
    mu = float(np.add.reduce(v) / n)
    d = v - mu
    d2 = d * d
    m2 = float(np.add.reduce(d2) / n)
    if m2 <= _EPS:
        return mu, 0.0, 0.0, 0.0
    m3 = float(np.add.reduce(d2 * d) / n)
    m4 = float(np.add.reduce(d2 * d2) / n)
    sd = math.sqrt(m2)
    try:
        return mu, sd, m3 / m2**1.5, m4 / m2**2 - 3.0
    except OverflowError:  # m2 past about 1.3e154: its powers leave float range
        return mu, sd, math.nan, math.nan


def linear_percentiles(
    values: np.ndarray, percentiles: Sequence[float], ends: np.ndarray | None = None
) -> list[float]:
    """np.percentile(x, percentiles), for x sorted as ``values``, or for the
    x with sorted distinct ``values`` and cumulative counts ``ends``.

    numpy's linear rule takes the two order statistics around the virtual
    index (n - 1) (p / 100) and interpolates them as its _lerp does; the
    same double operations on Python floats give the same float.

    The order statistics of a sort equal those of np.percentile's partition
    except where zeros of both signs tie at an index, and no caller holds
    -0.0: bins are sums that start from +0.0, as are np.convolve's dot
    products; a correlation adds +0.0 to each coefficient; sizes are
    integers; inter-arrival times are differences of non-decreasing times,
    +0.0 where two times are equal, and ``Trace`` refuses -0.0 times.  x
    must hold no NaN.
    """
    last = (len(values) if ends is None else int(ends[-1])) - 1
    if ends is not None:
        ends = ends.tolist()
    out = []
    for p in percentiles:
        index = last * (p / 100)
        below = math.floor(index)
        gamma = index - below
        lo, hi = min(below, last), min(below + 1, last)
        if ends is not None:
            lo, hi = bisect.bisect_right(ends, lo), bisect.bisect_right(ends, hi)
        a, b = values.item(lo), values.item(hi)
        diff = b - a
        out.append(b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma)
    return out


def cluster_statistics(signal: Signal, clusters: list[Cluster]) -> CommandStats:
    """Reduce a scan output and its clusters to one kind's feature block, ``CommandStats``.

    Moment statistics run over the full scan output, not only the clusters.
    ``avg_time_gap`` is the mean start-to-start spacing of consecutive
    clusters, 0 when fewer than two clusters exist; ``total_time_span`` is
    last cluster end minus first cluster start.
    """
    v = signal.values
    if len(v) == 0:
        mu = sd = sk = ku = med = p25 = p75 = vmax = vmin = 0.0
    else:
        ordered = np.sort(v)
        mu, sd, sk, ku = _moments(v)
        med, p25, p75 = linear_percentiles(ordered, _RESPONSE_PERCENTILES)
        vmax = float(v.max())
        vmin = float(v.min())

    count = len(clusters)
    if count == 0:
        total_len = avg_len = span = gap = 0.0
    else:
        first, last = clusters[0], clusters[-1]
        total_len = float(sum(c.length for c in clusters))
        avg_len = total_len / count
        span = last.end - first.start
        gap = (last.start - first.start) / (count - 1) if count > 1 else 0.0

    return CommandStats(
        mu, sd, med, p25, p75, vmax, vmin, sk, ku, count, total_len, avg_len, span, gap
    )


# ---------------------------------------------------------------------------
# kernel extraction and kernel banks


def extract_kernel(
    trace: Trace,
    kind: CommandKind,
    start: float,
    end: float,
    bin_width: float = 0.01,
    source_id: str = "",
) -> Kernel:
    """Bin the [start, end) window of a trace into a kernel.

    The window must contain at least one packet; kernels are built from the
    signed bin values so the direction pattern is part of the signature.
    """
    if not (0.0 <= start < end):
        raise EmptyWindow(f"bad window [{start}, {end})")
    sel = (trace.times >= start) & (trace.times < end)
    if not sel.any():
        raise EmptyWindow(f"no packets in [{start}, {end})")
    times, weights = trace.signed_bytes()
    values = bin_weights(times[sel] - start, weights[sel], end - start, bin_width)
    return Kernel(kind=kind, bin_width=bin_width, values=values, source_id=source_id)


class KernelBank:
    """Ordered collection of kernels; the first kernel per kind is the scan default."""

    def __init__(self, kernels: Sequence[Kernel]):
        self.kernels = list(kernels)

    def __len__(self) -> int:
        return len(self.kernels)

    def __iter__(self):
        return iter(self.kernels)

    def kernel_for(self, kind: CommandKind) -> Kernel:
        for k in self.kernels:
            if k.kind == kind:
                return k
        raise MissingKernel(f"kernel bank has no kernel for command kind {kind!r}")

    def fingerprint(self) -> str:
        payload = json.dumps(self._as_jsonable(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    def _as_jsonable(self) -> list[dict]:
        return [
            {
                "kind": k.kind.value,
                "bin_width": k.bin_width,
                "values": [float(x) for x in k.values],
                "source_id": k.source_id,
            }
            for k in self.kernels
        ]

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self._as_jsonable(), indent=1) + "\n", "utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "KernelBank":
        raw = load_json(read_input(path), f"kernel bank {path}")
        if not isinstance(raw, list):
            raise InvalidConfig("kernel bank must be a JSON array")
        kernels = []
        for entry in raw:
            try:
                values = _json_array("values", entry["values"], "numbers")
                kernels.append(Kernel(**{**entry, "values": values}))
            except (KeyError, TypeError, ValueError, OverflowError) as e:
                raise InvalidConfig(f"bad kernel entry in {path}: {e}") from None
        return cls(kernels)
