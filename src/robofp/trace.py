"""Canonical packet-metadata traces and their on-disk formats.

A trace is the unit of capture: one teleoperated robot action recorded as a
sequence of (timestamp, direction, size) tuples, stripped of payload.
Timestamps are trace-relative seconds (first packet at 0.0); direction is +1
for operator-to-robot and -1 for robot-to-operator; sizes are bytes on the
wire, capped at the MTU.

File formats:

* trace CSV: header ``t,dir,size``, one packet per row, LF line endings,
  ``t`` rendered in fixed notation with six decimal digits.
* manifest CSV: header ``path,label``, one trace file per row, paths
  relative to the manifest's directory.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    BadDirection,
    EmptyDataset,
    MalformedHeader,
    MalformedRow,
    MissingFile,
    NonMonotonicTime,
    SizeOutOfRange,
    UnknownLabel,
)

MTU = 1500
TRACE_HEADER = "t,dir,size"
MANIFEST_HEADER = "path,label"


class ActionLabel(str, enum.Enum):
    PICK_AND_PLACE = "PickAndPlace"
    POUR_WATER = "PourWater"
    TURN_ON_SWITCH = "TurnOnSwitch"
    PRESS_KEY = "PressKey"

    def __str__(self) -> str:
        return self.value


class PacketRecord(NamedTuple):
    t: float
    dir: int
    size: int


def quantize_time(t: float | np.ndarray) -> np.float64 | np.ndarray:
    """Round a timestamp, or an array of them, to whole microseconds.

    The CSV writer renders six decimal digits, so timestamps must sit on the
    microsecond grid for serialization to round-trip exactly.  ``np.rint``
    rounds half to even, as ``round`` does, so each value equals
    ``round(t * 1e6) / 1e6`` (a zero result keeps the sign of ``t``).
    """
    return np.rint(np.multiply(t, 1e6)) / 1e6


@dataclass
class Trace:
    """One capture, stored columnar for cheap vectorised processing."""

    times: np.ndarray
    dirs: np.ndarray
    sizes: np.ndarray
    label: ActionLabel | None = None
    trace_id: str | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.dirs = np.asarray(self.dirs, dtype=np.int32)
        self.sizes = np.asarray(self.sizes, dtype=np.int64)
        n = len(self.times)
        if len(self.dirs) != n or len(self.sizes) != n:
            raise MalformedRow("times, dirs and sizes must have equal length")
        if n:
            if self.times[0] != 0.0:
                raise MalformedRow("trace must start at t=0 (times are trace-relative)")
            if np.any(self.times[1:] < self.times[:-1]):
                raise NonMonotonicTime("timestamps must be non-decreasing")
            if np.any(np.abs(self.dirs) != 1):
                raise BadDirection("direction must be +1 or -1")
            if self.sizes.min() < 1 or self.sizes.max() > MTU:
                raise SizeOutOfRange(f"sizes must lie in [1, {MTU}]")
            # max() propagates NaN; checked last, so earlier errors keep their kind
            if not np.isfinite(self.times.max()):
                raise MalformedRow("timestamps must be finite")
        for a in (self.times, self.dirs, self.sizes):
            a.flags.writeable = False

    @classmethod
    def from_records(
        cls,
        records: Sequence[PacketRecord] | Sequence[tuple],
        label: ActionLabel | None = None,
        trace_id: str | None = None,
    ) -> "Trace":
        if records:
            t, d, s = zip(*records)
        else:
            t, d, s = (), (), ()
        return cls(np.array(t, dtype=np.float64), np.array(d), np.array(s), label, trace_id)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def duration(self) -> float:
        """Timestamp of the last packet; 0.0 for an empty trace."""
        return float(self.times[-1]) if len(self.times) else 0.0

    @property
    def total_bytes(self) -> int:
        return int(self.sizes.sum())

    def with_label(self, label: ActionLabel, trace_id: str | None = None) -> "Trace":
        return Trace(self.times, self.dirs, self.sizes, label, trace_id or self.trace_id)


@dataclass
class Dataset:
    traces: list[Trace] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self) -> Iterator[Trace]:
        return iter(self.traces)


# ---------------------------------------------------------------------------
# trace CSV


def _decode(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise MalformedRow(f"byte {data[e.start]:#04x} is not UTF-8", line=line) from None


def parse_trace_csv(data: str | bytes, trace_id: str | None = None) -> Trace:
    """Parse a trace CSV document into a Trace.

    Every violation of the grammar raises a named error carrying the 1-based
    line number (the header is line 1).  Absolute capture times are stripped:
    the first packet's timestamp becomes 0.0 and the rest shift with it.
    Out-of-order timestamps are rejected, not sorted.
    """
    if isinstance(data, bytes):
        data = _decode(data)
    lines = data.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise MalformedHeader("empty document", line=1)
    header = lines[0].rstrip("\r")
    if header != TRACE_HEADER:
        raise MalformedHeader(f"expected header {TRACE_HEADER!r}, got {header!r}", line=1)

    times: list[float] = []
    dirs: list[int] = []
    sizes: list[int] = []
    prev = None
    for i, raw in enumerate(lines[1:], start=2):
        row = raw.rstrip("\r")
        parts = row.split(",")
        if len(parts) != 3:
            raise MalformedRow(f"expected 3 fields, got {len(parts)}", line=i)
        t_s, d_s, s_s = parts
        try:
            t = float(t_s)
        except ValueError:
            raise MalformedRow(f"bad timestamp {t_s!r}", line=i) from None
        if not math.isfinite(t):
            raise MalformedRow(f"bad timestamp {t_s!r}", line=i)
        if d_s not in ("1", "+1", "-1"):
            raise BadDirection(f"direction must be +1 or -1, got {d_s!r}", line=i)
        d = 1 if d_s in ("1", "+1") else -1
        try:
            size = int(s_s)
        except ValueError:
            raise MalformedRow(f"bad size {s_s!r}", line=i) from None
        if not 1 <= size <= MTU:
            raise SizeOutOfRange(f"size {size} outside [1, {MTU}]", line=i)
        if prev is not None and t < prev:
            raise NonMonotonicTime(f"timestamp {t} precedes {prev}", line=i)
        prev = t
        times.append(t)
        dirs.append(d)
        sizes.append(size)

    arr_t = np.array(times, dtype=np.float64)
    if len(arr_t):
        arr_t = arr_t - arr_t[0]
    return Trace(arr_t, np.array(dirs), np.array(sizes), trace_id=trace_id)


def write_trace_csv(trace: Trace) -> bytes:
    # Python scalars format faster than numpy ones, with the same spec and bytes
    columns = (trace.times.tolist(), trace.dirs.tolist(), trace.sizes.tolist())
    rows = map("{:.6f},{},{}".format, *columns)
    return "\n".join([TRACE_HEADER, *rows, ""]).encode("utf-8")


def read_trace(path: str | Path, trace_id: str | None = None) -> Trace:
    path = Path(path)
    if not path.is_file():
        raise MissingFile(str(path))
    return parse_trace_csv(path.read_bytes(), trace_id=trace_id or path.stem)


def save_trace(trace: Trace, path: str | Path) -> None:
    Path(path).write_bytes(write_trace_csv(trace))


# ---------------------------------------------------------------------------
# manifests and datasets


def load_dataset(manifest_path: str | Path) -> Dataset:
    """Load every trace referenced by a manifest.

    Labels come from the manifest, not the trace files.  A label outside the
    four known actions raises UnknownLabel; a dangling path raises
    MissingFile; a manifest with no rows raises EmptyDataset.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise MissingFile(str(manifest_path))
    base = manifest_path.parent
    lines = _decode(manifest_path.read_bytes()).split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0].rstrip("\r") != MANIFEST_HEADER:
        got = lines[0].rstrip("\r") if lines else ""
        raise MalformedHeader(f"expected header {MANIFEST_HEADER!r}, got {got!r}", line=1)

    traces: list[Trace] = []
    valid = {lab.value: lab for lab in ActionLabel}
    for i, raw in enumerate(lines[1:], start=2):
        row = raw.rstrip("\r")
        if not row:
            continue
        parts = row.rsplit(",", 1)
        if len(parts) != 2:
            raise MalformedRow(f"expected 'path,label', got {row!r}", line=i)
        rel, label_s = parts
        if label_s not in valid:
            raise UnknownLabel(f"unknown action label {label_s!r} (line {i})")
        tr = read_trace(base / rel)
        traces.append(tr.with_label(valid[label_s], trace_id=Path(rel).stem))
    if not traces:
        raise EmptyDataset(f"manifest {manifest_path} lists no traces")
    return Dataset(traces)


def save_dataset(dataset: Iterable[Trace], out_dir: str | Path) -> Path:
    """Write one CSV per trace plus a manifest; returns the manifest path.

    Each trace is written as the dataset or iterable yields it, so traces
    made on the fly are never all held at once."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [MANIFEST_HEADER]
    for i, tr in enumerate(dataset):
        name = tr.trace_id or f"trace_{i:04d}"
        rel = f"{name}.csv"
        save_trace(tr, out_dir / rel)
        rows.append(f"{rel},{tr.label.value}")
    manifest = out_dir / "manifest.csv"
    manifest.write_text("\n".join(rows) + "\n", "utf-8")
    return manifest
