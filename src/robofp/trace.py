"""Canonical packet-metadata traces and their on-disk formats.

A trace is the unit of capture: one teleoperated robot action recorded as a
sequence of (timestamp, direction, size) tuples, stripped of payload.
Timestamps are trace-relative seconds (first packet at 0.0); direction is +1
for operator-to-robot and -1 for robot-to-operator; sizes are bytes on the
wire, capped at the MTU.

File formats:

* trace CSV: header ``t,dir,size``, one packet per row, LF line endings,
  each row as ``"{:.6f},{},{}".format`` renders it, so ``t`` is in fixed
  notation with six decimal digits.
* manifest CSV: header ``path,label``, one trace file per row, paths
  relative to the manifest's directory.  ``ManifestCaptures`` parses the
  rows and reads each trace file when an iteration reaches it;
  ``load_dataset`` reads them all at once.

The writer formats 2**16 rows at a time in one uint8 matrix, so its
temporaries do not grow with the trace, and ``save_trace`` writes each chunk
as it is made.  A time whose product ``t * 1e6`` is below 2**50 and within
0.25 of an integer N is written as N's digits with a point before the last
six, which is what ``"{:.6f}"`` prints for it (``_csv_rows`` says why).  A
chunk holding any other time (from about 1.13e9 s, or off the microsecond
grid) is formatted whole in Python; every time the pipeline makes is on the
grid, so generated and defended captures never are.  Modulated captures
(1,762,038 rows for one seed-42 capture of each action at t_i = 0.1 ms)
write at about 0.1 us a row, against 1.2 us formatted in Python.  A modulated
capture's ``SlotPlan`` is written the same way: each chunk's rows are built
from the plan (``SlotPlan.columns``), never the whole wire trace.

The reader takes the writer's own form (times of at most nine integer
digits, directions ``1``/``-1``, a final LF) in one array pass: one regex
search for a row that breaks that form, one integer parse of every field,
times as microseconds / 1e6.  Any other form the grammar accepts (CRLF,
``+1``, fewer decimals, exponents, no final LF, ``str`` input) and any
refused document go through the line parser, which names the error and its
line.  The 200 seed-42 captures parse in about 0.037 s instead of 0.157 s
(medians of 9 processes, 2-vCPU Xeon, Python 3.11, numpy 2.4).
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from .errors import (
    BadDirection,
    DuplicateTrace,
    EmptyDataset,
    MalformedHeader,
    MalformedRow,
    NonMonotonicTime,
    SizeOutOfRange,
    UnknownLabel,
    read_input,
)

if TYPE_CHECKING:
    from .synthgen import GeneratedCaptures

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
            # -0.0 passes both tests above, but a sort may order it either
            # side of +0.0, so a zero inter-arrival time could change sign
            if np.signbit(self.times).any():
                raise MalformedRow("timestamps must not be -0.0")
        for a in (self.times, self.dirs, self.sizes):
            a.flags.writeable = False

    def __len__(self) -> int:
        return len(self.times)

    @property
    def duration(self) -> float:
        """Timestamp of the last packet; 0.0 for an empty trace."""
        return float(self.times[-1]) if len(self.times) else 0.0

    @property
    def total_bytes(self) -> int:
        return int(self.sizes.sum())

    def columns(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Times, directions and sizes of packets ``start`` up to ``stop``."""
        return self.times[start:stop], self.dirs[start:stop], self.sizes[start:stop]


@dataclass
class Dataset:
    """Traces in order: a list, a manifest's ``ManifestCaptures``, which
    reads them on demand, or ``synthgen.GeneratedCaptures``, which makes
    them on demand.  Each can be counted and iterated again."""

    traces: list[Trace] | ManifestCaptures | GeneratedCaptures = field(default_factory=list)

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


# the writer's own form: its header line, then every LF but the last starts a
# row of up to nine integer and exactly six decimal digits of time, so every
# time is N / 10**6 for an integer N below 10**15 < 2**53.  The search finds
# the first LF that breaks the form and keeps no state per row; a fullmatch of
# the repeated row keeps a backtracking point per row (about 300 MB for a
# million rows) unless its quantifiers are possessive, which needs Python 3.11.
_HEAD = TRACE_HEADER.encode() + b"\n"
_OFF_FORM = re.compile(rb"\n(?![0-9]{1,9}\.[0-9]{6},-?1,[0-9]{1,4}\n|\Z)")


def parse_trace_csv(
    data: str | bytes, trace_id: str | None = None, label: ActionLabel | None = None
) -> Trace:
    """Parse a trace CSV document into a Trace.

    Every violation of the grammar raises a named error carrying the 1-based
    line number (the header is line 1).  Absolute capture times are stripped:
    the first packet's timestamp becomes 0.0 and the rest shift with it.
    Out-of-order timestamps are rejected, not sorted.
    """
    columns = _parse_canonical(data) if isinstance(data, bytes) else None
    times, dirs, sizes = columns or _parse_lines(data)
    if len(times):
        times -= times[0]  # both parsers return a fresh array
        # the line parser's order check lets -0.0 follow +0.0; Trace would
        # refuse it too, but without the line
        negative_zero = np.signbit(times)
        if negative_zero.any():
            raise MalformedRow("timestamp -0.0 after +0.0", line=int(negative_zero.argmax()) + 2)
    return Trace(times, dirs, sizes, label, trace_id)


def _parse_canonical(data: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The columns of a document in the writer's own form, read in one array
    pass; None for any other document, or for one whose sizes or times
    _parse_lines refuses, so that it names the error and its line.

    ``float`` of a time field and the IEEE quotient N / 1e6 both round the
    same rational to the nearest double, so the times are equal bit for bit.
    """
    if not data.startswith(_HEAD) or _OFF_FORM.search(data, len(_HEAD) - 1):
        return None
    n = data.count(b"\n") - 1
    # without the dots and with the rows joined by commas every field is an
    # integer.  Each buffer is allocated at its final size: translate with
    # deleted bytes and fromstring without a count shrink a larger one, and
    # the holes left that way raised peak RSS by about 0.3 MB on 200 captures
    body = data[len(_HEAD) : -1].replace(b".", b"").replace(b"\n", b",")
    rows = np.fromstring(body, dtype=np.int64, count=3 * n, sep=",").reshape(n, 3)
    # each column is a copy, so no trace keeps the whole buffer alive
    micros, dirs, sizes = rows[:, 0], rows[:, 1].astype(np.int32), rows[:, 2].copy()
    if n and (
        sizes.min() < 1 or sizes.max() > MTU or np.any(micros[1:] < micros[:-1])
    ):
        return None
    return micros / 1e6, dirs, sizes


def _csv_lines(data: str | bytes, header: str) -> list[str]:
    """The lines after a CSV document's header, split on LF without the empty
    one a final LF leaves; a CR ending a line stays on it.  A header other
    than ``header`` (CR-stripped) raises MalformedHeader on line 1."""
    if isinstance(data, bytes):
        data = _decode(data)
    lines = data.split("\n")
    if lines[-1] == "":
        lines.pop()
    got = lines[0].rstrip("\r") if lines else ""
    if got != header:
        raise MalformedHeader(f"expected header {header!r}, got {got!r}", line=1)
    return lines[1:]


def _parse_lines(data: str | bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columns of any document the grammar accepts, one line at a time."""
    times: list[float] = []
    dirs: list[int] = []
    sizes: list[int] = []
    prev = None
    for i, raw in enumerate(_csv_lines(data, TRACE_HEADER), start=2):
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
    return np.array(times, dtype=np.float64), np.array(dirs), np.array(sizes)


# rows the writer formats at once; its temporaries stay this size whatever
# the trace length
_WRITE_CHUNK = 2**16
_PAD = 0  # a byte no row holds, dropped from the row matrix
# _TRIPLES[k, v] is digit k of v's three decimal digits, zeros kept: a
# 1,000-entry table per digit, so each digit column is one take
_TRIPLES = np.array([list(b"%03d" % v) for v in range(1000)], dtype=np.uint8).T.copy()
# a row after its seconds' digits: the fraction at 1-6, a minus sign at 8
# and the size at 11-14 are written over it
_ROW_TAIL = np.frombuffer(b".000000,\x001,0000\n", dtype=np.uint8)


def _put_digits(columns: np.ndarray, values: np.ndarray, pad: bool) -> None:
    """Write the decimal digits of non-negative ``values`` right-aligned into
    ``columns``, one byte row per digit position, which they fit, three
    digits per division; with ``pad``, every leading zero but the last digit
    becomes _PAD."""
    width = len(columns)
    rest = values
    for stop in range(width, 0, -3):
        if stop > 3:
            rest, triple = np.divmod(rest, 1000)
        else:
            triple = rest  # the most significant digits, below 1000
        for col in range(max(stop - 3, 0), stop):
            _TRIPLES[col - stop + 3].take(triple, out=columns[col])
    if pad:
        for col in range(width - 1):
            columns[col][values < 10 ** (width - 1 - col)] = _PAD


def _csv_rows(times: np.ndarray, dirs: np.ndarray, sizes: np.ndarray) -> bytes:
    """The rows of one chunk, formatted as ``"{:.6f},{},{}".format`` formats them.

    A time whose product p = t * 1e6 is below 2**50 and within 0.25 of an
    integer N is written as N's digits with a point before the last six:
    p is within half an ulp (at most 1/16) of the exact t * 10**6, so the
    exact value lies within 0.3125 < 0.5 of N, and ``"{:.6f}"``, which
    rounds the exact value, prints N.  A chunk holding any other time is
    formatted whole in Python.  ``Trace`` guarantees the rest of the layout:
    finite times that are not negative, directions of +1 or -1 and sizes in
    [1, MTU].

    The bytes are built in one preallocated uint8 matrix, one row per byte
    position, so that every write is one contiguous numpy call; its
    transpose holds the lines, and the _PAD bytes are dropped.
    """
    with np.errstate(over="ignore"):  # times past about 1.8e302 s give inf
        micros = times * 1e6
    whole = np.rint(micros)
    if not (np.all(micros < 2.0**50) and np.all(np.abs(micros - whole) <= 0.25)):
        return "".join(
            map("{:.6f},{},{}\n".format, times.tolist(), dirs.tolist(), sizes.tolist())
        ).encode()
    seconds, fraction = np.divmod(whole.astype(np.int64), 10**6)
    width = len(str(int(seconds.max())))
    columns = np.empty((width + len(_ROW_TAIL), len(times)), dtype=np.uint8)
    columns[width:] = _ROW_TAIL[:, None]
    _put_digits(columns[:width], seconds, pad=True)
    _put_digits(columns[width + 1 : width + 7], fraction, pad=False)
    columns[width + 8][dirs < 0] = ord("-")
    _put_digits(columns[width + 11 : width + 15], sizes, pad=True)
    rows = columns.T.copy()
    del columns  # a large chunk's matrices are each about 1.2 MB
    return rows[rows != _PAD].tobytes()


def _csv_chunks(trace) -> Iterator[bytes]:
    yield _HEAD
    for start in range(0, len(trace), _WRITE_CHUNK):
        yield _csv_rows(*trace.columns(start, start + _WRITE_CHUNK))


def write_trace_csv(trace) -> bytes:
    """The trace CSV document of a Trace, or of a modulated capture's
    ``SlotPlan`` (its wire packets, built one chunk at a time); ``save_trace``
    writes the same bytes."""
    return b"".join(_csv_chunks(trace))


def read_trace(
    path: str | Path, trace_id: str | None = None, label: ActionLabel | None = None
) -> Trace:
    return parse_trace_csv(read_input(path), trace_id or Path(path).stem, label)


def save_trace(trace, path: str | Path) -> None:
    with open(path, "wb") as f:
        f.writelines(_csv_chunks(trace))


# ---------------------------------------------------------------------------
# manifests and datasets


class ManifestCaptures:
    """The traces a manifest lists, read from disk one at a time as an
    iteration reaches them; none is kept, so each pass reads them again.

    The rows are parsed when it is made: a label outside the four known
    actions raises UnknownLabel, a malformed row MalformedRow and a manifest
    with no rows EmptyDataset.  A trace file's own errors (MissingFile for a
    dangling path) are raised by the pass that reaches it.  Labels come from
    the manifest, not the trace files."""

    def __init__(self, manifest_path: str | Path):
        lines = _csv_lines(read_input(manifest_path), MANIFEST_HEADER)
        base = Path(manifest_path).parent
        valid = {lab.value: lab for lab in ActionLabel}
        self.rows: list[tuple[Path, str, ActionLabel]] = []
        for i, raw in enumerate(lines, start=2):
            row = raw.rstrip("\r")
            if not row:
                continue
            parts = row.rsplit(",", 1)
            if len(parts) != 2:
                raise MalformedRow(f"expected 'path,label', got {row!r}", line=i)
            rel, label_s = parts
            if label_s not in valid:
                raise UnknownLabel(f"unknown action label {label_s!r} (line {i})")
            self.rows.append((base / rel, Path(rel).stem, valid[label_s]))
        if not self.rows:
            raise EmptyDataset(f"manifest {manifest_path} lists no traces")

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Trace]:
        for path, trace_id, label in self.rows:
            yield read_trace(path, trace_id, label)

    @property
    def labels(self) -> list[str]:
        return [label.value for _, _, label in self.rows]


def load_dataset(manifest_path: str | Path) -> Dataset:
    """Every trace a manifest lists, read at once (see ManifestCaptures)."""
    return Dataset(list(ManifestCaptures(manifest_path)))


def save_dataset(dataset: Iterable[Trace], out_dir: str | Path) -> Path:
    """Write one CSV per trace plus a manifest; returns the manifest path.

    Each trace is written as the dataset or iterable yields it, so traces
    made on the fly are never all held at once; a modulated capture may come
    as its ``SlotPlan``, whose wire packets are built 2**16 at a time as they
    are written.  A trace whose file name an earlier trace took (two trace
    ids alike, as ``load_dataset`` gives ``a/x.csv`` and ``b/x.csv``)
    raises DuplicateTrace before it is written, and a trace without a
    label, which no manifest row can name, raises UnknownLabel; either way
    no manifest is written."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [MANIFEST_HEADER]
    written = set()
    for i, tr in enumerate(dataset):
        name = tr.trace_id or f"trace_{i:04d}"
        rel = f"{name}.csv"
        if rel in written:
            raise DuplicateTrace(f"two traces would be written to {str(out_dir / rel)!r}")
        if tr.label is None:
            raise UnknownLabel(f"trace {name!r} has no label for the manifest")
        written.add(rel)
        save_trace(tr, out_dir / rel)
        rows.append(f"{rel},{tr.label.value}")
    manifest = out_dir / "manifest.csv"
    manifest.write_text("\n".join(rows) + "\n", "utf-8")
    return manifest
