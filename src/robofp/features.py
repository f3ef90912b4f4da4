"""Per-trace feature vectors for action classification.

Two feature families:

* command features — the trace is binned into a signed byte-rate signal and
  scanned with the nominal waveform of each command kind.  One-shot command
  kinds (Cartesian moves, position bursts) use normalized convolution; the
  sustained speed-burst kind uses sliding correlation, which keys on the
  envelope shape rather than the byte rate.  Detected clusters are reduced
  to the fourteen per-kind statistics from ``cluster_statistics``.
* summary features — volume, duration, size moments and inter-arrival-time
  percentiles per direction.  These ignore command structure entirely and
  serve as the ablation baseline.

``compute_features`` also takes a modulated capture as its ``SlotPlan``
and gives the same vector, bit for bit, as for the plan's wire packets
without building them: the two directions' s_p-byte packets cancel in
every signed bin, so only segments of another size are binned (integer
sums, exact); a direction of s_p-byte packets only has the size statistics
of one such packet; and both directions share one slot grid, hence one set
of inter-arrival percentiles.

Those percentiles are read without building the grid.  A slot's time
depends only on its row and t_i, so every plan's inter-arrival times are
the first n_slots - 1 of one sequence per t_i.  That sequence is counted in
chunks of ``_GRID_CHUNK`` (distinct values and their counts, some 30 at
most); full chunks come from a memo, only a plan's last, partial chunk is
counted afresh.  ``linear_percentiles`` reads the order statistics around
each percentile's virtual index off the merged cumulative counts and
interpolates them with np.percentile's own linear rule, so the result is
the same float.  A plan's size percentiles are counted the same way, from
s_p and the odd sizes.  The memo is a pure function of (t_i, chunk index),
bounded by ``lru_cache`` (0.5 to 1.1 MB when full).  It is module-wide
rather than per sweep because scoping it would take a ``compute_features``
parameter that no caller has a reason to set.

Feature vectors carry a schema (ordered names + a fingerprint of the
configuration and kernel bank that produced them) so that models refuse
mismatched inputs.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
from dataclasses import asdict, dataclass, fields
from operator import attrgetter
from pathlib import Path

import numpy as np

from .defenses import SlotPlan, grid_times
from .errors import (
    EmptyTrace,
    InvalidConfig,
    OutOfRange,
    SchemaMismatch,
    _json_array,
    check_field_types,
    read_input,
)
from .sigproc import (
    ALL_KINDS,
    CommandKind,
    CommandStats,
    KernelBank,
    Signal,
    bin_trace,
    bin_weights,
    cluster_statistics,
    convolve,
    detect_clusters,
    linear_percentiles,
    sliding_correlation,
)
from .trace import Dataset, Trace

SCHEMA_VERSION = 1

FEATURE_SETS = ("full", "command", "summary")

# detection route per command kind: correlation for the rate-sustained
# burst whose signature is its envelope, convolution for the rest
CORRELATION_KINDS = frozenset({CommandKind.GRIPPER_SPEED})

# multiply-adds one kernel scan may cost: about 1,400 times the largest
# shipped scan (some 3,000 bins against the 260-bin speed kernel at 0.01 s)
MAX_SCAN_WORK = 2**30

_IAT_PERCENTILES = (5, 10, 25, 50, 75, 90, 95)
# percentiles scaled as np.percentile scales them
_IAT_QUANTILES = tuple(p / 100 for p in _IAT_PERCENTILES)
# inter-arrival times per memoised chunk of a slot grid
_GRID_CHUNK = 2**14
_SIZE_PERCENTILES = (50, 90)
_SIZE_QUANTILES = tuple(p / 100 for p in _SIZE_PERCENTILES)
# a CommandStats as a flat tuple in field order, without astuple's deep copy
_stat_values = attrgetter(*(f.name for f in fields(CommandStats)))


@dataclass(frozen=True)
class SigprocConfig:
    """Detection parameters shared by featurization and reporting."""

    bin_width: float = 0.01
    conv_threshold: float = 0.9
    corr_threshold: float = 0.25
    merge_gap: float = 0.2
    conv_min_duration: float = 0.0
    corr_min_duration: float = 1.0

    def __post_init__(self):
        check_field_types(self)
        if self.bin_width <= 0:
            raise InvalidConfig("bin_width must be positive")
        if self.merge_gap < 0 or self.conv_min_duration < 0 or self.corr_min_duration < 0:
            raise InvalidConfig("durations must be non-negative")


def summary_feature_names() -> list[str]:
    names = [
        "packet_count", "out_count", "in_count",
        "bytes_out", "bytes_in", "duration",
        "size_mean_out", "size_std_out", "size_mean_in", "size_std_in",
    ]
    for d in ("out", "in"):
        names.extend(f"size_p{p}_{d}" for p in _SIZE_PERCENTILES)
    for d in ("out", "in"):
        names.extend(f"iat_p{p}_{d}" for p in _IAT_PERCENTILES)
    return names


def command_feature_names() -> list[str]:
    stats = [f.name for f in fields(CommandStats)]
    return [f"{kind.name.lower()}_{stat}" for kind in ALL_KINDS for stat in stats]


def feature_names(feature_set: str = "full") -> list[str]:
    if feature_set == "summary":
        return summary_feature_names()
    if feature_set == "command":
        return command_feature_names()
    if feature_set == "full":
        return command_feature_names() + summary_feature_names()
    raise InvalidConfig(f"unknown feature set {feature_set!r}")


@dataclass(frozen=True)
class FeatureSchema:
    names: tuple[str, ...]
    feature_set: str
    config: SigprocConfig
    kernel_fingerprint: str
    version: int = SCHEMA_VERSION

    def __post_init__(self):
        check_field_types(self)

    def fingerprint(self) -> str:
        blob = json.dumps(
            {
                "version": self.version,
                "feature_set": self.feature_set,
                "config": asdict(self.config),
                "kernels": self.kernel_fingerprint,
                "names": list(self.names),
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": self.version,
                "feature_set": self.feature_set,
                "config": asdict(self.config),
                "kernel_fingerprint": self.kernel_fingerprint,
                "names": list(self.names),
                "fingerprint": self.fingerprint(),
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str | bytes) -> "FeatureSchema":
        try:
            doc = json.loads(text)
            schema = cls(
                names=tuple(_json_array("names", doc["names"], "strings")),
                feature_set=doc["feature_set"],
                config=SigprocConfig(**doc["config"]),
                kernel_fingerprint=doc["kernel_fingerprint"],
                version=doc["version"],
            )
        except (KeyError, TypeError, ValueError, RecursionError) as e:
            raise InvalidConfig(f"bad schema document: {e}") from e
        if "fingerprint" in doc and doc["fingerprint"] != schema.fingerprint():
            raise SchemaMismatch("schema fingerprint does not match its contents")
        return schema


def make_schema(
    bank: KernelBank,
    config: SigprocConfig | None = None,
    feature_set: str = "full",
) -> FeatureSchema:
    config = config or SigprocConfig()
    return FeatureSchema(
        names=tuple(feature_names(feature_set)),
        feature_set=feature_set,
        config=config,
        kernel_fingerprint=bank.fingerprint(),
    )


def command_clusters(trace: Trace, kind: CommandKind, bank: KernelBank, config: SigprocConfig):
    """Detection route for one command kind: (response signal, clusters)."""
    signal = bin_trace(trace, config.bin_width)
    return _scan(signal, kind, bank, config)


def _scan(signal, kind, bank, config):
    kernel = bank.kernel_for(kind)
    work = len(signal) * len(kernel.values)
    if work > MAX_SCAN_WORK:
        raise OutOfRange(
            f"scanning {len(signal)} bins with the {len(kernel.values)}-bin {kind} kernel "
            f"costs {work} multiply-adds, more than {MAX_SCAN_WORK}"
        )
    if kind in CORRELATION_KINDS:
        response = sliding_correlation(signal, kernel)
        threshold, min_duration = config.corr_threshold, config.corr_min_duration
    else:
        response = convolve(signal, kernel)
        threshold, min_duration = config.conv_threshold, config.conv_min_duration
    return response, detect_clusters(response, threshold, config.merge_gap, min_duration)


def _signal(trace: Trace | SlotPlan, bin_width: float) -> Signal:
    if isinstance(trace, Trace):
        return bin_trace(trace, bin_width)
    (out_rows, out_delta), (in_rows, in_delta) = trace.odd
    times = trace.slot_times(np.concatenate([out_rows, in_rows]))
    weights = np.concatenate([out_delta, -in_delta]).astype(np.float64)
    return Signal(bin_weights(times, weights, trace.duration, bin_width), bin_width)


def _iat_percentiles(times: np.ndarray) -> list[float]:
    # without gaps they read 0.0; iat is ours, so it is sorted in place
    iat = np.diff(times) if len(times) > 1 else np.zeros(1)
    iat.sort()
    return linear_percentiles(iat, _IAT_QUANTILES)


def _iat_counts(t_i: float, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct inter-arrival times of grid slots start..stop - 1, with counts."""
    return np.unique(np.diff(grid_times(t_i, np.arange(start, stop))), return_counts=True)


@functools.lru_cache(maxsize=1024)
def _chunk_counts(t_i: float, c: int) -> tuple[np.ndarray, np.ndarray]:
    """``_iat_counts`` of grid chunk c, read-only: IATs c*B .. (c+1)*B - 1."""
    counts = _iat_counts(t_i, c * _GRID_CHUNK, (c + 1) * _GRID_CHUNK + 1)
    for a in counts:
        a.flags.writeable = False
    return counts


def _plan_iat_percentiles(plan: SlotPlan) -> list[float]:
    """``_iat_percentiles(plan.slot_times())`` without the grid: the IATs
    are counted per chunk, and the order statistics read off the counts."""
    n = plan.n_slots - 1
    if n < 1:
        return _iat_percentiles(plan.slot_times())
    full, rest = divmod(n, _GRID_CHUNK)
    parts = [_chunk_counts(plan.t_i, c) for c in range(full)]
    if rest:
        parts.append(_iat_counts(plan.t_i, full * _GRID_CHUNK, n + 1))
    values, inverse = np.unique(np.concatenate([v for v, _ in parts]), return_inverse=True)
    counts = np.bincount(inverse, weights=np.concatenate([c for _, c in parts]))
    return linear_percentiles(values, _IAT_QUANTILES, np.cumsum(counts))


def _plan_size_percentiles(plan: SlotPlan, column: int) -> list[float]:
    """Size percentiles of one direction's ``column_sizes``, counted: n_slots
    packets of s_p bytes, less the odd rows (one per slot), plus their sizes."""
    rows, delta = plan.odd[column]
    values, inverse = np.unique(np.concatenate(([0], delta)), return_inverse=True)
    counts = np.bincount(inverse)
    counts[inverse[0]] += plan.n_slots - rows.size - 1
    sizes = (plan.s_p + values).astype(float)
    return linear_percentiles(sizes, _SIZE_QUANTILES, np.cumsum(counts))


def _summary_features(trace: Trace | SlotPlan) -> np.ndarray:
    per_dir = []  # count, bytes, sizes, size percentiles, iat percentiles
    if isinstance(trace, Trace):
        for mask in (trace.dirs == 1, trace.dirs == -1):
            sizes = trace.sizes[mask]
            count, total = sizes.size, sizes.sum()
            # a direction without packets reads 0.0 for its size statistics
            sizes = sizes.astype(float) if count else np.zeros(1)
            size_q = linear_percentiles(np.sort(sizes), _SIZE_QUANTILES)
            per_dir.append((count, total, sizes, size_q, _iat_percentiles(trace.times[mask])))
    else:
        iat = _plan_iat_percentiles(trace)
        for column in (0, 1):
            rows, delta = trace.odd[column]
            total = trace.n_slots * trace.s_p + delta.sum()
            # n_slots packets of s_p bytes have the size mean and std of one
            sizes = trace.column_sizes(column) if rows.size else np.full(1, trace.s_p)
            size_q = _plan_size_percentiles(trace, column)
            per_dir.append((trace.n_slots, total, sizes.astype(float), size_q, iat))

    blocks = []
    for count, total, sizes, size_q, iat in per_dir:
        blocks.append([
            [float(count)], [float(total)], [float(sizes.mean()), float(sizes.std())],
            size_q, iat,
        ])
    out, inn = blocks
    values = [float(len(trace)), *out[0], *inn[0], *out[1], *inn[1], trace.duration]
    for o, i in zip(out[2:], inn[2:]):
        values += o + i
    return np.array(values)


def compute_features(
    trace: Trace | SlotPlan,
    bank: KernelBank,
    config: SigprocConfig | None = None,
    feature_set: str = "full",
) -> np.ndarray:
    """Feature vector of one capture, or of a modulated capture's slot plan."""
    if len(trace) == 0:
        raise EmptyTrace("cannot featurize an empty trace")
    if feature_set not in FEATURE_SETS:
        raise InvalidConfig(f"unknown feature set {feature_set!r}")
    config = config or SigprocConfig()

    blocks = []
    if feature_set in ("full", "command"):
        signal = _signal(trace, config.bin_width)
        for kind in ALL_KINDS:
            response, clusters = _scan(signal, kind, bank, config)
            stats = cluster_statistics(response, clusters)
            blocks.append(np.array(_stat_values(stats)))
    if feature_set in ("full", "summary"):
        blocks.append(_summary_features(trace))
    vector = np.concatenate(blocks)
    return np.where(np.isfinite(vector), vector, 0.0)


@dataclass
class FeatureMatrix:
    X: np.ndarray
    labels: list[str]
    trace_ids: list[str]
    schema: FeatureSchema

    def __post_init__(self):
        if self.X.ndim != 2 or self.X.shape[1] != len(self.schema.names):
            raise SchemaMismatch(
                f"matrix has {self.X.shape[1] if self.X.ndim == 2 else '?'} columns, "
                f"schema names {len(self.schema.names)}"
            )
        if len(self.labels) != self.X.shape[0] or len(self.trace_ids) != self.X.shape[0]:
            raise SchemaMismatch("labels/ids length does not match matrix rows")


def featurize_dataset(
    dataset: Dataset,
    bank: KernelBank,
    config: SigprocConfig | None = None,
    feature_set: str = "full",
) -> FeatureMatrix:
    """One feature row, label and id per trace of ``dataset``, in order.  The
    traces may be modulated captures' slot plans, as ``compute_features`` takes."""
    config = config or SigprocConfig()
    schema = make_schema(bank, config, feature_set)
    rows = [compute_features(t, bank, config, feature_set) for t in dataset.traces]
    labels = [t.label.value if t.label is not None else "" for t in dataset.traces]
    ids = [t.trace_id or f"trace_{i:04d}" for i, t in enumerate(dataset.traces)]
    return FeatureMatrix(np.vstack(rows), labels, ids, schema)


def write_feature_csv(matrix: FeatureMatrix, path: str | Path) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["trace_id", "label", *matrix.schema.names])
    for tid, label, row in zip(matrix.trace_ids, matrix.labels, matrix.X):
        w.writerow([tid, label, *(repr(float(v)) for v in row)])
    Path(path).write_text(buf.getvalue())


def read_feature_csv(path: str | Path, schema: FeatureSchema) -> FeatureMatrix:
    try:
        text = read_input(path).decode("utf-8")
    except UnicodeDecodeError as e:
        raise SchemaMismatch(f"feature file is not UTF-8: {e}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaMismatch("feature file is empty") from None
    if header != ["trace_id", "label", *schema.names]:
        raise SchemaMismatch("feature file header does not match schema")
    width = len(header)
    ids, labels, rows = [], [], []
    for rec in reader:
        if not rec:
            continue
        if len(rec) != width:
            raise SchemaMismatch(
                f"expected {width} fields, got {len(rec)} (line {reader.line_num})"
            )
        try:
            rows.append([float(v) for v in rec[2:]])
        except ValueError as e:
            raise SchemaMismatch(f"{e} (line {reader.line_num})") from None
        ids.append(rec[0])
        labels.append(rec[1])
    X = np.array(rows, dtype=float).reshape(len(rows), len(schema.names))
    return FeatureMatrix(X, labels, ids, schema)
