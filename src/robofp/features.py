"""Per-trace feature vectors for action classification.

Two feature families:

* command features — the trace is binned into a signed byte-rate signal and
  scanned with the nominal waveform of each command kind; ``_kernel``
  refuses a kernel at another bin width, in each scan and, before any
  capture is read, in ``make_schema``.  One-shot command kinds (Cartesian
  moves, position bursts) use normalized convolution; the sustained
  speed-burst kind uses sliding correlation, keyed to the envelope shape
  rather than the byte rate.
  A kind's block is the ``CommandStats`` of its detected clusters, in order.
* summary features — volume, duration, size moments and inter-arrival-time
  percentiles per direction, built in ``summary_feature_names`` order.  These
  ignore command structure entirely and serve as the ablation baseline.

``compute_features`` also takes a modulated capture as its ``SlotPlan``
and gives the same vector, bit for bit, as for the plan's wire packets
without building them.  Both kinds are binned by ``sigproc.bin_trace``,
the one binning entry: a plan's two s_p-byte packets of a slot cancel in
every signed bin, so only segments of another size are binned (integer
sums, exact; ``SlotPlan.signed_bytes``).  A direction of s_p-byte packets
only has the size statistics of one such packet, and both directions share
one slot grid, hence one set of inter-arrival percentiles.

Those percentiles are read without building the grid.  A slot's time
depends only on its row and t_i, so every plan's inter-arrival times are
the first n_slots - 1 of one sequence per t_i.  That sequence is counted in
chunks of ``_GRID_CHUNK`` (distinct values and their counts, some 30 at
most); full chunks come from a memo, only a plan's last, partial chunk is
counted afresh.  ``linear_percentiles`` reads the order statistics around
each percentile's virtual index off the merged cumulative counts and
interpolates them with np.percentile's own linear rule, so the result is
the same float.  A plan's size percentiles are not counted: they are read,
as a capture's are, from its sorted sizes.  The memo is a pure function of
(t_i, chunk index), bounded by ``lru_cache`` (0.5 to 1.1 MB when full).  It
is module-wide rather than per sweep because scoping it would take a
``compute_features`` parameter that no caller has a reason to set.

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
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .defenses import SlotPlan
from .errors import (
    EmptyDataset,
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
    bin_trace,
    cluster_statistics,
    convolve,
    detect_clusters,
    linear_percentiles,
    sliding_correlation,
)
from .trace import Dataset, Trace, quantize_time

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
    return [f"{kind.name.lower()}_{stat}" for kind in ALL_KINDS for stat in CommandStats._fields]


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
    """The schema of ``feature_set`` rows; a set that scans checks each kernel."""
    config = config or SigprocConfig()
    if feature_set in ("full", "command"):
        for kind in ALL_KINDS:
            _kernel(bank, kind, config.bin_width)
    return FeatureSchema(
        names=tuple(feature_names(feature_set)),
        feature_set=feature_set,
        config=config,
        kernel_fingerprint=bank.fingerprint(),
    )


def command_clusters(
    trace: Trace | SlotPlan, kind: CommandKind, bank: KernelBank, config: SigprocConfig
):
    """Detection route for one command kind of a capture or a modulated
    capture's slot plan: (response signal, clusters)."""
    signal = bin_trace(trace, config.bin_width)
    return _scan(signal, kind, bank, config)


def _kernel(bank: KernelBank, kind: CommandKind, bin_width: float):
    """The bank's kernel for ``kind``; SchemaMismatch unless it is at ``bin_width``."""
    kernel = bank.kernel_for(kind)
    if kernel.bin_width != bin_width:
        raise SchemaMismatch(
            f"{kind} kernel has bin_width {kernel.bin_width}, signal bin_width {bin_width}"
        )
    return kernel


def _scan(signal, kind, bank, config):
    kernel = _kernel(bank, kind, signal.bin_width)
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


def _iat_percentiles(times: np.ndarray) -> list[float]:
    # without gaps they read 0.0; iat is ours, so it is sorted in place
    iat = np.diff(times) if len(times) > 1 else np.zeros(1)
    iat.sort()
    return linear_percentiles(iat, _IAT_QUANTILES)


def _iat_counts(t_i: float, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct inter-arrival times of grid slots start..stop - 1, with counts."""
    return np.unique(np.diff(quantize_time(np.arange(start, stop) * t_i)), return_counts=True)


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


def _summary_features(trace: Trace | SlotPlan) -> np.ndarray:
    per_dir = []  # count, bytes, sizes, iat percentiles
    if isinstance(trace, Trace):
        for mask in (trace.dirs == 1, trace.dirs == -1):
            sizes = trace.sizes[mask]
            count, total = sizes.size, sizes.sum()
            # a direction without packets reads 0.0 for its size statistics
            sizes = sizes.astype(float) if count else np.zeros(1)
            per_dir.append((count, total, sizes, _iat_percentiles(trace.times[mask])))
    else:
        iat = _plan_iat_percentiles(trace)
        for column in (0, 1):
            rows, delta = trace.odd[column]
            total = trace.n_slots * trace.s_p + delta.sum()
            # n_slots packets of s_p bytes have the size statistics of one
            sizes = trace.column_sizes(column) if rows.size else np.full(1, trace.s_p)
            per_dir.append((trace.n_slots, total, sizes.astype(float), iat))

    (n_out, bytes_out, sizes_out, iat_out), (n_in, bytes_in, sizes_in, iat_in) = per_dir
    # in summary_feature_names order; mean and std over the unsorted sizes,
    # since np.mean's pairwise sum depends on the order of its input
    return np.array([
        len(trace), n_out, n_in, bytes_out, bytes_in, trace.duration,
        sizes_out.mean(), sizes_out.std(), sizes_in.mean(), sizes_in.std(),
        *linear_percentiles(np.sort(sizes_out), _SIZE_QUANTILES),
        *linear_percentiles(np.sort(sizes_in), _SIZE_QUANTILES),
        *iat_out, *iat_in,
    ], dtype=np.float64)


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
        signal = bin_trace(trace, config.bin_width)
        for kind in ALL_KINDS:
            response, clusters = _scan(signal, kind, bank, config)
            blocks.append(np.array(cluster_statistics(response, clusters)))
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
    traces may be modulated captures' slot plans, as ``compute_features`` takes.
    They are read in one pass, so a manifest's captures are read once.  A
    dataset with no traces has no matrix: it raises EmptyDataset."""
    config = config or SigprocConfig()
    schema = make_schema(bank, config, feature_set)
    rows, labels, ids = [], [], []
    for i, t in enumerate(dataset.traces):
        rows.append(compute_features(t, bank, config, feature_set))
        labels.append(t.label.value if t.label is not None else "")
        ids.append(t.trace_id or f"trace_{i:04d}")
    if not rows:
        raise EmptyDataset("no traces to featurize")
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
