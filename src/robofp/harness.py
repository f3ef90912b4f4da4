"""Experiment orchestration: attack runs, threshold sweeps, defense sweeps.

Every run is driven by an ExperimentConfig, which is embedded verbatim in
the report it produces; identical config and seed give byte-identical
reports apart from the created_at stamp (report_digest excludes it).

Every run walks its captures on demand: ``load_captures`` returns what
``trace.load_dataset`` reads from a manifest or ``gen_dataset`` generates,
a ``trace.Captures`` either way, and each pass (featurizing, defending)
reads or makes one capture at a time and keeps none.  Only a sweep holds
captures, and only generated ones (``_sweep_inputs``): it walks them once
per point, and generating the seed-42 captures takes about four times the
CPU of reading them.  A run that cross-validates refuses more folds than a
class has captures from the labels alone, and a run that scans refuses a
kernel bank at another bin width, before any capture is read or made.

Sweep points run one after another, in sweep-key order, in one thread:
threads sharing the interpreter lock never made a sweep faster.  Fold
models are shared where the answer cannot change:

* the adapting adversary cross-validates once per distinct training
  problem (``classifier.problem_key``: the rank-class columns, labels,
  folds, seed and GBDT parameters); a point whose key an earlier point had
  takes its accuracy, and each point is fitted before the next is made;
* the fixed adversary featurizes every point, then fits each fold once on
  the clean matrix and scores every point's held-out rows before the next
  fold (``cross_validate_each``).

No fold model outlives its fold, and nothing is kept across calls.

``defend_dataset`` is the one per-trace defense loop, shared by both defense
sweeps and ``robofp defend``: it defends each trace as its consumer reads
it, so ``robofp defend`` writes each defended trace as it is made, a
modulated one from its slot plan without building its wire packets.  A
sweep point featurizes inside that consumer: it collects per capture what
``featurize_dataset`` reads, the padded trace or the modulated trace's slot
plan (no per-message array: 0 bytes of arrays for the 200 seed-42 plans at
s_p = 500 B, t_i = 0.1 ms, against 84M wire packets), and lets go of them
before any fit.  Each DefendedTrace, with its per-message arrays, goes
before the next trace is defended; it keeps no wire packets.

Emitted tables, all plain CSV:

* threshold sweep — ``t,accuracy``
* padding sweep — ``x,accuracy,overhead``
* modulation sweep — ``s_p,t_i,accuracy,overhead,max_added_latency``
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .classifier import (
    GBDTClassifier,
    GBDTParams,
    cross_validate,
    cross_validate_each,
    problem_key,
    stratified_folds,
)
from .defenses import (
    MODULATION_INTERVALS,
    PaddingConfig,
    apply_defense,
    modulation_preset,
)
from .errors import InvalidConfig, OutOfRange, check_field_types, load_json
from .features import FEATURE_SETS, FeatureMatrix, SigprocConfig, featurize_dataset, make_schema
from .sigproc import MAX_BINS, KernelBank
from .synthgen import MAX_DURATION, GenConfig, default_kernel_bank, gen_dataset
from .trace import Dataset, load_dataset

TOP_FEATURES = 20

DEFAULT_THRESHOLD_GRID = tuple(round(0.1 * i, 1) for i in range(14))  # 0.0 .. 1.3
DEFAULT_PADDING_GRID = tuple(range(1, 11))
DEFAULT_DUMMY_SIZES = tuple(range(100, 1001, 100))

# Every class needs n_folds captures, so 800 folds need at least 3,200.  A
# fit on 3,200 seed-42 captures took 4.9 s on a 2-vCPU box (0.05 s on 200,
# 0.52 s on 800), so the 801 fits of such an evaluate take about an hour.
MAX_FOLDS = 800


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; serializes to one JSON document.

    ``seed`` and ``samples_per_class`` are checked by GenConfig (at most
    10,000 per class), also when a manifest is given.
    ``n_folds`` is at most MAX_FOLDS; runs that cross-validate also need it
    at most each class's capture count, checked before any capture is read
    or made.  Every run walks its captures on demand; only a sweep holds
    generated ones.
    Generated captures last up to synthgen.MAX_DURATION, so without a
    manifest ``sigproc.bin_width`` must bin them in sigproc.MAX_BINS bins."""

    seed: int = 42
    samples_per_class: int = 50
    manifest: str | None = None  # load traces from here instead of generating
    kernel_bank_path: str | None = None  # None builds the template bank
    feature_set: str = "full"
    sigproc: SigprocConfig = field(default_factory=SigprocConfig)
    classifier: GBDTParams = field(default_factory=GBDTParams)
    n_folds: int = 10
    retrain_on_defended: bool = True  # adapting adversary; False reuses the clean model
    tail_dummies: float = 0.0
    workers: int = 0  # recorded only; sweep points run in one thread, so 0 or 1

    def __post_init__(self):
        check_field_types(self)
        GenConfig(self.seed, self.samples_per_class)
        if not 2 <= self.n_folds <= MAX_FOLDS:
            raise InvalidConfig(f"n_folds must lie in [2, {MAX_FOLDS}], got {self.n_folds}")
        if self.manifest is None and MAX_DURATION / self.sigproc.bin_width > MAX_BINS:
            raise OutOfRange(
                f"sigproc.bin_width must be at least about {MAX_DURATION / MAX_BINS:.3g} s "
                f"for generated captures ({MAX_DURATION} s in at most {MAX_BINS} bins), "
                f"got {self.sigproc.bin_width}"
            )
        if self.feature_set not in FEATURE_SETS:
            raise InvalidConfig(f"unknown feature set {self.feature_set!r}")
        if self.workers not in (0, 1):
            raise InvalidConfig(
                f"workers must be 0 or 1, got {self.workers}: sweep points run in one thread"
            )

    def to_doc(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), indent=2, sort_keys=True)

    @classmethod
    def from_doc(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise InvalidConfig("experiment config must be a JSON object")
        try:
            doc = dict(doc)
            doc["sigproc"] = SigprocConfig(**doc.get("sigproc", {}))
            doc["classifier"] = GBDTParams(**doc.get("classifier", {}))
            return cls(**doc)
        except (KeyError, TypeError, ValueError) as e:
            raise InvalidConfig(f"bad experiment config: {e}") from e

    @classmethod
    def from_json(cls, text: str | bytes) -> "ExperimentConfig":
        return cls.from_doc(load_json(text, "config"))


def resolve_workers(config: ExperimentConfig) -> int:
    return max(config.workers, 1)


def load_captures(config: ExperimentConfig) -> Dataset:
    """The captures, read from a manifest (``trace.load_dataset``) or
    generated (``gen_dataset``) on demand, once per pass."""
    if config.manifest is not None:
        return load_dataset(config.manifest)
    return gen_dataset(GenConfig(seed=config.seed, samples_per_class=config.samples_per_class))


def load_inputs(config: ExperimentConfig) -> tuple[Dataset, KernelBank]:
    """``load_captures`` and the kernel bank."""
    dataset = load_captures(config)
    if config.kernel_bank_path is not None:
        bank = KernelBank.load(config.kernel_bank_path)
    else:
        bank = default_kernel_bank(bin_width=config.sigproc.bin_width)
    return dataset, bank


def _cv_inputs(config: ExperimentConfig) -> tuple[Dataset, KernelBank]:
    """``load_inputs`` for a run that cross-validates.  More folds than a
    class has captures are refused from the labels, before any capture is
    read or made."""
    dataset, bank = load_inputs(config)
    stratified_folds(dataset.traces.labels, config.n_folds, config.seed)
    return dataset, bank


def _sweep_inputs(config: ExperimentConfig) -> tuple[Dataset, KernelBank]:
    """``_cv_inputs`` for a sweep, which walks its captures once per point:
    generated ones are made once, after ``make_schema`` has checked the
    bank, and held in a list; a manifest's are read again at each point."""
    dataset, bank = _cv_inputs(config)
    make_schema(bank, config.sigproc, config.feature_set)
    if config.manifest is None:
        dataset = Dataset(list(dataset))
    return dataset, bank


# ---------------------------------------------------------------------------
# attack evaluation


def _evaluate(config: ExperimentConfig, matrix: FeatureMatrix):
    return cross_validate(
        matrix.X,
        matrix.labels,
        params=config.classifier,
        n_folds=config.n_folds,
        seed=config.seed,
        feature_names=list(matrix.schema.names),
    )


def _top_features(matrix: FeatureMatrix, config: ExperimentConfig) -> list[dict]:
    model = GBDTClassifier(config.classifier, feature_names=list(matrix.schema.names))
    model.fit(matrix.X, matrix.labels)
    ranked = sorted(model.feature_importance().items(), key=lambda kv: (-kv[1], kv[0]))
    return [{"name": n, "gain": g} for n, g in ranked[:TOP_FEATURES]]


def run_attack_experiment(config: ExperimentConfig) -> dict:
    """Featurize, cross-validate, rank features; returns the report document."""
    dataset, bank = _cv_inputs(config)
    n_traces = len(dataset.traces)
    matrix = featurize_dataset(dataset, bank, config.sigproc, config.feature_set)
    report = _evaluate(config, matrix)
    return {
        "config": config.to_doc(),
        "n_traces": n_traces,
        "kernel_fingerprint": bank.fingerprint(),
        "schema_fingerprint": matrix.schema.fingerprint(),
        "cv": report.to_doc(),
        "top_features": _top_features(matrix, config),
        "created_at": datetime.now(timezone.utc).isoformat(),
    }


def report_digest(report: dict) -> str:
    """Content hash of a report, excluding the timestamp."""
    stripped = {k: v for k, v in report.items() if k != "created_at"}
    return hashlib.sha256(json.dumps(stripped, sort_keys=True).encode()).hexdigest()


def write_report(report: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def write_csv(path: str | Path, rows: list[dict]) -> None:
    """Plain CSV of non-empty rows; the header is the first row's keys."""
    with Path(path).open("w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


# ---------------------------------------------------------------------------
# sweeps


def _sweep_accuracies(config: ExperimentConfig, points, matrix_of, clean) -> list[float]:
    """Accuracy per sweep point; ``matrix_of(point)`` makes its FeatureMatrix.

    The adapting adversary (``clean`` None) cross-validates a point only if
    no earlier point had its ``problem_key``, and lets go of its matrix
    before the next is made.  The fixed one fits each fold once on the
    ``clean`` matrix and scores every point's held-out rows, so it takes
    every point's matrix first."""
    if clean is not None:
        reports = cross_validate_each(
            clean.X,
            clean.labels,
            [matrix_of(p).X for p in points],
            params=config.classifier,
            n_folds=config.n_folds,
            seed=config.seed,
            feature_names=list(clean.schema.names),
        )
        return [r.accuracy for r in reports]
    accuracy = {}

    def key_of(point) -> str:
        m = matrix_of(point)
        key = problem_key(m.X, m.labels, config.classifier, config.n_folds, config.seed)
        if key not in accuracy:
            accuracy[key] = _evaluate(config, m).accuracy
        return key

    return [accuracy[k] for k in [key_of(p) for p in points]]


def threshold_sweep(
    config: ExperimentConfig, thresholds: tuple[float, ...] = DEFAULT_THRESHOLD_GRID
) -> list[dict]:
    """Accuracy per convolution threshold; rows sorted by t."""
    for t in thresholds:
        if not 0.0 <= t <= 1.3:
            raise InvalidConfig(f"threshold {t} outside [0, 1.3]")
    dataset, bank = _sweep_inputs(config)
    thresholds = sorted(thresholds)

    def matrix_of(t: float) -> FeatureMatrix:
        sig = replace(config.sigproc, conv_threshold=float(t))
        return featurize_dataset(dataset, bank, sig, config.feature_set)

    accuracies = _sweep_accuracies(config, thresholds, matrix_of, None)
    return [{"t": t, "accuracy": a} for t, a in zip(thresholds, accuracies)]


def defend_dataset(dataset: Dataset, defense, consume) -> tuple:
    """Defend the traces one at a time, as ``consume`` reads them.

    ``consume`` gets an iterator over the defended traces, in trace order,
    and returns what it makes of them.  Returns that result, the mean
    per-trace bandwidth overhead and the worst added latency over all traces."""
    overheads, latencies = [], []

    def each():
        for trace in dataset.traces:
            defended = apply_defense(trace, defense)
            overheads.append(defended.bandwidth_overhead())
            latencies.append(defended.max_added_latency)
            yield defended

    result = consume(each())
    return result, float(np.mean(overheads)), float(max(latencies))


def _defense_sweep(config: ExperimentConfig, defenses: list) -> list[tuple[float, float, float]]:
    """(accuracy, overhead, max added latency) per defense, in order.

    The adapting adversary (retrain_on_defended) cross-validates on the
    defended features.  The fixed one fits each fold on clean traffic and
    scores the same held-out captures after each defense.  A modulated
    trace is featurized from its slot plan, never as wire packets."""
    dataset, bank = _sweep_inputs(config)
    clean = None
    if not config.retrain_on_defended:
        clean = featurize_dataset(dataset, bank, config.sigproc, config.feature_set)
    costs = []

    def featurize(defended) -> FeatureMatrix:
        sources = [d.capture for d in defended]
        return featurize_dataset(Dataset(sources), bank, config.sigproc, config.feature_set)

    def matrix_of(defense) -> FeatureMatrix:
        matrix, overhead, max_latency = defend_dataset(dataset, defense, featurize)
        costs.append((overhead, max_latency))
        return matrix

    accuracies = _sweep_accuracies(config, defenses, matrix_of, clean)
    return [(a, o, lat) for a, (o, lat) in zip(accuracies, costs)]


def padding_sweep(
    config: ExperimentConfig, xs: tuple[int, ...] = DEFAULT_PADDING_GRID
) -> list[dict]:
    """Accuracy and mean bandwidth overhead per padding factor."""
    xs = sorted(xs)
    results = _defense_sweep(config, [PaddingConfig(x) for x in xs])
    return [{"x": x, "accuracy": a, "overhead": o} for x, (a, o, _) in zip(xs, results)]


def modulation_sweep(
    config: ExperimentConfig,
    dummy_sizes: tuple[int, ...] = DEFAULT_DUMMY_SIZES,
    intervals: tuple[float, ...] = MODULATION_INTERVALS,
) -> list[dict]:
    """Accuracy, overhead and worst added latency per (s_p, t_i) point."""
    points = [(s_p, t_i) for s_p in sorted(dummy_sizes) for t_i in sorted(intervals)]
    defenses = [
        modulation_preset(s_p, t_i, tail_dummies=config.tail_dummies) for s_p, t_i in points
    ]
    results = _defense_sweep(config, defenses)
    return [
        {"s_p": s_p, "t_i": t_i, "accuracy": a, "overhead": o, "max_added_latency": lat}
        for (s_p, t_i), (a, o, lat) in zip(points, results)
    ]
