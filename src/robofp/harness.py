"""Experiment orchestration: attack runs, threshold sweeps, defense sweeps.

Every run is driven by an ExperimentConfig, which is embedded verbatim in
the report it produces; identical config and seed give byte-identical
reports apart from the created_at stamp (report_digest excludes it).

Sweep points are independent, so they run on a small worker pool (bounded
by the config or the ROBOFP_WORKERS environment variable); results are
assembled in sweep-key order regardless of completion order.

Emitted tables, all plain CSV:

* threshold sweep — ``t,accuracy``
* padding sweep — ``x,accuracy,overhead``
* modulation sweep — ``s_p,t_i,accuracy,overhead,max_added_latency``
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .classifier import GBDTClassifier, GBDTParams, cross_validate
from .defenses import (
    MODULATION_INTERVALS,
    PaddingConfig,
    apply_defense,
    modulation_preset,
)
from .errors import InvalidConfig
from .features import FeatureMatrix, SigprocConfig, featurize_dataset
from .sigproc import KernelBank
from .synthgen import GenConfig, default_kernel_bank, gen_dataset
from .trace import Dataset, load_dataset

TOP_FEATURES = 20

DEFAULT_THRESHOLD_GRID = tuple(round(0.1 * i, 1) for i in range(14))  # 0.0 .. 1.3
DEFAULT_PADDING_GRID = tuple(range(1, 11))
DEFAULT_DUMMY_SIZES = tuple(range(100, 1001, 100))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; serializes to one JSON document."""

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
    workers: int = 0  # 0 defers to ROBOFP_WORKERS, then 1

    def to_doc(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), indent=2, sort_keys=True)

    @classmethod
    def from_doc(cls, doc: dict) -> "ExperimentConfig":
        try:
            doc = dict(doc)
            doc["sigproc"] = SigprocConfig(**doc.get("sigproc", {}))
            doc["classifier"] = GBDTParams(**doc.get("classifier", {}))
            return cls(**doc)
        except (KeyError, TypeError, ValueError) as e:
            raise InvalidConfig(f"bad experiment config: {e}") from e

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise InvalidConfig(f"config is not valid JSON: {e}") from None
        return cls.from_doc(doc)


def resolve_workers(config: ExperimentConfig) -> int:
    if config.workers > 0:
        return config.workers
    env = os.environ.get("ROBOFP_WORKERS", "")
    if env.strip():
        try:
            n = int(env)
        except ValueError:
            raise InvalidConfig(f"ROBOFP_WORKERS must be an integer, got {env!r}") from None
        if n > 0:
            return n
    return 1


def load_inputs(config: ExperimentConfig) -> tuple[Dataset, KernelBank]:
    if config.manifest:
        dataset = load_dataset(config.manifest)
    else:
        dataset = gen_dataset(
            GenConfig(seed=config.seed, samples_per_class=config.samples_per_class)
        )
    if config.kernel_bank_path:
        bank = KernelBank.load(config.kernel_bank_path)
    else:
        bank = default_kernel_bank(bin_width=config.sigproc.bin_width)
    return dataset, bank


# ---------------------------------------------------------------------------
# attack evaluation


def _evaluate_matrix(matrix: FeatureMatrix, config: ExperimentConfig, X_test=None):
    return cross_validate(
        matrix.X,
        matrix.labels,
        params=config.classifier,
        n_folds=config.n_folds,
        seed=config.seed,
        feature_names=list(matrix.schema.names),
        X_test=X_test,
    )


def _top_features(matrix: FeatureMatrix, config: ExperimentConfig) -> list[dict]:
    model = GBDTClassifier(config.classifier, feature_names=list(matrix.schema.names))
    model.fit(matrix.X, matrix.labels)
    ranked = sorted(model.feature_importance().items(), key=lambda kv: (-kv[1], kv[0]))
    return [{"name": n, "gain": g} for n, g in ranked[:TOP_FEATURES]]


def run_attack_experiment(config: ExperimentConfig) -> dict:
    """Featurize, cross-validate, rank features; returns the report document."""
    dataset, bank = load_inputs(config)
    matrix = featurize_dataset(dataset, bank, config.sigproc, config.feature_set)
    report = _evaluate_matrix(matrix, config)
    return {
        "config": config.to_doc(),
        "n_traces": len(dataset.traces),
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


def write_csv(path: str | Path, fieldnames: list[str], rows: list[dict]) -> None:
    with Path(path).open("w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


# ---------------------------------------------------------------------------
# sweeps


def _pool_map(config: ExperimentConfig, job, points: list):
    workers = resolve_workers(config)
    if workers == 1:
        return [job(p) for p in points]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(job, points))  # map() preserves point order


def threshold_sweep(
    config: ExperimentConfig, thresholds: tuple[float, ...] = DEFAULT_THRESHOLD_GRID
) -> list[dict]:
    """One full attack run per convolution threshold; rows sorted by t."""
    for t in thresholds:
        if not 0.0 <= t <= 1.3:
            raise InvalidConfig(f"threshold {t} outside [0, 1.3]")
    dataset, bank = load_inputs(config)

    def job(t: float) -> dict:
        sig = replace(config.sigproc, conv_threshold=float(t))
        matrix = featurize_dataset(dataset, bank, sig, config.feature_set)
        return {"t": t, "accuracy": _evaluate_matrix(matrix, config).accuracy}

    return _pool_map(config, job, sorted(thresholds))


def _defended_matrix(dataset, bank, defense, config):
    defended = [apply_defense(t, defense) for t in dataset.traces]
    matrix = featurize_dataset(
        Dataset([d.trace for d in defended]), bank, config.sigproc, config.feature_set
    )
    overhead = float(np.mean([d.bandwidth_overhead() for d in defended]))
    max_latency = float(max(d.max_added_latency for d in defended))
    return matrix, overhead, max_latency


def _defended_accuracy(clean: FeatureMatrix, defended: FeatureMatrix, config) -> float:
    if config.retrain_on_defended:
        return _evaluate_matrix(defended, config).accuracy
    # fixed adversary: each fold's model is fitted on clean traffic and
    # scores the same held-out captures after the defense
    return _evaluate_matrix(clean, config, X_test=defended.X).accuracy


def padding_sweep(
    config: ExperimentConfig, xs: tuple[int, ...] = DEFAULT_PADDING_GRID
) -> list[dict]:
    """Accuracy and mean bandwidth overhead per padding factor."""
    dataset, bank = load_inputs(config)
    clean = featurize_dataset(dataset, bank, config.sigproc, config.feature_set)

    def job(x: int) -> dict:
        matrix, overhead, _ = _defended_matrix(dataset, bank, PaddingConfig(x), config)
        return {
            "x": x,
            "accuracy": _defended_accuracy(clean, matrix, config),
            "overhead": overhead,
        }

    return _pool_map(config, job, sorted(xs))


def modulation_sweep(
    config: ExperimentConfig,
    dummy_sizes: tuple[int, ...] = DEFAULT_DUMMY_SIZES,
    intervals: tuple[float, ...] = MODULATION_INTERVALS,
) -> list[dict]:
    """Accuracy, overhead and worst added latency per (s_p, t_i) point."""
    dataset, bank = load_inputs(config)
    clean = featurize_dataset(dataset, bank, config.sigproc, config.feature_set)
    points = [(s_p, t_i) for s_p in sorted(dummy_sizes) for t_i in sorted(intervals)]

    def job(point: tuple[int, float]) -> dict:
        s_p, t_i = point
        defense = modulation_preset(s_p, t_i, tail_dummies=config.tail_dummies)
        matrix, overhead, max_latency = _defended_matrix(dataset, bank, defense, config)
        return {
            "s_p": s_p,
            "t_i": t_i,
            "accuracy": _defended_accuracy(clean, matrix, config),
            "overhead": overhead,
            "max_added_latency": max_latency,
        }

    return _pool_map(config, job, points)


def run_defense_sweep(
    config: ExperimentConfig,
    kind: str,
    out_dir: str | Path,
    grid: tuple | None = None,
) -> Path:
    """Run one defense family's grid and write its CSV; returns the path.

    For padding the grid is the padding factors; for modulation it is the
    dummy sizes (crossed with the standard intervals)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if kind == "padding":
        rows = padding_sweep(config, grid or DEFAULT_PADDING_GRID)
        path = out_dir / "padding_sweep.csv"
        write_csv(path, ["x", "accuracy", "overhead"], rows)
    elif kind == "modulation":
        rows = modulation_sweep(config, grid or DEFAULT_DUMMY_SIZES)
        path = out_dir / "modulation_sweep.csv"
        write_csv(path, ["s_p", "t_i", "accuracy", "overhead", "max_added_latency"], rows)
    else:
        raise InvalidConfig(f"unknown defense sweep kind {kind!r}")
    return path
