"""Command-line surface over the generator, pipeline and defenses.

Exit codes: 0 success, 1 runtime failure (bad data, missing file), 2 usage.
Every output lands under --out-dir / --out; --seed threads through every
stochastic step.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .classifier import GBDTClassifier
from .defenses import MODULATION_INTERVALS, PaddingConfig, modulation_preset
from .errors import InvalidConfig, RobofpError, load_json, read_input
from .features import (
    FEATURE_SETS,
    FeatureSchema,
    featurize_dataset,
    read_feature_csv,
    write_feature_csv,
)
from .harness import (
    DEFAULT_THRESHOLD_GRID,
    ExperimentConfig,
    defend_dataset,
    load_captures,
    load_inputs,
    modulation_sweep,
    padding_sweep,
    run_attack_experiment,
    threshold_sweep,
    write_csv,
    write_report,
)
from .synthgen import GenConfig, default_kernel_bank, gen_dataset
from .trace import save_dataset

DEFENSE_SWEEPS = {"padding": padding_sweep, "modulation": modulation_sweep}


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--samples-per-class", type=int, default=50)
    p.add_argument("--manifest", help="load traces from this manifest instead of generating")
    p.add_argument("--config", help="experiment config JSON overriding the flags")


def _config_from_args(args) -> ExperimentConfig:
    if args.config is not None:
        return ExperimentConfig.from_json(read_input(args.config))
    kw = dict(
        seed=args.seed,
        samples_per_class=args.samples_per_class,
        manifest=args.manifest,
    )
    if getattr(args, "feature_set", None):
        kw["feature_set"] = args.feature_set
    return ExperimentConfig(**kw)


def _cmd_generate(args) -> int:
    ds = gen_dataset(GenConfig(seed=args.seed, samples_per_class=args.samples_per_class))
    manifest = save_dataset(ds, args.out_dir)
    print(f"wrote {len(ds.traces)} traces, manifest {manifest}")
    return 0


def _cmd_kernels(args) -> int:
    bank = default_kernel_bank(bin_width=args.bin_width)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    bank.save(out)
    print(f"wrote kernel bank {out} (fingerprint {bank.fingerprint()})")
    return 0


def _cmd_featurize(args) -> int:
    config = _config_from_args(args)
    dataset, bank = load_inputs(config)
    matrix = featurize_dataset(dataset, bank, config.sigproc, config.feature_set)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_feature_csv(matrix, out)
    out.with_suffix(".schema.json").write_text(matrix.schema.to_json() + "\n")
    print(f"wrote {matrix.X.shape[0]}x{matrix.X.shape[1]} features to {out}")
    return 0


def _cmd_train(args) -> int:
    schema = FeatureSchema.from_json(read_input(args.schema))
    matrix = read_feature_csv(args.features, schema)
    model = GBDTClassifier(feature_names=list(schema.names))
    model.fit(matrix.X, matrix.labels)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(model.to_json() + "\n")
    print(f"wrote model {out} ({len(model.classes_)} classes)")
    return 0


def _cmd_evaluate(args) -> int:
    config = _config_from_args(args)
    report = run_attack_experiment(config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report(report, out_dir / "report.json")
    cv = report["cv"]
    rows = [
        dict(zip(["true_label", *cv["classes"]], [c, *counts]))
        for c, counts in zip(cv["classes"], cv["confusion"])
    ]
    write_csv(out_dir / "confusion.csv", rows)
    print(f"accuracy {cv['accuracy']:.4f} over {report['n_traces']} traces")
    print(f"report {out_dir / 'report.json'}")
    return 0


def _write_sweep(out_dir: str, kind: str, rows: list[dict]) -> int:
    path = Path(out_dir) / f"{kind}_sweep.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    write_csv(path, rows)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def _cmd_sweep_threshold(args) -> int:
    config = _config_from_args(args)
    rows = threshold_sweep(config, tuple(args.thresholds or DEFAULT_THRESHOLD_GRID))
    return _write_sweep(args.out_dir, "threshold", rows)


def _cmd_defend(args) -> int:
    config = _config_from_args(args)
    dataset = load_captures(config)
    if args.defense == "padding":
        defense = PaddingConfig(args.x)
    else:
        defense = modulation_preset(args.s_p, args.t_i, tail_dummies=args.tail_dummies)
    out_dir = Path(args.out_dir)
    manifest, overhead, max_latency = defend_dataset(
        dataset, defense, lambda defended: save_dataset((d.capture for d in defended), out_dir)
    )
    summary = {
        "config": defense.to_doc(),
        "traces": len(dataset.traces),
        "mean_overhead": overhead,
        "max_added_latency": max_latency,
    }
    (out_dir / "defense_summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {len(dataset.traces)} defended traces, manifest {manifest}")
    print(f"mean overhead {summary['mean_overhead']:.3f}, "
          f"max latency {summary['max_added_latency'] * 1000:.3f} ms")
    return 0


def _cmd_sweep_defense(args) -> int:
    rows = DEFENSE_SWEEPS[args.kind](_config_from_args(args))
    return _write_sweep(args.out_dir, args.kind, rows)


def _report_lines(path: Path, doc) -> list[str]:
    cv = doc["cv"]
    lines = [
        f"run: {path}",
        f"traces: {doc['n_traces']}  feature set: {doc['config']['feature_set']}",
        f"accuracy: {cv['accuracy']:.4f}",
        f"fold accuracies: {' '.join(f'{a:.3f}' for a in cv['fold_accuracies'])}",
        "confusion (true rows / predicted columns):",
    ]
    width = max(len(c) for c in cv["classes"])
    lines.append(" " * (width + 2) + "  ".join(f"{c[:10]:>10}" for c in cv["classes"]))
    for c, row in zip(cv["classes"], cv["confusion"]):
        lines.append(f"{c:>{width}}  " + "  ".join(f"{v:>10}" for v in row))
    lines.append("top features by split gain:")
    for item in doc["top_features"][:10]:
        lines.append(f"  {item['gain']:10.2f}  {item['name']}")
    return lines


def _cmd_report(args) -> int:
    path = Path(args.run_dir) / "report.json"
    doc = load_json(read_input(path), f"report {path}")
    try:
        lines = _report_lines(path, doc)
    except (KeyError, TypeError, ValueError) as e:
        raise InvalidConfig(f"bad report {path}: {e!r}") from None
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robofp",
        description="Robot-arm traffic fingerprinting toolkit: synthetic captures, "
        "signal-processing attack pipeline, and traffic-shaping defenses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic labeled dataset")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--samples-per-class", type=int, default=50)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("kernels", help="write the template kernel bank")
    p.add_argument("--out", default="kernels.json")
    p.add_argument("--bin-width", type=float, default=0.01)
    p.set_defaults(func=_cmd_kernels)

    p = sub.add_parser("featurize", help="feature CSV + schema for a dataset")
    _add_dataset_args(p)
    p.add_argument("--feature-set", choices=FEATURE_SETS, default="full")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_featurize)

    p = sub.add_parser("train", help="fit a model on a feature CSV")
    p.add_argument("--features", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="cross-validated attack run + report")
    _add_dataset_args(p)
    p.add_argument("--feature-set", choices=FEATURE_SETS, default="full")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep-threshold", help="accuracy per convolution threshold")
    _add_dataset_args(p)
    p.add_argument("--thresholds", type=float, nargs="*")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_sweep_threshold)

    p = sub.add_parser("defend", help="apply one defense to a dataset")
    _add_dataset_args(p)
    p.add_argument("--defense", choices=("padding", "modulation"), required=True)
    p.add_argument("--x", type=int, default=1, help="padding factor (padding)")
    p.add_argument("--s-p", type=int, default=200, help="dummy size (modulation)")
    p.add_argument(
        "--t-i", type=float, default=MODULATION_INTERVALS[1], help="send interval (modulation)"
    )
    p.add_argument("--tail-dummies", type=float, default=0.0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_defend)

    p = sub.add_parser("sweep-defense", help="defense grid: accuracy and overhead")
    _add_dataset_args(p)
    p.add_argument("--kind", choices=DEFENSE_SWEEPS, required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_sweep_defense)

    p = sub.add_parser("report", help="print a saved report")
    p.add_argument("--run-dir", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except RobofpError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
