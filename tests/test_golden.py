"""Golden outputs: every file that twelve robofp commands write, pinned by SHA-256.

The commands run in-process through ``cli()`` on seed 42 with 8 captures
per class and 2 folds, each into its own directory: ``generate``;
``featurize`` of the full and the summary set on generated captures, and of
the full set on the saved manifest; ``kernels``, the template bank file;
``train`` on the generated captures' full feature CSV and schema;
``evaluate``; ``defend`` with padding
x = 2 and with modulation at s_p = 500 B, t_i = 1 ms; ``sweep-threshold``;
and ``sweep-defense`` of both kinds.  ``golden.json`` maps each output
file's path to its SHA-256; a report is pinned through ``report_digest``,
which leaves out its created_at stamp.

Only a change meant to change an output may rewrite ``golden.json``, with
``python tests/record_golden.py``, and it says so.
"""

import hashlib
import json
from pathlib import Path

import pytest

from robofp.cli import cli
from robofp.harness import ExperimentConfig, report_digest

GOLDEN = Path(__file__).with_name("golden.json")
SEED, PER_CLASS, FOLDS = 42, 8, 2


def _config(path: Path, **kw) -> str:
    config = ExperimentConfig(seed=SEED, samples_per_class=PER_CLASS, n_folds=FOLDS, **kw)
    path.write_text(config.to_json())
    return str(path)


def commands(root: Path) -> dict[str, list[str]]:
    """The twelve commands by output directory, in run order; configs go to
    ``root``, each command's files to ``root/out/<name>``."""
    out = root / "out"
    generated = _config(root / "generated.json")
    summary = _config(root / "summary.json", feature_set="summary")
    saved = _config(root / "saved.json", manifest=str(out / "generate" / "manifest.csv"))
    defend = ["defend", "--config", generated, "--defense"]
    return {
        "generate": ["generate", "--seed", str(SEED), "--samples-per-class", str(PER_CLASS),
                     "--out-dir", str(out / "generate")],
        "featurize_full": ["featurize", "--config", generated,
                           "--out", str(out / "featurize_full" / "features.csv")],
        "featurize_summary": ["featurize", "--config", summary,
                              "--out", str(out / "featurize_summary" / "features.csv")],
        "featurize_manifest": ["featurize", "--config", saved,
                               "--out", str(out / "featurize_manifest" / "features.csv")],
        "kernels": ["kernels", "--out", str(out / "kernels" / "kernels.json")],
        "train": ["train", "--features", str(out / "featurize_full" / "features.csv"),
                  "--schema", str(out / "featurize_full" / "features.schema.json"),
                  "--out", str(out / "train" / "model.json")],
        "evaluate": ["evaluate", "--config", generated, "--out-dir", str(out / "evaluate")],
        "defend_padding": [*defend, "padding", "--x", "2",
                           "--out-dir", str(out / "defend_padding")],
        "defend_modulation": [*defend, "modulation", "--s-p", "500", "--t-i", "0.001",
                              "--out-dir", str(out / "defend_modulation")],
        "sweep_threshold": ["sweep-threshold", "--config", generated,
                            "--out-dir", str(out / "sweep_threshold")],
        "sweep_padding": ["sweep-defense", "--config", generated, "--kind", "padding",
                          "--out-dir", str(out / "sweep_padding")],
        "sweep_modulation": ["sweep-defense", "--config", generated, "--kind", "modulation",
                             "--out-dir", str(out / "sweep_modulation")],
    }


def output_hashes(root: Path) -> dict[str, str]:
    """Run the twelve commands under ``root``; each output file's path below
    ``root/out`` mapped to its SHA-256, or a report's to its ``report_digest``."""
    for name, argv in commands(root).items():
        assert cli(argv) == 0, name
    hashes = {}
    for path in sorted((root / "out").rglob("*")):
        if not path.is_file():
            continue
        key = path.relative_to(root / "out").as_posix()
        if path.name == "report.json":
            hashes[key] = report_digest(json.loads(path.read_text()))
        else:
            hashes[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    return root, output_hashes(root)


def test_outputs_match_golden(golden_run):
    _, hashes = golden_run
    golden = json.loads(GOLDEN.read_text())
    assert sorted(hashes) == sorted(golden)
    changed = [key for key in golden if hashes[key] != golden[key]]
    assert not changed, f"outputs differ from golden.json: {changed}"


def test_manifest_run_features_equal_generated(golden_run):
    root, _ = golden_run
    generated = root / "out" / "featurize_full" / "features.csv"
    manifest = root / "out" / "featurize_manifest" / "features.csv"
    assert manifest.read_bytes() == generated.read_bytes()
