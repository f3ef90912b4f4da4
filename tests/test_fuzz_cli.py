"""Every robofp subcommand exits 0, 1 or 2 without a traceback, whatever it reads.

Each example runs one subcommand on tiny files drawn for it: a config, trace
CSVs, a manifest, a kernel bank, a schema, a feature CSV and a report, plus
a model as one of the documents any slot may receive.  A file is either well
formed, well formed with one field set to an edge value, another kind's
document, or junk bytes; a kernel bank may also be well formed with every
value times 10**k.  The well-formed documents are made at a drawn sigproc
bin width, the config's and the bank's alike, so runs featurize at 10, 5
and 1 ms bins.  Well-formed runs stay small: 2 traces per class from
traces under 0.2 s, 2 folds and at most 2 boosting rounds.
"""

import contextlib
import io
import json
import math
import shutil
import time
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robofp.classifier import MAX_DEPTH, MAX_ROUNDS, GBDTParams
from robofp.cli import cli
from robofp.features import SigprocConfig
from robofp.harness import MAX_FOLDS, ExperimentConfig
from robofp.trace import ActionLabel

COMMANDS = ["generate", "kernels", "featurize", "train", "evaluate", "sweep-threshold",
            "defend", "sweep-defense", "report"]
# slot -> (file name, kind of the well-formed document written there)
SLOTS = {
    "config": ("config.json", "config"),
    "bank": ("bank.json", "bank"),
    "manifest": ("manifest.csv", "manifest"),
    "trace_a": ("a.csv", "trace"),
    "trace_b": ("b.csv", "trace"),
    "schema": ("schema.json", "schema"),
    "features": ("features.csv", "features"),
    "report": ("run/report.json", "report"),
}
KINDS = ["config", "bank", "manifest", "trace", "schema", "features", "model", "report"]
# sigproc bin widths of the well-formed config and bank
BIN_WIDTHS = (0.01, 0.005, 0.001)
CSV_KINDS = {"manifest", "trace", "features"}

TRACE = b"t,dir,size\n0.000000,1,100\n0.050000,-1,60\n0.100000,1,900\n0.150000,-1,60\n"
# two rows per label, spread over the two drawn trace files and one good one
MANIFEST = "path,label\n" + "".join(
    f"{name},{label.value}\n"
    for label, names in zip(ActionLabel, [("a.csv", "b.csv"), ("g.csv", "a.csv"),
                                          ("b.csv", "g.csv"), ("g.csv", "a.csv")])
    for name in names
)

KEYS = sorted(
    {f.name for cls in (ExperimentConfig, SigprocConfig, GBDTParams) for f in fields(cls)}
    | {"names", "config", "kernel_fingerprint", "version", "fingerprint", "kind", "values",
       "source_id", "model", "params", "classes", "trees", "gain", "cv", "accuracy",
       "fold_accuracies", "confusion", "top_features", "n_traces", "unknown"}
)
# 20,001, 10**12, MAX_DEPTH + 1 and MAX_FOLDS + 1 lie past the n_rounds,
# samples_per_class, max_depth and n_folds bounds; 1e-300 is below the
# generated-data bin_width floor
VALUES = st.sampled_from([None, True, False, 0, -1, 2, 2.5, 1e300, 1e-300, math.nan, math.inf,
                          "", "x", "PressKey", [], {}, [1.5], {"x": 1}, 20_001, 10**12,
                          MAX_DEPTH + 1, MAX_FOLDS + 1])
FRAGMENTS = st.sampled_from(["", "x", "0", "-1", "2", "nan", "inf", "1e400", "0.5", "1501",
                             "PressKey", "Nope", "a.csv", "missing.csv", ".", "\r", '"'])
OTHER = st.tuples(st.just("other"), st.sampled_from(KINDS))
JUNK = st.tuples(st.just("junk"), st.binary(max_size=40))
GOOD = st.just(("good",))
JSON_RECIPE = GOOD | st.tuples(st.just("set"), st.sampled_from(KEYS), VALUES) | OTHER | JUNK
CSV_RECIPE = (
    GOOD
    | st.tuples(st.just("cell"), st.integers(0, 9), st.integers(0, 80), FRAGMENTS)
    | st.tuples(st.just("drop"), st.integers(0, 9))
    | OTHER
    | JUNK
)
# a kernel bank with every value times 10**k: scan responses near float range
BANK_RECIPE = JSON_RECIPE | st.tuples(st.just("scale"), st.integers(-150, 150))
RECIPES = st.fixed_dictionaries({
    slot: CSV_RECIPE if kind in CSV_KINDS else BANK_RECIPE if kind == "bank" else JSON_RECIPE
    for slot, (_, kind) in SLOTS.items()
})
# argparse accepts every value here but the "usage" ones, which it refuses (exit 2)
FLAG_CHOICES = {
    "use_config": [True, False],
    "seed": ["0", "3", "-1"],
    "samples": ["1", "2", "0", "-1", "10001", "1000000000000"],
    "bin_width": ["0.01", "0.05", "0.5", "0.001", "0.0001", "0", "-1", "nan", "inf", "1e-300"],
    "feature_set": ["full", "command", "summary"],
    "thresholds": [["0.9"], ["0", "1.3"], [], ["-1"], ["nan"]],
    "defense": ["padding", "modulation"],
    "x": ["1", "3", "0", "11"],
    "s_p": ["100", "1500", "0", "1501"],
    "t_i": ["0.01", "0.001", "0.0001", "0", "1e-7", "nan", "inf", "1e300"],
    "tail": ["0", "0.05", "-1", "nan", "inf", "1e300", "1e308"],
    "kind": ["padding", "modulation"],
    "usage": [[], [], [], ["--seed", "x"], ["--no-such-flag"], ["--feature-set", "nope"],
              ["--workers", "2"]],
}
FLAGS = st.fixed_dictionaries({k: st.sampled_from(v) for k, v in FLAG_CHOICES.items()})
DEFAULT_FLAGS = {k: v[0] for k, v in FLAG_CHOICES.items()}
ALL_GOOD = {slot: ("good",) for slot in SLOTS}


def _quiet_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Well-formed documents of every kind per bin width, made by the CLI from
    the tiny manifest."""
    d = tmp_path_factory.mktemp("fuzz_cli")
    (d / "run").mkdir()
    for name in ("a.csv", "b.csv", "g.csv"):
        (d / name).write_bytes(TRACE)
    (d / "manifest.csv").write_text(MANIFEST)
    goods = {}
    for width in BIN_WIDTHS:
        config = ExperimentConfig(
            samples_per_class=2, n_folds=2, classifier=GBDTParams(n_rounds=2, max_depth=2),
            manifest=str(d / "manifest.csv"), kernel_bank_path=str(d / "bank.json"),
            sigproc=SigprocConfig(bin_width=width),
        )
        (d / "config.json").write_text(config.to_json())
        c = str(d / "config.json")
        for argv in (["kernels", "--out", str(d / "bank.json"), "--bin-width", str(width)],
                     ["featurize", "--config", c, "--out", str(d / "features.csv")],
                     ["train", "--features", str(d / "features.csv"),
                      "--schema", str(d / "features.schema.json"),
                      "--out", str(d / "model.json")],
                     ["evaluate", "--config", c, "--out-dir", str(d / "run")]):
            assert _quiet_cli(argv)[0] == 0, argv
        (d / "features.schema.json").replace(d / "schema.json")
        good = {kind: (d / SLOTS[slot][0]).read_bytes() for slot, (_, kind) in SLOTS.items()}
        good["model"] = (d / "model.json").read_bytes()
        goods[width] = good
    return d, goods


def _set_key(doc, key, value):
    """Set ``key`` wherever a nested object holds it; add it at the top when none does."""
    found, stack = False, [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            if key in node:
                node[key], found = value, True
            stack.extend(v for k, v in node.items() if k != key)
        elif isinstance(node, list):
            stack.extend(node)
    if not found and isinstance(doc, dict):
        doc[key] = value
    return doc


def _apply(recipe, good: dict, kind: str) -> bytes:
    op, *args = recipe
    if op == "good":
        return good[kind]
    if op == "other":
        return good[args[0]]
    if op == "junk":
        return args[0]
    if op == "set":
        return json.dumps(_set_key(json.loads(good[kind]), *args)).encode()
    if op == "scale":
        bank = json.loads(good[kind])
        for kernel in bank:
            kernel["values"] = [v * 10.0 ** args[0] for v in kernel["values"]]
        return json.dumps(bank).encode()
    lines = good[kind].decode().split("\n")
    row = args[0] % len(lines)
    if op == "drop":
        del lines[row]
    elif op == "cell":
        cells = lines[row].split(",")
        cells[args[1] % len(cells)] = args[2]
        lines[row] = ",".join(cells)
    return "\n".join(lines).encode()


def _write_slots(d, good: dict, recipes: dict = ALL_GOOD) -> None:
    """Write every slot file, by default the well-formed one: the fuzz
    examples leave malformed documents behind in the shared directory."""
    for slot, (name, kind) in SLOTS.items():
        (d / name).write_bytes(_apply(recipes[slot], good, kind))


def _argv(command: str, flags: dict, d) -> list[str]:
    out = str(d / "out")
    data = (["--config", str(d / "config.json")] if flags["use_config"] else
            ["--seed", flags["seed"], "--samples-per-class", flags["samples"],
             "--manifest", str(d / "manifest.csv")])
    return {
        "generate": ["--seed", flags["seed"], "--samples-per-class", flags["samples"],
                     "--out-dir", out],
        "kernels": ["--out", str(d / "out" / "bank.json"), "--bin-width", flags["bin_width"]],
        "featurize": [*data, "--feature-set", flags["feature_set"], "--out",
                      str(d / "out" / "features.csv")],
        "train": ["--features", str(d / "features.csv"), "--schema", str(d / "schema.json"),
                  "--out", str(d / "out" / "model.json")],
        "evaluate": [*data, "--out-dir", out],
        "sweep-threshold": [*data, "--thresholds", *flags["thresholds"], "--out-dir", out],
        "defend": [*data, "--defense", flags["defense"], "--x", flags["x"], "--s-p",
                   flags["s_p"], "--t-i", flags["t_i"], "--tail-dummies", flags["tail"],
                   "--out-dir", out],
        "sweep-defense": [*data, "--kind", flags["kind"], "--out-dir", out],
        "report": ["--run-dir", str(d / "run")],
    }[command]


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(COMMANDS), flags=FLAGS, recipes=RECIPES,
       width=st.sampled_from(BIN_WIDTHS))
@example(command="evaluate", flags=DEFAULT_FLAGS,
         recipes={**ALL_GOOD, "config": ("set", "n_rounds", 2.5)}, width=0.01)
@example(command="sweep-defense", flags={**DEFAULT_FLAGS, "kind": "modulation"},
         recipes={**ALL_GOOD, "config": ("set", "tail_dummies", "x")}, width=0.01)
@example(command="defend", flags={**DEFAULT_FLAGS, "defense": "modulation", "t_i": "nan"},
         recipes=ALL_GOOD, width=0.01)
@example(command="defend", flags={**DEFAULT_FLAGS, "defense": "modulation", "tail": "1e308"},
         recipes=ALL_GOOD, width=0.01)
@example(command="defend", flags={**DEFAULT_FLAGS, "defense": "modulation", "t_i": "1e300"},
         recipes=ALL_GOOD, width=0.01)
@example(command="sweep-defense", flags={**DEFAULT_FLAGS, "kind": "modulation"},
         recipes={**ALL_GOOD, "config": ("set", "tail_dummies", 1e308)}, width=0.01)
@example(command="evaluate", flags=DEFAULT_FLAGS,
         recipes={**ALL_GOOD, "config": ("set", "n_rounds", 10**12)}, width=0.01)
@example(command="report", flags=DEFAULT_FLAGS,
         recipes={**ALL_GOOD, "report": ("junk", b"[" * 5000)}, width=0.01)
@example(command="featurize", flags=DEFAULT_FLAGS, recipes=ALL_GOOD, width=0.001)
@example(command="featurize", flags=DEFAULT_FLAGS, recipes={**ALL_GOOD, "bank": ("scale", -120)},
         width=0.01)
def test_cli_exits_cleanly(workdir, command, flags, recipes, width):
    d, goods = workdir
    shutil.rmtree(d / "out", ignore_errors=True)
    _write_slots(d, goods[width], recipes)
    code, err = _quiet_cli([command, *_argv(command, flags, d), *flags["usage"]])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@pytest.mark.parametrize("n_rounds", [MAX_ROUNDS + 1, 10**12, 2**63])
def test_oversize_n_rounds_exits_1_at_once(workdir, n_rounds):
    d, goods = workdir
    _write_slots(d, goods[0.01])
    config = _set_key(json.loads(goods[0.01]["config"]), "n_rounds", n_rounds)
    (d / "config.json").write_text(json.dumps(config))
    start = time.perf_counter()
    code, err = _quiet_cli(["evaluate", "--config", str(d / "config.json"),
                            "--out-dir", str(d / "out")])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert f"n_rounds must be <= {MAX_ROUNDS}, got {n_rounds}" in err


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"max_depth": MAX_DEPTH + 1}, f"max_depth must be <= {MAX_DEPTH}, got {MAX_DEPTH + 1}"),
        ({"max_depth": 10**12}, f"max_depth must be <= {MAX_DEPTH}, got {10**12}"),
        ({"n_folds": MAX_FOLDS + 1}, f"n_folds must lie in [2, {MAX_FOLDS}], got {MAX_FOLDS + 1}"),
        ({"n_folds": 10**12}, f"n_folds must lie in [2, {MAX_FOLDS}], got {10**12}"),
        # generated data, with the default kernel bank: 2 captures per class
        # cannot fill 3 folds
        ({"manifest": None, "kernel_bank_path": None, "n_folds": 3},
         "class 'PickAndPlace' has 2 samples, fewer than 3 folds; "
         "n_folds must not exceed any class's sample count"),
        ({"manifest": None, "bin_width": 1e-300},
         "sigproc.bin_width must be at least about 1.75e-06 s for generated captures"),
        ({"manifest": None, "bin_width": 1e-6},
         "sigproc.bin_width must be at least about 1.75e-06 s for generated captures"),
    ],
)
def test_oversize_config_fields_exit_1_at_once(workdir, edit, message):
    d, goods = workdir
    _write_slots(d, goods[0.01])
    config = json.loads(goods[0.01]["config"])
    for key, value in edit.items():
        config = _set_key(config, key, value)
    (d / "config.json").write_text(json.dumps(config))
    start = time.perf_counter()
    code, err = _quiet_cli(["evaluate", "--config", str(d / "config.json"),
                            "--out-dir", str(d / "out")])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert message in err
