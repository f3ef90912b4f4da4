import argparse
import json
import re
import shlex
import time
import warnings
import weakref
from pathlib import Path

import pytest

from conftest import cli_peak_kb
from robofp import errors, harness, synthgen, trace
from robofp.classifier import GBDTClassifier, GBDTParams
from robofp.cli import build_parser, cli
from robofp.features import SigprocConfig, make_schema
from robofp.harness import ExperimentConfig, padding_sweep, write_csv
from robofp.sigproc import CommandKind, Kernel, KernelBank
from robofp.defenses import SlotPlan, apply_defense, modulation_preset
from robofp.synthgen import GenConfig, default_kernel_bank, gen_dataset
from robofp.trace import write_trace_csv

FAST_CFG = ExperimentConfig(
    seed=5,
    samples_per_class=10,
    n_folds=5,
    classifier=GBDTParams(n_rounds=15, max_depth=3),
)


@pytest.fixture()
def fast_config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(FAST_CFG.to_json())
    return str(path)


def test_usage_errors_exit_2(capsys):
    assert cli([]) == 2
    assert cli(["teleport"]) == 2
    assert cli(["generate"]) == 2  # missing --out-dir
    # sweep points run in one thread; there is no --workers flag
    assert cli(["sweep-threshold", "--workers", "2", "--out-dir", "o"]) == 2
    assert cli(["sweep-defense", "--kind", "padding", "--workers", "2", "--out-dir", "o"]) == 2
    assert cli(["sweep-defense", "--kind", "teleport", "--out-dir", "o"]) == 2
    capsys.readouterr()


def test_readme_commands_parse():
    # every `robofp ...` line of README's sh blocks, continuation lines joined
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    lines = "".join(re.findall(r"```sh\n(.*?)```", readme, re.S)).replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in lines.split("\n") if line.startswith("robofp ")]
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: robofp {shlex.join(argv)}")
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in commands} == set(sub.choices)  # every subcommand is shown


def test_readme_library_block_runs(tmp_path, monkeypatch, capsys):
    # the seed-42 attack run prints the report digest whose prefix c09 pins
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.split()[-1].startswith("0531a5e4c5371002")


def test_generate_writes_dataset(tmp_path, capsys):
    out = tmp_path / "data"
    assert cli(["generate", "--seed", "3", "--samples-per-class", "2",
                "--out-dir", str(out)]) == 0
    manifest = out / "manifest.csv"
    assert manifest.is_file()
    assert len(manifest.read_text().strip().split("\n")) == 9  # header + 8 traces
    assert len(list(out.glob("*.csv"))) == 9
    assert "manifest" in capsys.readouterr().out


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="needs Linux's VmHWM")
@pytest.mark.parametrize(
    "command",
    [
        ["generate", "--out-dir", "{out}"],
        ["featurize", "--feature-set", "summary", "--out", "{out}/features.csv"],
        ["defend", "--defense", "padding", "--x", "1", "--out-dir", "{out}"],
    ],
    ids=lambda command: command[0],
)
def test_one_pass_command_holds_one_capture_at_a_time(tmp_path, command):
    """Ten times the generated captures peak within 3 MB: a one-pass
    command makes, uses and drops each in turn (1,000 held captures would
    take about 8.5 MB)."""
    peak_kb = {}
    for n in (25, 250):
        args = [arg.format(out=tmp_path / str(n)) for arg in command]
        out, peak_kb[n] = cli_peak_kb(*args, "--seed", "42", "--samples-per-class", str(n))
        assert f"wrote {4 * n}" in out
    assert peak_kb[250] - peak_kb[25] <= 3 * 1024, peak_kb


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="needs Linux's VmHWM")
def test_modulation_defend_peaks_as_padding_does(tmp_path):
    """A modulated capture is written from its slot plan a chunk at a time:
    at t_i = 0.05 ms (0.47M to 1.17M wire packets per seed-42 capture) ``defend``
    peaks within 2 MB of padding the same captures."""
    peak_kb = {}
    for name, defense in (
        ("padding", ["--defense", "padding", "--x", "2"]),
        ("modulation", ["--defense", "modulation", "--s-p", "500", "--t-i", "0.00005"]),
    ):
        out, peak_kb[name] = cli_peak_kb("defend", *defense, "--out-dir", str(tmp_path / name),
                                         "--seed", "42", "--samples-per-class", "1")
        assert "wrote 4" in out
    assert peak_kb["modulation"] - peak_kb["padding"] <= 2 * 1024, peak_kb


def test_generate_negative_seed_exits_1(tmp_path, capsys):
    assert cli(["generate", "--seed", "-1", "--out-dir", str(tmp_path / "data")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed" in err and "Traceback" not in err


def test_generate_oversize_samples_per_class_exits_1_at_once(tmp_path, capsys):
    start = time.perf_counter()
    _assert_exit_1(["generate", "--samples-per-class", "1000000000000",
                    "--out-dir", str(tmp_path / "data")], capsys, "samples_per_class", "10000")
    assert time.perf_counter() - start < 1.0
    assert not (tmp_path / "data").exists()


def test_kernels_subcommand(tmp_path, capsys):
    out = tmp_path / "kernels.json"
    assert cli(["kernels", "--out", str(out)]) == 0
    assert isinstance(json.loads(out.read_text()), list)
    capsys.readouterr()


def test_featurize_then_train(tmp_path, capsys):
    features = tmp_path / "features.csv"
    assert cli(["featurize", "--seed", "3", "--samples-per-class", "3",
                "--out", str(features)]) == 0
    schema = features.with_suffix(".schema.json")
    assert schema.is_file()
    assert features.read_text().startswith("trace_id,label,")

    model_path = tmp_path / "model.json"
    assert cli(["train", "--features", str(features), "--schema", str(schema),
                "--out", str(model_path)]) == 0
    model = GBDTClassifier.from_json(model_path.read_text())
    assert len(model.classes_) == 4
    capsys.readouterr()


def test_train_runtime_error_exits_1(tmp_path, capsys):
    schema = tmp_path / "schema.json"
    schema.write_text("{}")
    assert cli(["train", "--features", "missing.csv", "--schema", str(schema),
                "--out", str(tmp_path / "m.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_train_ragged_feature_csv_exits_1(tmp_path, capsys):
    features = tmp_path / "features.csv"
    assert cli(["featurize", "--seed", "3", "--samples-per-class", "2",
                "--feature-set", "summary", "--out", str(features)]) == 0
    lines = features.read_text().split("\n")
    lines[3] = lines[3].rsplit(",", 1)[0]
    features.write_text("\n".join(lines))
    assert cli(["train", "--features", str(features),
                "--schema", str(features.with_suffix(".schema.json")),
                "--out", str(tmp_path / "m.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "(line 4)" in err


def test_train_non_finite_feature_exits_1(tmp_path, capsys):
    features = tmp_path / "features.csv"
    assert cli(["featurize", "--seed", "3", "--samples-per-class", "2",
                "--feature-set", "summary", "--out", str(features)]) == 0
    lines = features.read_text().split("\n")
    fields = lines[3].split(",")
    fields[4] = "inf"  # third feature column of the third trace
    lines[3] = ",".join(fields)
    features.write_text("\n".join(lines))
    assert cli(["train", "--features", str(features),
                "--schema", str(features.with_suffix(".schema.json")),
                "--out", str(tmp_path / "m.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "column 2" in err and "non-finite" in err
    assert not (tmp_path / "m.json").exists()


def _manifest(tmp_path, trace_csv: bytes):
    (tmp_path / "a.csv").write_bytes(trace_csv)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,label\na.csv,PressKey\n")
    return str(manifest)


def _assert_exit_1(argv, capsys, *needles):
    assert cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    for needle in needles:
        assert needle in err


def test_both_regularizers_at_zero_refused(tmp_path, capsys):
    # a split gain could divide by a zero hessian sum
    unregularized = {"reg_lambda": 0.0, "min_child_weight": 0.0}
    with pytest.raises(errors.InvalidConfig, match="cannot both be 0"):
        GBDTParams(**unregularized)
    with pytest.raises(errors.InvalidConfig, match="cannot both be 0"):
        ExperimentConfig.from_doc({"classifier": unregularized})
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"classifier": unregularized}))
    _assert_exit_1(["evaluate", "--config", str(config), "--out-dir", str(tmp_path / "out")],
                   capsys, "cannot both be 0")
    assert not (tmp_path / "out").exists()


def test_featurize_non_utf8_trace_exits_1(tmp_path, capsys):
    manifest = _manifest(tmp_path, b"t,dir,size\n0.0,1,100\n0.5,-1,6\xff\n")
    _assert_exit_1(["featurize", "--manifest", manifest, "--out", str(tmp_path / "f.csv")],
                   capsys, "not UTF-8", "(line 3)")


def test_featurize_bad_capture_field_names_the_file(tmp_path, capsys):
    manifest = _manifest(tmp_path, b"t,dir,size\n0.0,1,100\n0.5,-1,x\n")
    _assert_exit_1(["featurize", "--manifest", manifest, "--out", str(tmp_path / "f.csv")],
                   capsys, f"{str(tmp_path / 'a.csv')!r}: bad size 'x' (line 3)")


@pytest.mark.parametrize(
    "bank_width, edit, needle",
    [(0.01, "nan", "non-finite"), (0.05, None, "bin_width 0.05"),
     (0.01, "non_utf8", "can't decode byte 0xff")],
    ids=["nan_value", "other_bin_width", "non_utf8"],
)
def test_featurize_bad_kernel_bank_exits_1(tmp_path, capsys, bank_width, edit, needle):
    bank = tmp_path / "kernels.json"
    assert cli(["kernels", "--out", str(bank), "--bin-width", str(bank_width)]) == 0
    if edit == "nan":
        doc = json.loads(bank.read_text())
        doc[0]["values"][0] = float("nan")
        bank.write_text(json.dumps(doc))
    if edit == "non_utf8":
        bank.write_bytes(bank.read_bytes().replace(b"template", b"templ\xffte", 1))
    manifest = _manifest(tmp_path, b"t,dir,size\n0.0,1,100\n0.5,-1,60\n")
    config = tmp_path / "config.json"
    config.write_text(ExperimentConfig(manifest=manifest, kernel_bank_path=str(bank)).to_json())
    _assert_exit_1(["featurize", "--config", str(config), "--out", str(tmp_path / "f.csv")],
                   capsys, needle)
    assert not (tmp_path / "f.csv").exists()


def test_featurize_bin_width_past_bin_count_exits_1(tmp_path, capsys):
    # a 0.5 s capture over 1e-320 s bins: the bin count overflows to inf
    bank = tmp_path / "kernels.json"
    KernelBank([Kernel(kind, 1e-320, [1.0, -1.0]) for kind in CommandKind]).save(bank)
    manifest = _manifest(tmp_path, b"t,dir,size\n0.0,1,100\n0.5,-1,60\n")
    config = tmp_path / "config.json"
    config.write_text(ExperimentConfig(manifest=manifest, kernel_bank_path=str(bank),
                                       sigproc=SigprocConfig(bin_width=1e-320)).to_json())
    _assert_exit_1(["featurize", "--config", str(config), "--out", str(tmp_path / "f.csv")],
                   capsys, "bins")


@pytest.mark.parametrize(
    "target, key, value",
    [("schema", "names", "ab"), ("schema", "feature_set", 5), ("schema", "version", "x"),
     ("schema", "kernel_fingerprint", [1]), ("bank", "bin_width", "0.01"),
     ("bank", "values", ["-650", True]), ("bank", "source_id", 5)],
)
def test_mistyped_document_field_exits_1(tmp_path, capsys, target, key, value):
    # each of these documents once loaded, its value converted or kept as it was
    if target == "schema":
        doc = json.loads(make_schema(default_kernel_bank()).to_json())
        del doc["fingerprint"]
        doc[key] = value
        path = tmp_path / "f.schema.json"
        argv = ["train", "--features", str(tmp_path / "f.csv"), "--schema", str(path),
                "--out", str(tmp_path / "m.json")]
    else:
        path = tmp_path / "kernels.json"
        assert cli(["kernels", "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        doc[0][key] = value
        manifest = _manifest(tmp_path, b"t,dir,size\n0.0,1,100\n0.5,-1,60\n")
        config = ExperimentConfig(manifest=manifest, kernel_bank_path=str(path))
        (tmp_path / "config.json").write_text(config.to_json())
        argv = ["featurize", "--config", str(tmp_path / "config.json"),
                "--out", str(tmp_path / "f.csv")]
    path.write_text(json.dumps(doc))
    _assert_exit_1(argv, capsys, f"{key} must be")


@pytest.mark.parametrize("target", ["config", "schema", "features"])
def test_non_utf8_input_file_exits_1(tmp_path, capsys, target):
    features = tmp_path / "features.csv"
    assert cli(["featurize", "--seed", "3", "--samples-per-class", "2",
                "--feature-set", "summary", "--out", str(features)]) == 0
    config = tmp_path / "config.json"
    config.write_text(FAST_CFG.to_json())
    paths = {"config": config, "schema": features.with_suffix(".schema.json"),
             "features": features}
    path = paths[target]
    path.write_bytes(path.read_bytes().replace(b"1", b"\xff", 1))
    if target == "config":
        argv = ["evaluate", "--config", str(config), "--out-dir", str(tmp_path / "run")]
    else:
        argv = ["train", "--features", str(features), "--schema", str(paths["schema"]),
                "--out", str(tmp_path / "m.json")]
    _assert_exit_1(argv, capsys, "can't decode byte 0xff")


@pytest.mark.parametrize(
    "edit, command, needle",
    [({"classifier": {"n_rounds": 2.5}}, "evaluate", "n_rounds must be an integer"),
     ({"tail_dummies": "x"}, "sweep-defense", "tail_dummies must be a finite number"),
     ({"retrain_on_defended": "no"}, "sweep-defense", "retrain_on_defended must be true or false"),
     ({"sigproc": {"merge_gap": float("nan")}}, "evaluate", "merge_gap must be a finite number"),
     ({"workers": 2}, "sweep-threshold", "workers must be 0 or 1")],
    ids=["float_n_rounds", "str_tail_dummies", "str_retrain", "nan_merge_gap", "two_workers"],
)
def test_mistyped_config_field_exits_1(tmp_path, capsys, edit, command, needle):
    manifest = _manifest(tmp_path, b"t,dir,size\n0.0,1,100\n0.5,-1,60\n")
    doc = {"samples_per_class": 2, "n_folds": 2, "manifest": manifest, **edit}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    extra = ["--kind", "modulation"] if command == "sweep-defense" else []
    _assert_exit_1([command, "--config", str(config), *extra, "--out-dir", str(tmp_path / "o")],
                   capsys, needle)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, value", [("--t-i", "nan"), ("--t-i", "inf"),
                                         ("--tail-dummies", "nan"), ("--tail-dummies", "inf")])
def test_defend_non_finite_modulation_flag_exits_1(tmp_path, capsys, flag, value):
    manifest = _manifest(tmp_path, b"t,dir,size\n0.0,1,100\n0.5,-1,60\n")
    _assert_exit_1(["defend", "--manifest", manifest, "--defense", "modulation", flag, value,
                    "--out-dir", str(tmp_path / "o")], capsys, "must be a finite number")


def test_featurize_empty_manifest_path_exits_1(tmp_path, capsys):
    # an empty path is a missing file, not a request to generate captures
    out = tmp_path / "features.csv"
    _assert_exit_1(["featurize", "--manifest", "", "--samples-per-class", "1",
                    "--out", str(out)], capsys, "no file at ''")
    assert not out.exists()


@pytest.mark.parametrize("argv, path", [
    (["featurize", "--config", "{tmp}/nope.json", "--out", "{tmp}/f.csv"], "{tmp}/nope.json"),
    (["train", "--schema", "{tmp}/nope.json", "--features", "{tmp}/f.csv",
      "--out", "{tmp}/m.json"], "{tmp}/nope.json"),
    (["report", "--run-dir", "{tmp}"], "{tmp}/report.json"),
    (["evaluate", "--config", "", "--out-dir", "{tmp}/o"], ""),
], ids=["config", "schema", "report", "empty_config"])
def test_missing_input_file_exits_1_quoting_it(tmp_path, capsys, argv, path):
    # a read of anything but a regular file names the path, not an OSError
    _assert_exit_1([a.format(tmp=tmp_path) for a in argv], capsys,
                   f"no file at {path.format(tmp=tmp_path)!r}")


def test_kernels_tiny_bin_width_exits_1(tmp_path, capsys):
    # 2.6 s at 1 ns would be 2.6e9 kernel bins; refused before allocating
    _assert_exit_1(["kernels", "--out", str(tmp_path / "k.json"), "--bin-width", "1e-9"],
                   capsys, "kernel bins")


def test_kernels_huge_bin_width_exits_1(tmp_path, capsys):
    # every position-kernel value is about 3e303 at this width, so its norm overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would fail the run
        _assert_exit_1(["kernels", "--out", str(tmp_path / "k.json"), "--bin-width", "1e300"],
                       capsys, "L2 norm past float range")


def test_featurize_fine_bin_width_over_scan_cap_exits_1(tmp_path, capsys):
    # about 300,000 bins of 0.1 ms per 30 s capture against the 7,500-bin
    # position kernel: refused by the scan cap before scanning
    config = tmp_path / "config.json"
    config.write_text(ExperimentConfig(
        samples_per_class=1, sigproc=SigprocConfig(bin_width=0.0001)).to_json())
    _assert_exit_1(["featurize", "--config", str(config), "--out", str(tmp_path / "f.csv")],
                   capsys, "multiply-adds")


def test_defend_modulation_over_slot_cap_exits_1(tmp_path, capsys):
    # 10 s at t_i = 1 us would be 10M slots per direction
    manifest = _manifest(tmp_path, b"t,dir,size\n0.0,1,100\n10.0,-1,60\n")
    _assert_exit_1(["defend", "--manifest", manifest, "--defense", "modulation",
                    "--t-i", "1e-6", "--out-dir", str(tmp_path / "out")], capsys, "slots")


def test_evaluate_and_report(tmp_path, fast_config_path, capsys):
    run_dir = tmp_path / "run"
    assert cli(["evaluate", "--config", fast_config_path, "--out-dir", str(run_dir)]) == 0
    report = json.loads((run_dir / "report.json").read_text())
    assert report["n_traces"] == 40
    confusion = (run_dir / "confusion.csv").read_text().strip().split("\n")
    assert confusion[0].startswith("true_label,")
    assert len(confusion) == 5
    capsys.readouterr()

    assert cli(["report", "--run-dir", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "accuracy" in out and "confusion" in out


def test_evaluate_reproducible(tmp_path, fast_config_path, capsys):
    for name in ("a", "b"):
        assert cli(["evaluate", "--config", fast_config_path,
                    "--out-dir", str(tmp_path / name)]) == 0
    docs = [json.loads((tmp_path / n / "report.json").read_text()) for n in ("a", "b")]
    for d in docs:
        d.pop("created_at")
    assert docs[0] == docs[1]
    capsys.readouterr()


def test_report_on_missing_run_exits_1(tmp_path, capsys):
    assert cli(["report", "--run-dir", str(tmp_path / "nothing")]) == 1
    assert "error" in capsys.readouterr().err


def test_report_on_invalid_json_exits_1(tmp_path, capsys):
    (tmp_path / "report.json").write_text("{not json")
    assert cli(["report", "--run-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_report_deeply_nested_json_exits_1(tmp_path, capsys):
    (tmp_path / "report.json").write_text("[" * 5000)
    assert cli(["report", "--run-dir", str(tmp_path)]) == 1
    assert "recursion" in capsys.readouterr().err


def test_report_missing_key_exits_1(tmp_path, capsys):
    (tmp_path / "report.json").write_text(json.dumps({"n_traces": 40}))
    assert cli(["report", "--run-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'cv'" in err


@pytest.mark.parametrize("command", [["evaluate"], ["sweep-threshold"],
                                     ["sweep-defense", "--kind", "padding"]])
def test_too_many_folds_for_a_manifest_exits_1_before_reading_a_capture(
    tmp_path, capsys, monkeypatch, command
):
    # two captures per class cannot fill the default 10 folds; the rows say
    # so before any trace file is opened
    assert cli(["generate", "--seed", "3", "--samples-per-class", "2",
                "--out-dir", str(tmp_path / "data")]) == 0
    opened = []
    monkeypatch.setattr(trace, "read_trace", lambda path, *args: opened.append(path))
    _assert_exit_1([*command, "--manifest", str(tmp_path / "data" / "manifest.csv"),
                    "--out-dir", str(tmp_path / "o")], capsys, "fewer than 10 folds", "n_folds")
    assert opened == []
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [["evaluate"], ["sweep-threshold"],
                                     ["sweep-defense", "--kind", "padding"]])
def test_bank_at_other_bin_width_exits_1_before_making_a_capture(
    tmp_path, capsys, monkeypatch, command
):
    bank = tmp_path / "kernels.json"
    assert cli(["kernels", "--out", str(bank), "--bin-width", "0.05"]) == 0
    config = tmp_path / "config.json"
    config.write_text(ExperimentConfig(kernel_bank_path=str(bank)).to_json())
    made = []
    gen_action = synthgen.gen_action
    monkeypatch.setattr(synthgen, "gen_action",
                        lambda *a, **k: made.append(1) or gen_action(*a, **k))
    _assert_exit_1([*command, "--config", str(config), "--out-dir", str(tmp_path / "o")],
                   capsys, "bin_width 0.05")
    assert made == []
    assert not (tmp_path / "o").exists()


def test_defend_loads_no_kernel_bank(tmp_path, capsys):
    # defending never scans, so a config naming no bank file still defends
    config = tmp_path / "config.json"
    config.write_text(ExperimentConfig(seed=3, samples_per_class=1,
                                       kernel_bank_path=str(tmp_path / "no_bank.json")).to_json())
    out = tmp_path / "defended"
    assert cli(["defend", "--config", str(config), "--defense", "padding", "--x", "2",
                "--out-dir", str(out)]) == 0
    assert json.loads((out / "defense_summary.json").read_text())["traces"] == 4
    capsys.readouterr()


def test_defend_padding(tmp_path, capsys):
    out = tmp_path / "defended"
    assert cli(["defend", "--seed", "3", "--samples-per-class", "2",
                "--defense", "padding", "--x", "5", "--out-dir", str(out)]) == 0
    summary = json.loads((out / "defense_summary.json").read_text())
    assert summary["config"] == {"type": "padding", "x": 5}
    assert summary["traces"] == 8
    assert summary["mean_overhead"] > 0
    assert (out / "manifest.csv").is_file()
    # the same figure the padding sweep reports for these traces
    cfg = ExperimentConfig(seed=3, samples_per_class=2, n_folds=2,
                           classifier=GBDTParams(n_rounds=15, max_depth=3))
    assert summary["mean_overhead"] == padding_sweep(cfg, (5,))[0]["overhead"]
    capsys.readouterr()


def test_defend_modulation(tmp_path, capsys):
    out = tmp_path / "defended"
    assert cli(["defend", "--seed", "3", "--samples-per-class", "1",
                "--defense", "modulation", "--s-p", "150", "--t-i", "0.01",
                "--out-dir", str(out)]) == 0
    summary = json.loads((out / "defense_summary.json").read_text())
    assert summary["config"]["type"] == "modulation"
    assert summary["config"]["s_p"] == 150
    assert summary["max_added_latency"] <= 0.02
    capsys.readouterr()


def test_defend_modulation_writes_wire_packets_without_building_them(
    tmp_path, capsys, monkeypatch
):
    out = tmp_path / "defended"
    argv = ["defend", "--seed", "3", "--samples-per-class", "1", "--defense", "modulation",
            "--s-p", "150", "--t-i", "0.001", "--out-dir", str(out)]
    with monkeypatch.context() as patch:
        patch.setattr(SlotPlan, "wire_packets", lambda plan: pytest.fail("wire packets built"))
        assert cli(argv) == 0
    defense = modulation_preset(150, 0.001)
    for capture in gen_dataset(GenConfig(seed=3, samples_per_class=1)).traces:
        written = (out / f"{capture.trace_id}.csv").read_bytes()
        assert written == write_trace_csv(apply_defense(capture, defense).trace)
    capsys.readouterr()


def test_defend_refuses_two_traces_of_one_name(tmp_path, capsys):
    # both rows load as trace "x"; the second would overwrite the first's file
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "x.csv").write_bytes(b"t,dir,size\n0.000000,1,60\n0.500000,-1,90\n")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,label\na/x.csv,PickAndPlace\nb/x.csv,PourWater\n")
    out = tmp_path / "out"
    _assert_exit_1(["defend", "--manifest", str(manifest), "--defense", "padding",
                    "--out-dir", str(out)], capsys, "two traces", "x.csv")
    assert not (out / "manifest.csv").exists()


def test_defend_writes_each_trace_as_it_is_made(tmp_path, capsys, monkeypatch):
    # weak references to every DefendedTrace and its wire packets: when the
    # next trace is defended, at most the previous one may still be alive
    made, alive_at_call = [], []
    apply = harness.apply_defense

    def tracked(trace, defense):
        alive_at_call.append(sum(any(r() is not None for r in refs) for refs in made))
        result = apply(trace, defense)
        made.append((weakref.ref(result), weakref.ref(result.trace)))
        return result

    monkeypatch.setattr(harness, "apply_defense", tracked)
    out = tmp_path / "defended"
    assert cli(["defend", "--seed", "3", "--samples-per-class", "2", "--defense", "modulation",
                "--s-p", "500", "--t-i", "0.001", "--out-dir", str(out)]) == 0
    assert len(alive_at_call) == 8 and max(alive_at_call) <= 1
    assert len((out / "manifest.csv").read_text().splitlines()) == 1 + 8
    assert json.loads((out / "defense_summary.json").read_text())["traces"] == 8
    capsys.readouterr()


def test_sweep_threshold_subcommand(tmp_path, fast_config_path, capsys):
    out = tmp_path / "sweep"
    assert cli(["sweep-threshold", "--config", fast_config_path,
                "--thresholds", "0.0", "0.9",
                "--out-dir", str(out)]) == 0
    lines = (out / "threshold_sweep.csv").read_text().strip().split("\n")
    assert lines[0] == "t,accuracy"
    assert len(lines) == 3
    capsys.readouterr()


def test_sweep_defense_writes_sweep_csv(tmp_path, fast_config_path, capsys):
    out = tmp_path / "sweep"
    assert cli(["sweep-defense", "--config", fast_config_path, "--kind", "padding",
                "--out-dir", str(out)]) == 0
    write_csv(tmp_path / "expected.csv", padding_sweep(FAST_CFG))
    assert (out / "padding_sweep.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
    assert "wrote 10 rows" in capsys.readouterr().out


def test_sweep_threshold_bad_value_exits_1(tmp_path, fast_config_path, capsys):
    assert cli(["sweep-threshold", "--config", fast_config_path,
                "--thresholds", "2.0", "--out-dir", str(tmp_path)]) == 1
    capsys.readouterr()
