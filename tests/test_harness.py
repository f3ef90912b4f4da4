import hashlib
import json
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from robofp import errors, harness
from robofp.classifier import GBDTParams
from robofp.defenses import SlotPlan
from robofp.features import SigprocConfig
from robofp.harness import (
    DEFAULT_PADDING_GRID,
    DEFAULT_THRESHOLD_GRID,
    MAX_FOLDS,
    ExperimentConfig,
    load_inputs,
    modulation_sweep,
    padding_sweep,
    report_digest,
    resolve_workers,
    run_attack_experiment,
    threshold_sweep,
    write_report,
)
from robofp.sigproc import MAX_BINS
from robofp.synthgen import MAX_DURATION, GenConfig, gen_dataset
from robofp.trace import save_dataset

# small but CV-viable: 10 per class, 5 folds, light trees
SMALL = ExperimentConfig(
    seed=7,
    samples_per_class=10,
    n_folds=5,
    classifier=GBDTParams(n_rounds=15, max_depth=3),
)


# ---------------------------------------------------------------------------
# config plumbing


def test_config_json_round_trip():
    cfg = replace(SMALL, feature_set="summary", tail_dummies=1.5, workers=1)
    back = ExperimentConfig.from_json(cfg.to_json())
    assert back == cfg


def test_config_rejects_bad_documents():
    with pytest.raises(errors.InvalidConfig):
        ExperimentConfig.from_json("not json at all {")
    with pytest.raises(errors.InvalidConfig):
        ExperimentConfig.from_doc({"unknown_field": 1})
    with pytest.raises(errors.InvalidConfig):
        ExperimentConfig.from_doc({"sigproc": {"bin_width": -1.0}})
    for text in ("[]", "null", '"seed"', '[["seed", 1]]'):
        with pytest.raises(errors.InvalidConfig, match="JSON object"):
            ExperimentConfig.from_json(text)
    with pytest.raises(errors.InvalidConfig):
        ExperimentConfig.from_json(b'{"seed": 1\xff}')
    for bad in ({"seed": -1}, {"samples_per_class": 0}, {"n_folds": 1}, {"workers": -5},
                {"workers": 2},
                {"seed": 1.5}, {"samples_per_class": 2.0}, {"n_folds": "3"},
                {"workers": None}, {"seed": True}, {"retrain_on_defended": "no"},
                {"retrain_on_defended": 1}, {"tail_dummies": "x"}, {"tail_dummies": True},
                {"tail_dummies": float("nan")}, {"tail_dummies": float("inf")},
                {"feature_set": []}, {"feature_set": "bogus"}, {"manifest": 5},
                {"kernel_bank_path": False}):
        with pytest.raises(errors.InvalidConfig):
            ExperimentConfig.from_doc(bad)
        with pytest.raises(errors.InvalidConfig):
            ExperimentConfig(**bad)
    for section, bad in (("classifier", {"n_rounds": 2.5}), ("classifier", {"max_depth": True}),
                         ("classifier", {"learning_rate": "0.3"}),
                         ("classifier", {"reg_lambda": float("nan")}),
                         ("sigproc", {"merge_gap": float("nan")}),
                         ("sigproc", {"bin_width": float("inf")}),
                         ("sigproc", {"conv_threshold": None}),
                         ("sigproc", {"corr_min_duration": 10**400})):
        with pytest.raises(errors.InvalidConfig, match=next(iter(bad))):
            ExperimentConfig.from_doc({section: bad})
    # an integer past Python's 4,300-digit conversion limit is a ValueError, not a JSONDecodeError
    for text in ('{"sigproc": {"merge_gap": NaN}}', '{"tail_dummies": Infinity}', "[" * 5000,
                 '{"seed": %s}' % ("1" * 5000)):
        with pytest.raises(errors.InvalidConfig):
            ExperimentConfig.from_json(text)
    # ints stand for floats, and a well-typed document still loads
    config = ExperimentConfig.from_doc({"tail_dummies": 2, "sigproc": {"merge_gap": 0},
                                        "classifier": {"learning_rate": 1}})
    assert (config.tail_dummies, config.sigproc.merge_gap) == (2, 0)
    with pytest.raises(errors.InvalidConfig):
        GenConfig(seed=-1)


def test_config_bounds_refuse_before_any_work(monkeypatch):
    ExperimentConfig(n_folds=MAX_FOLDS, samples_per_class=MAX_FOLDS)
    with pytest.raises(errors.InvalidConfig, match=f"n_folds must lie in \\[2, {MAX_FOLDS}\\]"):
        ExperimentConfig(n_folds=MAX_FOLDS + 1, manifest="m.csv")
    # the bin width floor holds for generated captures only
    floor = MAX_DURATION / MAX_BINS
    ExperimentConfig(sigproc=SigprocConfig(bin_width=floor))
    ExperimentConfig(sigproc=SigprocConfig(bin_width=1e-300), manifest="m.csv")
    with pytest.raises(errors.OutOfRange, match="sigproc.bin_width must be at least"):
        ExperimentConfig(sigproc=SigprocConfig(bin_width=floor * (1 - 1e-15)))
    # more folds than generated captures per class: refused before generating,
    # though featurizing and defending accept the config
    config = ExperimentConfig(samples_per_class=2, n_folds=3)
    monkeypatch.setattr(harness, "load_inputs", lambda c: pytest.fail("generated data"))
    for run in (run_attack_experiment, threshold_sweep, padding_sweep, modulation_sweep):
        with pytest.raises(errors.InvalidConfig, match="n_folds must be <= samples_per_class"):
            run(config)
    replace(config, manifest="m.csv").check_folds()


def test_resolve_workers():
    assert SMALL.workers == 0
    assert resolve_workers(SMALL) == 1
    assert resolve_workers(replace(SMALL, workers=1)) == 1
    assert resolve_workers(ExperimentConfig.from_doc({"workers": 0})) == 1
    assert resolve_workers(ExperimentConfig.from_doc({"workers": 1})) == 1


def test_load_inputs_from_manifest(tmp_path):
    ds = gen_dataset(GenConfig(seed=3, samples_per_class=2))
    manifest = save_dataset(ds, tmp_path / "data")
    cfg = replace(SMALL, manifest=str(manifest))
    loaded, bank = load_inputs(cfg)
    assert len(loaded.traces) == len(ds.traces)
    assert bank.fingerprint() == load_inputs(SMALL)[1].fingerprint()


def test_load_inputs_refuses_empty_paths():
    for name in ("manifest", "kernel_bank_path"):
        with pytest.raises(errors.MissingFile):
            load_inputs(replace(SMALL, **{name: ""}))


def test_load_inputs_kernel_bank_path(tmp_path):
    _, bank = load_inputs(SMALL)
    path = tmp_path / "kernels.json"
    bank.save(path)
    cfg = replace(SMALL, kernel_bank_path=str(path))
    _, loaded = load_inputs(cfg)
    assert loaded.fingerprint() == bank.fingerprint()


def test_load_inputs_rejects_bank_at_other_bin_width(tmp_path):
    path = tmp_path / "kernels.json"
    load_inputs(replace(SMALL, sigproc=SigprocConfig(bin_width=0.05)))[1].save(path)
    with pytest.raises(errors.SchemaMismatch, match="bin_width"):
        load_inputs(replace(SMALL, kernel_bank_path=str(path)))


# ---------------------------------------------------------------------------
# attack runs


@pytest.fixture(scope="module")
def small_report():
    return run_attack_experiment(SMALL)


def test_report_structure(small_report):
    r = small_report
    assert r["n_traces"] == 40
    assert r["config"]["seed"] == 7
    assert 0.0 <= r["cv"]["accuracy"] <= 1.0
    assert len(r["cv"]["fold_accuracies"]) == 5
    assert len(r["cv"]["confusion"]) == 4
    assert len(r["top_features"]) <= 20
    gains = [f["gain"] for f in r["top_features"]]
    assert gains == sorted(gains, reverse=True)
    assert r["kernel_fingerprint"] and r["schema_fingerprint"]
    assert "created_at" in r


def test_report_digest_pinned(small_report):
    # any change to featurization, training or report layout moves this
    assert (
        report_digest(small_report)
        == "50f9d42120e81181f45e2c3a50037e2773b92fa29c379d0c404fc135d0a3dcf0"
    )


def test_reports_reproducible_modulo_timestamp(small_report):
    again = run_attack_experiment(SMALL)
    assert report_digest(again) == report_digest(small_report)
    assert {k: v for k, v in again.items() if k != "created_at"} == {
        k: v for k, v in small_report.items() if k != "created_at"
    }


def test_report_digest_tracks_content(small_report):
    other = run_attack_experiment(replace(SMALL, feature_set="summary"))
    assert report_digest(other) != report_digest(small_report)


def test_summary_ablation_not_better(small_report):
    summary = run_attack_experiment(replace(SMALL, feature_set="summary"))
    assert summary["cv"]["accuracy"] <= small_report["cv"]["accuracy"]


def test_write_report(tmp_path, small_report):
    path = tmp_path / "report.json"
    write_report(small_report, path)
    assert json.loads(path.read_text()) == small_report


# ---------------------------------------------------------------------------
# sweeps


def test_threshold_grid_shape():
    assert len(DEFAULT_THRESHOLD_GRID) == 14
    assert DEFAULT_THRESHOLD_GRID[0] == 0.0
    assert DEFAULT_THRESHOLD_GRID[-1] == 1.3


def test_threshold_sweep_rows():
    rows = threshold_sweep(SMALL, (0.9, 0.0, 1.3))
    assert [r["t"] for r in rows] == [0.0, 0.9, 1.3]  # sorted by sweep key
    assert all(0.0 <= r["accuracy"] <= 1.0 for r in rows)


def test_threshold_sweep_validates_range():
    with pytest.raises(errors.InvalidConfig):
        threshold_sweep(SMALL, (0.5, 1.4))


def test_padding_sweep_rows():
    rows = padding_sweep(SMALL, (1, 10))
    assert [r["x"] for r in rows] == [1, 10]
    assert all(r["overhead"] > 0 for r in rows)
    assert rows[1]["overhead"] > rows[0]["overhead"]
    assert all(0.0 <= r["accuracy"] <= 1.0 for r in rows)
    assert DEFAULT_PADDING_GRID == tuple(range(1, 11))


def test_modulation_sweep_rows():
    rows = modulation_sweep(SMALL, dummy_sizes=(100,), intervals=(0.01,))
    assert len(rows) == 1
    row = rows[0]
    assert row["s_p"] == 100 and row["t_i"] == 0.01
    assert row["overhead"] > 0
    # deadline equals the interval here, so worst latency is below L + t_i
    assert row["max_added_latency"] <= 0.02 + 1e-9
    assert 0.0 <= row["accuracy"] <= 1.0


@pytest.mark.parametrize("retrain", [True, False])
def test_sweep_point_holds_one_defended_trace_at_a_time(monkeypatch, retrain):
    # weak references to every DefendedTrace and its .trace: when the next
    # trace is defended, at most the previous one may still be alive
    made, alive_at_call = [], []
    apply = harness.apply_defense

    def tracked(trace, defense):
        alive_at_call.append(sum(any(r() is not None for r in refs) for refs in made))
        result = apply(trace, defense)
        made.append((weakref.ref(result), weakref.ref(result.trace)))
        return result

    monkeypatch.setattr(harness, "apply_defense", tracked)
    cfg = replace(SMALL, samples_per_class=2, n_folds=2, retrain_on_defended=retrain)
    (row,) = modulation_sweep(cfg, dummy_sizes=(500,), intervals=(0.001,))
    assert len(alive_at_call) == 8
    assert max(alive_at_call) <= 1
    assert row["overhead"] > 0


@pytest.mark.parametrize("retrain, extra", [(True, 0), (False, 1)])
def test_sweep_featurizes_through_featurize_dataset(monkeypatch, retrain, extra):
    # one call per sweep point, on its slot plans; the fixed adversary adds
    # one for its clean matrix
    calls = []
    featurize = harness.featurize_dataset

    def spy(dataset, *args):
        calls.append([type(t).__name__ for t in dataset.traces])
        return featurize(dataset, *args)

    monkeypatch.setattr(harness, "featurize_dataset", spy)
    cfg = replace(SMALL, samples_per_class=2, n_folds=2, retrain_on_defended=retrain)
    modulation_sweep(cfg, dummy_sizes=(300, 500), intervals=(0.001,))
    assert len(calls) == 2 + extra
    assert calls[extra:] == [["SlotPlan"] * 8] * 2
    assert calls[:extra] == [["Trace"] * 8] * extra


def _arrays(value):
    """Every numpy array held in a value, through tuples and dataclass fields."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [a for v in value for a in _arrays(v)]
    if hasattr(value, "__dataclass_fields__"):
        return [a for f in value.__dataclass_fields__ for a in _arrays(getattr(value, f))]
    return []


def test_sweep_plans_hold_only_their_odd_segments(monkeypatch):
    # the plans a seed-42 sweep point featurizes keep no per-message array:
    # their only arrays are the odd segments, and at 500 B / 0.1 ms there are
    # none; and no plan is alive while the point cross-validates
    refs, held, alive_at_cv = [], [], []
    featurize = harness.featurize_dataset

    def spy(dataset, *args):
        for plan in dataset.traces:
            assert type(plan) is SlotPlan
            odd = [a for column in plan.odd for a in column]
            assert [id(a) for a in _arrays(plan)] == [id(a) for a in odd]
            held.extend(a.nbytes for a in odd)
            refs.append(weakref.ref(plan))
        return featurize(dataset, *args)

    def cv(X, labels, X_test=None, **kw):
        alive_at_cv.append(sum(r() is not None for r in refs))
        return SimpleNamespace(accuracy=0.0)

    monkeypatch.setattr(harness, "featurize_dataset", spy)
    monkeypatch.setattr(harness, "cross_validate", cv)
    modulation_sweep(ExperimentConfig(seed=42), (500,), (0.0001,))
    assert len(refs) == 200 and len(held) == 4 * 200
    assert sum(held) == 0
    assert alive_at_cv == [0]


@pytest.mark.parametrize(
    "s_p, t_i, expected",
    [
        # test_feature_matrix_pinned's digests for the same traces' wire packets
        (500, 0.001, "da3494cb5e49aca109b107765da9eee8b5218fa6ab52eae62961a4afa336ef9f"),
        (300, 0.01, "f73050ba812465e4f8eb0b67051279c8884d8ad87bd13ebeca6c0dadc4de2a48"),
        # recorded by featurizing the wire packets, before sweeps featurized slot plans
        (500, 0.0001, "2912ae32f15b033232392098f4980d5d0d49b48b89db81e69d078d6d90ec54f7"),
    ],
)
def test_sweep_point_features_pinned(monkeypatch, s_p, t_i, expected):
    # sha256 of the defended matrix a modulation sweep point hands to
    # cross-validation (seed 7, 20 traces), built without any wire packets
    seen = []

    def capture(X, labels, X_test=None, **kw):
        seen.append(X_test)
        return SimpleNamespace(accuracy=0.0)

    def refuse(plan):
        raise AssertionError("a sweep point built wire packets")

    monkeypatch.setattr(harness, "cross_validate", capture)
    monkeypatch.setattr(SlotPlan, "wire_packets", refuse)
    modulation_sweep(ExperimentConfig(seed=7, samples_per_class=5, n_folds=5), (s_p,), (t_i,))
    (X,) = seen
    assert hashlib.sha256(X.tobytes()).hexdigest() == expected


def test_fixed_adversary_flag_changes_protocol():
    # the non-retraining adversary scores defended traffic with clean-traffic
    # models; the adapting one retrains per padding factor
    retrain = [r["accuracy"] for r in padding_sweep(SMALL, (1, 2, 3))]
    fixed_cfg = replace(SMALL, retrain_on_defended=False)
    fixed = [r["accuracy"] for r in padding_sweep(fixed_cfg, (1, 2, 3))]
    assert retrain == [0.875, 0.775, 0.825]
    assert fixed == [0.7, 0.575, 0.375]
