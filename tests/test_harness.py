import hashlib
import json
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_fits
from robofp import errors, harness, synthgen, trace
from robofp.classifier import GBDTParams, cross_validate, cross_validate_each, problem_key
from robofp.defenses import SlotPlan
from robofp.features import SigprocConfig, featurize_dataset
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

# c07's accuracies at s_p = 100..1000, t_i = 0.1 ms (seed 42), recorded when
# every sweep point cross-validated on its own
C07_ACCURACIES = [0.395] + [0.415] * 9

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
    monkeypatch.setattr(synthgen, "gen_action", lambda *a, **k: pytest.fail("generated data"))
    for run in (run_attack_experiment, threshold_sweep, padding_sweep, modulation_sweep):
        with pytest.raises(errors.TooFewSamples, match="n_folds must not exceed"):
            run(config)


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
    # load_inputs reads the bank as it is; make_schema refuses it before any scan
    path = tmp_path / "kernels.json"
    load_inputs(replace(SMALL, sigproc=SigprocConfig(bin_width=0.05)))[1].save(path)
    config = replace(SMALL, kernel_bank_path=str(path))
    dataset, bank = load_inputs(config)
    with pytest.raises(errors.SchemaMismatch, match="bin_width 0.05"):
        featurize_dataset(dataset, bank, config.sigproc)
    with pytest.raises(errors.SchemaMismatch, match="bin_width 0.05"):
        run_attack_experiment(config)


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
    # weak references to every DefendedTrace and its per-message
    # added_latency (a modulated .trace is built anew on every read, so a
    # reference to it would die at once): when the next trace is defended, at
    # most the previous one may still be alive
    made, alive_at_call = [], []
    apply = harness.apply_defense

    def tracked(trace, defense):
        alive_at_call.append(sum(any(r() is not None for r in refs) for refs in made))
        result = apply(trace, defense)
        made.append((weakref.ref(result), weakref.ref(result.added_latency)))
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

    def cv(X, labels, **kw):
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
        (500, 0.001, "f7baebb40ad39b4cdc5b498cc81eb95ccae25aabf0094a597869e22d540090ed"),
        (300, 0.01, "a436e5d1a2765b9b8ff8afa4517b4a5f8e225efc635b11de5d385f649b342a4b"),
        # recorded by featurizing the wire packets, before sweeps featurized slot plans
        (500, 0.0001, "2912ae32f15b033232392098f4980d5d0d49b48b89db81e69d078d6d90ec54f7"),
    ],
)
def test_sweep_point_features_pinned(monkeypatch, s_p, t_i, expected):
    # sha256 of the defended matrix a modulation sweep point hands to
    # cross-validation (seed 7, 20 traces), built without any wire packets
    seen = []

    def capture(X, labels, **kw):
        seen.append(X)
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


# ---------------------------------------------------------------------------
# sweeps fit once per distinct training problem


def test_c07_sweep_fits_two_problems(c07_sweep):
    # c07's ten points (s_p = 100..1000 at t_i = 0.1 ms) are two training
    # problems, s_p = 100 and the rest
    rows, fits = c07_sweep
    assert [r["accuracy"] for r in rows] == C07_ACCURACIES
    assert fits == 20


@pytest.mark.parametrize(
    "sweep",
    [lambda c: padding_sweep(c, (1,)), lambda c: padding_sweep(c, (1, 4, 10)),
     lambda c: modulation_sweep(c)],
    ids=["padding_1_point", "padding_3_points", "modulation_default_grid"],
)
def test_fixed_adversary_fits_each_fold_once(monkeypatch, sweep):
    fits = count_fits(monkeypatch)
    rows = sweep(replace(SMALL, samples_per_class=4, n_folds=3, retrain_on_defended=False))
    assert rows and len(fits) == 3


def test_threshold_sweep_fits_equal_problems_once(monkeypatch):
    fits = count_fits(monkeypatch)
    rows = threshold_sweep(SMALL, (0.9, 0.3, 0.9))
    assert [r["t"] for r in rows] == [0.3, 0.9, 0.9]
    assert rows[1] == rows[2]
    assert len(fits) == 2 * SMALL.n_folds


@st.composite
def _sweep_points(draw):
    """Labels, a clean matrix and sweep points made from it.  The last
    column is a rank copy of column 0, so a point that only rewrites it is
    the clean problem again; other points change column 0's values at the
    same ranks, or are drawn afresh from a few levels."""
    per_class = draw(st.integers(2, 4))
    n, d = 3 * per_class, draw(st.integers(2, 3))
    y = draw(st.permutations(["a", "b", "c"] * per_class))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = np.searchsorted(["a", "b", "c"], y)

    def matrix():
        # column 1 carries a drawn share of the label, so accuracies differ
        X = rng.integers(0, 3, size=(n, d)).astype(float)
        X[:, 1] += draw(st.sampled_from([0, 1, 3])) * codes
        return np.column_stack([X, 3 * X[:, 0] + 1])

    clean = matrix()
    points = []
    for op in draw(st.lists(st.sampled_from(["same", "recopy", "rescale", "fresh"]),
                            min_size=2, max_size=5)):
        X = clean.copy() if op != "fresh" else matrix()
        if op == "recopy":
            X[:, -1] = 5 * X[:, 0] - 2
        if op == "rescale":
            X[:, 0] *= 2
        points.append(X)
    return y, clean, points, draw(st.integers(2, per_class)), draw(st.integers(0, 99))


def _matrix(X, y):
    """What the sweep reads of a FeatureMatrix."""
    names = [f"f{j}" for j in range(X.shape[1])]
    return SimpleNamespace(X=X, labels=y, schema=SimpleNamespace(names=names))


@pytest.mark.parametrize("retrain", [True, False])
@settings(max_examples=40, deadline=None)
@given(_sweep_points())
def test_grouped_sweep_rows_match_per_point_cross_validation(retrain, problem):
    y, clean, points, n_folds, seed = problem
    config = replace(SMALL, n_folds=n_folds, seed=seed,
                     classifier=GBDTParams(n_rounds=2, max_depth=2, min_child_weight=0.0))
    params = dict(params=config.classifier, n_folds=n_folds, seed=seed)
    if retrain:
        expected = [cross_validate(X, y, **params).accuracy for X in points]
        problems = {problem_key(X, y, config.classifier, n_folds, seed) for X in points}
    else:
        expected = [cross_validate_each(clean, y, [X], **params)[0].accuracy for X in points]
        problems = {"clean"}
    with pytest.MonkeyPatch.context() as patch:
        fits = count_fits(patch)
        got = harness._sweep_accuracies(
            config, points, lambda X: _matrix(X, y), None if retrain else _matrix(clean, y)
        )
    assert got == expected
    assert len(fits) == n_folds * len(problems)


def test_no_capture_is_alive_when_cross_validation_starts(tmp_path, monkeypatch):
    # weak references to every capture read from the manifest: an attack run
    # and a sweep read each once per pass, and hold none through their CVs
    manifest = save_dataset(gen_dataset(GenConfig(seed=3, samples_per_class=2)), tmp_path)
    config = replace(SMALL, n_folds=2, manifest=str(manifest))
    refs, alive_at_cv = [], []
    read, cv = trace.read_trace, harness.cross_validate

    def spy_read(*args):
        capture = read(*args)
        refs.append(weakref.ref(capture))
        return capture

    def spy_cv(*args, **kw):
        alive_at_cv.append(sum(r() is not None for r in refs))
        return cv(*args, **kw)

    monkeypatch.setattr(trace, "read_trace", spy_read)
    monkeypatch.setattr(harness, "cross_validate", spy_cv)
    run_attack_experiment(config)
    modulation_sweep(config, (500,), (0.001,))
    assert len(refs) == 2 * 8
    assert alive_at_cv == [0, 0]
