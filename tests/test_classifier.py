import json

import numpy as np
import pytest

from robofp import errors
from robofp.classifier import (
    CVReport,
    GBDTClassifier,
    GBDTParams,
    cross_validate,
    stratified_folds,
)

FAST = GBDTParams(n_rounds=20, max_depth=3)


def _blobs(n_per=30, seed=0):
    rng = np.random.default_rng(seed)
    centers = {"a": (0.0, 0.0), "b": (6.0, 0.0), "c": (0.0, 6.0)}
    X, y = [], []
    for label, (cx, cy) in centers.items():
        X.append(rng.normal((cx, cy), 1.0, size=(n_per, 2)))
        y.extend([label] * n_per)
    return np.vstack(X), y


# ---------------------------------------------------------------------------
# training behaviour


def test_learns_separable_blobs():
    X, y = _blobs()
    model = GBDTClassifier(FAST).fit(X, y)
    assert model.classes_ == ["a", "b", "c"]
    assert np.mean(np.array(model.predict(X)) == np.array(y)) >= 0.99
    # holdout from the same distribution
    Xt, yt = _blobs(seed=1)
    assert np.mean(np.array(model.predict(Xt)) == np.array(yt)) >= 0.95


def test_training_is_deterministic():
    X, y = _blobs()
    a = GBDTClassifier(FAST).fit(X, y)
    b = GBDTClassifier(FAST).fit(X, y)
    assert a.to_json() == b.to_json()
    Xt, _ = _blobs(seed=2)
    assert np.array_equal(a.decision_scores(Xt), b.decision_scores(Xt))


def test_probabilities_are_normalized():
    X, y = _blobs()
    model = GBDTClassifier(FAST).fit(X, y)
    P = model.predict_proba(X)
    assert P.shape == (len(y), 3)
    assert np.all(P > 0)
    assert np.allclose(P.sum(axis=1), 1.0)


def test_constant_features_fall_back_to_prior():
    X = np.full((12, 3), 7.0)
    y = ["maj"] * 8 + ["min"] * 4
    model = GBDTClassifier(FAST).fit(X, y)
    assert model.predict(X) == ["maj"] * 12


def test_tie_break_prefers_lowest_feature_index():
    # two identical columns: every split gain ties, so the pinned policy
    # must always pick column 0
    rng = np.random.default_rng(3)
    col = rng.normal(size=40)
    X = np.column_stack([col, col])
    y = ["hi" if v > 0 else "lo" for v in col]
    model = GBDTClassifier(GBDTParams(n_rounds=5, max_depth=2)).fit(X, y)
    for round_trees in model.trees_:
        for tree in round_trees:
            assert all(f in (-1, 0) for f in tree.feature)


def test_monotone_feature_transform_keeps_train_predictions():
    # splits depend on sort order plus midpoints, so any strictly increasing
    # per-column map leaves the training partition unchanged
    X, y = _blobs(n_per=20)
    warped = np.column_stack([np.exp(X[:, 0] / 3.0), X[:, 1] ** 3])
    a = GBDTClassifier(FAST).fit(X, y)
    b = GBDTClassifier(FAST).fit(warped, y)
    assert a.predict(X) == b.predict(warped)


def test_fit_validation():
    X, y = _blobs(n_per=5)
    with pytest.raises(errors.SingleClass):
        GBDTClassifier(FAST).fit(X[:5], ["same"] * 5)
    with pytest.raises(errors.SchemaMismatch):
        GBDTClassifier(FAST).fit(X[:, 0], y)
    with pytest.raises(errors.SchemaMismatch):
        GBDTClassifier(FAST, feature_names=["only_one"]).fit(X, y)


def test_params_validation():
    with pytest.raises(errors.InvalidConfig):
        GBDTParams(n_rounds=0)
    with pytest.raises(errors.InvalidConfig):
        GBDTParams(learning_rate=0.0)
    with pytest.raises(errors.InvalidConfig):
        GBDTParams(reg_lambda=-1.0)


def test_unfitted_model_refuses_inference():
    with pytest.raises(errors.InvalidConfig):
        GBDTClassifier().predict(np.zeros((1, 2)))


def test_inference_checks_column_count():
    X, y = _blobs(n_per=10)
    model = GBDTClassifier(FAST, feature_names=["u", "v"]).fit(X, y)
    with pytest.raises(errors.SchemaMismatch):
        model.predict(np.zeros((2, 3)))


def test_feature_importance_names_and_zeros():
    X, y = _blobs(n_per=10)
    X3 = np.column_stack([X, np.zeros(len(X))])  # constant third column
    model = GBDTClassifier(FAST, feature_names=["u", "v", "dead"]).fit(X3, y)
    imp = model.feature_importance()
    assert set(imp) == {"u", "v", "dead"}
    assert imp["dead"] == 0.0
    assert imp["u"] > 0 and imp["v"] > 0


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip_preserves_predictions():
    X, y = _blobs()
    model = GBDTClassifier(FAST, feature_names=["u", "v"]).fit(X, y)
    clone = GBDTClassifier.from_json(model.to_json())
    Xt, _ = _blobs(seed=5)
    assert clone.classes_ == model.classes_
    assert clone.params == model.params
    assert np.array_equal(clone.decision_scores(Xt), model.decision_scores(Xt))
    assert clone.feature_importance() == model.feature_importance()


def test_from_json_rejects_junk():
    with pytest.raises(errors.InvalidConfig):
        GBDTClassifier.from_json("{}")
    with pytest.raises(errors.InvalidConfig):
        GBDTClassifier.from_json(json.dumps({"model": "something-else"}))


# ---------------------------------------------------------------------------
# stratified folds and cross-validation


def test_stratified_folds_partition():
    y = ["a"] * 25 + ["b"] * 17 + ["c"] * 30
    folds = stratified_folds(y, 5, seed=0)
    assert len(folds) == 5
    all_idx = np.concatenate(folds)
    assert sorted(all_idx) == list(range(len(y)))
    # class balance within one sample per fold
    y_arr = np.array(y)
    for c in "abc":
        per = [int(np.sum(y_arr[f] == c)) for f in folds]
        assert max(per) - min(per) <= 1


def test_stratified_folds_deterministic():
    y = ["a"] * 20 + ["b"] * 20
    a = stratified_folds(y, 4, seed=9)
    b = stratified_folds(y, 4, seed=9)
    assert all(np.array_equal(x, z) for x, z in zip(a, b))


def test_stratified_folds_errors():
    with pytest.raises(errors.SingleClass):
        stratified_folds(["a"] * 10, 5, seed=0)
    with pytest.raises(errors.TooFewSamples):
        stratified_folds(["a"] * 3 + ["b"] * 10, 5, seed=0)
    for n_folds in (0, 1):
        with pytest.raises(errors.InvalidConfig):
            stratified_folds(["a"] * 10 + ["b"] * 10, n_folds, seed=0)


def test_cross_validate_on_separable_data():
    X, y = _blobs(n_per=20)
    report = cross_validate(X, y, FAST, n_folds=5, seed=0, feature_names=["u", "v"])
    assert isinstance(report, CVReport)
    assert report.classes == ["a", "b", "c"]
    assert len(report.fold_accuracies) == 5
    conf = np.array(report.confusion)
    assert conf.sum() == len(y)  # every sample held out exactly once
    assert report.accuracy == pytest.approx(conf.trace() / conf.sum())
    assert report.accuracy >= 0.95
    assert set(report.precision) == set(report.recall) == {"a", "b", "c"}
    doc = report.to_doc()
    assert doc["accuracy"] == report.accuracy


def test_cross_validate_scores_x_test():
    X, y = _blobs(n_per=20)
    base = cross_validate(X, y, FAST, n_folds=5, seed=0)
    assert cross_validate(X, y, FAST, n_folds=5, seed=0, X_test=X) == base
    # every test row sits on class a's centre, so only class a is recovered
    shifted = cross_validate(X, y, FAST, n_folds=5, seed=0, X_test=np.zeros_like(X))
    assert shifted.recall == {"a": 1.0, "b": 0.0, "c": 0.0}
    with pytest.raises(errors.SchemaMismatch):
        cross_validate(X, y, FAST, n_folds=5, seed=0, X_test=X[:, :1])
