import functools
import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_python
from robofp import errors
from robofp.classifier import (
    _MIN_GAIN,
    MAX_DEPTH,
    CVReport,
    GBDTClassifier,
    GBDTParams,
    _softmax,
    _Tree,
    cross_validate,
    cross_validate_each,
    problem_key,
    stratified_folds,
)
from robofp.defenses import modulation_preset
from robofp.features import compute_features, feature_names, featurize_dataset
from robofp.harness import defend_dataset
from robofp.synthgen import GenConfig, default_kernel_bank, gen_dataset

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


def test_max_depth_bounded_within_recursion_limit():
    # alternating labels on one column grow a chain as deep as max_depth
    # allows; at max_depth 1,000,000 it reached a bare RecursionError
    X, y = np.arange(3000.0)[:, None], ["a" if i % 2 else "b" for i in range(3000)]
    model = GBDTClassifier(GBDTParams(n_rounds=1, max_depth=MAX_DEPTH, min_child_weight=0.0))
    model.fit(X, y)
    assert model._forest.depth == MAX_DEPTH
    assert GBDTClassifier.from_json(model.to_json()).predict(X) == model.predict(X)
    for depth in (MAX_DEPTH + 1, 1_000_000):
        with pytest.raises(errors.InvalidConfig, match=f"max_depth must be <= {MAX_DEPTH}, got"):
            GBDTParams(max_depth=depth)


@pytest.mark.parametrize("seed", [0, 2, 5])
def test_one_regularizer_keeps_gains_finite(seed):
    # with both regularizers at 0 these fits recorded nan or inf gains, and
    # from_json refused the model that fit wrote; GBDTParams now refuses that
    rng = np.random.default_rng(seed)
    X, y = rng.normal(size=(15, 3)), [str(v) for v in rng.choice(["a", "b"], size=15)]
    for lam, mcw in ((0.0, 1e-3), (1.0, 0.0)):
        params = GBDTParams(n_rounds=6, max_depth=1, learning_rate=1.0,
                            reg_lambda=lam, min_child_weight=mcw)
        with np.errstate(divide="raise", invalid="raise"):
            model = GBDTClassifier(params).fit(X, y)
        assert np.isfinite(list(model.feature_importance().values())).all()
        assert GBDTClassifier.from_json(model.to_json()).to_json() == model.to_json()


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


def test_fit_rejects_non_finite_values():
    # a midpoint next to inf is inf, so such a split would send every row left
    X = np.zeros((40, 1))
    X[20:] = np.inf
    y = ["a"] * 20 + ["b"] * 20
    with pytest.raises(errors.SchemaMismatch, match=r"column 0 \(f0\)"):
        GBDTClassifier(FAST).fit(X, y)
    X2 = np.column_stack([np.arange(40.0), np.zeros(40)])
    X2[5, 1] = np.nan
    with pytest.raises(errors.SchemaMismatch, match=r"column 1 \(v\)"):
        GBDTClassifier(FAST, feature_names=["u", "v"]).fit(X2, y)


def test_decision_scores_rejects_non_finite_values():
    X, y = _blobs(n_per=10)
    model = GBDTClassifier(FAST, feature_names=["u", "v"]).fit(X, y)
    Xt = X.copy()
    Xt[3, 1] = -np.inf
    with pytest.raises(errors.SchemaMismatch, match=r"column 1 \(v\)"):
        model.predict(Xt)


# ---------------------------------------------------------------------------
# split search against a reference: the recursive full-column search, which
# re-gathers every column's presorted rows from the whole order at each node


def _reference_split(params, X, order, g, h, mask, g_sum, h_sum):
    lam, mcw = params.reg_lambda, params.min_child_weight
    keep = mask[order]
    n_node = int(mask.sum())
    rows = order.T[keep.T].reshape(X.shape[1], n_node).T
    gs = np.cumsum(g[rows], axis=0)[:-1]
    hs = np.cumsum(h[rows], axis=0)[:-1]
    xs = np.take_along_axis(X, rows, axis=0)
    valid = xs[1:] > xs[:-1]
    valid &= (hs >= mcw) & (h_sum - hs >= mcw)
    if not valid.any():
        return None
    parent = g_sum * g_sum / (h_sum + lam)
    gain = np.where(
        valid,
        gs * gs / (hs + lam) + (g_sum - gs) ** 2 / (h_sum - hs + lam) - parent,
        -np.inf,
    )
    f, pos = divmod(int(np.argmax(gain.T)), gain.shape[0])
    best = gain[pos, f]
    if best <= _MIN_GAIN:
        return None
    return f, float(0.5 * (xs[pos, f] + xs[pos + 1, f])), float(0.5 * best)


def _reference_grow(params, tree, gain_sum, X, order, g, h, mask, depth):
    g_sum = g[mask].sum()
    h_sum = h[mask].sum()
    denom = h_sum + params.reg_lambda
    weight = -g_sum / denom if denom > 0 else 0.0
    found = None
    if depth < params.max_depth and mask.sum() >= 2:
        found = _reference_split(params, X, order, g, h, mask, g_sum, h_sum)
    if found is None:
        return tree.add_leaf(weight)
    f, threshold, gain = found
    gain_sum[f] += gain
    node = tree.add_split(f, threshold)
    left = mask & (X[:, f] <= threshold)
    tree.left[node] = _reference_grow(params, tree, gain_sum, X, order, g, h, left, depth + 1)
    tree.right[node] = _reference_grow(
        params, tree, gain_sum, X, order, g, h, mask & ~left, depth + 1
    )
    return node


def _reference_predict(tree, X):
    # one tree on its own, as decision_scores walked each tree before the
    # ensemble became one node table
    node = np.zeros(len(X), dtype=np.int64)
    feature = np.array(tree.feature)
    threshold = np.array(tree.threshold)
    left = np.array(tree.left)
    right = np.array(tree.right)
    value = np.array(tree.value)
    live = feature[node] >= 0
    while live.any():
        idx = node[live]
        goes_left = X[live, feature[idx]] <= threshold[idx]
        node[live] = np.where(goes_left, left[idx], right[idx])
        live = feature[node] >= 0
    return value[node]


def _reference_scores(model, X):
    scores = np.zeros((len(X), len(model.classes_)))
    for round_trees in model.trees_:
        for k, tree in enumerate(round_trees):
            scores[:, k] += model.params.learning_rate * _reference_predict(tree, X)
    return scores


def _reference_fit(params, X, y):
    model = GBDTClassifier(params)
    model.classes_ = sorted(set(y))
    n, K = len(y), len(model.classes_)
    Y = np.zeros((n, K))
    Y[np.arange(n), [model.classes_.index(v) for v in y]] = 1.0
    order = np.argsort(X, axis=0, kind="stable")
    model._gain = np.zeros(X.shape[1])
    scores = np.zeros((n, K))
    for _ in range(params.n_rounds):
        P = _softmax(scores)
        G, H = P - Y, P * (1.0 - P)
        round_trees = []
        for k in range(K):
            tree = _Tree()
            root = np.ones(n, dtype=bool)
            _reference_grow(params, tree, model._gain, X, order, G[:, k], H[:, k], root, 0)
            round_trees.append(tree)
            scores[:, k] += params.learning_rate * _reference_predict(tree, X)
        model.trees_.append(round_trees)
    return model


def _random_problem(seed, n=60, d=6, levels=None, constant=(), copies=False):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    if levels:
        X = rng.integers(0, levels, size=(n, d)).astype(float)
    y = list(rng.choice(["a", "b", "c"], size=n))
    # a learnable signal in column 1 so that trees grow past the root
    X[:, 1] += np.array([{"a": 0.0, "b": 1.0, "c": 2.0}[v] for v in y])
    for j in constant:
        X[:, j] = 3.0
    if copies:
        # columns d..d+2 share column 1's rank class and -x reverses its
        # order; the last two share one order but not where values rise
        x, t = X[:, 1], np.arange(n, dtype=float)
        X = np.column_stack([X, x, 3 * x + 1, np.exp(x), -x, t, t // 2])
    return X, y


SEARCH_CASES = {
    "plain": (dict(), GBDTParams(n_rounds=10)),
    "constant_columns": (dict(constant=(0, 3, 5)), GBDTParams(n_rounds=10)),
    "all_constant": (dict(d=4, constant=(0, 1, 2, 3)), GBDTParams(n_rounds=5)),
    "heavy_ties": (dict(levels=3), GBDTParams(n_rounds=10)),
    "near_zero_hessians": (
        dict(n=40, d=3),
        GBDTParams(n_rounds=60, learning_rate=1.0, min_child_weight=1e-3),
    ),
    "mcw_0": (dict(levels=4), GBDTParams(n_rounds=10, min_child_weight=0.0)),
    "mcw_5": (dict(n=90), GBDTParams(n_rounds=10, min_child_weight=5.0)),
    "depth_1": (dict(constant=(2,)), GBDTParams(n_rounds=10, max_depth=1)),
    "rank_copies": (dict(copies=True), GBDTParams(n_rounds=10)),
    "rank_copies_unregularized": (
        dict(copies=True),
        GBDTParams(n_rounds=10, reg_lambda=0.0, min_child_weight=1e-3),
    ),
}


@pytest.mark.parametrize("case", sorted(SEARCH_CASES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fit_matches_reference_search(case, seed):
    shape, params = SEARCH_CASES[case]
    X, y = _random_problem(seed, **shape)
    expected = _reference_fit(params, X, y).to_json()
    assert GBDTClassifier(params).fit(X, y).to_json() == expected


@st.composite
def _fit_problems(draw):
    """Up to 40 rows of up to 6 columns, each column normal, tied at a few
    levels, constant, or a rank copy (3x + 1) or reversal (-x) of an earlier
    one, with 2-3 classes and params across the regularizers' edges."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["normal", "levels", "constant", "copy", "reversed"]))
        if kind in ("copy", "reversed") and columns:
            x = columns[draw(st.integers(0, len(columns) - 1))]
            columns.append(3 * x + 1 if kind == "copy" else -x)
        elif kind == "levels":
            columns.append(rng.integers(0, draw(st.integers(2, 4)), size=n).astype(float))
        elif kind == "constant":
            columns.append(np.full(n, 3.0))
        else:
            columns.append(rng.normal(size=n))
    y = ["a", "b", *rng.choice(["a", "b", "c"][: draw(st.integers(2, 3))], size=n - 2)]
    reg_lambda = draw(st.sampled_from([0.0, 1.0]))
    # GBDTParams refuses both regularizers at 0
    weights = [1e-3, 1.0, 5.0] if reg_lambda == 0 else [0.0, 1e-3, 1.0, 5.0]
    params = GBDTParams(
        n_rounds=draw(st.integers(1, 5)),
        max_depth=draw(st.integers(1, 6)),
        learning_rate=draw(st.sampled_from([0.3, 1.0])),
        reg_lambda=reg_lambda,
        min_child_weight=draw(st.sampled_from(weights)),
    )
    return np.column_stack(columns), [str(v) for v in rng.permutation(y)], params


@settings(max_examples=150, deadline=None)
@given(_fit_problems())
def test_fit_matches_reference_on_drawn_problems(problem):
    X, y, params = problem
    # with lambda 0 the reference divides by zero at positions np.where discards
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = _reference_fit(params, X, y)
    with np.errstate(divide="raise", invalid="raise"):
        model = GBDTClassifier(params).fit(X, y)
    assert model.to_json() == expected.to_json()


def test_node_sums_are_pairwise_in_row_order(monkeypatch):
    # every node's (g, h) sums must be the ones g[mask].sum() gives: numpy
    # sums along one axis pairwise (8-way blocks of up to 128), so the
    # order of the additions is part of the result
    sums = []
    search = GBDTClassifier._best_split

    def spy(self, features, rows, xs, gh, g_sum, h_sum):
        mask = np.zeros(len(gh), dtype=bool)
        mask[rows[0]] = True
        sums.append((mask, gh.copy(), g_sum, h_sum))
        return search(self, features, rows, xs, gh, g_sum, h_sum)

    monkeypatch.setattr(GBDTClassifier, "_best_split", spy)
    X, y = _random_problem(7, n=400, d=3)
    GBDTClassifier(GBDTParams(n_rounds=3, min_child_weight=0.0)).fit(X, y)
    assert max(int(mask.sum()) for mask, *_ in sums) > 128
    f_ordered_differs = False
    for mask, gh, g_sum, h_sum in sums:
        expected = (gh.real[mask].sum(), gh.imag[mask].sum())
        assert np.array([g_sum, h_sum]).tobytes() == np.array(expected).tobytes()
        # the same values gathered from a (2, n) array come back F-ordered,
        # and sum(axis=1) then adds them one at a time, not pairwise
        stacked = np.stack([gh.real, gh.imag])[:, mask]
        assert not stacked.flags.c_contiguous or mask.sum() < 2
        f_ordered_differs |= stacked.sum(axis=1).tobytes() != np.array(expected).tobytes()
    assert f_ordered_differs


def test_midpoint_rounding_up_matches_reference():
    # 0.5 * (a + b) rounds to b for these neighbours, so the split sends
    # every row left: a child's row count must come from the threshold
    a, b = 1 + 2**-52, 1 + 2**-51
    assert 0.5 * (a + b) == b
    X, y = _random_problem(4, d=2)
    X[:, 0] = np.where(np.array(y) == "a", a, b)
    params = GBDTParams(n_rounds=4)
    assert GBDTClassifier(params).fit(X, y).to_json() == _reference_fit(params, X, y).to_json()


def test_split_search_gets_one_column_per_rank_class(monkeypatch):
    X, y = _random_problem(0, copies=True)
    searched = set()
    search = GBDTClassifier._best_split

    def spy(self, features, *args):
        searched.add(tuple(int(f) for f in features))
        return search(self, features, *args)

    monkeypatch.setattr(GBDTClassifier, "_best_split", spy)
    model = GBDTClassifier(GBDTParams(n_rounds=3)).fit(X, y)
    # the copies of column 1 (6, 7, 8) are dropped; -x (9) and the column
    # that rises less often than its order twin (11) are not
    assert searched == {(0, 1, 2, 3, 4, 5, 9, 10, 11)}
    assert model.to_json() == _reference_fit(GBDTParams(n_rounds=3), X, y).to_json()


@pytest.fixture(scope="module")
def seed42_fold_problems():
    """(training matrix, labels) of the models the two seed-42 pins cover."""
    bank = default_kernel_bank()
    dataset = gen_dataset(GenConfig(seed=42, samples_per_class=50))
    y = [t.label.value for t in dataset.traces]
    X_c07, _, _ = defend_dataset(
        dataset,
        modulation_preset(500, 0.0001),
        lambda defended: np.vstack([compute_features(d.capture, bank) for d in defended]),
    )
    return {"attack": (featurize_dataset(dataset, bank).X, y), "c07": (X_c07, y)}


@pytest.fixture(scope="module")
def seed42_fold_models(seed42_fold_problems):
    """fold_models(matrix): the ten seed-42 fold models on that matrix, fitted
    once for the module, in fold order."""

    @functools.cache
    def fold_models(matrix):
        X, labels = seed42_fold_problems[matrix]
        y = np.array(labels)
        models = []
        for heldout in stratified_folds(labels, 10, seed=42):
            train = np.setdiff1d(np.arange(len(y)), heldout)
            models.append(GBDTClassifier(GBDTParams(), feature_names()).fit(X[train], list(y[train])))
        return tuple(models)

    return fold_models


def test_seed42_fold_models_pinned(seed42_fold_problems, seed42_fold_models):
    # sha256 over the to_json() of the ten seed-42 fold models and the full
    # fit, recorded before the split search skipped nodes and columns
    X, labels = seed42_fold_problems["attack"]
    digest = hashlib.sha256()
    for model in seed42_fold_models("attack"):
        digest.update(model.to_json().encode())
    full = GBDTClassifier(GBDTParams(), feature_names()).fit(X, labels)
    digest.update(full.to_json().encode())
    assert digest.hexdigest() == (
        "61424b979821033581ea59d9af886eca71a6e65ecc33f624282442112467a489"
    )


def test_seed42_c07_fold_models_pinned(seed42_fold_models):
    # sha256 over the to_json() of the ten seed-42 fold models on the
    # (500 B, 0.1 ms) modulated matrix, where ten varying columns fall into
    # three rank classes; recorded before the search skipped rank copies
    digest = hashlib.sha256()
    for model in seed42_fold_models("c07"):
        digest.update(model.to_json().encode())
    assert digest.hexdigest() == (
        "d095431cc8744039617e21f686c9fd9cc5b1d313ebbc9df8167b0a02a749ccdc"
    )


# ---------------------------------------------------------------------------
# scoring: the forest walk against the per-tree reference walk


def _assert_scores_match_reference(model, X):
    expected = _reference_scores(model, X)
    clone = GBDTClassifier.from_json(model.to_json())
    assert model.decision_scores(X).tobytes() == expected.tobytes()
    assert clone.decision_scores(X).tobytes() == expected.tobytes()


@pytest.mark.parametrize("matrix", ["attack", "c07"])
def test_seed42_fold_scores_match_reference_walk(
    seed42_fold_problems, seed42_fold_models, matrix
):
    X, _ = seed42_fold_problems[matrix]
    for model in seed42_fold_models(matrix):
        _assert_scores_match_reference(model, X)


@pytest.mark.parametrize("case", sorted(SEARCH_CASES))
def test_scores_match_reference_walk(case):
    shape, params = SEARCH_CASES[case]
    X, y = _random_problem(5, **shape)
    model = GBDTClassifier(params).fit(X, y)
    Xt, _ = _random_problem(6, **shape)
    _assert_scores_match_reference(model, np.vstack([X, Xt]))
    _assert_scores_match_reference(model, Xt[:0])  # no rows


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
    for text in ("[]", "null", '"gbdt-softmax"', b"\xff"):
        with pytest.raises(errors.InvalidConfig):
            GBDTClassifier.from_json(text)


def _model_doc():
    X, y = _blobs(n_per=10)
    return json.loads(GBDTClassifier(FAST, feature_names=["u", "v"]).fit(X, y).to_json())


def _first_split(doc):
    return next(t for row in doc["trees"] for t in row if t["feature"][0] >= 0)


def _self_loop(doc):
    _first_split(doc)["left"][0] = 0


def _child_past_end(doc):
    tree = _first_split(doc)
    tree["right"][0] = len(tree["feature"])


def _child_before_parent(doc):
    tree = _first_split(doc)
    child = tree["left"][0]
    tree["feature"][child], tree["left"][child] = 0, 0


def _unknown_feature(doc):
    _first_split(doc)["feature"][0] = 2


def _leaf_not_minus_one(doc):
    tree = _first_split(doc)
    tree["feature"][tree["feature"].index(-1)] = -2


def _short_values(doc):
    _first_split(doc)["value"].pop()


def _empty_tree(doc):
    doc["trees"][0][0] = {k: [] for k in doc["trees"][0][0]}


def _too_deep(doc):
    doc["params"]["max_depth"] = 1


def _names_not_gains(doc):
    doc["feature_names"] = ["u"]


def _tree_missing_from_round(doc):
    doc["trees"][-1].pop()


def _one_class(doc):
    doc["classes"] = doc["classes"][:1]
    doc["trees"] = [row[:1] for row in doc["trees"]]


def _index_past_int64(doc):
    _first_split(doc)["left"][0] = 2**70


def _classes_string(doc):
    doc["classes"] = "abc"  # once read as ['a', 'b', 'c']


def _classes_object(doc):
    doc["classes"] = dict.fromkeys(doc["classes"], 1)  # once read as its keys


def _names_string(doc):
    doc["feature_names"] = "uv"  # once read as ['u', 'v']


def _fractional_child(doc):
    tree = _first_split(doc)
    tree["left"][0] += 0.9  # once truncated by int()


def _bool_child(doc):
    tree = _first_split(doc)
    tree["left"][0] = True  # once read as 1


def _string_feature(doc):
    tree = _first_split(doc)
    tree["feature"] = [str(v) for v in tree["feature"]]


def _string_threshold(doc):
    tree = _first_split(doc)
    tree["threshold"] = [str(v) for v in tree["threshold"]]


def _string_gain(doc):
    doc["gain"] = [str(v) for v in doc["gain"]]


def _nan_threshold(doc):
    _first_split(doc)["threshold"][0] = float("nan")  # json writes NaN, which once loaded


def _infinite_value(doc):
    tree = _first_split(doc)
    tree["value"][tree["feature"].index(-1)] = float("inf")


def _minus_infinite_gain(doc):
    doc["gain"][0] = float("-inf")  # once loaded into feature_importance()


MALFORMED_MODELS = {
    _self_loop: "children must come after it",
    _child_past_end: "children must come after it",
    _child_before_parent: "children must come after it",
    _unknown_feature: "feature is neither -1",
    _leaf_not_minus_one: "feature is neither -1",
    _short_values: "share one non-zero length",
    _empty_tree: "share one non-zero length",
    _too_deep: "deeper than max_depth 1",
    _names_not_gains: "1 feature names but 2 gains",
    _tree_missing_from_round: "round of 3 trees",
    _one_class: "two or more classes",
    _index_past_int64: "too large",
    _classes_string: "classes must be an array of strings",
    _classes_object: "classes must be an array of strings",
    _names_string: "feature_names must be an array of strings",
    _fractional_child: "left must be an array of integers",
    _bool_child: "left must be an array of integers",
    _string_feature: "feature must be an array of integers",
    _string_threshold: "threshold must be an array of numbers",
    _string_gain: "gain must be an array of numbers",
    _nan_threshold: "threshold holds a non-finite value",
    _infinite_value: "value holds a non-finite value",
    _minus_infinite_gain: "gain holds a non-finite value",
}


@pytest.mark.parametrize("damage", MALFORMED_MODELS, ids=lambda f: f.__name__.strip("_"))
def test_from_json_refuses_malformed_trees(damage):
    # before these checks, a self-loop made scoring loop forever and the
    # out-of-range indices raised IndexError
    doc = _model_doc()
    GBDTClassifier.from_json(json.dumps(doc))  # the undamaged document loads
    damage(doc)
    with pytest.raises(errors.InvalidConfig, match=MALFORMED_MODELS[damage]):
        GBDTClassifier.from_json(json.dumps(doc))


def test_decision_scores_checks_width_without_names():
    X, y = _blobs(n_per=10)
    model = GBDTClassifier(FAST).fit(X, y)
    with pytest.raises(errors.SchemaMismatch, match="3 columns but model expects 2"):
        model.decision_scores(np.zeros((2, 3)))


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
    with pytest.raises(errors.TooFewSamples, match="^class 'a' has 3 samples, fewer than 5 folds"):
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
    assert cross_validate_each(X, y, [X], FAST, n_folds=5, seed=0) == [base]
    # every test row sits on class a's centre, so only class a is recovered
    (shifted,) = cross_validate_each(X, y, [np.zeros_like(X)], FAST, n_folds=5, seed=0)
    assert shifted.recall == {"a": 1.0, "b": 0.0, "c": 0.0}
    with pytest.raises(errors.SchemaMismatch):
        cross_validate_each(X, y, [X[:, :1]], FAST, n_folds=5, seed=0)


def test_cross_validation_checks_shapes_before_dealing_folds():
    # four labels cannot fill ten folds, but the shapes are what is wrong
    X = np.zeros((40, 3))
    with pytest.raises(errors.SchemaMismatch, match="one label per row"):
        cross_validate(X, ["a", "b", "c", "d"], FAST, n_folds=10)
    with pytest.raises(errors.SchemaMismatch, match="2-D"):
        cross_validate_each(X[:, 0], ["a", "b"] * 20, [X[:, 0]], FAST, n_folds=30)


def test_fitting_and_loading_never_import_numpy_ma():
    # numpy.ma costs about 1.2 MB once imported; np.unique without
    # return_inverse or counts, and np.setdiff1d, import it.  A fresh
    # interpreter, since any earlier test may have imported it here
    code = """
import sys
import numpy as np
from robofp.classifier import GBDTClassifier, GBDTParams, cross_validate
rng = np.random.default_rng(0)
X = rng.normal(size=(60, 4))
y = [("a", "b", "c")[i % 3] for i in range(60)]
cross_validate(X, y, GBDTParams(n_rounds=3), n_folds=3)
GBDTClassifier.from_json(GBDTClassifier(GBDTParams(n_rounds=3)).fit(X, y).to_json())
print("numpy.ma" in sys.modules)
"""
    assert run_python(code).strip() == "False"


# ---------------------------------------------------------------------------
# stratified folds and cross-validation against the loops they replaced


def _reference_folds(y, n_folds, seed):
    """The dealing loop ``stratified_folds`` replaced: one index at a time."""
    y_arr = np.array(y)
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(n_folds)]
    for c in sorted(set(y)):
        idx = np.flatnonzero(y_arr == c)
        rng.shuffle(idx)
        for j, i in enumerate(idx):
            folds[j % n_folds].append(int(i))
    return [np.array(sorted(f)) for f in folds]


def _reference_cross_validate(X, y, params, n_folds, seed, X_test=None):
    """The per-prediction and per-class tally loops ``cross_validate`` replaced."""
    X_test = X if X_test is None else X_test
    classes = sorted(set(y))
    class_index = {c: k for k, c in enumerate(classes)}
    confusion = np.zeros((len(classes), len(classes)), dtype=np.int64)
    fold_accuracies = []
    y_arr = np.array(y)
    for heldout in _reference_folds(y, n_folds, seed):
        train = np.setdiff1d(np.arange(len(y)), heldout)
        model = GBDTClassifier(params).fit(X[train], list(y_arr[train]))
        pred = model.predict(X_test[heldout])
        truth = y_arr[heldout]
        fold_accuracies.append(float(np.mean(pred == truth)))
        for t, p in zip(truth, pred):
            confusion[class_index[t], class_index[p]] += 1
    total = confusion.sum()
    precision, recall = {}, {}
    for c, k in class_index.items():
        col, row = confusion[:, k].sum(), confusion[k, :].sum()
        precision[c] = float(confusion[k, k] / col) if col else 0.0
        recall[c] = float(confusion[k, k] / row) if row else 0.0
    return CVReport(classes, fold_accuracies, float(confusion.trace() / total),
                    confusion.tolist(), precision, recall)


@st.composite
def _cv_problems(draw):
    """Labels of 2-6 classes of unequal sizes, in a drawn order, and a fold
    count from 2 up to the smallest class size."""
    names = draw(st.lists(st.text("abAB", min_size=1, max_size=3), min_size=2, max_size=6,
                          unique=True))
    sizes = draw(st.lists(st.integers(2, 9), min_size=len(names), max_size=len(names)))
    y = draw(st.permutations([c for c, k in zip(names, sizes) for _ in range(k)]))
    return y, draw(st.integers(2, min(sizes))), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(_cv_problems())
def test_stratified_folds_match_reference_dealing(problem):
    y, n_folds, seed = problem
    folds = stratified_folds(y, n_folds, seed)
    expected = _reference_folds(y, n_folds, seed)
    assert len(folds) == len(expected)
    for got, want in zip(folds, expected):
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(_cv_problems(), st.booleans())
def test_cross_validate_matches_reference_tally(problem, shifted):
    y, n_folds, seed = problem
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(len(y), 2))
    X_test = rng.normal(size=X.shape) if shifted else None
    params = GBDTParams(n_rounds=2, max_depth=2)
    if shifted:
        (report,) = cross_validate_each(X, y, [X_test], params, n_folds=n_folds, seed=seed)
    else:
        report = cross_validate(X, y, params, n_folds=n_folds, seed=seed)
    expected = _reference_cross_validate(X, y, params, n_folds, seed, X_test)
    assert report == expected
    assert json.dumps(report.to_doc()) == json.dumps(expected.to_doc())


@settings(max_examples=40, deadline=None)
@given(_cv_problems(), st.integers(0, 2), st.booleans())
def test_cross_validate_each_matches_reference_per_test_matrix(problem, n_shifted, flat):
    # rank copies, a reversed copy and a constant column: the folds fit on
    # the rank-class columns only, and every test matrix scores as a fit on
    # all of them would; with every column constant no column is kept
    y, n_folds, seed = problem
    rng = np.random.default_rng(seed)
    x = rng.normal(size=len(y))
    X = np.column_stack(
        [rng.integers(0, 3, len(y)).astype(float), x, 3 * x + 1, np.full(len(y), 2.0), -x,
         np.exp(x)]
    )
    if flat:
        X = np.full((len(y), 3), 1.5)
    tests = [X] + [rng.normal(size=X.shape) for _ in range(n_shifted)]
    params = GBDTParams(n_rounds=2, max_depth=2)
    reports = cross_validate_each(X, y, tests, params, n_folds, seed)
    assert reports == [_reference_cross_validate(X, y, params, n_folds, seed, t) for t in tests]


def test_problem_key_covers_the_reduced_problem_only():
    X, y = _random_problem(3, n=20, d=3, copies=True)
    key = problem_key(X, y, FAST, 5, 0)
    # columns 3-5 share column 1's rank class, so no fit reads them, and none
    # reads a constant column
    same = X.copy()
    same[:, 4] = 2 * same[:, 4] + 7
    assert problem_key(np.column_stack([same, np.full(20, 3.0)]), y, FAST, 5, 0) == key
    # the searched column's values set the thresholds, even at the same ranks
    moved = X.copy()
    moved[:, 1] *= 2
    flipped = ["b" if v != "b" else "a" for v in y[:1]] + list(y[1:])
    others = {
        problem_key(moved, y, FAST, 5, 0),
        problem_key(X, flipped, FAST, 5, 0),
        problem_key(X, y, FAST, 4, 0),
        problem_key(X, y, FAST, 5, 1),
        problem_key(X, y, replace(FAST, n_rounds=FAST.n_rounds + 1), 5, 0),
    }
    assert len(others) == 5 and key not in others
