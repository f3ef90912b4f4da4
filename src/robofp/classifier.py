"""Gradient-boosted decision trees with a softmax objective.

Exact greedy splitting on presorted columns, one tree per class per round.
Kept in-house so that training is bit-reproducible across platforms, models
serialize to plain JSON, and split tie-breaking is pinned: the candidate
with the lowest feature index wins, then the lowest threshold.

Per-round math: with current class scores F and probabilities
p = softmax(F), gradient g = p - y and hessian h = p (1 - p) per class;
each leaf takes weight -G / (H + lambda) and scores move by the learning
rate times that weight.  Split gain is the usual
0.5 (GL^2/(HL+l) + GR^2/(HR+l) - G^2/(H+l)).

The search runs only where a split can exist, and only once per rank
class, which cannot change a model:

* A node whose hessian sum is below 2 * min_child_weight becomes a leaf
  unsearched, since each child needs hessian mass >= min_child_weight.  A
  1e-9 relative margin absorbs rounding differences between the node's sum
  and the search's running sums, so no admissible split is lost.
* A column whose presorted training values never rise is never searched.
  A node's rows are a subsequence of that order, so the column offers no
  split between two distinct values at any node.
* Columns with the same stable presort order and the same rise pattern
  form a rank class; only its first column is searched.  At every node the
  class shares one row order, one set of valid positions and one set of
  gains, and the first maximum always falls on the lowest index.  The
  searched columns run in ascending order, which keeps the lowest-feature
  tie-break.
* A node's per-column sorted rows are filtered from its parent's, not from
  the full presort; the order within each column is the same.  The root
  takes the presort as it is.
* g and h travel as one complex array, so one gather and one cumsum give
  both running sums; each component is still a sequential IEEE sum.  Both
  write into one buffer made per fit, so no search allocates its sums.
* A node's own (g, h) sums come from one gather of its rows, ``gh[mask]``,
  and one ``np.add.reduce`` (what ``.sum()`` calls, minus its Python
  wrapper) per part: the pairwise sum in row order that ``g[mask].sum()``
  gives.  numpy sums along one axis pairwise (8-way blocks of up to 128),
  so the order is part of the result.  The gathers stay C-ordered for
  that reason: ``A[:, mask]`` on a (2, n) array comes back F-ordered, and
  its ``sum(axis=1)`` adds the values one at a time, which can differ in
  the last bit.  A node's row count is the length of that gather.
* Each tree's g + i h is a contiguous row of the round's transposed array,
  and a split's left child is ``mask & (Xt[f] <= threshold)`` on one
  contiguous row of ``X.T``, made once per fit; the right child is
  ``mask ^ left``.
* The candidates are the running sums at valid positions, compressed in C
  order (column by column, then position); the winner's column and
  position come back from its flat index.

Training scores move by the leaf weights written as the tree grows: the
rows reach each leaf by the same ``X[:, f] <= threshold`` tests that
``predict`` follows.  Non-finite inputs are rejected: a split midpoint next
to inf is inf, which would send every row left whatever side the gain was
computed for.

Scoring uses one flat forest, built once after ``fit`` and in
``from_json``: every tree's nodes in one table, leaves as their own
children.  All trees are walked together for as many steps as the deepest
tree has levels, and the leaf values are added to the scores round by
round, in round order, so each class score is the same sum in the same
order as one tree at a time would give.  Building the table also checks a
loaded model: children come after their parent and inside its tree, so no
walk can loop.

Cross-validation finds the rank classes of the whole matrix once and fits
every fold on their searched columns only: a fit on any subset of the rows
searches no other column, so the predictions are unchanged.  The same
reduction keys a training problem (``problem_key``), so that a sweep
cross-validates each distinct one once, and ``cross_validate_each`` scores
several test matrices with one set of fold models.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InvalidConfig, SchemaMismatch, SingleClass, TooFewSamples
from .errors import _json_array, check_field_types

_MIN_GAIN = 1e-12

# One `robofp evaluate` of the default 200 captures (10 fold fits and the
# top-feature fit) must finish within an hour on a 2-vCPU box.  A round cost
# at most 16 ms a fit there (seed 42, shuffled labels, learning_rate 1e-6,
# max_depth 1000, min_child_weight 0), so 11 fits of 20,000 take 3,600 s.
MAX_ROUNDS = 20_000
# `_grow_node` recurses once per tree level, so a tree of depth d takes d + 1
# frames; 500 leaves half of Python's default limit of 1,000 frames to the
# callers.  MAX_ROUNDS' hour was measured at max_depth 1000, deeper than this.
MAX_DEPTH = 500


@dataclass(frozen=True)
class GBDTParams:
    n_rounds: int = 100  # at most MAX_ROUNDS
    max_depth: int = 6  # at most MAX_DEPTH
    learning_rate: float = 0.3
    reg_lambda: float = 1.0
    min_child_weight: float = 1.0

    def __post_init__(self):
        check_field_types(self)
        if self.n_rounds < 1 or self.max_depth < 1:
            raise InvalidConfig("n_rounds and max_depth must be >= 1")
        if self.n_rounds > MAX_ROUNDS:
            raise InvalidConfig(f"n_rounds must be <= {MAX_ROUNDS}, got {self.n_rounds}")
        if self.max_depth > MAX_DEPTH:
            raise InvalidConfig(f"max_depth must be <= {MAX_DEPTH}, got {self.max_depth}")
        if not 0 < self.learning_rate <= 1:
            raise InvalidConfig("learning_rate must be in (0, 1]")
        if self.reg_lambda < 0 or self.min_child_weight < 0:
            raise InvalidConfig("regularizers must be non-negative")
        # either one keeps every gain and weight denominator above zero
        if self.reg_lambda == 0 and self.min_child_weight == 0:
            raise InvalidConfig("reg_lambda and min_child_weight cannot both be 0")


@dataclass
class _Tree:
    """Flat node arrays; node 0 is the root, leaves carry the weight."""

    feature: list[int] = field(default_factory=list)
    threshold: list[float] = field(default_factory=list)
    left: list[int] = field(default_factory=list)
    right: list[int] = field(default_factory=list)
    value: list[float] = field(default_factory=list)

    def add_leaf(self, weight: float) -> int:
        return self._add(-1, 0.0, -1, -1, weight)

    def add_split(self, f: int, t: float) -> int:
        return self._add(f, t, -1, -1, 0.0)

    def _add(self, f, t, l, r, v) -> int:
        self.feature.append(f)
        self.threshold.append(t)
        self.left.append(l)
        self.right.append(r)
        self.value.append(v)
        return len(self.feature) - 1

    @classmethod
    def from_doc(cls, doc: dict) -> "_Tree":
        ints = {k: _json_array(k, doc[k], "integers") for k in ("feature", "left", "right")}
        tree = cls(
            **ints,
            threshold=[float(v) for v in _json_array("threshold", doc["threshold"], "numbers")],
            value=[float(v) for v in _json_array("value", doc["value"], "numbers")],
        )
        if not tree.feature or len({len(v) for v in vars(tree).values()}) != 1:
            raise InvalidConfig("a tree's node lists must share one non-zero length")
        return tree


@dataclass(frozen=True)
class _Forest:
    """Every tree of a model in one node table, trees in (round, class)
    order.  Child indices are global, and a leaf is its own child with
    feature 0, so a walk of ``depth`` steps leaves every row on a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    depth: int


def _flatten(trees: list[list[_Tree]], n_classes: int, n_features: int, max_depth: int) -> _Forest:
    """One node table for the ensemble; InvalidConfig unless every tree is
    one that ``fit`` could have written: children after their parent and
    inside its tree, leaves marked -1, split features below ``n_features``,
    no deeper than ``max_depth``."""
    if not trees or any(len(row) != n_classes for row in trees):
        raise InvalidConfig(f"model needs at least one round of {n_classes} trees")
    flat = [t for row in trees for t in row]
    sizes = np.array([len(t.feature) for t in flat])
    roots = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    start = np.repeat(roots, sizes)
    local = np.arange(len(start)) - start
    feature, left, right = (
        np.array([v for t in flat for v in getattr(t, name)], dtype=np.int64)
        for name in ("feature", "left", "right")
    )
    split = feature >= 0
    own, size = local[split], sizes.repeat(sizes)[split]
    if ((feature < -1) | (feature >= n_features)).any():
        raise InvalidConfig(f"a node's feature is neither -1 (a leaf) nor below {n_features}")
    if not all(((c > own) & (c < size)).all() for c in (left[split], right[split])):
        raise InvalidConfig("a split's children must come after it, inside its tree")
    node = np.arange(len(start))
    left = np.where(split, left + start, node)
    right = np.where(split, right + start, node)
    depth, level = 0, roots[split[roots]]
    while len(level):
        depth += 1
        if depth > max_depth:
            raise InvalidConfig(f"a tree is deeper than max_depth {max_depth}")
        # marks, not np.unique, which imports numpy.ma (about 1.2 MB)
        reached = np.zeros(len(node), dtype=bool)
        reached[left[level]] = True
        reached[right[level]] = True
        level = np.flatnonzero(reached & split)
    return _Forest(
        np.where(split, feature, 0),
        np.array([v for t in flat for v in t.threshold]),
        left,
        right,
        np.array([v for t in flat for v in t.value]),
        roots,
        depth,
    )


def _check_finite(X: np.ndarray, names: list[str] | None) -> None:
    """Raise SchemaMismatch naming the first column that holds inf or nan."""
    finite = np.isfinite(X).all(axis=0)
    if not finite.all():
        j = int(np.argmin(finite))
        name = names[j] if names else f"f{j}"
        raise SchemaMismatch(f"column {j} ({name}) holds a non-finite value")


def _rank_classes(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columns ``fit`` searches, ascending: the first column of each rank
    class that rises; then the stable presort of every column and the
    sorted values."""
    order = np.argsort(X, axis=0, kind="stable")
    sorted_x = np.take_along_axis(X, order, axis=0)
    rise = sorted_x[1:] > sorted_x[:-1]
    varying = np.flatnonzero(rise.any(axis=0))[::-1]  # the lowest index is kept
    rank_class = {(order[:, f].tobytes(), rise[:, f].tobytes()): f for f in varying}
    return np.array(sorted(rank_class.values()), dtype=np.int64), order, sorted_x


def _softmax(scores: np.ndarray) -> np.ndarray:
    z = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class GBDTClassifier:
    def __init__(self, params: GBDTParams | None = None, feature_names: list[str] | None = None):
        self.params = params or GBDTParams()
        self.feature_names = list(feature_names) if feature_names else None
        self.classes_: list[str] = []
        self.trees_: list[list[_Tree]] = []  # [round][class]
        self._gain: np.ndarray | None = None
        self._forest: _Forest | None = None
        self._sums: np.ndarray | None = None  # the split search's buffer, during fit

    # -- training ---------------------------------------------------------

    def fit(self, X: np.ndarray, y: list[str]) -> "GBDTClassifier":
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or len(y) != X.shape[0]:
            raise SchemaMismatch("X must be 2-D with one label per row")
        if self.feature_names is not None and len(self.feature_names) != X.shape[1]:
            raise SchemaMismatch(
                f"{X.shape[1]} columns but {len(self.feature_names)} feature names"
            )
        _check_finite(X, self.feature_names)
        self.classes_ = sorted(set(y))
        if len(self.classes_) < 2:
            raise SingleClass("training data contains a single class")
        n, n_features = X.shape
        K = len(self.classes_)
        Y = np.eye(K)[np.searchsorted(self.classes_, y)]  # one-hot rows

        features, order, sorted_x = _rank_classes(X)
        presorted = (order[:, features].T.copy(), sorted_x[:, features].T.copy())
        del order, sorted_x  # only the searched columns are read from here on
        # the running sums of every search, written in place (_best_split)
        self._sums = np.empty(len(features) * n, dtype=np.complex128)

        self._gain = np.zeros(n_features)
        self.trees_ = []
        scores = np.zeros((n, K))
        root = np.ones(n, dtype=bool)
        Xt = X.T.copy()  # one contiguous row per feature for the child masks
        for _ in range(self.params.n_rounds):
            P = _softmax(scores)
            GH = ((P - Y) + 1j * (P * (1.0 - P))).T.copy()  # g + i h, one row per class
            round_trees = []
            for k in range(K):
                tree = _Tree()
                update = np.zeros(n)
                self._grow_node(tree, Xt, features, GH[k], root, *presorted, update, 0)
                round_trees.append(tree)
                scores[:, k] += self.params.learning_rate * update
            self.trees_.append(round_trees)
        self._sums = None
        self._forest = _flatten(self.trees_, K, n_features, self.params.max_depth)
        return self

    def _grow_node(self, tree, Xt, features, gh, mask, rows, xs, update, depth) -> int:
        """Grow the subtree over the rows in ``mask`` and write its leaf
        weights into ``update``.  ``gh`` holds g + i h per row; ``rows`` and
        ``xs`` are the parent's per searched column, in sorted order."""
        params = self.params
        sel = gh[mask]  # C-ordered, so each part sums pairwise in row order
        n_node = len(sel)
        g_sum = np.add.reduce(sel.real)
        h_sum = np.add.reduce(sel.imag)
        denom = h_sum + params.reg_lambda
        weight = -g_sum / denom if denom > 0 else 0.0
        # each child needs hessian mass >= min_child_weight; the margin covers
        # rounding differences between h_sum and the search's running sums
        hopeless = h_sum < 2.0 * params.min_child_weight * (1.0 - 1e-9)
        found = None
        if depth < params.max_depth and n_node >= 2 and not hopeless:
            if depth:  # the root holds every row
                keep = mask.take(rows).ravel()
                rows = rows.compress(keep).reshape(len(features), n_node)
                xs = xs.compress(keep).reshape(len(features), n_node)
            found = self._best_split(features, rows, xs, gh, g_sum, h_sum)
        if found is None:
            update[mask] = weight
            return tree.add_leaf(weight)
        f, threshold, gain = found
        self._gain[f] += gain
        node = tree.add_split(f, threshold)
        left = mask & (Xt[f] <= threshold)
        grow, depth = self._grow_node, depth + 1
        tree.left[node] = grow(tree, Xt, features, gh, left, rows, xs, update, depth)
        tree.right[node] = grow(tree, Xt, features, gh, mask ^ left, rows, xs, update, depth)
        return node

    def _best_split(self, features, rows, xs, gh, g_sum, h_sum):
        """Best (feature, threshold, gain) over a node's rows and values,
        each sorted per searched column, or None."""
        lam, mcw = self.params.reg_lambda, self.params.min_child_weight

        # running (g, h) sums left of each candidate split: (cols, n_node - 1),
        # in the fit's buffer: take writes in place into a contiguous out
        # unless mode="raise" makes it buffer (every row is in range)
        sums = self._sums[: rows.size].reshape(rows.shape)
        gh.take(rows, out=sums, mode="clip")
        cs = sums[:, :-1]
        cs.cumsum(axis=1, out=cs)
        valid = xs[:, 1:] > xs[:, :-1]  # no split between equal values
        valid &= cs.imag >= mcw
        valid &= h_sum - cs.imag >= mcw
        # C order scans column by column, then position: the first maximum
        # breaks ties toward the lowest feature index, then lowest threshold
        cand = cs[valid]
        if not len(cand):
            return None
        gl, hl = cand.real, cand.imag
        gain = gl * gl / (hl + lam) + (g_sum - gl) ** 2 / (h_sum - hl + lam)
        gain -= g_sum * g_sum / (h_sum + lam)
        i = gain.argmax()
        if gain[i] <= _MIN_GAIN:
            return None
        j, pos = divmod(int(valid.ravel().nonzero()[0][i]), valid.shape[1])
        threshold = float(0.5 * (xs[j, pos] + xs[j, pos + 1]))
        return int(features[j]), threshold, float(0.5 * gain[i])

    # -- inference --------------------------------------------------------

    def _check_fitted(self):
        if not self.trees_:
            raise InvalidConfig("model is not fitted")

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise SchemaMismatch("X must be 2-D")
        if X.shape[1] != len(self._gain):
            raise SchemaMismatch(f"{X.shape[1]} columns but model expects {len(self._gain)}")
        _check_finite(X, self.feature_names)
        forest = self._forest
        rows = np.arange(len(X))
        node = np.repeat(forest.roots[:, None], len(X), axis=1)  # (trees, rows)
        for _ in range(forest.depth):
            goes_left = X[rows, forest.feature[node]] <= forest.threshold[node]
            node = np.where(goes_left, forest.left[node], forest.right[node])
        # (rounds, classes, rows), summed round by round as the trees were grown
        leaf = forest.value[node].reshape(len(self.trees_), len(self.classes_), len(X))
        scores = np.zeros((len(X), len(self.classes_)))
        for r in range(len(leaf)):
            scores += self.params.learning_rate * leaf[r].T
        return scores

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _softmax(self.decision_scores(X))

    def predict(self, X: np.ndarray) -> list[str]:
        return [self.classes_[i] for i in np.argmax(self.predict_proba(X), axis=1)]

    def feature_importance(self) -> dict[str, float]:
        """Total split gain per feature; zero for never-used features."""
        self._check_fitted()
        names = self.feature_names or [f"f{i}" for i in range(len(self._gain))]
        return {name: float(v) for name, v in zip(names, self._gain)}

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        self._check_fitted()
        return json.dumps(
            {
                "model": "gbdt-softmax",
                "version": 1,
                "params": asdict(self.params),
                "classes": self.classes_,
                "feature_names": self.feature_names,
                "gain": [float(v) for v in self._gain],
                "trees": [[asdict(t) for t in row] for row in self.trees_],
            }
        )

    @classmethod
    def from_json(cls, text: str | bytes) -> "GBDTClassifier":
        try:
            doc = json.loads(text)
            if not isinstance(doc, dict) or doc.get("model") != "gbdt-softmax":
                raise InvalidConfig("not a gbdt-softmax model document")
            if (names := doc.get("feature_names")) is not None:
                _json_array("feature_names", names, "strings")
            model = cls(GBDTParams(**doc["params"]), names)
            model.classes_ = list(_json_array("classes", doc["classes"], "strings"))
            model.trees_ = [[_Tree.from_doc(d) for d in row] for row in doc["trees"]]
            model._gain = gain = np.array(_json_array("gain", doc["gain"], "numbers"), dtype=float)
            if len(model.classes_) < 2:
                raise InvalidConfig("model needs two or more classes")
            if names and len(names) != len(gain):
                raise InvalidConfig(f"{len(names)} feature names but {len(gain)} gains")
            # node indices beyond int64 overflow here
            model._forest = _flatten(
                model.trees_, len(model.classes_), len(gain), model.params.max_depth
            )
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as e:
            raise InvalidConfig(f"bad model document: {e}") from e
        return model


# ---------------------------------------------------------------------------
# stratified cross-validation


@dataclass
class CVReport:
    classes: list[str]
    fold_accuracies: list[float]
    accuracy: float
    confusion: list[list[int]]  # confusion[true][predicted]
    precision: dict[str, float]
    recall: dict[str, float]

    def to_doc(self) -> dict:
        return asdict(self)


def stratified_folds(y: list[str], n_folds: int, seed: int) -> list[np.ndarray]:
    """Shuffle within class, in sorted class order, and deal round-robin: fold f
    takes every n_folds-th index of each class from position f."""
    if n_folds < 2:
        raise InvalidConfig(f"n_folds must be >= 2, got {n_folds}")
    classes = sorted(set(y))
    if len(classes) < 2:
        raise SingleClass("need at least two classes")
    y_arr = np.array(y)
    rng = np.random.default_rng(seed)
    shuffled = []
    for c in classes:
        idx = np.flatnonzero(y_arr == c)
        if len(idx) < n_folds:
            raise TooFewSamples(
                f"class {c!r} has {len(idx)} samples, fewer than {n_folds} folds; "
                f"n_folds must not exceed any class's sample count"
            )
        rng.shuffle(idx)
        shuffled.append(idx)
    return [np.sort(np.concatenate([idx[f::n_folds] for idx in shuffled])) for f in range(n_folds)]


def problem_key(X: np.ndarray, y: list[str], params: GBDTParams, n_folds: int, seed: int) -> str:
    """sha256 of a cross-validation's reduced training problem: the rank-class
    columns of ``X`` (their indices and values), the labels, ``n_folds``,
    ``seed`` and ``params``.  Two problems with one key give one CVReport,
    since every fold model reads only those columns (``cross_validate``)."""
    X = np.asarray(X, dtype=np.float64)
    columns = _rank_classes(X)[0]
    doc = [columns.tolist(), list(y), n_folds, seed, asdict(params)]
    digest = hashlib.sha256(json.dumps(doc).encode())
    digest.update(np.ascontiguousarray(X[:, columns]).tobytes())
    return digest.hexdigest()


def cross_validate(
    X: np.ndarray,
    y: list[str],
    params: GBDTParams | None = None,
    n_folds: int = 10,
    seed: int = 0,
    feature_names: list[str] | None = None,
) -> CVReport:
    """Stratified k-fold CV: fit on each fold's complement, score the fold.
    ``cross_validate_each`` scores other matrices of the same captures, such
    as the captures after a defense, with the same fold models."""
    (report,) = cross_validate_each(X, y, [X], params, n_folds, seed, feature_names)
    return report


def cross_validate_each(
    X: np.ndarray,
    y: list[str],
    X_tests: list[np.ndarray],
    params: GBDTParams | None = None,
    n_folds: int = 10,
    seed: int = 0,
    feature_names: list[str] | None = None,
) -> list[CVReport]:
    """One CVReport per matrix of ``X_tests``, from one set of fold models.

    Each fold's model is fitted once on rows of ``X`` and predicts that
    fold's held-out rows of every test matrix; it goes before the next fold
    is fitted.  The models fit on the rank-class columns of ``X`` only
    (``_rank_classes``).  Two columns with one stable order and rise pattern
    keep both on any subset of rows, so no fold's fit searches another
    column, and the predictions are those of a fit on every column.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or len(y) != X.shape[0]:
        raise SchemaMismatch("X must be 2-D with one label per row")
    X_tests = [np.asarray(t, dtype=np.float64) for t in X_tests]
    for X_test in X_tests:
        if X_test.shape != X.shape:
            raise SchemaMismatch(f"X_test has shape {X_test.shape}, X has {X.shape}")
    folds = stratified_folds(y, n_folds, seed)
    for matrix in (X, *X_tests):
        _check_finite(matrix, feature_names)
    columns = _rank_classes(X)[0]
    reduced = X[:, columns]
    X_tests = [reduced if t is X else t[:, columns] for t in X_tests]
    X = reduced
    names = [feature_names[j] for j in columns] if feature_names else None
    classes = sorted(set(y))
    codes = np.searchsorted(classes, y)  # index in the sorted class list
    confusions = [np.zeros((len(classes), len(classes)), dtype=np.int64) for _ in X_tests]
    fold_accuracies = [[] for _ in X_tests]

    for heldout in folds:
        keep = np.ones(len(y), dtype=bool)  # np.setdiff1d imports numpy.ma
        keep[heldout] = False
        train = np.flatnonzero(keep)
        model = GBDTClassifier(params, names)  # frees the previous fold's model
        model.fit(X[train], [y[i] for i in train])
        for X_test, confusion, accuracies in zip(X_tests, confusions, fold_accuracies):
            pred = np.searchsorted(classes, model.predict(X_test[heldout]))
            np.add.at(confusion, (codes[heldout], pred), 1)
            accuracies.append(float(np.mean(pred == codes[heldout])))

    return [_report(classes, c, a) for c, a in zip(confusions, fold_accuracies)]


def _report(classes: list[str], confusion: np.ndarray, fold_accuracies: list[float]) -> CVReport:
    precision, recall = (
        np.divide(confusion.diagonal(), sums, out=np.zeros(len(classes)), where=sums > 0).tolist()
        for sums in (confusion.sum(axis=0), confusion.sum(axis=1))
    )
    return CVReport(
        classes=classes,
        fold_accuracies=fold_accuracies,
        accuracy=float(confusion.trace() / confusion.sum()),
        confusion=confusion.tolist(),
        precision=dict(zip(classes, precision)),
        recall=dict(zip(classes, recall)),
    )
