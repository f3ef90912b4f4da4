"""Every loader either returns or raises a RobofpError, whatever it reads.

Inputs stay tiny: arbitrary bytes, arbitrary JSON values whose keys and
strings are biased towards the names the loaders look for, and CSV bodies
built from fragments near the grammar's edges.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robofp.classifier import GBDTClassifier
from robofp.errors import RobofpError
from robofp.features import FeatureSchema, make_schema, read_feature_csv
from robofp.harness import ExperimentConfig
from robofp.sigproc import CommandKind, KernelBank
from robofp.synthgen import default_kernel_bank
from robofp.trace import MANIFEST_HEADER, TRACE_HEADER, load_dataset, parse_trace_csv

FUZZ = settings(max_examples=60, deadline=None)

CONFIG_KEYS = ["seed", "samples_per_class", "n_folds", "workers", "manifest", "feature_set",
               "sigproc", "classifier", "tail_dummies", "retrain_on_defended"]
OTHER_KEYS = ["bin_width", "merge_gap", "n_rounds", "max_depth", "learning_rate", "model",
              "params", "classes", "feature_names", "gain", "trees", "feature", "threshold",
              "left", "right", "value", "names", "config", "kernel_fingerprint", "version",
              "fingerprint", "kind", "values", "source_id"]
WORDS = st.sampled_from(
    CONFIG_KEYS + OTHER_KEYS + ["gbdt-softmax", "full", *(k.value for k in CommandKind)]
) | st.text(max_size=3)
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | WORDS
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(WORDS, inner, max_size=4),
    max_leaves=8,
)


def _encoded(values):
    return values.map(lambda v: json.dumps(v).encode())


DOCUMENTS = st.binary(max_size=40) | _encoded(JSON)


def _csv(header: str, fields: list[str]):
    """The header, or junk, followed by up to four rows of sampled fields."""
    row = st.lists(st.sampled_from(fields), min_size=1, max_size=4).map(",".join)
    text = st.tuples(st.sampled_from([header, "", "x,y"]), st.lists(row, max_size=4))
    lines = text.map(lambda t: "\n".join([t[0], *t[1]]).encode())
    return st.binary(max_size=40) | lines | st.tuples(lines, st.binary(max_size=4)).map(
        lambda t: t[0] + t[1]
    )


def _loads_or_refuses(load, *args):
    try:
        return load(*args)
    except RobofpError:
        return None


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "a.csv").write_bytes(b"t,dir,size\n0.0,1,100\n0.5,-1,60\n")
    (d / "b.csv").write_bytes(b"t,dir,size\n0.0,1,\xff\n")
    return d


@FUZZ
@given(_csv(TRACE_HEADER, ["0", "0.5", "1e400", "nan", "-1", "1", "+1", "2", "60", "1501",
                           "", " ", "\r", "\xff"]))
def test_parse_trace_csv(data):
    _loads_or_refuses(parse_trace_csv, data)


@FUZZ
@given(data=_csv(MANIFEST_HEADER, ["a.csv", "b.csv", "c.csv", ".", "PressKey", "Nope", "", "\r"]))
def test_load_dataset(workdir, data):
    (workdir / "manifest.csv").write_bytes(data)
    _loads_or_refuses(load_dataset, workdir / "manifest.csv")


@FUZZ
@given(data=DOCUMENTS | _encoded(st.lists(st.dictionaries(WORDS, JSON, max_size=4), max_size=3)))
@example(data=b"[\xff]")
@example(data=b"[" * 5000)  # json raises RecursionError this deep
def test_kernel_bank_load(workdir, data):
    (workdir / "kernels.json").write_bytes(data)
    _loads_or_refuses(KernelBank.load, workdir / "kernels.json")


@FUZZ
@given(DOCUMENTS | _encoded(st.dictionaries(st.sampled_from(CONFIG_KEYS), JSON, max_size=3)))
@example(b'{"seed": 1.5}')
@example(b"[]")
@example(b'{"n_folds": 2\xff}')
@example(b"[" * 5000)
def test_experiment_config_from_json(data):
    config = _loads_or_refuses(ExperimentConfig.from_json, data)
    if config is not None:
        assert isinstance(json.loads(data), dict)
        for name in ("seed", "samples_per_class", "n_folds", "workers"):
            assert type(getattr(config, name)) is int


@FUZZ
@given(DOCUMENTS)
@example(b"[" * 5000)
def test_feature_schema_from_json(data):
    _loads_or_refuses(FeatureSchema.from_json, data)


SCHEMA = make_schema(default_kernel_bank(), feature_set="summary")


@FUZZ
@given(data=_csv(",".join(["trace_id", "label", *SCHEMA.names]),
                 ["x", "PressKey", "0.5", "inf", "nan", "", '"', "\r"]))
@example(data=b"\xff")
def test_read_feature_csv(workdir, data):
    (workdir / "features.csv").write_bytes(data)
    _loads_or_refuses(read_feature_csv, workdir / "features.csv", SCHEMA)


# small models of the right shape: leaves and stumps whose indices and
# value lists may be out of range
INDEX = st.integers(-2, 3)
LEAF = st.builds(lambda v: {"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1],
                            "value": [v]}, st.floats())
STUMP = st.builds(
    lambda f, t, lo, hi, v: {"feature": [f, -1, -1], "threshold": [t, 0.0, 0.0],
                             "left": [lo, -1, -1], "right": [hi, -1, -1], "value": [0.0, *v]},
    INDEX, st.floats(), INDEX, INDEX, st.lists(st.floats(), min_size=1, max_size=2),
)
MODELS = st.fixed_dictionaries({
    "model": st.just("gbdt-softmax"),
    "params": st.fixed_dictionaries({}, optional={"max_depth": st.integers(1, 2)}),
    "classes": st.just(["a", "b"]),
    "gain": st.lists(st.floats(0, 1), max_size=3),
    "trees": st.lists(st.lists(LEAF | STUMP, min_size=2, max_size=2), max_size=2),
}, optional={"feature_names": st.sampled_from([None, ["u"], ["u", "v"]])})
SELF_LOOP = {"model": "gbdt-softmax", "params": {}, "classes": ["a", "b"], "gain": [0.0],
             "trees": [[{"feature": [0, -1, -1], "threshold": [0.0] * 3, "left": [0, -1, -1],
                         "right": [2, -1, -1], "value": [0.0] * 3}] * 2]}

STUMPS = {"model": "gbdt-softmax", "params": {}, "classes": ["a", "b"],
          "feature_names": ["u", "v"], "gain": [0.5, 0.0],
          "trees": [[{"feature": [0, -1, -1], "threshold": [0.0223, 0.0, 0.0], "left": [1, -1, -1],
                      "right": [2, -1, -1], "value": [0.0, 0.5, -0.5]}] * 2]}


def _stumps(**edits):
    """STUMPS as JSON bytes, with top-level keys or the first tree's node lists replaced."""
    doc = json.loads(json.dumps(STUMPS))
    for key, value in edits.items():
        if key in doc:
            doc[key] = value
        else:
            doc["trees"][0][0][key] = value
    return json.dumps(doc).encode()


def _loads_unconverted(doc, model):
    """The model holds the document's own names, classes and node indices,
    and the numbers it read were finite JSON numbers."""
    assert model.classes_ == doc["classes"]
    assert model.feature_names == (doc.get("feature_names") or None)
    for row, doc_row in zip(model.trees_, doc["trees"]):
        for tree, node_lists in zip(row, doc_row):
            for key in ("feature", "left", "right"):
                assert getattr(tree, key) == node_lists[key]
                assert not any(isinstance(v, bool) for v in node_lists[key])
            for key in ("threshold", "value"):
                assert all(type(v) in (int, float) and math.isfinite(v) for v in node_lists[key])
    assert all(type(v) in (int, float) and math.isfinite(v) for v in doc["gain"])


@FUZZ
@given(DOCUMENTS | _encoded(st.fixed_dictionaries({"model": st.just("gbdt-softmax")}, optional={
    k: JSON for k in ("params", "classes", "feature_names", "gain", "trees")
})) | _encoded(MODELS))
@example(b"[]")
@example(b"null")
@example(b"[" * 5000)
@example(json.dumps(SELF_LOOP).encode())
@example(_stumps())
@example(_stumps(classes="ab"))
@example(_stumps(classes={"a": 0, "b": 1}))
@example(_stumps(feature_names="uv"))
@example(_stumps(left=[1.9, -1, -1]))
@example(_stumps(left=[True, -1, -1]))
@example(_stumps(feature=["0", "-1", "-1"]))
@example(_stumps(threshold=["0.0223", "0.0", "0.0"]))
@example(_stumps(gain=["0.5", "0.0"]))
@example(_stumps(threshold=[float("nan"), 0.0, 0.0]))
@example(_stumps(value=[0.0, float("inf"), -0.5]))
@example(_stumps(gain=[float("-inf"), 0.0]))
def test_gbdt_from_json(data):
    model = _loads_or_refuses(GBDTClassifier.from_json, data)
    if model is not None:
        _loads_unconverted(json.loads(data), model)
        # a model that loads also scores a finite matrix of its width
        width = len(model.feature_importance())
        _loads_or_refuses(model.decision_scores, np.zeros((3, width)))
