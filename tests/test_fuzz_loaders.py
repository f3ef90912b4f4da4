"""Every loader either returns or raises a RobofpError, whatever it reads.

Inputs stay tiny: arbitrary bytes, arbitrary JSON values whose keys and
strings are biased towards the names the loaders look for, and CSV bodies
built from fragments near the grammar's edges.
"""

import json

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


@FUZZ
@given(DOCUMENTS | _encoded(st.fixed_dictionaries({"model": st.just("gbdt-softmax")}, optional={
    k: JSON for k in ("params", "classes", "feature_names", "gain", "trees")
})))
@example(b"[]")
@example(b"null")
@example(b"[" * 5000)
def test_gbdt_from_json(data):
    _loads_or_refuses(GBDTClassifier.from_json, data)
