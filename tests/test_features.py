import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_trace, run_python
from robofp import errors, features, sigproc
from robofp.defenses import (
    MODULATION_INTERVALS,
    ModulationConfig,
    PaddingConfig,
    SlotPlan,
    apply_defense,
    apply_modulation_defense,
    modulation_preset,
)
from robofp.features import (
    FEATURE_SETS,
    MAX_SCAN_WORK,
    FeatureMatrix,
    FeatureSchema,
    SigprocConfig,
    command_clusters,
    command_feature_names,
    compute_features,
    feature_names,
    featurize_dataset,
    make_schema,
    read_feature_csv,
    summary_feature_names,
    write_feature_csv,
)
from robofp.sigproc import (
    ALL_KINDS,
    CommandKind,
    Kernel,
    KernelBank,
    bin_trace,
    linear_percentiles,
)
from robofp.synthgen import (
    GenConfig,
    default_command_templates,
    default_kernel_bank,
    gen_command,
    gen_dataset,
    trace_rng,
)
from robofp.trace import MTU, ActionLabel, Dataset, Trace


@pytest.fixture(scope="module")
def bank():
    return default_kernel_bank()


def _quiet_rows(duration, spacing=0.4, size=50):
    # sparse low-rate chatter so binning has context around injected commands
    rows = []
    t = 0.0
    while t <= duration:
        rows.append((round(t, 6), 1, size))
        rows.append((round(t + 0.21, 6), -1, size))
        t += spacing
    return rows


# ---------------------------------------------------------------------------
# names and schema


def test_feature_name_counts():
    assert len(command_feature_names()) == 42  # 3 kinds x 14 statistics
    assert len(summary_feature_names()) == 28
    assert len(feature_names("full")) == 70
    assert feature_names("full") == command_feature_names() + summary_feature_names()
    with pytest.raises(errors.InvalidConfig):
        feature_names("bogus")


def test_command_feature_names_follow_command_stats():
    stats = (
        "mean", "std", "median", "p25", "p75", "max", "min", "skewness", "kurtosis",
        "cluster_count", "total_cluster_length", "avg_cluster_length", "total_time_span",
        "avg_time_gap",
    )
    assert sigproc.CommandStats._fields == stats
    names = command_feature_names()
    for i, kind in enumerate(ALL_KINDS):
        assert names[14 * i : 14 * (i + 1)] == [f"{kind.name.lower()}_{s}" for s in stats]


def test_schema_round_trip(bank):
    schema = make_schema(bank, SigprocConfig(), "full")
    back = FeatureSchema.from_json(schema.to_json())
    assert back == schema
    assert back.fingerprint() == schema.fingerprint()


def test_schema_fingerprint_tracks_inputs(bank):
    a = make_schema(bank, SigprocConfig(), "full")
    b = make_schema(bank, SigprocConfig(conv_threshold=1.0), "full")
    c = make_schema(bank, SigprocConfig(), "summary")
    assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3


def test_schema_rejects_tampered_fingerprint(bank):
    doc = json.loads(make_schema(bank).to_json())
    doc["fingerprint"] = "0" * 16
    with pytest.raises(errors.SchemaMismatch):
        FeatureSchema.from_json(json.dumps(doc))


def test_schema_rejects_malformed_document():
    with pytest.raises(errors.InvalidConfig):
        FeatureSchema.from_json("{}")


@pytest.mark.parametrize(
    "key, value, needle",
    [("names", "ab", "names must be an array of strings"),
     ("feature_set", 5, "feature_set must be a string"),
     ("version", "x", "version must be an integer"),
     ("kernel_fingerprint", [1], "kernel_fingerprint must be a string")],
)
def test_schema_refuses_mistyped_field(bank, key, value, needle):
    # each of these once loaded: the string names as their characters, the
    # other values as they were
    doc = json.loads(make_schema(bank, feature_set="summary").to_json())
    del doc["fingerprint"]
    FeatureSchema.from_json(json.dumps(doc))  # the undamaged document loads
    doc[key] = value
    with pytest.raises(errors.InvalidConfig, match=needle):
        FeatureSchema.from_json(json.dumps(doc))


def test_sigproc_config_validation():
    with pytest.raises(errors.InvalidConfig):
        SigprocConfig(bin_width=0.0)
    with pytest.raises(errors.InvalidConfig):
        SigprocConfig(merge_gap=-0.1)


# ---------------------------------------------------------------------------
# detection-backed command features


def _feature(vec, name, feature_set="full"):
    return vec[feature_names(feature_set).index(name)]


def test_injected_cartesian_commands_are_counted(bank):
    # hand-built command/feedback pairs; 700 B feedback scores 700/650 > 0.9
    # against the mean-feedback kernel, so every pair must be found
    for k in (2, 5):
        rows = _quiet_rows(12.0)
        t = 1.0
        for _ in range(k):
            rows.append((t, 1, 200))
            rows.append((t + 0.02, -1, 700))
            t += 1.5
        vec = compute_features(make_trace(sorted(rows)), bank)
        assert _feature(vec, "cartesian_move_cluster_count") == k


def test_injected_speed_burst_is_detected(bank):
    templates = default_command_templates()
    rng = trace_rng(1, 0, 0)
    rows = _quiet_rows(10.0)
    times, dirs, sizes, _ = gen_command(
        rng, templates[CommandKind.GRIPPER_SPEED], 3.0, duration=2.4, profile="rise_slow"
    )
    rows.extend(zip(times, dirs, sizes))
    vec = compute_features(make_trace(sorted(rows)), bank)
    assert _feature(vec, "gripper_speed_cluster_count") == 1
    assert _feature(vec, "gripper_speed_max") > 0.25


def test_profile_shape_separates_run_lengths(bank):
    # a long grip holds the matched (slow-rise) ramp above the correlation
    # threshold longer than its time reversal, even though the two bursts
    # have identical size distributions; this is the pick/pour separator
    templates = default_command_templates()
    cfg = SigprocConfig()
    for dur in (2.5, 2.8):
        for seed in range(6):
            lens = {}
            for profile in ("rise_slow", "rise_fast"):
                rng = trace_rng(seed, 0, 0)
                rows = [(0.0, 1, 50), (9.99, -1, 50)]
                times, dirs, sizes, _ = gen_command(
                    rng, templates[CommandKind.GRIPPER_SPEED], 3.0,
                    duration=dur, profile=profile,
                )
                rows.extend(zip(times, dirs, sizes))
                _, cs = command_clusters(
                    make_trace(sorted(rows)), CommandKind.GRIPPER_SPEED, bank, cfg
                )
                lens[profile] = sum(c.end - c.start for c in cs)
            assert lens["rise_slow"] > lens["rise_fast"]


def test_command_block_is_read_by_name(bank):
    trace = gen_dataset(GenConfig(seed=1, samples_per_class=1)).traces[0]
    config = SigprocConfig()
    got = dict(zip(command_feature_names(), compute_features(trace, bank, config, "command")))
    for kind in ALL_KINDS:
        stats = sigproc.cluster_statistics(*command_clusters(trace, kind, bank, config))
        for name in sigproc.CommandStats._fields:
            assert got[f"{kind.name.lower()}_{name}"] == getattr(stats, name), (kind, name)


def test_scan_refuses_kernel_at_other_bin_width(bank):
    # the bank's kernels are 0.01 s kernels
    trace = make_trace(_quiet_rows(2.0))
    config = SigprocConfig(bin_width=0.05)
    for fs in ("full", "command"):
        with pytest.raises(errors.SchemaMismatch, match="bin_width 0.01"):
            compute_features(trace, bank, config, fs)
    with pytest.raises(errors.SchemaMismatch, match="sigproc.bin_width 0.05"):
        command_clusters(trace, CommandKind.GRIPPER_SPEED, bank, config)
    # the summary set scans nothing
    assert len(compute_features(trace, bank, config, "summary")) == 28


def test_command_clusters_routes_by_kind(bank):
    rows = _quiet_rows(6.0)
    trace = make_trace(rows)
    cfg = SigprocConfig()
    resp_conv, _ = command_clusters(trace, CommandKind.CARTESIAN_MOVE, bank, cfg)
    resp_corr, _ = command_clusters(trace, CommandKind.GRIPPER_SPEED, bank, cfg)
    # the correlation route is bounded to [-1, 1] and one window per offset;
    # the convolution route keeps the signal's length
    assert np.max(np.abs(resp_corr.values)) <= 1.0 + 1e-12
    k = len(bank.kernel_for(CommandKind.GRIPPER_SPEED).values)
    assert len(resp_conv.values) - len(resp_corr.values) == k - 1


# ---------------------------------------------------------------------------
# summary features against a hand oracle


def _summary_oracle(trace: Trace) -> dict:
    """Every summary feature of a wire-packet trace by name, from numpy."""
    want = {"packet_count": len(trace.times), "duration": trace.times[-1]}
    for d, sign in (("out", 1), ("in", -1)):
        mask = trace.dirs == sign
        sizes, times = trace.sizes[mask].astype(float), trace.times[mask]
        want[f"{d}_count"] = mask.sum()
        want[f"bytes_{d}"] = sizes.sum()
        want[f"size_mean_{d}"] = np.mean(sizes)
        want[f"size_std_{d}"] = np.std(sizes)
        for p in (50, 90):
            want[f"size_p{p}_{d}"] = np.percentile(sizes, p)
        for p in (5, 10, 25, 50, 75, 90, 95):
            want[f"iat_p{p}_{d}"] = np.percentile(np.diff(times), p)
    return want


def _assert_summary_by_name(vec, trace: Trace):
    want = _summary_oracle(trace)
    assert sorted(want) == sorted(summary_feature_names())
    got = dict(zip(summary_feature_names(), vec.tolist()))
    assert got == {name: float(value) for name, value in want.items()}


def test_summary_features_hand_computed(bank):
    rows = [
        (0.0, 1, 100),
        (0.5, 1, 200),
        (1.5, 1, 300),
        (1.75, 1, 1000),
        (0.2, -1, 400),
        (1.2, -1, 600),
        (1.3, -1, 50),
    ]
    trace = make_trace(sorted(rows))
    vec = compute_features(trace, bank, feature_set="summary")
    got = dict(zip(summary_feature_names(), vec))
    assert got["packet_count"] == 7
    assert got["out_count"] == 4
    assert got["in_count"] == 3
    assert got["bytes_out"] == 1600
    assert got["bytes_in"] == 1050
    assert got["duration"] == 1.75
    assert got["size_mean_out"] == 400.0
    assert got["size_std_out"] == pytest.approx(np.std([100, 200, 300, 1000]))
    assert got["size_mean_in"] == 350.0
    assert got["size_p50_out"] == 250.0
    assert got["size_p50_in"] == 400.0
    assert got["iat_p50_out"] == pytest.approx(0.5)  # of 0.25, 0.5, 1.0
    assert got["iat_p50_in"] == pytest.approx(0.55)  # of 0.1, 1.0
    # all 28 by name; each outgoing value differs from its incoming one, so
    # two blocks read in each other's place cannot pass
    _assert_summary_by_name(vec, trace)
    for name, value in got.items():
        if name.endswith("_out"):
            assert value != got[name[: -len("out")] + "in"], name


def test_summary_features_by_name_for_a_plan_with_odd_segments(bank):
    # uneven segments in both directions: each direction's sizes differ
    rows = [(0.0, 1, 1400), (0.002, 1, 700), (0.004, -1, 900)]
    d = apply_modulation_defense(make_trace(rows), ModulationConfig(300, 0.003, 0.006))
    assert all(len(odd_rows) for odd_rows, _ in d.capture.odd)
    vec = compute_features(d.capture, bank, feature_set="summary")
    _assert_summary_by_name(vec, d.trace)
    got = dict(zip(summary_feature_names(), vec))
    for name in ("bytes", "size_mean", "size_std", "size_p90"):
        assert got[f"{name}_out"] != got[f"{name}_in"], name


def test_single_direction_trace_has_finite_features(bank):
    rows = [(0.1 * i, 1, 60) for i in range(40)]
    for fs in FEATURE_SETS:
        vec = compute_features(make_trace(rows), bank, feature_set=fs)
        assert np.all(np.isfinite(vec))


def test_single_packet_trace(bank):
    vec = compute_features(make_trace([(0.0, 1, 99)]), bank)
    assert np.all(np.isfinite(vec))
    assert _feature(vec, "packet_count") == 1


def test_empty_trace_raises(bank):
    trace = Trace(np.array([]), np.array([], int), np.array([], int))
    with pytest.raises(errors.EmptyTrace):
        compute_features(trace, bank)


def test_unknown_feature_set_raises(bank):
    with pytest.raises(errors.InvalidConfig):
        compute_features(make_trace([(0.0, 1, 99)]), bank, feature_set="everything")


# ---------------------------------------------------------------------------
# matrices and CSV round trip


def _tiny_dataset():
    rows_a = _quiet_rows(6.0)
    rows_b = _quiet_rows(7.0, spacing=0.3)
    return Dataset(
        [
            make_trace(rows_a, label=ActionLabel.PRESS_KEY, trace_id="a"),
            make_trace(rows_b, label=ActionLabel.POUR_WATER, trace_id="b"),
        ]
    )


def test_featurize_dataset_shapes(bank):
    ds = _tiny_dataset()
    assert featurize_dataset(ds, bank).X.shape == (2, 70)
    assert featurize_dataset(ds, bank, feature_set="command").X.shape == (2, 42)
    assert featurize_dataset(ds, bank, feature_set="summary").X.shape == (2, 28)


def test_featurize_dataset_refuses_an_empty_dataset(bank):
    for feature_set in FEATURE_SETS:
        with pytest.raises(errors.EmptyDataset):
            featurize_dataset(Dataset(), bank, feature_set=feature_set)


@pytest.mark.parametrize(
    "defense, expected",
    [
        (None, "4bd5c61a0dc2773878339ed85d37cf498fa89394c03458d952013144c6e57ddf"),
        (PaddingConfig(3), "77b855e589e64b9131f6e5c54bad0c30882a04e581d907cfa5f4336d0eea082d"),
        (
            modulation_preset(500, 0.001),
            "da3494cb5e49aca109b107765da9eee8b5218fa6ab52eae62961a4afa336ef9f",
        ),
        (
            modulation_preset(300, 0.01),
            "f73050ba812465e4f8eb0b67051279c8884d8ad87bd13ebeca6c0dadc4de2a48",
        ),
    ],
    ids=["clean", "padding_x3", "modulation_500_1ms", "modulation_300_10ms"],
)
def test_feature_matrix_pinned(bank, defense, expected):
    # sha256 of the matrix bytes; any change to a feature's value moves it
    dataset = gen_dataset(GenConfig(seed=7, samples_per_class=5))
    if defense is not None:
        dataset = Dataset([apply_defense(t, defense).trace for t in dataset.traces])
    X = featurize_dataset(dataset, bank).X
    assert hashlib.sha256(X.tobytes()).hexdigest() == expected


def test_feature_matrix_validates_shape(bank):
    schema = make_schema(bank)
    with pytest.raises(errors.SchemaMismatch):
        FeatureMatrix(np.zeros((2, 3)), ["x", "y"], ["a", "b"], schema)
    with pytest.raises(errors.SchemaMismatch):
        FeatureMatrix(np.zeros((2, 70)), ["x"], ["a", "b"], schema)


def test_csv_round_trip(tmp_path, bank):
    m = featurize_dataset(_tiny_dataset(), bank)
    path = tmp_path / "features.csv"
    write_feature_csv(m, path)
    back = read_feature_csv(path, m.schema)
    assert back.trace_ids == m.trace_ids
    assert back.labels == m.labels
    assert np.array_equal(back.X, m.X)  # repr() round-trips floats exactly


def test_csv_header_mismatch(tmp_path, bank):
    m = featurize_dataset(_tiny_dataset(), bank)
    path = tmp_path / "features.csv"
    write_feature_csv(m, path)
    other = make_schema(bank, feature_set="summary")
    with pytest.raises(errors.SchemaMismatch):
        read_feature_csv(path, other)


def test_csv_ragged_row_names_line(tmp_path, bank):
    m = featurize_dataset(_tiny_dataset(), bank)
    path = tmp_path / "features.csv"
    write_feature_csv(m, path)
    lines = path.read_text().split("\n")
    lines[2] = lines[2].rsplit(",", 1)[0]  # drop the last field of the second row
    path.write_text("\n".join(lines))
    with pytest.raises(errors.SchemaMismatch, match=r"expected 72 fields, got 71 \(line 3\)"):
        read_feature_csv(path, m.schema)


def test_csv_non_numeric_value_names_line(tmp_path, bank):
    m = featurize_dataset(_tiny_dataset(), bank)
    path = tmp_path / "features.csv"
    write_feature_csv(m, path)
    lines = path.read_text().split("\n")
    fields = lines[1].split(",")
    fields[5] = "abc"
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines))
    with pytest.raises(errors.SchemaMismatch, match=r"'abc'.*\(line 2\)"):
        read_feature_csv(path, m.schema)


_WRITE_UNDER_ASCII_LOCALE = (
    "import sys\n"
    "from pathlib import Path\n"
    "import numpy as np\n"
    "from robofp.features import FeatureMatrix, make_schema, read_feature_csv, write_feature_csv\n"
    "from robofp.harness import write_csv\n"
    "from robofp.sigproc import KernelBank\n"
    "out = Path(sys.argv[1])\n"
    "schema = make_schema(KernelBank([]), feature_set='summary')\n"
    "matrix = FeatureMatrix(np.zeros((1, 28)), ['x'], ['caf\\xe9'], schema)\n"
    "write_feature_csv(matrix, out / 'f.csv')\n"
    "write_csv(out / 's.csv', [{'id': 'caf\\xe9'}])\n"
    "print(ascii(read_feature_csv(out / 'f.csv', schema).trace_ids))\n"
    "print(ascii((out / 's.csv').read_bytes().decode('utf-8')))\n"
)


def test_csv_writers_use_utf8_under_ascii_locale(tmp_path):
    # the feature and sweep CSVs are read as UTF-8 whatever the locale
    out = run_python(
        _WRITE_UNDER_ASCII_LOCALE, str(tmp_path),
        PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C",
    )
    assert out == "['caf\\xe9']\n'id\\ncaf\\xe9\\n'\n"


def test_csv_missing_file(tmp_path, bank):
    with pytest.raises(errors.MissingFile):
        read_feature_csv(tmp_path / "nope.csv", make_schema(bank))


# ---------------------------------------------------------------------------
# scan work cap


def test_scan_work_cap_raises_before_scanning(bank, monkeypatch):
    trace = make_trace(_quiet_rows(2.0))
    widest = len(bin_trace(trace, 0.01)) * max(len(k.values) for k in bank)
    monkeypatch.setattr(features, "MAX_SCAN_WORK", widest)
    assert len(compute_features(trace, bank)) == 70  # the cap is inclusive

    def never(*args):
        raise AssertionError("scanned past the cap")

    monkeypatch.setattr(features, "convolve", never)
    monkeypatch.setattr(features, "sliding_correlation", never)
    monkeypatch.setattr(features, "MAX_SCAN_WORK", 0)
    with pytest.raises(errors.OutOfRange, match="multiply-adds"):
        compute_features(trace, bank)


def test_scan_work_cap_far_above_shipped_scans(bank):
    # the longest generated captures run about 30 s: 3,000 bins at 0.01 s
    widest_kernel = max(len(k.values) for k in bank)
    assert widest_kernel == 260
    assert 1000 * 3000 * widest_kernel < MAX_SCAN_WORK
    # a 1 s capture in 1 us bins against the 0.75 s position kernel is refused
    assert 10**6 * 750_000 > MAX_SCAN_WORK


# ---------------------------------------------------------------------------
# modulated captures featurized from their slot plan


def _assert_plan_features_match(trace, config, bank):
    d = apply_modulation_defense(trace, config)
    for fs in FEATURE_SETS:
        compact = compute_features(d.capture, bank, feature_set=fs)
        assert compact.tobytes() == compute_features(d.trace, bank, feature_set=fs).tobytes(), fs
    assert d.defended_bytes == d.trace.total_bytes
    return d


@st.composite
def _modulated_cases(draw):
    n = draw(st.integers(1, 25))
    shape = draw(st.sampled_from(("both", "outgoing", "incoming", "mtu_burst")))
    burst = shape == "mtu_burst"
    gaps = draw(st.lists(st.integers(0, 200 if burst else 20_000), min_size=n - 1, max_size=n - 1))
    dirs = {"outgoing": st.just(1), "incoming": st.just(-1)}.get(shape, st.sampled_from((1, -1)))
    sizes = st.just(MTU) if burst else st.integers(1, MTU)
    trace = Trace(
        np.cumsum([0, *gaps]) / 1e6,  # whole microseconds, as captures are
        np.array(draw(st.lists(dirs, min_size=n, max_size=n))),
        np.array(draw(st.lists(sizes, min_size=n, max_size=n))),
    )
    t_i = draw(st.one_of(st.sampled_from((1e-5, 1e-4, 1e-3, 1e-2)), st.floats(1e-5, 1e-2)))
    big_l = t_i * draw(st.one_of(st.just(1.0), st.floats(1.0, 40.0)))
    tail = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.05)))
    return trace, ModulationConfig(draw(st.integers(1, MTU)), t_i, big_l, tail)


@settings(max_examples=300, deadline=None)
@given(_modulated_cases())
@example((Trace(np.zeros(1), np.ones(1), np.array([80])), ModulationConfig(100, 1e-3, 1e-3)))
def test_plan_features_match_wire_packets(bank, case):
    """Also the plan's signal and every kind's clusters: ``bin_trace`` and
    ``command_clusters`` take the plan as they take its wire packets."""
    d = _assert_plan_features_match(*case, bank)
    plan, wire = d.capture, d.trace
    config = SigprocConfig()
    got, want = (bin_trace(c, config.bin_width).values for c in (plan, wire))
    assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())
    for kind in ALL_KINDS:
        got, want = (command_clusters(c, kind, bank, config)[1] for c in (plan, wire))
        assert got == want, kind


# kernel banks scaled far from the defaults: responses near float range
BIN_WIDTHS = (0.01, 0.005, 0.001)
DEFAULT_BANKS = {width: default_kernel_bank(width) for width in BIN_WIDTHS}


@settings(max_examples=150, deadline=None)
@given(case=_modulated_cases(), k=st.integers(-150, 150), width=st.sampled_from(BIN_WIDTHS),
       from_plan=st.booleans())
@example(case=(Trace(np.array([0.0, 0.05, 0.1]), np.array([1, -1, 1]), np.array([900, 60, 900])),
               ModulationConfig(500, 1e-3, 1e-3)), k=-120, width=0.01, from_plan=False)
def test_scaled_kernel_banks_featurize_or_refuse(case, k, width, from_plan):
    """A finite vector of the schema's width, or a RobofpError."""
    trace, config = case
    try:
        bank = KernelBank([Kernel(kn.kind, kn.bin_width, kn.values * 10.0**k, kn.source_id)
                           for kn in DEFAULT_BANKS[width]])
        target = apply_modulation_defense(trace, config).capture if from_plan else trace
        vector = compute_features(target, bank, SigprocConfig(bin_width=width))
    except errors.RobofpError:
        return
    assert vector.shape == (len(make_schema(bank, SigprocConfig(bin_width=width)).names),)
    assert np.isfinite(vector).all()


@pytest.mark.parametrize(
    "rows, config",
    [
        # back-to-back MTU messages in both directions, cut in segments of s_c != s_p
        ([(i * 1e-4, (1, -1)[i % 3 == 0], MTU) for i in range(30)], modulation_preset(100, 0.01)),
        # uneven segments queue behind each other at a coarse interval
        ([(0.0, 1, 1400), (0.002, 1, 700), (0.004, -1, 900)], ModulationConfig(300, 0.003, 0.006)),
    ],
    ids=["mtu_burst_coarse", "uneven_segments"],
)
def test_plan_features_match_with_odd_segments(bank, rows, config):
    d = _assert_plan_features_match(make_trace(rows), config, bank)
    assert all(len(odd_rows) for odd_rows, _ in d.capture.odd)


def test_plan_features_match_in_one_slot(bank):
    # the inter-arrival times fall back to a single zero
    d = _assert_plan_features_match(
        make_trace([(0.0, -1, 100), (0.0, 1, 80)]), ModulationConfig(100, 1e-3, 1e-3), bank
    )
    assert d.capture.n_slots == 1


# ---------------------------------------------------------------------------
# inter-arrival percentiles of a slot plan, counted per grid chunk

CHUNK = features._GRID_CHUNK


@settings(max_examples=60, deadline=None)
@given(
    t_i=st.sampled_from(MODULATION_INTERVALS) | st.floats(1e-6, 1e-2),
    n_slots=st.integers(1, 5 * CHUNK),
)
@example(t_i=1e-4, n_slots=1)
@example(t_i=1e-4, n_slots=2)
@example(t_i=1e-4, n_slots=CHUNK)
@example(t_i=1e-4, n_slots=CHUNK + 1)
@example(t_i=1e-4, n_slots=CHUNK + 2)
@example(t_i=1e-4, n_slots=2 * CHUNK + 1)
def test_plan_iat_percentiles_match_np_percentile(t_i, n_slots):
    empty = (np.zeros(0, dtype=np.int64),) * 2
    plan = SlotPlan(t_i, 500, n_slots, (empty, empty))
    grid = plan.slot_times()
    iat = np.diff(grid) if n_slots > 1 else np.zeros(1)
    expected = np.percentile(iat, (5, 10, 25, 50, 75, 90, 95))
    # the summary block ends with the outgoing, then the incoming IAT percentiles
    got = features._summary_features(plan)[-14:]
    assert got.tobytes() == np.tile(expected, 2).tobytes()


# every percentile set in use, as the tuple that names its features
PERCENTILE_SETS = [
    features._IAT_PERCENTILES,
    features._SIZE_PERCENTILES,
    sigproc._RESPONSE_PERCENTILES,
]


@settings(max_examples=300, deadline=None)
@given(
    x=st.lists(st.sampled_from([0.0, 9.9e-5, 1e-4, 1.01e-4, 2e-4, 1 / 3, 7.0]) | st.floats(0, 1),
               min_size=1, max_size=40),
    percentiles=st.sampled_from(PERCENTILE_SETS),
)
@example(x=[0.25], percentiles=PERCENTILE_SETS[0])  # n = 1
@example(x=[1 / 3] * 9, percentiles=PERCENTILE_SETS[0])  # all equal
# ties on both sides of the interpolation points: n = 21 puts p5..p95 on
# whole indices, n = 5 between them, n = 11 at half indices for p5 and p95
@example(x=[0.0] * 10 + [7.0] * 11, percentiles=PERCENTILE_SETS[0])
@example(x=[1e-4, 1e-4, 2e-4, 2e-4, 2e-4], percentiles=PERCENTILE_SETS[0])
@example(x=[9.9e-5] * 5 + [1.01e-4] * 6, percentiles=PERCENTILE_SETS[0])
@example(x=[100.0, 100.0, 500.0, 500.0, 1500.0], percentiles=PERCENTILE_SETS[1])
@example(x=[-1.0, 0.0, 0.0, 0.5, 0.5, 0.9], percentiles=PERCENTILE_SETS[2])
def test_counted_percentiles_match_np_percentile(x, percentiles):
    expected = np.percentile(x, percentiles).tobytes()
    values, counts = np.unique(x, return_counts=True)
    counted = linear_percentiles(values, percentiles, np.cumsum(counts))
    assert np.array(counted).tobytes() == expected
    assert np.array(linear_percentiles(np.sort(x), percentiles)).tobytes() == expected


@st.composite
def _odd_column(draw):
    """A slot count and one direction's odd segments: distinct rows, sizes != s_p."""
    n_slots = draw(st.integers(1, 60))
    rows = sorted(draw(st.sets(st.integers(0, n_slots - 1))))
    delta = draw(st.lists(st.integers(-499, 1000).filter(bool),
                          min_size=len(rows), max_size=len(rows)))
    return n_slots, np.array(rows, dtype=np.int64), np.array(delta, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(_odd_column())
@example((3, np.arange(3), np.array([-499, 1000, -100])))  # s_p itself never occurs
def test_plan_size_percentiles_match_np_percentile(case):
    n_slots, rows, delta = case
    empty = (np.zeros(0, dtype=np.int64),) * 2
    plan = SlotPlan(1e-3, 500, n_slots, ((rows, delta), empty))
    summary = dict(zip(summary_feature_names(), features._summary_features(plan)))
    for column, d in enumerate(("out", "in")):
        expected = np.percentile(plan.column_sizes(column).astype(float), (50, 90))
        got = [summary[f"size_p50_{d}"], summary[f"size_p90_{d}"]]
        assert np.array(got).tobytes() == expected.tobytes()


def test_no_scan_response_holds_negative_zero(bank):
    # the order statistics of a sort equal np.percentile's only without -0.0
    config = SigprocConfig()
    modulation = modulation_preset(500, 1e-4)
    for trace in gen_dataset(GenConfig(seed=42, samples_per_class=50)):
        for capture in (trace, apply_modulation_defense(trace, modulation).capture):
            signal = bin_trace(capture, config.bin_width)
            for kind in ALL_KINDS:
                response = features._scan(signal, kind, bank, config)[0].values
                assert not np.signbit(response[response == 0]).any(), (trace.trace_id, kind)


def test_chunk_memo_is_read_only_and_bounded():
    for a in features._chunk_counts(1e-4, 0):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
    assert 0 < features._chunk_counts.cache_info().maxsize <= 1024
