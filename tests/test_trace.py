from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_trace
from robofp import errors, trace
from robofp.synthgen import GenConfig, gen_dataset
from robofp.trace import (
    MTU,
    TRACE_HEADER,
    ActionLabel,
    Dataset,
    Trace,
    load_dataset,
    parse_trace_csv,
    quantize_time,
    read_trace,
    save_dataset,
    write_trace_csv,
)


class TestParse:
    def test_two_row_example(self):
        tr = parse_trace_csv("t,dir,size\n0.0,1,120\n0.01,-1,132\n")
        assert len(tr) == 2
        assert list(tr.times) == [0.0, 0.01]
        assert list(tr.dirs) == [1, -1]
        assert list(tr.sizes) == [120, 132]

    def test_header_only_is_empty_trace(self):
        tr = parse_trace_csv("t,dir,size\n")
        assert len(tr) == 0
        assert tr.duration == 0.0

    def test_bad_header(self):
        with pytest.raises(errors.MalformedHeader):
            parse_trace_csv("time,dir,size\n0.0,1,120\n")

    def test_empty_document(self):
        with pytest.raises(errors.MalformedHeader):
            parse_trace_csv("")

    def test_non_monotonic_time_reports_line(self):
        with pytest.raises(errors.NonMonotonicTime) as ei:
            parse_trace_csv("t,dir,size\n0.5,1,100\n0.4,1,100\n")
        assert ei.value.line == 3

    def test_bad_direction_reports_line(self):
        with pytest.raises(errors.BadDirection) as ei:
            parse_trace_csv("t,dir,size\n0.0,1,100\n0.1,2,100\n")
        assert ei.value.line == 3

    def test_size_zero_rejected(self):
        with pytest.raises(errors.SizeOutOfRange):
            parse_trace_csv("t,dir,size\n0.0,1,0\n")

    def test_size_above_mtu_rejected(self):
        with pytest.raises(errors.SizeOutOfRange) as ei:
            parse_trace_csv(f"t,dir,size\n0.0,1,{MTU + 1}\n")
        assert ei.value.line == 2

    def test_size_at_mtu_ok(self):
        tr = parse_trace_csv(f"t,dir,size\n0.0,1,{MTU}\n")
        assert tr.sizes[0] == MTU

    def test_garbage_row(self):
        with pytest.raises(errors.MalformedRow):
            parse_trace_csv("t,dir,size\nabc,1,100\n")
        with pytest.raises(errors.MalformedRow):
            parse_trace_csv("t,dir,size\n0.0,1\n")
        with pytest.raises(errors.MalformedRow):
            parse_trace_csv("t,dir,size\n0.0,1,12.5\n")

    def test_non_utf8_byte_reports_line(self):
        with pytest.raises(errors.MalformedRow) as ei:
            parse_trace_csv(b"t,dir,size\n0.0,1,100\n0.1,1,1\xff0\n")
        assert ei.value.line == 3

    def test_absolute_times_are_stripped(self):
        tr = parse_trace_csv("t,dir,size\n100.25,1,50\n100.35,-1,60\n")
        assert tr.times[0] == 0.0
        assert tr.times[1] == pytest.approx(0.1, abs=1e-9)

    def test_equal_timestamps_allowed(self):
        tr = parse_trace_csv("t,dir,size\n0.0,1,50\n0.0,-1,60\n")
        assert len(tr) == 2


class TestWrite:
    def test_six_decimal_fixed_notation(self):
        tr = make_trace([(0.0, 1, 120), (0.01, -1, 132)])
        out = write_trace_csv(tr).decode()
        assert out == "t,dir,size\n0.000000,1,120\n0.010000,-1,132\n"

    def test_empty_trace_writes_header_only(self):
        assert write_trace_csv(make_trace([])) == b"t,dir,size\n"

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=30_000_000),  # microseconds
                st.sampled_from([1, -1]),
                st.integers(min_value=1, max_value=MTU),
            ),
            min_size=0,
            max_size=60,
        )
    )
    def test_round_trip_is_byte_identical(self, rows):
        rows.sort(key=lambda r: r[0])
        if rows:
            base = rows[0][0]
            rows = [((us - base) / 1e6, d, s) for us, d, s in rows]
        tr = make_trace(rows)
        blob = write_trace_csv(tr)
        tr2 = parse_trace_csv(blob)
        assert write_trace_csv(tr2) == blob
        assert np.array_equal(tr.times, tr2.times)
        assert np.array_equal(tr.dirs, tr2.dirs)
        assert np.array_equal(tr.sizes, tr2.sizes)

    def test_thousand_packet_round_trip(self):
        rng = np.random.default_rng(7)
        t = np.sort(rng.integers(0, 20_000_000, size=1000)) / 1e6
        t = t - t[0]
        tr = Trace(t, rng.choice([1, -1], 1000), rng.integers(1, MTU + 1, 1000))
        blob = write_trace_csv(tr)
        tr2 = parse_trace_csv(blob)
        assert write_trace_csv(tr2) == blob


def reference_write_trace_csv(trace):
    """The writer before it formatted Python scalars: an f-string per numpy row."""
    rows = [TRACE_HEADER]
    rows.extend(f"{t:.6f},{d},{s}" for t, d, s in zip(trace.times, trace.dirs, trace.sizes))
    return ("\n".join(rows) + "\n").encode("utf-8")


def _ulps(x: float, k: int) -> float:
    for _ in range(abs(k)):
        x = float(np.nextafter(x, np.copysign(np.inf, k)))
    return x


# t * 1e6 at, or a few ulps from, a half microsecond: round() ties land here
near_half_microsecond = st.builds(
    lambda m, k: _ulps((m + 0.5) / 1e6, k), st.integers(0, 10**12), st.integers(-2, 2)
)
capture_times = st.one_of(
    st.integers(0, 10**12).map(lambda us: us / 1e6),  # quantized, up to 1e6 s
    st.floats(0.0, 1e6),  # unquantized
    st.builds(  # slot times: a quantized start plus k slots of t_i
        lambda us, k, t_i: us / 1e6 + k * t_i,
        st.integers(0, 10**9), st.integers(0, 10**7), st.sampled_from([1e-4, 1e-3, 0.01, 1 / 36]),
    ),
    near_half_microsecond,
)


# times of 10**9 s and more: ten integer digits and up, then past 2**50 us
# (about 1.13e9 s), where the writer formats in Python, up to float range
large_times = st.one_of(
    st.integers(10**15, 2**53).map(lambda us: us / 1e6),
    st.builds(_ulps, st.sampled_from([2.0**50 / 1e6, 2.0**50 / 1e6 - 0.5e-6]),
              st.integers(-3, 3)),
    near_half_microsecond.map(lambda t: t + 1e9),
    st.floats(1e9, 1.7e308),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(capture_times, large_times), st.sampled_from([1, -1]), st.integers(1, MTU)
        ),
        max_size=40,
    )
)
def test_write_matches_reference_writer(rows):
    times = sorted(t for t, _, _ in rows)
    if times:
        times[0] = 0.0  # traces start at 0; no rows is the empty trace
    tr = Trace(times, [d for _, d, _ in rows], [s for _, _, s in rows])
    assert write_trace_csv(tr) == reference_write_trace_csv(tr)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(capture_times, large_times), st.sampled_from([1, -1]), st.integers(1, MTU)
        ),
        max_size=40,
    ),
    st.integers(1, 8),
)
def test_write_in_chunks_matches_reference_writer(rows, chunk):
    """Every chunk size gives the same bytes, whichever rows fall back."""
    times = sorted(t for t, _, _ in rows)
    if times:
        times[0] = 0.0
    tr = Trace(times, [d for _, d, _ in rows], [s for _, _, s in rows])
    with mock.patch.object(trace, "_WRITE_CHUNK", chunk):
        assert write_trace_csv(tr) == reference_write_trace_csv(tr)


def test_save_trace_writes_the_writers_bytes(tmp_path):
    tr = make_trace([(0.0, 1, 60), (0.25, -1, 1500), (1.5e9, 1, 7), (1e300, -1, 99)])
    with mock.patch.object(trace, "_WRITE_CHUNK", 3):
        trace.save_trace(tr, tmp_path / "a.csv")
    assert (tmp_path / "a.csv").read_bytes() == reference_write_trace_csv(tr)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            capture_times,
            st.floats(-1e6, 1e6),
            st.sampled_from([-0.0, 0.0, -4e-7, -5e-7, -6e-7, 5e-7, 1.5e-6, 2.5e-6]),
            near_half_microsecond.map(lambda t: -t),
        ),
        max_size=40,
    )
)
def test_quantize_time_matches_scalar_rule(values):
    # equal in value to round(), which turns -0.0 into 0 and so loses the sign
    got = quantize_time(np.array(values, dtype=np.float64))
    want = np.array([round(t * 1e6) / 1e6 for t in values], dtype=np.float64)
    assert np.array_equal(got, want)
    for t in values:
        assert quantize_time(t) == round(t * 1e6) / 1e6


def reference_trace_error(times, dirs, sizes):
    """The checks Trace ran before they dropped their temporaries; None accepts."""
    if len(times):
        if times[0] != 0.0:
            return errors.MalformedRow
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, 1e308 - -1e308
            if np.any(np.diff(times) < 0):
                return errors.NonMonotonicTime
        if np.any((dirs != 1) & (dirs != -1)):
            return errors.BadDirection
        if np.any((sizes < 1) | (sizes > MTU)):
            return errors.SizeOutOfRange
    return None


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(
                [0.0, 0.0, -0.0, 0.1, 0.5, 1.0, -1.0, 1e308, -1e308, np.inf, -np.inf, np.nan]
            ),
            st.sampled_from([1, -1, 1, -1, 0, 2, -2, -(2**31)]),
            st.sampled_from([1, 60, MTU, 0, MTU + 1, -5, 2**40]),
        ),
        max_size=6,
    )
)
def test_trace_checks_match_reference(rows):
    times = np.array([r[0] for r in rows], dtype=np.float64)
    dirs = np.array([r[1] for r in rows], dtype=np.int32)
    sizes = np.array([r[2] for r in rows], dtype=np.int64)
    want = reference_trace_error(times, dirs, sizes)
    if want is None and not (np.isfinite(times).all() and not np.signbit(times).any()):
        want = errors.MalformedRow  # non-finite and -0.0 times: accepted before, refused now
    try:
        Trace(times, dirs, sizes)
        got = None
    except errors.RobofpError as e:
        got = type(e)
    assert got is want


class TestTraceType:
    def test_rejects_nonzero_start(self):
        with pytest.raises(errors.MalformedRow):
            make_trace([(0.5, 1, 100)])

    def test_rejects_unequal_lengths(self):
        with pytest.raises(errors.MalformedRow):
            Trace(np.array([0.0, 0.1]), np.array([1]), np.array([9, 9]))

    def test_rejects_decreasing_times(self):
        with pytest.raises(errors.NonMonotonicTime):
            Trace(np.array([0.0, 0.2, 0.1]), np.array([1, 1, 1]), np.array([9, 9, 9]))

    def test_rejects_bad_direction(self):
        with pytest.raises(errors.BadDirection):
            make_trace([(0.0, 0, 100)])

    def test_rejects_bad_size(self):
        with pytest.raises(errors.SizeOutOfRange):
            make_trace([(0.0, 1, 0)])
        with pytest.raises(errors.SizeOutOfRange):
            make_trace([(0.0, 1, MTU + 1)])

    @pytest.mark.parametrize(
        "times", [[0.0, np.nan, 1.0], [0.0, np.inf], [0.0, 0.5, np.nan]], ids=["nan", "inf", "last_nan"]
    )
    def test_rejects_non_finite_times(self, times):
        with pytest.raises(errors.MalformedRow, match="finite"):
            Trace(np.array(times), np.ones(len(times), int), np.full(len(times), 9))

    def test_csv_with_negative_zero_time_is_refused(self):
        with pytest.raises(errors.MalformedRow, match="-0.0") as e:
            parse_trace_csv(b"t,dir,size\n0.000000,1,60\n-0.000000,1,60\n")
        assert e.value.line == 3
        with pytest.raises(errors.MalformedRow, match="-0.0") as e:
            parse_trace_csv("t,dir,size\n0.0,1,60\n0.0,1,60\n-0.0,1,60\n")
        assert e.value.line == 4
        # after a leading -0.0 every -0.0 shifts to +0.0
        blob = b"t,dir,size\n-0.000000,1,60\n-0.000000,1,60\n"
        assert not np.signbit(parse_trace_csv(blob).times).any()

    def test_duration_and_bytes(self):
        tr = make_trace([(0.0, 1, 100), (2.5, -1, 400)])
        assert tr.duration == 2.5
        assert tr.total_bytes == 500

    def test_arrays_read_only(self):
        tr = make_trace([(0.0, 1, 100)])
        with pytest.raises(ValueError):
            tr.sizes[0] = 5

    def test_quantize_time_microsecond_grid(self):
        assert quantize_time(0.1234567) == pytest.approx(0.123457)
        assert quantize_time(1.0000004) == 1.0


class TestManifest:
    def _dataset(self):
        labels = list(ActionLabel) * 2
        traces = [
            make_trace([(0.0, 1, 100 + i), (0.5, -1, 60)], lab, f"tr_{i:03d}")
            for i, lab in enumerate(labels)
        ]
        return Dataset(traces)

    def test_save_load_round_trip(self, tmp_path):
        ds = self._dataset()
        manifest = save_dataset(ds, tmp_path / "data")
        ds2 = load_dataset(manifest)
        assert len(ds2) == len(ds)
        assert [t.label for t in ds2.traces] == [t.label for t in ds.traces]
        assert [t.trace_id for t in ds2] == [t.trace_id for t in ds]
        assert np.array_equal(ds2.traces[0].sizes, ds.traces[0].sizes)

    def test_unknown_label(self, tmp_path):
        d = tmp_path / "data"
        d.mkdir()
        (d / "a.csv").write_bytes(write_trace_csv(make_trace([(0.0, 1, 10)])))
        (d / "manifest.csv").write_text("path,label\na.csv,Wave\n")
        with pytest.raises(errors.UnknownLabel):
            load_dataset(d / "manifest.csv")

    def test_missing_trace_file(self, tmp_path):
        d = tmp_path / "data"
        d.mkdir()
        (d / "manifest.csv").write_text("path,label\nghost.csv,PressKey\n")
        with pytest.raises(errors.MissingFile):
            load_dataset(d / "manifest.csv")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(errors.MissingFile):
            load_dataset(tmp_path / "nope.csv")

    def test_empty_manifest(self, tmp_path):
        d = tmp_path / "data"
        d.mkdir()
        (d / "manifest.csv").write_text("path,label\n")
        with pytest.raises(errors.EmptyDataset):
            load_dataset(d / "manifest.csv")

    def test_manifest_bad_header(self, tmp_path):
        d = tmp_path / "data"
        d.mkdir()
        (d / "manifest.csv").write_text("file,label\n")
        with pytest.raises(errors.MalformedHeader):
            load_dataset(d / "manifest.csv")

    def test_manifest_non_utf8_byte_reports_line(self, tmp_path):
        d = tmp_path / "data"
        d.mkdir()
        (d / "a.csv").write_bytes(write_trace_csv(make_trace([(0.0, 1, 10)])))
        (d / "manifest.csv").write_bytes(b"path,label\na.csv,PourWater\n\xffb.csv,PressKey\n")
        with pytest.raises(errors.MalformedRow) as ei:
            load_dataset(d / "manifest.csv")
        assert ei.value.line == 3

    def test_label_comes_from_manifest(self, tmp_path):
        d = tmp_path / "data"
        d.mkdir()
        (d / "a.csv").write_bytes(write_trace_csv(make_trace([(0.0, 1, 10)])))
        (d / "manifest.csv").write_text("path,label\na.csv,PourWater\n")
        ds = load_dataset(d / "manifest.csv")
        assert ds.traces[0].label is ActionLabel.POUR_WATER

    def test_save_refuses_two_traces_of_one_name(self, tmp_path):
        """``a/x.csv`` and ``b/x.csv`` both load as trace ``x``; saving them
        must not write x.csv twice and list it twice."""
        for sub, size in (("a", 60), ("b", 90)):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "x.csv").write_bytes(write_trace_csv(make_trace([(0.0, 1, size)])))
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("path,label\na/x.csv,PickAndPlace\nb/x.csv,PourWater\n")
        ds = load_dataset(manifest)
        assert [t.trace_id for t in ds] == ["x", "x"]
        out = tmp_path / "out"
        with pytest.raises(errors.DuplicateTrace, match="x.csv"):
            save_dataset(ds, out)
        assert read_trace(out / "x.csv").sizes.tolist() == [60]  # the first, not overwritten
        assert not (out / "manifest.csv").exists()
        # traces without an id are named by position, which an id may take too
        named = [make_trace([(0.0, 1, 9)], ActionLabel.PRESS_KEY, "trace_0001"),
                 make_trace([(0.0, 1, 9)], ActionLabel.PRESS_KEY)]
        with pytest.raises(errors.DuplicateTrace, match="trace_0001.csv"):
            save_dataset(named, tmp_path / "out2")

    def test_save_refuses_a_trace_without_a_label(self, tmp_path):
        """No manifest row can name a trace without a label; it is refused before
        its file is written, and no manifest is written."""
        out = tmp_path / "out"
        labelled = make_trace([(0.0, 1, 9)], ActionLabel.PRESS_KEY, "a")
        with pytest.raises(errors.UnknownLabel, match="'trace_0001' has no label"):
            save_dataset([labelled, Trace([0.0, 0.1], [1, -1], [10, 20])], out)
        assert sorted(p.name for p in out.iterdir()) == ["a.csv"]

    def test_read_trace_missing(self, tmp_path):
        with pytest.raises(errors.MissingFile):
            read_trace(tmp_path / "nothing.csv")

    def test_read_input_refuses_what_is_no_regular_file(self, tmp_path):
        # a directory, and the empty path (which Path reads as ".")
        for path in (tmp_path, ""):
            with pytest.raises(errors.MissingFile) as caught:
                errors.read_input(path)
            assert str(caught.value) == f"no file at {str(path)!r}"


# ---------------------------------------------------------------------------
# the writer's own form, read in one array pass


def test_dataset_loads_in_one_array_pass(tmp_path):
    """The seed-42 captures never reach the line parser, load to the
    generated arrays bit for bit, and hold no view of a parse buffer."""
    generated = gen_dataset(GenConfig(seed=42, samples_per_class=50))
    manifest = save_dataset(generated, tmp_path)
    with mock.patch.object(trace, "_parse_lines", wraps=trace._parse_lines) as spy:
        loaded = load_dataset(manifest)
        assert spy.call_count == 0
        parse_trace_csv(b"t,dir,size\r\n0.000000,1,60\r\n")
        assert spy.call_count == 1
    for want, got in zip(generated, loaded, strict=True):
        for a, b in ((want.times, got.times), (want.dirs, got.dirs), (want.sizes, got.sizes)):
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())
            assert b.base is None
        assert (got.label, got.trace_id) == (want.label, want.trace_id)
