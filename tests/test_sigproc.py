import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_trace, oracle_scan_same, oracle_sliding_pearson
from robofp import errors, sigproc
from robofp.defenses import apply_modulation_defense, modulation_preset
from robofp.features import SigprocConfig, command_clusters
from robofp.sigproc import (
    MAX_BINS,
    Cluster,
    CommandKind,
    Kernel,
    KernelBank,
    Signal,
    bin_trace,
    cluster_statistics,
    convolve,
    detect_clusters,
    extract_kernel,
    sliding_correlation,
)
from robofp.synthgen import GenConfig, default_kernel_bank, gen_dataset
from robofp.trace import Trace


def sig(values, bw=0.01):
    return Signal(np.asarray(values, dtype=float), bw)


def ker(values, kind=CommandKind.CARTESIAN_MOVE, bw=0.01):
    return Kernel(kind=kind, bin_width=bw, values=np.asarray(values, dtype=float))


# ---------------------------------------------------------------------------
# binning


class TestBinTrace:
    def test_two_packet_example(self):
        tr = make_trace([(0.000, 1, 100), (0.004, -1, 60)])
        s = bin_trace(tr, 0.01)
        assert list(s.values) == [40.0]

    def test_signed_conservation_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = rng.integers(1, 400)
            t = np.sort(rng.uniform(0, 12, n))
            t[0] = 0.0
            d = rng.choice([1, -1], n)
            z = rng.integers(1, 1500, n)
            tr = Trace(t, d, z)
            s = bin_trace(tr, 0.01)
            # independent tally
            assert s.values.sum() == pytest.approx(float(np.sum(d * z)), abs=1e-6)
            assert len(s) == max(1, math.ceil(tr.duration / 0.01 - 1e-9))

    def test_boundary_packet_lands_in_last_bin(self):
        tr = make_trace([(0.0, 1, 10), (0.02, 1, 70)])
        s = bin_trace(tr, 0.01)
        assert len(s) == 2
        assert list(s.values) == [10.0, 70.0]

    def test_empty_trace_single_zero_bin(self):
        s = bin_trace(make_trace([]), 0.01)
        assert list(s.values) == [0.0]

    def test_direction_modes(self):
        tr = make_trace([(0.0, 1, 100), (0.004, -1, 60), (0.015, 1, 30)])
        assert list(bin_trace(tr, 0.01).values) == [40.0, 30.0]

    def test_bad_bin_width(self):
        with pytest.raises(errors.InvalidConfig):
            bin_trace(make_trace([]), 0.0)

    def test_nan_bin_width(self):
        with pytest.raises(errors.InvalidConfig, match="bin_width must be positive"):
            bin_trace(make_trace([(0.0, 1, 10)]), float("nan"))

    def test_signal_refuses_nan_bin_width(self):
        with pytest.raises(errors.InvalidConfig, match="bin_width must be positive"):
            Signal([1.0], float("nan"))

    def test_infinite_bin_width_refused(self):
        tr = make_trace([(0.0, 1, 10)])
        for refuse in (
            lambda: bin_trace(tr, math.inf),
            lambda: Signal([1.0], math.inf),
            lambda: extract_kernel(tr, CommandKind.CARTESIAN_MOVE, 0.0, 0.5, math.inf),
        ):
            with pytest.raises(errors.InvalidConfig, match="positive and finite, got inf"):
                refuse()

    def test_bin_cap_raises_before_allocating(self):
        # 1e9 bins of 10 ms; the last packet alone sets the count
        tr = make_trace([(0.0, 1, 100), (1e7, -1, 100)])
        with pytest.raises(errors.OutOfRange, match="bins"):
            bin_trace(tr, 0.01)
        one_over = make_trace([(0.0, 1, 100), (MAX_BINS + 1.0, -1, 100)])
        with pytest.raises(errors.OutOfRange):
            bin_trace(one_over, 1.0)


# ---------------------------------------------------------------------------
# convolution scan


class TestConvolve:
    def test_worked_example(self):
        # [1,2,3] against [1,1]: full grid 1,3,5,3 then /||h||^2 = 2
        out = convolve(sig([1, 2, 3]), ker([1, 1]))
        assert list(out.values) == pytest.approx([0.5, 1.5, 2.5])

    def test_perfect_match_peaks_at_one(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            k = rng.integers(1, 12)
            h = rng.uniform(-300, 300, k)
            if np.linalg.norm(h) < 1e-6:
                h[0] = 50.0
            pad_l = rng.integers(0, 20)
            pad_r = rng.integers(0, 20)
            x = np.concatenate([np.zeros(pad_l), h, np.zeros(pad_r)])
            out = convolve(sig(x), ker(h))
            assert out.values.max() == pytest.approx(1.0, abs=1e-9)

    def test_scaled_segment_peaks_at_scale(self):
        h = np.array([200.0, 0.0, -650.0])
        x = np.concatenate([np.zeros(5), 0.7 * h, np.zeros(5)])
        out = convolve(sig(x), ker(h))
        assert out.values.max() == pytest.approx(0.7, abs=1e-9)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            n = rng.integers(1, 64)
            k = rng.integers(1, 17)
            x = rng.uniform(-1000, 1000, n)
            h = rng.uniform(-1000, 1000, k)
            if np.linalg.norm(h) < 1e-3:
                h[0] = 1.0
            got = convolve(sig(x), ker(h)).values
            want = oracle_scan_same(x, h)
            assert np.allclose(got, want, atol=1e-9, rtol=0)

    def test_output_length_equals_signal_length(self):
        for n, k in [(1, 5), (4, 4), (10, 3), (3, 8)]:
            out = convolve(sig(np.ones(n)), ker(np.ones(k)))
            assert len(out) == n

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.floats(-500, 500), min_size=4, max_size=40),
        st.lists(st.floats(-500, 500), min_size=4, max_size=40),
        st.lists(st.floats(-200, 200).filter(lambda v: abs(v) > 1e-3), min_size=2, max_size=6),
        st.floats(-3, 3),
        st.floats(-3, 3),
    )
    def test_linearity(self, xs, ys, hs, a, b):
        n = min(len(xs), len(ys))
        x = np.array(xs[:n])
        y = np.array(ys[:n])
        h = ker(hs)
        lhs = convolve(sig(a * x + b * y), h).values
        rhs = a * convolve(sig(x), h).values + b * convolve(sig(y), h).values
        assert np.allclose(lhs, rhs, atol=1e-6)

    def test_empty_kernel_rejected(self):
        with pytest.raises(errors.EmptyKernel):
            ker([])

    def test_empty_signal_gives_empty_response(self):
        response = convolve(sig([], 0.05), ker([1.0, 2.0, 3.0], bw=0.05))
        assert len(response) == 0
        assert response.bin_width == 0.05

    def test_zero_norm_kernel_rejected(self):
        with pytest.raises(errors.EmptyKernel):
            ker([0.0, 0.0])

    def test_non_finite_kernel_rejected(self):
        for bad in ([1.0, float("nan")], [float("inf"), 2.0]):
            with pytest.raises(errors.InvalidConfig):
                ker(bad)
        for width in (float("nan"), float("inf"), 0.0):
            with pytest.raises(errors.InvalidConfig):
                Kernel(CommandKind.CARTESIAN_MOVE, width, [1.0, 2.0])

    def test_overflowing_norm_rejected_without_warning(self):
        # finite values whose squares overflow: the norm would be inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.InvalidConfig, match="L2 norm"):
                ker([1e200, 1e200])
            assert ker([1e150, 1e150]).norm == pytest.approx(math.sqrt(2) * 1e150)


# ---------------------------------------------------------------------------
# sliding correlation


class TestSlidingCorrelation:
    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = rng.integers(1, 64)
            k = rng.integers(2, 17)
            x = rng.uniform(-800, 800, n)
            h = rng.uniform(-800, 800, k)
            if np.std(h) < 1e-3:
                h[0] += 10.0
            got = sliding_correlation(sig(x), ker(h)).values
            want = oracle_sliding_pearson(x, h)
            assert len(got) == len(want)
            assert np.allclose(got, want, atol=1e-9, rtol=0)

    def test_bounded(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            x = rng.normal(0, 200, rng.integers(10, 300))
            h = rng.normal(0, 200, rng.integers(2, 40))
            out = sliding_correlation(sig(x), ker(h)).values
            assert np.all(out <= 1.0)
            assert np.all(out >= -1.0)

    def test_self_window_scores_one(self):
        h = np.array([5.0, -3.0, 8.0, 1.0])
        x = np.concatenate([np.zeros(6), h, np.zeros(6)])
        out = sliding_correlation(sig(x), ker(h)).values
        assert out.max() == pytest.approx(1.0, abs=1e-12)
        assert np.argmax(out) == 6

    def test_anticorrelated_window_scores_minus_one(self):
        h = np.array([1.0, 2.0, 3.0])
        out = sliding_correlation(sig([3.0, 2.0, 1.0]), ker(h)).values
        assert out[0] == pytest.approx(-1.0)

    def test_zero_variance_window_scores_zero(self):
        out = sliding_correlation(sig([4.0] * 10), ker([1.0, 2.0, 3.0])).values
        assert np.all(out == 0.0)

    def test_zero_variance_kernel_scores_zero(self):
        out = sliding_correlation(sig([1.0, 5.0, 2.0, 8.0]), ker([2.0, 2.0])).values
        assert np.all(out == 0.0)

    def test_signal_shorter_than_kernel_zero_padded(self):
        h = np.array([1.0, 2.0, 3.0, 4.0])
        out = sliding_correlation(sig([1.0, 2.0]), ker(h))
        assert len(out) == 1
        want = oracle_sliding_pearson([1.0, 2.0], h)
        assert out.values[0] == pytest.approx(want[0], abs=1e-12)

    def test_stride_is_one_bin(self):
        x = np.arange(20.0)
        out = sliding_correlation(sig(x), ker([1.0, 2.0, 3.0]))
        assert len(out) == 18

    def test_kernel_too_short(self):
        with pytest.raises(errors.KernelTooShort):
            sliding_correlation(sig([1.0, 2.0, 3.0]), ker([1.0]))

    def test_squares_past_float_range_warn_nothing(self):
        # values past about 1.3e154 square to inf: the windows read 0.0, not -0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sliding_correlation(sig([1e200, -1e200, 3, 4]), ker([1, 2, 3])).values
        assert out.tobytes() == np.zeros(2).tobytes()


def reference_sliding_correlation(signal, kernel):
    """Window sums from np.convolve, as sliding_correlation computed them first."""
    h = kernel.values
    k = len(h)
    x = signal.values
    if len(x) < k:
        x = np.concatenate([x, np.zeros(k - len(x))])
    ones = np.ones(k)
    win_sum = np.convolve(x, ones, mode="valid")
    win_sq = np.convolve(x * x, ones, mode="valid")
    cross = np.convolve(x, h[::-1], mode="valid")
    h_mean = h.mean()
    h_var = float(np.mean(h * h) - h_mean**2)
    w_mean = win_sum / k
    w_var = np.maximum(win_sq / k - w_mean**2, 0.0)
    cov = cross / k - w_mean * h_mean
    denom = np.sqrt(w_var * h_var)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(denom > sigproc._EPS, cov / np.where(denom > sigproc._EPS, denom, 1.0), 0.0)
    return np.clip(r, -1.0, 1.0)


class ConvolveSpy:
    """Counts np.convolve calls while installed with monkeypatch."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self._convolve = np.convolve
        monkeypatch.setattr(np, "convolve", self)

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self._convolve(*args, **kwargs)


CORRELATION_SIGNALS = (
    st.lists(st.integers(-1500, 1500), max_size=60)  # binned byte counts
    | st.lists(st.integers(-(2**27), 2**27), max_size=8)  # squares summing near 2**53
    | st.lists(st.floats(-800, 800), max_size=60)  # fractional: the dot products
    | st.lists(st.integers(-1500, 1500).map(lambda v: v / 4), max_size=60)
)
CORRELATION_KERNELS = st.lists(
    st.integers(-800, 800) | st.floats(-800, 800), min_size=2, max_size=17
).filter(lambda h: np.std(h) > 1e-3)


@settings(max_examples=300, deadline=None)
@given(CORRELATION_SIGNALS, CORRELATION_KERNELS)
@example([2**26, 2**26 - 1, 0], [1, 2])  # squares sum just below 2**53
@example([2**26, 2**26, 0], [1, 2])  # exactly 2**53: the dot products
@example([7, -3], [1, 2, 3, 4])  # shorter than the kernel
@example([], [1, 2])
def test_sliding_correlation_matches_reference_bit_for_bit(values, kernel_values):
    got = sliding_correlation(sig(values), ker(kernel_values)).values
    want = reference_sliding_correlation(sig(values), ker(kernel_values))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "values, convolutions",
    [
        ([2**26, 2**26 - 1, 0], 1),
        ([2**26, 2**26, 0], 3),
        ([3.0, 0.5, 1.0], 3),
        ([1e200, 3.0, 1.0], 3),
        ([math.nan, 3.0, 1.0], 3),
    ],
)
def test_window_sums_take_prefix_sums_only_when_exact(monkeypatch, values, convolutions):
    spy = ConvolveSpy(monkeypatch)
    with np.errstate(all="ignore"):
        sliding_correlation(sig(values), ker([1, 2]))
    assert spy.calls == convolutions


def test_captures_and_plans_take_prefix_sums(monkeypatch):
    bank = default_kernel_bank()
    config = SigprocConfig()
    kernel = bank.kernel_for(CommandKind.GRIPPER_SPEED)
    modulation = modulation_preset(500, 1e-4)
    signals = []
    for trace in gen_dataset(GenConfig(seed=42)):
        for capture in (trace, apply_modulation_defense(trace, modulation).capture):
            signals.append(bin_trace(capture, config.bin_width))
    spy = ConvolveSpy(monkeypatch)
    for signal in signals:
        sliding_correlation(signal, kernel)
    assert spy.calls == len(signals) == 400


# ---------------------------------------------------------------------------
# cluster detection


class TestDetectClusters:
    def test_simple_runs(self):
        s = sig([0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0], bw=0.01)
        cs = detect_clusters(s, threshold=0.5, merge_gap=0.05, min_duration=0.0)
        assert len(cs) == 2
        a, b = cs
        assert a.start == pytest.approx(0.01)
        assert a.end == pytest.approx(0.03)
        assert b.start == pytest.approx(0.21)

    def test_threshold_is_strict(self):
        cs = detect_clusters(sig([0.9, 0.9]), threshold=0.9, merge_gap=0.0)
        assert len(cs) == 0

    def test_merge_gap(self):
        v = [1, 0, 0, 1]  # 2-bin gap = 0.02 s
        assert len(detect_clusters(sig(v), 0.5, merge_gap=0.05)) == 1
        assert len(detect_clusters(sig(v), 0.5, merge_gap=0.02)) == 2
        assert len(detect_clusters(sig(v), 0.5, merge_gap=0.021)) == 1

    def test_min_duration_filter(self):
        v = [0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0]
        cs = detect_clusters(sig(v), 0.5, merge_gap=0.05, min_duration=0.02)
        assert len(cs) == 1
        assert cs[0].length == pytest.approx(0.03)

    def test_min_duration_keeps_exact_length(self):
        cs = detect_clusters(sig([1, 1, 0]), 0.5, merge_gap=0.0, min_duration=0.02)
        assert len(cs) == 1

    def test_peak_value(self):
        cs = detect_clusters(sig([0, 2, 7, 3, 0]), 1.0, merge_gap=0.0)
        assert cs[0].peak_value == 7.0

    def test_all_below_threshold(self):
        assert len(detect_clusters(sig([0.1, 0.2]), 0.5)) == 0

    def test_shift_covariance(self):
        rng = np.random.default_rng(5)
        base = np.zeros(200)
        h = rng.uniform(10, 60, 7)
        base[40 : 47] = h
        shifted = np.zeros(200)
        shifted[90 : 97] = h
        k = ker(h)
        c0 = detect_clusters(convolve(sig(base), k), 0.5, merge_gap=0.05)
        c1 = detect_clusters(convolve(sig(shifted), k), 0.5, merge_gap=0.05)
        assert len(c0) == len(c1) == 1
        assert c1[0].start - c0[0].start == pytest.approx(0.5, abs=1e-9)
        assert c1[0].end - c0[0].end == pytest.approx(0.5, abs=1e-9)


def reference_detect_clusters(signal, threshold, merge_gap=0.2, min_duration=0.0):
    """The edge-list and merge-loop implementation detect_clusters replaced."""
    v = signal.values
    bw = signal.bin_width
    above = v > threshold
    if not above.any():
        return []

    edges = np.flatnonzero(np.diff(above.astype(np.int8)))
    starts = list(np.flatnonzero(above[:1]) if above[0] else [])
    # run start indices: position after 0->1 edges; run ends: positions of 1->0 edges
    starts += [int(e) + 1 for e in edges if above[e + 1]]
    ends = [int(e) for e in edges if above[e]]
    if above[-1]:
        ends.append(len(v) - 1)
    starts = sorted(int(s) for s in starts)

    merged: list[list[int]] = []
    for s, e in zip(starts, ends):
        if merged and (s - merged[-1][1] - 1) * bw < merge_gap:
            merged[-1][1] = e
        else:
            merged.append([s, e])

    clusters = []
    for s, e in merged:
        length = (e - s + 1) * bw
        if length < min_duration - 1e-9:
            continue
        clusters.append(
            Cluster(
                start=s * bw,
                end=(e + 1) * bw,
                peak_value=float(v[s : e + 1].max()),
            )
        )
    return clusters


def cluster_fields(clusters):
    # repr is exact for floats and equal for two NaNs (a merged gap may hold NaN bins)
    return [[(repr(x), type(x)) for x in (c.start, c.end, c.peak_value)] for c in clusters]


def assert_same_clusters(signal, threshold, merge_gap, min_duration):
    got = detect_clusters(signal, threshold, merge_gap, min_duration)
    want = reference_detect_clusters(signal, threshold, merge_gap, min_duration)
    assert cluster_fields(got) == cluster_fields(want)


BIN_WIDTHS = st.sampled_from([0.01, 0.05, 0.1, 1 / 3, 1.0])
# whole multiples of a bin width hit a gap or a length exactly
DURATIONS = (
    st.integers(0, 6)
    | st.floats(0.0, 0.5, allow_nan=False)
    | st.just(math.nan)
)


@settings(max_examples=400, deadline=None)
@given(
    values=st.lists(st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0, 2.0, -1.0, math.nan]), max_size=30),
    threshold=st.sampled_from([-2.0, 0.0, 0.3, 0.5, 0.9, 1.3, 3.0]),
    bw=BIN_WIDTHS,
    merge_gap=DURATIONS,
    min_duration=DURATIONS,
)
def test_detect_clusters_matches_reference(values, threshold, bw, merge_gap, min_duration):
    # an integer duration counts bins, so the gap or length equals it exactly
    merge_gap = merge_gap * bw if isinstance(merge_gap, int) else merge_gap
    min_duration = min_duration * bw if isinstance(min_duration, int) else min_duration
    assert_same_clusters(Signal(np.array(values), bw), threshold, merge_gap, min_duration)


@pytest.mark.parametrize(
    "values, merge_gap, min_duration",
    [
        ([1.0] * 5, 0.0, 0.0),  # every bin above, one run touching both ends
        ([0.0] * 5, 0.0, 0.0),  # every bin below
        ([1.0], 0.0, 0.01),  # one bin, exactly min_duration long
        ([0.0], 0.0, 0.0),
        ([], 0.2, 0.0),
        ([1.0, 0.0, 0.0, 1.0], 0.02, 0.0),  # gap exactly merge_gap: not merged
        ([1.0, 0.0, 1.0, 0.0, 1.0], 0.02, 0.03),  # merged into one 0.05 s cluster
        ([1.0, 0.0, 1.0], math.nan, 0.0),  # NaN merge_gap merges nothing
        ([1.0, 0.0, 1.0], 0.2, math.nan),  # NaN min_duration drops nothing
    ],
)
def test_detect_clusters_matches_reference_at_edges(values, merge_gap, min_duration):
    assert_same_clusters(sig(values), 0.5, merge_gap, min_duration)


def delete_detect_clusters(signal, threshold, merge_gap=0.2, min_duration=0.0):
    """The array-pass implementation that merged runs with two np.delete calls."""
    v = signal.values
    bw = signal.bin_width
    edges = np.flatnonzero(np.diff(np.concatenate(([False], v > threshold, [False]))))
    starts, stops = edges[::2], edges[1::2]
    joins = np.flatnonzero((starts[1:] - stops[:-1]) * bw < merge_gap)
    starts, stops = np.delete(starts, joins + 1).tolist(), np.delete(stops, joins).tolist()
    return [
        Cluster(s * bw, e * bw, float(v[s:e].max()))
        for s, e in zip(starts, stops)
        if not (e - s) * bw < min_duration - 1e-9
    ]


@st.composite
def _responses(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 400))
    values = rng.normal(0.0, 1.0, n)
    if draw(st.booleans()):  # stretches at one value, as scan responses hold
        values = np.repeat(values, rng.integers(1, 30, n))[:n]
    if n and draw(st.booleans()):
        values[rng.integers(0, n, draw(st.integers(1, 5)))] = math.nan
    return values


@settings(max_examples=300, deadline=None)
@given(
    values=_responses(),
    threshold=st.floats(-2.5, 2.5),
    bw=BIN_WIDTHS,
    merge_gap=st.sampled_from(["zero", "bin", "past_end"]) | st.floats(0.0, 2.0),
    min_duration=DURATIONS,
)
@example(np.array([0.1, 0.2, 0.3]), 0.5, 0.01, "bin", 0.0)  # no crossing
@example(np.array([0.1, 0.2, 0.9]), 0.5, 0.01, "bin", 0.0)  # crossing at the last bin
@example(np.array([0.9, 0.1, 0.9, 0.1, 0.9]), 0.5, 0.01, "past_end", 0)  # one merged cluster
def test_detect_clusters_matches_np_delete_version(
    values, threshold, bw, merge_gap, min_duration
):
    merge_gap = {"zero": 0.0, "bin": bw, "past_end": (len(values) + 1) * bw}.get(
        merge_gap, merge_gap
    )
    min_duration = min_duration * bw if isinstance(min_duration, int) else min_duration
    signal = Signal(values, bw)
    got = detect_clusters(signal, threshold, merge_gap, min_duration)
    want = delete_detect_clusters(signal, threshold, merge_gap, min_duration)
    assert cluster_fields(got) == cluster_fields(want)


def test_detect_clusters_matches_reference_on_generated_scans():
    dataset = gen_dataset(GenConfig(seed=3, samples_per_class=3))
    bank = default_kernel_bank()
    config = SigprocConfig()
    for trace in dataset.traces:
        for kind in CommandKind:
            response, _ = command_clusters(trace, kind, bank, config)
            for threshold in (0.0, 0.3, 0.9, 1.3):
                for merge_gap, min_duration in ((0.2, 0.0), (0.2, 1.0), (0.0, 0.0), (1.0, 0.3)):
                    assert_same_clusters(response, threshold, merge_gap, min_duration)


# ---------------------------------------------------------------------------
# statistics block


def clusters_from_starts(starts, length):
    return [Cluster(s, s + length, 1.0) for s in starts]


class TestClusterStatistics:
    def test_moments_against_plain_loops(self):
        rng = np.random.default_rng(17)
        v = rng.normal(3, 2, 500)
        st_ = cluster_statistics(sig(v), [])
        mu = sum(v) / len(v)
        m2 = sum((x - mu) ** 2 for x in v) / len(v)
        m3 = sum((x - mu) ** 3 for x in v) / len(v)
        m4 = sum((x - mu) ** 4 for x in v) / len(v)
        assert st_.mean == pytest.approx(mu)
        assert st_.std == pytest.approx(math.sqrt(m2))
        assert st_.skewness == pytest.approx(m3 / m2**1.5)
        assert st_.kurtosis == pytest.approx(m4 / m2**2 - 3.0)
        assert st_.median == pytest.approx(np.percentile(v, 50))
        assert st_.p25 == pytest.approx(np.percentile(v, 25))
        assert st_.p75 == pytest.approx(np.percentile(v, 75))
        assert st_.max == v.max()
        assert st_.min == v.min()

    def test_zero_variance_maps_to_zero(self):
        st_ = cluster_statistics(sig([5.0] * 20), [])
        assert st_.skewness == 0.0
        assert st_.kurtosis == 0.0
        assert st_.std == 0.0

    def test_six_cluster_gap_formula(self):
        # six clusters whose first and last starts are 16.9991 s apart
        starts = [0.07, 2.5, 7.1, 10.0, 14.2, 17.0691]
        st_ = cluster_statistics(sig(np.zeros(4)), clusters_from_starts(starts, 0.01))
        assert st_.cluster_count == 6
        assert st_.avg_time_gap == pytest.approx(16.9991 / 5, abs=1e-9)
        assert st_.avg_time_gap == pytest.approx(3.39982, abs=1e-4)
        assert st_.total_time_span == pytest.approx(16.9991 + 0.01, abs=1e-9)

    def test_single_cluster_zero_gap(self):
        st_ = cluster_statistics(sig(np.zeros(4)), clusters_from_starts([4.0], 2.091))
        assert st_.cluster_count == 1
        assert st_.avg_time_gap == 0.0
        assert st_.total_cluster_length == pytest.approx(2.091)
        assert st_.avg_cluster_length == pytest.approx(2.091)
        assert st_.total_time_span == pytest.approx(2.091)

    def test_no_clusters_all_zero(self):
        st_ = cluster_statistics(sig([1.0, 2.0]), [])
        assert st_.cluster_count == 0
        assert st_.total_cluster_length == 0.0
        assert st_.avg_cluster_length == 0.0
        assert st_.total_time_span == 0.0
        assert st_.avg_time_gap == 0.0

    def test_span_identity(self):
        # span equals cluster lengths plus end-to-next-start gaps
        rng = np.random.default_rng(29)
        for _ in range(30):
            n = rng.integers(1, 8)
            starts = np.cumsum(rng.uniform(0.5, 3.0, n))
            lengths = rng.uniform(0.05, 0.4, n)
            cl = [Cluster(float(s), float(s + l), 1.0) for s, l in zip(starts, lengths)]
            st_ = cluster_statistics(sig(np.zeros(2)), cl)
            gaps = [cl[i + 1].start - cl[i].end for i in range(n - 1)]
            assert st_.total_time_span == pytest.approx(
                sum(lengths) + sum(gaps), abs=1e-9
            )


def reference_moments(v):
    """The moments as first written: every element raised to each power."""
    mu = float(v.mean())
    d = v - mu
    m2 = float(np.mean(d * d))
    if m2 <= sigproc._EPS:
        return mu, 0.0, 0.0, 0.0
    m3 = float(np.mean(d**3))
    m4 = float(np.mean(d**4))
    return mu, math.sqrt(m2), m3 / m2**1.5, m4 / m2**2 - 3.0


MOMENT_VALUES = (
    st.floats(-1e6, 1e6)
    | st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1 / 3])
    | st.floats(-2.3e-308, 2.3e-308)  # subnormals and their neighbours
    | st.sampled_from([1e80, -1e80, 1e154, -3e200, 1.7e308])  # d**4 overflows
    | st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def _runs(draw):
    """Up to 3,000 values in runs of one value, as scan responses repeat them."""
    runs = draw(st.lists(st.tuples(MOMENT_VALUES, st.integers(1, 600)), min_size=1, max_size=30))
    values = np.repeat([v for v, _ in runs], [n for _, n in runs])[:3000]
    if draw(st.booleans()):
        values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(values)
    return values


def _reference_outcome(values):
    """The reference moments as hex strings.  Where the reference raises
    OverflowError (m2**2 past float range), _moments keeps the mean and std
    and reads NaN for skewness and kurtosis."""
    try:
        return [float.hex(x) for x in reference_moments(values)]
    except OverflowError:
        m2 = float(np.mean((values - float(values.mean())) ** 2))
        return [float.hex(float(values.mean())), float.hex(math.sqrt(m2)), "nan", "nan"]


@st.composite
def _mostly_distinct(draw):
    """Up to 3,000 values, most of them distinct, some drawn twice."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3000))
    scale = draw(st.sampled_from([1e-300, 1e-3, 1.0, 1e6, 1e150]))
    if draw(st.booleans()):
        values = rng.normal(0.0, scale, n)
    else:  # random bit patterns: any sign, exponent, subnormal, inf or NaN
        values = rng.integers(0, 2**64 - 1, n, np.uint64, endpoint=True).view(np.float64)
    repeats = draw(st.integers(0, n // 2))
    values[:repeats] = rng.choice(values, repeats)
    return rng.permutation(values)


@settings(max_examples=300, deadline=None)
@given(_runs() | _mostly_distinct())
@example(np.full(2500, 7.25))  # constant: the zero-variance path
@example(np.array([0.0, -0.0] * 700 + [5e-324] * 9))
@example(np.array([1e80, -1e80, 0.0]))
@example(np.array([3.0]))
# zeros of both signs share one distinct value; with mu = +0.0 their d differ
@example(np.array([0.0, -0.0, 1.0, -1.0, -0.0, 0.0] * 3))
@example(np.array([math.inf, 1.0, 1.0, 2.0]))
@example(np.array([-math.inf, math.inf, 1.0, 1.0]))
@example(np.array([math.nan, 1.0, 1.0, 1.0, math.nan]))  # each NaN is its own value
@example(np.array([-math.nan, math.nan, math.inf, -0.0, 0.0, 0.0]))
def test_moments_match_reference_bit_for_bit(values):
    with np.errstate(all="ignore"):  # overflowing powers and their inf / inf
        want = _reference_outcome(values)
        assert [float.hex(x) for x in sigproc._moments(values, np.sort(values))] == want


def searched_moments(v):
    """_moments with every value, not each run's first, searched among the
    distinct values."""
    n = len(v)
    mu = float(np.add.reduce(v) / n)
    d = v - mu
    m2 = float(np.add.reduce(d * d) / n)
    if m2 <= sigproc._EPS:
        return mu, 0.0, 0.0, 0.0
    ordered = np.sort(v)
    new = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    if 2 * np.count_nonzero(new) > n:
        d3, d4 = d**3, d**4
    else:
        distinct = ordered[new]
        e = distinct - mu
        inverse = np.searchsorted(distinct, v)
        d3, d4 = (e**3)[inverse], (e**4)[inverse]
    m3 = float(np.add.reduce(d3) / n)
    m4 = float(np.add.reduce(d4) / n)
    try:
        return mu, math.sqrt(m2), m3 / m2**1.5, m4 / m2**2 - 3.0
    except OverflowError:
        return mu, math.sqrt(m2), math.nan, math.nan


@settings(max_examples=300, deadline=None)
@given(_runs() | _mostly_distinct())
@example(np.array([0.0, -0.0, -0.0, 0.0, 2.0, 2.0, -0.0]))  # one run, both zero signs
@example(np.array([math.nan, math.nan, 1.0, 1.0, math.nan]))
@example(np.array([2.0, 2.0]))
def test_moments_match_every_value_searched(values):
    with np.errstate(all="ignore"):
        want = [float.hex(x) for x in searched_moments(values)]
        assert [float.hex(x) for x in sigproc._moments(values, np.sort(values))] == want


def test_moments_call_no_unique(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.unique called")

    monkeypatch.setattr(np, "unique", refuse)
    values = np.repeat([0.0, 1.5, -2.0, 7.0], [900, 50, 30, 20])
    assert sigproc._moments(values, np.sort(values))[2] != 0.0


# 1e80: d**4 and m2**2 pass float range; 1e160: d * d as well
@pytest.mark.parametrize("scale", [1e80, 1e160])
def test_moments_overflowing_powers_warn_nothing(scale):
    """Past float range: NaN skewness and kurtosis, and no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = np.array([scale, -scale, 0.0])
        _, _, skewness, kurtosis = sigproc._moments(values, np.sort(values))
    assert math.isnan(skewness) and math.isnan(kurtosis)


# ---------------------------------------------------------------------------
# kernel extraction and banks


class TestKernels:
    def test_extract_window(self):
        tr = make_trace([(0.0, 1, 10), (1.005, 1, 200), (1.022, -1, 650), (2.0, 1, 10)])
        k = extract_kernel(tr, CommandKind.CARTESIAN_MOVE, 1.0, 1.05, 0.01)
        assert len(k.values) == 5
        assert list(k.values) == [200.0, 0.0, -650.0, 0.0, 0.0]

    def test_extract_empty_window(self):
        tr = make_trace([(0.0, 1, 10), (2.0, 1, 10)])
        with pytest.raises(errors.EmptyWindow):
            extract_kernel(tr, CommandKind.CARTESIAN_MOVE, 0.5, 1.0, 0.01)

    def test_extract_bin_cap(self):
        tr = make_trace([(0.0, 1, 10), (2.0, 1, 10)])
        with pytest.raises(errors.OutOfRange):
            extract_kernel(tr, CommandKind.CARTESIAN_MOVE, 1.0, 1e7, 0.01)

    def test_extract_nan_bin_width(self):
        tr = make_trace([(0.0, 1, 10)])
        with pytest.raises(errors.InvalidConfig, match="bin_width must be positive"):
            extract_kernel(tr, CommandKind.CARTESIAN_MOVE, 0.0, 0.5, float("nan"))

    def test_extract_bad_window(self):
        tr = make_trace([(0.0, 1, 10)])
        with pytest.raises(errors.EmptyWindow):
            extract_kernel(tr, CommandKind.CARTESIAN_MOVE, 1.0, 0.5, 0.01)

    def test_bank_round_trip(self, tmp_path):
        bank = KernelBank(
            [
                ker([200.0, 0.0, -650.0], CommandKind.CARTESIAN_MOVE),
                ker([30.0, 36.0], CommandKind.GRIPPER_POSITION),
                ker(np.sin(np.linspace(0, np.pi, 50)) * 90, CommandKind.GRIPPER_SPEED),
            ]
        )
        p = tmp_path / "bank.json"
        bank.save(p)
        bank2 = KernelBank.load(p)
        assert len(bank2) == 3
        assert bank2.fingerprint() == bank.fingerprint()
        for a, b in zip(bank, bank2):
            assert a.kind == b.kind
            assert np.allclose(a.values, b.values)

    def test_first_kernel_per_kind_wins(self):
        bank = KernelBank(
            [
                ker([1.0, 2.0], CommandKind.GRIPPER_SPEED),
                ker([9.0, 9.0], CommandKind.GRIPPER_SPEED),
            ]
        )
        assert list(bank.kernel_for(CommandKind.GRIPPER_SPEED).values) == [1.0, 2.0]

    def test_missing_kind(self):
        bank = KernelBank([ker([1.0, 2.0], CommandKind.GRIPPER_SPEED)])
        with pytest.raises(errors.MissingKernel) as caught:
            bank.kernel_for(CommandKind.CARTESIAN_MOVE)
        assert str(caught.value) == (
            f"kernel bank has no kernel for command kind {CommandKind.CARTESIAN_MOVE!r}"
        )

    def test_load_bad_json(self, tmp_path):
        p = tmp_path / "bank.json"
        # past Python's 4,300-digit int conversion limit json raises a bare ValueError
        for text in ("{not json", "[%s]" % ("1" * 5000)):
            p.write_text(text)
            with pytest.raises(errors.InvalidConfig, match="not valid JSON"):
                KernelBank.load(p)

    def test_load_entry_not_an_object(self, tmp_path):
        p = tmp_path / "bank.json"
        p.write_text("[[1, 2]]")
        with pytest.raises(errors.InvalidConfig):
            KernelBank.load(p)

    def test_load_nan_value(self, tmp_path):
        p = tmp_path / "bank.json"
        p.write_text('[{"kind": "CartesianMove", "bin_width": 0.01, "values": [1.0, NaN]}]')
        with pytest.raises(errors.InvalidConfig):
            KernelBank.load(p)

    def test_load_missing(self, tmp_path):
        with pytest.raises(errors.MissingFile):
            KernelBank.load(tmp_path / "none.json")

    @pytest.mark.parametrize(
        "key, value, needle",
        [("bin_width", "0.01", "bin_width must be a finite number"),
         ("values", ["-650", True], "values must be an array of numbers"),
         ("source_id", 5, "source_id must be a string")],
    )
    def test_load_refuses_mistyped_field(self, tmp_path, key, value, needle):
        # each of these once loaded, converted by float() or str()
        entry = {"kind": "CartesianMove", "bin_width": 0.01, "values": [-650, 1.5],
                 "source_id": "x"}
        p = tmp_path / "bank.json"
        p.write_text(json.dumps([entry]))
        KernelBank.load(p)  # the undamaged entry loads
        p.write_text(json.dumps([{**entry, key: value}]))
        with pytest.raises(errors.InvalidConfig, match=needle):
            KernelBank.load(p)
