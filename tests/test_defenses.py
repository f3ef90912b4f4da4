import hashlib
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_trace
from robofp import errors, trace
from robofp.defenses import (
    CONTROLLER_LATENCY_BUDGET,
    MAX_SLOTS,
    MODULATION_INTERVALS,
    ModulationConfig,
    PaddingConfig,
    SlotPlan,
    apply_defense,
    apply_modulation_defense,
    apply_padding_defense,
    modulation_preset,
    pad_packet,
    segment_plan,
)
from robofp.synthgen import GenConfig, gen_dataset
from robofp.trace import MTU, Trace, write_trace_csv


# ---------------------------------------------------------------------------
# padding: unit cases, then exhaustive properties


def test_pad_packet_hand_cases():
    assert pad_packet(360, 2) == 400
    assert pad_packet(360, 5) == 500
    assert pad_packet(960, 8) == 1500  # 1600 clipped to the MTU
    assert pad_packet(100, 1) == 100
    assert pad_packet(101, 1) == 200
    assert pad_packet(1, 10) == 1000
    assert pad_packet(1500, 3) == 1500


def test_pad_packet_range_checks():
    for bad_x in (0, 11, -1):
        with pytest.raises(errors.OutOfRange):
            pad_packet(100, bad_x)
    for bad_size in (0, -5, MTU + 1):
        with pytest.raises(errors.OutOfRange):
            pad_packet(bad_size, 1)


def test_pad_packet_exhaustive_properties():
    # idempotent and monotone in size, over the whole domain
    for x in range(1, 11):
        prev = 0
        for size in range(1, MTU + 1):
            p = pad_packet(size, x)
            assert p >= size or p == MTU
            assert p >= prev
            assert pad_packet(p, x) == p
            prev = p


# ---------------------------------------------------------------------------
# segment planning: worked examples, oracle grid, random properties


def test_segment_plan_worked_examples():
    assert segment_plan(100, 200, 0.001, 0.001) == (200, 1)
    assert segment_plan(1000, 200, 0.0001, 0.001) == (200, 5)
    assert segment_plan(5000, 200, 0.0005, 0.001) == (2500, 2)


def test_segment_plan_exact_boundaries():
    # n_wanted * t_i == L exactly: the deadline is met, so segments stay at
    # the dummy size
    assert segment_plan(1000, 100, 0.0001, 0.001) == (100, 10)
    assert segment_plan(2000, 200, 0.0001, 0.001) == (200, 10)
    # L an exact multiple of t_i must not lose a slot to float rounding
    assert segment_plan(3000, 100, 0.1, 0.3) == (1000, 3)


def oracle_segment_plan(s_o, s_p, t_i, big_l):
    """Exact-arithmetic re-derivation of the three-branch table."""
    ti, L = Fraction(str(t_i)), Fraction(str(big_l))
    if s_o <= s_p:
        return s_p, 1
    n_wanted = -(-s_o // s_p)
    if n_wanted * ti > L:
        n = int(L / ti)
        return -(-s_o // n), n
    return s_p, n_wanted


def test_segment_plan_matches_exact_oracle_on_grid():
    sizes = (1, 50, 100, 150, 400, 900, 999, 1000, 1001, 1500, 2000, 5000)
    dummies = (100, 200, 500, 1000)
    timings = ((0.01, 0.01), (0.001, 0.001), (0.0001, 0.001), (0.0005, 0.001), (0.1, 0.3))
    for s_o in sizes:
        for s_p in dummies:
            for t_i, big_l in timings:
                assert segment_plan(s_o, s_p, t_i, big_l) == oracle_segment_plan(
                    s_o, s_p, t_i, big_l
                ), (s_o, s_p, t_i, big_l)


def test_segment_plan_random_properties():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        s_o = int(rng.integers(1, 5001))
        s_p = int(rng.integers(1, 1501))
        t_i = float(rng.choice(MODULATION_INTERVALS))
        big_l = t_i * int(rng.integers(1, 20))
        s_c, n = segment_plan(s_o, s_p, t_i, big_l)
        assert n >= 1 and s_c >= 1
        assert n * s_c >= s_o or s_o <= s_p  # the message always fits
        assert n * t_i <= big_l * (1 + 1e-9)  # and meets the deadline


def test_segment_plan_validation():
    with pytest.raises(errors.InvalidConfig):
        segment_plan(0, 100, 0.001, 0.001)
    with pytest.raises(errors.InvalidConfig):
        segment_plan(100, 0, 0.001, 0.001)
    with pytest.raises(errors.InvalidConfig):
        segment_plan(100, 100, 0.0, 0.001)
    with pytest.raises(errors.InvalidConfig):
        segment_plan(100, 100, 0.002, 0.001)  # L < t_i


# ---------------------------------------------------------------------------
# configs


def test_padding_config_validation():
    for bad in (0, 11, True):
        with pytest.raises(errors.OutOfRange):
            PaddingConfig(bad)
    with pytest.raises(errors.OutOfRange):
        PaddingConfig(1.5)


def test_modulation_config_validation():
    with pytest.raises(errors.InvalidConfig):
        ModulationConfig(s_p=0, t_i=0.001, big_l=0.001)
    with pytest.raises(errors.InvalidConfig):
        ModulationConfig(s_p=MTU + 1, t_i=0.001, big_l=0.001)
    with pytest.raises(errors.InvalidConfig):
        ModulationConfig(s_p=100, t_i=1e-7, big_l=0.001)
    with pytest.raises(errors.InvalidConfig):
        ModulationConfig(s_p=100, t_i=0.002, big_l=0.001)
    with pytest.raises(errors.InvalidConfig):
        ModulationConfig(s_p=100, t_i=0.001, big_l=0.001, tail_dummies=-1.0)
    # non-finite values would reach math.ceil; wrong types would reach comparisons
    for bad in (dict(t_i=math.nan), dict(t_i=math.inf), dict(big_l=math.nan),
                dict(tail_dummies=math.nan), dict(tail_dummies=math.inf), dict(s_p=100.0),
                dict(tail_dummies="x")):
        with pytest.raises(errors.InvalidConfig, match="must be"):
            ModulationConfig(**{"s_p": 100, "t_i": 0.001, "big_l": 0.001, **bad})


def test_modulation_preset_pairs_interval_with_controller_budget():
    assert modulation_preset(200, 0.0001).big_l == CONTROLLER_LATENCY_BUDGET
    assert modulation_preset(200, 0.001).big_l == 0.001
    assert modulation_preset(200, 0.01).big_l == 0.01  # coarser than the budget


# ---------------------------------------------------------------------------
# padding defense on traces


def test_padding_defense_matches_per_packet_oracle():
    rows = [(0.0, 1, 150), (0.5, -1, 777), (0.9, 1, 40), (2.0, -1, 1450)]
    for x in (1, 4, 10):
        d = apply_padding_defense(make_trace(rows), PaddingConfig(x))
        assert list(d.trace.sizes) == [pad_packet(s, x) for _, _, s in rows]
        assert np.array_equal(d.trace.times, make_trace(rows).times)
        assert np.array_equal(d.trace.dirs, make_trace(rows).dirs)
        assert np.array_equal(d.orig_index, np.arange(4))
        assert d.max_added_latency == 0.0


def test_padding_defense_is_idempotent_and_counts_bytes():
    rows = [(0.0, 1, 150), (1.0, -1, 620)]
    d1 = apply_padding_defense(make_trace(rows), PaddingConfig(3))
    d2 = apply_padding_defense(d1.trace, PaddingConfig(3))
    assert np.array_equal(d1.trace.sizes, d2.trace.sizes)
    assert d1.original_bytes == 770
    assert d1.trace.total_bytes == 300 + 900
    assert d1.bandwidth_overhead() == pytest.approx((1200 - 770) / 770)


# ---------------------------------------------------------------------------
# modulation defense on traces


def test_modulation_single_packet_worked_example():
    # one 100 B outgoing packet at t=0 under (s_p=200, t_i=0.001):
    # out direction sends that message as one 200 B slot; the incoming
    # direction emits one dummy on the same grid
    d = apply_modulation_defense(
        make_trace([(0.0, 1, 100)]), ModulationConfig(200, 0.001, 0.001)
    )
    assert len(d.trace) == 2
    assert list(d.trace.sizes) == [200, 200]
    assert set(d.trace.dirs) == {1, -1}
    assert d.added_latency[0] == 0.0
    assert d.bandwidth_overhead() == pytest.approx(3.0)
    assert sorted(d.orig_index) == [-1, 0]


def test_modulation_emits_constant_rate_per_direction():
    rows = [(0.0, 1, 60), (0.0131, 1, 900), (0.0262, -1, 700), (0.05, 1, 60)]
    cfg = ModulationConfig(200, 0.001, 0.001)
    d = apply_modulation_defense(make_trace(rows), cfg)
    for direction in (1, -1):
        tt = d.trace.times[d.trace.dirs == direction]
        assert len(tt) >= 51
        assert np.allclose(np.diff(tt), cfg.t_i, atol=1e-9)
        assert tt[0] == 0.0


def test_modulation_hides_sizes_when_messages_fit():
    # all messages at or below s_p: every wire packet is exactly s_p
    rows = [(0.001 * i, 1 if i % 2 else -1, 40 + i) for i in range(30)]
    d = apply_modulation_defense(make_trace(rows), ModulationConfig(100, 0.001, 0.001))
    assert set(d.trace.sizes) == {100}


def test_modulation_hides_sizes_at_fine_interval():
    # t_i ten times finer than the deadline: even MTU-sized messages split
    # into s_p-sized segments, so sizes vanish entirely
    rows = [(0.01 * i, 1, int(s)) for i, s in enumerate((1500, 900, 333, 41))]
    rows += [(0.005 + 0.01 * i, -1, 60) for i in range(4)]
    cfg = modulation_preset(200, 0.0001)
    d = apply_modulation_defense(make_trace(sorted(rows)), cfg)
    assert set(d.trace.sizes) == {200}


def test_modulation_conserves_message_bytes():
    rng = np.random.default_rng(1)
    rows = [(0.0, 1, 1200)] + [
        (float(np.round(rng.uniform(0.001, 0.4), 6)), int(rng.choice((1, -1))), int(rng.integers(40, 1500)))
        for _ in range(24)
    ]
    trace = make_trace(sorted(rows))
    cfg = ModulationConfig(150, 0.001, 0.002)
    d = apply_modulation_defense(trace, cfg)
    # each original packet owns exactly one first-segment slot
    carried = sorted(i for i in d.orig_index if i >= 0)
    assert carried == list(range(len(trace)))
    # and its plan ships at least its size
    for pos in range(len(trace)):
        s_c, n = segment_plan(int(trace.sizes[pos]), cfg.s_p, cfg.t_i, cfg.big_l)
        assert n * s_c >= trace.sizes[pos]


def test_modulation_latency_bound_per_preset():
    rows = [(0.0077 * i, 1 if i % 3 else -1, int(60 + 40 * i)) for i in range(12)]
    trace = make_trace(rows)
    for t_i in MODULATION_INTERVALS:
        cfg = modulation_preset(100, t_i)
        d = apply_modulation_defense(trace, cfg)
        assert d.added_latency.min() >= 0.0
        # waiting for the next slot costs at most t_i; the remaining
        # segments at most L
        assert d.max_added_latency <= cfg.big_l + cfg.t_i + 1e-9


def test_modulation_tail_dummies_extend_cover():
    trace = make_trace([(0.0, 1, 100), (0.2, -1, 100)])
    base = apply_modulation_defense(trace, ModulationConfig(100, 0.01, 0.01))
    tailed = apply_modulation_defense(
        trace, ModulationConfig(100, 0.01, 0.01, tail_dummies=1.0)
    )
    assert tailed.trace.duration >= base.trace.duration + 1.0 - 0.01
    assert len(tailed.trace) > len(base.trace)


def test_modulation_queue_pushes_later_arrivals():
    # two MTU messages arriving back to back: the second waits for the
    # first's five slots before its own segments start
    cfg = ModulationConfig(300, 0.001, 0.005)
    trace = make_trace([(0.0, 1, 1500), (0.001, 1, 1500)])
    d = apply_modulation_defense(trace, cfg)
    # plan per message: ceil(1500/300)=5 slots at 300 B
    assert d.added_latency[0] == pytest.approx(0.004)
    # second: arrives 0.001, first free slot 5 -> done at slot 9 (0.009)
    assert d.added_latency[1] == pytest.approx(0.008)


# ---------------------------------------------------------------------------
# dispatcher, bookkeeping, persistence


def test_apply_defense_dispatch():
    trace = make_trace([(0.0, 1, 123), (0.1, -1, 456)])
    padded = apply_defense(trace, PaddingConfig(2))
    assert list(padded.trace.sizes) == [200, 600]
    modulated = apply_defense(trace, ModulationConfig(100, 0.01, 0.01))
    assert len(modulated.trace) == 2 * 11  # slots 0 .. 10 in both directions
    with pytest.raises(errors.InvalidConfig):
        apply_defense(trace, object())


# ---------------------------------------------------------------------------
# modulation against the per-message reference


def _assign_slots(times, sizes, orig_idx, config):
    """FIFO slot assignment for one direction, one message at a time.

    Returns (slot -> (orig index, segment size, n segments)) plus the
    per-message added latency and the last occupied slot.
    """
    t_i = config.t_i
    assigned = {}
    latency = np.zeros(len(times))
    cursor = 0  # next free slot
    last = -1
    for pos, (t, s, oi) in enumerate(zip(times, sizes, orig_idx)):
        s_c, n = segment_plan(int(s), config.s_p, t_i, config.big_l)
        slot = max(cursor, math.ceil(t / t_i - 1e-12))
        assigned[slot] = (oi, s_c, n)
        cursor = slot + n
        latency[pos] = (slot + n - 1) * t_i - t
        last = slot + n - 1
    return assigned, latency, last


def reference_modulation(trace, config):
    """The slot-dict implementation: (times, dirs, sizes, orig_index, added_latency)."""
    span = trace.duration + config.tail_dummies
    per_dir = {}
    latencies = np.zeros(len(trace))
    last = math.ceil(span / config.t_i)
    for direction in (1, -1):
        idx = np.flatnonzero(trace.dirs == direction)
        assigned, lat, dir_last = _assign_slots(trace.times[idx], trace.sizes[idx], idx, config)
        latencies[idx] = lat
        per_dir[direction] = assigned
        last = max(last, dir_last)

    n_slots = last + 1
    slot_times = np.round(np.arange(n_slots) * config.t_i * 1e6) / 1e6
    parts = []
    for direction in (1, -1):
        slot_sizes = np.full(n_slots, config.s_p, dtype=np.int64)
        slot_orig = np.full(n_slots, -1, dtype=np.int64)
        for slot, (oi, s_c, n) in per_dir[direction].items():
            slot_sizes[slot : slot + n] = s_c
            slot_orig[slot] = oi
        parts.append((slot_times, np.full(n_slots, direction, dtype=np.int32), slot_sizes, slot_orig))
    times, dirs, sizes, orig = (np.concatenate(cols) for cols in zip(*parts))
    # stable sort keeps the outgoing slot first when both directions share a time
    order = np.argsort(times, kind="stable")
    return times[order], dirs[order], sizes[order], orig[order], latencies


def _random_trace(rng, n, horizon, dirs=(1, -1), sizes=(1, MTU + 1)):
    t = np.sort(np.round(rng.uniform(0.0, horizon, n), 6))
    if n:
        t -= t[0]
    return Trace(t, rng.choice(dirs, n), rng.integers(*sizes, n))


def _back_to_back_mtu(rng, n, gap):
    # bursts of MTU messages closer together than their segments take to send
    t = np.round(np.cumsum(np.r_[0.0, rng.uniform(0.0, gap, n - 1)]), 6)
    return Trace(t, rng.choice((1, -1), n, p=(0.8, 0.2)), np.full(n, MTU))


def _assert_matches_reference(trace, config):
    d = apply_modulation_defense(trace, config)
    got = (d.trace.times, d.trace.dirs, d.trace.sizes, d.orig_index, d.added_latency)
    for name, a, b in zip(("times", "dirs", "sizes", "orig_index", "added_latency"),
                          got, reference_modulation(trace, config)):
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), (name, config)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_modulation_matches_reference(seed):
    rng = np.random.default_rng(seed)
    traces = [
        _random_trace(rng, 40, 0.5),  # both directions
        _random_trace(rng, 25, 0.5, dirs=(1,)),  # outgoing only
        _random_trace(rng, 25, 0.5, dirs=(-1,)),  # incoming only
        _random_trace(rng, 1, 0.0),
        _back_to_back_mtu(rng, 30, 0.002),  # queue pressure
        _random_trace(rng, 60, 0.3, sizes=(40, 200)),  # every message fits one slot
    ]
    configs = [
        modulation_preset(200, 0.001),
        modulation_preset(500, 0.0001, tail_dummies=0.05),
        modulation_preset(100, 0.01),  # coarse: s_c != s_p for big messages
        ModulationConfig(150, 0.003, 0.009),  # L an exact multiple of t_i
        ModulationConfig(300, 0.001, 0.005, tail_dummies=0.2),
        ModulationConfig(1000, 0.0005, 0.0005),  # one segment per slot, s_c up to the MTU
    ]
    for trace in traces:
        for config in configs:
            _assert_matches_reference(trace, config)


def test_modulation_matches_reference_on_empty_trace():
    empty = make_trace([])
    for config in (ModulationConfig(100, 0.01, 0.01), ModulationConfig(100, 0.01, 0.01, 0.1)):
        _assert_matches_reference(empty, config)
    d = apply_modulation_defense(empty, ModulationConfig(100, 0.01, 0.01, 0.1))
    assert len(d.trace) == 2 * 11 and set(d.orig_index) == {-1}  # dummies only


@pytest.mark.parametrize("t_i", [1e-6, 1.5e-6])
def test_modulation_matches_reference_at_microsecond_intervals(t_i):
    # the grid's row order equals the time order only while the rounded slot
    # times strictly increase; keep the traces short (20 ms = 20k slots)
    rng = np.random.default_rng(5)
    for trace in (_random_trace(rng, 30, 0.02), _back_to_back_mtu(rng, 20, 1e-5)):
        for s_p in (100, 1000):
            _assert_matches_reference(trace, ModulationConfig(s_p, t_i, 1e-3))
            _assert_matches_reference(trace, ModulationConfig(s_p, t_i, t_i, tail_dummies=0.001))


@pytest.mark.parametrize(
    "s_p, t_i, expected",
    [
        (500, 0.0001, "419ae633599a9ba0bed9254997e064258151b3bfd11a6a398290b1dac076f076"),
        (300, 0.01, "8ec59d798eaa0eb6dc3522d02d406ea91963f51ce3fd985e15f3a7a48b85bb37"),
    ],
)
def test_modulated_arrays_pinned(s_p, t_i, expected):
    # sha256 over all five defended arrays of the seed-7, 20-trace set
    h = hashlib.sha256()
    for trace in gen_dataset(GenConfig(seed=7, samples_per_class=5)).traces:
        d = apply_defense(trace, modulation_preset(s_p, t_i))
        for a in (d.trace.times, d.trace.dirs, d.trace.sizes, d.orig_index, d.added_latency):
            h.update(a.tobytes())
    assert h.hexdigest() == expected


def test_modulated_origin_grid_built_only_for_orig_index():
    # robofp defend reads only .trace; the origin grid is built from the
    # carriers when .orig_index is read, and nothing of it is kept
    trace = make_trace([(0.0, 1, 1400), (0.002, -1, 90), (0.0031, 1, 60)])
    d = apply_modulation_defense(trace, ModulationConfig(500, 0.001, 0.005))
    assert set(vars(d)) == {"original_bytes", "defended_bytes", "added_latency", "capture", "carriers"}
    with mock.patch.object(type(d.capture), "wire_packets", side_effect=AssertionError):
        # message 0 in slot 0 (outgoing), 1 in slot 2 (incoming), 2 in slot 4
        assert d.orig_index.tolist() == [0, -1, -1, -1, -1, 1, -1, -1, 2, -1]
    assert len(d.orig_index) == len(d.trace)


def test_modulated_wire_packets_built_on_first_read():
    # only the slot plan is kept; each read of .trace builds its wire packets
    trace = make_trace([(0.0, 1, 1400), (0.002, -1, 90), (0.0031, 1, 60)])
    d = apply_modulation_defense(trace, ModulationConfig(500, 0.001, 0.005))
    assert len(d.capture) == 2 * d.capture.n_slots
    first = d.trace
    assert first is not d.trace and np.array_equal(first.sizes, d.trace.sizes)
    assert len(first) == len(d.capture) and d.defended_bytes == first.total_bytes
    # the 1400-byte message goes out as three 500-byte segments: no odd sizes
    assert all(len(rows) == 0 for rows, _ in d.capture.odd)
    assert d.bandwidth_overhead() == (first.total_bytes - 1550) / 1550


def test_modulation_slot_cap_raises_before_allocating():
    # two packets 10 s apart: 10M slots per direction at 1 us
    trace = make_trace([(0.0, 1, 100), (10.0, -1, 100)])
    with pytest.raises(errors.OutOfRange, match="slots"):
        apply_modulation_defense(trace, ModulationConfig(100, 1e-6, 1e-3))
    # the span fits, but the last message's five segments run past the cap
    trace = make_trace([(0.0, 1, 100), ((MAX_SLOTS - 2) * 1e-3, 1, MTU)])
    with pytest.raises(errors.OutOfRange, match="slots"):
        apply_modulation_defense(trace, ModulationConfig(300, 1e-3, 5e-3))


@settings(max_examples=300, deadline=None)
@given(st.floats(1e-6, 1.0), st.integers(0, MAX_SLOTS - 1), st.integers(0, 2**32 - 1))
@example(1.5e-6, 673_823, 0)  # rint(r * (t_i * 1e6)) would round this row the other way
def test_slot_times_follow_the_reference_rule_up_to_the_slot_cap(t_i, last, seed):
    """Slot times and the duration of plans as long as the cap allows are
    ``reference_modulation``'s rule bit for bit, not only close to it."""
    rows = np.append(np.random.default_rng(seed).integers(0, last + 1, 999), last)
    plan = SlotPlan(t_i, 500, last + 1, ((rows[:0], rows[:0]),) * 2)
    rule = np.round(rows * t_i * 1e6) / 1e6
    assert plan.slot_times(rows).tobytes() == rule.tobytes()
    assert np.float64(plan.duration).tobytes() == rule[-1:].tobytes()


# ---------------------------------------------------------------------------
# a plan is written as its wire packets, a chunk of rows at a time


@st.composite
def slot_plans(draw):
    """Plans as the defense makes them: per direction, ascending distinct
    slot rows of segments whose size is not s_p."""
    n_slots = draw(st.integers(1, 40))
    s_p = draw(st.integers(1, MTU))
    odd = []
    for _ in range(2):
        rows = sorted(draw(st.sets(st.integers(0, n_slots - 1), max_size=n_slots)))
        sizes = [draw(st.integers(1, MTU).filter(lambda s: s != s_p)) for _ in rows]
        odd.append((np.array(rows, dtype=np.int64), np.array(sizes, dtype=np.int64) - s_p))
    t_i = draw(st.sampled_from([1e-6, 1.5e-6, 1e-4, 1e-3, 0.01, 1 / 36, 1.0]))
    return SlotPlan(t_i, s_p, n_slots, tuple(odd))


@settings(max_examples=200, deadline=None)
@given(slot_plans(), st.integers(1, 9))
def test_plan_writes_the_bytes_of_its_wire_packets(plan, chunk):
    """Every chunk size, odd ones too (a chunk may start mid-slot), gives the
    bytes of writing ``wire_packets()``."""
    expected = write_trace_csv(plan.wire_packets())
    with mock.patch.object(trace, "_WRITE_CHUNK", chunk):
        assert write_trace_csv(plan) == expected


def test_long_plan_writes_the_bytes_of_its_wire_packets():
    # 150,001 slots: 74 default chunks, the last one partial
    rows = np.arange(7, 150_001, 1_000)
    plan = SlotPlan(1e-4, 500, 150_001, ((rows, rows % 900 - 450), (rows[:3], -rows[:3] // 1000)))
    assert write_trace_csv(plan) == write_trace_csv(plan.wire_packets())
