import contextlib
import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robofp import errors, synthgen
from robofp.sigproc import CommandKind
from robofp.harness import ExperimentConfig
from robofp.synthgen import (
    CONTROL_TICK,
    KEEPALIVE_CLEARANCE,
    MAX_SAMPLES_PER_CLASS,
    PROFILES,
    ActionTemplate,
    CommandTemplate,
    GenConfig,
    ScriptStep,
    _choice,
    _envelope,
    _integer_source,
    _packet_columns,
    _uniform,
    default_action_templates,
    default_command_templates,
    default_kernel_bank,
    gen_action,
    gen_command,
    gen_dataset,
    step,
    trace_rng,
)
from robofp.trace import (
    MTU,
    ActionLabel,
    Captures,
    Dataset,
    load_dataset,
    save_dataset,
    write_trace_csv,
)


@pytest.fixture(scope="module")
def commands():
    return default_command_templates()


@pytest.fixture(scope="module")
def dataset():
    # held as a list: several tests walk it, and gen_dataset makes its
    # captures again on every pass
    return Dataset(list(gen_dataset(GenConfig(seed=7, samples_per_class=6))))


# ---------------------------------------------------------------------------
# per-command wire shape


def test_cartesian_feedback_strictly_larger(commands):
    rng = trace_rng(1, 0, 0)
    for _ in range(200):
        times, dirs, sizes, end = gen_command(
            rng, commands[CommandKind.CARTESIAN_MOVE], rng.uniform(0, 20)
        )
        assert len(times) == len(dirs) == len(sizes) == 2
        (t_cmd, t_fb), (d_cmd, d_fb), (cmd, fb) = times, dirs, sizes
        assert d_cmd == 1 and d_fb == -1
        assert 150 <= cmd <= 250
        assert 400 <= fb <= 900
        assert fb > cmd
        assert t_fb == end
        # dispatch rides the 10 ms controller tick
        assert abs(t_cmd / CONTROL_TICK - round(t_cmd / CONTROL_TICK)) < 1e-9
        assert 0.015 - 1e-9 <= t_fb - t_cmd <= 0.035 + 1e-9


def test_position_burst_rates_and_sizes(commands):
    rng = trace_rng(2, 0, 0)
    times, dirs, sizes, _ = gen_command(
        rng, commands[CommandKind.GRIPPER_POSITION], 3.0, duration=1.0
    )
    out = [t for t, d in zip(times, dirs) if d == 1]
    acks = [t for t, d in zip(times, dirs) if d == -1]
    assert len(out) == 36
    assert len(acks) == len(out) // 4  # every fourth update answered
    assert all(100 <= s <= 140 for s in sizes)
    spacings = np.diff(out)
    assert np.allclose(spacings, 1.0 / 36.0)


def test_speed_burst_packet_count_and_spacing(commands):
    rng = trace_rng(3, 0, 0)
    times, dirs, sizes, _ = gen_command(
        rng, commands[CommandKind.GRIPPER_SPEED], 1.0, duration=2.0
    )
    assert len(times) == len(dirs) == len(sizes) == 160  # 80 packets/s for 2 s
    assert all(d == 1 for d in dirs)
    spacings = np.diff(times)
    assert np.allclose(spacings, 0.0125)
    floor, peak = 40, 190
    sizes = np.array(sizes)
    assert sizes.min() >= floor and sizes.max() <= peak
    # envelope rises then falls: the peak sits in the middle half
    assert len(sizes) // 4 < int(np.argmax(sizes)) < 3 * len(sizes) // 4


def test_speed_burst_not_tick_aligned(commands):
    # the burst phase varies inside the controller tick
    phases = set()
    for s in range(40):
        rng = trace_rng(s, 0, 0)
        times, _, _, _ = gen_command(rng, commands[CommandKind.GRIPPER_SPEED], 1.0, duration=2.0)
        phases.add(round(times[0] % CONTROL_TICK, 6))
    assert len(phases) > 30


def test_speed_profiles_mirror_each_other(commands):
    spd = commands[CommandKind.GRIPPER_SPEED]
    u = np.linspace(0.01, 0.99, 99)
    fwd = np.array([_envelope(v, spd.envelope_skew, "rise_slow") for v in u])
    rev = np.array([_envelope(v, spd.envelope_skew, "rise_fast") for v in u])
    assert np.allclose(fwd, rev[::-1])
    # same value multiset means the two ramps are indistinguishable to any
    # size-marginal statistic
    assert np.allclose(np.sort(fwd), np.sort(rev))
    # asymmetry: the slow riser peaks late, its reversal early
    assert np.argmax(fwd) > len(u) // 2 > np.argmax(rev)


def reference_speed_burst(rng, template, t_start, duration, profile):
    """The speed burst as a per-packet loop over Python floats."""
    t0 = t_start + _uniform(rng, 0.0, CONTROL_TICK)
    n = max(2, int(round(duration * template.packet_rate)))
    spacing = 1.0 / template.packet_rate
    floor, peak = template.out_size_range
    amp = peak - floor
    times, sizes = [], []
    for i, jit in enumerate(rng.uniform(-template.jitter, template.jitter, n).tolist()):
        size = floor + amp * _envelope((i + 0.5) / n, template.envelope_skew, profile)
        size *= 1.0 + jit
        times.append(t0 + i * spacing)
        sizes.append(min(max(round(size), floor), peak))
    return times, [1] * n, sizes, t0 + (n - 1) * spacing


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.floats(0.0, 30.0),
    st.one_of(st.floats(0.0, 4.0), st.integers(1, 400).map(lambda n: n / 80.0)),
    st.sampled_from(PROFILES),
    st.sampled_from([0.03, 0.0, 0.5]),
)
def test_speed_burst_matches_per_packet_loop(seed, t_start, duration, profile, jitter):
    template = default_command_templates()[CommandKind.GRIPPER_SPEED]
    if jitter != template.jitter:
        template = dataclasses.replace(template, jitter=jitter)
    ours, loop = np.random.default_rng(seed), np.random.default_rng(seed)
    *got, end = gen_command(ours, template, t_start, duration=duration, profile=profile)
    *want, want_end = reference_speed_burst(loop, template, t_start, duration, profile)
    assert end == want_end
    for a, b in zip(got, want):
        assert np.asarray(a).tobytes() == np.array(b, dtype=np.asarray(a).dtype).tobytes()
    assert ours.integers(2**62) == loop.integers(2**62)


def test_gen_command_rejects_unknown_profile(commands):
    rng = trace_rng(4, 0, 0)
    with pytest.raises(errors.InvalidConfig):
        gen_command(rng, commands[CommandKind.GRIPPER_SPEED], 0.0, profile="sideways")


def test_command_template_validation():
    with pytest.raises(errors.InvalidConfig):
        CommandTemplate(CommandKind.CARTESIAN_MOVE, (150, 250), (200, 900), None, (0.015, 0.035))
    with pytest.raises(errors.InvalidConfig):
        CommandTemplate(CommandKind.GRIPPER_SPEED, (0, 190), None, 80.0, (1.9, 3.1))
    with pytest.raises(errors.InvalidConfig):
        CommandTemplate(CommandKind.GRIPPER_SPEED, (40, 190), None, -1.0, (1.9, 3.1))
    with pytest.raises(errors.InvalidConfig):
        CommandTemplate(CommandKind.GRIPPER_SPEED, (40, 190), None, 80.0, (0.0, 1.0))


# ---------------------------------------------------------------------------
# whole actions


def test_action_duration_bounds(dataset):
    for t in dataset.traces:
        assert 5.0 <= t.duration <= 30.0


def test_action_starts_at_zero_and_sorted(dataset):
    for t in dataset.traces:
        assert t.times[0] == 0.0
        assert np.all(np.diff(t.times) >= 0)


def test_keepalive_clearance(commands):
    # in an action with no commands the channel is pure keep-alive chatter,
    # so every same-direction gap must respect the 50 ms clearance
    quiet = ActionTemplate(label=ActionLabel.PRESS_KEY, script=())
    for s in range(6):
        tr = gen_action(trace_rng(11, s, 0), quiet, commands)
        for d in (1, -1):
            gaps = np.diff(tr.times[tr.dirs == d])
            assert gaps.min() >= KEEPALIVE_CLEARANCE - 1e-5


def test_max_two_same_direction_packets_per_bin(dataset):
    # the clearance rule keeps signed 10 ms bins interpretable
    for t in dataset.traces:
        for d in (1, -1):
            tt = t.times[t.dirs == d]
            bins = np.floor(tt / CONTROL_TICK).astype(int)
            _, counts = np.unique(bins, return_counts=True)
            assert counts.max() <= 3


def test_dataset_shape_and_labels():
    ds = gen_dataset(GenConfig(seed=5, samples_per_class=3))
    assert len(ds.traces) == 12
    by_label = {}
    for t in ds.traces:
        by_label.setdefault(t.label, []).append(t.trace_id)
    assert set(by_label) == set(ActionLabel)
    assert all(len(v) == 3 for v in by_label.values())
    assert ds.traces[0].trace_id == "pick_and_place_000"


def test_generated_captures_match_the_list_they_replace(tmp_path):
    """Index, slice, iteration and labels give the traces, in (class,
    sample) order, that generating each from its trace_rng gives: as
    generated, and as read back from the manifest they were saved to."""
    commands, actions = default_command_templates(), default_action_templates()
    want = [
        gen_action(trace_rng(11, c, i), actions[label], commands,
                   trace_id=f"{label.name.lower()}_{i:03d}")
        for c, label in enumerate(ActionLabel)
        for i in range(3)
    ]
    generated = gen_dataset(GenConfig(seed=11, samples_per_class=3)).traces
    saved = load_dataset(save_dataset(generated, tmp_path)).traces

    def same(got, expected):
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert (a.label, a.trace_id) == (b.label, b.trace_id)
            for x, y in ((a.times, b.times), (a.dirs, b.dirs), (a.sizes, b.sizes)):
                assert (x.dtype, x.tobytes()) == (y.dtype, y.tobytes())

    for captures in (generated, saved):
        assert isinstance(captures, Captures)
        assert len(captures) == 12
        same(list(captures), want)
        same(list(captures), want)  # a second pass makes the same traces
        for k in (0, 4, 11, -1, -12):
            same([captures[k]], [want[k]])
        for k in (12, -13):
            with pytest.raises(IndexError):
                captures[k]
        for cut in (slice(None, 4), slice(3, 9, 2), slice(None, None, -1), slice(10, 40),
                    slice(5, 5)):
            got = captures[cut]
            assert isinstance(got, list)
            same(got, want[cut])
        assert captures.labels == [t.label.value for t in want]


def test_regeneration_is_byte_identical():
    a = gen_dataset(GenConfig(seed=42, samples_per_class=4))
    b = gen_dataset(GenConfig(seed=42, samples_per_class=4))
    for x, y in zip(a.traces, b.traces):
        assert np.array_equal(x.times, y.times)
        assert np.array_equal(x.dirs, y.dirs)
        assert np.array_equal(x.sizes, y.sizes)


# sha256 of every trace's dtype strings and array bytes (times, dirs, sizes),
# and of every trace's CSV bytes, at 50 per class; recorded before
# generation and the writer moved to numpy
DATASET_SHA256 = {
    42: ("b99a517a5bbc08c0ae17042d07c635e228636df1ad749f1b87012ee44924958a",
         "fc056390928316302d5bee8b20b547a4cee72514ad8c9b1f25040cb931e40304"),
    7: ("a978acc942b6032a2a0a64324cd7ce8e04a4f77b15ca5e2de76696c2b4c954d6",
        "aa7ed69b4c462e4e8df7efceba601a78f7cdc38b83771abba32292b6f802dfb8"),
}


@pytest.mark.parametrize("seed", sorted(DATASET_SHA256))
def test_dataset_pinned(seed):
    arrays, csv = hashlib.sha256(), hashlib.sha256()
    for tr in gen_dataset(GenConfig(seed=seed, samples_per_class=50)):
        for a in (tr.times, tr.dirs, tr.sizes):
            arrays.update(a.dtype.str.encode())
            arrays.update(a.tobytes())
        csv.update(write_trace_csv(tr))
    assert (arrays.hexdigest(), csv.hexdigest()) == DATASET_SHA256[seed]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.floats(-1e3, 1e3),
    st.one_of(st.just(0.0), st.floats(0.0, 2e3)),  # Generator.uniform refuses hi < lo
    st.integers(1, 20),
)
def test_uniform_matches_generator_uniform(seed, lo, width, n):
    hi = lo + width
    ours, numpys, batch = (np.random.default_rng(seed) for _ in range(3))
    got = np.array([_uniform(ours, lo, hi) for _ in range(n)])
    want = np.array([numpys.uniform(lo, hi) for _ in range(n)])
    assert got.tobytes() == want.tobytes()
    # a speed burst draws its jitter at once: the same doubles, in the same order
    assert batch.uniform(lo, hi, n).tobytes() == want.tobytes()
    # and each leaves the stream at the same place
    assert ours.integers(2**62) == numpys.integers(2**62) == batch.integers(2**62)


# spans (hi - lo + 1) on both sides of each of the source's cases: one value
# draws nothing, up to 2**32 take Lemire's rule on a 32-bit half (2**32 the
# half as it is; 3 * 2**30 redraws a quarter of its halves), and wider ones
# go to Generator.integers
SPANS = (1, 2, 121, 1500, 2**31, 3 * 2**30, 2**32 - 1, 2**32, 2**32 + 5, 2**40)
DOUBLES = {
    "random": lambda g: g.random(),
    "normal": lambda g: g.normal(),
    "exponential": lambda g: g.exponential(),
    "uniform": lambda g: g.uniform(size=5),
}


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.lists(st.sampled_from(SPANS), max_size=2),
    st.lists(
        st.one_of(
            st.tuples(st.integers(-(2**40), 2**40), st.sampled_from(SPANS)),
            st.sampled_from(sorted(DOUBLES)),
        ),
        max_size=30,
    ),
)
def test_integer_source_matches_generator_integers(seed, before, draws):
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    for n in before:  # may leave the upper half of a word buffered
        assert ours.integers(n) == numpys.integers(n)
    with _integer_source(ours) as integer:
        for draw in draws:
            if isinstance(draw, tuple):
                lo, n = draw
                assert integer(lo, lo + n - 1) == int(numpys.integers(lo, lo + n))
            else:
                got, want = DOUBLES[draw](ours), DOUBLES[draw](numpys)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    # the buffered half is written back: the two generators are one stream
    assert ours.bit_generator.state == numpys.bit_generator.state


@pytest.mark.parametrize(
    "lo, hi", [(5, 4), (5, -3), (2**63 - 3, 2**63 + 117), (-(2**63) - 1, 0)],
    ids=["empty", "reversed", "above_int64", "below_int64"],
)
def test_integer_source_raises_what_generator_integers_raises(lo, hi):
    ours, numpys = np.random.default_rng(3), np.random.default_rng(3)
    with pytest.raises(ValueError) as want:
        numpys.integers(121)  # buffers the upper half of a word
        numpys.integers(lo, hi + 1)
    with pytest.raises(ValueError, match=re.escape(str(want.value))):
        with _integer_source(ours) as integer:
            integer(0, 120)
            integer(lo, hi)
    # the buffered half is written back on the way out
    assert ours.bit_generator.state == numpys.bit_generator.state


class CountingGenerator(np.random.Generator):
    """A Generator that counts its ``integers`` calls."""

    calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return super().integers(*args, **kwargs)


@pytest.mark.parametrize("bits, numpy_calls", [(np.random.PCG64, 1), (np.random.MT19937, 4)])
def test_integer_source_calls_generator_integers_only_off_pcg64(bits, numpy_calls):
    # MT19937 buffers no 32-bit half, so every draw goes to Generator.integers;
    # on PCG64 only the span wider than 2**32 does
    spans = [(40, 160), (-7, -7), (0, 2**32 - 1), (0, 2**40)]
    ours, numpys = CountingGenerator(bits(8)), np.random.Generator(bits(8))
    with _integer_source(ours) as integer:
        assert [integer(lo, hi) for lo, hi in spans] == [
            int(numpys.integers(lo, hi + 1)) for lo, hi in spans
        ]
    assert ours.calls == numpy_calls
    # and each leaves the stream, any buffered half too, at the same place
    assert ours.integers(2**32, size=3).tolist() == numpys.integers(2**32, size=3).tolist()


def test_generation_with_a_buffered_half_matches_generator_integers(monkeypatch, commands):
    """gen_action and gen_command give the traces and leave the state that
    drawing every integer with Generator.integers gives."""
    actions = default_action_templates()

    def generate():
        out = []
        for c, label in enumerate(ActionLabel):
            rng = trace_rng(42, c, 3)
            rng.integers(121)  # leaves the upper half of a word buffered
            assert rng.bit_generator.state["has_uint32"] == 1
            tr = gen_action(rng, actions[label], commands)
            *columns, end = gen_command(rng, commands[CommandKind.GRIPPER_POSITION], 1.0)
            out.append(([tr.times, tr.dirs, tr.sizes, *columns, end], rng.bit_generator.state))
        return out

    ours = generate()

    @contextlib.contextmanager
    def generator_integers(rng):
        yield lambda lo, hi: int(rng.integers(lo, hi + 1))

    monkeypatch.setattr(synthgen, "_integer_source", generator_integers)
    for (got, got_state), (want, want_state) in zip(ours, generate(), strict=True):
        assert [np.asarray(a).tobytes() for a in got] == [np.asarray(b).tobytes() for b in want]
        assert got_state == want_state


WEIGHTS = st.one_of(
    st.floats(1e-300, 1e300),
    st.floats(0.01, 100.0),
    st.integers(1, 10),
    st.sampled_from([1.0, 0.5, 1 / 3, 5e-324, 1e308]),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**64 - 1), st.lists(WEIGHTS, min_size=1, max_size=6))
def test_choice_matches_generator_choice(seed, weights):
    if not np.isfinite(sum(weights)):
        return  # ScriptStep refuses these
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    want = int(numpys.choice(len(weights), p=np.array(weights) / sum(weights)))
    assert _choice(ours, tuple(weights)) == want
    assert ours.integers(2**62) == numpys.integers(2**62)


def test_choice_draw_on_a_cdf_step_takes_the_next_kind():
    """A draw equal to a cdf value lands right of it, as searchsorted's
    side="right" puts it; no seed is known to draw such a double."""

    class Draws:
        def random(self):
            return 0.5

    cdf = np.cumsum([0.25, 0.25, 0.5])
    assert _choice(Draws(), (1.0, 1.0, 2.0)) == int(cdf.searchsorted(0.5, side="right")) == 2


@pytest.mark.parametrize(
    "weights", [(), (0.0,), (1.0, -1.0), (math.nan,), (math.inf, 1.0), (1e308, 1e308)]
)
def test_script_step_refuses_weights_choice_cannot_draw(weights):
    kinds = tuple((CommandKind.CARTESIAN_MOVE, w) for w in weights)
    with pytest.raises(errors.InvalidConfig, match="weights"):
        ScriptStep(kinds, (1, 1), (1.0, 2.0))


# t * 1e6 is exactly m + 0.5 for each of these, so rounding breaks a tie
TIES = [(m + 0.5) / 1e6 for m in (0, 1, 2, 3, 12, 4321, 20_000_000)]


def reference_packet_columns(rows):
    """gen_action's last step as a tuple sort: clamp at 0, quantize, sort."""
    packets = sorted((round(max(0.0, t) * 1e6) / 1e6, d, s) for t, d, s in rows)
    return tuple(np.array(column) for column in zip(*packets))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(
                st.floats(-1.0, 30.0),
                st.sampled_from([-0.0, 0.0, -1e-7, -4e-7, -6e-7, 1.0, *TIES]),
            ),
            st.sampled_from([1, -1]),
            st.one_of(st.integers(1, 3), st.integers(1, MTU)),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_packet_columns_match_tuple_sort(rows):
    got = _packet_columns(*zip(*rows))
    want = reference_packet_columns(rows)
    assert [(a.dtype, a.tobytes()) for a in got] == [(a.dtype, a.tobytes()) for a in want]


def test_traces_independent_of_generation_order():
    # sample 3 of class 2 is the same whether or not earlier samples exist
    cfg = GenConfig(seed=9, samples_per_class=4)
    full = gen_dataset(cfg)
    label = list(ActionLabel)[2]
    lone = gen_action(
        trace_rng(9, 2, 3), default_action_templates()[label], default_command_templates(),
        trace_id="x",
    )
    ref = [t for t in full.traces if t.label == label][3]
    assert np.array_equal(ref.times, lone.times)
    assert np.array_equal(ref.sizes, lone.sizes)


def test_different_seeds_differ():
    a = gen_dataset(GenConfig(seed=1, samples_per_class=1))
    b = gen_dataset(GenConfig(seed=2, samples_per_class=1))
    assert any(
        len(x.times) != len(y.times) or not np.array_equal(x.sizes, y.sizes)
        for x, y in zip(a.traces, b.traces)
    )


def test_gen_config_validation():
    for bad in ({"samples_per_class": 0}, {"seed": 1.5}, {"samples_per_class": 2.0},
                {"seed": "3"}, {"seed": True}, {"samples_per_class": True}):
        with pytest.raises(errors.InvalidConfig):
            GenConfig(**bad)


def test_samples_per_class_bounded():
    GenConfig(samples_per_class=MAX_SAMPLES_PER_CLASS)
    ExperimentConfig(samples_per_class=MAX_SAMPLES_PER_CLASS)
    for make in (GenConfig, ExperimentConfig):
        with pytest.raises(errors.InvalidConfig, match="samples_per_class .*10000"):
            make(samples_per_class=MAX_SAMPLES_PER_CLASS + 1)
        with pytest.raises(errors.InvalidConfig, match="samples_per_class"):
            make(samples_per_class=10**12)


def test_script_step_helper():
    s = step(CommandKind.CARTESIAN_MOVE, (1, 2), (0.5, 1.0), profile="rise_fast")
    assert s.kinds == ((CommandKind.CARTESIAN_MOVE, 1.0),)
    assert s.profile == "rise_fast"
    assert s.scalable


# ---------------------------------------------------------------------------
# nominal kernels


def test_kernel_bank_has_all_kinds():
    bank = default_kernel_bank()
    for kind in CommandKind:
        k = bank.kernel_for(kind)
        assert k.bin_width == 0.01


@pytest.mark.parametrize("bin_width", [1e-9, 5e-324])
def test_kernel_bank_refuses_too_many_bins_before_allocating(bin_width):
    with pytest.raises(errors.OutOfRange, match="kernel bins"):
        default_kernel_bank(bin_width=bin_width)


def test_cartesian_kernel_is_feedback_sized():
    bank = default_kernel_bank()
    k = bank.kernel_for(CommandKind.CARTESIAN_MOVE)
    assert k.values.shape == (1,)
    assert k.values[0] == -650.0  # mean feedback size, inbound sign


def test_speed_kernel_matches_slow_rise_shape():
    bank = default_kernel_bank()
    k = bank.kernel_for(CommandKind.GRIPPER_SPEED)
    v = k.values
    assert len(v) == 260
    assert v.min() > 0
    # slow riser: peak in the second half of the span
    assert np.argmax(v) > len(v) // 2


def test_position_kernel_level():
    bank = default_kernel_bank()
    k = bank.kernel_for(CommandKind.GRIPPER_POSITION)
    # 36/s * 120 B out minus 9/s * 120 B in, per 10 ms bin
    assert np.allclose(k.values, (36.0 * 120 - 9.0 * 120) * 0.01)


# ---------------------------------------------------------------------------
# generator/detector loop closure: scripted actuation counts are recovered
# by the detection pipeline (checked end to end in the acceptance suite; a
# smaller smoke version here)


def test_speed_cluster_counts_smoke():
    from robofp.features import SigprocConfig, command_clusters

    ds = gen_dataset(GenConfig(seed=42, samples_per_class=10))
    bank = default_kernel_bank()
    cfg = SigprocConfig()
    expect = {
        ActionLabel.PICK_AND_PLACE: {2, 3},
        ActionLabel.POUR_WATER: {2, 3, 4},
        ActionLabel.TURN_ON_SWITCH: {0, 1},
        ActionLabel.PRESS_KEY: {0, 1},
    }
    for t in ds.traces:
        _, cs = command_clusters(t, CommandKind.GRIPPER_SPEED, bank, cfg)
        assert len(cs) in expect[t.label], t.trace_id
