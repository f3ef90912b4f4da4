"""Deterministic synthetic capture generator for the four robot actions.

Traffic model
-------------
Operator-side software drives the arm through three command channels, each
with its own wire signature:

* ``CartesianMove`` — a single command packet (150-250 B out) answered by a
  strictly larger feedback packet (400-900 B in) after a controller
  round-trip.  Command dispatch is snapped to a 10 ms controller tick.
* ``GripperPosition`` — a sub-second burst of position updates, sizes just
  over 100 B in both directions.
* ``GripperSpeed`` — a sustained burst at 80 packets/s whose sizes follow a
  half-sine envelope (ramp up while the fingers accelerate, ramp down as
  they settle).  Burst duration encodes how long the gripper is actuated.

A low-rate keep-alive dialogue (40-80 B, about 2/s each way) runs whenever
the channel is otherwise idle.  Keep-alives are suppressed within 50 ms of
other same-direction traffic, which keeps any 10 ms window at no more than
two same-direction packets.

Actions are scripted as ordered command sequences with log-uniform gaps:
pick-and-place and pour-water actuate the gripper several times
(grip ... release), turn-on-switch and press-key close the gripper once up
front and then tap with Cartesian moves.  Pick-and-place closes the fingers
slowly and lets go quickly ("rise_slow" ramp); pour-water grabs fast and
eases off ("rise_fast", the time-reversed ramp); press-key taps more and
faster than turn-on-switch.

Each command's packets are three columns (times, directions, sizes):
plain lists for cartesian moves and position bursts, arrays for speed
bursts.  ``gen_action`` joins the columns of its commands, adds the
keep-alives and anchors, and ``_packet_columns`` sorts them once into a
``Trace``.

Determinism: every trace is generated from an independent generator seeded
with (seed, class_index, sample_index), so datasets are byte-identical for
a given seed and per-trace output does not depend on generation order.
``gen_dataset`` relies on that: its ``trace.Captures`` makes each trace
when a pass reaches it and keeps none, so writing a dataset holds one trace
at a time, and every pass gives the same traces.
Every draw keeps its place in the stream: single uniform draws go through
``_uniform`` and a step's kind through ``_choice``, which compute what
``Generator.uniform`` and ``Generator.choice`` compute from the same one
double, and only a speed burst's jitter, which nothing else interleaves, is
drawn at once.  Bounded integers come from one ``_integer_source`` per
capture, which gives what ``int(rng.integers(lo, hi + 1))`` gives by
numpy's own rule on PCG64's raw words (Lemire's multiply-and-reject on the
buffered 32-bit halves) and sends any other bit generator, an empty span or
one wider than 2**32 to ``rng.integers``.  A speed burst's sizes repeat the
per-packet arithmetic element for element: its envelope is computed with
``math`` once per distinct burst shape (``_speed_envelope``), and the
jitter, rounding and clamping are the same IEEE operations on arrays.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidConfig, OutOfRange, check_field_types
from .sigproc import MAX_BINS, CommandKind, Kernel, KernelBank
from .trace import ActionLabel, Captures, Dataset, Trace, quantize_time

CONTROL_TICK = 0.01  # command dispatch granularity, seconds
KEEPALIVE_CLEARANCE = 0.05  # min spacing of a keep-alive to same-direction traffic
MAX_CONTENT_END = 28.0  # scripted content must finish by here
MAX_DURATION = 29.3
MIN_DURATION = 5.2


@dataclass(frozen=True)
class CommandTemplate:
    """Wire-level parameters for one command kind."""

    kind: CommandKind
    out_size_range: tuple[int, int]
    feedback_size_range: tuple[int, int] | None
    packet_rate: float | None
    duration_range: tuple[float, float]
    jitter: float = 0.0
    envelope_skew: float = 1.3  # arch asymmetry exponent (speed bursts)

    def __post_init__(self):
        lo, hi = self.out_size_range
        if not 1 <= lo <= hi <= 1500:
            raise InvalidConfig(f"bad out_size_range {self.out_size_range}")
        if self.feedback_size_range is not None:
            flo, fhi = self.feedback_size_range
            if not 1 <= flo <= fhi <= 1500:
                raise InvalidConfig(f"bad feedback_size_range {self.feedback_size_range}")
            if self.kind == CommandKind.CARTESIAN_MOVE and flo <= hi:
                raise InvalidConfig("cartesian feedback must be strictly larger than commands")
        dlo, dhi = self.duration_range
        if not 0 < dlo <= dhi:
            raise InvalidConfig(f"bad duration_range {self.duration_range}")
        if self.packet_rate is not None and self.packet_rate <= 0:
            raise InvalidConfig("packet_rate must be positive")


PROFILES = ("rise_slow", "rise_fast")


@dataclass(frozen=True)
class ScriptStep:
    """One stage of an action: n commands of a kind, gaps after each."""

    kinds: tuple[tuple[CommandKind, float], ...]  # (kind, weight) choices
    count_range: tuple[int, int]
    gap_range: tuple[float, float]
    duration_range: tuple[float, float] | None = None  # overrides the template
    probability: float = 1.0
    scalable: bool = True  # gap may be rescaled to fit the duration budget
    profile: str | None = None  # speed-burst ramp direction; None picks randomly

    def __post_init__(self):
        weights = [w for _, w in self.kinds]
        # Generator.choice refused these at draw time; _choice needs a cdf
        if not weights or not all(0 < w < math.inf for w in weights) or sum(weights) == math.inf:
            raise InvalidConfig(
                f"kind weights must be positive and finite, with a finite sum, got {weights}"
            )


def step(kind, count, gap, duration=None, probability=1.0, scalable=True, profile=None):
    return ScriptStep(((kind, 1.0),), count, gap, duration, probability, scalable, profile)


@dataclass(frozen=True)
class ActionTemplate:
    label: ActionLabel
    script: tuple[ScriptStep, ...]
    start_range: tuple[float, float] = (0.4, 0.9)
    tail_range: tuple[float, float] = (0.8, 3.0)
    keepalive_rate_range: tuple[float, float] = (1.5, 3.6)
    keepalive_size_range: tuple[int, int] = (40, 160)


def default_command_templates() -> dict[CommandKind, CommandTemplate]:
    return {
        CommandKind.CARTESIAN_MOVE: CommandTemplate(
            kind=CommandKind.CARTESIAN_MOVE,
            out_size_range=(150, 250),
            feedback_size_range=(400, 900),
            packet_rate=None,
            duration_range=(0.015, 0.035),  # command-to-feedback delay
        ),
        CommandKind.GRIPPER_POSITION: CommandTemplate(
            kind=CommandKind.GRIPPER_POSITION,
            out_size_range=(100, 140),
            feedback_size_range=(100, 140),
            packet_rate=36.0,
            duration_range=(0.55, 0.95),
        ),
        CommandKind.GRIPPER_SPEED: CommandTemplate(
            kind=CommandKind.GRIPPER_SPEED,
            out_size_range=(40, 190),  # envelope floor .. peak
            feedback_size_range=None,
            packet_rate=80.0,
            duration_range=(1.9, 3.1),
            jitter=0.03,
        ),
    }


def default_action_templates() -> dict[ActionLabel, ActionTemplate]:
    CART = CommandKind.CARTESIAN_MOVE
    POS = CommandKind.GRIPPER_POSITION
    SPD = CommandKind.GRIPPER_SPEED
    fluid = (1.1, 2.4)
    close_choice = ((SPD, 0.5), (POS, 0.5))
    # pick-and-place and pour-water draw grip bursts from the same duration
    # range; what differs is the actuation ramp (firm slow close vs quick
    # grab with a gentle release), i.e. the shape, not the length
    grip = (2.05, 3.0)
    return {
        ActionLabel.PICK_AND_PLACE: ActionTemplate(
            label=ActionLabel.PICK_AND_PLACE,
            script=(
                step(CART, (2, 3), fluid),  # approach
                step(POS, (1, 1), (1.2, 2.2), probability=0.45),  # pre-grip adjust
                step(SPD, (1, 1), (1.6, 3.0), duration=grip, profile="rise_slow"),
                step(CART, (2, 3), fluid),  # transport
                step(SPD, (1, 1), (1.6, 3.0), duration=grip, profile="rise_slow"),
                step(SPD, (1, 1), (1.6, 3.0), duration=grip, profile="rise_slow",
                     probability=0.5),
                step(CART, (1, 2), (1.0, 2.0)),  # retreat
            ),
            tail_range=(0.8, 5.0),
        ),
        ActionLabel.POUR_WATER: ActionTemplate(
            label=ActionLabel.POUR_WATER,
            script=(
                step(CART, (1, 2), fluid),  # approach
                step(POS, (1, 1), (1.2, 2.2), probability=0.45),
                step(SPD, (1, 1), (1.6, 3.0), duration=grip, profile="rise_fast"),
                step(CART, (1, 2), fluid),  # move over target
                step(CART, (1, 3), (1.0, 1.9)),  # tilt sequence
                step(SPD, (1, 3), (1.6, 3.0), duration=grip, profile="rise_fast"),
                step(CART, (1, 1), (1.0, 2.0)),
            ),
        ),
        ActionLabel.TURN_ON_SWITCH: ActionTemplate(
            label=ActionLabel.TURN_ON_SWITCH,
            script=(
                ScriptStep(close_choice, (1, 1), (1.3, 2.6), (2.05, 2.65)),  # close
                step(CART, (1, 2), (1.3, 2.6)),  # approach
                step(CART, (2, 3), (0.32, 0.78), scalable=False),  # taps
                step(CART, (1, 1), (1.2, 2.4)),  # retreat
            ),
            tail_range=(1.0, 13.0),  # operator often idles before stopping capture
        ),
        ActionLabel.PRESS_KEY: ActionTemplate(
            label=ActionLabel.PRESS_KEY,
            script=(
                ScriptStep(close_choice, (1, 1), (1.3, 2.6), (2.05, 2.65)),  # close
                step(CART, (1, 2), (1.3, 2.6)),  # approach
                step(CART, (5, 7), (0.28, 0.68), scalable=False),  # keystrokes
                step(CART, (1, 1), (1.2, 2.4)),  # retreat
            ),
            tail_range=(1.0, 13.0),
        ),
    }


# One `robofp evaluate` must finish within an hour and 8 GB on a 2-vCPU box.
# Measured there (seed 42): 1.65 s and 43 MB peak RSS at 50 samples per
# class, 11.2 s and 56 MB at 200, 79 s and 102 MB at 800.  Time grows as
# about n**1.4 and memory by about 20 KB a trace, so 10,000 per class
# (40,000 traces) extrapolates to about 46 minutes and under 1 GB.
MAX_SAMPLES_PER_CLASS = 10_000


@dataclass
class GenConfig:
    """``samples_per_class`` traces of each action from ``seed``; at most
    MAX_SAMPLES_PER_CLASS (10,000) per class, what one evaluate runs in an
    hour on a 2-vCPU box."""

    seed: int = 42
    samples_per_class: int = 50

    def __post_init__(self):
        check_field_types(self)
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")
        if not 1 <= self.samples_per_class <= MAX_SAMPLES_PER_CLASS:
            raise InvalidConfig(
                f"samples_per_class must lie in [1, {MAX_SAMPLES_PER_CLASS}], "
                f"got {self.samples_per_class}"
            )


@contextlib.contextmanager
def _integer_source(rng: np.random.Generator):
    """Yield ``integer(lo, hi)``, which returns ``int(rng.integers(lo, hi + 1))``
    draw for draw and bit for bit, at about a third of its cost.

    For a PCG64 generator it applies numpy's rule to ``random_raw()`` words:
    a 32-bit draw takes the upper half that PCG64 buffered (``has_uint32``,
    ``uinteger``), else the lower half of a new word, buffering the upper;
    n values take Lemire's rule, drawing again while the low 32 bits of
    ``x * n`` lie below ``2**32 % n``, and give ``lo + (x * n >> 32)``
    (``lo + x`` for n = 2**32, as numpy's special case gives); one value
    takes no draw.  Every other draw takes whole words and leaves the
    buffer alone, so draws may interleave; the buffer is read from
    ``bit_generator.state`` on entry and written back on exit.  Other bit
    generators, empty or wider spans and bounds outside int64 go to
    ``rng.integers`` itself."""
    bits = rng.bit_generator
    if type(bits) is not np.random.PCG64:
        yield lambda lo, hi: int(rng.integers(lo, hi + 1))
        return
    raw = bits.random_raw
    state = bits.state
    has, half = state["has_uint32"], state["uinteger"]

    def integer(lo: int, hi: int) -> int:
        nonlocal has, half
        n = hi - lo + 1
        if not (0 < n <= 2**32 and -(2**63) <= lo and hi < 2**63):
            return int(rng.integers(lo, hi + 1))
        if n == 1:
            return lo
        while True:
            if has:
                x, has = half, 0
            else:
                word = raw()
                x, half, has = word & 0xFFFFFFFF, word >> 32, 1
            m = x * n
            low = m & 0xFFFFFFFF
            if low >= n or low >= 2**32 % n:
                return lo + (m >> 32)

    try:
        yield integer
    finally:
        state = bits.state
        state["has_uint32"], state["uinteger"] = has, half
        bits.state = state


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """``rng.uniform(lo, hi)`` for scalars, draw for draw and bit for bit
    (numpy computes ``low + range * next_double``), at a third of the cost."""
    return lo + (hi - lo) * rng.random()


def _choice(rng: np.random.Generator, weights: tuple[float, ...]) -> int:
    """``rng.choice(len(weights), p=np.array(weights) / sum(weights))``, draw
    for draw and bit for bit, without its per-call cost: numpy takes one
    double and searches it (side="right") in ``cumsum(p) / cumsum(p)[-1]``;
    a cumulative sum adds left to right, as ``accumulate`` does."""
    total = sum(weights)
    cdf = list(itertools.accumulate(w / total for w in weights))
    return bisect.bisect_right([c / cdf[-1] for c in cdf], rng.random())


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(np.exp(_uniform(rng, np.log(lo), np.log(hi))))


def _snap_tick(t: float) -> float:
    return round(t / CONTROL_TICK) * CONTROL_TICK


def _truncated_normal(rng, mean, sd, lo, hi):
    for _ in range(64):
        v = rng.normal(mean, sd)
        if lo <= v <= hi:
            return v
    return float(np.clip(v, lo, hi))


def _envelope(u: float, skew: float, profile: str) -> float:
    """Asymmetric half-sine ramp; rise_fast is the time reversal of
    rise_slow, so both spend the same time at every actuation level."""
    if profile == "rise_fast":
        u = 1.0 - u
    return math.sin(math.pi * u**skew)


@functools.lru_cache(maxsize=1024)
def _speed_envelope(n: int, skew: float, profile: str, floor: int, amp: int) -> np.ndarray:
    """The size envelope of an n-packet speed burst, read-only: packet i's
    ``floor + amp * _envelope((i + 0.5) / n, skew, profile)``.  It stays in
    ``math``: numpy's sin and power may take SIMD loops that round otherwise."""
    base = np.array([floor + amp * _envelope((i + 0.5) / n, skew, profile) for i in range(n)])
    base.flags.writeable = False
    return base


def gen_command(
    rng: np.random.Generator,
    template: CommandTemplate,
    t_start: float,
    duration: float | None = None,
    profile: str = "rise_slow",
) -> tuple[Sequence[float], Sequence[int], Sequence[int], float]:
    """Emit one command's packets from t_start as the columns (times, dirs,
    sizes) in emission order, lists or (for a speed burst) arrays; returns
    them and the command's end time."""
    with _integer_source(rng) as integer:
        return _command(rng, integer, template, t_start, duration, profile)


def _command(rng, integer, template, t_start, duration, profile):
    """``gen_command`` drawing its integers from ``integer``."""
    kind = template.kind
    if duration is None:
        duration = _uniform(rng, *template.duration_range)
    if profile not in PROFILES:
        raise InvalidConfig(f"unknown speed profile {profile!r}")

    if kind == CommandKind.CARTESIAN_MOVE:
        t0 = _snap_tick(t_start)
        cmd = integer(*template.out_size_range)
        flo, fhi = template.feedback_size_range
        mid = 0.5 * (flo + fhi)
        fb = int(round(_truncated_normal(rng, mid + 0.3 * (fhi - mid), (fhi - flo) / 5.5, flo, fhi)))
        t_fb = t0 + duration
        return [t0, t_fb], [1, -1], [cmd, fb], t_fb

    if kind == CommandKind.GRIPPER_POSITION:
        times, dirs, sizes = [], [], []
        t0 = _snap_tick(t_start)
        n = max(2, int(round(duration * template.packet_rate)))
        spacing = 1.0 / template.packet_rate
        lo, hi = template.out_size_range
        flo, fhi = template.feedback_size_range
        end = t0
        for i in range(n):
            t = t0 + i * spacing
            times.append(t)
            dirs.append(1)
            sizes.append(integer(lo, hi))
            end = t
            if i % 4 == 3:  # every fourth update is acknowledged
                ta = t + _uniform(rng, 0.004, 0.008)
                times.append(ta)
                dirs.append(-1)
                sizes.append(integer(flo, fhi))
                end = max(end, ta)
        return times, dirs, sizes, end

    if kind == CommandKind.GRIPPER_SPEED:
        # start phase deliberately not tick-aligned: the envelope, not the
        # bin phasing, is the signature
        t0 = t_start + _uniform(rng, 0.0, CONTROL_TICK)
        n = max(2, int(round(duration * template.packet_rate)))
        spacing = 1.0 / template.packet_rate
        floor, peak = template.out_size_range
        amp = peak - floor
        # nothing else draws in the burst, so n draws at once are the same
        # stream; np.rint rounds half to even, as round() does
        jitter = rng.uniform(-template.jitter, template.jitter, n)
        size = _speed_envelope(n, template.envelope_skew, profile, floor, amp) * (1.0 + jitter)
        sizes = np.clip(np.rint(size), floor, peak).astype(np.int64)
        times = t0 + np.arange(n) * spacing
        return times, np.ones(n, dtype=np.int64), sizes, t0 + (n - 1) * spacing

    raise InvalidConfig(f"unknown command kind {kind!r}")


def _plan_script(rng, integer, action: ActionTemplate, commands):
    """Draw the command sequence: (kind, duration, gap after, scalable, profile)."""
    plan = []
    for s in action.script:
        if s.probability < 1.0 and rng.random() >= s.probability:
            continue
        kinds, weights = zip(*s.kinds)
        kind = kinds[_choice(rng, weights)]
        count = integer(*s.count_range)
        for _ in range(count):
            dur_range = s.duration_range or commands[kind].duration_range
            dur = _uniform(rng, *dur_range)
            gap = _log_uniform(rng, *s.gap_range)
            profile = s.profile or PROFILES[integer(0, 1)]
            plan.append((kind, dur, gap, s.scalable, profile))
    return plan


def gen_action(
    rng: np.random.Generator,
    action: ActionTemplate,
    commands: dict[CommandKind, CommandTemplate],
    trace_id: str | None = None,
) -> Trace:
    """Generate one labeled action capture (duration within [5, 30] s)."""
    with _integer_source(rng) as integer:
        packets = _action_packets(rng, integer, action, commands)
    return Trace(*_packet_columns(*packets), label=action.label, trace_id=trace_id)


def _action_packets(rng, integer, action: ActionTemplate, commands):
    """``gen_action``'s packet columns, unsorted, drawing integers from ``integer``."""
    plan = _plan_script(rng, integer, action, commands)
    t_start = _uniform(rng, *action.start_range)

    # fit the scripted content into the duration budget by shrinking the
    # fluid gaps; tap rhythms are left alone
    fixed = t_start + sum(d for _, d, _, _, _ in plan)
    gap_total = sum(g for _, _, g, _, _ in plan[:-1]) if len(plan) > 1 else 0.0
    scalable_total = sum(g for _, _, g, sc, _ in plan[:-1] if sc)
    budget = MAX_CONTENT_END - fixed - (gap_total - scalable_total)
    scale = 1.0
    if scalable_total > 0 and scalable_total > budget:
        scale = max(0.3, budget / scalable_total)

    no_packets = np.zeros(0, dtype=np.int64)
    chunks = [(no_packets.astype(np.float64), no_packets, no_packets)]  # columns per command
    t = t_start
    last_end = t_start
    for kind, dur, gap, scalable, profile in plan:
        *packets, end = _command(rng, integer, commands[kind], t, dur, profile)
        chunks.append(packets)
        last_end = max(last_end, end)
        t = end + (gap * scale if scalable else gap)
    cmd_times, cmd_dirs, cmd_sizes = map(np.concatenate, zip(*chunks))

    tail = _uniform(rng, *action.tail_range)
    duration = min(MAX_DURATION, last_end + tail)
    if duration < MIN_DURATION:
        duration = MIN_DURATION + _uniform(rng, 0.0, 0.8)

    # keep-alives fill idle stretches in both directions
    ka_rate = _uniform(rng, *action.keepalive_rate_range)
    ka_lo, ka_hi = action.keepalive_size_range
    out_times = np.sort(np.append(cmd_times[cmd_dirs == 1], 0.0)).tolist()
    in_times = np.sort(np.append(cmd_times[cmd_dirs == -1], duration)).tolist()
    times, dirs, sizes = [], [], []
    for direction, occupied in ((1, out_times), (-1, in_times)):
        t = 0.0
        prev = -1.0
        while True:
            t += rng.exponential(1.0 / ka_rate)
            if t >= duration:
                break
            j = bisect.bisect_left(occupied, t)
            near = min(
                t - occupied[j - 1] if j > 0 else math.inf,
                occupied[j] - t if j < len(occupied) else math.inf,
                t - prev if prev >= 0 else math.inf,
            )
            if near < KEEPALIVE_CLEARANCE:
                continue
            times.append(t)
            dirs.append(direction)
            sizes.append(integer(ka_lo, ka_hi))
            prev = t

    # anchors pin the capture's extent: session chatter at t=0 and at the end
    times += [0.0, duration]
    dirs += [1, -1]
    sizes += [integer(ka_lo, ka_hi), integer(ka_lo, ka_hi)]

    return (
        np.concatenate((cmd_times, times)),
        np.concatenate((cmd_dirs, dirs)),
        np.concatenate((cmd_sizes, sizes)),
    )


def _packet_columns(
    times: Sequence[float], dirs: Sequence[int], sizes: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Times clamped at 0 and quantized, directions and sizes, in the order
    that sorting the (time, dir, size) tuples gives."""
    times, dirs, sizes = np.asarray(times), np.asarray(dirs), np.asarray(sizes)
    # np.where gives +0.0 for -0.0, as max(0.0, t) does; np.maximum need not
    times = quantize_time(np.where(times > 0.0, times, 0.0))
    order = np.lexsort((sizes, dirs, times))
    return times[order], dirs[order], sizes[order]


def trace_rng(seed: int, class_index: int, sample_index: int) -> np.random.Generator:
    """Per-trace generator; the (seed, class, sample) derivation is the
    determinism contract, so traces are independent of generation order."""
    return np.random.default_rng([seed, class_index, sample_index])


def gen_dataset(config: GenConfig) -> Dataset:
    """The config's captures in (class, sample) order, each made from its own
    ``trace_rng`` when a pass or an index reaches it (``Captures``): writing
    or featurizing them holds one at a time, and every pass makes the same
    traces."""
    commands, actions = default_command_templates(), default_action_templates()
    per_class = config.samples_per_class
    classes = list(ActionLabel)

    def make(index: int) -> Trace:
        c, i = divmod(index, per_class)
        label = classes[c]
        rng = trace_rng(config.seed, c, i)
        return gen_action(rng, actions[label], commands, trace_id=f"{label.name.lower()}_{i:03d}")

    return Dataset(Captures([label.value for label in classes for _ in range(per_class)], make))


# ---------------------------------------------------------------------------
# nominal kernels derived from the templates


SPEED_KERNEL_SPAN = 2.6  # covers the long end of the grip-burst range
POSITION_KERNEL_SPAN = 0.75


def default_kernel_bank(bin_width: float = 0.01) -> KernelBank:
    """Expected binned waveform of each command kind at nominal parameters."""
    # the speed kernel is the longest; refuse it before allocating
    if bin_width > 0 and SPEED_KERNEL_SPAN / bin_width > MAX_BINS:
        raise OutOfRange(f"bin width {bin_width} needs more than {MAX_BINS} kernel bins")
    commands = default_command_templates()
    kernels = []

    cart = commands[CommandKind.CARTESIAN_MOVE]
    flo, fhi = cart.feedback_size_range
    kernels.append(
        Kernel(
            kind=CommandKind.CARTESIAN_MOVE,
            bin_width=bin_width,
            values=np.array([-0.5 * (flo + fhi)]),
            source_id="template:cartesian_feedback",
        )
    )

    pos = commands[CommandKind.GRIPPER_POSITION]
    n_pos = max(2, int(round(POSITION_KERNEL_SPAN / bin_width)))
    out_mean = 0.5 * sum(pos.out_size_range)
    in_mean = 0.5 * sum(pos.feedback_size_range)
    # every fourth update is answered, so the expected signed rate is
    # rate*out - rate/4*in bytes per second
    level = (pos.packet_rate * out_mean - pos.packet_rate / 4.0 * in_mean) * bin_width
    kernels.append(
        Kernel(
            kind=CommandKind.GRIPPER_POSITION,
            bin_width=bin_width,
            values=np.full(n_pos, level),
            source_id="template:position_burst",
        )
    )

    spd = commands[CommandKind.GRIPPER_SPEED]
    n_spd = max(2, int(round(SPEED_KERNEL_SPAN / bin_width)))
    tt = (np.arange(n_spd) + 0.5) * bin_width
    floor, peak = spd.out_size_range
    # the slow-rise ramp is canonical; a reversed-ramp burst still correlates
    # above threshold but peaks visibly lower, which is the point
    arch = np.sin(np.pi * (tt / SPEED_KERNEL_SPAN) ** spd.envelope_skew)
    envelope = floor + (peak - floor) * arch
    kernels.append(
        Kernel(
            kind=CommandKind.GRIPPER_SPEED,
            bin_width=bin_width,
            values=spd.packet_rate * bin_width * envelope,
            source_id="template:speed_burst",
        )
    )
    return KernelBank(kernels)
