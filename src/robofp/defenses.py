"""Traffic-analysis defenses: size padding and constant-rate modulation.

Padding rounds every packet up to the next multiple of 100x bytes, capped
at the MTU.  Timing is untouched, so the cost is bandwidth only.

Modulation re-emits each direction as a fixed-rate stream: one packet every
t_i seconds, dummy packets of s_p bytes filling idle slots.  A real message
of s_o bytes is cut into n segments of s_c bytes chosen so the whole
message is out the door within the deadline L:

    s_o <= s_p                 -> one padded slot        (s_p, 1)
    ceil(s_o / s_p) * t_i > L  -> fewer, bigger segments (ceil(s_o / floor(L / t_i)), floor(L / t_i))
    otherwise                  -> s_p-sized segments     (s_p, ceil(s_o / s_p))

Messages queue FIFO per direction and never interleave; a message's added
latency is its last segment's slot time minus its arrival time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, OutOfRange
from .trace import MTU, Trace

PAD_STEP = 100
PAD_FACTOR_MIN = 1
PAD_FACTOR_MAX = 10

# send-interval operating points used by the sweep harness
MODULATION_INTERVALS = (0.01, 0.001, 0.0001)

# the arm's closed-loop controller runs at 1 kHz; a message arriving more
# than one control period late is unacceptable, so this is the deadline
# unless the send interval itself is coarser
CONTROLLER_LATENCY_BUDGET = 0.001

_MIN_INTERVAL = 1e-6  # slot times must stay distinct on the microsecond grid


def modulation_preset(s_p: int, t_i: float, tail_dummies: float = 0.0) -> "ModulationConfig":
    """Standard operating point: deadline is the controller budget, or t_i
    itself when the interval is coarser than the budget."""
    return ModulationConfig(
        s_p=s_p, t_i=t_i, big_l=max(t_i, CONTROLLER_LATENCY_BUDGET), tail_dummies=tail_dummies
    )


def pad_packet(size: int, x: int) -> int:
    """Round size up to a multiple of 100x bytes, capped at the MTU."""
    if not PAD_FACTOR_MIN <= x <= PAD_FACTOR_MAX:
        raise OutOfRange(f"padding factor {x} outside [{PAD_FACTOR_MIN}, {PAD_FACTOR_MAX}]")
    if not 1 <= size <= MTU:
        raise OutOfRange(f"packet size {size} outside [1, {MTU}]")
    step = PAD_STEP * x
    return min(math.ceil(size / step) * step, MTU)


def segment_plan(s_o: int, s_p: int, t_i: float, big_l: float) -> tuple[int, int]:
    """Segment size and count for an s_o-byte message under (s_p, t_i, L)."""
    if s_o < 1 or s_p < 1:
        raise InvalidConfig("message and dummy sizes must be >= 1")
    if t_i <= 0 or big_l < t_i:
        raise InvalidConfig("need 0 < t_i <= L")
    if s_o <= s_p:
        return s_p, 1
    n_wanted = math.ceil(s_o / s_p)
    # guards keep exact boundaries (n_wanted * t_i == L, L an exact multiple
    # of t_i) on the mathematical side of the branch despite float rounding
    if n_wanted * t_i > big_l * (1.0 + 1e-9):
        n = math.floor(big_l / t_i + 1e-9)
        return math.ceil(s_o / n), n
    return s_p, n_wanted


@dataclass(frozen=True)
class PaddingConfig:
    x: int

    def __post_init__(self):
        if not isinstance(self.x, int) or not PAD_FACTOR_MIN <= self.x <= PAD_FACTOR_MAX:
            raise OutOfRange(f"padding factor {self.x} outside [1, {PAD_FACTOR_MAX}]")

    def to_doc(self) -> dict:
        return {"type": "padding", "x": self.x}


@dataclass(frozen=True)
class ModulationConfig:
    s_p: int
    t_i: float
    big_l: float
    tail_dummies: float = 0.0

    def __post_init__(self):
        if not 1 <= self.s_p <= MTU:
            raise InvalidConfig(f"dummy size {self.s_p} outside [1, {MTU}]")
        if self.t_i < _MIN_INTERVAL:
            raise InvalidConfig(f"interval {self.t_i} below {_MIN_INTERVAL}")
        if self.big_l < self.t_i:
            raise InvalidConfig("deadline L must be >= interval t_i")
        if self.tail_dummies < 0:
            raise InvalidConfig("tail_dummies must be >= 0")

    def to_doc(self) -> dict:
        return {
            "type": "modulation",
            "s_p": self.s_p,
            "t_i": self.t_i,
            "L": self.big_l,
            "tail_dummies": self.tail_dummies,
        }


@dataclass
class DefendedTrace:
    """A defended capture plus the bookkeeping linking it to the original.

    orig_index maps each defended packet to the original packet it carries
    (-1 for dummies and, under modulation, for all but the first segment).
    added_latency is per original packet, seconds.
    """

    trace: Trace
    config: PaddingConfig | ModulationConfig
    original_bytes: int
    orig_index: np.ndarray
    added_latency: np.ndarray

    @property
    def max_added_latency(self) -> float:
        return float(self.added_latency.max()) if self.added_latency.size else 0.0

    @property
    def defended_bytes(self) -> int:
        return self.trace.total_bytes

    def bandwidth_overhead(self) -> float:
        """(defended - original) / original, in bytes."""
        if self.original_bytes == 0:
            return 0.0
        return (self.defended_bytes - self.original_bytes) / self.original_bytes


def apply_padding_defense(trace: Trace, config: PaddingConfig) -> DefendedTrace:
    """Pad sizes in place; timing, direction and count are untouched."""
    step = PAD_STEP * config.x
    padded = np.minimum((trace.sizes + step - 1) // step * step, MTU)
    defended = Trace(
        trace.times.copy(), trace.dirs.copy(), padded.astype(np.int64),
        label=trace.label, trace_id=trace.trace_id,
    )
    return DefendedTrace(
        trace=defended,
        config=config,
        original_bytes=trace.total_bytes,
        orig_index=np.arange(len(trace), dtype=np.int64),
        added_latency=np.zeros(len(trace)),
    )


def _assign_slots(times, sizes, orig_idx, config):
    """FIFO slot assignment for one direction.

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


def apply_modulation_defense(trace: Trace, config: ModulationConfig) -> DefendedTrace:
    """Re-emit both directions at one packet per t_i with dummy fill."""
    span = trace.duration + config.tail_dummies
    per_dir = {}
    latencies = np.zeros(len(trace))
    last = math.ceil(span / config.t_i)
    for direction in (1, -1):
        idx = np.flatnonzero(trace.dirs == direction)
        assigned, lat, dir_last = _assign_slots(
            trace.times[idx], trace.sizes[idx], idx, config
        )
        latencies[idx] = lat
        per_dir[direction] = assigned
        last = max(last, dir_last)

    # both directions emit the same slot grid, 0 .. last
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

    times = np.concatenate([p[0] for p in parts])
    dirs = np.concatenate([p[1] for p in parts])
    sizes = np.concatenate([p[2] for p in parts])
    orig = np.concatenate([p[3] for p in parts])
    # stable sort keeps the outgoing slot first when both directions share a time
    order = np.argsort(times, kind="stable")

    defended = Trace(
        times[order], dirs[order], sizes[order],
        label=trace.label, trace_id=trace.trace_id,
    )
    return DefendedTrace(
        trace=defended,
        config=config,
        original_bytes=trace.total_bytes,
        orig_index=orig[order],
        added_latency=latencies,
    )


def apply_defense(trace: Trace, config: PaddingConfig | ModulationConfig) -> DefendedTrace:
    if isinstance(config, PaddingConfig):
        return apply_padding_defense(trace, config)
    if isinstance(config, ModulationConfig):
        return apply_modulation_defense(trace, config)
    raise InvalidConfig(f"unknown defense config {type(config).__name__}")
