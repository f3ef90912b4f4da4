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
latency is its last segment's slot time minus its arrival time.  The queue
has a closed form.  With arrival_k = ceil(t_k / t_i) the first free slot at
message k's time and before_k = n_0 + ... + n_(k-1) the slots its
predecessors take, message k starts at

    first_k = before_k + max(arrival_0 - before_0, ..., arrival_k - before_k)

(a running maximum, exact in integers).  Both directions fill one
(n_slots, 2) grid, outgoing in column 0.  For t_i >= 1 us the
microsecond-rounded slot times strictly increase, so reading the grid row
by row is time order with the outgoing packet first in each slot.  The
slot count is checked against MAX_SLOTS before the grid is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, OutOfRange, check_field_types
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

# slots per direction one modulated trace may allocate: 2**22 covers 419 s
# at t_i = 0.1 ms, but only 4.2 s at 1 us
MAX_SLOTS = 2**22


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
        check_field_types(self)  # NaN or inf would reach math.ceil
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
    original_bytes: int
    orig_index: np.ndarray
    added_latency: np.ndarray

    @property
    def max_added_latency(self) -> float:
        return float(self.added_latency.max()) if self.added_latency.size else 0.0

    def bandwidth_overhead(self) -> float:
        """(defended - original) / original, in bytes."""
        if self.original_bytes == 0:
            return 0.0
        return (self.trace.total_bytes - self.original_bytes) / self.original_bytes


def apply_padding_defense(trace: Trace, config: PaddingConfig) -> DefendedTrace:
    """Pad sizes in place; timing, direction and count are untouched."""
    step = PAD_STEP * config.x
    padded = np.minimum((trace.sizes + step - 1) // step * step, MTU)
    defended = Trace(trace.times, trace.dirs, padded, label=trace.label, trace_id=trace.trace_id)
    return DefendedTrace(
        trace=defended,
        original_bytes=trace.total_bytes,
        orig_index=np.arange(len(trace), dtype=np.int64),
        added_latency=np.zeros(len(trace)),
    )


def apply_modulation_defense(trace: Trace, config: ModulationConfig) -> DefendedTrace:
    """Re-emit both directions at one packet per t_i with dummy fill."""
    t_i = config.t_i
    last = math.ceil((trace.duration + config.tail_dummies) / t_i)
    sizes, inverse = np.unique(trace.sizes, return_inverse=True)
    plans = np.array(
        [segment_plan(int(s), config.s_p, t_i, config.big_l) for s in sizes], dtype=np.int64
    ).reshape(-1, 2)
    seg, n = plans[inverse, 0], plans[inverse, 1]
    arrival = np.ceil(trace.times / t_i - 1e-12).astype(np.int64)

    latency = np.zeros(len(trace))
    queues = []
    for direction in (1, -1):
        idx = np.flatnonzero(trace.dirs == direction)
        n_d = n[idx]
        before = np.cumsum(n_d) - n_d
        shift = np.maximum.accumulate(arrival[idx] - before)
        first = before + shift
        ends = first + n_d - 1
        latency[idx] = ends * t_i - trace.times[idx]
        last = max(last, int(ends.max(initial=0)))
        queues.append((idx, first, shift))

    n_slots = last + 1
    if n_slots > MAX_SLOTS:
        raise OutOfRange(f"t_i={t_i} needs {n_slots} slots per direction, more than {MAX_SLOTS}")
    grid_sizes = np.full((n_slots, 2), config.s_p, dtype=np.int64)
    grid_orig = np.full((n_slots, 2), -1, dtype=np.int64)
    for column, (idx, first, shift) in enumerate(queues):
        # segment j of message k sits at first_k + j = shift_k + (before_k + j),
        # and before_k + j counts the direction's segments in order
        n_d = n[idx]
        rows = np.repeat(shift, n_d) + np.arange(n_d.sum())
        grid_sizes[rows, column] = np.repeat(seg[idx], n_d)
        grid_orig[first, column] = idx

    slot_times = np.round(np.arange(n_slots) * t_i * 1e6) / 1e6
    defended = Trace(
        np.repeat(slot_times, 2),
        np.tile(np.array([1, -1], dtype=np.int32), n_slots),
        grid_sizes.ravel(),
        label=trace.label, trace_id=trace.trace_id,
    )
    return DefendedTrace(
        trace=defended,
        original_bytes=trace.total_bytes,
        orig_index=grid_orig.ravel(),
        added_latency=latency,
    )


def apply_defense(trace: Trace, config: PaddingConfig | ModulationConfig) -> DefendedTrace:
    if isinstance(config, PaddingConfig):
        return apply_padding_defense(trace, config)
    if isinstance(config, ModulationConfig):
        return apply_modulation_defense(trace, config)
    raise InvalidConfig(f"unknown defense config {type(config).__name__}")
