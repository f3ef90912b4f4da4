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

(a running maximum, exact in integers).  The result is a SlotPlan, not
wire packets: the slot count and the slot rows and sizes of the segments
that are not s_p bytes.  On the generated captures at t_i = 0.1 ms there
are none such, and the plan holds no per-message array against millions
of wire packets.  Each message's original index and first slot stay
with the DefendedTrace, beside the per-message latencies.  The slot count
is checked against MAX_SLOTS first.

A plan's wire packets are built only when ``DefendedTrace.trace`` is read,
anew on each read, slot by slot with the outgoing packet first.
``SlotPlan.columns`` is their one builder: the trace writer takes them from
it a chunk of rows at a time, and ``wire_packets`` all at once.  Slot
row r is sent at ``trace.quantize_time(r * t_i)``, the one microsecond-grid
rule of every capture time; for t_i >= 1 us those times strictly increase,
so that is time order.  Only ``DefendedTrace.orig_index`` builds the
(n_slots, 2) origin grid, outgoing in column 0, from each message's first
slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, OutOfRange, check_field_types
from .trace import MTU, ActionLabel, Trace, quantize_time

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
# a longer interval would leave the 1 kHz controller a thousand periods
# without a packet, and this bound keeps every slot time (at most
# MAX_SLOTS * 1 s, under 49 days) finite and on the microsecond grid
_MAX_INTERVAL = 1.0


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
        if type(self.x) is not int or not PAD_FACTOR_MIN <= self.x <= PAD_FACTOR_MAX:
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
        if not _MIN_INTERVAL <= self.t_i <= _MAX_INTERVAL:
            raise InvalidConfig(f"interval {self.t_i} outside [{_MIN_INTERVAL}, {_MAX_INTERVAL}]")
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


@dataclass(frozen=True)
class SlotPlan:
    """One modulated capture as its constant-rate schedule, without wire packets.

    Both directions send one packet in each of ``n_slots`` slots, ``t_i``
    seconds apart.  Every packet is ``s_p`` bytes except the segments in
    ``odd``, which holds per direction (outgoing first) their slot rows and
    ``size - s_p``, and is often empty.  Which message each slot carries is
    not part of the schedule: features never read it, and it is kept by
    the DefendedTrace.
    """

    t_i: float
    s_p: int
    n_slots: int
    odd: tuple[tuple[np.ndarray, np.ndarray], ...]
    label: ActionLabel | None = None
    trace_id: str | None = None

    def __len__(self) -> int:
        return 2 * self.n_slots  # wire packets

    def slot_times(self, rows: np.ndarray | None = None) -> np.ndarray:
        """Times of the given slot rows, all slots by default: ``rows * t_i``
        on the microsecond grid.  A slot's time depends only on its row and
        t_i, so any rows of a plan give the same times wherever taken."""
        return quantize_time((np.arange(self.n_slots) if rows is None else rows) * self.t_i)

    @property
    def duration(self) -> float:
        """Time of the last slot, as ``slot_times`` gives it."""
        return float(quantize_time((self.n_slots - 1) * self.t_i))

    def signed_bytes(self) -> tuple[np.ndarray, np.ndarray]:
        """Times and signed bytes that bin as the wire packets do: the two
        s_p-byte packets of a slot cancel, so only the segments of another
        size remain, each as its signed ``size - s_p`` (integer sums, exact)."""
        (out_rows, out_delta), (in_rows, in_delta) = self.odd
        times = self.slot_times(np.concatenate([out_rows, in_rows]))
        return times, np.concatenate([out_delta, -in_delta]).astype(np.float64)

    def column_sizes(self, column: int) -> np.ndarray:
        """One direction's packet sizes in slot order."""
        sizes = np.full(self.n_slots, self.s_p, dtype=np.int64)
        rows, delta = self.odd[column]
        sizes[rows] += delta
        return sizes

    def columns(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Times, directions and sizes of wire packets ``start`` up to
        ``stop``, slot by slot with the outgoing packet first, built for the
        slots that carry them only."""
        stop = min(stop, len(self))
        first, end = start // 2, (stop + 1) // 2  # the slots holding those rows
        sizes = np.full((end - first, 2), self.s_p, dtype=np.int64)
        for column, (rows, delta) in enumerate(self.odd):
            inside = (rows >= first) & (rows < end)
            sizes[rows[inside] - first, column] += delta[inside]
        cut = slice(start - 2 * first, stop - 2 * first)
        return (
            np.repeat(self.slot_times(np.arange(first, end)), 2)[cut],
            np.tile(np.array([1, -1], dtype=np.int32), end - first)[cut],
            sizes.ravel()[cut],
        )

    def wire_packets(self) -> Trace:
        """The defended trace, slot by slot with the outgoing packet first."""
        return Trace(*self.columns(0, len(self)), label=self.label, trace_id=self.trace_id)


@dataclass
class DefendedTrace:
    """A defended capture plus the bookkeeping linking it to the original.

    ``capture`` is what features and the trace writer read: the padded
    trace, or a modulated capture's ``SlotPlan`` (millions of wire
    packets at t_i = 0.1 ms come down to a few arrays).  Modulation also
    keeps its ``carriers``: per direction (outgoing first), each message's
    index in the original trace and its first slot.  Nothing else is kept:
    ``trace`` builds a plan's wire packets on each read, and ``orig_index``
    its origins from the carriers.

    orig_index maps each defended packet to the original packet it carries
    (-1 for dummies and, under modulation, for all but the first segment).
    added_latency is per original packet, seconds.
    """

    original_bytes: int
    defended_bytes: int
    added_latency: np.ndarray
    capture: Trace | SlotPlan
    carriers: tuple[tuple[np.ndarray, np.ndarray], ...] = ()

    @property
    def trace(self) -> Trace:
        return self.capture if isinstance(self.capture, Trace) else self.capture.wire_packets()

    @property
    def orig_index(self) -> np.ndarray:
        if isinstance(self.capture, Trace):
            return np.arange(len(self.capture), dtype=np.int64)
        orig = np.full((self.capture.n_slots, 2), -1, dtype=np.int64)
        for column, (idx, first) in enumerate(self.carriers):
            orig[first, column] = idx
        return orig.ravel()

    @property
    def max_added_latency(self) -> float:
        return float(self.added_latency.max()) if self.added_latency.size else 0.0

    def bandwidth_overhead(self) -> float:
        """(defended - original) / original, in bytes."""
        if self.original_bytes == 0:
            return 0.0
        return (self.defended_bytes - self.original_bytes) / self.original_bytes


def apply_padding_defense(trace: Trace, config: PaddingConfig) -> DefendedTrace:
    """Pad sizes in place; timing, direction and count are untouched."""
    step = PAD_STEP * config.x
    padded = np.minimum((trace.sizes + step - 1) // step * step, MTU)
    defended = Trace(trace.times, trace.dirs, padded, label=trace.label, trace_id=trace.trace_id)
    return DefendedTrace(
        original_bytes=trace.total_bytes,
        defended_bytes=defended.total_bytes,
        added_latency=np.zeros(len(trace)),
        capture=defended,
    )


def apply_modulation_defense(trace: Trace, config: ModulationConfig) -> DefendedTrace:
    """Schedule both directions at one packet per t_i with dummy fill."""
    t_i = config.t_i
    # a float until checked against MAX_SLOTS: a huge tail_dummies makes it inf
    last = (trace.duration + config.tail_dummies) / t_i
    sizes, inverse = np.unique(trace.sizes, return_inverse=True)
    plans = np.array(
        [segment_plan(int(s), config.s_p, t_i, config.big_l) for s in sizes], dtype=np.int64
    ).reshape(-1, 2)
    seg, n = plans[inverse, 0], plans[inverse, 1]
    arrival = np.ceil(trace.times / t_i - 1e-12).astype(np.int64)

    latency = np.zeros(len(trace))
    odd, carriers = [], []
    for direction in (1, -1):
        idx = np.flatnonzero(trace.dirs == direction)
        n_d = n[idx]
        before = np.cumsum(n_d) - n_d
        first = before + np.maximum.accumulate(arrival[idx] - before)
        ends = first + n_d - 1
        latency[idx] = ends * t_i - trace.times[idx]
        last = max(last, int(ends.max(initial=0)))
        carriers.append((idx, first))
        # segment j of message k sits at first_k + j; keep those not s_p bytes
        k = seg[idx] != config.s_p
        n_k = n_d[k]
        rows = np.repeat(first[k] - (np.cumsum(n_k) - n_k), n_k) + np.arange(n_k.sum())
        odd.append((rows, np.repeat(seg[idx][k] - config.s_p, n_k)))

    if last > MAX_SLOTS - 1:
        raise OutOfRange(f"t_i={t_i} needs more than {MAX_SLOTS} slots per direction")
    n_slots = math.ceil(last) + 1
    return DefendedTrace(
        original_bytes=trace.total_bytes,
        defended_bytes=2 * n_slots * config.s_p + sum(int(delta.sum()) for _, delta in odd),
        added_latency=latency,
        capture=SlotPlan(t_i, config.s_p, n_slots, tuple(odd), trace.label, trace.trace_id),
        carriers=tuple(carriers),
    )


def apply_defense(trace: Trace, config: PaddingConfig | ModulationConfig) -> DefendedTrace:
    if isinstance(config, PaddingConfig):
        return apply_padding_defense(trace, config)
    if isinstance(config, ModulationConfig):
        return apply_modulation_defense(trace, config)
    raise InvalidConfig(f"unknown defense config {type(config).__name__}")
