"""The names the benchmark under perfbench/ relies on still exist in robofp.

perfbench/tracing.py wraps robofp functions by (owner, attribute) for its
traced runs, and perfbench/run.py asks the harness how many workers an
operation would use.  Its counters read fields of the results they wrap.
A refactor that drops or moves one of those names or fields breaks the
benchmark; these checks make it fail here first.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from robofp import harness
from robofp.defenses import ModulationConfig, apply_defense
from robofp.trace import Trace

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_traced_name_resolves(tracing):
    assert tracing.WRAPS
    missing = [
        (owner, attr)
        for owner, attr, _, _ in tracing.WRAPS
        if attr not in tracing._owner(owner).__dict__
    ]
    assert missing == []


def test_resolve_workers_exists():
    assert callable(harness.resolve_workers)


def test_wire_packet_counter_reads_a_modulated_trace(tracing):
    # every message fits one slot, so each carries exactly one wire packet
    trace = Trace(
        np.array([0.0, 0.004, 0.0041, 0.02]), np.array([1, -1, 1, 1]), np.array([60, 500, 90, 300])
    )
    result = apply_defense(trace, ModulationConfig(500, 0.001, 0.001))
    counts = tracing._wire_packets(result, (trace,))
    assert counts["wire_packets"] == len(result.trace)
    assert counts["dummy_packets"] == counts["wire_packets"] - len(trace)
