"""The names the benchmark under perfbench/ relies on still exist in robofp.

perfbench/tracing.py wraps robofp functions by (owner, attribute) for its
traced runs, and perfbench/run.py asks the harness how many workers an
operation would use.  Its counters read fields of the results they wrap.
A refactor that drops or moves one of those names or fields breaks the
benchmark; these checks make it fail here first.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from robofp import harness
from robofp.classifier import GBDTClassifier, GBDTParams
from robofp.defenses import ModulationConfig, apply_defense
from robofp.features import featurize_dataset
from robofp.sigproc import Signal
from robofp.synthgen import GenConfig, default_kernel_bank, gen_dataset
from robofp.trace import Dataset, Trace, save_dataset

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


def test_featurized_packet_counter_reads_slot_plans(tracing):
    # a defense sweep featurizes modulated captures as slot plans; each counts
    # its wire packets, two per slot
    dataset = gen_dataset(GenConfig(seed=3, samples_per_class=1))
    defense = ModulationConfig(500, 0.001, 0.001)
    plans = Dataset([apply_defense(t, defense).capture for t in dataset.traces])
    matrix = featurize_dataset(plans, default_kernel_bank(), feature_set="summary")
    counts = tracing._featurized_packets(matrix, (plans,))
    assert counts == {"packets": sum(2 * p.n_slots for p in plans.traces)}


def test_every_counter_reads_a_real_result(tracing, tmp_path):
    """Each counted function, called for real under the name the benchmark wraps,
    returns what its counter reads, and the counter gives the expected counts."""
    gen = GenConfig(seed=3, samples_per_class=1)
    dataset = gen_dataset(gen)
    packets = sum(len(t) for t in dataset.traces)
    manifest = save_dataset(dataset, tmp_path)
    bank = default_kernel_bank()
    trace = dataset.traces[0]
    matrix = featurize_dataset(dataset, bank, feature_set="summary")
    model = GBDTClassifier(GBDTParams(n_rounds=2, max_depth=2))
    small = Trace(np.array([0.0, 0.004]), np.array([1, -1]), np.array([60, 500]))
    # attribute -> (arguments, counts the counter must give for its result)
    calls = {
        "gen_dataset": ((gen,), {"packets": packets}),
        "load_dataset": ((manifest,), {"rows": packets}),
        "featurize_dataset": ((dataset, bank), {"packets": packets}),
        "bin_trace": ((trace, 0.01), {"bins": math.ceil(trace.duration / 0.01 - 1e-9)}),
        # two runs, two bins apart, at merge_gap 0
        "detect_clusters": ((Signal([0.0, 1.0, 1.0, 0.0, 0.0, 1.0], 0.01), 0.5, 0.0),
                            {"clusters": 2}),
        # slots 0..4 in both directions, two of them carrying the messages
        "apply_defense": ((small, ModulationConfig(500, 0.001, 0.001)),
                          {"wire_packets": 10, "dummy_packets": 8}),
        # one tree per class per round
        "fit": ((model, matrix.X, matrix.labels), {"fits": 1, "trees": 2 * 4}),
    }
    counted = [(owner, attr, counter) for owner, attr, _, counter in tracing.WRAPS if counter]
    assert {attr for _, attr, _ in counted} == set(calls)
    for owner, attr, counter in counted:
        args, want = calls[attr]
        counts = counter(tracing._owner(owner).__dict__[attr](*args), args)
        assert {k: counts.get(k) for k in want} == want, (owner, attr)
        assert all(type(v) is int and v >= 0 for v in counts.values()), (owner, attr, counts)
