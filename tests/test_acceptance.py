"""Acceptance gate: one test per numbered claim the package ships under.

Every test pins the thresholds it checks, computes expectations from
independent oracles where one exists, and prints a one-line summary with
the measured values.  The conftest terminal hook repeats those lines as a
PASS/FAIL table after the run.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from robofp import errors
from robofp.classifier import GBDTParams, cross_validate
from robofp.defenses import modulation_preset, pad_packet, segment_plan
from robofp.features import SigprocConfig, command_clusters, featurize_dataset
from robofp.harness import (
    ExperimentConfig,
    modulation_sweep,
    padding_sweep,
    report_digest,
    run_attack_experiment,
    write_report,
)
from robofp.sigproc import (
    Cluster,
    CommandKind,
    Kernel,
    Signal,
    bin_trace,
    cluster_statistics,
    convolve,
    detect_clusters,
    sliding_correlation,
)
from robofp.synthgen import GenConfig, default_kernel_bank, gen_dataset
from robofp.trace import Dataset


@pytest.fixture(scope="module")
def seed42():
    # held as a list: several tests walk it, and gen_dataset makes its
    # captures again on every pass
    dataset = Dataset(list(gen_dataset(GenConfig(seed=42, samples_per_class=50))))
    bank = default_kernel_bank(bin_width=SigprocConfig().bin_width)
    return dataset, bank


def _cv(matrix, n_folds=10, seed=42):
    return cross_validate(
        matrix.X,
        matrix.labels,
        params=GBDTParams(),
        n_folds=n_folds,
        seed=seed,
        feature_names=list(matrix.schema.names),
    )


# ---------------------------------------------------------------------------
# 1. end-to-end attack accuracy and runtime


def test_c01_full_pipeline_accuracy_and_runtime():
    start = time.perf_counter()
    dataset = gen_dataset(GenConfig(seed=42, samples_per_class=50))
    bank = default_kernel_bank(bin_width=SigprocConfig().bin_width)
    matrix = featurize_dataset(dataset, bank, SigprocConfig(), "full")
    report = _cv(matrix)
    elapsed = time.perf_counter() - start
    assert len(dataset.traces) == 200
    assert len(report.fold_accuracies) == 10
    assert report.accuracy >= 0.90
    assert elapsed <= 300.0
    print(f"accuracy={report.accuracy:.3f} (>=0.90), runtime={elapsed:.1f}s (<=300s)")


# ---------------------------------------------------------------------------
# 2. cluster-structure features carry signal beyond summary statistics


def test_c02_summary_features_strictly_weaker(seed42):
    dataset, bank = seed42
    acc = {}
    for feature_set in ("full", "summary"):
        matrix = featurize_dataset(dataset, bank, SigprocConfig(), feature_set)
        acc[feature_set] = _cv(matrix).accuracy
    assert acc["summary"] <= acc["full"] - 0.05
    print(f"full={acc['full']:.3f}, summary={acc['summary']:.3f}, gap>={0.05}")


# ---------------------------------------------------------------------------
# 3. scan operators against their plain double-loop definitions


def _oracle_scan(x, h):
    """Normalised sliding dot product, full alignment grid, centre slice."""
    n, k = len(x), len(h)
    norm2 = sum(float(v) * float(v) for v in h)
    full = []
    for p in range(n + k - 1):
        acc = 0.0
        for i in range(k):
            j = p - (k - 1) + i
            if 0 <= j < n:
                acc += float(x[j]) * float(h[i])
        full.append(acc / norm2)
    lo = (k - 1) // 2
    return full[lo : lo + n]


def _oracle_pearson(x, h):
    k = len(h)
    xs = [float(v) for v in x] + [0.0] * max(0, k - len(x))
    mh = sum(h) / k
    vh = sum((v - mh) ** 2 for v in h) / k
    out = []
    for m in range(len(xs) - k + 1):
        w = xs[m : m + k]
        mw = sum(w) / k
        vw = sum((v - mw) ** 2 for v in w) / k
        cov = sum((a - mw) * (b - mh) for a, b in zip(w, h)) / k
        if vw <= 0 or vh <= 0:
            out.append(0.0)
        else:
            out.append(max(-1.0, min(1.0, cov / math.sqrt(vw * vh))))
    return out


def _random_case(rng, trial, k_min):
    n = int(rng.integers(1, 65))
    k = int(rng.integers(k_min, 17))
    x = rng.normal(0.0, 300.0, n)
    h = rng.normal(0.0, 300.0, k)
    if trial % 2 == 0:
        x = np.round(x)
        h = np.round(h)
        if not np.any(h):
            h[0] = 100.0
    return x, h


def test_c03_scan_operators_match_definitional_oracles():
    rng = np.random.default_rng(1234)
    worst_conv = worst_corr = 0.0
    for trial in range(1000):
        x, h = _random_case(rng, trial, k_min=1)
        got = convolve(Signal(x, 0.01), Kernel(CommandKind.CARTESIAN_MOVE, 0.01, h)).values
        want = np.asarray(_oracle_scan(x, h))
        assert len(got) == len(x)
        worst_conv = max(worst_conv, float(np.max(np.abs(got - want))))
    for trial in range(1000):
        # Pearson needs a kernel with variance, so its domain starts at 2 bins
        x, h = _random_case(rng, trial, k_min=2)
        got_r = sliding_correlation(Signal(x, 0.01), Kernel(CommandKind.GRIPPER_SPEED, 0.01, h)).values
        want_r = np.asarray(_oracle_pearson(x, h))
        assert len(got_r) == max(len(x), len(h)) - len(h) + 1
        assert np.all(got_r >= -1.0) and np.all(got_r <= 1.0)
        worst_corr = max(worst_corr, float(np.max(np.abs(got_r - want_r))))
    assert worst_conv <= 1e-9
    assert worst_corr <= 1e-9

    with pytest.raises(errors.KernelTooShort):
        sliding_correlation(
            Signal(np.ones(8), 0.01), Kernel(CommandKind.GRIPPER_SPEED, 0.01, np.array([5.0]))
        )

    # a signal containing the kernel verbatim scores a peak of exactly 1
    h = np.array([40.0, 60.0, 95.0, 150.0, 190.0, 160.0, 110.0, 70.0, 45.0])
    x = np.zeros(64)
    x[20 : 20 + len(h)] = h
    signal = Signal(x, 0.01)
    kernel = Kernel(kind=CommandKind.GRIPPER_SPEED, bin_width=0.01, values=h)
    conv_peak = float(np.max(convolve(signal, kernel).values))
    corr_peak = float(np.max(sliding_correlation(signal, kernel).values))
    assert abs(conv_peak - 1.0) <= 1e-9
    assert abs(corr_peak - 1.0) <= 1e-9
    print(
        f"worst conv err={worst_conv:.2e}, worst corr err={worst_corr:.2e} "
        f"(<=1e-9), perfect-match peaks {conv_peak:.12f}/{corr_peak:.12f}"
    )


# ---------------------------------------------------------------------------
# 4. cluster spacing statistic


def test_c04_cluster_spacing_statistic(seed42):
    response = Signal(np.linspace(0.5, 1.5, 2000), 0.01)
    starts = [0.0, 2.73, 7.4, 9.01, 12.66, 16.9991]
    clusters = [Cluster(s, s + 0.05, 1.0) for s in starts]
    stats = cluster_statistics(response, clusters)
    assert stats.cluster_count == 6
    assert abs(stats.avg_time_gap - 16.9991 / 5) <= 1e-12
    assert round(stats.avg_time_gap, 4) == 3.3998

    single = cluster_statistics(response, [Cluster(4.0, 5.0, 1.2)])
    assert single.avg_time_gap == 0.0

    # the identity holds on real detections, not only hand-built clusters
    dataset, bank = seed42
    config = SigprocConfig()
    checked = 0
    for trace in dataset.traces[:40]:
        for kind in (CommandKind.CARTESIAN_MOVE, CommandKind.GRIPPER_POSITION):
            resp, found = command_clusters(trace, kind, bank, config)
            got = cluster_statistics(resp, found).avg_time_gap
            first_starts = [c.start for c in found]
            if len(first_starts) >= 2:
                want = (first_starts[-1] - first_starts[0]) / (len(first_starts) - 1)
                assert abs(got - want) <= 1e-12
                checked += 1
            else:
                assert got == 0.0
    assert checked >= 20
    print(f"16.9991/5 -> {stats.avg_time_gap:.5f}, identity held on {checked} detections")


# ---------------------------------------------------------------------------
# 5. padding arithmetic


def test_c05_padding_unit_cases_and_properties():
    assert pad_packet(360, 2) == 400
    assert pad_packet(360, 5) == 500
    assert pad_packet(960, 8) == 1500

    start = time.perf_counter()
    for x in range(1, 11):
        prev = 0
        for size in range(1, 1501):
            padded = pad_packet(size, x)
            assert size <= padded <= 1500
            assert padded % 100 == 0
            assert pad_packet(padded, x) == padded
            assert padded >= prev
            prev = padded
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"unit cases exact; 15000 sizes idempotent+monotone in {elapsed * 1000:.0f}ms (<1s)")


# ---------------------------------------------------------------------------
# 6. segmentation planner against an exact-arithmetic oracle


def _oracle_plan(s_o, s_p, t_i, big_l):
    ti = Fraction(str(t_i))
    deadline = Fraction(str(big_l))
    if s_o <= s_p:
        return s_p, 1, "fits"
    n_wanted = math.ceil(Fraction(s_o, s_p))
    if n_wanted * ti > deadline:
        slots = math.floor(deadline / ti)
        return math.ceil(Fraction(s_o, slots)), slots, "deadline"
    return s_p, n_wanted, "split"


def test_c06_segment_plans_match_hand_oracle():
    timings = ((0.001, 0.001), (0.0001, 0.001), (0.01, 0.01))
    sizes = (1, 60, 100, 101, 250, 400, 999, 1000, 1500, 4000)
    branches = set()
    cases = 0
    for s_o in sizes:
        for s_p in (100, 300):
            for t_i, big_l in timings:
                want_size, want_n, branch = _oracle_plan(s_o, s_p, t_i, big_l)
                assert segment_plan(s_o, s_p, t_i, big_l) == (want_size, want_n)
                branches.add(branch)
                cases += 1
    assert cases >= 50
    assert branches == {"fits", "split", "deadline"}

    rng = np.random.default_rng(99)
    intervals = (0.0001, 0.0002, 0.0005, 0.001, 0.002, 0.01)
    for _ in range(10_000):
        s_o = int(rng.integers(1, 30_001))
        s_p = 100 * int(rng.integers(1, 16))
        t_i = intervals[int(rng.integers(0, len(intervals)))]
        big_l = max(t_i, 0.001)
        size, n = segment_plan(s_o, s_p, t_i, big_l)
        assert n >= 1 and size >= 1
        assert n * size >= s_o
        if s_o <= s_p:
            assert (size, n) == (s_p, 1)
    print(f"{cases}-case grid exact over all 3 branches; conservation held on 10000 random configs")


# ---------------------------------------------------------------------------
# 7. fine-interval modulation defeats the classifier at bounded latency


def test_c07_fine_interval_modulation_defeats_classifier():
    rows = modulation_sweep(
        ExperimentConfig(), dummy_sizes=tuple(range(100, 1001, 100)), intervals=(0.0001,)
    )
    assert len(rows) == 10
    for row in rows:
        preset = modulation_preset(row["s_p"], row["t_i"])
        assert row["accuracy"] <= 0.50
        assert row["max_added_latency"] <= preset.big_l + preset.t_i + 1e-9
    worst_acc = max(r["accuracy"] for r in rows)
    worst_lat = max(r["max_added_latency"] for r in rows)
    print(
        f"t_i=0.0001: worst accuracy={worst_acc:.3f} (<=0.50), "
        f"worst added latency={worst_lat * 1000:.3f}ms (<=1.1ms)"
    )


# ---------------------------------------------------------------------------
# 8. heavier padding costs accuracy and bandwidth


def test_c08_heavy_padding_costs_accuracy():
    rows = sorted(padding_sweep(ExperimentConfig()), key=lambda r: r["x"])
    assert [r["x"] for r in rows] == list(range(1, 11))
    acc = {r["x"]: r["accuracy"] for r in rows}
    assert acc[10] <= acc[1] - 0.20
    overheads = [r["overhead"] for r in rows]
    assert all(b >= a for a, b in zip(overheads, overheads[1:]))
    print(
        f"x=1 acc={acc[1]:.3f} -> x=10 acc={acc[10]:.3f} (drop>=0.20), "
        f"overhead {overheads[0]:.2f}->{overheads[-1]:.2f} non-decreasing"
    )


# ---------------------------------------------------------------------------
# 9. reports reproduce byte-for-byte apart from the timestamp


def test_c09_reports_reproducible(tmp_path):
    config = ExperimentConfig()
    first = run_attack_experiment(config)
    second = run_attack_experiment(config)
    assert report_digest(first) == report_digest(second)

    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    write_report(first, path_a)
    write_report(second, path_b)
    lines_a = path_a.read_text().splitlines()
    lines_b = path_b.read_text().splitlines()
    assert len(lines_a) == len(lines_b)
    diff = [i for i, (a, b) in enumerate(zip(lines_a, lines_b)) if a != b]
    assert all("created_at" in lines_a[i] for i in diff)

    doc_a = json.loads(path_a.read_text())
    doc_b = json.loads(path_b.read_text())
    doc_a.pop("created_at")
    doc_b.pop("created_at")
    assert doc_a == doc_b
    print(f"two runs byte-identical except created_at; digest {report_digest(first)[:16]}")


# ---------------------------------------------------------------------------
# 10. raising the detection threshold never adds clusters


def test_c10_threshold_tightening_never_adds_clusters(seed42):
    dataset, bank = seed42
    config = SigprocConfig()
    assert config.conv_threshold == 0.9
    grid = (0.0, 0.9, 1.3)
    totals = {t: 0 for t in grid}
    for kind in (CommandKind.CARTESIAN_MOVE, CommandKind.GRIPPER_POSITION):
        kernel = bank.kernel_for(kind)
        for trace in dataset.traces:
            response = convolve(bin_trace(trace, config.bin_width), kernel)
            counts = [
                len(detect_clusters(response, t, config.merge_gap, config.conv_min_duration))
                for t in grid
            ]
            assert counts[0] >= counts[1] >= counts[2]
            for t, c in zip(grid, counts):
                totals[t] += c
    means = {t: totals[t] / (2 * len(dataset.traces)) for t in grid}
    print(
        f"per-trace chain held for 400 (trace, kind) pairs; mean counts "
        f"{means[0.0]:.1f} >= {means[0.9]:.1f} >= {means[1.3]:.1f}"
    )
