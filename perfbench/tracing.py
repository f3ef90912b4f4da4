"""Spans around calls into robofp's public functions, for the traced run.

``install`` replaces each function in ``WRAPS`` under the name its caller
looks it up by (``robofp.harness.cross_validate``, ``robofp.features.bin_trace``,
the ``fit`` attribute of ``GBDTClassifier``) with a wrapper that records a
span, and returns a function that puts the originals back.  Untraced runs
never call it, so they run the library exactly as users do.

A span holds its name (``<layer>.<function>``), its parent span, its
``perf_counter`` interval, the process's peak RSS at both ends and the
counts its counter read off the call.  Spans stay in memory; ``layer_metrics``
reduces them to the per-layer figures once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import resource
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


def maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    rss_start_kb: int
    end: float = 0.0
    rss_end_kb: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one thread, so spans nest strictly."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1].id if self._open else None
        s = Span(len(self.spans), parent, name, time.perf_counter(), maxrss_kb())
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            s.rss_end_kb = maxrss_kb()
            self._open.pop()

    def to_doc(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


# -- counters: read work done off a call's arguments and result ------------


def _dataset_packets(result, args):
    return {"packets": sum(len(t) for t in result.traces)}


def _loaded_rows(result, args):
    return {"rows": sum(len(t) for t in result.traces)}


def _featurized_packets(result, args):
    return {"packets": sum(len(t) for t in args[0].traces)}


def _bins(result, args):
    return {"bins": len(result.values)}


def _clusters(result, args):
    return {"clusters": len(result)}


def _wire_packets(result, args):
    return {
        "wire_packets": len(result.trace),
        "dummy_packets": int((result.orig_index < 0).sum()),
    }


def _trees(result, args):
    trees = [t for round_trees in args[0].trees_ for t in round_trees]
    return {
        "fits": 1,
        "trees": len(trees),
        "split_nodes": sum(f >= 0 for t in trees for f in t.feature),
        "root_only_trees": sum(len(t.feature) == 1 for t in trees),
    }


# (owner, attribute, span name, counter).  The owner is the namespace the
# caller resolves the name in: the benchmark's own calls go through the
# defining module, calls inside robofp through the module that imported it.
WRAPS = (
    ("robofp.synthgen", "gen_dataset", "synthgen.gen_dataset", _dataset_packets),
    ("robofp.synthgen", "default_kernel_bank", "synthgen.default_kernel_bank", None),
    ("robofp.trace", "save_dataset", "trace.save_dataset", None),
    ("robofp.harness", "run_attack_experiment", "harness.run_attack_experiment", None),
    ("robofp.harness", "modulation_sweep", "harness.modulation_sweep", None),
    ("robofp.harness", "load_inputs", "harness.load_inputs", None),
    ("robofp.harness", "load_dataset", "trace.load_dataset", _loaded_rows),
    ("robofp.harness", "default_kernel_bank", "synthgen.default_kernel_bank", None),
    ("robofp.harness", "featurize_dataset", "features.featurize_dataset", _featurized_packets),
    ("robofp.harness", "apply_defense", "defenses.apply_defense", _wire_packets),
    ("robofp.harness", "cross_validate", "classifier.cross_validate", None),
    ("robofp.features", "featurize_dataset", "features.featurize_dataset", _featurized_packets),
    ("robofp.features", "bin_trace", "sigproc.bin_trace", _bins),
    ("robofp.features", "convolve", "sigproc.convolve", None),
    ("robofp.features", "sliding_correlation", "sigproc.sliding_correlation", None),
    ("robofp.features", "detect_clusters", "sigproc.detect_clusters", _clusters),
    ("robofp.features", "cluster_statistics", "sigproc.cluster_statistics", None),
    ("robofp.classifier:GBDTClassifier", "fit", "classifier.fit", _trees),
    ("robofp.classifier:GBDTClassifier", "predict", "classifier.predict", None),
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def _wrap(tracer: Tracer, fn, name: str, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
        if counter is not None:
            span.counts = counter(result, args)
        return result

    return traced


def install(tracer: Tracer):
    """Wrap every function in WRAPS; returns the function that unwraps them."""
    saved = []
    for path, attr, name, counter in WRAPS:
        owner = _owner(path)
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(tracer, original, name, counter))

    def uninstall():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


# -- reduction to per-layer metrics ----------------------------------------

# name -> unit; the per-layer metrics a traced run prints, in this order
PER_LAYER_UNITS = {
    "synthgen.gen_s": "s",
    "synthgen.packets": "count",
    "trace.save_s": "s",
    "trace.load_s": "s",
    "trace.rows": "count",
    "sigproc.bin_s": "s",
    "sigproc.convolve_s": "s",
    "sigproc.correlate_s": "s",
    "sigproc.detect_s": "s",
    "sigproc.stats_s": "s",
    "sigproc.bins": "count",
    "sigproc.clusters": "count",
    "features.featurize_s": "s",
    "features.self_s": "s",
    "features.packets": "count",
    "features.maxrss_delta_mb": "MB",
    "defenses.apply_s": "s",
    "defenses.wire_packets": "count",
    "defenses.dummy_share": "ratio",
    "defenses.maxrss_delta_mb": "MB",
    "classifier.cv_s": "s",
    "classifier.fit_s": "s",
    "classifier.predict_s": "s",
    "classifier.fits": "count",
    "classifier.trees": "count",
    "classifier.split_nodes": "count",
    "classifier.root_only_share": "ratio",
    "harness.op_s": "s",
    "harness.self_s": "s",
    "tracing.spans": "count",
    "tracing.overhead_s": "s",
}

# summed span time per op: metric -> span name
_SPAN_TIMES = {
    "trace.load_s": "trace.load_dataset",
    "sigproc.bin_s": "sigproc.bin_trace",
    "sigproc.convolve_s": "sigproc.convolve",
    "sigproc.correlate_s": "sigproc.sliding_correlation",
    "sigproc.detect_s": "sigproc.detect_clusters",
    "sigproc.stats_s": "sigproc.cluster_statistics",
    "features.featurize_s": "features.featurize_dataset",
    "defenses.apply_s": "defenses.apply_defense",
    "classifier.cv_s": "classifier.cross_validate",
    "classifier.fit_s": "classifier.fit",
    "classifier.predict_s": "classifier.predict",
}

# counts that must repeat exactly: on every operation on one dataset, and
# in every run of one seed
EXACT_COUNTS = (
    "trace.rows",
    "sigproc.bins",
    "sigproc.clusters",
    "features.packets",
    "defenses.wire_packets",
    "classifier.fits",
    "classifier.trees",
    "classifier.split_nodes",
    "tracing.spans",
)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class _SpanTree:
    def __init__(self, spans: list[Span]):
        self.by_id = {s.id: s for s in spans}
        self.children: dict[int | None, list[Span]] = defaultdict(list)
        for s in spans:
            self.children[s.parent].append(s)

    def subtree(self, root: Span) -> list[Span]:
        out, stack = [], list(self.children[root.id])
        while stack:
            s = stack.pop()
            out.append(s)
            stack.extend(self.children[s.id])
        return out

    def self_time(self, s: Span) -> float:
        return s.duration - sum(c.duration for c in self.children[s.id])

    def outermost_in_layer(self, s: Span) -> bool:
        parent = self.by_id.get(s.parent)
        return parent is None or parent.layer != s.layer


def _op_figures(tree: _SpanTree, spans: list[Span]) -> dict[str, float]:
    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    def count(key, name):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    def rss_growth_mb(layer):
        grown = sum(
            s.rss_end_kb - s.rss_start_kb
            for s in spans
            if s.layer == layer and tree.outermost_in_layer(s)
        )
        return grown / 1024

    figures = {metric: total(name) for metric, name in _SPAN_TIMES.items()}
    featurize = [s for s in spans if s.name == "features.featurize_dataset"]
    harness = [s for s in spans if s.layer == "harness"]
    trees = count("trees", "classifier.fit")
    wire = count("wire_packets", "defenses.apply_defense")
    figures.update(
        {
            "trace.rows": count("rows", "trace.load_dataset"),
            "sigproc.bins": count("bins", "sigproc.bin_trace"),
            "sigproc.clusters": count("clusters", "sigproc.detect_clusters"),
            "features.self_s": sum(tree.self_time(s) for s in featurize),
            "features.packets": count("packets", "features.featurize_dataset"),
            "features.maxrss_delta_mb": rss_growth_mb("features"),
            "defenses.wire_packets": wire,
            "defenses.dummy_share": _share(
                count("dummy_packets", "defenses.apply_defense"), wire
            ),
            "defenses.maxrss_delta_mb": rss_growth_mb("defenses"),
            "classifier.fits": count("fits", "classifier.fit"),
            "classifier.trees": trees,
            "classifier.split_nodes": count("split_nodes", "classifier.fit"),
            "classifier.root_only_share": _share(
                count("root_only_trees", "classifier.fit"), trees
            ),
            "harness.op_s": sum(s.duration for s in harness if tree.outermost_in_layer(s)),
            "harness.self_s": sum(tree.self_time(s) for s in harness),
            "tracing.spans": len(spans),
        }
    )
    return figures


def layer_metrics(spans: list[Span], overhead_s: float) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from a traced run, and any count that failed to repeat.

    The run's root spans are ``bench.setup`` (one per dataset) and
    ``bench.op`` (one per traced operation, its ``dataset`` count naming the
    dataset it ran on).  Times are medians over the operations, set-up
    times over the set-ups.  Counts come from the first operation and the
    first set-up, which use the seed's own dataset; every operation on the
    same dataset must repeat them exactly.  Peak-RSS growth comes from the
    first operation only: the high-water mark it leaves hides the growth of
    later ones.
    """
    tree = _SpanTree(spans)
    roots = tree.children[None]
    setups = [tree.subtree(r) for r in roots if r.name == "bench.setup"]
    ops = [r for r in roots if r.name == "bench.op"]
    per_op = [_op_figures(tree, tree.subtree(r)) for r in ops]

    metrics = {name: statistics.median(f[name] for f in per_op) for name in per_op[0]}
    for name in EXACT_COUNTS + ("features.maxrss_delta_mb", "defenses.maxrss_delta_mb"):
        metrics[name] = per_op[0][name]
    first_on = {}
    unrepeated = set()
    for op, figures in zip(ops, per_op):
        first = first_on.setdefault(op.counts["dataset"], figures)
        unrepeated.update(n for n in EXACT_COUNTS if figures[n] != first[n])

    def setup_time(name):
        return statistics.median(
            sum(s.duration for s in spans if s.name == name) for spans in setups
        )

    metrics.update(
        {
            "synthgen.gen_s": setup_time("synthgen.gen_dataset"),
            "synthgen.packets": sum(
                s.counts["packets"] for s in setups[0] if s.name == "synthgen.gen_dataset"
            ),
            "trace.save_s": setup_time("trace.save_dataset"),
            "tracing.overhead_s": overhead_s,
        }
    )
    return {name: metrics[name] for name in PER_LAYER_UNITS}, sorted(unrepeated)
