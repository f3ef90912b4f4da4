"""robofp benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload attack --seed 42 --seconds 30 --trace 0

Run from the root of a source checkout; robofp is imported from ``src/``.
Set-up makes ``workloads.DATASETS`` datasets from the seed: for each, it
generates 200 captures, builds the kernel bank and writes the manifest.
Operations then run back to back on the datasets in turn, each starting
when the previous one has returned, for as long as the next one is
expected to end within ``--seconds`` (at least one runs).  Every
operation's output is checked (see ``workloads.py``).

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median set-up),
``op_s`` (median operation), ``op_s_tail`` (the highest percentile with at
least ten operations beyond it; the slowest operation when that percentile
would not lie above the median, i.e. when twenty or fewer ran) and
``peak_rss_mb`` (the process's ``ru_maxrss``).  Set-ups and operations of
up to ten seconds are timed as wall times scaled to a fixed host speed by
the probe run around each of them, longer ones as wall times (see
``probe.py``); the unscaled wall times go to the details.
``--trace 1`` follows each traced operation with an untraced one on the
same dataset and prints the per-layer metrics of ``tracing.py``; its
``tracing.overhead_s`` is the median traced minus the median untraced
operation.

The last line of standard output is the result object; details (machine
identity, every operation's time, failures) go to standard error and, with
the spans of a traced run, to ``.perfbench_work/results/``.  The exit code
is 0 only when every operation passed its check; it is 2 when the
checkout has no robofp sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# workloads.WORKLOADS, which cannot be imported before the thread caps are set
WORKLOAD_NAMES = ("attack", "modulation_fine")


def cap_threads(nproc: int) -> None:
    """Keep BLAS/OpenMP pools at or below nproc; must run before numpy loads."""
    for var in THREAD_VARS:
        try:
            n = int(os.environ.get(var, ""))
        except ValueError:
            n = nproc
        os.environ[var] = str(min(max(n, 1), nproc))


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def mem_total_kb() -> int | None:
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def machine_identity(nproc: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "mem_total_kb": mem_total_kb(),
        "machine": platform.machine(),
        "git_commit": git_commit(ROOT),
        "src_sha256": source_digest(SRC),
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
    }


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With twenty samples or fewer that percentile is the median or below,
    which is no tail; the slowest sample stands in, as percentile 100.
    """
    ranked = sorted(durations)
    n = len(ranked)
    if n <= 20:
        return ranked[-1], 100.0
    return ranked[n - 11], 100.0 * (n - 10) / n


class Run:
    """One benchmark process: set-up, the operations, their output checks."""

    def __init__(self, workload: str, seed: int, run_dir: Path, tracer=None):
        import workloads  # imports robofp and numpy, so only once the thread caps are set

        self.w = workloads
        self.workload = workload
        self.seeds = workloads.dataset_seeds(seed)
        self.run_dir = run_dir
        self.tracer = tracer
        # per dataset: recorded fingerprint, else the first operation's
        self.references = [workloads.load_reference(workload, s) for s in self.seeds]
        self.recorded = [r is not None for r in self.references]
        self.inputs: list[dict] = []
        self.configs: list = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def _span(self, name):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def setup(self, k: int) -> float:
        """Set up dataset k (in order); returns its wall seconds."""
        t0 = time.perf_counter()
        with self._span("bench.setup"):
            inputs = self.w.setup(self.seeds[k], self.run_dir / f"captures{k}")
        elapsed = time.perf_counter() - t0
        config = self.w.experiment_config(self.seeds[k], inputs)
        if self.w.harness.resolve_workers(config) != 1:
            raise SystemExit("the operation would not run on one worker")
        self.inputs.append(inputs)
        self.configs.append(config)
        return elapsed

    def op(self, k: int, traced: bool = False) -> float:
        """Run one operation on dataset k and check it; returns its wall seconds."""
        self.attempted += 1
        fn = self.w.OPERATIONS[self.workload]
        t0 = time.perf_counter()
        try:
            if traced:
                with self.tracer.span("bench.op") as span:
                    span.counts = {"dataset": k}
                    result = fn(self.configs[k])
            else:
                result = fn(self.configs[k])
        except Exception as e:  # a failed operation is counted, not fatal
            elapsed = time.perf_counter() - t0
            self._fail(f"operation {self.attempted} raised {e!r}")
            return elapsed
        elapsed = time.perf_counter() - t0
        self._check(k, self.w.output_doc(self.workload, result))
        return elapsed

    def _check(self, k: int, doc: dict) -> None:
        problems = self.w.invariant_problems(self.workload, doc, self.inputs[k])
        digest = self.w.fingerprint(doc)
        if self.references[k] is None and not problems:
            self.references[k] = digest
        if self.references[k] is not None and digest != self.references[k]:
            source = "references.json" if self.recorded[k] else "the first operation"
            problems.append(f"output {digest[:16]} differs from {source}")
        if problems:
            self._fail(f"operation {self.attempted} (seed {self.seeds[k]}): " + "; ".join(problems))

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


def measure(run: Run, seconds: float, install=None, clock=None) -> dict:
    """Set-up and the operation loop; pass ``install`` or ``clock``, not both.

    ``install`` (traced runs) wraps the library; ``clock`` (untraced runs,
    a ``probe.HostClock``) probes the host speed after every set-up and
    operation, and ``scaled_setup_times`` and ``scaled_durations`` are their
    wall times at the probe's reference speed.  The loop runs rounds: one
    operation in an untraced run; in a traced run, a traced operation and
    then an untraced one on the same dataset, so that the two differ only by
    the tracing.  A round starts only if a round of average length would end
    within ``seconds``; the first always runs.  ``durations`` are the
    operations the metrics come from: all of them untraced, the traced ones
    traced, whose partners go to ``untraced_durations``.
    """
    figures = {"setup_times": [], "durations": [], "untraced_durations": []}
    if clock:
        figures.update(scaled_setup_times=[], scaled_durations=[])
    uninstall = install() if install else None
    for k in range(len(run.seeds)):
        figures["setup_times"].append(run.setup(k))
        if clock:
            figures["scaled_setup_times"].append(clock.scaled(figures["setup_times"][-1]))
    if uninstall:
        uninstall()
    durations, untraced = figures["durations"], figures["untraced_durations"]
    start = time.perf_counter()
    while True:
        k = len(durations) % len(run.seeds)
        if clock:
            durations.append(run.op(k))
            figures["scaled_durations"].append(clock.scaled(durations[-1]))
        else:
            uninstall = install()
            try:
                durations.append(run.op(k, traced=True))
            finally:
                uninstall()
            untraced.append(run.op(k))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(durations) > seconds:
            break
    if clock:
        figures["probe_times"] = clock.probes
    return figures


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "robofp" / "__init__.py").is_file():
        print(f"perfbench: no robofp sources under {SRC}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    # one CPU: the operations run on one thread, and the host probe must
    # time the CPU they run on (see probe.py)
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    cap_threads(1)
    sys.path.insert(0, str(SRC))
    import probe  # imports numpy
    import tracing

    tracer = tracing.Tracer() if args.trace else None
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        run = Run(args.workload, args.seed, run_dir, tracer)
        if tracer:
            figures = measure(run, args.seconds, install=lambda: tracing.install(tracer))
        else:
            with probe.HostClock() as clock:
                figures = measure(run, args.seconds, clock=clock)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    durations = figures["durations"]
    if args.trace:
        overhead = statistics.median(durations) - statistics.median(figures["untraced_durations"])
        values, unrepeated = tracing.layer_metrics(tracer.spans, overhead)
        run.problems += [f"count {n} differs between operations" for n in unrepeated]
        metrics = {n: {"value": v, "unit": tracing.PER_LAYER_UNITS[n]} for n, v in values.items()}
    else:
        scaled = figures["scaled_durations"]
        tail_value, tail_pct = tail(scaled)
        metrics = {
            "setup_s": {"value": statistics.median(figures["scaled_setup_times"]), "unit": "s"},
            "op_s": {"value": statistics.median(scaled), "unit": "s"},
            "op_s_tail": {"value": tail_value, "unit": "s"},
            "peak_rss_mb": {"value": tracing.maxrss_kb() / 1024, "unit": "MB"},
        }
    correct = not run.problems
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_identity(nproc),
        "cpu": cpu,
        "dataset_seeds": run.seeds,
        "recorded_references": run.recorded,
        "failed_op_share": run.failed / run.attempted,
        "problems": run.problems,
        "op_count": len(durations),
        "op_s_tail_percentile": None if args.trace else tail_pct,
        **figures,
        "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    doc = dict(detail, spans=tracer.to_doc() if tracer else [])
    out.write_text(json.dumps(doc) + "\n")
    print(json.dumps({k: v for k, v in detail.items() if k != "metrics"}), file=sys.stderr)
    print(
        json.dumps(
            {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
