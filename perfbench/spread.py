"""Run the benchmark on several seeds and report how far each metric spreads.

    python3 perfbench/spread.py --workloads attack modulation_fine \\
        --seeds 1 2 3 4 5 6 7 8 9 10
    python3 perfbench/spread.py --workloads attack --seeds 42 7 --trace 1

Runs ``BENCHMARK.json``'s command once per (workload, seed), one process at
a time (two modulation_fine processes would need about 4.8 GB), for
``run_seconds``.  Untraced, it prints per end-to-end metric the
median, the quartile spread ``(q3 - q1) / median`` (quartiles as
``statistics.quantiles(values, n=4)`` gives them) and the metric's bound;
a spread above a third of its bound is flagged.  Traced, it runs every
seed twice and lists each count metric that differs between the two.
Every run's result line is appended to ``.perfbench_work/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [
        *bench["command"],
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    with (ROOT / ".perfbench_work" / "spread.jsonl").open("a") as log:
        log.write(json.dumps({"workload": workload, "seed": seed, "trace": trace, **result}) + "\n")
    return result


def quartile_spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    ok = True
    for workload in args.workloads:
        if args.trace:
            for seed in args.seeds:
                first, second = (run_once(bench, workload, seed, 1) for _ in range(2))
                differ = [
                    name
                    for name, m in first["metrics"].items()
                    if m["unit"] == "count" and m["value"] != second["metrics"][name]["value"]
                ]
                ok &= first["correct"] and second["correct"] and not differ
                print(f"{workload} seed {seed}: counts differing between two runs: {differ or 'none'}")
            continue
        results = [run_once(bench, workload, seed, 0) for seed in args.seeds]
        ok &= all(r["correct"] and r["failed"] == 0 for r in results)
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            spread = quartile_spread(values)
            flag = "" if spread < metric["bound"] / 3 else "  ABOVE bound/3"
            print(
                f"{workload:16s} {metric['name']:12s} median {statistics.median(values):10.4f} "
                f"spread {spread:.4f} bound {metric['bound']}{flag}"
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
