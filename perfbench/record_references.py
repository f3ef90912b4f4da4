"""Record the reference output fingerprints that run.py checks operations against.

    python3 perfbench/record_references.py --seeds 42 7

Runs one operation of every workload on each dataset of each seed, in this
process and one after another, checks its invariants and writes ``references.json``.  Run it
only when a change to robofp is meant to change an output, and say so.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as w  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args()
    refs = {"workloads": {name: {} for name in w.WORKLOADS}}
    work = HERE.parent / ".perfbench_work"
    work.mkdir(exist_ok=True)
    for seed in (s for run_seed in args.seeds for s in w.dataset_seeds(run_seed)):
        run_dir = Path(tempfile.mkdtemp(prefix="reference-", dir=work))
        try:
            inputs = w.setup(seed, run_dir / "captures")
            config = w.experiment_config(seed, inputs)
            for name in w.WORKLOADS:
                result = w.OPERATIONS[name](config)
                doc = w.output_doc(name, result)
                problems = w.invariant_problems(name, doc, inputs)
                if problems:
                    print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                entry = {"sha256": w.fingerprint(doc), "summary": w.summary(name, doc)}
                refs["workloads"][name][str(seed)] = entry
                print(name, seed, json.dumps(entry))
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    w.REFERENCES.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
