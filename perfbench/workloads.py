"""The benchmark's workloads: set-up, one operation each, and output checks.

Every workload works on the same inputs: datasets of 200 captures (50 per
action) generated from seeds derived from the benchmark seed, written as CSV
files plus a manifest, and read back through ``ExperimentConfig.manifest``
as real captures are.  All calls go through module attributes
(``harness.run_attack_experiment``, not a name imported into this file), so
the traced run's wrappers see them.

The check reduces an operation's output to a JSON document whose SHA-256
is held against ``references.json`` for the recorded seeds, and against the
first operation of the run otherwise; invariants that hold for every seed
are checked on each operation as well.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from robofp import defenses, harness, synthgen, trace

WORKLOADS = ("attack", "modulation_fine")
SAMPLES_PER_CLASS = 50
N_TRACES = 4 * SAMPLES_PER_CLASS
# A run cycles its operations over several datasets made from its seed, so
# that one seed's easy or hard data moves its figures less; the first is the
# seed's own dataset (seed 42 gives the paper's c01 data).
DATASETS = 3
DATASET_STRIDE = 1_000_000
MOD_DUMMY_SIZE = 500
MOD_INTERVAL = 0.0001  # the c07 operating point, t_i = 0.1 ms

REFERENCES = Path(__file__).with_name("references.json")


def dataset_seeds(seed: int) -> list[int]:
    return [seed + k * DATASET_STRIDE for k in range(DATASETS)]


def setup(seed: int, out_dir: Path) -> dict:
    """Generate the seed's captures, build the kernel bank, write the manifest."""
    dataset = synthgen.gen_dataset(
        synthgen.GenConfig(seed=seed, samples_per_class=SAMPLES_PER_CLASS)
    )
    bank = synthgen.default_kernel_bank()
    manifest = trace.save_dataset(dataset, out_dir)
    return {"manifest": str(manifest), "kernel_fingerprint": bank.fingerprint()}


def experiment_config(seed: int, inputs: dict) -> harness.ExperimentConfig:
    # workers pinned so that an inherited ROBOFP_WORKERS cannot change the load
    return harness.ExperimentConfig(seed=seed, manifest=inputs["manifest"], workers=1)


def op_attack(config):
    return harness.run_attack_experiment(config)


def op_modulation_fine(config):
    return harness.modulation_sweep(
        config, dummy_sizes=(MOD_DUMMY_SIZE,), intervals=(MOD_INTERVAL,)
    )


OPERATIONS = {
    "attack": op_attack,
    "modulation_fine": op_modulation_fine,
}


def output_doc(workload: str, result) -> dict:
    """The part of an operation's output that the check compares."""
    if workload == "attack":
        # report_digest would embed config.manifest, which names the capture directory
        keys = ("n_traces", "kernel_fingerprint", "schema_fingerprint", "cv", "top_features")
        return {k: result[k] for k in keys}
    return {"rows": result}


def fingerprint(output: dict) -> str:
    return hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()


def summary(workload: str, output: dict) -> dict:
    """The few readable fields kept beside a reference fingerprint."""
    if workload == "attack":
        return {"accuracy": output["cv"]["accuracy"]}
    return output["rows"][0]


def invariant_problems(workload: str, output: dict, inputs: dict) -> list[str]:
    """Properties every seed's output must have, reference or not."""
    problems = []
    if workload == "attack":
        cv = output["cv"]
        total = sum(map(sum, cv["confusion"]))
        hits = sum(cv["confusion"][i][i] for i in range(len(cv["classes"])))
        if output["n_traces"] != N_TRACES or total != N_TRACES:
            problems.append(f"expected {N_TRACES} traces, got {output['n_traces']} / {total}")
        if not math.isclose(cv["accuracy"], hits / total):
            problems.append("accuracy disagrees with the confusion matrix")
        if output["kernel_fingerprint"] != inputs["kernel_fingerprint"]:
            problems.append("report used another kernel bank than set-up built")
        if len(output["top_features"]) != harness.TOP_FEATURES:
            problems.append(f"{len(output['top_features'])} top features")
    else:
        (row,) = output["rows"]
        limit = defenses.CONTROLLER_LATENCY_BUDGET + MOD_INTERVAL
        if (row["s_p"], row["t_i"]) != (MOD_DUMMY_SIZE, MOD_INTERVAL):
            problems.append(f"sweep row for the wrong point: {row}")
        if not 0.0 <= row["accuracy"] <= 1.0:
            problems.append(f"accuracy {row['accuracy']} outside [0, 1]")
        if not row["overhead"] > 0.0:
            problems.append(f"overhead {row['overhead']} is not positive")
        if not row["max_added_latency"] <= limit + 1e-9:
            problems.append(f"max_added_latency {row['max_added_latency']} > L + t_i = {limit}")
    return problems


def load_reference(workload: str, seed: int) -> str | None:
    """The recorded output fingerprint for this dataset seed, if one was recorded."""
    refs = json.loads(REFERENCES.read_text())
    entry = refs["workloads"].get(workload, {}).get(str(seed))
    return entry["sha256"] if entry else None
