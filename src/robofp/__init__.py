"""Traffic fingerprinting toolkit for teleoperated robot command streams.

Modules: trace (capture I/O), synthgen (deterministic synthetic captures),
sigproc (binning, scanning, cluster detection), features (per-trace
vectors), classifier (boosted trees + stratified CV), defenses (padding and
constant-rate modulation), harness (experiments), cli (command line).
"""

from .classifier import GBDTClassifier, GBDTParams, cross_validate, stratified_folds
from .defenses import (
    CONTROLLER_LATENCY_BUDGET,
    MODULATION_INTERVALS,
    DefendedTrace,
    ModulationConfig,
    PaddingConfig,
    apply_defense,
    modulation_preset,
    pad_packet,
    segment_plan,
)
from .features import (
    FeatureMatrix,
    FeatureSchema,
    SigprocConfig,
    compute_features,
    featurize_dataset,
    make_schema,
    read_feature_csv,
    write_feature_csv,
)
from .harness import (
    ExperimentConfig,
    modulation_sweep,
    padding_sweep,
    run_attack_experiment,
    threshold_sweep,
)
from .sigproc import (
    CommandKind,
    Kernel,
    KernelBank,
    bin_trace,
    cluster_statistics,
    convolve,
    detect_clusters,
    extract_kernel,
    sliding_correlation,
)
from .synthgen import GenConfig, default_kernel_bank, gen_action, gen_dataset, trace_rng
from .trace import (
    MTU,
    ActionLabel,
    Dataset,
    Trace,
    load_dataset,
    parse_trace_csv,
    read_trace,
    save_dataset,
    save_trace,
    write_trace_csv,
)

__version__ = "0.1.0"

__all__ = [
    "ActionLabel",
    "CONTROLLER_LATENCY_BUDGET",
    "CommandKind",
    "Dataset",
    "DefendedTrace",
    "ExperimentConfig",
    "FeatureMatrix",
    "FeatureSchema",
    "GBDTClassifier",
    "GBDTParams",
    "GenConfig",
    "Kernel",
    "KernelBank",
    "MODULATION_INTERVALS",
    "MTU",
    "ModulationConfig",
    "PaddingConfig",
    "SigprocConfig",
    "Trace",
    "apply_defense",
    "bin_trace",
    "cluster_statistics",
    "compute_features",
    "convolve",
    "cross_validate",
    "default_kernel_bank",
    "detect_clusters",
    "extract_kernel",
    "featurize_dataset",
    "gen_action",
    "gen_dataset",
    "load_dataset",
    "make_schema",
    "modulation_preset",
    "modulation_sweep",
    "pad_packet",
    "padding_sweep",
    "parse_trace_csv",
    "read_feature_csv",
    "read_trace",
    "run_attack_experiment",
    "save_dataset",
    "save_trace",
    "segment_plan",
    "sliding_correlation",
    "stratified_folds",
    "threshold_sweep",
    "trace_rng",
    "write_feature_csv",
    "write_trace_csv",
]
