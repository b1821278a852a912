"""Federated evaluation and calibration of binary classifiers.

Clients hold labeled scores; a server learns only aggregated
hierarchical count structures, under exact secure aggregation,
distributed discrete-Laplace noise, or local randomization. From those
structures the package builds equi-depth score histograms and computes
AUC, threshold metrics, and calibration maps with explicit uncertainty
accounting, plus an experiment harness and CLI for error-scaling
studies against exact centralized baselines.
"""

from .calibration import (
    CalibrationMap,
    EceReport,
    apply_calibration_batch,
    calibrate_bbq,
    calibrate_histogram,
    ece_arrays,
)
from .core import (
    ClientSplit,
    DegenerateEstimateError,
    InsufficientPopulationError,
    Label,
    PrivacySpec,
    Regime,
    ScoreDistribution,
    Spike,
)
from .datagen import sample_population, split_population
from .hierarchy import (
    HierarchicalCounts,
    ScoreHistogram,
    build_hierarchy,
    build_score_histogram,
)
from .io import DataFileError, read_columns, write_columns
from .metrics import AucEstimate, PraEstimate, auc_histogram, pra_threshold
from .sweep import (
    SweepConfig,
    SweepConfigError,
    SweepResultRow,
    parse_sweep_config,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "AucEstimate",
    "CalibrationMap",
    "ClientSplit",
    "DataFileError",
    "DegenerateEstimateError",
    "EceReport",
    "HierarchicalCounts",
    "InsufficientPopulationError",
    "Label",
    "PraEstimate",
    "PrivacySpec",
    "Regime",
    "ScoreDistribution",
    "ScoreHistogram",
    "Spike",
    "SweepConfig",
    "SweepConfigError",
    "SweepResultRow",
    "apply_calibration_batch",
    "auc_histogram",
    "build_hierarchy",
    "build_score_histogram",
    "calibrate_bbq",
    "calibrate_histogram",
    "ece_arrays",
    "parse_sweep_config",
    "pra_threshold",
    "read_columns",
    "run_sweep",
    "sample_population",
    "split_population",
    "write_columns",
]
