"""Weak supervision for binary classification from positive-only labeling functions.

Labeling functions that either vote positive or abstain carry a built-in
order: a record whose votes dominate another's has at least as much
positive evidence. This package fits a simplex-weighted label model that
respects that order, ships classical baselines adapted to the
abstain-as-negative convention, evaluates on the covered subset, trains
a feature-space end model on the resulting soft labels, and generates
seeded synthetic benchmarks with closed-form Bayes oracles.

The top level holds the names the README, the demos and the acceptance
tests use; every other public name is imported from its module, e.g.
``weapo.endmodel.rbf_kernel``.
"""

__version__ = "0.1.0"

from .baselines import (
    DSModel,
    convert_abstain,
    ds_fit,
    ds_posteriors,
    fs_fit,
    fs_fit_from_moments,
    fs_posteriors,
    mv_scores,
)
from .covering import SliceTable, build_slices, constraint_matrix, covers, hasse_edges
from .data import (
    Dataset,
    DatasetFormatError,
    Prior,
    Record,
    coverage_mask,
    load_dataset,
    save_dataset,
)
from .endmodel import fit_krr, make_targets, predict_krr
from .metrics import UndefinedMetricError, evaluate_label_model, pr_auc, roc_auc
from .model import WeapoConfig, fit, fit_supervised, predict_dataset
from .synth import (
    FeatureSpec,
    SyntheticSpec,
    generate,
    oracle_posteriors,
    population_moments,
)

__all__ = [
    "__version__",
    "Dataset",
    "DatasetFormatError",
    "DSModel",
    "FeatureSpec",
    "Prior",
    "Record",
    "SliceTable",
    "SyntheticSpec",
    "UndefinedMetricError",
    "WeapoConfig",
    "build_slices",
    "constraint_matrix",
    "convert_abstain",
    "coverage_mask",
    "covers",
    "ds_fit",
    "ds_posteriors",
    "evaluate_label_model",
    "fit",
    "fit_krr",
    "fit_supervised",
    "fs_fit",
    "fs_fit_from_moments",
    "fs_posteriors",
    "generate",
    "hasse_edges",
    "load_dataset",
    "make_targets",
    "mv_scores",
    "oracle_posteriors",
    "population_moments",
    "pr_auc",
    "predict_dataset",
    "predict_krr",
    "roc_auc",
    "save_dataset",
]
