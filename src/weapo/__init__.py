"""Weak supervision for binary classification from positive-only labeling functions.

Labeling functions that either vote positive or abstain carry a built-in
order: a record whose votes dominate another's has at least as much
positive evidence. This package fits a simplex-weighted label model that
respects that order, ships classical baselines adapted to the
abstain-as-negative convention, evaluates on the covered subset, trains
a feature-space end model on the resulting soft labels, and generates
seeded synthetic benchmarks with closed-form Bayes oracles.
"""

__version__ = "0.1.0"

from .baselines import (
    DSModel,
    FSModel,
    SignedVotes,
    convert_abstain,
    ds_fit,
    ds_posteriors,
    fs_fit,
    fs_fit_from_moments,
    fs_posteriors,
    mv_scores,
)
from .covering import (
    ConstraintMatrix,
    HasseEdge,
    SliceTable,
    build_slices,
    constraint_matrix,
    covers,
    hasse_edges,
)
from .data import (
    Dataset,
    DatasetFormatError,
    Prior,
    Record,
    VotePatterns,
    VoteVector,
    compress_votes,
    coverage_mask,
    load_dataset,
    save_dataset,
)
from .endmodel import (
    KRRModel,
    default_gamma,
    fit_krr,
    make_targets,
    predict_krr,
    rbf_kernel,
)
from .metrics import EvalResult, UndefinedMetricError, evaluate_label_model, pr_auc, roc_auc
from .model import (
    WeapoConfig,
    WeapoModel,
    fit,
    fit_supervised,
    objective,
    predict_dataset,
    project_simplex,
)
from .synth import (
    FeatureSpec,
    OracleTable,
    SyntheticSpec,
    generate,
    oracle_posteriors,
    population_moments,
)

__all__ = [
    "__version__",
    "ConstraintMatrix",
    "Dataset",
    "DatasetFormatError",
    "DSModel",
    "EvalResult",
    "FeatureSpec",
    "FSModel",
    "HasseEdge",
    "KRRModel",
    "OracleTable",
    "Prior",
    "Record",
    "SignedVotes",
    "SliceTable",
    "SyntheticSpec",
    "UndefinedMetricError",
    "VotePatterns",
    "VoteVector",
    "WeapoConfig",
    "WeapoModel",
    "build_slices",
    "compress_votes",
    "constraint_matrix",
    "convert_abstain",
    "coverage_mask",
    "covers",
    "default_gamma",
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
    "objective",
    "oracle_posteriors",
    "population_moments",
    "pr_auc",
    "predict_dataset",
    "predict_krr",
    "project_simplex",
    "rbf_kernel",
    "roc_auc",
    "save_dataset",
]
