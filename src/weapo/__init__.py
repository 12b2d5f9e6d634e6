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
``weapo.endmodel.rbf_kernel``. Loading the package imports no module
and so no numpy: each name, and each module as ``weapo.<module>``, is
imported on its first use.
"""

import importlib

__version__ = "0.1.0"

# The public names of each module.
_EXPORTS = {
    "baselines": ("DSModel", "convert_abstain", "ds_fit", "ds_posteriors", "fs_fit",
                  "fs_fit_from_moments", "fs_posteriors", "mv_scores"),
    "covering": ("SliceTable", "build_slices", "constraint_matrix", "covers", "hasse_edges"),
    "data": ("Dataset", "DatasetFormatError", "Prior", "Record", "coverage_mask",
             "load_dataset", "save_dataset"),
    "endmodel": ("fit_krr", "make_targets", "predict_krr"),
    "metrics": ("UndefinedMetricError", "evaluate_label_model", "pr_auc", "roc_auc"),
    "model": ("WeapoConfig", "fit", "fit_supervised", "predict_dataset"),
    "synth": ("FeatureSpec", "SyntheticSpec", "generate", "oracle_posteriors",
              "population_moments"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name in _EXPORTS:
        # Importing a submodule binds it on the package.
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
