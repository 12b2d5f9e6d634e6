"""The names ``weapo`` exports and the README code that uses them."""

import importlib
import re
from pathlib import Path

import pytest

import weapo

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC_NAMES = {
    "__version__",
    "DatasetFormatError",
    "UndefinedMetricError",
    "Dataset",
    "DSModel",
    "FeatureSpec",
    "Prior",
    "Record",
    "SliceTable",
    "SyntheticSpec",
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
}


def test_all_is_the_documented_surface():
    assert len(weapo.__all__) == len(PUBLIC_NAMES) == 36
    assert set(weapo.__all__) == PUBLIC_NAMES
    readme = README.read_text(encoding="utf-8")
    stated = re.findall(r"offers the (\d+) names in `weapo.__all__`", readme)
    assert stated == [str(len(weapo.__all__))]


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from weapo import *", namespace)
    assert PUBLIC_NAMES <= namespace.keys()


def test_readme_module_names_exist():
    """Each name README says is imported from a module is an attribute of
    the ``weapo.<module>`` its clause names."""
    readme = " ".join(README.read_text(encoding="utf-8").split())
    sentence = re.search(r"Other public names are imported from their modules: (.*?)\. ", readme)
    for clause in sentence.group(1).split("; "):
        names, module = re.match(r"(.*?) from `weapo\.(\w+)`", clause).groups()
        listed = re.findall(r"`(\w+)`", names)
        assert listed
        for name in listed:
            assert hasattr(importlib.import_module(f"weapo.{module}"), name), (module, name)


def readme_python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_blocks():
    assert readme_python_blocks()


@pytest.mark.parametrize("index", range(len(readme_python_blocks())))
def test_readme_python_block_runs(index):
    exec(compile(readme_python_blocks()[index], f"README.md block {index}", "exec"), {})
