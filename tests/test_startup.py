"""What each launch imports: a command loads only the weapo modules it
uses, ``import weapo``, ``--version``, ``--help`` and argparse's
usage errors load no numpy, and fitting and comparing load no
``numpy.ma``. Each check runs a fresh interpreter, since
this one has every module loaded already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weapo
import weapo.model
from weapo.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs ``weapo.cli.main`` on the JSON argv in argv[1] (or only imports the
# package when it is null) and prints the exit code and the loaded module
# names as the last line of stdout.
CHILD = """
import json, sys
argv = json.loads(sys.argv[1])
if argv is None:
    import weapo
    code = None
else:
    from weapo.cli import main
    code = main(argv)
print(json.dumps([code, sorted(sys.modules)]))
"""


def launch(argv: list[str] | None, cwd: Path | None = None) -> tuple[int | None, set[str]]:
    """The exit code of ``main(argv)`` in a fresh interpreter and the
    modules loaded when it returned."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv)], env=env,
                            cwd=cwd, capture_output=True, text=True, check=True)
    code, modules = json.loads(result.stdout.splitlines()[-1])
    return code, set(modules)


def numpy_modules(modules: set[str]) -> set[str]:
    return {name for name in modules if name == "numpy" or name.startswith("numpy.")}


@pytest.mark.parametrize("argv, code", [
    (["--version"], 0),
    (["--help"], 0),
    (["fit", "--help"], 0),
    (["fit"], 2),
    (None, None),
], ids=["version", "help", "fit-help", "usage-error", "import-weapo"])
def test_no_numpy_before_a_command_runs(argv, code):
    returned, modules = launch(argv)
    assert returned == code
    assert numpy_modules(modules) == set()


LAW = ["--n", "200", "--p-plus", "0.4", "--tpr", "0.75,0.65,0.55",
       "--fpr", "0.15,0.1,0.05", "--mu-pos", "1,1", "--mu-neg=-1,-1", "--sigma", "1.0"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A featured train/test pair and a weapo model fitted on the train."""
    root = tmp_path_factory.mktemp("startup")
    for split, seed in (("train", 1), ("test", 2)):
        assert main(["synth", *LAW, "--seed", str(seed), "--out", f"{root}/{split}.jsonl",
                     "--quiet"]) == 0
    assert main(["fit", f"{root}/train.jsonl", "--model", "weapo", "--prior", "0.4",
                 "--out", f"{root}/model.json", "--quiet"]) == 0
    return root


@pytest.mark.parametrize("argv, unused", [
    (["fit", "train.jsonl", "--model", "weapo", "--prior", "0.4", "--out", "again.json"],
     {"endmodel", "synth", "covering", "metrics", "baselines"}),
    (["eval", "model.json", "test.jsonl", "--out", "eval.json"],
     {"endmodel", "synth", "covering", "baselines"}),
    (["end", "model.json", "train.jsonl", "test.jsonl", "--out", "end.json"],
     {"synth", "covering", "baselines"}),
    (["synth", *LAW, "--seed", "3", "--out", "synth.jsonl"],
     {"endmodel", "covering", "metrics", "model", "baselines"}),
    (["fit", "train.jsonl", "--model", "ds", "--out", "ds.json"],
     {"endmodel", "synth", "covering", "metrics"}),
    (["compare", "train.jsonl", "test.jsonl", "--models", "weapo,weapo-noprior,mv,ds,fs",
      "--prior", "0.4", "--oracle", "train.jsonl.oracle.json", "--out", "compare.json"],
     {"endmodel", "covering"}),
], ids=["fit-weapo", "eval", "end", "synth", "fit-ds", "compare"])
def test_command_loads_only_its_modules(files, argv, unused):
    """No command loads ``weapo.covering``: every fit reads the vote table alone."""
    code, modules = launch([*argv, "--quiet"], cwd=files)
    assert code == 0
    assert {f"weapo.{name}" for name in unused} & modules == set()


# A weapo fit whose prior lies inside the band, so that it takes the root
# of the dual path rather than a face: the prior 0.4 above lies above
# every firing rate of the train file.
IN_BAND = ["fit", "train.jsonl", "--model", "weapo", "--lambda-reg", "0", "--prior", "0.3",
           "--out", "inband.json"]


def test_the_in_band_fit_takes_the_root(files, capsys, monkeypatch):
    """No band warning, and one projection at the root, not a face."""
    monkeypatch.chdir(files)
    assert main([*IN_BAND, "--quiet"]) == 0
    assert "band" not in capsys.readouterr().err
    assert json.loads((files / "inband.json").read_text())["diagnostics"]["iterations"] == 1


@pytest.mark.parametrize("argv", [
    ["fit", "train.jsonl", "--model", "weapo", "--prior", "0.4", "--out", "again.json"],
    IN_BAND,
    ["fit", "train.jsonl", "--model", "fs", "--prior", "0.4", "--out", "fs.json"],
    ["compare", "train.jsonl", "test.jsonl", "--models", "weapo,weapo-noprior,mv,ds,fs",
     "--prior", "0.4", "--oracle", "train.jsonl.oracle.json", "--out", "compare.json"],
], ids=["fit-weapo", "fit-weapo-in-band", "fit-fs", "compare"])
def test_fit_and_compare_load_no_masked_arrays(files, argv):
    """``np.unique`` and ``np.median`` import ``numpy.ma`` on their first
    call; the fits, in the band and on a face, and the comparison use
    neither."""
    code, modules = launch([*argv, "--quiet"], cwd=files)
    assert code == 0
    assert {name for name in modules if name == "numpy.ma" or name.startswith("numpy.ma.")} == set()


def test_names_resolve_to_their_modules():
    assert weapo.fit is weapo.model.fit
    assert set(weapo.__all__) <= set(dir(weapo))


def test_submodule_resolves_after_a_bare_import():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = "import weapo; print(weapo.endmodel.fit_krr.__module__)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout == "weapo.endmodel\n"


def test_module_resolves_after_its_attribute_is_dropped(monkeypatch):
    """``weapo.<module>`` that is not bound on the package is imported by
    its ``__getattr__``, which returns the module already loaded."""
    monkeypatch.delattr(weapo, "covering", raising=False)
    assert weapo.covering is sys.modules["weapo.covering"]


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        weapo.nope
