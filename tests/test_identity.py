"""The output-identity tool in its small-input mode, and its summary
helpers on hand-made file maps."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "identity.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("identity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_identity(base: Path, tool: Path = TOOL) -> tuple[int, dict]:
    result = subprocess.run(
        [sys.executable, str(tool), "--base-src", str(base), "--small"],
        capture_output=True, text=True, timeout=120,
    )
    return result.returncode, json.loads(result.stdout)


def test_tree_against_itself_is_identical():
    code, summary = run_identity(ROOT)
    assert code == 0 and summary["identical"]
    assert summary["input_sets"] == ["end-krr-seed1", "tall-m8-seed1", "wide-m16-seed1"]
    # 33 output files and 28 commands per input set, two of them through
    # the entry point, and the 3 demos, which write no files; every
    # command and demo succeeded.
    assert (summary["files"], summary["logs"]) == (99, 87)
    assert summary["differing"] == summary["only_in_base"] == summary["only_in_head"] == []
    assert summary["json_diff_paths"] == {}
    assert summary["failed_in_head"] == summary["newly_failed"] == []
    assert summary["src_lines"]["base"] == summary["src_lines"]["head"] > 0
    by_module = summary["src_lines_by_module"]
    assert by_module["base"] == by_module["head"] and "cli.py" in by_module["head"]
    for side in ("base", "head"):
        assert sum(by_module[side].values()) == summary["src_lines"][side]


def test_one_changed_output_digit_is_caught(tmp_path):
    """A copy whose eval reports one more record than it read differs in
    exactly the eval outputs, in-process and through the entry point."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "weapo" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count('"n_records": len(test),') == 1
    cli.write_text(text.replace('"n_records": len(test),', '"n_records": len(test) + 1,'),
                   encoding="utf-8")
    code, summary = run_identity(tmp_path)
    assert code == 1 and not summary["identical"]
    assert summary["differing"] == sorted(
        f"{name}/out/eval-{model}.json"
        for name in summary["input_sets"]
        for model in ("weapo", "weapo-noprior", "mv", "ds", "fs", "weapo-lam0", "weapo-lam3",
                      "ds-flags", "weapo-inband", "layout", "entry")
    )
    assert summary["only_in_base"] == summary["only_in_head"] == []
    assert summary["theta_max_abs_diff"] == {}
    assert summary["json_diff_paths"] == {name: ["n_records"] for name in summary["differing"]}


def test_theta_max_abs_diff_reads_only_theta_lists_of_one_length():
    """Only differing files whose JSON object holds a theta list of the
    same length in both trees are measured; logs, other JSON and theta
    lists of two lengths are skipped."""
    def fit_file(theta, objective=0.5):
        return json.dumps({"theta": theta, "diagnostics": {"objective": objective}}).encode()

    base = {"a/out/fit-weapo.json": fit_file([0.25, 0.75]),
            "a/out/fit-weapo-lam0.json": fit_file([0.5, 0.5]),
            "a/out/fit-weapo-lam3.json": fit_file([0.5, 0.5]),
            "a/out/fit-wide.json": fit_file([1.0]),
            "a/out/eval-weapo.json": b'{"roc_auc": 0.5}',
            "a/log/fit-weapo.stdout": b"wrote a/out/fit-weapo.json\n",
            "a/log/fit-weapo.exit": b"0"}
    head = dict(base, **{"a/out/fit-weapo.json": fit_file([0.25 + 2**-52, 0.75 - 2**-50]),
                         "a/out/fit-weapo-lam0.json": fit_file([0.5, 0.5], objective=0.25),
                         "a/out/fit-wide.json": fit_file([0.5, 0.5]),
                         "a/out/eval-weapo.json": b'{"roc_auc": 0.75}',
                         "a/log/fit-weapo.stdout": b"",
                         "a/log/fit-weapo.exit": b"1"})
    differing = sorted(name for name in base if base[name] != head[name])
    assert load_tool().theta_max_abs_diff(base, head, differing) == {
        "a/out/fit-weapo.json": 2**-50, "a/out/fit-weapo-lam0.json": 0.0}


def test_json_diff_paths_name_each_differing_key():
    """Only differing ``.json`` files that parse in both trees are walked;
    a key in one tree only, a changed leaf, a changed type and lists of
    two lengths are named by their dotted paths."""
    fit_file = {"theta": [0.5, 0.5], "config": {"lambda_reg": 1.0, "use_prior": True}}
    base = {"a/out/fit-weapo.json": json.dumps(
                {**fit_file, "config": {**fit_file["config"], "prior_weight": 1.0}}).encode(),
            "a/out/eval-weapo.json": b'{"result": {"roc_auc": 0.5, "n": 1}, "rows": [1, 2]}',
            "a/out/fit-ds.json": b'{"theta": [0.5, 0.5]}',
            "a/out/krr.json": b"[1.0]",
            "a/log/compare.stdout": b'{"rows": []}'}
    head = {"a/out/fit-weapo.json": json.dumps(fit_file).encode(),
            "a/out/eval-weapo.json": b'{"result": {"roc_auc": 0.75, "n": 1.0}, "rows": [1]}',
            "a/out/fit-ds.json": b"not json",
            "a/out/krr.json": b"[2.0]",
            "a/log/compare.stdout": b'{"rows": [1]}'}
    assert load_tool().json_diff_paths(base, head, sorted(base)) == {
        "a/out/fit-weapo.json": ["config.prior_weight"],
        "a/out/eval-weapo.json": ["result.n", "result.roc_auc", "rows"],
        "a/out/krr.json": ["0"]}


def test_a_command_that_fails_only_in_the_checked_tree_is_newly_failed(tmp_path):
    """A copied repo whose ``cmd_end`` raises, checked against this tree,
    lists both end commands of every input set as newly failed, and its
    one added line in ``cli.py`` and no other module."""
    ignore = shutil.ignore_patterns("__pycache__")
    for part in ("src", "tools", "perfbench", "demos"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=ignore)
    cli = tmp_path / "src" / "weapo" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count("def cmd_end(args) -> int:\n") == 1
    cli.write_text(text.replace("def cmd_end(args) -> int:\n",
                                "def cmd_end(args) -> int:\n    raise RuntimeError('broken')\n"),
                   encoding="utf-8")
    code, summary = run_identity(ROOT, tmp_path / "tools" / "identity.py")
    assert code == 1 and not summary["identical"]
    expected = sorted(f"{name}/log/{command}" for name in summary["input_sets"]
                      for command in ("end", "end-gamma"))
    assert summary["newly_failed"] == summary["failed_in_head"]
    assert sorted(summary["newly_failed"]) == expected
    assert summary["src_lines"]["head"] == summary["src_lines"]["base"] + 1
    base, head = summary["src_lines_by_module"]["base"], summary["src_lines_by_module"]["head"]
    assert base.keys() == head.keys()
    assert {name: head[name] - base[name] for name in head if head[name] != base[name]} == {
        "cli.py": 1}
