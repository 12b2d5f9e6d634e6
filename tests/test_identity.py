"""The output-identity tool in its small-input mode."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "identity.py"


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
    # 21 output files and 19 commands per input set, and the 3 demos,
    # which write no files; every command and demo succeeded.
    assert (summary["files"], summary["logs"]) == (63, 60)
    assert summary["differing"] == summary["only_in_base"] == summary["only_in_head"] == []
    assert summary["failed_in_head"] == summary["newly_failed"] == []
    assert summary["src_lines"]["base"] == summary["src_lines"]["head"] > 0


def test_one_changed_output_digit_is_caught(tmp_path):
    """A copy whose eval reports one more record than it read differs in
    exactly the eval outputs."""
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
        for model in ("weapo", "weapo-noprior", "mv", "ds", "fs", "weapo-lam0", "weapo-lam3")
    )
    assert summary["only_in_base"] == summary["only_in_head"] == []


def test_a_command_that_fails_only_in_the_checked_tree_is_newly_failed(tmp_path):
    """A copied repo whose ``cmd_end`` raises, checked against this tree,
    lists both end commands of every input set as newly failed."""
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
