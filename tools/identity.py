"""Check that two source trees of weapo write byte-identical outputs.

Run from anywhere; the tree this script sits in is the one checked:

    python tools/identity.py --base REV          # against a git revision
    python tools/identity.py --base-src DIR      # against another checkout
    python tools/identity.py --base-src DIR --small

The inputs come from the benchmark's own seeded generator,
``perfbench/workloads.py::make_inputs``, for the workloads tall-m8,
wide-m16 and end-krr with seeds 1 and 7. ``--small`` draws each workload
at a few hundred records with seed 1 only, which takes seconds. On every
input set both trees run the same commands:

* ``synth --spec``;
* ``fit`` and ``eval`` of weapo, weapo-noprior, mv, ds and fs, and of
  weapo at ``--lambda-reg 0`` and at ``--lambda-reg 3 --prior-weight 3``;
* ``compare`` of all five with ``--oracle``;
* ``end`` with the weapo model, without and with ``--gamma 0.3 --alpha 0.5``;
* ``fit_krr`` on the end-train features, with the gold labels as targets,
  the default gamma and ``alpha = 1``, whose dual coefficients it writes
  to ``out/krr-coefficients.npy``: ``end`` records only AUCs, which
  would not show a change in the exact solve's last bits.

Both trees also run every ``demos/*.py`` of the checked tree, each as a
process of its own with the tree's package first on ``PYTHONPATH``; the
demos write no files, so their stdout, stderr and exit code are compared.

Each tree runs in a directory of its own that holds a copy of the
inputs, and every path on a command line is relative to it, so outputs
that record their own paths match. The commands of one tree run in one
process through ``weapo.cli.main``, with stdout and stderr captured.
Every output file is compared byte for byte, and so are the stdout,
stderr and exit code of every command. The summary is one JSON object on
stdout. It also lists the commands and demos that failed on the checked
tree, those of them that exit 0 on the base tree (``newly_failed``), and
the lines of ``src/weapo/*.py`` in each tree (``src_lines``). The exit
code is 1 when anything differs and 0 otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS, make_inputs  # noqa: E402

MODELS = ("weapo", "weapo-noprior", "mv", "ds", "fs")
# The models whose fit reads --prior; the others refuse the flag.
PRIOR_MODELS = ("weapo", "ds", "fs")
# Each fitted model file: its name, the model and its fitting flags. The
# weapo fits past the defaults reach the capped dual search (lambda 0)
# and a ratio w/lambda of 1 from other values.
FITS = [(model, model, []) for model in MODELS] + [
    ("weapo-lam0", "weapo", ["--lambda-reg", "0"]),
    ("weapo-lam3", "weapo", ["--lambda-reg", "3", "--prior-weight", "3"]),
]
SEEDS = (1, 7)
SMALL_N, SMALL_N_END = 400, 150

# Runs the commands listed in the JSON file named by its argument through
# ``weapo.cli.main`` in one process, ``krr-coefficients`` through
# ``fit_krr``, and prints each one's stdout, stderr and exit code as JSON.
RUNNER = """
import contextlib, io, json, os, sys, traceback
import numpy as np
from weapo.cli import main
from weapo.data import load_dataset
from weapo.endmodel import fit_krr

def krr_coefficients(train, out):
    dataset = load_dataset(train)
    model = fit_krr(dataset.features_matrix, dataset.gold.astype(np.float64), alpha=1.0)
    np.save(out, model.coefficients, allow_pickle=False)
    return 0

logs = []
with open(sys.argv[1], encoding="utf-8") as fh:
    jobs = json.load(fh)
for cwd, argv in jobs:
    os.chdir(cwd)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = (krr_coefficients(*argv[1:]) if argv[0] == "krr-coefficients"
                    else main(argv))
        except Exception:
            traceback.print_exc()
            code = 1
    logs.append({"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code})
json.dump(logs, sys.__stdout__)
"""


def commands(prior: float) -> list[tuple[str, list[str]]]:
    """The named commands run on one input set, with paths relative to it."""
    flag = ["--prior", repr(prior)]
    cmds = [("synth", ["synth", "--spec", "in/synth_spec.json", "--out", "out/synth.jsonl"])]
    for name, model, extra in FITS:
        cmds.append((f"fit-{name}", ["fit", "in/train.jsonl", "--model", model,
                                     *(flag if model in PRIOR_MODELS else []), *extra,
                                     "--out", f"out/fit-{name}.json"]))
    for name, _, _ in FITS:
        cmds.append((f"eval-{name}", ["eval", f"out/fit-{name}.json", "in/test.jsonl",
                                      "--out", f"out/eval-{name}.json"]))
    cmds.append(("compare", ["compare", "in/train.jsonl", "in/test.jsonl", "--models",
                             ",".join(MODELS), *flag, "--oracle", "in/oracle_spec.json",
                             "--out", "out/compare.json"]))
    for name, extra in (("end", []), ("end-gamma", ["--gamma", "0.3", "--alpha", "0.5"])):
        cmds.append((name, ["end", "out/fit-weapo.json", "in/end_train.jsonl",
                            "in/end_test.jsonl", *extra, "--out", f"out/{name}.json"]))
    cmds.append(("krr-coefficients", ["krr-coefficients", "in/end_train.jsonl",
                                      "out/krr-coefficients.npy"]))
    return cmds


def write_inputs(workdir: Path, small: bool) -> dict[str, tuple[Path, float]]:
    """Draw every input set under ``workdir``; map its name to its
    directory and the prior its commands pass."""
    sets = {}
    for workload in WORKLOADS.values():
        if small:
            workload = dataclasses.replace(
                workload, n=SMALL_N, pin_patterns=None,
                n_end=None if workload.n_end is None else SMALL_N_END)
        for seed in SEEDS[:1] if small else SEEDS:
            name = f"{workload.name}-seed{seed}"
            drawn = workdir / name
            drawn.mkdir(parents=True)
            inputs = make_inputs(workload, seed, drawn)
            # end-krr trains its end model on the train file itself.
            for path, target in ((inputs.end_train_path, "end_train.jsonl"),
                                 (inputs.end_test_path, "end_test.jsonl")):
                if not (drawn / target).exists():
                    shutil.copyfile(path, drawn / target)
            sets[name] = (drawn, workload.law.p_plus)
    return sets


def run_tree(src: Path, rundir: Path, sets: dict) -> subprocess.Popen:
    """Start one process that runs every command of every input set with
    the package under ``src``, in a copy of the inputs under ``rundir``."""
    jobs = []
    for name, (drawn, prior) in sets.items():
        shutil.copytree(drawn, rundir / name / "in")
        (rundir / name / "out").mkdir()
        jobs += [(str(rundir / name), argv) for _, argv in commands(prior)]
    (rundir / "jobs.json").write_text(json.dumps(jobs), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.Popen([sys.executable, "-c", RUNNER, str(rundir / "jobs.json")],
                            cwd=rundir, env=env, text=True, stdout=subprocess.PIPE)


def run_demos(src: Path, rundir: Path) -> dict[str, bytes]:
    """The stdout, stderr and exit code of every demo of the checked tree,
    run one at a time with the package under ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    found = {}
    for demo in sorted((ROOT / "demos").glob("*.py")):
        result = subprocess.run([sys.executable, str(demo)], cwd=rundir, env=env,
                                capture_output=True)
        for key, value in (("stdout", result.stdout), ("stderr", result.stderr),
                           ("exit", str(result.returncode).encode())):
            found[f"demos/log/{demo.stem}.{key}"] = value
    return found


def source_lines(src: Path) -> int:
    """The lines of the package's modules under ``src``, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (src / "weapo").glob("*.py"))


def collect(out: str, rundir: Path, sets: dict) -> dict[str, bytes]:
    """Every output file and command log of one tree, by relative name,
    from its runner's output ``out``."""
    logs = json.loads(out)
    found = {}
    for name, (_, prior) in sets.items():
        for path in sorted((rundir / name / "out").rglob("*")):
            found[str(path.relative_to(rundir))] = path.read_bytes()
        for command, _ in commands(prior):
            log = logs.pop(0)
            for key in ("stdout", "stderr", "exit"):
                found[f"{name}/log/{command}.{key}"] = str(log[key]).encode()
    return found


def base_tree(args, workdir: Path) -> Path:
    """The root of the base source tree: ``--base-src``, or ``--base``
    exported with ``git archive``."""
    if args.base_src is not None:
        return Path(args.base_src).resolve()
    tree = workdir / "base-tree"
    tree.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", args.base],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return tree


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    base = parser.add_mutually_exclusive_group(required=True)
    base.add_argument("--base", help="git revision to compare with")
    base.add_argument("--base-src", help="checkout to compare with (holds src/weapo)")
    parser.add_argument("--small", action="store_true",
                        help=f"{SMALL_N} records per workload and seed 1 only")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="weapo-identity-") as tmp:
        workdir = Path(tmp)
        trees = {"base": base_tree(args, workdir) / "src", "head": ROOT / "src"}
        sets = write_inputs(workdir / "inputs", args.small)
        procs = {side: run_tree(src, workdir / side, sets) for side, src in trees.items()}
        outs = {side: proc.communicate()[0] for side, proc in procs.items()}
        for side, proc in procs.items():
            if proc.returncode:
                raise SystemExit(f"error: the {side} tree's commands did not run "
                                 f"(exit {proc.returncode})")
        found = {side: collect(outs[side], workdir / side, sets) | run_demos(src, workdir / side)
                 for side, src in trees.items()}
        src_lines = {side: source_lines(src) for side, src in trees.items()}
    base_found, head_found = found["base"], found["head"]
    names = sorted(base_found.keys() | head_found.keys())
    failed = [name[: -len(".exit")] for name in names
              if name.endswith(".exit") and head_found.get(name) != b"0"]
    summary = {
        "base": args.base or str(Path(args.base_src).resolve()),
        "head": str(ROOT),
        "input_sets": sorted(sets),
        "files": sum("/log/" not in name for name in names),
        "logs": sum(name.endswith(".exit") for name in names),
        "src_lines": src_lines,
        # Commands that failed on the checked tree; identical failures
        # would show nothing else.
        "failed_in_head": failed,
        "newly_failed": [name for name in failed if base_found.get(name + ".exit") == b"0"],
        "only_in_base": sorted(base_found.keys() - head_found.keys()),
        "only_in_head": sorted(head_found.keys() - base_found.keys()),
        "differing": [name for name in names
                      if name in base_found and name in head_found
                      and base_found[name] != head_found[name]],
    }
    summary["identical"] = not (summary["only_in_base"] or summary["only_in_head"]
                                or summary["differing"])
    print(json.dumps(summary, indent=2))
    return 0 if summary["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
