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

* ``synth --spec``, and ``synth`` of the same spec given as inline flags
  in the ``--flag=value`` form;
* ``fit`` and ``eval`` of weapo, weapo-noprior, mv, ds and fs; of weapo
  at ``--lambda-reg 0`` and at ``--lambda-reg 3``, a ratio 1/lambda_reg
  other than the default's 1; of ds at ``--max-iters 300 --tol 1e-8
  --smoothing 0.5``; and of fs at ``--eps-clip 1e-3``;
* ``fit`` and ``eval`` of weapo at ``--lambda-reg 0`` with a prior inside
  its band: the midpoint of the train votes' mean firing rate and their
  largest one;
* ``eval`` of weapo on ``in/test-layout.jsonl``: every line of the test
  file re-dumped with ``json.dumps``'s default separators, a blank line
  after the meta line and CRLF line ends. Every other input is in the
  canonical layout ``save_dataset`` writes, which the JSON reader of
  ``load_dataset`` never sees, so this one checks that reader;
* ``compare`` of all five with ``--oracle``;
* ``end`` with the weapo model, without and with ``--gamma 0.3 --alpha 0.5``;
* ``fit_krr`` on the end-train features, with the gold labels as targets,
  the default gamma and ``alpha = 1``, whose dual coefficients it writes
  to ``out/krr-coefficients.npy``: ``end`` records only AUCs, which
  would not show a change in the exact solve's last bits. The same fit
  at ``alpha = 1e-4`` writes ``out/krr-coefficients-alpha1e-4.npy``; on
  the full input sets its float32 attempt falls short, so that file
  checks the float64 panels. The ``alpha = 1`` model's ``predict_krr``
  of the end-test features goes to ``out/krr-predictions.npy``, which the
  AUCs of ``end`` would not show either.

Both trees also run every ``demos/*.py`` of the checked tree, each as a
process of its own with the tree's package first on ``PYTHONPATH``; the
demos write no files, so their stdout, stderr and exit code are compared.
On the seed-1 input set of each workload they also run ``eval`` of the
weapo model and the ``compare`` above without ``--quiet``, each as a
process of its own through the ``weapo`` console script's entry point
with stdout piped and block-buffered, so the way that entry point ends a
process is checked too.

Each tree runs in a directory of its own that holds a copy of the
inputs, and every path on a command line is relative to it, so outputs
that record their own paths match. The commands of one tree run in one
process through ``weapo.cli.main``, with stdout and stderr captured.
Every output file is compared byte for byte, and so are the stdout,
stderr and exit code of every command. The summary is one JSON object on
stdout. It also lists the commands and demos that failed on the checked
tree, those of them that exit 0 on the base tree (``newly_failed``), and
the lines of ``src/weapo/*.py`` in each tree, in all (``src_lines``) and
by module (``src_lines_by_module``), and for each differing file that
holds a JSON ``theta`` list in both trees, the largest absolute
difference of its entries (``theta_max_abs_diff``). For each differing
``.json`` file that holds one JSON value in both trees, it lists the
sorted dotted paths of the keys and list indices whose values differ
(``json_diff_paths``). The exit code is 1 when anything differs and 0
otherwise.
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
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS, make_inputs  # noqa: E402

MODELS = ("weapo", "weapo-noprior", "mv", "ds", "fs")
# The models whose fit reads --prior; the others refuse the flag.
PRIOR_MODELS = ("weapo", "ds", "fs")
# Each fitted model file: its name, the model and its fitting flags. The
# law's prior lies above the band of every weapo fit at it, so those fits
# land on a face; ``weapo-inband`` passes the prior inside the band
# instead, where the fit takes the root of the dual path.
FITS = [(model, model, []) for model in MODELS] + [
    ("weapo-lam0", "weapo", ["--lambda-reg", "0"]),
    ("weapo-lam3", "weapo", ["--lambda-reg", "3"]),
    ("ds-flags", "ds", ["--max-iters", "300", "--tol", "1e-8", "--smoothing", "0.5"]),
    ("fs-clip", "fs", ["--eps-clip", "1e-3"]),
    ("weapo-inband", "weapo", ["--lambda-reg", "0"]),
]
SEEDS = (1, 7)
SMALL_N, SMALL_N_END = 400, 150

# The ``weapo`` console script, run without installing the package.
ENTRY = "from weapo.cli import run; run()"

# Runs the commands listed in the JSON file named by its argument through
# ``weapo.cli.main`` in one process, ``krr-coefficients`` through
# ``fit_krr`` and, given a test file, ``predict_krr``, and prints each
# one's stdout, stderr and exit code as JSON.
RUNNER = """
import contextlib, io, json, os, sys, traceback
import numpy as np
from weapo.cli import main
from weapo.data import load_dataset
from weapo.endmodel import fit_krr, predict_krr

def krr_coefficients(train, out, alpha, test=None, predictions=None):
    dataset = load_dataset(train)
    model = fit_krr(dataset.features_matrix, dataset.gold.astype(np.float64),
                    alpha=float(alpha))
    np.save(out, model.coefficients, allow_pickle=False)
    if test is not None:
        np.save(predictions, predict_krr(model, load_dataset(test).features_matrix),
                allow_pickle=False)
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


def inline_flags(spec: dict) -> list[str]:
    """``synth``'s inline flags for a spec payload, as ``--flag=value``, so
    that a list starting with ``-`` is not read as an option."""
    values = {key: spec[key] for key in ("n", "p_plus", "tpr", "fpr", "seed")}
    values |= spec.get("feature_spec", {})
    return [f"--{key.replace('_', '-')}="
            + (",".join(map(repr, value)) if type(value) is list else repr(value))
            for key, value in values.items()]


def commands(prior: float, inside: float, spec: dict) -> list[tuple[str, list[str]]]:
    """The named commands run on one input set, with paths relative to it;
    ``inside`` is the prior of ``weapo-inband`` and ``spec`` the payload of
    the set's ``synth_spec.json``."""
    flag = ["--prior", repr(prior)]
    cmds = [("synth", ["synth", "--spec", "in/synth_spec.json", "--out", "out/synth.jsonl"]),
            ("synth-inline", ["synth", *inline_flags(spec), "--out", "out/synth-inline.jsonl"])]
    for name, model, extra in FITS:
        given = ["--prior", repr(inside)] if name == "weapo-inband" else flag
        cmds.append((f"fit-{name}", ["fit", "in/train.jsonl", "--model", model,
                                     *(given if model in PRIOR_MODELS else []), *extra,
                                     "--out", f"out/fit-{name}.json"]))
    for name, _, _ in FITS:
        cmds.append((f"eval-{name}", ["eval", f"out/fit-{name}.json", "in/test.jsonl",
                                      "--out", f"out/eval-{name}.json"]))
    cmds.append(("eval-layout", ["eval", "out/fit-weapo.json", "in/test-layout.jsonl",
                                 "--out", "out/eval-layout.json"]))
    cmds.append(("compare", ["compare", "in/train.jsonl", "in/test.jsonl", "--models",
                             ",".join(MODELS), *flag, "--oracle", "in/oracle_spec.json",
                             "--out", "out/compare.json"]))
    for name, extra in (("end", []), ("end-gamma", ["--gamma", "0.3", "--alpha", "0.5"])):
        cmds.append((name, ["end", "out/fit-weapo.json", "in/end_train.jsonl",
                            "in/end_test.jsonl", *extra, "--out", f"out/{name}.json"]))
    for name, alpha, predicted in (
        ("krr-coefficients", "1.0", ["in/end_test.jsonl", "out/krr-predictions.npy"]),
        ("krr-coefficients-alpha1e-4", "1e-4", []),
    ):
        cmds.append((name, ["krr-coefficients", "in/end_train.jsonl", f"out/{name}.npy",
                            alpha, *predicted]))
    return cmds


def entry_commands(prior: float) -> list[tuple[str, list[str]]]:
    """The named commands run through the entry point on one input set,
    after ``commands``, whose weapo model they read."""
    return [
        ("eval-entry", ["eval", "out/fit-weapo.json", "in/test.jsonl",
                        "--out", "out/eval-entry.json"]),
        ("compare-entry", ["compare", "in/train.jsonl", "in/test.jsonl", "--models",
                           ",".join(MODELS), "--prior", repr(prior), "--oracle",
                           "in/oracle_spec.json", "--out", "out/compare-entry.json"]),
    ]


def write_inputs(workdir: Path, small: bool) -> dict[str, tuple[Path, float, float, dict]]:
    """Draw every input set under ``workdir``; map its name to its
    directory, the prior its commands pass, the in-band prior and its
    synth spec payload."""
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
            # The test file outside the canonical layout, so the JSON reader reads it.
            lines = (drawn / "test.jsonl").read_text(encoding="utf-8").splitlines()
            layout = [json.dumps(json.loads(line)) for line in lines]
            layout.insert(1, "")
            (drawn / "test-layout.jsonl").write_bytes("\r\n".join(layout + [""]).encode())
            rates = inputs.train.votes.mean(axis=0)
            spec = json.loads((drawn / "synth_spec.json").read_text(encoding="utf-8"))
            sets[name] = (drawn, workload.law.p_plus, float(rates.mean() + rates.max()) / 2,
                          spec)
    return sets


def run_tree(src: Path, rundir: Path, sets: dict) -> subprocess.Popen:
    """Start one process that runs every command of every input set with
    the package under ``src``, in a copy of the inputs under ``rundir``."""
    jobs = []
    for name, (drawn, *params) in sets.items():
        shutil.copytree(drawn, rundir / name / "in")
        (rundir / name / "out").mkdir()
        jobs += [(str(rundir / name), argv) for _, argv in commands(*params)]
    (rundir / "jobs.json").write_text(json.dumps(jobs), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.Popen([sys.executable, "-c", RUNNER, str(rundir / "jobs.json")],
                            cwd=rundir, env=env, text=True, stdout=subprocess.PIPE)


def logged(name: str, result: subprocess.CompletedProcess) -> dict[str, bytes]:
    """The stdout, stderr and exit code of one finished process, by name."""
    return {f"{name}.stdout": result.stdout, f"{name}.stderr": result.stderr,
            f"{name}.exit": str(result.returncode).encode()}


def run_demos(src: Path, rundir: Path) -> dict[str, bytes]:
    """The stdout, stderr and exit code of every demo of the checked tree,
    run one at a time with the package under ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    found = {}
    for demo in sorted((ROOT / "demos").glob("*.py")):
        result = subprocess.run([sys.executable, str(demo)], cwd=rundir, env=env,
                                capture_output=True)
        found |= logged(f"demos/log/{demo.stem}", result)
    return found


def run_entry_point(src: Path, rundir: Path, sets: dict) -> dict[str, bytes]:
    """Run ``entry_commands`` on the seed-1 set of each workload, one
    process each through the entry point with the package under ``src``;
    return their logs. Their files land in the set's ``out``."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    found = {}
    for name, (_, prior, *_) in sets.items():
        if name.endswith(f"-seed{SEEDS[0]}"):
            for command, argv in entry_commands(prior):
                result = subprocess.run([sys.executable, "-c", ENTRY, *argv],
                                        cwd=rundir / name, env=env, capture_output=True)
                found |= logged(f"{name}/log/{command}", result)
    return found


def source_lines(src: Path) -> dict[str, int]:
    """The lines of each of the package's modules under ``src``, by file
    name, as ``wc -l`` counts them."""
    return {path.name: path.read_bytes().count(b"\n")
            for path in sorted((src / "weapo").glob("*.py"))}


def collect(out: str, rundir: Path, sets: dict) -> dict[str, bytes]:
    """Every output file and command log of one tree, by relative name,
    from its runner's output ``out``."""
    logs = json.loads(out)
    found = {}
    for name, (_, *params) in sets.items():
        for path in sorted((rundir / name / "out").rglob("*")):
            found[str(path.relative_to(rundir))] = path.read_bytes()
        for command, _ in commands(*params):
            log = logs.pop(0)
            for key in ("stdout", "stderr", "exit"):
                found[f"{name}/log/{command}.{key}"] = str(log[key]).encode()
    return found


def theta_max_abs_diff(base: dict[str, bytes], head: dict[str, bytes],
                       names: list[str]) -> dict[str, float]:
    """For each of ``names`` whose content in both maps is a JSON object
    with ``theta`` lists of one length, the largest ``|head - base|`` over
    their entries."""
    moved = {}
    for name in names:
        try:
            old, new = (json.loads(found[name])["theta"] for found in (base, head))
            if len(old) == len(new):
                moved[name] = max((abs(b - a) for a, b in zip(old, new)), default=0.0)
        except (ValueError, TypeError, KeyError):
            pass
    return moved


def diff_paths(old: Any, new: Any, prefix: tuple[str, ...] = ()) -> list[str]:
    """The dotted paths below ``prefix`` at which two JSON values differ:
    a key of one object only, or lists of two lengths, or leaves that
    differ in type or value. Objects are walked by key and lists of one
    length by index."""
    if type(old) is dict and type(new) is dict:
        found = []
        for key in old.keys() | new.keys():
            if key in old and key in new:
                found += diff_paths(old[key], new[key], (*prefix, key))
            else:
                found.append(".".join((*prefix, key)))
        return found
    if type(old) is list and type(new) is list and len(old) == len(new):
        return [path for index, pair in enumerate(zip(old, new))
                for path in diff_paths(*pair, (*prefix, str(index)))]
    return [] if type(old) is type(new) and old == new else [".".join(prefix)]


def json_diff_paths(base: dict[str, bytes], head: dict[str, bytes],
                    names: list[str]) -> dict[str, list[str]]:
    """For each ``.json`` file of ``names`` that holds one JSON value in
    both maps, the sorted paths of ``diff_paths``; the empty path is the
    whole value."""
    paths = {}
    for name in names:
        if name.endswith(".json"):
            try:
                old, new = (json.loads(found[name]) for found in (base, head))
            except ValueError:
                continue
            paths[name] = sorted(diff_paths(old, new))
    return paths


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
        found = {}
        for side, src in trees.items():
            entry = run_entry_point(src, workdir / side, sets)
            found[side] = (collect(outs[side], workdir / side, sets) | entry
                           | run_demos(src, workdir / side))
        by_module = {side: source_lines(src) for side, src in trees.items()}
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
        "src_lines": {side: sum(lines.values()) for side, lines in by_module.items()},
        "src_lines_by_module": by_module,
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
    summary["theta_max_abs_diff"] = theta_max_abs_diff(base_found, head_found,
                                                       summary["differing"])
    summary["json_diff_paths"] = json_diff_paths(base_found, head_found, summary["differing"])
    summary["identical"] = not (summary["only_in_base"] or summary["only_in_head"]
                                or summary["differing"])
    print(json.dumps(summary, indent=2))
    return 0 if summary["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
