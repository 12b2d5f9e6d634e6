"""Benchmark of the weapo command-line pipeline.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload tall-m8 --seed 1 --seconds 15 --trace 0

Each workload generates its own seeded inputs, then runs the user
pipeline ``synth, fit, eval, compare, end`` as real ``weapo`` processes,
repeated until ``--seconds`` have passed (at least once). It checks every
output and prints a table of every metric, then one JSON line:

* ``--trace 0``: end-to-end metrics: interpreter start-up, the
  pipeline's wall time (medians over repetitions), the highest peak RSS
  of any command, and ROC-AUC of the label and end models relative to
  the Bayes-optimal score. The table adds each command's wall time.
* ``--trace 1``: per-layer metrics from the same pipeline driven
  in-process through ``weapo.cli.main``, once plain and once with spans
  around each layer's public functions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

# BLAS threads are capped at the cores this process may use, before
# numpy is first imported here or in a child.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Inputs, Workload, make_inputs, shape, shape_errors  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# The console-script entry point of the package, run without installing it.
ENTRY = "from weapo.cli import run; run()"
COMMANDS = ("synth", "fit", "eval", "compare", "end")
SETUP_LAUNCHES = 4
# Every run must end within 180 s; no repetition starts that would
# likely end after this many seconds.
BUDGET_S = 150.0

# Each command's own wall time is printed but not in this list: on a
# shared 2-core machine a single 1.5-5 s process varies by 10-30 %
# between runs, more than any bound could allow. The ROC-AUCs are
# divided by that of the Bayes-optimal score on the same test records,
# which cancels most of the variation between seeds.
END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("peak_rss_mb", "MB"),
    ("label_roc_auc_vs_bayes", "ratio"),
    ("end_roc_auc_vs_bayes", "ratio"),
)

# (metric, unit, span name, statistic of that span).
PER_LAYER = (
    ("data.load_dataset.s", "s", "data.load_dataset", "s"),
    ("data.load_dataset.records_per_s", "1/s", "data.load_dataset", "records_per_s"),
    ("data.load_dataset.bytes_read", "bytes", "data.load_dataset", "bytes_read"),
    ("data.save_dataset.s", "s", "data.save_dataset", "s"),
    ("data.build_slices.s", "s", "data.build_slices", "s"),
    ("data.records", "count", "data.build_slices", "records"),
    ("data.covered", "count", "data.build_slices", "covered"),
    ("data.distinct_patterns", "count", "data.build_slices", "distinct_patterns"),
    ("synth.generate.s", "s", "synth.generate", "s"),
    ("synth.generate.records_per_s", "1/s", "synth.generate", "records_per_s"),
    ("synth.oracle_scores.s", "s", "synth.oracle_scores", "s"),
    ("covering.hasse_edges.s", "s", "covering.hasse_edges", "s"),
    ("covering.hasse_edges.calls", "count", "covering.hasse_edges", "calls"),
    ("covering.hasse_edges.edges", "count", "covering.hasse_edges", "edges"),
    ("covering.hasse_edges.dense_bytes", "bytes", "covering.hasse_edges", "dense_bytes"),
    ("covering.constraint_matrix.s", "s", "covering.constraint_matrix", "s"),
    ("model.fit.s", "s", "model.fit", "s"),
    ("model.fit.self_s", "s", "model.fit", "self_s"),
    ("model.fit.calls", "count", "model.fit", "calls"),
    ("model.fit.iterations", "count", "model.fit", "iterations"),
    ("model.fit.converged", "count", "model.fit", "converged"),
    ("model.predict_dataset.s", "s", "model.predict_dataset", "s"),
    ("baselines.ds_fit.s", "s", "baselines.ds_fit", "s"),
    ("baselines.ds_fit.iterations", "count", "baselines.ds_fit", "iterations"),
    ("baselines.ds_fit.converged", "count", "baselines.ds_fit", "converged"),
    ("baselines.ds_fit.rows", "count", "baselines.ds_fit", "rows"),
    ("baselines.ds_posteriors.s", "s", "baselines.ds_posteriors", "s"),
    ("baselines.fs_fit.s", "s", "baselines.fs_fit", "s"),
    ("baselines.fs_posteriors.s", "s", "baselines.fs_posteriors", "s"),
    ("baselines.mv_scores.s", "s", "baselines.mv_scores", "s"),
    ("metrics.evaluate_label_model.s", "s", "metrics.evaluate_label_model", "s"),
    ("metrics.evaluate_label_model.calls", "count", "metrics.evaluate_label_model", "calls"),
    ("metrics.evaluate_label_model.n_evaluated", "count",
     "metrics.evaluate_label_model", "n_evaluated"),
    ("endmodel.fit_krr.s", "s", "endmodel.fit_krr", "s"),
    ("endmodel.fit_krr.n", "count", "endmodel.fit_krr", "n"),
    ("endmodel.fit_krr.kernel_bytes", "bytes", "endmodel.fit_krr", "kernel_bytes"),
    ("endmodel.fit_krr.flops", "flop", "endmodel.fit_krr", "flops"),
    ("endmodel.predict_krr.s", "s", "endmodel.predict_krr", "s"),
    *((f"cli.{cmd}.{stat}", "s", f"cli.{cmd}", stat) for cmd in COMMANDS for stat in ("s", "self_s")),
)

TRACE_METRICS = [metric for metric, *_ in PER_LAYER] + ["trace.overhead_s", "trace.pipeline_s"]


@dataclass
class Ops:
    """Operations attempted and failed in one run, with the failure reasons."""

    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    failed: int = 0

    def record(self, errors: list[str]) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)
        return not errors


def pipeline_argv(workload: Workload, inputs: Inputs, out: Path) -> list[tuple[str, list[str]]]:
    """The five commands of one pipeline repetition, writing under ``out``."""
    prior = repr(workload.law.p_plus)
    model = str(out / "model.json")
    return [
        ("synth", ["synth", "--spec", str(inputs.spec_path), "--out", str(out / "synth.jsonl"),
                   "--quiet"]),
        ("fit", ["fit", str(inputs.train_path), "--model", "weapo", "--prior", prior,
                 "--out", model, "--quiet"]),
        ("eval", ["eval", model, str(inputs.test_path), "--out", str(out / "eval.json"),
                  "--quiet"]),
        ("compare", ["compare", str(inputs.train_path), str(inputs.test_path),
                     "--models", ",".join(checks.MODELS), "--prior", prior,
                     "--oracle", str(inputs.oracle_path), "--out", str(out / "compare.json"),
                     "--quiet"]),
        ("end", ["end", model, str(inputs.end_train_path), str(inputs.end_test_path),
                 "--out", str(out / "end.json"), "--quiet"]),
    ]


class Checker:
    """Checks each command's output; remembers what later commands need."""

    def __init__(self, workload: Workload, inputs: Inputs) -> None:
        self.workload = workload
        self.inputs = inputs
        self.theta = None
        self.synth_digest: str | None = None
        self.label_roc_auc: float | None = None
        self.end_roc_auc: float | None = None
        test, end_test = inputs.test, inputs.end_test
        self.bayes_label_roc_auc = checks.covered_result(
            checks.oracle_scores(workload.law, test), test)["roc_auc"]
        self.bayes_end_roc_auc = checks.roc_auc(
            checks.feature_bayes_scores(workload.law, end_test), end_test.gold == 1)

    def quality(self) -> dict[str, tuple[float | None, str]]:
        """Raw and Bayes-relative ROC-AUC of the label and end models."""
        out = {}
        for name, got, bayes in (("label", self.label_roc_auc, self.bayes_label_roc_auc),
                                 ("end", self.end_roc_auc, self.bayes_end_roc_auc)):
            out[f"{name}_roc_auc"] = (got, "fraction")
            out[f"bayes_{name}_roc_auc"] = (bayes, "fraction")
            out[f"{name}_roc_auc_vs_bayes"] = (None if got is None else got / bayes, "ratio")
        return out

    def check(self, command: str, out: Path) -> list[str]:
        law, inputs = self.workload.law, self.inputs
        if command == "synth":
            digest, errors = checks.check_synth(out / "synth.jsonl", law, self.workload.n,
                                                self.workload.n_end is None)
            if self.synth_digest is None:
                self.synth_digest = digest
            elif digest != self.synth_digest:
                errors.append("synth: a rerun with the same spec wrote different bytes")
            return errors
        if command == "fit":
            self.theta, errors = checks.check_fit(out / "model.json", law)
            return errors
        if self.theta is None:
            return [f"{command}: no valid fitted model to check against"]
        if command == "eval":
            result, errors = checks.check_eval(out / "eval.json", self.theta, inputs.test)
            if not errors:
                self.label_roc_auc = result["roc_auc"]
            return errors
        if command == "compare":
            return checks.check_compare(out / "compare.json", self.theta, law, inputs.test)
        result, errors = checks.check_end(out / "end.json", inputs.end_test)
        if not errors:
            self.end_roc_auc = result["roc_auc"]
        return errors


def run_process(argv: list[str], log: Path, deadline: float) -> tuple[float, float, int]:
    """Run one weapo process; return wall seconds, peak RSS in MB and exit code.

    The peak RSS comes from the child's own rusage, so it is not the
    maximum over every child reaped so far. A process still running at
    ``deadline`` is killed.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", ENTRY, *argv], cwd=ROOT, env=env,
                                stdout=sink, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode


def _log_tail(log: Path) -> str:
    lines = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else "no output"


def measure_setup(workdir: Path, ops: Ops, deadline: float) -> list[float]:
    """Wall times of fresh ``weapo --version`` processes, after one warm-up."""
    times = []
    for i in range(SETUP_LAUNCHES + 1):
        log = workdir / "version.log"
        seconds, _, code = run_process(["--version"], log, deadline)
        ok = code == 0 and log.read_text(encoding="utf-8").startswith("weapo ")
        if ops.record([] if ok else [f"weapo --version: exit {code}, {_log_tail(log)}"]) and i:
            times.append(seconds)
    return times


def _another_rep(done: int, start: float, seconds: float, deadline: float) -> bool:
    """Start a repetition: the first always, then while ``seconds`` have not
    passed and one more would likely end before ``deadline``."""
    now = time.monotonic()
    return not done or (now - start < seconds and now + (now - start) / done <= deadline)


def run_end_to_end(workload: Workload, inputs: Inputs, workdir: Path, seconds: float,
                   ops: Ops, deadline: float) -> dict:
    setup = measure_setup(workdir, ops, deadline)
    checker = Checker(workload, inputs)
    reps: list[dict[str, float]] = []
    peak_rss = 0.0
    start = time.monotonic()
    while _another_rep(len(reps), start, seconds, deadline):
        out = workdir / f"rep{len(reps)}"
        out.mkdir()
        times = {}
        for command, argv in pipeline_argv(workload, inputs, out):
            log = out / f"{command}.log"
            wall, rss, code = run_process(argv, log, deadline)
            errors = ([f"{command}: exit {code}, {_log_tail(log)}"] if code
                      else checker.check(command, out))
            ops.record(errors)
            times[command] = wall
            peak_rss = max(peak_rss, rss)
        reps.append(times)
    print(f"setup launches (s): {' '.join(f'{t:.3f}' for t in setup)}")
    for i, rep in enumerate(reps):
        print(f"repetition {i} (s): " + " ".join(f"{c}={t:.3f}" for c, t in rep.items()))
    metrics = {
        "setup_s": (statistics.median(setup) if setup else None, "s"),
        "pipeline_s": (statistics.median(sum(rep.values()) for rep in reps), "s"),
        **{f"{cmd}_s": (statistics.median(rep[cmd] for rep in reps), "s") for cmd in COMMANDS},
        "peak_rss_mb": (peak_rss, "MB"),
        **checker.quality(),
    }
    return metrics


def run_in_process(cli_main, workload: Workload, inputs: Inputs, out: Path,
                   checker: Checker, ops: Ops, tracer: tracing.Tracer | None) -> float:
    """One pipeline through ``weapo.cli.main``; returns its wall seconds."""
    out.mkdir()
    total = 0.0
    for command, argv in pipeline_argv(workload, inputs, out):
        if tracer is not None:
            tracer.run = f"{workload.name}/{out.name}/{command}"
        start = time.perf_counter()
        try:
            code = cli_main(argv)
        except Exception as err:  # noqa: BLE001 - a crash is a failed operation
            code = f"{type(err).__name__}: {err}"
        total += time.perf_counter() - start
        ops.record([f"{command}: exit {code}"] if code else checker.check(command, out))
    return total


def _share(part: float, whole: float) -> str:
    return f"{part / whole:.3f}" if whole else "n/a"


def run_traced(workload: Workload, inputs: Inputs, workdir: Path, seconds: float,
               ops: Ops, deadline: float, seed: int) -> dict:
    """After a warm-up, plain and traced in-process pipelines, alternating
    until ``seconds`` pass."""
    sys.path.insert(0, str(SRC))
    from weapo.cli import main as cli_main

    checker = Checker(workload, inputs)
    # The first pipeline in a process pays one-off costs (BLAS and lazy
    # start-up) that would otherwise land on the first timed pipeline.
    run_in_process(cli_main, workload, inputs, workdir / "warmup", checker, ops, None)
    plain, traced, stats = [], [], []
    start = time.monotonic()
    while _another_rep(len(plain), start, seconds, deadline):
        plain.append(run_in_process(cli_main, workload, inputs, workdir / f"plain{len(plain)}",
                                    checker, ops, None))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced.append(run_in_process(cli_main, workload, inputs,
                                         workdir / f"traced{len(traced)}", checker, ops, tracer))
        finally:
            tracer.uninstall()
        stats.append(tracing.layer_stats(tracer.spans))
        tracer.write(WORK / "traces" / f"{workload.name}-seed{seed}-{len(traced) - 1}.jsonl")
    metrics = {}
    for metric, unit, span, stat in PER_LAYER:
        values = [entry.get(span, {}).get(stat, 0) for entry in stats]
        metrics[metric] = (statistics.median(values), unit)
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    metrics["trace.pipeline_s"] = (statistics.median(plain), "s")
    print(f"repetitions: {len(plain)} plain, {len(traced)} traced")
    value = {name: v for name, (v, _) in metrics.items()}
    print(f"covering.hasse_edges share of model.fit: "
          f"{_share(value['covering.hasse_edges.s'], value['model.fit.s'])}")
    print(f"endmodel.fit_krr + predict_krr share of cli.end: "
          f"{_share(value['endmodel.fit_krr.s'] + value['endmodel.predict_krr.s'], value['cli.end.s'])}")
    print(f"load_dataset + generate + ds_fit share of the in-process pipeline: "
          f"{_share(value['data.load_dataset.s'] + value['synth.generate.s'] + value['baselines.ds_fit.s'], value['trace.pipeline_s'])}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "weapo" / "cli.py").is_file():
        print(f"error: no weapo sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + BUDGET_S
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        start = time.perf_counter()
        inputs = make_inputs(workload, args.seed, workdir)
        print(f"workload {workload.name}, seed {args.seed}: inputs in "
              f"{time.perf_counter() - start:.2f} s; train shape {shape(inputs.train)}")
        errors = shape_errors(workload, inputs)
        if errors:
            print("error: " + "; ".join(errors), file=sys.stderr)
            return 3
        ops = Ops()
        if args.trace:
            metrics = run_traced(workload, inputs, workdir, args.seconds, ops, deadline,
                                 args.seed)
        else:
            metrics = run_end_to_end(workload, inputs, workdir, args.seconds, ops, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for error in ops.errors:
        print(f"FAILED {error}")
    print(f"{'failed_ops_frac':40s} {ops.failed / max(ops.attempted, 1):.6g} "
          f"({ops.failed} of {ops.attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value if value is None else f'{value:.6g}'} {unit}")
    reported = TRACE_METRICS if args.trace else [name for name, _ in END_TO_END]
    missing = [name for name in reported if metrics[name][0] is None]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
    result = {
        "correct": ops.failed == 0 and not missing,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": metrics[name][0] if metrics[name][0] is not None else 0.0,
                           "unit": metrics[name][1]} for name in reported},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
