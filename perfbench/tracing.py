"""In-process spans around the public functions of each weapo layer.

The tracer replaces a function at every module attribute that holds it
(``weapo.model.hasse_edges``, ``weapo.cli.fit``, ...), so the callers'
own lookups hit the wrapper, and puts the originals back afterwards.
Spans carry a name, start, end, parent span and run id; they stay in
memory until the benchmark writes them out. Counts are taken from the
return values after the span has ended.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable


def _hasse_counts(result, args, kwargs) -> dict:
    k = len({tuple(int(b) for b in v) for v in args[0]})
    # The K x K boolean dominance matrix plus the two K x K int64 copies
    # it is multiplied as.
    return {"calls": 1, "edges": len(result), "patterns": k, "dense_bytes": k * k * 17}


def _krr_counts(result, args, kwargs) -> dict:
    n = len(args[0])
    return {"n": n, "kernel_bytes": n * n * 8, "flops": n**3 / 3.0}


def _diag_counts(result, args, kwargs) -> dict:
    diag = result.diagnostics
    return {"calls": 1, "iterations": diag.get("iterations", 0),
            "converged": int(bool(diag.get("converged", False)))}


# (module, attribute, span name, counts from (result, args, kwargs)).
# Counts listed in MAX_COUNTS describe a shape and are aggregated by
# maximum over calls; every other count is summed.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("weapo.data", "load_dataset", "data.load_dataset",
     lambda r, a, k: {"records": len(r), "bytes_read": os.path.getsize(a[0])}),
    ("weapo.data", "save_dataset", "data.save_dataset", None),
    ("weapo.data", "build_slices", "data.build_slices",
     lambda r, a, k: {"records": r.num_records,
                      "covered": r.num_records - len(r.uncovered),
                      "distinct_patterns": len(r.slices)}),
    ("weapo.synth", "generate", "synth.generate", lambda r, a, k: {"records": len(r)}),
    ("weapo.synth", "OracleTable.scores", "synth.oracle_scores", None),
    ("weapo.covering", "hasse_edges", "covering.hasse_edges", _hasse_counts),
    ("weapo.covering", "constraint_matrix", "covering.constraint_matrix", None),
    ("weapo.model", "fit", "model.fit", _diag_counts),
    ("weapo.model", "predict_dataset", "model.predict_dataset", None),
    ("weapo.baselines", "ds_fit", "baselines.ds_fit",
     lambda r, a, k: {**_diag_counts(r, a, k), "rows": len(a[0])}),
    ("weapo.baselines", "ds_posteriors", "baselines.ds_posteriors", None),
    ("weapo.baselines", "fs_fit", "baselines.fs_fit", None),
    ("weapo.baselines", "fs_posteriors", "baselines.fs_posteriors", None),
    ("weapo.baselines", "mv_scores", "baselines.mv_scores", None),
    ("weapo.metrics", "evaluate_label_model", "metrics.evaluate_label_model",
     lambda r, a, k: {"calls": 1, "n_evaluated": r.n_evaluated}),
    ("weapo.endmodel", "fit_krr", "endmodel.fit_krr", _krr_counts),
    ("weapo.endmodel", "predict_krr", "endmodel.predict_krr", None),
    ("weapo.cli", "cmd_synth", "cli.synth", None),
    ("weapo.cli", "cmd_fit", "cli.fit", None),
    ("weapo.cli", "cmd_eval", "cli.eval", None),
    ("weapo.cli", "cmd_compare", "cli.compare", None),
    ("weapo.cli", "cmd_end", "cli.end", None),
)
MAX_COUNTS = {"patterns", "dense_bytes", "distinct_patterns", "covered", "n",
              "kernel_bytes", "flops"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    counts: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while installed; ``run`` labels the spans of one command."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = ""
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = Span(name, 0.0, 0.0, parent, self.run)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if counter is not None:
                span.counts = counter(result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at each weapo module attribute bound to it."""
        modules = [m for n, m in sys.modules.items() if n == "weapo" or n.startswith("weapo.")]
        for module_name, attr, name, counter in TARGETS:
            # A target that a later version of the program no longer has
            # is left out; its metrics then read 0.
            owner = sys.modules.get(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, counter)
            holders = [owner] + [m for m in modules if m is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, value))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            holder, key, value = self._restore.pop()
            setattr(holder, key, value)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(span)}) + "\n")


def layer_stats(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: total and self seconds, aggregated counts, and
    records per second where a count of records exists.

    Self time is a span's duration minus that of its direct children;
    spans of one thread nest, so the children never overlap.
    """
    child_seconds = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_seconds[span.parent] += span.seconds
    stats: dict[str, dict[str, float]] = {}
    for span, children in zip(spans, child_seconds):
        entry = stats.setdefault(span.name, {"s": 0.0, "self_s": 0.0})
        entry["s"] += span.seconds
        entry["self_s"] += span.seconds - children
        for key, value in span.counts.items():
            if key in MAX_COUNTS:
                entry[key] = max(entry.get(key, 0), value)
            else:
                entry[key] = entry.get(key, 0) + value
    for entry in stats.values():
        if entry.get("records") and entry["s"] > 0:
            entry["records_per_s"] = entry["records"] / entry["s"]
    return stats
