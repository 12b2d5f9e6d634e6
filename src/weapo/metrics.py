"""Ranking metrics for label-model scores.

ROC-AUC is the Mann-Whitney statistic: the probability that a random
positive outranks a random negative, ties counting half. PR-AUC is
average precision with tied scores handled as atomic blocks, so
reordering within a tie cannot change the value. Both metrics are
undefined on single-class data and raise instead of guessing.

Both come from one sort that merges equal scores into tied blocks. An
item is a record, or in ``evaluate_patterns`` a row of the weighted vote
table with its class weights: the blocks of a table of counts, and so
the values, are those of its records.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from .data import VotePatterns


class UndefinedMetricError(ValueError):
    """The requested metric is undefined on the given label distribution."""


@dataclass(frozen=True)
class EvalResult:
    """Covered-subset evaluation summary."""

    roc_auc: float
    pr_auc: float
    n_pos: int | float
    n_neg: int | float
    n_evaluated: int | float

    def to_json_dict(self) -> dict[str, Any]:
        return asdict(self)


def _check_inputs(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or labels.ndim != 1 or scores.shape != labels.shape:
        raise ValueError("scores and labels must be 1-D arrays of equal length")
    if scores.size == 0:
        raise UndefinedMetricError("no instances to evaluate")
    if not np.isin(labels, (-1, 1)).all():
        raise ValueError("labels must take values in {-1, +1}")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    return scores, labels.astype(np.int8)


def _tied_blocks(scores: np.ndarray, pos: np.ndarray, neg: np.ndarray) -> tuple[float, float]:
    """ROC-AUC and average precision of items with finite ``scores`` that
    hold positive weight ``pos[i]`` and negative weight ``neg[i]``, some
    positive weight among them; ROC-AUC is NaN where no negative is.
    ROC-AUC counts twice the weight of correctly ordered pairs (a tied
    pair counts one). Average precision adds precision times the recall
    increment after each block, highest score first, as a running sum.
    Sums run in float64, which holds whole-number weights exactly while
    ``2 * n_pos * n_neg`` stays below 2**53; larger totals are refused.
    """
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    starts = np.flatnonzero(np.append(True, ordered[1:] != ordered[:-1]))
    block_pos = np.add.reduceat(np.asarray(pos, dtype=np.float64)[order], starts)
    block_neg = np.add.reduceat(np.asarray(neg, dtype=np.float64)[order], starts)
    n_pos, n_neg = block_pos.sum(), block_neg.sum()
    if 2.0 * n_pos * n_neg >= 2.0**53:
        raise ValueError(f"too many pairs to count exactly (n_pos={n_pos:g}, n_neg={n_neg:g})")
    below = np.cumsum(block_neg) - block_neg
    twice_pairs = 2.0 * (block_pos @ below) + block_pos @ block_neg
    roc = twice_pairs / 2 / (n_pos * n_neg) if n_neg else float("nan")
    cum_pos = np.cumsum(block_pos[::-1])
    precision = cum_pos / np.cumsum((block_pos + block_neg)[::-1])
    return float(roc), float(np.cumsum(np.diff(cum_pos / n_pos, prepend=0.0) * precision)[-1])


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve as a rank statistic: the fraction of
    (positive, negative) pairs ranked correctly, counting ties as half.
    Invariant under strictly increasing transforms of the scores.

    Raises ``UndefinedMetricError`` if either class is absent.
    """
    scores, labels = _check_inputs(scores, labels)
    n_pos, n_neg = int((labels == 1).sum()), int((labels == -1).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(f"ROC-AUC needs both classes (n_pos={n_pos}, n_neg={n_neg})")
    return _tied_blocks(scores, labels == 1, labels == -1)[0]


def pr_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Average precision with atomic tied blocks. Negatives may be absent
    (the value is then 1), but at least one positive is required."""
    scores, labels = _check_inputs(scores, labels)
    if not (labels == 1).any():
        raise UndefinedMetricError("PR-AUC needs at least one positive")
    return _tied_blocks(scores, labels == 1, labels == -1)[1]


def _evaluate(scores: np.ndarray, pos: np.ndarray, neg: np.ndarray) -> EvalResult:
    """The checks and metrics of the covered items, in ``_tied_blocks`` terms."""
    if scores.size == 0:
        raise UndefinedMetricError("no covered records")
    # A whole class weight, such as a count of records, is reported as an int.
    n_pos, n_neg = (int(w) if w.is_integer() else w for w in map(float, (pos.sum(), neg.sum())))
    if n_pos == 0 or n_neg == 0:
        counts = f"n_pos={n_pos}, n_neg={n_neg}"
        raise UndefinedMetricError(f"covered subset is single-class ({counts})")
    if not ((pos > 0) | (neg > 0)).all():
        raise ValueError("labels must take values in {-1, +1}")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    return EvalResult(*_tied_blocks(scores, pos, neg), n_pos, n_neg, n_pos + n_neg)


def evaluate_label_model(scores: np.ndarray, coverage: np.ndarray, gold: np.ndarray) -> EvalResult:
    """Score quality on the covered subset only.

    ``scores``, ``coverage`` and ``gold`` are aligned 1-D arrays: scores
    for all records, the coverage mask (bool, as ``coverage_mask`` gives,
    or 0/1), and gold labels in {-1, +1}.
    Raises ``UndefinedMetricError`` when no record is covered or the
    covered subset is single-class, naming the covered class counts.
    """
    scores, coverage, gold = np.asarray(scores, np.float64), np.asarray(coverage), np.asarray(gold)
    if not (scores.shape == coverage.shape == gold.shape) or scores.ndim != 1:
        raise ValueError("scores, coverage, and gold must be aligned 1-D arrays")
    mask = coverage.astype(bool)
    return _evaluate(scores[mask], gold[mask] == 1, gold[mask] == -1)


def evaluate_patterns(scores: np.ndarray, table: VotePatterns) -> EvalResult:
    """``evaluate_label_model`` of the labelled records of a vote table, from
    one score per row and the rows' class weights; on a dataset whose
    records all have a label, the result and the errors are the same."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != table.pos.shape:
        raise ValueError("scores must hold one value per pattern")
    kept = table.rows.any(axis=1) & (table.pos + table.neg > 0)
    return _evaluate(scores[kept], table.pos[kept], table.neg[kept])
