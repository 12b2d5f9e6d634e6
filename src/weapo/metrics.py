"""Ranking metrics for label-model scores.

ROC-AUC is the Mann-Whitney statistic: the probability that a random
positive outranks a random negative, ties counting half. PR-AUC is
average precision with tied scores handled as atomic blocks, so
reordering within a tie cannot change the value. Both metrics are
undefined on single-class data and raise instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np


class UndefinedMetricError(ValueError):
    """The requested metric is undefined on the given label distribution."""


@dataclass(frozen=True)
class EvalResult:
    """Covered-subset evaluation summary."""

    roc_auc: float
    pr_auc: float
    n_pos: int
    n_neg: int
    n_evaluated: int

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "roc_auc": self.roc_auc,
            "pr_auc": self.pr_auc,
            "n_pos": self.n_pos,
            "n_neg": self.n_neg,
            "n_evaluated": self.n_evaluated,
        }


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


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve as a rank statistic.

    Equals the fraction of (positive, negative) pairs ranked correctly,
    counting ties as half. Invariant under strictly increasing transforms
    of the scores.

    Raises
    ------
    UndefinedMetricError
        If either class is absent.
    """
    scores, labels = _check_inputs(scores, labels)
    n_pos = int((labels == 1).sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"ROC-AUC needs both classes (n_pos={n_pos}, n_neg={n_neg})"
        )
    # Tie-averaged ranks: a block of c tied scores ending at rank r gets
    # r - (c - 1) / 2. Every rank is a half-integer, so the sum is exact.
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def pr_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Average precision with atomic tied blocks.

    Walks the ranking from the highest score down, one distinct score at
    a time, and accumulates precision * recall-increment after each
    block. Negatives are allowed to be absent (the value is then 1), but
    at least one positive is required.
    """
    scores, labels = _check_inputs(scores, labels)
    total_pos = int((labels == 1).sum())
    if total_pos == 0:
        raise UndefinedMetricError("PR-AUC needs at least one positive")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    # ends[b] is one past the last record of tied block b.
    ends = np.flatnonzero(np.append(s[1:] != s[:-1], True)) + 1
    cum_pos = np.cumsum(labels[order] == 1)[ends - 1]
    recall = cum_pos / total_pos
    precision = cum_pos / ends
    # cumsum adds the block terms in order, as a running sum would.
    return float(np.cumsum(np.diff(recall, prepend=0.0) * precision)[-1])


def evaluate_label_model(
    scores: np.ndarray,
    coverage: np.ndarray,
    gold: np.ndarray,
) -> EvalResult:
    """Score quality on the covered subset only.

    Parameters
    ----------
    scores, coverage, gold : 1-D arrays of equal length
        Scores for all records, the 0/1 coverage mask, and gold labels
        in {-1, +1}.

    Raises
    ------
    UndefinedMetricError
        When no record is covered or the covered subset is single-class;
        the message names the covered class counts.
    """
    scores = np.asarray(scores, dtype=np.float64)
    coverage = np.asarray(coverage)
    gold = np.asarray(gold)
    if not (scores.shape == coverage.shape == gold.shape) or scores.ndim != 1:
        raise ValueError("scores, coverage, and gold must be aligned 1-D arrays")
    mask = coverage.astype(bool)
    covered_scores = scores[mask]
    covered_gold = gold[mask]
    if covered_scores.size == 0:
        raise UndefinedMetricError("no covered records")
    n_pos = int((covered_gold == 1).sum())
    n_neg = int((covered_gold == -1).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"covered subset is single-class (n_pos={n_pos}, n_neg={n_neg})"
        )
    return EvalResult(
        roc_auc=roc_auc(covered_scores, covered_gold),
        pr_auc=pr_auc(covered_scores, covered_gold),
        n_pos=n_pos,
        n_neg=n_neg,
        n_evaluated=int(covered_scores.size),
    )
