"""Ranking metrics against hand values and brute-force pair counting."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weapo import UndefinedMetricError, evaluate_label_model, pr_auc, roc_auc
from weapo.data import compress_votes
from weapo.metrics import evaluate_patterns

from oracles import (
    average_precision_rank_walk,
    average_precision_tie_blocks,
    roc_auc_by_pair_counting,
)


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.8, 0.3, 0.2], [1, 1, -1, -1]) == 1.0

    def test_inverted_ranking(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [1, 1, -1, -1]) == 0.0

    def test_chance_level(self):
        assert roc_auc([0.9, 0.2, 0.8, 0.4], [1, 1, -1, -1]) == 0.5

    def test_one_inversion(self):
        assert roc_auc([0.9, 0.8, 0.3, 0.2], [1, -1, 1, -1]) == 0.75

    def test_all_tied_scores(self):
        assert roc_auc([0.4, 0.4, 0.4, 0.4], [1, 1, -1, -1]) == 0.5

    def test_matches_pair_counting_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 60))
            scores = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=n)
            labels = rng.choice([-1, 1], size=n)
            if len(set(labels)) < 2:
                continue
            assert roc_auc(scores, labels) == roc_auc_by_pair_counting(scores, labels)

    def test_complement_under_score_negation(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=30)
        labels = rng.choice([-1, 1], size=30)
        labels[0], labels[1] = 1, -1
        assert roc_auc(-scores, labels) == pytest.approx(
            1.0 - roc_auc(scores, labels), abs=1e-12
        )

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(2)
        scores = rng.uniform(size=40)
        labels = rng.choice([-1, 1], size=40)
        labels[0], labels[1] = 1, -1
        base = roc_auc(scores, labels)
        assert roc_auc(3.0 * scores + 7.0, labels) == base
        assert roc_auc(scores**3, labels) == base

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError, match=r"n_pos=2, n_neg=0"):
            roc_auc([0.1, 0.2], [1, 1])

    def test_empty_rejected(self):
        with pytest.raises(UndefinedMetricError, match="no instances"):
            roc_auc([], [])

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError, match=r"\{-1, \+1\}"):
            roc_auc([0.1, 0.2], [0, 1])

    def test_non_finite_scores_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            roc_auc([np.nan, 0.2], [1, -1])

    def test_misaligned_inputs_rejected(self):
        message = "scores and labels must be 1-D arrays of equal length"
        with pytest.raises(ValueError, match=f"^{message}$"):
            roc_auc([0.1, 0.2, 0.3], [1, -1])


class TestPrAuc:
    def test_perfect_separation(self):
        assert pr_auc([0.9, 0.8, 0.3, 0.2], [1, 1, -1, -1]) == 1.0

    def test_one_inversion_hand_value(self):
        """Blocks give 1 * 1/2 + ... : the exact walk lands on 5/6."""
        value = pr_auc([0.9, 0.8, 0.3, 0.2], [1, -1, 1, -1])
        oracle = average_precision_rank_walk(
            [0.9, 0.8, 0.3, 0.2], [1, -1, 1, -1]
        )
        assert value == oracle
        assert value == pytest.approx(5 / 6, abs=1e-15)

    def test_all_positive(self):
        assert pr_auc([0.3, 0.2, 0.1], [1, 1, 1]) == 1.0

    def test_matches_rank_walk_when_tie_free(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 60))
            scores = rng.normal(size=n)
            if len(set(scores.tolist())) < n:
                continue
            labels = rng.choice([-1, 1], size=n)
            if (labels == 1).sum() == 0:
                continue
            assert pr_auc(scores, labels) == average_precision_rank_walk(scores, labels)

    def test_matches_tie_block_walk_exactly(self):
        """Block ends from one sort give the per-record walk bit for bit,
        on inputs drawn from a few score levels so most of them tie."""
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 1200:
            n = int(rng.integers(1, 80))
            levels = int(rng.integers(1, 12))
            scores = rng.integers(0, levels, size=n) / levels
            if checked % 2:
                scores = scores + rng.normal(scale=1e-3, size=n) * (rng.random(n) < 0.5)
            labels = rng.choice([-1, 1], size=n)
            if not (labels == 1).any():
                continue
            assert pr_auc(scores, labels) == average_precision_tie_blocks(scores, labels)
            checked += 1

    def test_tie_blocks_are_atomic(self):
        """Permuting records inside a tied block cannot change the value."""
        scores = np.array([0.9, 0.5, 0.5, 0.5, 0.1])
        labels = np.array([1, 1, -1, 1, -1])
        base = pr_auc(scores, labels)
        rng = np.random.default_rng(4)
        for _ in range(10):
            perm = rng.permutation(5)
            assert pr_auc(scores[perm], labels[perm]) == base

    def test_no_positives_rejected(self):
        with pytest.raises(UndefinedMetricError, match="positive"):
            pr_auc([0.1, 0.2], [-1, -1])


class TestEvaluateLabelModel:
    def test_covered_subset_only(self):
        scores = np.array([0.9, 0.8, 0.3, 0.2, 0.0, 0.0])
        coverage = np.array([1, 1, 1, 1, 0, 0])
        gold = np.array([1, -1, 1, -1, 1, -1])
        result = evaluate_label_model(scores, coverage, gold)
        assert result.n_evaluated == 4
        assert result.n_pos == 2 and result.n_neg == 2
        assert result.roc_auc == 0.75
        assert result.pr_auc == pytest.approx(5 / 6, abs=1e-15)

    def test_full_mask_matches_raw_metrics(self):
        rng = np.random.default_rng(5)
        scores = rng.uniform(size=30)
        gold = rng.choice([-1, 1], size=30)
        gold[0], gold[1] = 1, -1
        result = evaluate_label_model(scores, np.ones(30), gold)
        assert result.roc_auc == roc_auc(scores, gold)
        assert result.pr_auc == pr_auc(scores, gold)
        assert result.n_evaluated == 30

    def test_mask_can_make_subset_single_class(self):
        scores = np.array([0.9, 0.1, 0.5])
        coverage = np.array([1, 0, 1])
        gold = np.array([1, -1, 1])
        with pytest.raises(UndefinedMetricError, match=r"n_pos=2, n_neg=0"):
            evaluate_label_model(scores, coverage, gold)

    def test_nothing_covered(self):
        with pytest.raises(UndefinedMetricError, match="no covered records"):
            evaluate_label_model(
                np.zeros(3), np.zeros(3), np.array([1, -1, 1])
            )

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError, match="aligned"):
            evaluate_label_model(np.zeros(3), np.ones(2), np.array([1, -1, 1]))

    def test_covered_record_without_gold_rejected(self):
        with pytest.raises(ValueError, match=r"labels must take values in \{-1, \+1\}"):
            evaluate_label_model(np.zeros(3), np.ones(3), np.array([1, -1, 0]))

    def test_non_finite_covered_score_rejected(self):
        """An uncovered record's score is never read, NaN or not."""
        gold = np.array([1, -1, 1])
        assert evaluate_label_model(np.array([1.0, 0.0, np.nan]), [1, 1, 0], gold).roc_auc == 1.0
        with pytest.raises(ValueError, match="scores must be finite"):
            evaluate_label_model(np.array([np.nan, 0.0, 1.0]), np.ones(3), gold)

    def test_json_payload(self):
        result = evaluate_label_model(
            np.array([0.9, 0.1]), np.array([1, 1]), np.array([1, -1])
        )
        payload = result.to_json_dict()
        assert payload == {
            "roc_auc": 1.0,
            "pr_auc": 1.0,
            "n_pos": 1,
            "n_neg": 1,
            "n_evaluated": 2,
        }


def _outcome(evaluate, *args):
    """The result of an evaluation with its floats as hex, or its error."""
    try:
        result = evaluate(*args)
    except ValueError as err:
        return type(err), str(err)
    floats = result.roc_auc.hex(), result.pr_auc.hex()
    return (*floats, result.n_pos, result.n_neg, result.n_evaluated)


def _both_ways(votes, pattern_scores, gold):
    """``evaluate_patterns`` and ``evaluate_label_model`` on the gathered
    scores, which must agree bit for bit, error messages included."""
    pats = compress_votes(votes, gold)
    scores = pattern_scores(pats.rows.astype(np.float64))
    by_pattern = _outcome(evaluate_patterns, scores, pats)
    by_record = _outcome(evaluate_label_model, scores[pats.inverse], votes.any(axis=1), gold)
    assert by_pattern == by_record
    return by_pattern


@st.composite
def pattern_cases(draw):
    """Votes drawn from a few rows so that patterns repeat, gold labels,
    and per-pattern scores that tie across different patterns: a weight
    vector on a coarse grid (uniform among them), or a few score levels."""
    m = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=m, max_size=m),
                         min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=60))
    votes = np.array(rows, dtype=np.int8)[picks]
    gold = np.array(draw(st.lists(st.sampled_from((-1, 1)), min_size=len(picks),
                                  max_size=len(picks))))
    if draw(st.booleans()):
        weights = np.array(draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)), float)
        theta = weights / weights.sum() if weights.any() else np.full(m, 1.0 / m)
        return votes, lambda rows: rows @ theta, gold
    levels = draw(st.lists(st.sampled_from((0.0, 0.25, 0.5, 1.0)), min_size=64, max_size=64))
    return votes, lambda rows: np.array(levels[: len(rows)]), gold


@settings(max_examples=400, deadline=None)
@given(pattern_cases())
def test_pattern_evaluation_equals_record_evaluation(case):
    _both_ways(*case)


class TestEvaluatePatterns:
    @pytest.mark.parametrize("case", ["cross-pattern-ties", "uniform", "single-covered"])
    def test_named_cases_agree(self, case):
        rng = np.random.default_rng(7)
        votes = (rng.random((200, 5)) < 0.3).astype(np.int8)
        gold = rng.choice([-1, 1], size=200)
        if case == "single-covered":
            votes[:] = 0
            votes[::3, 2] = 1
            gold[:6] = [1, -1, 1, -1, 1, -1]
        scorer = {
            # Patterns with the same number of fired votes tie.
            "cross-pattern-ties": lambda rows: rows.sum(axis=1) // 2,
            "uniform": lambda rows: rows @ np.full(5, 0.2),
            "single-covered": lambda rows: rows @ np.full(5, 0.2),
        }[case]
        result = _both_ways(votes, scorer, gold)
        assert result[2] > 0 and result[3] > 0

    @pytest.mark.parametrize("case", ["no-covered", "single-class"])
    def test_errors_agree(self, case):
        votes = np.array([[0, 0], [1, 0], [1, 1], [0, 0]], dtype=np.int8)
        gold = np.array([1, 1, 1, -1])
        if case == "no-covered":
            votes[:] = 0
        kind, message = _both_ways(votes, lambda rows: rows.sum(axis=1), gold)
        assert kind is UndefinedMetricError
        assert message == {
            "no-covered": "no covered records",
            "single-class": "covered subset is single-class (n_pos=2, n_neg=0)",
        }[case]

    def test_records_without_a_label_are_left_out(self):
        """The table counts only labelled records in its class weights."""
        rng = np.random.default_rng(9)
        votes = (rng.random((300, 4)) < 0.3).astype(np.int8)
        gold = rng.choice([-1, 0, 1], size=300)
        pats = compress_votes(votes, gold)
        scores = pats.rows @ np.array([0.1, 0.2, 0.3, 0.4])
        labelled = gold != 0
        assert _outcome(evaluate_patterns, scores, pats) == _outcome(
            evaluate_label_model, scores[pats.inverse][labelled], votes.any(axis=1)[labelled],
            gold[labelled],
        )

    def test_pair_count_limit(self):
        """Whole weights sum exactly in float64 while 2 * n_pos * n_neg stays
        below 2**53; at that bound the table is refused."""
        pats = compress_votes(np.array([[1, 0], [1, 1]]))
        half = 2.0**26
        pos = np.array([1.0, half - 1])
        below = dataclasses.replace(pats, pos=pos, neg=np.array([half - 1, 0]))
        result = evaluate_patterns(np.array([0.0, 1.0]), below)
        assert (result.n_pos, result.n_neg, result.roc_auc) == (2**26, 2**26 - 1, 1 - 2**-27)
        at = dataclasses.replace(pats, pos=pos, neg=np.array([half, 0]))
        with pytest.raises(ValueError, match="too many pairs to count exactly"):
            evaluate_patterns(np.array([0.0, 1.0]), at)

    def test_misaligned_inputs_rejected(self):
        pats = compress_votes(np.array([[1, 0], [0, 1]]), np.array([1, -1]))
        with pytest.raises(ValueError, match="one value per pattern"):
            evaluate_patterns(np.zeros(3), pats)
