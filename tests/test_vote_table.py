"""The contract of the weighted vote table that every fit and metric reads.

A fit reads only the rows of ``VotePatterns`` and their weights, and a
metric only the rows and their class weights. So the order of the
records cannot change a result, a permutation of the functions permutes
the fitted parameters, and scaling every weight by one constant changes
nothing that is not a total.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weapo import Dataset, Prior, SyntheticSpec, ds_fit, fit, fs_fit, generate
from weapo.metrics import evaluate_patterns

PRIOR = Prior(0.3)


@st.composite
def labelled_votes(draw):
    """Votes drawn from a few rows so that patterns repeat, at least one
    of them covered; gold labels; a permutation of the records and one of
    the functions."""
    m = draw(st.integers(3, 6))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=m, max_size=m),
                         min_size=2, max_size=8))
    picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=4, max_size=60))
    votes = np.array(rows, dtype=np.int8)[picks]
    votes[0, 0] = 1
    gold = np.array(draw(st.lists(st.sampled_from((-1, 1)), min_size=len(picks),
                                  max_size=len(picks))), dtype=np.int8)
    records = np.array(draw(st.permutations(range(len(picks)))))
    functions = np.array(draw(st.permutations(range(m))))
    return votes, gold, records, functions


def dataset(votes, gold):
    return Dataset(ids=tuple(f"r{i}" for i in range(len(votes))), votes_matrix=votes, gold=gold)


def fitted(data, **ds_settings):
    """Each label model fitted on ``data``: the model, or its error."""
    fits = {
        "weapo": lambda: fit(data, PRIOR),
        "ds": lambda: ds_fit(data, PRIOR, **ds_settings),
        "fs": lambda: fs_fit(data, PRIOR),
    }
    models = {}
    for name, fit_one in fits.items():
        try:
            models[name] = fit_one()
        except ValueError as err:
            models[name] = str(err)
    return models


def evaluated(model, data):
    """The evaluation of ``model`` on the table of ``data``, floats as hex, or its error."""
    if isinstance(model, str):
        return model
    try:
        result = evaluate_patterns(model.pattern_scores(data.patterns), data.patterns)
    except ValueError as err:
        return str(err)
    return result.roc_auc.hex(), result.pr_auc.hex(), result.n_pos, result.n_neg


@settings(max_examples=150, deadline=None)
@given(labelled_votes())
def test_record_order_changes_no_fit_and_no_evaluation(case):
    """Each fit, and each model's evaluation, is bitwise the same after a
    permutation of the records."""
    votes, gold, records, _ = case
    data, shuffled = dataset(votes, gold), dataset(votes[records], gold[records])
    models, shuffled_models = fitted(data), fitted(shuffled)
    for name, model in models.items():
        other = shuffled_models[name]
        if isinstance(model, str):
            assert other == model, name
            continue
        assert other.to_json_dict() == model.to_json_dict(), name
        assert evaluated(other, shuffled) == evaluated(model, data), name


@settings(max_examples=150, deadline=None)
@given(labelled_votes())
def test_function_order_permutes_the_fitted_parameters(case):
    """Permuting the functions permutes theta, the confusions and the
    accuracies, within 1e-12: not bitwise, as weapo's ``a @ theta`` and
    EM's sums over functions run in column order. ds takes one EM step
    here (no improvement reaches its ``tol``): where the objective is
    flat, those roundings can move the iteration at which EM stops (141
    against 145 steps on four records), which the next test leaves out."""
    votes, gold, _, functions = case
    models = fitted(dataset(votes, gold), tol=1e300)
    permuted = fitted(dataset(votes[:, functions], gold), tol=1e300)
    for name, model in models.items():
        other = permuted[name]
        assert isinstance(other, str) == isinstance(model, str), name
        if isinstance(model, str):
            continue
        if name == "weapo":
            pairs = [(other.theta, model.theta[functions])]
        elif name == "ds":
            assert other.diagnostics["iterations"] == model.diagnostics["iterations"]
            pairs = [(other.confusion, model.confusion[functions]),
                     (other.class_prior, model.class_prior)]
        else:
            pairs = [(other.accuracies, model.accuracies[functions])]
        for got, want in pairs:
            assert np.abs(np.asarray(got) - want).max() <= 1e-12, name


def synthetic(seed, n=20_000):
    """A dataset of the law the probes use: M = 8, p = 0.1, tpr from
    U(0.2, 0.6) and fpr from U(0.01, 0.1)."""
    rng = np.random.default_rng(seed)
    return generate(SyntheticSpec(p_plus=0.1, tpr=tuple(rng.uniform(0.2, 0.6, 8)),
                                  fpr=tuple(rng.uniform(0.01, 0.1, 8)), n=n, seed=seed))


@pytest.mark.parametrize("seed", range(10))
def test_function_order_permutes_the_converged_dawid_skene_fit(seed):
    """Run to convergence on sampled data, ds takes as many EM steps after
    a permutation of the functions and permutes its parameters within 1e-12."""
    data = synthetic(seed)
    functions = np.random.default_rng(seed).permutation(8)
    model = ds_fit(data, PRIOR)
    other = ds_fit(dataset(data.votes_matrix[:, functions], data.gold), PRIOR)
    assert other.diagnostics["iterations"] == model.diagnostics["iterations"]
    assert abs(other.class_prior - model.class_prior) <= 1e-12
    assert np.abs(other.confusion - model.confusion[functions]).max() <= 1e-12


@pytest.mark.parametrize(
    "total, message",
    [
        (0.0, "dataset has no records"),
        (np.nan, "vote table total weight must be positive and finite, got nan"),
        (np.inf, "vote table total weight must be positive and finite, got inf"),
        (-1.0, "vote table total weight must be positive and finite, got -1.0"),
    ],
    ids=["zero", "nan", "inf", "negative"],
)
def test_every_fit_refuses_a_table_of_no_positive_finite_weight(total, message):
    """weapo, ds and fs read their table through one accessor, which refuses
    a total weight that is not positive and finite with one message for
    each kind: weapo's mean votes would be NaN, and ds and fs would refuse
    with a message about something else."""
    counts = synthetic(0, n=500).patterns
    weights = np.zeros_like(counts.weights)
    weights[-1] = total
    table = dataclasses.replace(counts, weights=weights, inverse=None)
    assert table.rows.any()
    assert fitted(table) == {"weapo": message, "ds": message, "fs": message}


@pytest.mark.parametrize("seed", range(4))
def test_weights_scaled_to_probabilities_fit_and_evaluate_as_counts(seed):
    """A table of counts and the same table with every weight divided by
    the record count n give weapo, fs and ds (at smoothing 0) within 1e-12,
    and the same metrics within 1e-12 with totals divided by n. EM stops
    on the absolute change of a sum over records, so ds's ``tol`` is
    divided by n as well, and then it takes as many iterations."""
    counts = synthetic(seed).patterns
    n = counts.weights.sum()
    scaled = dataclasses.replace(counts, weights=counts.weights / n, pos=counts.pos / n,
                                 neg=counts.neg / n, inverse=None)
    for got, want in (
        (fit(scaled, PRIOR).theta, fit(counts, PRIOR).theta),
        (fs_fit(scaled, PRIOR).accuracies, fs_fit(counts, PRIOR).accuracies),
    ):
        assert np.abs(got - want).max() <= 1e-12
    ds_counts = ds_fit(counts, smoothing=0.0)
    ds_scaled = ds_fit(scaled, smoothing=0.0, tol=1e-6 / n)
    assert ds_scaled.diagnostics["iterations"] == ds_counts.diagnostics["iterations"]
    assert abs(ds_scaled.class_prior - ds_counts.class_prior) <= 1e-12
    assert np.abs(ds_scaled.confusion - ds_counts.confusion).max() <= 1e-12
    by_counts = evaluate_patterns(ds_counts.pattern_scores(counts), counts)
    by_weights = evaluate_patterns(ds_counts.pattern_scores(scaled), scaled)
    assert isinstance(by_counts.n_pos, int) and isinstance(by_weights.n_pos, float)
    assert abs(by_weights.roc_auc - by_counts.roc_auc) <= 1e-12
    assert abs(by_weights.pr_auc - by_counts.pr_auc) <= 1e-12
    for total in ("n_pos", "n_neg", "n_evaluated"):
        assert abs(getattr(by_weights, total) - getattr(by_counts, total) / n) <= 1e-12
