"""Majority vote, Dawid-Skene EM, and the triplet-moment baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weapo import (
    DSModel,
    Dataset,
    Prior,
    Record,
    SyntheticSpec,
    WeapoConfig,
    convert_abstain,
    covers,
    ds_fit,
    ds_posteriors,
    fit,
    fs_fit,
    fs_fit_from_moments,
    fs_posteriors,
    generate,
    mv_scores,
    oracle_posteriors,
    predict_dataset,
)
from weapo.baselines import FSModel
from weapo.model import WeapoModel

from oracles import dawid_skene_per_row, signed_second_moments


def make_dataset(vote_rows):
    return Dataset.from_records(
        [Record(id=f"r{i}", votes=tuple(v)) for i, v in enumerate(vote_rows)]
    )


def product_moments(accuracies):
    """Second-moment matrix of independent symmetric channels at p = 1/2."""
    a = np.asarray(accuracies, dtype=np.float64)
    moments = np.outer(a, a)
    np.fill_diagonal(moments, 1.0)
    return moments


class TestConvertAbstain:
    def test_mapping(self):
        signed = convert_abstain(make_dataset([(1, 0), (0, 1)]))
        np.testing.assert_array_equal(signed, [[1, -1], [-1, 1]])

    def test_values_are_signed(self):
        rng = np.random.default_rng(0)
        ds = make_dataset([tuple(r) for r in rng.integers(0, 2, (30, 4))])
        assert set(np.unique(convert_abstain(ds))) <= {-1, 1}


class TestMajorityVote:
    def test_fraction_of_firing(self):
        assert mv_scores(make_dataset([(1, 0, 0)]))[0] == pytest.approx(1 / 3)
        assert mv_scores(make_dataset([(1, 1)])).tolist() == [1.0]
        assert mv_scores(make_dataset([(0,)])).tolist() == [0.0]

    def test_scores_match_per_record(self):
        ds = make_dataset([(1, 0), (1, 1), (0, 0)])
        np.testing.assert_allclose(mv_scores(ds), [0.5, 1.0, 0.0])

    def test_strictly_monotone_under_covering(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            m = int(rng.integers(1, 8))
            v1 = tuple(int(b) for b in rng.integers(0, 2, m))
            v2 = tuple(min(1, b + int(rng.random() < 0.5)) for b in v1)
            if covers(v2, v1):
                low, high = mv_scores(make_dataset([v1, v2]))
                assert high > low


class TestDawidSkene:
    def test_single_vote_posterior_by_hand(self):
        """One function, prior 1/2: Bayes gives 0.45 / 0.55 for a fire."""
        model = DSModel(
            class_prior=0.5,
            confusion=np.array([[[0.8, 0.2], [0.1, 0.9]]]),
        )
        post = ds_posteriors(model, np.array([[1], [-1]]))
        np.testing.assert_allclose(post, [0.45 / 0.55, 0.05 / 0.45], rtol=0, atol=1e-12)

    def test_uninformative_confusion_returns_prior(self):
        model = DSModel(class_prior=0.3, confusion=np.full((3, 2, 2), 0.5))
        post = ds_posteriors(model, np.array([[1, 1, 1], [-1, -1, -1], [1, -1, 1]]))
        np.testing.assert_allclose(post, 0.3, rtol=0, atol=1e-12)

    def test_symmetric_model_mirrors_posteriors(self):
        conf = np.array([[[0.9, 0.1], [0.1, 0.9]], [[0.7, 0.3], [0.3, 0.7]]])
        model = DSModel(class_prior=0.5, confusion=conf)
        v = np.random.default_rng(2).choice([-1, 1], size=(20, 2))
        total = ds_posteriors(model, v) + ds_posteriors(model, -v)
        np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-12)

    def test_constant_function_unsmoothed_is_exact(self):
        """A function that always fires carries no signal: EM drives its
        rates to exactly 1 and the posterior collapses to the class prior."""
        signed = np.ones((50, 1), dtype=np.int8)
        model = ds_fit(signed, Prior(0.65), smoothing=0.0)
        assert model.confusion[0, 1, 1] == 1.0
        assert model.confusion[0, 0, 1] == 1.0
        assert ds_posteriors(model, np.array([[1]]))[0] == pytest.approx(
            model.class_prior, abs=1e-12
        )

    def test_constant_function_smoothed_stays_near_prior(self):
        signed = np.ones((1000, 1), dtype=np.int8)
        model = ds_fit(signed, Prior(0.65))
        assert abs(ds_posteriors(model, np.array([[1]]))[0] - model.class_prior) <= 1e-3
        assert model.confusion[0, 1, 1] >= 0.99
        assert model.confusion[0, 0, 1] >= 0.99

    def test_recovers_planted_confusions(self):
        spec = SyntheticSpec(
            p_plus=0.5, tpr=(0.9, 0.8, 0.7), fpr=(0.1, 0.2, 0.3), n=10000, seed=5
        )
        model = ds_fit(convert_abstain(generate(spec)), Prior(0.5))
        assert abs(model.class_prior - 0.5) <= 0.05
        np.testing.assert_allclose(model.confusion[:, 1, 1], spec.tpr, atol=0.05)
        np.testing.assert_allclose(model.confusion[:, 0, 1], spec.fpr, atol=0.05)

    def test_objective_history_non_decreasing(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(5, 80))
            m = int(rng.integers(1, 6))
            signed = rng.choice([-1, 1], size=(n, m))
            model = ds_fit(signed, Prior(float(rng.uniform(0.2, 0.8))))
            hist = np.array(model.diagnostics["objective_history"])
            assert (np.diff(hist) >= -1e-10).all()

    def test_label_switched_fit_is_canonicalized(self):
        """With one function firing mostly on negatives, EM from majority
        vote ends on some seeds with class +1 the class that votes less;
        canonicalization flips it, so class +1 always has the larger
        posterior-weighted mean signed vote."""
        for seed in range(8):
            spec = SyntheticSpec(
                p_plus=0.3, tpr=(0.7, 0.3), fpr=(0.1, 0.9), n=200, seed=seed
            )
            signed = convert_abstain(generate(spec))
            resp = ds_posteriors(ds_fit(signed, Prior(0.1)), signed)
            mean_signed = signed.mean(axis=1)
            side_pos = resp @ mean_signed / resp.sum()
            side_neg = (1.0 - resp) @ mean_signed / (1.0 - resp).sum()
            assert side_pos >= side_neg

    def test_posteriors_stay_in_unit_interval(self):
        rng = np.random.default_rng(4)
        signed = rng.choice([-1, 1], size=(200, 4))
        model = ds_fit(signed, Prior(0.4))
        post = ds_posteriors(model, signed)
        assert (post >= 0.0).all() and (post <= 1.0).all()

    def test_zero_probability_vector_rejected(self):
        model = DSModel(
            class_prior=0.5, confusion=np.array([[[0.0, 1.0], [0.0, 1.0]]])
        )
        with pytest.raises(ValueError, match="zero probability"):
            ds_posteriors(model, np.array([[-1]]))

    def test_zero_probability_error_names_the_vector(self):
        """Function 0 always fires given y = +1 and function 1 never fires
        given y = -1, so the pattern (0, 1) is impossible under either class."""
        conf = np.array([[[0.6, 0.4], [0.0, 1.0]], [[1.0, 0.0], [0.3, 0.7]]])
        model = DSModel(class_prior=0.4, confusion=conf)
        with pytest.raises(ValueError, match=r"vote vector \(0, 1\) has zero probability"):
            ds_posteriors(model, np.array([[1, 1], [-1, 1]]))

    def test_boundary_rates_give_exact_posteriors(self):
        """A fire rate of exactly 0 or 1 rules patterns out: the posterior
        is then exactly 0.0 or 1.0, never NaN."""
        # Function 0 always fires given y = +1; function 1 never fires
        # given y = -1.
        conf = np.array([[[0.6, 0.4], [0.0, 1.0]], [[1.0, 0.0], [0.3, 0.7]]])
        model = DSModel(class_prior=0.4, confusion=conf)
        post = ds_posteriors(model, np.array([[-1, -1], [1, 1], [1, -1]]))
        assert post[0] == 0.0
        assert post[1] == 1.0
        assert 0.0 < post[2] < 1.0
        # A rate of 0 given y = +1 rules out y = +1 whenever it fires.
        never = DSModel(class_prior=0.5, confusion=np.array([[[0.5, 0.5], [1.0, 0.0]]]))
        post = ds_posteriors(never, np.array([[1], [-1]]))
        assert post[0] == 0.0
        assert post[1] == pytest.approx(2 / 3, abs=1e-15)

    def test_unsmoothed_fit_on_separable_votes_stays_finite(self):
        """Without smoothing EM drives rates onto 0 and 1; responsibilities
        and posteriors stay numbers in [0, 1]."""
        signed = np.array([[1, 1, -1]] * 30 + [[-1, -1, -1]] * 20 + [[-1, 1, 1]] * 10)
        model = ds_fit(signed, Prior(0.5), smoothing=0.0)
        assert np.isin(model.confusion[:, :, 1], (0.0, 1.0)).any()
        assert np.isfinite(model.diagnostics["objective_history"]).all()
        post = ds_posteriors(model, signed)
        assert not np.isnan(post).any()
        assert ((post >= 0.0) & (post <= 1.0)).all()

    def test_width_mismatch_rejected(self):
        model = DSModel(class_prior=0.5, confusion=np.full((2, 2, 2), 0.5))
        for votes in (np.array([[1, -1, 1]]), make_dataset([(1, 0, 1)])):
            with pytest.raises(ValueError, match="columns"):
                ds_posteriors(model, votes)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError, match=r"\{-1, \+1\}"):
            ds_fit(np.array([[0, 1]]), Prior(0.5))
        bad_settings = [
            ({"smoothing": -1.0}, "smoothing"),
            ({"smoothing": float("nan")}, "smoothing"),
            ({"smoothing": float("inf")}, "smoothing"),
            ({"tol": -1e-6}, "tol"),
            ({"tol": float("nan")}, "tol"),
            ({"tol": float("inf")}, "tol"),
            ({"max_iters": 0}, "max_iters"),
            ({"max_iters": -3}, "max_iters"),
            ({"max_iters": 2.5}, "max_iters"),
            ({"max_iters": True}, "max_iters"),
        ]
        for settings_, name in bad_settings:
            with pytest.raises(ValueError, match=name):
                ds_fit(np.array([[1, -1]]), Prior(0.5), **settings_)

    def test_initial_prior_defaults_to_one_half(self):
        signed = np.random.default_rng(5).choice([-1, 1], size=(50, 3))
        model, half = ds_fit(signed), ds_fit(signed, Prior(0.5))
        assert model.class_prior == half.class_prior
        assert (model.confusion == half.confusion).all()

    def test_json_round_trip(self):
        signed = np.random.default_rng(5).choice([-1, 1], size=(50, 3))
        model = ds_fit(signed, Prior(0.5))
        back = DSModel.from_json_dict(model.to_json_dict())
        assert back.class_prior == model.class_prior
        assert (back.confusion == model.confusion).all()

    def test_invalid_payloads_rejected(self):
        good = ds_fit(np.random.default_rng(5).choice([-1, 1], size=(50, 3)), Prior(0.5))
        payload = good.to_json_dict()
        bad_cases = [
            ({"class_prior": 0.0}, "class_prior"),
            ({"class_prior": 1.0}, "class_prior"),
            ({"class_prior": float("nan")}, "class_prior"),
            ({"confusion": [[0.5, 0.5], [0.5, 0.5]]}, r"\(M, 2, 2\)"),
            ({"confusion": [[[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]]]}, r"\(M, 2, 2\)"),
            ({"confusion": []}, r"\(M, 2, 2\)"),
            ({"confusion": [[[1.2, -0.2], [0.5, 0.5]]]}, r"\[0, 1\]"),
            ({"confusion": [[[float("nan"), 0.5], [0.5, 0.5]]]}, r"\[0, 1\]"),
            ({"confusion": [[[0.5, 0.6], [0.5, 0.5]]]}, "sum to 1"),
            ({"confusion": [[[0.5, 0.5], [0.3, 0.3]]]}, "sum to 1"),
            ({"class_prior": "0.5"}, "class_prior"),
            ({"class_prior": None}, "class_prior"),
            ({"class_prior": [0.5]}, "class_prior"),
            ({"confusion": [[["0.5", 0.5], [0.5, 0.5]]]}, "confusion"),
            ({"confusion": [[[True, False], [0.5, 0.5]]]}, "confusion"),
            ({"confusion": [[[0.5, 0.5], [0.5]]]}, "confusion"),
            ({"diagnostics": [1, 2]}, "diagnostics"),
            ({"model_type": "ds"}, "'model_type'"),
        ]
        for change, message in bad_cases:
            with pytest.raises(ValueError, match=message):
                DSModel.from_json_dict({**payload, **change})
        with pytest.raises(ValueError, match="lacks key 'confusion'"):
            DSModel.from_json_dict({"class_prior": 0.5})


class TestDawidSkeneOverPatterns:
    def test_matches_per_row_reference_em(self):
        """EM over weighted patterns equals EM over every row, duplicates
        included: same iteration count, parameters within 1e-12."""
        rng = np.random.default_rng(31)
        for trial in range(30):
            k = int(rng.integers(2, 10))
            m = int(rng.integers(1, 6))
            n = int(rng.integers(5, 150))
            base = rng.choice([-1, 1], size=(k, m))
            signed = base[rng.integers(0, k, size=n)]
            p = float(rng.uniform(0.2, 0.8))
            smoothing = (1.0, 0.5, 2.0)[trial % 3]
            model = ds_fit(signed, Prior(p), smoothing=smoothing)
            pi, pos, neg, iterations = dawid_skene_per_row(signed, p, smoothing=smoothing)
            assert model.diagnostics["iterations"] == iterations
            assert abs(model.class_prior - pi) <= 1e-12
            assert np.abs(model.confusion[:, 1, 1] - pos).max() <= 1e-12
            assert np.abs(model.confusion[:, 0, 1] - neg).max() <= 1e-12

    def test_row_order_does_not_matter(self):
        rng = np.random.default_rng(32)
        signed = rng.choice([-1, 1], size=(300, 4))
        model = ds_fit(signed, Prior(0.4))
        shuffled = ds_fit(signed[rng.permutation(300)], Prior(0.4))
        np.testing.assert_allclose(shuffled.confusion, model.confusion, rtol=0, atol=1e-12)
        assert shuffled.diagnostics["iterations"] == model.diagnostics["iterations"]

    def test_posteriors_gathered_per_record(self):
        rng = np.random.default_rng(33)
        signed = rng.choice([-1, 1], size=(200, 3))
        model = ds_fit(signed, Prior(0.5))
        batch = ds_posteriors(model, signed)
        singles = [ds_posteriors(model, row[None])[0] for row in signed]
        assert batch.tolist() == singles


class TestTripletMethod:
    def test_worked_example(self):
        moments = np.array(
            [[1.0, 0.48, 0.40], [0.48, 1.0, 0.30], [0.40, 0.30, 1.0]]
        )
        model = fs_fit_from_moments(moments, Prior(0.5))
        np.testing.assert_allclose(model.accuracies, [0.8, 0.6, 0.5], atol=1e-12)
        assert model.class_prior == 0.5

    def test_product_moments_recovered_exactly(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = int(rng.integers(3, 7))
            a = rng.uniform(0.2, 0.95, size=m)
            model = fs_fit_from_moments(product_moments(a), Prior(0.5))
            np.testing.assert_allclose(model.accuracies, a, atol=1e-12)

    def test_dead_function_filtered_not_fatal(self):
        """A zero-accuracy function zeroes out its moments; the remaining
        triplets still identify everyone."""
        a = (0.8, 0.0, 0.6, 0.5)
        model = fs_fit_from_moments(product_moments(a), Prior(0.5))
        np.testing.assert_allclose(model.accuracies, a, atol=1e-12)

    def test_too_few_functions_rejected(self):
        with pytest.raises(ValueError, match="M >= 3"):
            fs_fit_from_moments(np.eye(2), Prior(0.5))

    def test_bad_inputs_rejected(self):
        moments = product_moments([0.8, 0.6, 0.5])
        signed = np.array([[1, -1, 1], [1, 1, -1], [-1, 1, 1]])
        for eps_clip in (float("nan"), float("inf"), -1e-4, 0.0, 1e-17, 1.0, 2.0):
            with pytest.raises(ValueError, match="eps_clip"):
                fs_fit_from_moments(moments, Prior(0.5), eps_clip=eps_clip)
            with pytest.raises(ValueError, match="eps_clip"):
                fs_fit(signed, Prior(0.5), eps_clip=eps_clip)
        with pytest.raises(ValueError, match=r"\{-1, \+1\}"):
            fs_fit(np.array([[0, 1, 1]]), Prior(0.5))

    def test_no_admissible_triplet_rejected(self):
        with pytest.raises(ValueError, match="no admissible triplet"):
            fs_fit_from_moments(np.eye(3), Prior(0.5))

    def test_estimates_clipped_below_one(self):
        moments = np.array([[1.0, 0.99, 0.99], [0.99, 1.0, 0.8], [0.99, 0.8, 1.0]])
        model = fs_fit_from_moments(moments, Prior(0.5))
        assert (model.accuracies <= 1.0 - 1e-4 + 1e-15).all()

    def test_sampled_recovery(self):
        a = np.array([0.8, 0.6, 0.5])
        spec = SyntheticSpec(
            p_plus=0.5,
            tpr=tuple((1 + a) / 2),
            fpr=tuple((1 - a) / 2),
            n=20000,
            seed=6,
        )
        model = fs_fit(convert_abstain(generate(spec)), Prior(0.5))
        np.testing.assert_allclose(model.accuracies, a, atol=0.05)

    def test_single_channel_posterior_by_hand(self):
        """a = 0.8 at prior 1/2 gives odds 1.8 : 0.2, so 0.9 on a fire."""
        model = FSModel(accuracies=np.array([0.8]), class_prior=0.5)
        post = fs_posteriors(model, np.array([[1], [-1]]))
        np.testing.assert_allclose(post, [0.9, 0.1], rtol=0, atol=1e-12)

    def test_zero_probability_error_names_the_vector(self):
        """Accuracy 1 makes a function fire always given y = +1 and never
        given y = -1, so two such functions never split."""
        model = FSModel(accuracies=np.array([1.0, 1.0, 0.5]), class_prior=0.5)
        with pytest.raises(ValueError, match=r"vote vector \(1, 0, 1\) has zero probability"):
            fs_posteriors(model, np.array([[1, 1, -1], [1, -1, 1]]))

    def test_extreme_log_odds_saturate(self):
        """Log-odds far beyond the float range of exp give exactly 0 or 1."""
        model = FSModel(accuracies=np.full(100, 0.9999), class_prior=0.5)
        post = fs_posteriors(model, np.array([[-1] * 100, [1] * 100]))
        assert post.tolist() == [0.0, 1.0]

    def test_zero_accuracies_return_prior(self):
        model = FSModel(accuracies=np.zeros(3), class_prior=0.37)
        post = fs_posteriors(model, np.array([[1, 1, 1], [-1, 1, -1]]))
        np.testing.assert_allclose(post, 0.37, rtol=0, atol=1e-12)

    def test_negation_symmetry_at_even_prior(self):
        model = FSModel(accuracies=np.array([0.7, 0.4, 0.2]), class_prior=0.5)
        v = np.random.default_rng(7).choice([-1, 1], size=(20, 3))
        total = fs_posteriors(model, v) + fs_posteriors(model, -v)
        np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-12)

    def test_posteriors_vectorized_matches_scalar(self):
        model = FSModel(accuracies=np.array([0.7, 0.4, 0.2]), class_prior=0.3)
        signed = np.random.default_rng(8).choice([-1, 1], size=(40, 3))
        batch = fs_posteriors(model, signed)
        singles = [fs_posteriors(model, row[None])[0] for row in signed]
        np.testing.assert_allclose(batch, singles, atol=1e-15)

    def test_width_mismatch_rejected(self):
        model = FSModel(accuracies=np.array([0.7, 0.4]), class_prior=0.3)
        for votes in (np.array([[1, -1, 1]]), make_dataset([(1, 0, 1)])):
            with pytest.raises(ValueError, match="columns"):
                fs_posteriors(model, votes)

    def test_json_round_trip(self):
        model = FSModel(accuracies=np.array([0.25, 0.5, 0.75]), class_prior=0.4)
        back = FSModel.from_json_dict(model.to_json_dict())
        assert (back.accuracies == model.accuracies).all()
        assert back.class_prior == model.class_prior

    def test_invalid_payloads_rejected(self):
        payload = FSModel(accuracies=np.array([0.25, 0.5, 0.75]), class_prior=0.4).to_json_dict()
        deep = 0.5
        for _ in range(5000):
            deep = [deep]
        bad_cases = [
            ({"accuracies": [0.5, 1.0, 0.5]}, r"\[0, 1\)"),
            ({"accuracies": [0.5, -0.1, 0.5]}, r"\[0, 1\)"),
            ({"accuracies": [0.5, float("inf"), 0.5]}, r"\[0, 1\)"),
            ({"accuracies": []}, "non-empty"),
            ({"accuracies": [[0.5]]}, "non-empty"),
            ({"class_prior": 0.0}, "class_prior"),
            ({"class_prior": 1.5}, "class_prior"),
            ({"class_prior": True}, "class_prior"),
            ({"accuracies": "0.5"}, "accuracies"),
            ({"accuracies": ["0.25", 0.5, 0.75]}, "accuracies"),
            ({"accuracies": [0.25, None, 0.75]}, "accuracies"),
            ({"accuracies": deep}, "accuracies"),
            ({"diagnostics": {}}, "'diagnostics'"),
        ]
        for change, message in bad_cases:
            with pytest.raises(ValueError, match=message):
                FSModel.from_json_dict({**payload, **change})


def _outcome(fn, *args):
    """The bytes of a call's array (or FS accuracies), or the message of
    the ValueError it raised."""
    try:
        result = fn(*args)
    except ValueError as err:
        return str(err)
    return getattr(result, "accuracies", result).tobytes()


def _datasets_with_duplicate_rows():
    rng = np.random.default_rng(41)
    for _ in range(30):
        k = int(rng.integers(1, 12))
        m = int(rng.integers(1, 7))
        n = int(rng.integers(2, 200))
        base = rng.integers(0, 2, size=(k, m))
        yield make_dataset(base[rng.integers(0, k, size=n)].tolist())
    for seed in (1, 2):
        yield generate(
            SyntheticSpec(p_plus=0.3, tpr=(0.8, 0.6, 0.7, 0.5), fpr=(0.1, 0.2, 0.05, 0.3),
                          n=3000, seed=seed)
        )


class TestDatasetRoute:
    """Each baseline reads a ``Dataset``'s cached patterns and gives the
    bitwise result of the signed-array route."""

    def test_dataset_and_signed_routes_bitwise_equal(self):
        for dataset in _datasets_with_duplicate_rows():
            signed = convert_abstain(dataset)
            by_data = ds_fit(dataset, Prior(0.4))
            by_array = ds_fit(signed, Prior(0.4))
            assert by_data.class_prior == by_array.class_prior
            assert by_data.confusion.tobytes() == by_array.confusion.tobytes()
            assert by_data.diagnostics == by_array.diagnostics
            fs_model = FSModel(np.full(dataset.num_lfs, 0.5), 0.3)
            for fn, model in ((ds_posteriors, by_data), (fs_posteriors, fs_model)):
                assert _outcome(fn, model, dataset) == _outcome(fn, model, signed)
            assert _outcome(fs_fit, dataset, Prior(0.4)) == _outcome(fs_fit, signed, Prior(0.4))

    def test_pattern_moments_equal_per_record_moments(self):
        for dataset in _datasets_with_duplicate_rows():
            if dataset.num_lfs < 3:
                continue
            moments = signed_second_moments(convert_abstain(dataset))
            assert _outcome(fs_fit, dataset, Prior(0.4)) == _outcome(
                fs_fit_from_moments, moments, Prior(0.4)
            )

    def test_zero_record_dataset_rejected(self):
        empty = Dataset(ids=(), votes_matrix=np.zeros((0, 3), dtype=np.int8))
        calls = [
            lambda: ds_fit(empty, Prior(0.5)),
            lambda: ds_posteriors(DSModel(0.5, np.full((3, 2, 2), 0.5)), empty),
            lambda: fs_fit(empty, Prior(0.5)),
            lambda: fs_posteriors(FSModel(np.full(3, 0.5), 0.5), empty),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="no records"):
                call()


@st.composite
def dominance_cases(draw):
    n = draw(st.integers(1, 25))
    m = draw(st.integers(1, 6))
    votes = np.array(
        draw(st.lists(st.lists(st.integers(0, 1), min_size=m, max_size=m),
                      min_size=n, max_size=n))
    ).reshape(n, m)
    unit = st.floats(0.01, 0.99)
    accuracies = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=m, max_size=m))
    return votes, draw(unit), draw(st.sampled_from((0.0, 0.1, 1.0))), draw(unit), accuracies


@settings(max_examples=300, deadline=None)
@given(dominance_cases())
def test_dominating_pattern_never_scores_lower(case):
    """If record i's votes fire wherever record k's do, i scores at least
    as high as k under fitted weapo, majority vote and any triplet model
    (its accuracies are non-negative). Dawid-Skene is left out: a
    worse-than-random function rightly lowers the posterior when it fires."""
    votes, p, lam, fs_prior, accuracies = case
    dataset = make_dataset(votes.tolist())
    dominates = (votes[:, None, :] >= votes[None, :, :]).all(axis=2)
    scores = {
        "mv": mv_scores(dataset),
        "fs": fs_posteriors(
            FSModel(accuracies=np.array(accuracies), class_prior=fs_prior),
            convert_abstain(dataset),
        ),
    }
    if votes.any():
        model = fit(dataset, Prior(p), WeapoConfig(lambda_reg=lam))
        scores["weapo"] = predict_dataset(model, dataset)[0]
    for name, values in scores.items():
        assert (values[:, None] >= values[None, :])[dominates].all(), name


@pytest.mark.parametrize(
    "model",
    [
        WeapoModel(theta=np.full(3, 1 / 3), config=WeapoConfig()),
        DSModel(class_prior=0.5, confusion=np.full((3, 2, 2), 0.5)),
        FSModel(accuracies=np.full(3, 0.5), class_prior=0.5),
        oracle_posteriors(SyntheticSpec(p_plus=0.5, tpr=(0.7,) * 3, fpr=(0.2,) * 3, n=0)),
    ],
    ids=["weapo", "ds", "fs", "oracle"],
)
def test_pattern_scores_name_both_widths(model):
    """Every model's per-pattern scorer refuses votes of another width and
    names both widths."""
    patterns = make_dataset([(1, 0), (0, 1)]).patterns
    with pytest.raises(ValueError, match=r"votes have 2 \w+( \w+)?, model expects 3"):
        model.pattern_scores(patterns)
