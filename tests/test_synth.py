"""Synthetic generator, closed-form oracle, and population moments."""

import itertools

import numpy as np
import pytest

from weapo import (
    DSModel,
    Dataset,
    FeatureSpec,
    Prior,
    SyntheticSpec,
    convert_abstain,
    ds_fit,
    ds_posteriors,
    fit,
    fs_fit,
    fs_posteriors,
    generate,
    mv_scores,
    oracle_posteriors,
    population_moments,
    predict_dataset,
    roc_auc,
    save_dataset,
)
from weapo.synth import BLOCK_SIZE


def make_dataset(vote_rows):
    return Dataset(ids=[f"r{i}" for i in range(len(vote_rows))], votes_matrix=vote_rows)


def spec_3lf(**overrides):
    base = dict(p_plus=0.5, tpr=(0.9, 0.8, 0.7), fpr=(0.1, 0.2, 0.3), n=200, seed=0)
    base.update(overrides)
    return SyntheticSpec(**base)


class TestGenerate:
    def test_bitwise_deterministic(self):
        spec = spec_3lf(
            n=100,
            feature_spec=FeatureSpec(mu_pos=(1.0,), mu_neg=(-1.0,), sigma=1.0),
        )
        a = generate(spec)
        b = generate(spec)
        assert a == b
        np.testing.assert_array_equal(a.features_matrix, b.features_matrix)

    def test_different_seeds_differ(self):
        assert generate(spec_3lf(seed=0)) != generate(spec_3lf(seed=1))

    def test_record_shape(self):
        spec = spec_3lf(n=25)
        ds = generate(spec)
        assert len(ds) == 25
        assert ds.num_lfs == 3
        assert ds.ids[0] == "r00"
        assert np.isin(ds.gold, (-1, 1)).all()
        assert ds.features_matrix is None

    def test_feature_dimension(self):
        spec = spec_3lf(
            n=10,
            feature_spec=FeatureSpec(mu_pos=(1.0, 0.0, 2.0), mu_neg=(0.0, 0.0, 0.0), sigma=0.5),
        )
        ds = generate(spec)
        assert ds.features_matrix.shape == (10, 3)

    def test_deterministic_votes_at_extreme_rates(self):
        """tpr = 1 and fpr = 0 make every vote equal the gold label bit."""
        spec = SyntheticSpec(p_plus=0.5, tpr=(1.0, 1.0), fpr=(0.0, 0.0), n=300, seed=2)
        ds = generate(spec)
        expected = np.repeat((ds.gold == 1)[:, None], 2, axis=1)
        np.testing.assert_array_equal(ds.votes_matrix, expected)

    def test_class_frequency_within_three_sigma(self):
        p, n = 0.3, 5000
        bound = 3.0 * np.sqrt(p * (1 - p) / n)
        for seed in range(10):
            spec = SyntheticSpec(
                p_plus=p, tpr=(0.8, 0.7), fpr=(0.2, 0.1), n=n, seed=seed
            )
            frac = np.mean(generate(spec).gold == 1)
            assert abs(frac - p) <= bound

    def test_empty_dataset_allowed(self):
        ds = generate(spec_3lf(n=0))
        assert len(ds) == 0

    def test_whole_blocks_do_not_depend_on_n(self):
        """Each block draws from its own stream, so the complete blocks of a
        short run reappear unchanged in a longer one."""
        block = BLOCK_SIZE
        short = generate(spec_3lf(n=block + 10, seed=7))
        long = generate(spec_3lf(n=3 * block, seed=7))
        np.testing.assert_array_equal(short.votes_matrix[:block], long.votes_matrix[:block])
        np.testing.assert_array_equal(short.gold[:block], long.gold[:block])
        assert not np.array_equal(long.votes_matrix[:block], long.votes_matrix[block:2 * block])

    def test_saved_file_is_stable(self, tmp_path):
        spec = spec_3lf(n=50)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(generate(spec), p1)
        save_dataset(generate(spec), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestOracleTable:
    def test_single_function_by_hand(self):
        """p = 1/2, tpr = 0.9, fpr = 0.1: a fire gives 0.9 / 1.0."""
        oracle = oracle_posteriors(
            SyntheticSpec(p_plus=0.5, tpr=(0.9,), fpr=(0.1,), n=1, seed=0)
        )
        assert oracle.posterior((1,)) == pytest.approx(0.9, abs=1e-12)
        assert oracle.posterior((0,)) == pytest.approx(0.1, abs=1e-12)

    def test_certain_fire_is_conclusive(self):
        oracle = oracle_posteriors(
            SyntheticSpec(p_plus=0.3, tpr=(0.6, 0.5), fpr=(0.0, 0.5), n=1, seed=0)
        )
        assert oracle.posterior((1, 0)) == 1.0
        assert oracle.posterior((1, 1)) == 1.0

    def test_matched_rates_return_prior(self):
        oracle = oracle_posteriors(
            SyntheticSpec(p_plus=0.35, tpr=(0.4, 0.7), fpr=(0.4, 0.7), n=1, seed=0)
        )
        for votes in ((0, 0), (0, 1), (1, 0), (1, 1)):
            assert oracle.posterior(votes) == pytest.approx(0.35, abs=1e-12)

    def test_zero_probability_vector_rejected(self):
        oracle = oracle_posteriors(
            SyntheticSpec(p_plus=0.5, tpr=(1.0,), fpr=(1.0,), n=1, seed=0)
        )
        with pytest.raises(ValueError, match="zero probability"):
            oracle.posterior((0,))

    def test_length_mismatch_rejected(self):
        oracle = oracle_posteriors(spec_3lf())
        with pytest.raises(ValueError, match="length"):
            oracle.posterior((1, 0))

    def test_non_binary_vote_rejected(self):
        oracle = oracle_posteriors(spec_3lf())
        with pytest.raises(ValueError, match=r"vote vector \(2, 0, 1\) holds a value other"):
            oracle.posterior((2, 0, 1))

    def test_full_table_size_and_consistency(self):
        spec = spec_3lf()
        oracle = oracle_posteriors(spec)
        table = {votes: oracle.posterior(votes) for votes in itertools.product((0, 1), repeat=3)}
        assert len(table) == 8
        law_mean = sum(
            post
            * np.prod(
                [
                    spec.p_plus * (t if v else 1 - t)
                    + (1 - spec.p_plus) * (f if v else 1 - f)
                    for v, t, f in zip(votes, spec.tpr, spec.fpr)
                ]
            )
            for votes, post in table.items()
        )
        assert law_mean == pytest.approx(spec.p_plus, abs=1e-12)

    def test_scores_align_with_records(self):
        spec = spec_3lf(n=40)
        ds = generate(spec)
        oracle = oracle_posteriors(spec)
        scores = oracle.scores(ds)
        assert scores.shape == (40,)
        assert scores[0] == oracle.posterior(ds.votes_matrix[0])

    def test_scores_equal_posterior_bitwise_on_every_record(self):
        rng = np.random.default_rng(8)
        for m, n in ((3, 300), (8, 2000), (16, 2000)):
            tpr = tuple(rng.uniform(0.3, 1.0, size=m))
            fpr = tuple(rng.uniform(0.0, 0.4, size=m))
            spec = SyntheticSpec(p_plus=0.3, tpr=tpr, fpr=fpr, n=n, seed=m)
            ds = generate(spec)
            oracle = oracle_posteriors(spec)
            scores = oracle.scores(ds)
            assert scores.tolist() == [oracle.posterior(v) for v in ds.votes_matrix]

    def test_scores_reject_zero_probability_vector(self):
        spec = SyntheticSpec(p_plus=0.5, tpr=(1.0, 0.5), fpr=(1.0, 0.5), n=5, seed=0)
        ds = make_dataset([(1, 0), (0, 1)])
        with pytest.raises(ValueError, match=r"vote vector \(0, 1\) has zero probability"):
            oracle_posteriors(spec).scores(ds)

    def test_scores_equal_ds_posteriors_at_the_true_rates_bitwise(self):
        """The oracle is the Dawid-Skene model at the generating law's
        prior and rates, so it scores bit for bit the same."""
        rng = np.random.default_rng(15)
        for m in (3, 8, 16):
            tpr = rng.uniform(0.3, 1.0, size=m)
            fpr = rng.uniform(0.0, 0.4, size=m)
            spec = SyntheticSpec(
                p_plus=0.3, tpr=tuple(tpr), fpr=tuple(fpr), n=4000, seed=m
            )
            confusion = np.stack(
                [np.stack([1.0 - fpr, fpr], axis=1), np.stack([1.0 - tpr, tpr], axis=1)],
                axis=1,
            )
            ds = generate(spec)
            expected = ds_posteriors(DSModel(class_prior=0.3, confusion=confusion), ds)
            assert oracle_posteriors(spec).scores(ds).tolist() == expected.tolist()

    def test_monotone_when_functions_are_informative(self):
        oracle = oracle_posteriors(spec_3lf())
        assert oracle.posterior((1, 1, 1)) > oracle.posterior((1, 1, 0))
        assert oracle.posterior((1, 0, 0)) > oracle.posterior((0, 0, 0))


class TestPopulationMoments:
    def test_symmetric_channels_give_product_form(self):
        """tpr = (1+a)/2, fpr = (1-a)/2 at even prior: M_jk = a_j * a_k."""
        a = np.array([0.8, 0.6, 0.5])
        spec = SyntheticSpec(
            p_plus=0.5, tpr=tuple((1 + a) / 2), fpr=tuple((1 - a) / 2), n=1, seed=0
        )
        moments = population_moments(spec)
        expected = np.outer(a, a)
        np.fill_diagonal(expected, 1.0)
        np.testing.assert_allclose(moments, expected, atol=1e-12)

    def test_uninformative_functions_still_correlate(self):
        """tpr = fpr makes votes independent of the label but not of each
        other once the signed means are nonzero."""
        rates = (0.4, 0.3, 0.35)
        spec = SyntheticSpec(p_plus=0.5, tpr=rates, fpr=rates, n=1, seed=0)
        moments = population_moments(spec)
        m = 2.0 * np.asarray(rates) - 1.0
        np.testing.assert_allclose(moments[0, 1], m[0] * m[1], atol=1e-12)
        np.testing.assert_allclose(moments[0, 2], m[0] * m[2], atol=1e-12)

    def test_perfect_functions_agree_fully(self):
        spec = SyntheticSpec(p_plus=0.35, tpr=(1.0, 1.0), fpr=(0.0, 0.0), n=1, seed=0)
        np.testing.assert_allclose(population_moments(spec), np.ones((2, 2)))

    def test_diagonal_is_one(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = int(rng.integers(1, 6))
            spec = SyntheticSpec(
                p_plus=float(rng.uniform(0.1, 0.9)),
                tpr=tuple(rng.uniform(0, 1, m)),
                fpr=tuple(rng.uniform(0, 1, m)),
                n=1,
                seed=0,
            )
            np.testing.assert_array_equal(np.diag(population_moments(spec)), 1.0)

    def test_empirical_moments_converge(self):
        spec = spec_3lf(n=20000, seed=6)
        signed = convert_abstain(generate(spec)).astype(np.float64)
        empirical = (signed.T @ signed) / signed.shape[0]
        np.testing.assert_allclose(empirical, population_moments(spec), atol=0.05)


VALID_SPEC_PAYLOAD = {"p_plus": 0.5, "tpr": [0.9, 0.8], "fpr": [0.1, 0.2], "n": 10, "seed": 0}
FEATURES = {"mu_pos": [1.0], "mu_neg": [0.0], "sigma": 1.0}


class TestSpecPersistence:
    def test_round_trip_without_features(self, tmp_path):
        spec = spec_3lf(n=17, seed=9)
        path = tmp_path / "spec.json"
        spec.save(path)
        assert SyntheticSpec.load(path) == spec

    def test_round_trip_with_features(self, tmp_path):
        spec = spec_3lf(
            feature_spec=FeatureSpec(mu_pos=(1.0, 2.0), mu_neg=(-1.0, 0.0), sigma=0.7)
        )
        path = tmp_path / "spec.json"
        spec.save(path)
        assert SyntheticSpec.load(path) == spec

    def test_json_dict_round_trip_in_memory(self):
        spec = spec_3lf(feature_spec=FeatureSpec(mu_pos=(1.0,), mu_neg=(0.0,), sigma=0.7))
        assert SyntheticSpec.from_json_dict(spec.to_json_dict()) == spec

    def test_file_text(self, tmp_path):
        """The fields in declaration order, and no key for an absent feature spec."""
        path = tmp_path / "spec.json"
        SyntheticSpec.from_json_dict(VALID_SPEC_PAYLOAD).save(path)
        text = '{"p_plus":0.5,"tpr":[0.9,0.8],"fpr":[0.1,0.2],"n":10,"seed":0'
        assert path.read_text() == text + "}\n"
        SyntheticSpec.from_json_dict({**VALID_SPEC_PAYLOAD, "feature_spec": FEATURES}).save(path)
        features = '"feature_spec":{"mu_pos":[1.0],"mu_neg":[0.0],"sigma":1.0}'
        assert path.read_text() == text + "," + features + "}\n"

    def test_validation(self):
        with pytest.raises(ValueError, match="p_plus"):
            SyntheticSpec(p_plus=0.0, tpr=(0.5,), fpr=(0.5,), n=1)
        with pytest.raises(ValueError, match="equally long"):
            SyntheticSpec(p_plus=0.5, tpr=(0.5, 0.5), fpr=(0.5,), n=1)
        with pytest.raises(ValueError, match=r"tpr entries"):
            SyntheticSpec(p_plus=0.5, tpr=(1.5,), fpr=(0.5,), n=1)
        with pytest.raises(ValueError, match="n must"):
            SyntheticSpec(p_plus=0.5, tpr=(0.5,), fpr=(0.5,), n=-1)
        with pytest.raises(ValueError, match="seed must"):
            SyntheticSpec(p_plus=0.5, tpr=(0.5,), fpr=(0.5,), n=1, seed=-1)
        with pytest.raises(ValueError, match="dimension"):
            FeatureSpec(mu_pos=(1.0,), mu_neg=(1.0, 2.0), sigma=1.0)
        with pytest.raises(ValueError, match="sigma"):
            FeatureSpec(mu_pos=(1.0,), mu_neg=(0.0,), sigma=0.0)
        with pytest.raises(ValueError, match="sigma"):
            FeatureSpec(mu_pos=(1.0,), mu_neg=(0.0,), sigma=float("inf"))
        with pytest.raises(ValueError, match="finite"):
            FeatureSpec(mu_pos=(float("nan"),), mu_neg=(0.0,), sigma=1.0)
        with pytest.raises(ValueError, match="finite"):
            FeatureSpec(mu_pos=(1.0,), mu_neg=(float("-inf"),), sigma=1.0)

    def test_json_integers_load_as_rates(self):
        spec = SyntheticSpec.from_json_dict(
            {"p_plus": 0.5, "tpr": [1, 0.5], "fpr": [0, 0.5], "n": 3, "seed": 0,
             "feature_spec": {"mu_pos": [1], "mu_neg": [0], "sigma": 2}}
        )
        assert spec.tpr == (1.0, 0.5) and spec.fpr == (0.0, 0.5)
        assert spec.feature_spec == FeatureSpec(mu_pos=(1.0,), mu_neg=(0.0,), sigma=2.0)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"extra": 1}, "unknown spec key 'extra'"),
            ({"n": 10.7}, "'n' must be an integer"),
            ({"n": 10.0}, "'n' must be an integer"),
            ({"n": True}, "'n' must be an integer"),
            ({"n": "10"}, "'n' must be an integer"),
            ({"seed": True}, "'seed' must be an integer"),
            ({"seed": 1.0}, "'seed' must be an integer"),
            ({"p_plus": True}, "'p_plus' must be a number"),
            ({"p_plus": "0.5"}, "'p_plus' must be a number"),
            ({"tpr": [0.9, False]}, "'tpr' must be a list of numbers"),
            ({"tpr": 0.9}, "'tpr' must be a list"),
            ({"p_plus": 10**400}, "'p_plus' must be a number"),
            ({"tpr": [0.5, -(10**400)]}, "'tpr' must be a list of numbers"),
            ({"fpr": [None, 0.1]}, "'fpr' must be a list of numbers"),
            ({"feature_spec": None}, "feature_spec must be a JSON object"),
            ({"feature_spec": [1.0]}, "feature_spec must be a JSON object"),
            ({"feature_spec": {"mu_pos": [1.0], "mu_neg": [0.0]}}, "lacks key 'sigma'"),
            ({"feature_spec": {**FEATURES, "dim": 1}}, "unknown feature_spec key 'dim'"),
            ({"feature_spec": {**FEATURES, "sigma": True}}, "'sigma' must be a number"),
            ({"feature_spec": {**FEATURES, "mu_pos": ["1"]}}, "'mu_pos' must be a list"),
            ({"feature_spec": {**FEATURES, "mu_neg": {}}}, "'mu_neg' must be a list"),
        ],
    )
    def test_strict_payload(self, change, message):
        with pytest.raises(ValueError, match=message):
            SyntheticSpec.from_json_dict({**VALID_SPEC_PAYLOAD, **change})

    @pytest.mark.parametrize("key", sorted(VALID_SPEC_PAYLOAD))
    def test_missing_key_rejected(self, key):
        payload = {k: v for k, v in VALID_SPEC_PAYLOAD.items() if k != key}
        with pytest.raises(ValueError, match=f"spec lacks key '{key}'"):
            SyntheticSpec.from_json_dict(payload)

    @pytest.mark.parametrize("payload", [[], "spec", 3, None])
    def test_non_object_payload_rejected(self, payload):
        with pytest.raises(ValueError, match="spec must be a JSON object"):
            SyntheticSpec.from_json_dict(payload)

    def test_load_error_names_the_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"p_plus": 0.5, "tpr": [0.9], "fpr": [0.1], "seed": 0}\n')
        with pytest.raises(ValueError, match=r"spec\.json: spec lacks key 'n'"):
            SyntheticSpec.load(str(path))


class TestModelsOnSyntheticData:
    def test_uninformative_votes_score_near_chance(self):
        """When every function fires at the same rate for both classes no
        label model can beat chance."""
        rates = (0.4, 0.3, 0.35)
        spec = SyntheticSpec(p_plus=0.5, tpr=rates, fpr=rates, n=10000, seed=8)
        ds = generate(spec)
        gold = ds.gold_array
        signed = convert_abstain(ds)

        aucs = [roc_auc(mv_scores(ds), gold)]
        ds_model = ds_fit(signed, Prior(0.5))
        aucs.append(roc_auc(ds_posteriors(ds_model, signed), gold))
        fs_model = fs_fit(signed, Prior(0.5))
        aucs.append(roc_auc(fs_posteriors(fs_model, signed), gold))
        weapo = fit(ds, Prior(0.5))
        aucs.append(roc_auc(predict_dataset(weapo, ds)[0], gold))
        oracle = oracle_posteriors(spec)
        assert roc_auc(oracle.scores(ds), gold) == 0.5
        for auc in aucs:
            assert abs(auc - 0.5) <= 0.05

    def test_feature_classifier_beats_vote_models_when_votes_are_flat(self):
        """Features stay informative in the same regime."""
        rates = (0.4, 0.3, 0.35)
        spec = SyntheticSpec(
            p_plus=0.5,
            tpr=rates,
            fpr=rates,
            n=2000,
            seed=31,
            feature_spec=FeatureSpec(
                mu_pos=(2.0, 2.0),
                mu_neg=(-2.0 / np.sqrt(2.0), -2.0 / np.sqrt(2.0)),
                sigma=1.0,
            ),
        )
        ds = generate(spec)
        centroid_gap = ds.features_matrix @ np.ones(2)
        assert roc_auc(centroid_gap, ds.gold_array) > 0.9
