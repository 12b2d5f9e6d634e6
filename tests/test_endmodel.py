"""Kernel ridge end model: targets, solver contracts, and the pipeline."""

import math

import numpy as np
import pytest

from weapo import (
    FeatureSpec,
    Prior,
    SyntheticSpec,
    default_gamma,
    evaluate_label_model,
    fit,
    fit_krr,
    generate,
    make_targets,
    predict_dataset,
    predict_krr,
    rbf_kernel,
    roc_auc,
)


class TestMakeTargets:
    def test_covered_scores_kept_uncovered_zeroed(self):
        targets = make_targets(
            np.array([0.9, 0.4, 0.7]), np.array([1, 0, 1])
        )
        np.testing.assert_array_equal(targets, [0.9, 0.0, 0.7])

    def test_policy_constant(self):
        targets = make_targets(np.array([0.9, 0.4]), np.array([0, 0]), uncovered_target=0.5)
        np.testing.assert_array_equal(targets, [0.5, 0.5])

    def test_input_is_not_mutated(self):
        scores = np.array([0.9, 0.4])
        make_targets(scores, np.array([0, 0]))
        np.testing.assert_array_equal(scores, [0.9, 0.4])

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError, match="aligned"):
            make_targets(np.zeros(3), np.zeros(2))


class TestRbfKernel:
    def test_unit_diagonal(self):
        x = np.random.default_rng(0).normal(size=(10, 3))
        np.testing.assert_allclose(np.diag(rbf_kernel(x, x, 0.5)), 1.0, atol=1e-15)

    def test_known_entry(self):
        k = rbf_kernel(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]), 0.5)
        assert k[0, 0] == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_symmetry(self):
        x = np.random.default_rng(1).normal(size=(8, 2))
        k = rbf_kernel(x, x, 1.3)
        np.testing.assert_allclose(k, k.T, atol=1e-15)

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="widths differ"):
            rbf_kernel(np.zeros((2, 3)), np.zeros((2, 2)), 1.0)


class TestDefaultGamma:
    def test_inverse_scale(self):
        features = np.array([[0.0, 0.0], [2.0, 2.0]])
        assert default_gamma(features) == pytest.approx(1.0 / (2 * 1.0))

    def test_constant_features_fall_back(self):
        assert default_gamma(np.ones((5, 3))) == 1.0


class TestFitKrr:
    def test_interpolates_at_zero_ridge(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(30, 2))
        t = rng.normal(size=30)
        model = fit_krr(x, t, gamma=0.7, alpha=0.0)
        np.testing.assert_allclose(predict_krr(model, x), t, atol=1e-6)

    def test_two_point_closed_form(self):
        """K = [[1, e^-1], [e^-1, 1]] with ridge 0.1: solve by hand."""
        x = np.array([[0.0], [1.0]])
        t = np.array([0.0, 1.0])
        det = 1.21 - math.exp(-2.0)
        expected = np.array([-math.exp(-1.0) / det, 1.1 / det])
        model = fit_krr(x, t, gamma=1.0, alpha=0.1)
        np.testing.assert_allclose(model.coefficients, expected, atol=1e-10)

    def test_constant_targets_predicted_exactly(self):
        x = np.random.default_rng(5).normal(size=(20, 3))
        model = fit_krr(x, np.full(20, 0.4), gamma=0.5, alpha=0.0)
        np.testing.assert_allclose(predict_krr(model, x), 0.4, atol=1e-8)

    def test_duplicate_points_rejected_at_zero_ridge(self):
        x = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match="singular|distinct"):
            fit_krr(x, np.array([0.0, 1.0, 0.5]), gamma=1.0, alpha=0.0)

    def test_duplicate_points_fine_with_ridge(self):
        x = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]])
        model = fit_krr(x, np.array([0.0, 1.0, 0.5]), gamma=1.0, alpha=0.5)
        assert np.isfinite(model.coefficients).all()

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(25, 2))
        t = rng.normal(size=25)
        model = fit_krr(x, t, gamma=0.8, alpha=0.3)
        perm = rng.permutation(25)
        permuted = fit_krr(x[perm], t[perm], gamma=0.8, alpha=0.3)
        query = rng.normal(size=(10, 2))
        np.testing.assert_allclose(
            predict_krr(model, query), predict_krr(permuted, query), atol=1e-10
        )

    def test_far_query_decays_to_zero(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(15, 2))
        model = fit_krr(x, rng.normal(size=15), gamma=1.0, alpha=0.1)
        far = predict_krr(model, np.array([[500.0, -500.0]]))
        assert abs(far[0]) <= 1e-12

    def test_flat_kernel_predicts_coefficient_sum(self):
        """As gamma -> 0 every kernel value is 1, so any prediction is
        the plain sum of the dual coefficients."""
        rng = np.random.default_rng(8)
        x = rng.normal(size=(12, 2))
        model = fit_krr(x, rng.normal(size=12), gamma=1e-12, alpha=1.0)
        pred = predict_krr(model, np.array([[0.3, -0.2]]))
        assert pred[0] == pytest.approx(model.coefficients.sum(), abs=1e-6)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="matching first dimension"):
            fit_krr(np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ValueError, match="empty"):
            fit_krr(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError, match="alpha"):
            fit_krr(np.zeros((2, 2)), np.zeros(2), alpha=-1.0)
        with pytest.raises(ValueError, match="gamma"):
            fit_krr(np.ones((2, 2)), np.zeros(2), gamma=-2.0)

    def test_predict_width_mismatch(self):
        model = fit_krr(np.zeros((2, 2)), np.zeros(2), gamma=1.0)
        with pytest.raises(ValueError, match="width"):
            predict_krr(model, np.zeros((1, 3)))

    @pytest.mark.parametrize(
        "change",
        [
            pytest.param({"targets": [0.0, np.nan, 1.0]}, id="nan-target"),
            pytest.param({"targets": [0.0, np.inf, 1.0]}, id="inf-target"),
            pytest.param({"targets": [0.0, -np.inf, 1.0]}, id="minus-inf-target"),
            pytest.param({"features": [[0.0, 1.0], [np.nan, 2.0], [3.0, 4.0]]},
                         id="nan-feature"),
            pytest.param({"features": [[0.0, 1.0], [np.inf, 2.0], [3.0, 4.0]]},
                         id="inf-feature"),
            pytest.param({"gamma": np.nan}, id="nan-gamma"),
            pytest.param({"gamma": np.inf}, id="inf-gamma"),
            pytest.param({"alpha": np.nan}, id="nan-alpha"),
            pytest.param({"alpha": np.inf}, id="inf-alpha"),
        ],
    )
    def test_non_finite_input_rejected(self, change):
        """np.linalg.solve returns NaN coefficients for these instead of
        raising, so fit_krr must reject them before the solve."""
        args = {
            "features": [[0.0, 1.0], [1.0, 2.0], [3.0, 4.0]],
            "targets": [0.0, 0.5, 1.0],
            "gamma": 1.0,
            "alpha": 0.1,
            **change,
        }
        with pytest.raises(ValueError, match="finite"):
            fit_krr(**args)


class TestPipeline:
    def test_end_model_generalizes_past_coverage(self):
        """Label model on votes, end model on features: the end model must
        hold its own on all records, uncovered ones included."""
        feature_spec = FeatureSpec(
            mu_pos=(2.0, 2.0),
            mu_neg=(-2.0 / math.sqrt(2.0), -2.0 / math.sqrt(2.0)),
            sigma=1.0,
        )
        train_spec = SyntheticSpec(
            p_plus=0.4,
            tpr=(0.75, 0.65, 0.55, 0.7),
            fpr=(0.15, 0.1, 0.05, 0.12),
            n=1500,
            seed=41,
            feature_spec=feature_spec,
        )
        test_spec = SyntheticSpec(
            p_plus=0.4,
            tpr=train_spec.tpr,
            fpr=train_spec.fpr,
            n=1500,
            seed=42,
            feature_spec=feature_spec,
        )
        train = generate(train_spec)
        test = generate(test_spec)

        label_model = fit(train, Prior(0.4))
        scores, mask = predict_dataset(label_model, train)
        end = fit_krr(train.features_matrix, make_targets(scores, mask))

        test_scores, test_mask = predict_dataset(label_model, test)
        label_result = evaluate_label_model(test_scores, test_mask, test.gold_array)
        end_auc = roc_auc(predict_krr(end, test.features_matrix), test.gold_array)

        assert end_auc > 0.8
        assert end_auc >= label_result.roc_auc - 0.05
