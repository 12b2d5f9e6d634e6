"""Simplex scorer, objective terms, and the exact dual-search fit."""

import numpy as np
import pytest

from weapo import (
    Dataset,
    Prior,
    Record,
    WeapoConfig,
    build_slices,
    constraint_matrix,
    fit,
    hasse_edges,
    predict_dataset,
)
from weapo.model import WeapoModel, _dual_search, project_simplex

from oracles import min_on_2simplex_line, min_on_simplex_grid, objective


def make_dataset(vote_rows):
    return Dataset.from_records(
        [Record(id=f"r{i}", votes=tuple(v)) for i, v in enumerate(vote_rows)]
    )


def constraints_for(dataset):
    table = build_slices(dataset)
    return constraint_matrix(table, hasse_edges(table.slices.keys()))


class TestProjectSimplex:
    def test_feasible_point_unchanged(self):
        np.testing.assert_allclose(project_simplex([0.3, 0.7]), [0.3, 0.7])

    def test_vertex_projection(self):
        """Grid search over the 2-simplex agrees that [2, 0] maps to [1, 0]."""
        target = np.array([2.0, 0.0])
        grid_best, _ = min_on_simplex_grid(
            lambda th: float(((th - target) ** 2).sum()), 2, 2000
        )
        np.testing.assert_allclose(project_simplex(target), [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(grid_best, [1.0, 0.0], atol=1e-3)

    def test_constant_input_maps_to_uniform(self):
        for c in (-3.0, 0.0, 0.4, 100.0):
            np.testing.assert_allclose(project_simplex([c, c, c]), np.full(3, 1 / 3))

    def test_output_always_feasible(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            m = int(rng.integers(1, 12))
            w = rng.normal(scale=5.0, size=m)
            p = project_simplex(w)
            assert (p >= 0.0).all()
            assert abs(p.sum() - 1.0) <= 1e-9

    def test_projection_is_closest_feasible_point(self):
        """No grid point on the simplex beats the projection's distance."""
        rng = np.random.default_rng(1)
        for _ in range(10):
            w = rng.normal(scale=2.0, size=3)
            p = project_simplex(w)
            d_proj = float(((p - w) ** 2).sum())
            _, d_grid = min_on_simplex_grid(
                lambda th: float(((th - w) ** 2).sum()), 3, 120
            )
            assert d_proj <= d_grid + 1e-9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            project_simplex([])

    def test_weights_from_2_to_53_rejected(self):
        """From 2**53 on, the support test of one entry, ``u > u - 1``,
        fails in float64; just below the bound the projection still works."""
        below = np.nextafter(2.0**53, 0.0)
        assert project_simplex([below, 0.0]).tolist() == [1.0, 0.0]
        assert project_simplex([0.0, -below]).tolist() == [1.0, 0.0]
        for weights in ([2.0**53, 0.0], [0.0, -(2.0**53)], [1e16, 0.0], [-1e16, -1e16]):
            with pytest.raises(ValueError, match=r"less than 2\*\*53 in magnitude"):
                project_simplex(weights)

    @pytest.mark.parametrize(
        "weights", [[1e14] * 3, [2.0**53 - 1] * 2], ids=["sum-0.984", "sum-2"]
    )
    def test_result_off_the_simplex_rejected(self, weights):
        """Below 2**53, ``css - 1`` and its division by the support size can
        still round the 1 away: these project to 0.328125 each and to
        [1, 1]. A result whose sum is off 1 by more than 1e-9 is refused."""
        with pytest.raises(ValueError, match="too large in magnitude to project"):
            project_simplex(weights)


class TestScore:
    def test_half_weight(self):
        model = WeapoModel(theta=np.array([0.5, 0.5]), config=WeapoConfig())
        scores, _ = predict_dataset(model, make_dataset([(1, 0)]))
        assert scores.tolist() == [0.5]

    def test_all_zero_and_all_one(self):
        theta = np.array([0.2, 0.3, 0.5])
        model = WeapoModel(theta=theta, config=WeapoConfig())
        scores, _ = predict_dataset(model, make_dataset([(0, 0, 0), (1, 1, 1)]))
        assert scores[0] == 0.0
        assert scores[1] == pytest.approx(1.0, abs=1e-12)

    def test_length_mismatch(self):
        model = WeapoModel(theta=np.array([0.5, 0.25, 0.25]), config=WeapoConfig())
        with pytest.raises(ValueError, match="labeling functions"):
            predict_dataset(model, make_dataset([(1, 0)]))


class TestObjective:
    def test_uniform_theta_reg_only(self):
        """At uniform theta the hinge vanishes and reg is 1/M."""
        ds = make_dataset([(1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1)])
        total, terms = objective(
            np.full(4, 0.25), constraints_for(ds), ds, None, WeapoConfig(use_prior=False)
        )
        assert terms == {"reg": 0.25, "hinge": 0.0, "prior": 0.0}
        assert total == 0.25

    def test_one_hot_reg(self):
        ds = make_dataset([(1, 0), (1, 1)])
        total, terms = objective(
            np.array([1.0, 0.0]), constraints_for(ds), ds, None,
            WeapoConfig(use_prior=False),
        )
        assert terms["reg"] == 1.0

    def test_prior_term_zero_when_matched(self):
        ds = make_dataset([(1, 0), (0, 1)])
        theta = np.array([0.5, 0.5])
        achieved = float(ds.votes_matrix.astype(float) @ theta @ np.ones(2)) / 2
        total, terms = objective(
            theta, constraints_for(ds), ds, Prior(achieved), WeapoConfig()
        )
        assert terms["prior"] == 0.0

    def test_hinge_vanishes_on_simplex(self):
        """Provable: higher vote vectors score at least as much, so no row
        of the constraint operator can be positive."""
        rng = np.random.default_rng(2)
        for _ in range(50):
            m = int(rng.integers(1, 7))
            ds = make_dataset([tuple(r) for r in rng.integers(0, 2, (60, m))])
            cm = constraints_for(ds)
            theta = project_simplex(rng.normal(size=m))
            _, terms = objective(theta, cm, ds, None, WeapoConfig(use_prior=False))
            assert terms["hinge"] <= 1e-12

    def test_missing_prior_rejected(self):
        ds = make_dataset([(1,)])
        with pytest.raises(ValueError, match="prior"):
            objective(np.array([1.0]), constraints_for(ds), ds, None, WeapoConfig())


class TestFit:
    def test_no_prior_returns_uniform(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = int(rng.integers(1, 8))
            ds = make_dataset([tuple(r) for r in rng.integers(0, 2, (40, m))])
            if not build_slices(ds).slices:
                continue
            model = fit(ds, None, WeapoConfig(use_prior=False))
            np.testing.assert_allclose(model.theta, np.full(m, 1 / m), atol=1e-6)

    def test_no_prior_matches_grid_search(self):
        ds = make_dataset([(1, 0, 0), (0, 1, 1), (1, 1, 0), (1, 1, 1)])
        cfg = WeapoConfig(use_prior=False)
        cm = constraints_for(ds)
        grid_theta, grid_value = min_on_simplex_grid(
            lambda th: objective(th, cm, ds, None, cfg)[0], 3, 60
        )
        model = fit(ds, None, cfg)
        np.testing.assert_allclose(model.theta, grid_theta, atol=1e-2)
        assert model.diagnostics["objective"] <= grid_value + 1e-9

    def test_uniform_already_optimal_with_matching_prior(self):
        ds = make_dataset([(1, 0)] * 3 + [(1, 1)] * 2)
        mean_at_uniform = float(ds.votes_matrix.astype(float).mean(axis=0).mean())
        model = fit(ds, Prior(mean_at_uniform))
        np.testing.assert_allclose(model.theta, [0.5, 0.5], atol=1e-6)

    def test_prior_shift_toward_rare_function(self):
        """Overshooting prior pulls weight onto the rarely firing function,
        and the fit lands on the 1-D line-search optimum."""
        ds = make_dataset([(1, 0)] * 70 + [(1, 1)] * 10 + [(0, 1)] * 5 + [(0, 0)] * 15)
        rates = ds.votes_matrix.astype(float).mean(axis=0)
        assert rates.mean() > 0.4  # uniform theta overshoots the prior
        model = fit(ds, Prior(0.4))
        assert model.theta[1] > 0.5
        achieved = float(rates @ model.theta)
        assert abs(achieved - 0.4) <= 0.02
        np.testing.assert_allclose(model.theta, [5 / 13, 8 / 13], atol=1e-12)
        cm = constraints_for(ds)
        _, line_value = min_on_2simplex_line(
            lambda th: objective(th, cm, ds, Prior(0.4), WeapoConfig())[0], 200000
        )
        assert model.diagnostics["objective"] <= line_value + 1e-12

    def test_reported_objective_is_full_objective_and_beats_grid(self):
        """The reported objective is the full objective evaluated with the
        real Hasse edges, whose hinge term vanishes, and no simplex grid
        point scores lower."""
        rng = np.random.default_rng(8)
        for _ in range(20):
            m = int(rng.integers(1, 4))
            votes = rng.integers(0, 2, (int(rng.integers(5, 40)), m))
            votes[0, 0] = 1
            ds = make_dataset([tuple(r) for r in votes])
            prior = Prior(float(rng.uniform(0.05, 0.95)))
            cfg = WeapoConfig(
                lambda_reg=float(rng.choice([0.0, 0.1, 1.0])),
                prior_weight=float(rng.uniform(0.5, 3.0)),
            )
            model = fit(ds, prior, cfg)
            cm = constraints_for(ds)
            total, terms = objective(model.theta, cm, ds, prior, cfg)
            assert terms["hinge"] <= 1e-12
            assert model.diagnostics["objective"] == pytest.approx(total, rel=0, abs=1e-12)
            _, grid_value = min_on_simplex_grid(
                lambda th: objective(th, cm, ds, prior, cfg)[0], m, 40
            )
            assert model.diagnostics["objective"] <= grid_value + 1e-12

    def test_zero_regularizer_returns_minimum_norm_minimizer(self):
        """With lambda_reg = 0 every simplex point matching the prior is
        optimal; the fit returns the one of least norm, as a grid search
        with a vanishing norm tie-breaker finds. Outside the range of the
        firing rates the optimum is the vertex of the nearest rate."""
        ds = make_dataset([(1, 1, 1), (0, 1, 1), (0, 0, 1), (0, 0, 0)])
        rates = ds.votes_matrix.astype(float).mean(axis=0)
        cfg = WeapoConfig(lambda_reg=0.0)
        cases = {0.6: [2 / 15, 1 / 3, 8 / 15], 0.5: [1 / 3] * 3, 0.9: [0, 0, 1], 0.1: [1, 0, 0]}
        for p, expected in cases.items():
            model = fit(ds, Prior(p), cfg)
            grid_theta, _ = min_on_simplex_grid(
                lambda th: abs(float(rates @ th) - p) + 1e-9 * float(th @ th), 3, 60
            )
            np.testing.assert_allclose(model.theta, expected, atol=1e-12)
            np.testing.assert_allclose(model.theta, grid_theta, atol=1e-12)
            cm = constraints_for(ds)
            _, grid_value = min_on_simplex_grid(
                lambda th: objective(th, cm, ds, Prior(p), cfg)[0], 3, 60
            )
            assert model.diagnostics["objective"] <= grid_value + 1e-12

    def test_deterministic(self):
        ds = make_dataset([(1, 0), (1, 1), (0, 1)])
        a = fit(ds, Prior(0.4))
        b = fit(ds, Prior(0.4))
        assert (a.theta == b.theta).all()

    def test_no_covered_records_rejected(self):
        with pytest.raises(ValueError, match="covered"):
            fit(make_dataset([(0, 0), (0, 0)]), Prior(0.5))
        empty = Dataset(ids=(), votes_matrix=np.zeros((0, 2), dtype=np.int8))
        with pytest.raises(ValueError, match="covered"):
            fit(empty, Prior(0.5))

    def test_pattern_mean_equals_per_record_mean(self):
        """theta is bitwise the dual search over the per-record mean vote
        vector, and num_slices counts the slices of the covering module."""
        rng = np.random.default_rng(12)
        for _ in range(30):
            k, m, n = int(rng.integers(1, 10)), int(rng.integers(1, 7)), int(rng.integers(2, 300))
            base = rng.integers(0, 2, size=(k, m))
            base[0, 0] = 1
            ds = make_dataset(base[rng.integers(0, k, size=n)].tolist())
            if not ds.votes_matrix.any():
                continue
            p = float(rng.uniform(0.05, 0.95))
            model = fit(ds, Prior(p))
            mean_votes = ds.votes_matrix.astype(np.float64).mean(axis=0)
            theta, _ = _dual_search(mean_votes, p, 1.0)
            assert model.theta.tobytes() == theta.tobytes()
            assert model.diagnostics["num_slices"] == len(build_slices(ds).slices)

    def test_use_prior_without_value_rejected(self):
        with pytest.raises(ValueError, match="prior"):
            fit(make_dataset([(1, 0)]), None, WeapoConfig(use_prior=True))

    def test_theta_feasible_after_fit(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = int(rng.integers(1, 9))
            votes = rng.integers(0, 2, (50, m))
            votes[0, 0] = 1
            ds = make_dataset([tuple(r) for r in votes])
            model = fit(ds, Prior(float(rng.uniform(0.1, 0.9))))
            assert (model.theta >= -1e-12).all()
            assert abs(model.theta.sum() - 1.0) <= 1e-9


def random_fit_case(rng):
    """A dataset of 2 to 8 functions of random firing rates, and its mean
    vote vector ``a`` computed as ``fit`` computes it."""
    m, n = int(rng.integers(2, 9)), int(rng.integers(20, 300))
    votes = (rng.random((n, m)) < rng.uniform(0.05, 0.6, m)).astype(np.int8)
    votes[0, 0] = 1
    ds = Dataset(ids=tuple(f"r{i}" for i in range(n)), votes_matrix=votes)
    return ds, (ds.patterns.counts @ ds.patterns.rows) / n


def ratio_and_cap(a, lam, w):
    """w/lam (inf at lam = 0), and 4/gap, past which theta no longer changes."""
    return w / lam if lam else np.inf, 4.0 / float(np.diff(np.unique(a)).min(initial=1.0))


def band(a, r):
    """The priors between these two mean scores are the ones that move theta."""
    return float(a @ project_simplex(-(r / 2) * a)), float(a @ project_simplex((r / 2) * a))


class TestWhatTheFitReducesTo:
    """theta depends on (lambda_reg, prior_weight) only through their ratio
    w/lam, and on the prior only inside a band of mean scores."""

    def test_theta_depends_on_lambda_and_weight_only_through_their_ratio(self):
        """(lam, w) and (c*lam, c*w) give bitwise-equal theta whenever the
        two ratios are the same float, for priors in the band and out of it."""
        rng = np.random.default_rng(21)
        pairs = 0
        for _ in range(40):
            ds, a = random_fit_case(rng)
            lam, w = (float(x) for x in rng.uniform(0.1, 10.0, 2))
            low, high = band(a, min(ratio_and_cap(a, lam, w)))
            for p in (float(rng.uniform(low, high)), low / 2, (high + 1) / 2):
                if not 0 < p < 1:
                    continue
                theta = fit(ds, Prior(p), WeapoConfig(lambda_reg=lam, prior_weight=w)).theta
                for c in (3.0, 0.1, 7.0, 1e-3, 1e3):
                    if (c * w) / (c * lam) == w / lam:
                        cfg = WeapoConfig(lambda_reg=c * lam, prior_weight=c * w)
                        assert fit(ds, Prior(p), cfg).theta.tobytes() == theta.tobytes()
                        pairs += 1
        assert pairs >= 200

    def test_outside_the_band_theta_is_the_closed_form(self):
        """With r the capped ratio, every p at or below a.theta(+r/2) gives
        project_simplex(-(r/2)*a) bitwise, and every p at or above
        a.theta(-r/2) its mirror. Past the cap, a p outside [min a, max a]
        gets the uniform weight on the nearest entries of a exactly."""
        rng = np.random.default_rng(22)
        for _ in range(40):
            ds, a = random_fit_case(rng)
            if np.unique(a).size < 2:
                continue
            for lam, w in ((1.0, 1.0), (1.0, 10.0), (0.5, 2.0), (0.0, 1.0), (1.0, 1e17)):
                ratio, cap = ratio_and_cap(a, lam, w)
                r = min(ratio, cap)
                low, high = band(a, r)
                cases = [(p, -1) for p in (low, low * 0.999, a.min() / 2)]
                cases += [(p, 1) for p in (high, (high + 1) / 2, (a.max() + 1) / 2)]
                for p, side in cases:
                    if not 0 < p < 1:
                        continue
                    model = fit(ds, Prior(p), WeapoConfig(lambda_reg=lam, prior_weight=w))
                    nearest = a.min() if side < 0 else a.max()
                    if ratio >= cap and (p - nearest) * side >= 0:
                        expected = (a == nearest) / (a == nearest).sum()
                    else:
                        expected = project_simplex(side * (r / 2) * a)
                    assert model.theta.tobytes() == expected.tobytes()

    def test_inside_the_band_the_mean_score_meets_the_prior(self):
        """Inside the band a.theta = p to a few ulps: the bisection ends
        on adjacent dual values t, and a.theta(t) moves by at most M/4
        times the change in t."""
        rng = np.random.default_rng(23)
        for _ in range(40):
            ds, a = random_fit_case(rng)
            for lam, w in ((1.0, 1.0), (1.0, 10.0), (3.0, 3.0), (0.0, 1.0)):
                r = min(ratio_and_cap(a, lam, w))
                low, high = band(a, r)
                p = float(rng.uniform(low, high))
                if not 0 < p < 1:
                    continue
                theta = fit(ds, Prior(p), WeapoConfig(lambda_reg=lam, prior_weight=w)).theta
                assert abs(float(a @ theta) - p) <= 4 * np.spacing(p) + 2 * np.spacing(r / 2)

    def test_huge_ratios_and_zero_lambda_give_one_theta(self):
        """w/lam = 1e17, 1e308, a ratio past the float range and lam = 0
        all give the same theta, bitwise, in the band and outside it."""
        rng = np.random.default_rng(24)
        settings = ((1.0, 1e17), (1.0, 1e308), (1e-10, 1e300), (0.0, 1.0))
        for _ in range(30):
            ds, a = random_fit_case(rng)
            for p in (float(rng.uniform(a.min(), a.max())), a.min() / 2, (a.max() + 1) / 2):
                if not 0 < p < 1:
                    continue
                thetas = {
                    fit(ds, Prior(p), WeapoConfig(lambda_reg=lam, prior_weight=w)).theta.tobytes()
                    for lam, w in settings
                }
                assert len(thetas) == 1


class TestPredictDataset:
    def test_scores_and_mask(self):
        ds = make_dataset([(1, 1, 0, 0), (0, 0, 0, 0), (0, 1, 0, 0)])
        model = WeapoModel(theta=np.full(4, 0.25), config=WeapoConfig())
        scores, mask = predict_dataset(model, ds)
        np.testing.assert_allclose(scores, [0.5, 0.0, 0.25])
        np.testing.assert_array_equal(mask, [1, 0, 1])

    def test_weight_lookup(self):
        ds = make_dataset([(0, 1)])
        model = WeapoModel(theta=np.array([0.7, 0.3]), config=WeapoConfig())
        scores, _ = predict_dataset(model, ds)
        np.testing.assert_allclose(scores, [0.3])

    def test_width_mismatch(self):
        model = WeapoModel(theta=np.array([1.0]), config=WeapoConfig())
        with pytest.raises(ValueError, match="labeling functions"):
            predict_dataset(model, make_dataset([(1, 0)]))


class TestSerialization:
    def test_round_trip_exact(self):
        ds = make_dataset([(1, 0, 1), (0, 1, 1), (1, 1, 1)])
        model = fit(ds, Prior(0.37))
        back = WeapoModel.from_json_dict(model.to_json_dict())
        assert (back.theta == model.theta).all()
        assert back.config == model.config

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WeapoConfig(lambda_reg=-1.0)
        bad_cases = [
            ({"lambda_reg": "abc"}, "lambda_reg"),
            ({"lambda_reg": None}, "lambda_reg"),
            ({"lambda_reg": True}, "lambda_reg"),
            ({"prior_weight": True}, "prior_weight"),
            ({"use_prior": "yes"}, "use_prior"),
            ({"use_prior": 1}, "use_prior"),
        ]
        for change, message in bad_cases:
            with pytest.raises(ValueError, match=message):
                WeapoConfig(**change)
        assert WeapoConfig(lambda_reg=2, prior_weight=np.float64(0.5)).lambda_reg == 2

    def test_malformed_payload_rejected(self):
        """Values must be JSON numbers, objects must be objects, and no
        key outside the model's own is accepted."""
        payload = WeapoModel(theta=np.array([0.25, 0.75]), config=WeapoConfig()).to_json_dict()
        bad_cases = [
            ({"theta": ["0.25", "0.75"]}, "theta"),
            ({"theta": [0.25, None]}, "theta"),
            ({"theta": [True, False]}, "theta"),
            ({"config": {"lambda_reg": "abc"}}, "lambda_reg"),
            ({"config": {"use_prior": "yes"}}, "use_prior"),
            ({"config": {"prior_weight": True}}, "prior_weight"),
            ({"config": [1.0, True, 1.0]}, "config"),
            ({"diagnostics": [1, 2]}, "diagnostics"),
            ({"model_type": "weapo"}, "'model_type'"),
        ]
        for change, message in bad_cases:
            with pytest.raises(ValueError, match=message):
                WeapoModel.from_json_dict({**payload, **change})

    def test_unknown_config_key_rejected(self):
        payload = WeapoModel(theta=np.array([1.0]), config=WeapoConfig()).to_json_dict()
        payload["config"]["step0"] = 0.5
        with pytest.raises(ValueError, match="'step0'"):
            WeapoModel.from_json_dict(payload)

    def test_theta_off_the_simplex_rejected(self):
        payload = WeapoModel(theta=np.array([0.25, 0.75]), config=WeapoConfig()).to_json_dict()
        assert WeapoModel.from_json_dict(payload).theta.tolist() == [0.25, 0.75]
        bad_cases = [
            ([], "non-empty"),
            ([[0.5, 0.5]], "non-empty"),
            ([0.5, float("nan")], "finite and non-negative"),
            ([1.5, -0.5], "finite and non-negative"),
            ([0.5, 0.5 + 2e-9], "sum to 1"),
            ([0.2, 0.2], "sum to 1"),
        ]
        for theta, message in bad_cases:
            with pytest.raises(ValueError, match=message):
                WeapoModel.from_json_dict({**payload, "theta": theta})
        WeapoModel.from_json_dict({**payload, "theta": [0.5, 0.5 + 5e-10]})
        with pytest.raises(ValueError, match="lacks key 'theta'"):
            WeapoModel.from_json_dict({"config": payload["config"]})
