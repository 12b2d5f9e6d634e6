"""Simplex scorer, objective terms, and the exact closed-form fit."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weapo import (
    Dataset,
    Prior,
    WeapoConfig,
    build_slices,
    constraint_matrix,
    fit,
    hasse_edges,
    predict_dataset,
)
from weapo.data import VotePatterns
from weapo.model import WeapoModel, _closed_form, _prior_band

from oracles import (
    make_dataset,
    min_on_2simplex_line,
    min_on_simplex_grid,
    objective,
    objective_values,
    simplex_projection_by_bisection,
    weapo_by_supports,
)


def constraints_for(dataset):
    table = build_slices(dataset)
    return constraint_matrix(table, hasse_edges(table.slices.keys()))


class TestProjectSimplex:
    """The Euclidean projection onto the simplex that the fit's tests take
    as their reference, ``simplex_projection_by_bisection``, against its
    defining properties and a grid search."""

    def test_feasible_point_unchanged(self):
        np.testing.assert_allclose(simplex_projection_by_bisection([0.3, 0.7]), [0.3, 0.7])

    def test_vertex_projection(self):
        """Grid search over the 2-simplex agrees that [2, 0] maps to [1, 0]."""
        target = np.array([2.0, 0.0])
        grid_best, _ = min_on_simplex_grid(
            lambda th: float(((th - target) ** 2).sum()), 2, 2000
        )
        np.testing.assert_allclose(simplex_projection_by_bisection(target), [1.0, 0.0],
                                   atol=1e-12)
        np.testing.assert_allclose(grid_best, [1.0, 0.0], atol=1e-3)

    def test_constant_input_maps_to_uniform(self):
        for c in (-3.0, 0.0, 0.4, 100.0):
            np.testing.assert_allclose(simplex_projection_by_bisection([c, c, c]),
                                       np.full(3, 1 / 3))

    def test_output_always_feasible(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            m = int(rng.integers(1, 12))
            p = simplex_projection_by_bisection(rng.normal(scale=5.0, size=m))
            assert (p >= 0.0).all()
            assert abs(p.sum() - 1.0) <= 1e-9

    def test_projection_is_closest_feasible_point(self):
        """No grid point on the simplex beats the projection's distance."""
        rng = np.random.default_rng(1)
        for _ in range(10):
            w = rng.normal(scale=2.0, size=3)
            p = simplex_projection_by_bisection(w)
            d_proj = float(((p - w) ** 2).sum())
            _, d_grid = min_on_simplex_grid(
                lambda th: float(((th - w) ** 2).sum()), 3, 120
            )
            assert d_proj <= d_grid + 1e-9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            simplex_projection_by_bisection([])


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
        with pytest.raises(ValueError, match="^votes have 2 columns, model expects 3$"):
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
            theta = rng.dirichlet(np.ones(m))
            _, terms = objective(theta, cm, ds, None, WeapoConfig(use_prior=False))
            assert terms["hinge"] <= 1e-12

    def test_missing_prior_rejected(self):
        ds = make_dataset([(1,)])
        with pytest.raises(ValueError, match="prior"):
            objective(np.array([1.0]), constraints_for(ds), ds, None, WeapoConfig())

    def test_batch_oracle_matches_one_theta_at_a_time(self):
        """``objective_values`` over a batch of thetas, off the simplex too,
        so the hinge is positive, equals ``objective`` row by row."""
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = int(rng.integers(1, 6))
            ds = make_dataset([tuple(r) for r in rng.integers(0, 2, (40, m))])
            cm = constraints_for(ds)
            prior = Prior(float(rng.uniform(0.05, 0.95)))
            lam, w = float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 3.0))
            cfg = WeapoConfig(lambda_reg=lam / w)
            thetas = rng.normal(size=(30, m))
            expected = [objective(theta, cm, ds, prior, cfg)[0] for theta in thetas]
            np.testing.assert_allclose(objective_values(thetas, cm, ds, prior, cfg), expected,
                                       rtol=1e-12, atol=1e-12)


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
            lambda thetas: objective_values(thetas, cm, ds, Prior(0.4), WeapoConfig()), 200000
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
            lam, w = float(rng.choice([0.0, 0.1, 1.0])), float(rng.uniform(0.5, 3.0))
            cfg = WeapoConfig(lambda_reg=lam / w)
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
        """theta is bitwise the closed-form solve over the per-record mean
        vote vector, and num_slices counts the slices of the covering module."""
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
            theta, _ = _closed_form(mean_votes, p, 1.0)
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
    return ds, (ds.patterns.weights @ ds.patterns.rows) / n


def ratio_and_cap(a, lam, side):
    """1/lam (inf at lam = 0), and twice the last breakpoint of the
    projection of side*t*a onto the simplex over t >= 0, 1/(k*gap) for the
    k entries of a nearest side*inf and their gap to the next: from
    r = cap on, theta at t = r/2 is the uniform weight on those k entries
    (cap 0 when all entries are equal)."""
    nearest = a.max() if side > 0 else a.min()
    gaps = np.abs(a[a != nearest] - nearest)
    cap = 2.0 / ((a == nearest).sum() * gaps.min()) if gaps.size else 0.0
    return (1.0 / lam if lam else np.inf), cap


def band(ds, lam):
    """The priors between these two mean scores are the ones that move theta."""
    return _prior_band(ds, WeapoConfig(lambda_reg=lam))


def theta_outside_band(ds, a, lam, side):
    """The theta of the priors in (0, 1) at or past one end of the band,
    the low end for side -1 and the high end for side +1, or None when
    there are none, after three checks: every such prior gives the same
    theta bytes; below r = cap, where it is read off a piece of the dual
    path, it is the support-enumerating oracle's within 1e-12; and from
    r = cap on it is exactly the uniform weight on the entries of a
    nearest side*inf, that oracle's minimizer too."""
    low, high = band(ds, lam)
    priors = (low, low * 0.999, a.min() / 2) if side < 0 else (
        high, (high + 1) / 2, (a.max() + 1) / 2)
    cfg = WeapoConfig(lambda_reg=lam)
    fits = [(p, fit(ds, Prior(p), cfg)) for p in priors if 0 < p < 1]
    if not fits:
        return None
    theta = fits[0][1].theta
    assert {model.theta.tobytes() for _, model in fits} == {theta.tobytes()}
    ratio, cap = ratio_and_cap(a, lam, side)
    if ratio < cap:
        expected = weapo_by_supports(a, fits[0][0], ratio)
        np.testing.assert_allclose(theta, expected, rtol=0, atol=1e-12)
    else:
        face = a == (a.max() if side > 0 else a.min())
        assert theta.tobytes() == (face / face.sum()).tobytes()
    assert {model.diagnostics["iterations"] for _, model in fits} == {int(ratio < cap)}
    return theta


class TestWhatTheFitReducesTo:
    """theta depends on lambda_reg only through the ratio 1/lam, and on the
    prior only inside a band of mean scores."""

    def test_outside_the_band_theta_is_the_closed_form(self):
        """Every p at or below the band's low end gives one theta, bitwise,
        the exact minimizer, read off one piece of the dual path, and every
        p at or above its high end the mirror. From r = cap on, that is
        the uniform weight on the nearest entries of a exactly."""
        rng = np.random.default_rng(22)
        sides = 0
        for _ in range(40):
            ds, a = random_fit_case(rng)
            if np.unique(a).size < 2:
                continue
            for lam in (1.0, 0.1, 0.25, 0.0, 1e-17):
                for side in (-1, 1):
                    sides += theta_outside_band(ds, a, lam, side) is not None
        assert sides >= 300

    def test_band_ends_are_the_mean_scores_at_the_clamped_dual_values(self):
        """Below the cap each band end is a.theta(-+r/2) to a few ulps of its
        exact value, mean_S + side*(r/2)*k*Var_S in rational arithmetic on
        the support S of that theta; from the cap on it is min a or max a
        exactly."""
        rng = np.random.default_rng(25)
        for _ in range(40):
            ds, a = random_fit_case(rng)
            for lam in (1.0, 0.1, 0.03, 0.0, 1e-17):
                for end, side in zip(band(ds, lam), (-1, 1)):
                    ratio, cap = ratio_and_cap(a, lam, side)
                    theta = theta_outside_band(ds, a, lam, side)
                    if ratio >= cap:
                        assert end == (a.max() if side > 0 else a.min())
                        continue
                    support = [Fraction(float(x)) for x in a[theta > 0]]
                    mean = sum(support) / len(support)
                    k_var = sum((x - mean) ** 2 for x in support)
                    exact = float(mean + side * Fraction(ratio / 2) * k_var)
                    assert abs(end - exact) <= 4 * np.spacing(exact)

    def test_inside_the_band_the_mean_score_meets_the_prior(self):
        """Inside the band a.theta = p to a few ulps: the dual value t is one
        division on the piece that holds the root, theta is read off that
        piece, and |t| is at most r/2 with r capped at the larger cap."""
        rng = np.random.default_rng(23)
        for _ in range(40):
            ds, a = random_fit_case(rng)
            for lam in (1.0, 0.1, 1.0, 0.0):
                (ratio, cap_low), (_, cap_high) = (ratio_and_cap(a, lam, s) for s in (-1, 1))
                r = min(ratio, max(cap_low, cap_high))
                low, high = band(ds, lam)
                p = float(rng.uniform(low, high))
                if not 0 < p < 1:
                    continue
                model = fit(ds, Prior(p), WeapoConfig(lambda_reg=lam))
                assert abs(float(a @ model.theta) - p) <= 4 * np.spacing(p) + 2 * np.spacing(r / 2)
                assert model.diagnostics["iterations"] == 1

    def test_huge_ratios_and_zero_lambda_give_one_theta(self):
        """1/lam = 1e17, 1e308, a ratio past the float range and lam = 0
        all give the same theta, bitwise, in the band and outside it."""
        rng = np.random.default_rng(24)
        settings = (1e-17, 1e-308, 1e-310, 0.0)
        for _ in range(30):
            ds, a = random_fit_case(rng)
            for p in (float(rng.uniform(a.min(), a.max())), a.min() / 2, (a.max() + 1) / 2):
                if not 0 < p < 1:
                    continue
                thetas = {
                    fit(ds, Prior(p), WeapoConfig(lambda_reg=lam)).theta.tobytes()
                    for lam in settings
                }
                assert len(thetas) == 1

    def test_rates_too_close_to_resolve_are_refused(self):
        """Firing rates 0.3 and 0.3 + 1e-13 at lam = 0, with the prior just
        inside the band, put t near the last breakpoint, where rounding
        would leave theta's sum off 1 by 2.2e-4: the fit refuses with the
        remedy, which works."""
        table = VotePatterns(rows=np.array([[0, 0], [1, 0], [1, 1]], dtype=np.int8),
                             weights=np.array([0.7 - 1e-13, 1e-13, 0.3]),
                             pos=np.zeros(3), neg=np.zeros(3), inverse=None)
        a = table.weights @ table.rows / table.weights.sum()
        assert 0 < a[0] - a[1] <= 1e-13
        prior = Prior(float(a.max() - 3e-14))
        with pytest.raises(ValueError, match="within about 1e-9 of each other; use a larger"):
            fit(table, prior, WeapoConfig(lambda_reg=0.0))
        theta = fit(table, prior, WeapoConfig(lambda_reg=1.0)).theta
        assert (theta >= 0).all() and abs(theta.sum() - 1.0) <= 1e-9


def small_vote_matrix(draw):
    """A dataset of at most 12 records and 7 functions, and its mean vote
    vector a. Few records make tied entries of a common."""
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 12))
    votes = np.array(draw(st.lists(st.integers(0, 1), min_size=m * n, max_size=m * n)),
                     dtype=np.int8).reshape(n, m)
    votes[0, 0] = 1
    ds = Dataset(ids=tuple(f"r{i}" for i in range(n)), votes_matrix=votes)
    return ds, (ds.patterns.weights @ ds.patterns.rows) / n


@st.composite
def oracle_cases(draw):
    """A small vote matrix, a lambda_reg lam, and a prior that is drawn
    uniformly, an entry of the mean vote vector a, a band end or a value
    outside [min a, max a]."""
    ds, a = small_vote_matrix(draw)
    lam = draw(st.one_of(
        st.sampled_from([0.0, 1e-17, 1e-308]),
        st.floats(0.01, 1e4).map(lambda w: 1.0 / w),
    ))
    low, high = band(ds, lam)
    ends = [low, high, a.min() / 2, (a.max() + 1) / 2, *(float(x) for x in a)]
    p = draw(st.one_of(st.floats(0.001, 0.999), st.sampled_from(ends)))
    assume(0 < p < 1)
    return ds, a, p, lam


@settings(max_examples=150, deadline=None)
@given(oracle_cases())
def test_fit_is_the_exact_minimizer(case):
    """theta matches the support-enumerating oracle within 1e-12, with tied
    entries of a, priors at the band's ends and past [min a, max a], and
    ratios up to a zero regularizer."""
    ds, a, p, lam = case
    theta = fit(ds, Prior(p), WeapoConfig(lambda_reg=lam)).theta
    expected = weapo_by_supports(a, p, 1.0 / lam if lam else np.inf)
    np.testing.assert_allclose(theta, expected, rtol=0, atol=1e-12)


@st.composite
def outside_band_cases(draw):
    """A small vote matrix, a finite ratio r = 1/lam, a side, -1 below the
    band or +1 above it, and a prior at or past that end of the band."""
    ds, a = small_vote_matrix(draw)
    lam = draw(st.floats(0.01, 1e3).map(lambda w: 1.0 / w))
    side = draw(st.sampled_from([-1, 1]))
    low, high = band(ds, lam)
    p = draw(st.sampled_from([low, low / 2] if side < 0 else [high, (high + 1) / 2]))
    assume(0 < p < 1)
    return ds, a, p, lam, side


@settings(max_examples=150, deadline=None)
@given(outside_band_cases())
def test_outside_the_band_theta_is_the_projection(case):
    """Below the band theta is the Euclidean projection of -(r/2)*a onto
    the simplex and above it that of +(r/2)*a, within 1e-12 of a bisection
    that shares no code with the fit, with tied entries of a."""
    ds, a, p, lam, side = case
    theta = fit(ds, Prior(p), WeapoConfig(lambda_reg=lam)).theta
    r = 1.0 / lam
    expected = simplex_projection_by_bisection(side * (r / 2) * a)
    np.testing.assert_allclose(theta, expected, rtol=0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from([0.0, 0.1, 0.25, 1 / 3, 0.5, 0.7, 1.0]) | st.floats(0, 1),
             min_size=1, max_size=10),
    st.floats(-100, 100),
)
def test_mean_score_is_linear_on_each_support(a, t):
    """On the support S of theta(t), the Euclidean projection of -t*a onto
    the simplex, of size k, a.theta(t) = mean_S - t*k*Var_S."""
    a = np.array(a)
    theta = simplex_projection_by_bisection(-t * a)
    support = a[theta > 0]
    k_var = float(((support - support.mean()) ** 2).sum())
    expected = support.mean() - t * k_var
    assert abs(float(a @ theta) - expected) <= 1e-12 * (1 + abs(t))


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
        with pytest.raises(ValueError, match="^votes have 2 columns, model expects 1$"):
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
            ({"lambda_reg": 10**400}, "lambda_reg must be finite"),
            ({"lambda_reg": float("nan")}, "lambda_reg must be finite"),
            ({"use_prior": "yes"}, "use_prior"),
            ({"use_prior": 1}, "use_prior"),
        ]
        for change, message in bad_cases:
            with pytest.raises(ValueError, match=message):
                WeapoConfig(**change)
        assert WeapoConfig(lambda_reg=2).lambda_reg == 2
        assert WeapoConfig(lambda_reg=np.float64(0.5)).lambda_reg == 0.5
        with pytest.raises(TypeError, match="prior_weight"):
            WeapoConfig(prior_weight=1.0)

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
            ({"config": {"prior_weight": 1.0}}, "^unknown weapo config key 'prior_weight'$"),
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
