"""Kernel ridge end model: targets, solver contracts, and the pipeline."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import weapo.endmodel
from oracles import (
    krr_coefficients_lu,
    rbf_kernel_three_temporaries,
    ridge_system_with_identity,
)
from weapo import (
    FeatureSpec,
    Prior,
    SyntheticSpec,
    evaluate_label_model,
    fit,
    fit_krr,
    generate,
    make_targets,
    predict_dataset,
    predict_krr,
    roc_auc,
)
from weapo.endmodel import (
    BLOCK_ROWS,
    INVERSE_BASE_ROWS,
    KERNEL_CHUNK_DOUBLES,
    MEMORY_BUDGET_FRACTION,
    fit_bytes,
)


def kernel(x, y, gamma):
    """``_kernel`` of 2-D float64 features, in a buffer of ``_kernel_doubles`` entries."""
    out = np.empty(weapo.endmodel._kernel_doubles(len(x), len(y)))
    return weapo.endmodel._kernel(x, y, (x * x).sum(axis=1), (y * y).sum(axis=1), gamma, out)


def record_precisions(monkeypatch):
    """The panel dtypes ``fit_krr`` factors, in order, recorded from here on."""
    factor_panels = weapo.endmodel._factor_panels
    precisions = []

    def recording_factor(panels):
        precisions.append(panels[0].dtype.type)
        factor_panels(panels)

    monkeypatch.setattr(weapo.endmodel, "_factor_panels", recording_factor)
    return precisions


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

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_target_rejected(self, value):
        """A bad policy value is named, not blamed on the training data."""
        with pytest.raises(ValueError, match="uncovered_target must be finite"):
            make_targets(np.zeros(2), np.zeros(2), uncovered_target=value)


class TestRbfKernel:
    def test_unit_diagonal(self):
        x = np.random.default_rng(0).normal(size=(10, 3))
        np.testing.assert_allclose(np.diag(kernel(x, x, 0.5)), 1.0, atol=1e-15)

    def test_known_entry(self):
        k = kernel(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]), 0.5)
        assert k[0, 0] == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_symmetry(self):
        x = np.random.default_rng(1).normal(size=(8, 2))
        k = kernel(x, x, 1.3)
        np.testing.assert_allclose(k, k.T, atol=1e-15)

    @pytest.mark.parametrize("same", [True, False], ids=["x-is-y", "distinct"])
    def test_in_place_build_matches_three_temporaries_bitwise(self, same):
        """``x is y`` takes numpy's symmetric product; both paths must
        round exactly as the plain expression does."""
        rng = np.random.default_rng(9)
        x = rng.normal(size=(301, 4))
        y = x if same else rng.normal(size=(177, 4))
        np.testing.assert_array_equal(
            kernel(x, y, 0.37), rbf_kernel_three_temporaries(x, y, 0.37), strict=True
        )

    @pytest.mark.parametrize(
        "x_rows, y_rows, same",
        [
            # A chunk holds KERNEL_CHUNK_DOUBLES // y_rows rows: here one.
            (3, KERNEL_CHUNK_DOUBLES // 2 + 1, False),
            # Three full chunks and five rows more.
            (3 * (KERNEL_CHUNK_DOUBLES // 1000) + 5, 1000, False),
            (1, 1000, False),
            # Twelve chunks of the symmetric product.
            (600, 600, True),
        ],
        ids=["one-row-chunks", "partial-last-chunk", "one-row-x", "x-is-y-chunks"],
    )
    def test_chunked_build_matches_three_temporaries_bitwise(self, x_rows, y_rows, same):
        """The elementwise passes run over row chunks of at most
        KERNEL_CHUNK_DOUBLES entries: one row a chunk for a y that wide,
        a partial last chunk, a single row, and ``x is y`` over several
        chunks all round exactly as the plain expression does."""
        rng = np.random.default_rng(x_rows + y_rows)
        x = rng.normal(size=(x_rows, 4))
        y = x if same else rng.normal(size=(y_rows, 4))
        np.testing.assert_array_equal(
            kernel(x, y, 0.37), rbf_kernel_three_temporaries(x, y, 0.37), strict=True
        )


class TestDefaultGamma:
    def test_inverse_scale(self):
        features = np.array([[0.0, 0.0], [2.0, 2.0]])
        assert fit_krr(features, np.zeros(2)).gamma == pytest.approx(1.0 / (2 * 1.0))

    def test_constant_features_fall_back(self):
        assert fit_krr(np.ones((5, 3)), np.zeros(5)).gamma == 1.0


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

    @pytest.mark.parametrize("gamma", [None, 0.5])
    def test_features_without_columns_rejected(self, gamma):
        """Zero-width features carry no distance; they are refused before
        the default bandwidth divides by their variance."""
        with pytest.raises(ValueError, match="at least one column"):
            fit_krr(np.empty((3, 0)), np.array([0.0, 0.5, 1.0]), gamma=gamma)

    def test_system_matches_identity_oracle_bitwise(self, monkeypatch):
        """The build and every residual pass read the system from one
        generator of float64 row chunks of its lower triangle, each from
        column 0 to the chunk's end, with the ridge added to its diagonal
        in place: every chunk is exactly the plain kernel of those rows and
        columns with alpha on the diagonal. Each row-block panel holds that
        system rounded to float32 in its lower triangle and zero above."""
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2 * BLOCK_ROWS + 37, 3))
        t = rng.normal(size=len(x))
        build = weapo.endmodel._ridge_panels
        system_chunks = weapo.endmodel._system_chunks
        product = weapo.endmodel._system_product
        seen, chunks, passes = [], [], []

        def recording_build(*args):
            panels = build(*args)
            seen.append([panel.copy() for panel in panels])
            return panels

        def recording_chunks(*args):
            for rows, chunk in system_chunks(*args):
                chunks.append((rows, chunk.copy()))
                yield rows, chunk

        def recording_product(*args):
            passes.append(len(chunks))
            return product(*args)

        monkeypatch.setattr(weapo.endmodel, "_ridge_panels", recording_build)
        monkeypatch.setattr(weapo.endmodel, "_system_chunks", recording_chunks)
        monkeypatch.setattr(weapo.endmodel, "_system_product", recording_product)
        fit_krr(x, t, gamma=0.6, alpha=0.25)

        def expected_rows(rows):
            expected = rbf_kernel_three_temporaries(x[rows], x[: rows.stop], 0.6)
            expected[:, rows] = ridge_system_with_identity(expected[:, rows], 0.25)
            return expected

        assert len(seen) == 1 and len(seen[0]) == 3 and len(passes) >= 2
        for start, panel in zip(range(0, len(x), BLOCK_ROWS), seen[0]):
            rows = slice(start, min(start + BLOCK_ROWS, len(x)))
            lower = np.tril(np.ones(panel.shape, dtype=bool), k=start)
            expected = expected_rows(rows).astype(np.float32)
            np.testing.assert_array_equal(panel[lower], expected[lower], strict=True)
            assert (panel[~lower] == 0.0).all()
        for rows, system in chunks:
            np.testing.assert_array_equal(system, expected_rows(rows), strict=True)
        first_pass = chunks[passes[0] : passes[1]]
        chunk = weapo.endmodel._CHUNK_ROWS
        assert [(rows.start, rows.stop) for rows, _ in first_pass] == [
            (start, min(start + chunk, len(x))) for start in range(0, len(x), chunk)
        ]

    def test_each_pass_evaluates_the_lower_triangle_once(self, monkeypatch):
        """The panel build and every residual pass evaluate the same
        entries: the lower triangle, diagonal included, once, and of the
        strict upper half only that of each chunk's own square on the
        diagonal, which a chunk of rows reaching to its own end spans;
        none of the rest of a diagonal block's upper half."""
        n = 2 * BLOCK_ROWS + 37
        chunk = weapo.endmodel._CHUNK_ROWS
        squares = [min(chunk, n - start) for start in range(0, n, chunk)]
        kernel, passes = weapo.endmodel._kernel, []

        def counting_kernel(x, y, *rest):
            passes[-1] += len(x) * len(y)
            return kernel(x, y, *rest)

        def starting_pass(stage):
            def started(*args):
                passes.append(0)
                return stage(*args)
            return started

        for name in ("_ridge_panels", "_system_product"):
            stage = getattr(weapo.endmodel, name)
            monkeypatch.setattr(weapo.endmodel, name, starting_pass(stage))
        monkeypatch.setattr(weapo.endmodel, "_kernel", counting_kernel)
        rng = np.random.default_rng(10)
        fit_krr(rng.normal(size=(n, 3)), rng.normal(size=n), gamma=0.6, alpha=0.25)
        assert len(passes) >= 2
        per_pass = n * (n + 1) // 2 + sum(c * (c - 1) // 2 for c in squares)
        assert passes == [per_pass] * len(passes)

    @pytest.mark.parametrize(
        "block_rows, dtype",
        [
            pytest.param(BLOCK_ROWS, np.float64, id=f"b{BLOCK_ROWS}"),
            pytest.param(8, np.float64, id="b8"),
            pytest.param(BLOCK_ROWS, np.float32, id=f"b{BLOCK_ROWS}-float32"),
            pytest.param(8, np.float32, id="b8-float32"),
        ],
    )
    def test_panels_hold_cholesky_factor_and_diagonal_inverses(
        self, monkeypatch, block_rows, dtype
    ):
        """The panels, factored in place, hold the Cholesky factor L of the
        full system left of each diagonal block, and in each diagonal block
        the inverse of that block of L: exactly zero above its diagonal,
        and times the block of L within ``test_lower_inverse``'s bound,
        n * eps * |inverse| * |L|, with n the columns up to the block's
        end. That is the length of the sums that form the block; the
        reference factors the whole system in another order, so its block
        differs from the one inverted by their rounding too.

        Each precision is checked on its own system, float64 or float64
        rounded to float32, with its own eps; the factor's bound is 1e-12
        in float64 and as many float32 eps. The factorization in the other
        precision is made to break down, so that the float64 attempt runs
        at the alpha these bounds were set for: an alpha small enough to
        reach it unforced leaves the system too ill-conditioned for them."""
        monkeypatch.setattr(weapo.endmodel, "BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(15)
        n = 2 * BLOCK_ROWS + 37
        x = rng.normal(size=(n, 3))
        t = rng.normal(size=n)
        factor_panels = weapo.endmodel._factor_panels
        recorded = []

        def recording_factor(panels):
            if panels[0].dtype != dtype:
                raise np.linalg.LinAlgError("the precision not under test")
            factor_panels(panels)
            recorded.append([panel.copy() for panel in panels])

        monkeypatch.setattr(weapo.endmodel, "_factor_panels", recording_factor)
        fit_krr(x, t, gamma=0.6, alpha=0.25)
        system = ridge_system_with_identity(rbf_kernel_three_temporaries(x, x, 0.6), 0.25)
        expected = np.linalg.cholesky(system.astype(dtype).astype(np.float64))
        eps = np.finfo(dtype).eps
        assert len(recorded) == 1 and len(recorded[0]) == -(-n // block_rows)
        for panel in recorded[0]:
            assert panel.dtype == dtype
            panel = panel.astype(np.float64)
            rows = slice(panel.shape[1] - len(panel), panel.shape[1])
            error = np.abs(panel[:, : rows.start] - expected[rows, : rows.start]).max(initial=0.0)
            assert error <= 1e-12 * (eps / np.finfo(np.float64).eps) * np.abs(expected).max()
            inverse, factor = panel[:, rows], expected[rows, rows]
            assert (np.triu(inverse, 1) == 0.0).all()
            norms = np.abs(inverse).sum(axis=1).max() * np.abs(factor).sum(axis=1).max()
            residual = np.abs(inverse @ factor - np.eye(len(factor))).max()
            assert residual <= rows.stop * eps * norms

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 29], ids=lambda n: f"n{n}")
    def test_coefficients_match_lu_oracle(self, monkeypatch, n):
        """With 8-wide blocks the factorization and both substitutions run
        over many blocks, and partial last blocks, from N = 1 up. Both
        solves are backward stable, and the eigenvalues of K + alpha * I lie
        in [alpha, N + alpha], so the two coefficient vectors agree to
        4 * N * eps * (1 + N / alpha) relative to their size."""
        monkeypatch.setattr(weapo.endmodel, "BLOCK_ROWS", 8)
        precisions = record_precisions(monkeypatch)
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 3))
        t = rng.normal(size=n)
        alpha = 0.05
        model = fit_krr(x, t, gamma=0.4, alpha=alpha)
        expected = krr_coefficients_lu(rbf_kernel_three_temporaries(x, x, 0.4), alpha, t)
        bound = 4 * n * np.finfo(np.float64).eps * (1 + n / alpha)
        error = np.abs(model.coefficients - expected).max()
        assert error <= bound * np.abs(expected).max()
        assert precisions == [np.float32]

    def test_coefficients_match_lu_oracle_at_default_blocks(self, monkeypatch):
        """At the default BLOCK_ROWS each diagonal factor is inverted by
        halving down to INVERSE_BASE_ROWS rows, a path the 8-wide blocks
        above never take; the bound is theirs."""
        precisions = record_precisions(monkeypatch)
        n = 2 * BLOCK_ROWS + 89
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 3))
        t = rng.normal(size=n)
        alpha = 0.05
        model = fit_krr(x, t, gamma=0.4, alpha=alpha)
        expected = krr_coefficients_lu(rbf_kernel_three_temporaries(x, x, 0.4), alpha, t)
        bound = 4 * n * np.finfo(np.float64).eps * (1 + n / alpha)
        error = np.abs(model.coefficients - expected).max()
        assert error <= bound * np.abs(expected).max()
        assert precisions == [np.float32]

    def test_float64_attempt_returns_the_float64_solve_bitwise(self, monkeypatch):
        """At an alpha this small the float32 refinement stalls, and the
        float64 attempt's first solve passes the refinement's test: the
        coefficients are exactly those of the float64 panels of the plain
        kernel, factored and substituted once."""
        precisions = record_precisions(monkeypatch)
        rng = np.random.default_rng(10)
        n = 2 * BLOCK_ROWS + 37
        x = rng.normal(size=(n, 3))
        t = rng.normal(size=n)
        model = fit_krr(x, t, gamma=0.6, alpha=1e-4)
        assert precisions == [np.float32, np.float64]
        panels = []
        for start in range(0, n, BLOCK_ROWS):
            rows = slice(start, min(start + BLOCK_ROWS, n))
            panel = rbf_kernel_three_temporaries(x[rows], x[: rows.stop], 0.6)
            panel[:, rows] = ridge_system_with_identity(panel[:, rows], 1e-4)
            panels.append(panel)
        weapo.endmodel._factor_panels(panels)
        expected = weapo.endmodel._substitute(panels, t)
        np.testing.assert_array_equal(model.coefficients, expected, strict=True)

    @pytest.mark.parametrize("scaled", [1, 2], ids=["first-correction", "second-correction"])
    def test_refinement_keeps_the_iterate_before_a_growing_residual(self, monkeypatch, scaled):
        """A float32 correction tripled overshoots, so the residual grows:
        the refinement stops there and returns the iterate before it and
        that iterate's residual norm, bitwise. Before the first correction
        the residual exceeds fit_krr's bound, so the fit repeats in float64;
        before the second it meets the bound, so the float32 result stands."""
        rng = np.random.default_rng(7)
        n = 300
        x = rng.normal(size=(n, 3))
        t = rng.normal(size=n)
        gamma, alpha = 0.4, 1.0
        bound = 1e-8 * (1.0 + float(np.linalg.norm(t)))
        float64_solve = weapo.endmodel._solve_refined(x, t, gamma, alpha, np.float64, math.inf)
        solve_factored = weapo.endmodel._solve_factored
        iterates = []

        def overshooting(panels, rhs):
            step = solve_factored(panels, rhs)
            if panels[0].dtype == np.float32:
                if len(iterates) == scaled:
                    step = 3.0 * step
                iterates.append(iterates[-1] + step if iterates else step)
            return step

        monkeypatch.setattr(weapo.endmodel, "_solve_factored", overshooting)
        coefficients, norm = weapo.endmodel._solve_refined(x, t, gamma, alpha, np.float32, bound)
        assert len(iterates) == scaled + 1
        kept = iterates[scaled - 1]
        residual = t - weapo.endmodel._system_product(x, gamma, alpha, kept)
        grown = t - weapo.endmodel._system_product(x, gamma, alpha, iterates[-1])
        assert np.abs(grown).max() > np.abs(residual).max()
        assert coefficients.tobytes() == kept.tobytes()
        assert norm == float(np.linalg.norm(residual))
        assert (norm <= bound) is (scaled == 2)

        iterates.clear()
        precisions = record_precisions(monkeypatch)
        model = fit_krr(x, t, gamma=gamma, alpha=alpha)
        if norm <= bound:
            assert precisions == [np.float32]
            assert model.coefficients.tobytes() == kept.tobytes()
        else:
            assert precisions == [np.float32, np.float64]
            assert model.coefficients.tobytes() == float64_solve[0].tobytes()

    def test_alpha_beyond_float32_takes_float64_without_a_warning(self, monkeypatch):
        """K + alpha * I overflows float32 for alpha = 1e300; the fit goes
        straight to float64, with no overflow warning on the way."""
        precisions = record_precisions(monkeypatch)
        rng = np.random.default_rng(18)
        x = rng.normal(size=(40, 2))
        t = rng.normal(size=40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_krr(x, t, gamma=0.5, alpha=1e300)
        assert precisions == [np.float64]
        np.testing.assert_allclose(model.coefficients, t / 1e300, rtol=1e-12)

    @pytest.mark.parametrize(
        "n",
        [1, 2, INVERSE_BASE_ROWS - 1, INVERSE_BASE_ROWS, INVERSE_BASE_ROWS + 1,
         64, 100, 255, 256],
        ids=lambda n: f"n{n}",
    )
    def test_lower_inverse(self, n):
        """Halving stops at INVERSE_BASE_ROWS rows, whose blocks are inverted
        directly: the inverse of a Cholesky factor L of a kernel system is
        exactly zero above the diagonal, and ``inverse @ L - I`` is within
        n * eps * |inverse| * |L| in the infinity norm, the size of the
        rounding error of a triangular inverse."""
        x = np.random.default_rng(n).normal(size=(n, 3))
        factor = np.linalg.cholesky(
            ridge_system_with_identity(rbf_kernel_three_temporaries(x, x, 0.4), 0.05)
        )
        inverse = weapo.endmodel._lower_inverse(factor)
        assert inverse.shape == (n, n)
        assert (np.triu(inverse, 1) == 0.0).all()
        norms = np.abs(inverse).sum(axis=1).max() * np.abs(factor).sum(axis=1).max()
        residual = np.abs(inverse @ factor - np.eye(n)).max()
        assert residual <= n * np.finfo(np.float64).eps * norms

    def test_near_duplicates_rejected_at_zero_ridge(self):
        """Points 1e-6 to 1e-10 apart make K singular to working precision;
        the fit refuses them whether the factorization breaks down or the
        residual check catches the damage."""
        rng = np.random.default_rng(14)
        base = rng.normal(size=(40, 2))
        t = rng.normal(size=80)
        for gap in (1e-6, 1e-8, 1e-10):
            x = np.vstack([base, base + gap])
            with pytest.raises(ValueError, match="singular"):
                fit_krr(x, t, gamma=1.0, alpha=0.0)

    def test_predict_width_mismatch(self):
        model = fit_krr(np.zeros((2, 2)), np.zeros(2), gamma=1.0)
        with pytest.raises(ValueError, match="width"):
            predict_krr(model, np.zeros((1, 3)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
    def test_predict_non_finite_features_rejected(self, value):
        """The kernel of a NaN or inf row is NaN, so the score would be a
        silent NaN with a RuntimeWarning."""
        model = fit_krr(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), gamma=1.0)
        with pytest.raises(ValueError, match="finite"):
            predict_krr(model, np.array([[0.5], [value]]))

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


class TestExtremeNumbers:
    """Numbers at the ends of the float64 range fail with a clean message
    or saturate; none leaks a numpy RuntimeWarning (pytest turns those
    into errors)."""

    @pytest.mark.parametrize("shift", [0.0, 1e200], ids=["spread", "offset"])
    def test_fit_refuses_features_whose_distances_overflow(self, shift):
        x = np.random.default_rng(3).normal(size=(30, 2)) * 1e200 + shift
        with pytest.raises(ValueError, match="at most .* in magnitude.*overflow float64"):
            fit_krr(x, np.linspace(0.0, 1.0, 30))

    def test_predict_refuses_features_whose_distances_overflow(self):
        model = fit_krr(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), gamma=1.0)
        with pytest.raises(ValueError, match="at most .* in magnitude.*overflow float64"):
            predict_krr(model, np.array([[0.5], [1e200]]))

    def test_features_at_the_limit_are_accepted(self):
        limit = math.sqrt(np.finfo(np.float64).max / 4)
        x = np.array([[-limit], [limit]])
        model = fit_krr(x, np.array([0.0, 1.0]), gamma=1.0, alpha=0.0)
        np.testing.assert_array_equal(predict_krr(model, x), [0.0, 1.0])

    def test_fit_refuses_a_target_above_the_limit(self):
        x = np.random.default_rng(9).normal(size=(30, 2))
        targets = np.linspace(0.0, 1.0, 30)
        targets[7] = -np.nextafter(math.sqrt(np.finfo(np.float64).max / (4 * 30)), np.inf)
        with pytest.raises(ValueError, match="targets must be at most .* at N = 30.*overflows"):
            fit_krr(x, targets)

    def test_targets_at_the_limit_are_fitted(self):
        """Every target at the limit, of either sign: the residual check's
        norms stay finite and no overflow warning is raised."""
        x = np.random.default_rng(10).normal(size=(30, 2))
        limit = math.sqrt(np.finfo(np.float64).max / (4 * 30))
        targets = np.where(np.arange(30) % 2 == 0, limit, -limit)
        model = fit_krr(x, targets, alpha=1.0)
        assert np.isfinite(model.coefficients).all()

    def test_default_gamma_of_huge_features_is_finite(self):
        """The squares var sums would overflow, though the variance does not."""
        x = np.random.default_rng(4).uniform(-4e153, 4e153, size=(1000, 1))
        gamma = fit_krr(x, np.zeros(1000)).gamma
        assert 0.0 < gamma < math.inf
        assert gamma == pytest.approx(1.0 / float((x / 1e153).var()) * 1e-306, rel=1e-12)

    def test_default_gamma_of_tiny_variance_is_refused(self):
        x = np.random.default_rng(5).normal(size=(20, 2)) * 1e-160
        with pytest.raises(ValueError, match="default gamma.*overflows.*give gamma"):
            fit_krr(x, np.linspace(0.0, 1.0, 20))

    @pytest.mark.parametrize("gamma", [-1.0, 0.0, np.nan, np.inf])
    def test_kernel_refuses_the_gamma_fit_krr_refuses(self, gamma):
        """A gamma of -1 once gave kernel values of e."""
        x = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError, match="gamma must be finite and positive"):
            fit_krr(x, np.array([0.0, 1.0]), gamma=gamma)

    def test_huge_gamma_saturates_the_kernel_to_zero(self):
        x = np.array([[0.0], [1.0], [3.0]])
        np.testing.assert_array_equal(kernel(x, x, 1e308), np.eye(3))
        model = fit_krr(x, np.array([0.0, 1.0, 0.5]), gamma=1e308, alpha=0.0)
        np.testing.assert_array_equal(model.coefficients, [0.0, 1.0, 0.5])

    def test_features_checked_once_per_public_call(self, monkeypatch):
        """fit_krr and predict_krr check their features once each, not once
        per row block of the kernel."""
        calls = []
        check = weapo.endmodel._check_features
        monkeypatch.setattr(weapo.endmodel, "_check_features",
                            lambda features: calls.append(features.shape) or check(features))
        x = np.random.default_rng(8).normal(size=(3 * BLOCK_ROWS + 5, 2))
        model = fit_krr(x, np.sin(x[:, 0]))
        assert calls == [x.shape]
        predict_krr(model, x)
        assert calls == [x.shape, x.shape]

    def test_singular_message_suggests_a_ridge(self):
        """300 distinct Gaussian points make K singular to working precision
        at the default gamma; the message must not blame duplicates."""
        x = np.random.default_rng(6).normal(size=(300, 2))
        with pytest.raises(ValueError, match="numerically singular; use alpha > 0") as err:
            fit_krr(x, np.random.default_rng(7).normal(size=300), alpha=0.0)
        assert "distinct" not in str(err.value)

    def test_residual_above_the_bound_is_refused(self):
        """Three points 1e-3 apart factor at alpha 0, but the refined solve's
        residual stays above the bound: the last check refuses it."""
        with pytest.raises(ValueError, match=r"^kernel solve residual \S+ too large; the system "
                                             r"is numerically singular; use alpha > 0$"):
            fit_krr(np.array([[0.0], [1e-3], [2e-3]]), np.array([1.0, -1.0, 0.5]),
                    gamma=1.0, alpha=0.0)


class TestChunkedPrediction:
    @pytest.fixture
    def model(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(30, 3))
        return fit_krr(x, rng.normal(size=30), gamma=0.5, alpha=0.2)

    @staticmethod
    def expansion(model, features):
        return (
            rbf_kernel_three_temporaries(features, model.support, model.gamma)
            @ model.coefficients
        )

    @pytest.mark.parametrize(
        "n_test", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS]
    )
    def test_one_block_equals_unchunked_bitwise(self, model, n_test):
        test = np.random.default_rng(n_test).normal(size=(n_test, 3))
        predictions = predict_krr(model, test)
        assert predictions.shape == (n_test,)
        np.testing.assert_array_equal(predictions, self.expansion(model, test), strict=True)

    @pytest.mark.parametrize(
        "n_test", [BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3]
    )
    def test_blocks_equal_unchunked(self, model, n_test):
        """Every block is scored bitwise as it would be on its own. Across
        one unchunked product, BLAS may round a row's dot product
        differently depending on where the row falls in its thread
        partition, so there the bound is the dot-product rounding error,
        2 * N_train * eps * sum |k_ij c_j|."""
        test = np.random.default_rng(n_test).normal(size=(n_test, 3))
        predictions = predict_krr(model, test)
        assert predictions.shape == (n_test,)
        for start in range(0, n_test, BLOCK_ROWS):
            block = test[start:start + BLOCK_ROWS]
            np.testing.assert_array_equal(
                predictions[start:start + BLOCK_ROWS],
                self.expansion(model, block),
                strict=True,
            )
        kernel = rbf_kernel_three_temporaries(test, model.support, model.gamma)
        bound = 2 * len(model.coefficients) * np.finfo(np.float64).eps * (
            np.abs(kernel) @ np.abs(model.coefficients)
        )
        assert (np.abs(predictions - kernel @ model.coefficients) <= bound).all()


class TestMemory:
    @staticmethod
    def traced_peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def traced_fit_peak(n):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(n, 3))
        t = rng.normal(size=n)
        return TestMemory.traced_peak(lambda: fit_krr(x, t, gamma=0.5, alpha=1.0))

    def test_fit_holds_one_dense_array(self):
        """The lower triangle of the kernel system as row-block panels,
        factored in place, each diagonal block overwritten by its inverse:
        about 0.61 * 8 * N**2 bytes at N = 2000. A list of diagonal
        inverses beside the panels costs 0.1 * 8 * N**2 more; a stored
        upper triangle, a solve that copies the system, or a kernel built
        in one call would each cost another 0.5 to 1 * 8 * N**2."""
        n = 2000
        assert self.traced_fit_peak(n) < 0.65 * n * n * 8

    def test_default_fit_holds_float32_panels(self):
        """A default fit factors the system in float32, half the bytes of
        the float64 panels ``fit_bytes`` prices, and rebuilds it for each
        residual in float64 row chunks of a few rows. At N = 3 * BLOCK_ROWS
        + 5 the float32 panels are 0.30 of ``fit_bytes`` and the
        factorization's float32 temporaries 0.20; the float64 panels alone,
        the bound, are 0.6 of it."""
        n = 3 * BLOCK_ROWS + 5
        assert self.traced_fit_peak(n) < 0.6 * fit_bytes(n)

    def test_factorization_updates_each_diagonal_block_in_place(self):
        """The float32 factorization at N = 3 * BLOCK_ROWS + 5 holds about
        0.20 of ``fit_bytes`` beside its panels: the update product of one
        diagonal block and the copies inside ``cholesky`` and the inverse.
        A diagonal block formed as a new array beside that product adds
        one more block, 0.25."""
        n = 3 * BLOCK_ROWS + 5
        x = np.random.default_rng(12).normal(size=(n, 3))
        panels = weapo.endmodel._ridge_panels(x, 0.5, 1.0, np.float32)
        peak = self.traced_peak(lambda: weapo.endmodel._factor_panels(panels))
        assert peak < 0.22 * fit_bytes(n)

    @pytest.mark.parametrize(
        "alpha, expected",
        [(0.25, [np.float32]), (1e-4, [np.float32, np.float64])],
        ids=["float32", "float64-fallback"],
    )
    def test_fit_within_fit_bytes(self, monkeypatch, alpha, expected):
        """A fit stays within ``fit_bytes``, the chunk buffer of its passes
        included, whether its float32 attempt serves it alone or its float32
        panels are freed before the float64 attempt builds its own."""
        precisions = record_precisions(monkeypatch)
        rng = np.random.default_rng(10)
        n = 2 * BLOCK_ROWS + 37
        x = rng.normal(size=(n, 3))
        t = rng.normal(size=n)
        peak = self.traced_peak(lambda: fit_krr(x, t, gamma=0.6, alpha=alpha))
        assert precisions == expected
        assert peak < fit_bytes(n)

    def test_each_pass_forms_its_kernels_in_one_buffer(self, monkeypatch):
        """Every chunk of one pass over the system, and every block of one
        prediction, is formed in the same buffer, allocated once per pass
        with room for ``_CHUNK_ROWS`` (or ``BLOCK_ROWS``) rows and their
        scratch, and not in a new array each."""
        rng = np.random.default_rng(19)
        n = 2 * BLOCK_ROWS + 37
        x = rng.normal(size=(n, 3))
        chunk_rows = weapo.endmodel._CHUNK_ROWS
        bases = [chunk.base for _, chunk in weapo.endmodel._system_chunks(x, 0.6, 0.25)]
        assert len(bases) == len(range(0, n, chunk_rows))
        assert all(base is bases[0] for base in bases)
        assert bases[0].shape == (weapo.endmodel._kernel_doubles(chunk_rows, n),)
        kernel, blocks = weapo.endmodel._kernel, []

        def recording_kernel(*args):
            blocks.append(kernel(*args))
            return blocks[-1]

        monkeypatch.setattr(weapo.endmodel, "_kernel", recording_kernel)
        model = fit_krr(x[:300], rng.normal(size=300), gamma=0.5, alpha=1.0)
        blocks.clear()
        predict_krr(model, rng.normal(size=(n, 3)))
        assert len(blocks) == 3 and all(block.base is blocks[0].base for block in blocks)
        assert blocks[0].base.shape == (weapo.endmodel._kernel_doubles(BLOCK_ROWS, 300),)

    @pytest.mark.parametrize("n", [601, 2 * BLOCK_ROWS + 37, 2000], ids=lambda n: f"n{n}")
    def test_fit_bytes_prices_the_peak(self, n):
        """The memory budget ``fit_bytes`` prices the fit's peak up to its
        O(N) vectors: the copy of the 3-wide features the model keeps and
        four vectors of N doubles."""
        assert self.traced_fit_peak(n) < fit_bytes(n) + 8 * n * (3 + 4)

    def test_prediction_never_holds_the_full_kernel(self):
        n_train, n_test = 300, 8 * BLOCK_ROWS
        rng = np.random.default_rng(13)
        model = fit_krr(rng.normal(size=(n_train, 3)), rng.normal(size=n_train),
                        gamma=0.5, alpha=1.0)
        test = rng.normal(size=(n_test, 3))
        peak = self.traced_peak(lambda: predict_krr(model, test))
        assert peak < n_test * n_train * 8

    def test_kernel_holds_one_output_array(self):
        """``x @ y.T`` is formed in the array returned and the elementwise
        passes reuse one chunk buffer of KERNEL_CHUNK_DOUBLES, so a
        256 x 6000 block peaks near its own size; a squared-distance array
        beside the cross product would double it."""
        rng = np.random.default_rng(17)
        x, y = rng.normal(size=(256, 4)), rng.normal(size=(6000, 4))
        x_sq, y_sq = (x * x).sum(axis=1), (y * y).sum(axis=1)
        peak = self.traced_peak(lambda: weapo.endmodel._kernel(
            x, y, x_sq, y_sq, 0.3, np.empty(weapo.endmodel._kernel_doubles(256, 6000))))
        assert peak <= 1.1 * 256 * 6000 * 8


class TestMemoryBudget:
    def test_fit_over_budget_is_refused(self, monkeypatch):
        n = 50
        monkeypatch.setattr(weapo.endmodel, "_available_memory_bytes", lambda: 16 * n * n)
        with pytest.raises(
            ValueError,
            match=r"N = 50 .* GiB \(the lower triangle of the N x N float64 kernel system\)"
            r".* GiB of memory available",
        ):
            fit_krr(np.arange(2.0 * n).reshape(n, 2), np.arange(float(n)))

    def test_fit_within_budget_runs(self, monkeypatch):
        n = 50
        available = int(fit_bytes(n) / MEMORY_BUDGET_FRACTION) + 1
        monkeypatch.setattr(weapo.endmodel, "_available_memory_bytes", lambda: available)
        model = fit_krr(np.arange(2.0 * n).reshape(n, 2), np.arange(float(n)))
        assert model.coefficients.shape == (n,)

    def test_fit_refused_by_the_full_square_price_now_runs(self, monkeypatch):
        """A budget below the price of the whole N x N system plus two
        N x BLOCK_ROWS temporaries, 8 * N * (N + 2 * BLOCK_ROWS) bytes, still
        fits the lower triangle."""
        n = 600
        available = int(fit_bytes(n) / MEMORY_BUDGET_FRACTION) + 1
        assert 8 * n * (n + 2 * BLOCK_ROWS) > MEMORY_BUDGET_FRACTION * available
        monkeypatch.setattr(weapo.endmodel, "_available_memory_bytes", lambda: available)
        rng = np.random.default_rng(16)
        model = fit_krr(rng.normal(size=(n, 2)), rng.normal(size=n))
        assert model.coefficients.shape == (n,)

    def test_check_skipped_without_a_reading(self, monkeypatch):
        monkeypatch.setattr(weapo.endmodel, "_available_memory_bytes", lambda: None)
        model = fit_krr(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), gamma=1.0)
        assert np.isfinite(model.coefficients).all()

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("MemTotal:  8000 kB\nMemAvailable:   2048 kB\n", 2048 * 1024),
            ("MemTotal:  8000 kB\nMemFree:   2048 kB\n", None),
            ("MemAvailable: lots\n", None),
        ],
        ids=["present", "missing", "garbled"],
    )
    def test_reads_mem_available(self, monkeypatch, tmp_path, text, expected):
        meminfo = tmp_path / "meminfo"
        meminfo.write_text(text)
        monkeypatch.setattr(weapo.endmodel, "open", lambda path: meminfo.open(),
                            raising=False)
        assert weapo.endmodel._available_memory_bytes() == expected

    def test_unreadable_meminfo_gives_none(self, monkeypatch):
        def unreadable(path):
            raise FileNotFoundError(path)

        monkeypatch.setattr(weapo.endmodel, "open", unreadable, raising=False)
        assert weapo.endmodel._available_memory_bytes() is None


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
