"""Feature-space end model trained on label-model scores.

Kernel ridge regression with an RBF kernel, solved exactly by a blocked
Cholesky factorization. Training targets come from the label model:
covered records keep their scores, uncovered records take one constant
(default 0, i.e. treated as negative). The end model generalizes past
coverage because it scores features, not votes.

Memory: the fit holds one dense N x N float64 array, 8 * N**2 bytes
(288 MB at N = 6000), plus temporaries of ``BLOCK_ROWS`` rows or columns.
Only the upper triangle of the symmetric kernel system is built in it, by
row blocks. The factorization reads the system from that triangle and
writes the Cholesky factor L below it, so the strict upper triangle and a
saved diagonal keep the system for the residual check. Before allocating
it, ``fit_krr`` refuses a fit that needs more than
``MEMORY_BUDGET_FRACTION`` of the memory the operating system reports
available. Prediction scores the test rows in blocks of ``BLOCK_ROWS``,
so it never holds an N_test x N_train kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# A dense fit may use at most this fraction of the available memory; the
# rest is left to the interpreter, the datasets and other processes.
MEMORY_BUDGET_FRACTION = 0.8
# Rows (or columns) per block in the kernel build, the factorization, the
# triangular solves and predict_krr. Each block temporary is at most
# BLOCK_ROWS x N float64.
BLOCK_ROWS = 256


def make_targets(
    scores: np.ndarray,
    coverage: np.ndarray,
    uncovered_target: float = 0.0,
) -> np.ndarray:
    """Regression targets: label-model scores, with ``uncovered_target``
    where no labeling function fired."""
    scores = np.asarray(scores, dtype=np.float64)
    coverage = np.asarray(coverage)
    if scores.shape != coverage.shape or scores.ndim != 1:
        raise ValueError("scores and coverage must be aligned 1-D arrays")
    if not math.isfinite(uncovered_target):
        raise ValueError("uncovered_target must be finite")
    targets = scores.copy()
    targets[~coverage.astype(bool)] = uncovered_target
    return targets


@dataclass(frozen=True, eq=False)
class KRRModel:
    """Fitted kernel ridge regressor: support points plus dual coefficients."""

    support: np.ndarray
    coefficients: np.ndarray
    gamma: float
    alpha: float


def rbf_kernel(x: np.ndarray, y: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * squared distance) for every row pair. Refuses
    non-finite features and features whose squared distances overflow,
    as ``fit_krr`` does."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"feature widths differ ({x.shape[1]} vs {y.shape[1]})")
    _check_features(x)
    _check_features(y)
    return _kernel(x, y, gamma)


def _kernel(x: np.ndarray, y: np.ndarray, gamma: float) -> np.ndarray:
    """``rbf_kernel`` of checked 2-D float64 features, without the checks."""
    # Built in place: at most this array and one cross-product array of
    # the same shape are alive at once. ``x @ y.T`` stays one call so that
    # numpy uses the symmetric BLAS product when ``x is y``.
    sq = np.add.outer((x * x).sum(axis=1), (y * y).sum(axis=1))
    cross = x @ y.T
    cross *= 2.0
    np.subtract(sq, cross, out=sq)
    del cross
    np.maximum(sq, 0.0, out=sq)
    # A product beyond the float range saturates to -inf, a kernel value of 0.
    with np.errstate(over="ignore"):
        np.multiply(sq, -gamma, out=sq)
    np.exp(sq, out=sq)
    return sq


def default_gamma(features: np.ndarray) -> float:
    """Median-free bandwidth heuristic: 1 / (F * var(features)).

    The variance is taken of the features scaled by a power of two, which
    is exact, so that the squares it sums cannot overflow. Refuses the
    features ``rbf_kernel`` refuses."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    _check_features(features)
    return _default_gamma(features)


def _default_gamma(features: np.ndarray) -> float:
    """``default_gamma`` of checked 2-D float64 features, without the checks."""
    _, exponent = np.frexp(np.abs(features).max())
    var = float(np.ldexp(np.ldexp(features, -exponent).var(), 2 * exponent))
    if var <= 0.0:
        return 1.0
    return 1.0 / (features.shape[1] * var)


def _check_features(features: np.ndarray) -> None:
    """Refuse non-finite features and features whose squared distances
    could overflow float64.

    ``rbf_kernel`` forms ``|x|^2 + |y|^2 - 2 x.y``; with every entry at
    most ``sqrt(max / (4 F))`` in magnitude, each term and the squared
    distance stay finite."""
    if not np.isfinite(features).all():
        raise ValueError("features must be finite")
    limit = math.sqrt(np.finfo(np.float64).max / (4 * max(features.shape[1], 1)))
    largest = float(np.abs(features).max(initial=0.0))
    if largest > limit:
        raise ValueError(
            f"features must be at most {limit:.3g} in magnitude, or their squared "
            f"distances overflow float64; got {largest:.3g}"
        )


def check_krr_settings(gamma: float | None = None, alpha: float | None = None) -> None:
    """Raise ``ValueError`` for a ``gamma`` or ``alpha`` of ``fit_krr`` out
    of range; a setting left as None is not checked."""
    if alpha is not None and not (np.isfinite(alpha) and alpha >= 0.0):
        raise ValueError("alpha must be finite and non-negative")
    if gamma is not None and not (np.isfinite(gamma) and gamma > 0.0):
        raise ValueError("gamma must be finite and positive")


def _available_memory_bytes() -> int | None:
    """``MemAvailable`` from ``/proc/meminfo`` in bytes, or None where
    that file cannot be read or lacks the field (non-Linux systems)."""
    try:
        with open("/proc/meminfo") as handle:
            for line in handle:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


def _blocks(n: int) -> list[slice]:
    """Consecutive slices of at most ``BLOCK_ROWS`` that cover ``range(n)``."""
    return [slice(start, min(start + BLOCK_ROWS, n)) for start in range(0, n, BLOCK_ROWS)]


def fit_bytes(n: int) -> int:
    """Bytes an exact fit on ``n`` records holds: the N x N system plus
    two N x ``BLOCK_ROWS`` block temporaries, the most that the kernel
    build, each panel step of the factorization and the residual check
    hold at once."""
    return 8 * n * (n + 2 * min(n, BLOCK_ROWS))


def _ridge_system(features: np.ndarray, gamma: float, alpha: float) -> np.ndarray:
    """The upper triangle of ``K + alpha * I`` in one new array, built
    ``BLOCK_ROWS`` rows at a time so that no second N x N array is alive.

    Each row block is written from its own first column on: its diagonal
    block in full and the strict upper triangle right of it. The entries
    below the diagonal blocks are left unwritten; ``_cholesky_in_place``
    writes them before it reads them.
    """
    n = features.shape[0]
    system = np.empty((n, n))
    for rows in _blocks(n):
        system[rows, rows.start :] = _kernel(
            features[rows], features[rows.start :], gamma
        )
    system.flat[:: n + 1] += alpha
    return system


def _cholesky_in_place(a: np.ndarray) -> None:
    """Write the Cholesky factor L of the symmetric positive-definite
    system whose upper triangle is that of ``a`` into the lower triangle
    of ``a``, left-looking by blocks of ``BLOCK_ROWS`` columns.

    The system is read from the diagonal blocks and the strict upper
    triangle only, which are left as they are; each entry below the
    diagonal blocks is written before it is read. For each block of b
    columns, the panel of the R rows below it is formed transposed, as a
    b x R array from the upper triangle, and turned into L by one b x b
    inverse of the block's factor and one GEMM. The step holds at most
    two b x R temporaries.

    Raises ``np.linalg.LinAlgError`` when a diagonal block is not
    positive definite.
    """
    n = a.shape[0]
    for cols in _blocks(n):
        done = a[cols, : cols.start]  # this block's rows of L, left of it
        factor = np.linalg.cholesky(a[cols, cols] - done @ done.T)
        np.copyto(a[cols, cols], factor, where=np.tri(len(factor), dtype=bool))
        if cols.stop < n:
            # The panel below the block, transposed: the system's values
            # right of the block, less the product of the rows of L done.
            panel_t = done @ a[cols.stop :, : cols.start].T
            np.subtract(a[cols, cols.stop :], panel_t, out=panel_t)
            # L below the block is panel @ factor^-T: one b x b inverse,
            # then one GEMM over all the rows below.
            inverse = np.linalg.solve(factor, np.eye(len(factor)))
            a[cols.stop :, cols] = (inverse @ panel_t).T


def _cholesky_solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L L^T x = rhs, with L in the lower triangle of ``a``, by
    blocked forward and back substitution."""
    x = rhs.copy()
    blocks = _blocks(a.shape[0])
    for rows in blocks:
        x[rows] = np.linalg.solve(
            np.tril(a[rows, rows]), x[rows] - a[rows, : rows.start] @ x[: rows.start]
        )
    for rows in reversed(blocks):
        x[rows] = np.linalg.solve(
            np.tril(a[rows, rows]).T, x[rows] - a[rows.stop :, rows].T @ x[rows.stop :]
        )
    return x


def _symmetric_product(a: np.ndarray, diagonal: np.ndarray, x: np.ndarray) -> np.ndarray:
    """S @ x for the symmetric S whose strict upper triangle is that of
    ``a`` and whose diagonal is ``diagonal``; ``a`` is read by row blocks."""
    product = diagonal * x
    for rows in _blocks(a.shape[0]):
        upper = np.triu(a[rows, rows.start :], 1)
        product[rows] += upper @ x[rows.start :]
        product[rows.start :] += upper.T @ x[rows]
    return product


def fit_krr(
    features: np.ndarray,
    targets: np.ndarray,
    gamma: float | None = None,
    alpha: float = 1.0,
) -> KRRModel:
    """Solve (K + alpha * I) c = targets by a blocked Cholesky factorization.

    Parameters
    ----------
    features : (N, F) array
    targets : (N,) array
    gamma : float, optional
        RBF bandwidth; defaults to ``1 / (F * var(features))``.
    alpha : float
        Ridge strength. ``alpha = 0`` requests exact interpolation and
        fails with a clear error when the kernel matrix is numerically
        singular (duplicate points, or points close at the kernel's
        scale).

    Notes
    -----
    The fit holds one dense N x N float64 array, 8 * N**2 bytes (288 MB
    at N = 6000), plus two N x ``BLOCK_ROWS`` block temporaries
    (``fit_bytes``). Before allocating it, the fit compares that size
    with ``MEMORY_BUDGET_FRACTION`` of ``MemAvailable`` in
    ``/proc/meminfo`` and raises ``ValueError`` naming N, the GiB needed
    and the GiB available when it does not fit. The check is skipped
    where that file cannot be read, and it does not see a cgroup memory
    limit, so a container may still be killed below it.

    The upper triangle of the system ``K + alpha * I`` is built by row
    blocks. A left-looking blocked Cholesky factorization (about N**3 / 3
    flops) reads the system from it and writes the factor L below it,
    each panel by one inverse of a small diagonal factor and one GEMM; the
    strict upper triangle and a saved copy of the diagonal keep the
    system itself. A diagonal block that is not positive definite means
    the system is singular. numpy's factorization and solves do not check
    their input for NaN or inf, so non-finite features, targets, ``gamma``
    or ``alpha`` are rejected here, and so are features large enough
    for their squared distances to overflow. The solve is verified
    against the kept system: the residual norm must not exceed
    ``1e-8 * (1 + ||targets||)``.
    """
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    targets = np.asarray(targets, dtype=np.float64)
    if features.shape[0] != targets.shape[0] or targets.ndim != 1:
        raise ValueError("features and targets must have matching first dimension")
    if features.shape[0] == 0:
        raise ValueError("cannot fit on an empty training set")
    if features.shape[1] == 0:
        raise ValueError("features must have at least one column")
    _check_features(features)
    if not np.isfinite(targets).all():
        raise ValueError("targets must be finite")
    check_krr_settings(gamma, alpha)
    if gamma is None:
        gamma = _default_gamma(features)
        if not np.isfinite(gamma):
            raise ValueError(
                "the default gamma, 1 / (F * var(features)), overflows because the "
                "feature variance is too small; give gamma"
            )
    n = features.shape[0]
    needed, available = fit_bytes(n), _available_memory_bytes()
    if available is not None and needed > MEMORY_BUDGET_FRACTION * available:
        raise ValueError(
            f"the exact kernel fit on N = {n} training records needs "
            f"{needed / 2**30:.2f} GiB (one N x N float64 array), more than "
            f"{MEMORY_BUDGET_FRACTION:.0%} of the {available / 2**30:.2f} GiB "
            "of memory available; train on fewer records"
        )
    system = _ridge_system(features, gamma, alpha)
    diagonal = system.diagonal().copy()
    remedy = "use alpha > 0" if alpha == 0.0 else "use a larger alpha"
    try:
        _cholesky_in_place(system)
        coefficients = _cholesky_solve(system, targets)
    except np.linalg.LinAlgError:
        raise ValueError(f"the kernel system is numerically singular; {remedy}") from None
    residual = float(
        np.linalg.norm(_symmetric_product(system, diagonal, coefficients) - targets)
    )
    # Written so that a NaN residual fails too.
    if not residual <= 1e-8 * (1.0 + float(np.linalg.norm(targets))):
        raise ValueError(
            f"kernel solve residual {residual:.3e} too large; "
            f"the system is numerically singular; {remedy}"
        )
    return KRRModel(
        support=features.copy(),
        coefficients=coefficients,
        gamma=float(gamma),
        alpha=float(alpha),
    )


def predict_krr(model: KRRModel, features: np.ndarray) -> np.ndarray:
    """Kernel expansion over the support points, ``BLOCK_ROWS`` test rows
    at a time."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if features.shape[1] != model.support.shape[1]:
        raise ValueError(
            f"features have width {features.shape[1]}, "
            f"model expects {model.support.shape[1]}"
        )
    # As in fit_krr: a NaN or inf would pass through as a NaN score.
    _check_features(features)
    predictions = np.empty(features.shape[0])
    for rows in _blocks(features.shape[0]):
        # One expression, so each block's kernel is freed before the next.
        predictions[rows] = (
            _kernel(features[rows], model.support, model.gamma)
            @ model.coefficients
        )
    return predictions
