"""Feature-space end model trained on label-model scores.

Kernel ridge regression with an RBF kernel, solved exactly by a blocked
Cholesky factorization. Training targets come from the label model:
covered records keep their scores, uncovered records take one constant
(default 0, i.e. treated as negative). The end model generalizes past
coverage because it scores features, not votes.

Memory: the fit holds only the lower triangle of the symmetric kernel
system, as ``BLOCK_ROWS``-row panels of at most N * (N + BLOCK_ROWS) / 2
float64 (150 MB at N = 6000), factored in place: each diagonal block
holds the inverse of its diagonal factor. A kernel block is built in the
array it is returned in, with one cache-sized chunk buffer. The residual
check rebuilds the panels one at a time instead of keeping a copy of the
system. Before allocating the panels, ``fit_krr`` refuses a fit that
needs more than ``MEMORY_BUDGET_FRACTION`` of the memory the operating
system reports available. Prediction scores the test rows in blocks of
``BLOCK_ROWS``, so it never holds an N_test x N_train kernel.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

# A dense fit may use at most this fraction of the available memory; the
# rest is left to the interpreter, the datasets and other processes.
MEMORY_BUDGET_FRACTION = 0.8
# Rows (or columns) per block in the kernel build, the factorization, the
# triangular solves and predict_krr. Each block temporary is at most
# BLOCK_ROWS x N float64.
BLOCK_ROWS = 256
# Doubles per row chunk of the kernel's elementwise passes (256 KiB), so
# that each chunk stays in cache from one pass to the next.
KERNEL_CHUNK_DOUBLES = 2**15
# Rows at which _lower_inverse stops halving and inverts directly.
INVERSE_BASE_ROWS = 32


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
    check_krr_settings(uncovered_target=uncovered_target)
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
    """exp(-gamma * squared distance) for every row pair. Refuses the
    features and the ``gamma`` that ``fit_krr`` refuses."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"feature widths differ ({x.shape[1]} vs {y.shape[1]})")
    _check_features(x)
    _check_features(y)
    check_krr_settings(gamma=gamma)
    return _kernel(x, y, gamma)


def _kernel(x: np.ndarray, y: np.ndarray, gamma: float) -> np.ndarray:
    """``rbf_kernel`` of checked 2-D float64 features, without the checks."""
    # ``x @ y.T`` is one call, into the array returned, so that numpy uses
    # the symmetric BLAS product when ``x is y``. The rest runs over row
    # chunks in cache, in the plain expression's order and rounding.
    kernel = x @ y.T
    x_sq, y_sq = (x * x).sum(axis=1), (y * y).sum(axis=1)
    step = max(1, KERNEL_CHUNK_DOUBLES // max(len(y), 1))
    buffer = np.empty((min(step, len(x)), len(y)))
    for start in range(0, len(x), step):
        chunk = kernel[start : start + step]
        sq = np.add.outer(x_sq[start : start + step], y_sq, out=buffer[: len(chunk)])
        chunk *= 2.0
        np.subtract(sq, chunk, out=chunk)
        np.maximum(chunk, 0.0, out=chunk)
        # A product beyond the float range saturates to -inf, a kernel value of 0.
        with np.errstate(over="ignore"):
            np.multiply(chunk, -gamma, out=chunk)
        np.exp(chunk, out=chunk)
    return kernel


def default_gamma(features: np.ndarray) -> float:
    """Median-free bandwidth heuristic: 1 / (F * var(features)).

    The variance is taken of the features scaled by a power of two, which
    is exact, so that the squares it sums cannot overflow. Refuses the
    features ``rbf_kernel`` refuses and a bandwidth that overflows."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    _check_features(features)
    return _default_gamma(features)


def _default_gamma(features: np.ndarray) -> float:
    """``default_gamma`` of checked 2-D float64 features, without the checks."""
    _, exponent = np.frexp(np.abs(features).max())
    var = float(np.ldexp(np.ldexp(features, -exponent).var(), 2 * exponent))
    if var <= 0.0:
        return 1.0
    gamma = 1.0 / (features.shape[1] * var)
    if not np.isfinite(gamma):
        raise ValueError(
            "the default gamma, 1 / (F * var(features)), overflows because the "
            "feature variance is too small; give gamma"
        )
    return gamma


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


def _check_targets(targets: np.ndarray) -> None:
    """Refuse finite targets whose squared norm could overflow float64.

    The residual check takes the norms of the N targets and of the
    residual; with every target at most ``sqrt(max / (4 N))`` in
    magnitude, the sum of their squares stays at most ``max / 4``."""
    limit = math.sqrt(np.finfo(np.float64).max / (4 * len(targets)))
    largest = max(float(targets.max()), -float(targets.min()))
    if largest > limit:
        raise ValueError(
            f"targets must be at most {limit:.3g} in magnitude at N = {len(targets)}, "
            f"or their squared norm overflows float64; got {largest:.3g}"
        )


def check_krr_settings(
    gamma: float | None = None,
    alpha: float | None = None,
    uncovered_target: float | None = None,
) -> None:
    """Raise ``ValueError`` for a ``gamma`` or ``alpha`` of ``fit_krr``, or
    an ``uncovered_target`` of ``make_targets``, out of range; a setting
    left as None is not checked."""
    if alpha is not None and not (np.isfinite(alpha) and alpha >= 0.0):
        raise ValueError("alpha must be finite and non-negative")
    if gamma is not None and not (np.isfinite(gamma) and gamma > 0.0):
        raise ValueError("gamma must be finite and positive")
    if uncovered_target is not None and not math.isfinite(uncovered_target):
        raise ValueError("uncovered_target must be finite")


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
    """Bytes an exact fit on ``n`` records holds at its peak: the lower
    triangle of the system as panels of b = min(n, ``BLOCK_ROWS``) rows,
    at most n * (n + b) / 2 doubles, each diagonal block holding the
    inverse of its diagonal factor, plus four b x b temporaries of the
    factorization, whose peak holds about three; the kernel build's
    chunk buffer is not priced."""
    b = min(n, BLOCK_ROWS)
    return 8 * (n * (n + b) // 2 + 4 * b * b)


def _ridge_panels(features: np.ndarray, gamma: float, alpha: float) -> Iterator[np.ndarray]:
    """The lower triangle of ``K + alpha * I`` as ``BLOCK_ROWS``-row panels,
    built one at a time: panel i holds block i's rows against the columns
    from 0 to the end of block i, its diagonal block in full."""
    for rows in _blocks(features.shape[0]):
        panel = _kernel(features[rows], features[: rows.stop], gamma)
        panel.flat[rows.start :: rows.stop + 1] += alpha
        yield panel


def _lower_inverse(factor: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix by recursive halving, so that
    most of its work is matrix products, down to blocks of at most
    ``INVERSE_BASE_ROWS`` rows, inverted directly."""
    if len(factor) <= INVERSE_BASE_ROWS:
        return np.tril(np.linalg.inv(factor))
    half = len(factor) // 2
    top = _lower_inverse(factor[:half, :half])
    bottom = _lower_inverse(factor[half:, half:])
    inverse = np.zeros_like(factor)
    inverse[:half, :half] = top
    inverse[half:, half:] = bottom
    inverse[half:, :half] = -(bottom @ factor[half:, :half] @ top)
    return inverse


def _factor_panels(panels: list[np.ndarray]) -> None:
    """Overwrite the panels of a symmetric positive-definite system with
    its Cholesky factor L, one block row at a time, except that each
    diagonal block holds the inverse of its diagonal factor L_jj, zero
    above its diagonal.

    Block (i, j) of L, for j < i, is the system's block less the product
    of the block rows i and j of L left of column block j, times the
    transposed inverse of L_jj. L_jj is the Cholesky factor of the
    system's block less its row of L times its transpose; no later step
    reads it but through its inverse. Raises ``np.linalg.LinAlgError``
    when a diagonal block is not positive definite.
    """
    # The last panel spans every column.
    for rows, panel in zip(_blocks(panels[-1].shape[1]), panels):
        for cols, done in zip(_blocks(rows.start), panels):
            block = panel[:, cols]
            block -= panel[:, : cols.start] @ done[:, : cols.start].T
            block[...] = block @ done[:, cols].T
        left = panel[:, : rows.start]
        panel[:, rows] = _lower_inverse(np.linalg.cholesky(panel[:, rows] - left @ left.T))


def _substitute(panels: list[np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """Solve L L^T x = rhs, with L in the panels as ``_factor_panels``
    leaves them, by forward and back substitution over the panels; each
    diagonal block holds the inverse of its diagonal factor."""
    x = rhs.copy()
    steps = list(zip(_blocks(len(rhs)), panels))
    for rows, panel in steps:
        x[rows] = panel[:, rows] @ (x[rows] - panel[:, : rows.start] @ x[: rows.start])
    for rows, panel in reversed(steps):
        x[rows] = panel[:, rows].T @ x[rows]
        x[: rows.start] -= panel[:, : rows.start].T @ x[rows]
    return x


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
    The fit holds the lower triangle of the system ``K + alpha * I`` as
    ``BLOCK_ROWS``-row panels, at most 4 * N * (N + ``BLOCK_ROWS``) bytes
    (150 MB at N = 6000), plus the factorization's temporaries
    (``fit_bytes``: 152 MB at N = 6000); each panel is built in place.
    Before allocating the panels, the fit compares that size with
    ``MEMORY_BUDGET_FRACTION`` of ``MemAvailable`` in ``/proc/meminfo``
    and raises ``ValueError`` naming N, the GiB needed and the GiB
    available when it does not fit. The check is skipped where that file
    cannot be read, and it does not see a cgroup memory limit, so a
    container may still be killed below it.

    Panel i holds block i's rows of the system up to the end of block i.
    A blocked Cholesky factorization (about N**3 / 3 flops) overwrites
    the panels with the factor L by block rows, each block left of the
    diagonal by two GEMMs, one by the inverse of an earlier diagonal
    factor, inverted by halving down to ``INVERSE_BASE_ROWS`` rows. Each
    diagonal block holds that inverse in place of the factor, and the
    substitutions reuse it. A diagonal block that is not positive
    definite means the system is singular. numpy's factorization does
    not check its input for NaN or inf, so non-finite
    features, targets, ``gamma`` or ``alpha`` are rejected here, and so
    are features large enough for their squared distances to overflow and
    targets larger in magnitude than ``sqrt(max / (4 N))``, with ``max``
    the largest float64, for which the residual check's norms overflow.
    The solve is verified against the system, its panels rebuilt one at a
    time once the factor is freed: the residual norm must not exceed
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
    _check_targets(targets)
    check_krr_settings(gamma, alpha)
    gamma = _default_gamma(features) if gamma is None else gamma
    n = features.shape[0]
    needed, available = fit_bytes(n), _available_memory_bytes()
    if available is not None and needed > MEMORY_BUDGET_FRACTION * available:
        raise ValueError(
            f"the exact kernel fit on N = {n} training records needs "
            f"{needed / 2**30:.2f} GiB (the lower triangle of the N x N float64 "
            f"kernel system), more than {MEMORY_BUDGET_FRACTION:.0%} of the "
            f"{available / 2**30:.2f} GiB of memory available; train on fewer records"
        )
    panels = list(_ridge_panels(features, gamma, alpha))
    remedy = "use alpha > 0" if alpha == 0.0 else "use a larger alpha"
    try:
        _factor_panels(panels)
    except np.linalg.LinAlgError:
        raise ValueError(f"the kernel system is numerically singular; {remedy}") from None
    coefficients = _substitute(panels, targets)
    del panels
    # The system is not kept: the check rebuilds its panels one at a time.
    product = np.zeros(n)
    for rows, panel in zip(_blocks(n), _ridge_panels(features, gamma, alpha)):
        product[rows] += panel @ coefficients[: rows.stop]
        product[: rows.start] += panel[:, : rows.start].T @ coefficients[rows]
    residual = float(np.linalg.norm(product - targets))
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
