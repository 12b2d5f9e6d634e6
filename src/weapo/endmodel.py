"""Feature-space end model trained on label-model scores.

Kernel ridge regression with an RBF kernel, solved exactly by a dense LU
solve. Training targets come from the label model: covered records keep
their scores, uncovered records take one constant (default 0, i.e.
treated as negative). The end model generalizes past coverage because it
scores features, not votes.

Memory: the fit holds two dense N x N float64 arrays, 16 * N**2 bytes
(576 MB at N = 6000): the kernel system, built in place, and the copy
that ``np.linalg.solve`` factors. Before allocating them, ``fit_krr``
refuses a fit that needs more than ``MEMORY_BUDGET_FRACTION`` of the
memory the operating system reports available. Prediction scores the
test rows in blocks of ``PREDICT_CHUNK_ROWS``, so it never holds an
N_test x N_train kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A dense fit may use at most this fraction of the available memory; the
# rest is left to the interpreter, the datasets and other processes.
MEMORY_BUDGET_FRACTION = 0.8
# Test rows scored per block in predict_krr. Building a block's kernel
# holds two PREDICT_CHUNK_ROWS x N_train float64 arrays.
PREDICT_CHUNK_ROWS = 1024


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
    """exp(-gamma * squared distance) for every row pair."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"feature widths differ ({x.shape[1]} vs {y.shape[1]})")
    # Built in place: at most this array and one cross-product array of
    # the same shape are alive at once. ``x @ y.T`` stays one call so that
    # numpy uses the symmetric BLAS product when ``x is y``.
    sq = np.add.outer((x * x).sum(axis=1), (y * y).sum(axis=1))
    cross = x @ y.T
    cross *= 2.0
    np.subtract(sq, cross, out=sq)
    del cross
    np.maximum(sq, 0.0, out=sq)
    np.multiply(sq, -gamma, out=sq)
    np.exp(sq, out=sq)
    return sq


def default_gamma(features: np.ndarray) -> float:
    """Median-free bandwidth heuristic: 1 / (F * var(features))."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    var = float(features.var())
    if var <= 0.0:
        return 1.0
    return 1.0 / (features.shape[1] * var)


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


def fit_krr(
    features: np.ndarray,
    targets: np.ndarray,
    gamma: float | None = None,
    alpha: float = 1.0,
) -> KRRModel:
    """Solve (K + alpha * I) c = targets with a dense LU solve.

    Parameters
    ----------
    features : (N, F) array
    targets : (N,) array
    gamma : float, optional
        RBF bandwidth; defaults to ``1 / (F * var(features))``.
    alpha : float
        Ridge strength. ``alpha = 0`` requests exact interpolation and
        fails with a clear error when the kernel matrix is singular
        (duplicate points).

    Notes
    -----
    The fit holds two dense N x N float64 arrays, 16 * N**2 bytes (576 MB
    at N = 6000): the system ``K + alpha * I``, built in place, and the
    copy that ``np.linalg.solve`` factors. Before allocating them, the fit
    compares that size with ``MEMORY_BUDGET_FRACTION`` of ``MemAvailable``
    in ``/proc/meminfo`` and raises ``ValueError`` naming N, the GiB
    needed and the GiB available when it does not fit. The check is
    skipped where that file cannot be read, and it does not see a cgroup
    memory limit, so a container may still be killed below it.

    The system is symmetric positive semi-definite, so a Cholesky
    factorization would do, but numpy has no triangular solve to apply
    one. ``np.linalg.solve`` (LU with partial pivoting) is exact too, at
    about twice the flops, and keeps the package numpy-only. It does not
    check its input for NaN or inf, so non-finite features, targets,
    ``gamma`` or ``alpha`` are rejected here. The solve is verified: the
    residual norm must not exceed ``1e-8 * (1 + ||targets||)``.
    """
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    targets = np.asarray(targets, dtype=np.float64)
    if features.shape[0] != targets.shape[0] or targets.ndim != 1:
        raise ValueError("features and targets must have matching first dimension")
    if features.shape[0] == 0:
        raise ValueError("cannot fit on an empty training set")
    if not (np.isfinite(features).all() and np.isfinite(targets).all()):
        raise ValueError("features and targets must be finite")
    if not (np.isfinite(alpha) and alpha >= 0.0):
        raise ValueError("alpha must be finite and non-negative")
    if gamma is None:
        gamma = default_gamma(features)
    if not (np.isfinite(gamma) and gamma > 0.0):
        raise ValueError("gamma must be finite and positive")
    n = features.shape[0]
    needed, available = 16 * n * n, _available_memory_bytes()
    if available is not None and needed > MEMORY_BUDGET_FRACTION * available:
        raise ValueError(
            f"the exact kernel fit on N = {n} training records needs "
            f"{needed / 2**30:.2f} GiB (two N x N float64 arrays), more than "
            f"{MEMORY_BUDGET_FRACTION:.0%} of the {available / 2**30:.2f} GiB "
            "of memory available; train on fewer records"
        )
    system = rbf_kernel(features, features, gamma)
    system.flat[:: n + 1] += alpha
    try:
        coefficients = np.linalg.solve(system, targets)
    except np.linalg.LinAlgError:
        raise ValueError(
            "kernel system is singular; alpha = 0 requires distinct points"
        ) from None
    residual = float(np.linalg.norm(system @ coefficients - targets))
    # Written so that a NaN residual fails too.
    if not residual <= 1e-8 * (1.0 + float(np.linalg.norm(targets))):
        raise ValueError(
            f"kernel solve residual {residual:.3e} too large; "
            "the system is numerically singular"
        )
    return KRRModel(
        support=features.copy(),
        coefficients=coefficients,
        gamma=float(gamma),
        alpha=float(alpha),
    )


def predict_krr(model: KRRModel, features: np.ndarray) -> np.ndarray:
    """Kernel expansion over the support points, ``PREDICT_CHUNK_ROWS``
    test rows at a time."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if features.shape[1] != model.support.shape[1]:
        raise ValueError(
            f"features have width {features.shape[1]}, "
            f"model expects {model.support.shape[1]}"
        )
    predictions = np.empty(features.shape[0])
    for start in range(0, features.shape[0], PREDICT_CHUNK_ROWS):
        stop = start + PREDICT_CHUNK_ROWS
        # One expression, so each block's kernel is freed before the next.
        predictions[start:stop] = (
            rbf_kernel(features[start:stop], model.support, model.gamma)
            @ model.coefficients
        )
    return predictions
