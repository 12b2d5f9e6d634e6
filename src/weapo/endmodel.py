"""Feature-space end model trained on label-model scores.

Kernel ridge regression with an RBF kernel, solved exactly by a dense LU
solve. Training targets come from the label model: covered records keep
their scores, uncovered records take one constant (default 0, i.e.
treated as negative). The end model generalizes past coverage because it
scores features, not votes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
    sq = (
        (x * x).sum(axis=1)[:, None]
        + (y * y).sum(axis=1)[None, :]
        - 2.0 * (x @ y.T)
    )
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-gamma * sq)


def default_gamma(features: np.ndarray) -> float:
    """Median-free bandwidth heuristic: 1 / (F * var(features))."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    var = float(features.var())
    if var <= 0.0:
        return 1.0
    return 1.0 / (features.shape[1] * var)


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
    kernel = rbf_kernel(features, features, gamma)
    system = kernel + alpha * np.eye(features.shape[0])
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
    """Kernel expansion over the support points."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if features.shape[1] != model.support.shape[1]:
        raise ValueError(
            f"features have width {features.shape[1]}, "
            f"model expects {model.support.shape[1]}"
        )
    return rbf_kernel(features, model.support, model.gamma) @ model.coefficients
