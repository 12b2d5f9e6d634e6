"""Positive-only label model: simplex-weighted vote aggregation.

The scorer is ``f(v) = v . theta`` with ``theta`` on the probability
simplex. Its convex objective has a squared-norm regularizer, hinge
penalties on the covering-order constraints, and (optionally) an absolute
deviation between the mean score and the known positive prior. Each
covering constraint compares ``u_low . theta`` with ``u_high . theta``,
where ``u_low - u_high`` lies in ``{0, -1}^M``; with ``theta >= 0`` every
one holds by construction, so the hinge term is identically zero. What
remains depends on the data only through the mean vote vector ``a``, and
``fit`` minimizes it exactly by a 1-D search over the dual variable of
the prior term.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from numbers import Real
from typing import Any, Sequence

import numpy as np

from .data import Dataset, Prior, VotePatterns, coverage_mask
from .payload import check_keys, json_object, numbers


@dataclass(frozen=True)
class WeapoConfig:
    """Objective settings.

    ``lambda_reg`` scales the squared-norm regularizer, ``prior_weight``
    the absolute prior-deviation term (used only when ``use_prior``). Both
    must be finite, non-negative real numbers and ``use_prior`` a bool;
    a bool is not accepted as a number.
    """

    lambda_reg: float = 1.0
    use_prior: bool = True
    prior_weight: float = 1.0

    def __post_init__(self) -> None:
        for name in ("lambda_reg", "prior_weight"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative")
        if not isinstance(self.use_prior, bool):
            raise ValueError(f"use_prior must be true or false, got {self.use_prior!r}")


@dataclass(frozen=True, eq=False)
class WeapoModel:
    """Fitted aggregation weights plus the config and fit diagnostics."""

    theta: np.ndarray
    config: WeapoConfig
    diagnostics: dict[str, Any] = field(default_factory=dict)

    @property
    def num_lfs(self) -> int:
        return int(self.theta.shape[0])

    def to_json_dict(self) -> dict[str, Any]:
        """JSON-ready payload; theta round-trips at full precision."""
        diag = {
            k: v
            for k, v in self.diagnostics.items()
            if isinstance(v, (int, float, bool, str))
        }
        return {
            "theta": [float(x) for x in self.theta],
            "config": asdict(self.config),
            "diagnostics": diag,
        }

    @classmethod
    def from_json_dict(cls, payload: dict[str, Any]) -> "WeapoModel":
        """Inverse of ``to_json_dict``.

        Rejects a key other than ``theta``, ``config`` and ``diagnostics``,
        unknown config keys, a theta entry that is not a JSON number, and a
        theta that is not a point of the probability simplex: not a
        non-empty flat list, not finite, with a negative entry, or summing
        to 1 only up to more than 1e-9.
        """
        check_keys(payload, "weapo model payload", ("theta", "config"), ("diagnostics",))
        theta = numbers(payload, "theta")
        check_keys(payload["config"], "weapo config", (), [f.name for f in fields(WeapoConfig)])
        if theta.ndim != 1 or theta.size == 0:
            raise ValueError("weapo theta must be a non-empty list of numbers")
        if not np.isfinite(theta).all() or (theta < 0.0).any():
            raise ValueError("weapo theta entries must be finite and non-negative")
        if abs(float(theta.sum()) - 1.0) > 1e-9:
            raise ValueError(f"weapo theta must sum to 1, got {float(theta.sum())!r}")
        return cls(
            theta=theta,
            config=WeapoConfig(**payload["config"]),
            diagnostics=json_object(payload, "diagnostics"),
        )


def project_simplex(weights: Sequence[float]) -> np.ndarray:
    """Euclidean projection onto the probability simplex.

    Sort-based algorithm: find the largest support size whose shifted
    values stay positive, then clamp. O(M log M).
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-D array")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    u = np.sort(w)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, w.size + 1)
    support = np.nonzero(u * ks > css - 1.0)[0][-1]
    tau = (css[support] - 1.0) / (support + 1.0)
    return np.maximum(w - tau, 0.0)


def _pattern_scores(model: WeapoModel, patterns: VotePatterns) -> np.ndarray:
    """The score ``v . theta`` of each vote pattern v."""
    return patterns.rows.astype(np.float64) @ model.theta


def predict_dataset(model: WeapoModel, dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Scores for every record plus the coverage mask.

    Each distinct vote row is scored once and the scores are gathered
    back to the records. Uncovered records score exactly 0 since all
    their vote bits are 0.
    """
    if dataset.num_lfs != model.num_lfs:
        raise ValueError(
            f"dataset has {dataset.num_lfs} labeling functions, model expects {model.num_lfs}"
        )
    pats = dataset.patterns
    return _pattern_scores(model, pats)[pats.inverse], coverage_mask(dataset)


def _dual_search(a: np.ndarray, p: float, lam: float, w: float) -> tuple[np.ndarray, int]:
    """Exact minimizer of ``lam*|theta|^2 + w*|a.theta - p|`` on the simplex.

    Requires ``w > 0``. Writing ``w*|r|`` as the maximum of ``mu*r`` over
    ``|mu| <= w`` gives, for each dual value ``mu``, the minimizer
    ``theta(mu) = project_simplex(-mu*a/(2*lam))``, and ``a.theta(mu)``
    does not increase as ``mu`` grows. The optimum is ``theta(+w)`` when
    ``a.theta(+w) >= p``, ``theta(-w)`` when ``a.theta(-w) <= p``, and
    otherwise ``theta(mu)`` at the root of ``a.theta(mu) = p``. The root
    is bisected until no float lies between the bracket ends, and the end
    with the lower objective is kept. Returns theta and the number of
    projections made.

    ``lam == 0`` returns the minimum-norm minimizer, the ``lam -> 0+``
    limit. When ``p`` lies outside ``[min a, max a]`` that is the uniform
    weight on the entries of ``a`` nearest ``p``. Otherwise it is the
    minimizer of ``|theta|^2 + w'*|a.theta - p|`` for any ``w'`` above the
    dual value of the constraint ``a.theta = p``. That dual value is below
    ``2 / gap`` in size, where ``gap`` is the smallest spacing between
    distinct entries of ``a``: beyond it ``theta(mu)`` sits on the face of
    the smallest (or largest) entries, whose mean score misses ``p``.
    """
    if lam == 0.0:
        if p <= a.min() or p >= a.max():
            face = a == (a.min() if p <= a.min() else a.max())
            return face / face.sum(), 0
        lam, w = 1.0, 4.0 / float(np.diff(np.unique(a)).min())

    def theta_at(mu: float) -> np.ndarray:
        return project_simplex((-mu / (2.0 * lam)) * a)

    def value(th: np.ndarray) -> float:
        return lam * float(th @ th) + w * abs(float(a @ th) - p)

    theta_hi = theta_at(w)
    if float(a @ theta_hi) >= p:
        return theta_hi, 1
    theta_lo = theta_at(-w)
    if float(a @ theta_lo) <= p:
        return theta_lo, 2
    lo, hi = -w, w
    projections = 2
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        theta_mid = theta_at(mid)
        projections += 1
        if float(a @ theta_mid) >= p:
            lo, theta_lo = mid, theta_mid
        else:
            hi, theta_hi = mid, theta_mid
    if value(theta_hi) < value(theta_lo):
        return theta_hi, projections
    return theta_lo, projections


def fit(
    dataset: Dataset,
    prior: Prior | None = None,
    config: WeapoConfig | None = None,
) -> WeapoModel:
    """Fit aggregation weights exactly by a 1-D dual search.

    Parameters
    ----------
    dataset : Dataset
        Must contain at least one covered record. Gold labels are ignored.
    prior : Prior, optional
        Required when ``config.use_prior`` is set.
    config : WeapoConfig, optional

    Returns
    -------
    WeapoModel
        The exact minimizer. ``diagnostics`` carries the objective with
        its per-term breakdown, the number of simplex projections made
        (``iterations``), ``converged`` (always true), and the number of
        distinct covered vote vectors (``num_slices``).

    Notes
    -----
    Deterministic: identical inputs produce bitwise-identical theta. On
    the simplex the hinge term is identically zero, so the objective
    reduces to ``lam*|theta|^2 + w*|a.theta - p|`` with ``a`` the mean
    vote vector over all records, which ``_dual_search`` minimizes. Without
    the prior term (``use_prior`` off or ``prior_weight == 0``) the
    minimizer is the uniform vector. ``a`` is the count-weighted mean of
    the rows of ``dataset.patterns``; ``num_slices`` counts its non-zero rows.
    """
    cfg = config if config is not None else WeapoConfig()
    if cfg.use_prior and prior is None:
        raise ValueError("config.use_prior is set but no prior was given")
    pats = dataset.patterns
    num_slices = int(pats.rows.any(axis=1).sum())
    if num_slices == 0:
        raise ValueError("dataset has no covered records")
    m = dataset.num_lfs
    mean_votes = (pats.counts @ pats.rows) / len(dataset)
    if cfg.use_prior and cfg.prior_weight > 0.0:
        theta, projections = _dual_search(
            mean_votes, prior.p_plus, cfg.lambda_reg, cfg.prior_weight
        )
    else:
        theta, projections = np.full(m, 1.0 / m, dtype=np.float64), 0
    reg = cfg.lambda_reg * float(theta @ theta)
    prior_dev = abs(float(mean_votes @ theta) - prior.p_plus) if cfg.use_prior else 0.0
    diagnostics: dict[str, Any] = {
        "objective": reg + cfg.prior_weight * prior_dev,
        "reg": reg,
        "hinge": 0.0,
        "prior": prior_dev,
        "iterations": projections,
        "converged": True,
        "num_slices": num_slices,
    }
    return WeapoModel(theta=theta, config=cfg, diagnostics=diagnostics)


def fit_supervised(dataset: Dataset, config: WeapoConfig | None = None) -> WeapoModel:
    """Least-squares fit of the same simplex scorer against gold labels.

    Minimizes the mean squared error between covered-record scores and
    gold targets mapped to {0, 1}, over the probability simplex, by
    projected gradient descent with a fixed ``1/L`` step. Serves as the
    fully supervised skyline for the same model class. Stops once the
    gradient mapping norm is at most 1e-6 or after 5000 steps.
    """
    cfg = config if config is not None else WeapoConfig()
    mask = coverage_mask(dataset).astype(bool)
    if not mask.any():
        raise ValueError("dataset has no covered records")
    missing = mask & (dataset.gold == 0)
    if missing.any():
        raise ValueError(f"covered record {dataset.ids[missing.argmax()]!r} has no gold label")
    votes = dataset.votes_matrix[mask].astype(np.float64)
    gold = dataset.gold[mask].astype(np.float64)
    targets = (gold + 1.0) / 2.0
    n = votes.shape[0]
    gram = (2.0 / n) * (votes.T @ votes)
    linear = (2.0 / n) * (votes.T @ targets)
    lipschitz = float(np.linalg.eigvalsh(gram)[-1])
    step = 1.0 / lipschitz
    m = dataset.num_lfs
    theta = np.full(m, 1.0 / m, dtype=np.float64)
    grad_map_norm = np.inf
    iterations = 0
    for t in range(1, 5001):
        iterations = t
        grad = gram @ theta - linear
        theta_next = project_simplex(theta - step * grad)
        grad_map_norm = float(np.linalg.norm(theta - theta_next) / step)
        theta = theta_next
        if grad_map_norm <= 1e-6:
            break
    residual = votes @ theta - targets
    diagnostics = {
        "mse": float(residual @ residual / n),
        "grad_map_norm": grad_map_norm,
        "iterations": iterations,
        "converged": grad_map_norm <= 1e-6,
    }
    return WeapoModel(theta=theta, config=cfg, diagnostics=diagnostics)
