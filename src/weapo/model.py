"""Positive-only label model: simplex-weighted vote aggregation.

The scorer is ``f(v) = v . theta`` with ``theta`` on the probability
simplex. Its convex objective has a squared-norm regularizer, hinge
penalties on the covering-order constraints, and (optionally) an absolute
deviation between the mean score and the known positive prior. Each
covering constraint compares ``u_low . theta`` with ``u_high . theta``,
where ``u_low - u_high`` lies in ``{0, -1}^M``; with ``theta >= 0`` every
one holds by construction, so the hinge term is identically zero. What
remains depends on the data only through the mean vote vector ``a``,
the weighted mean of the rows of the vote table ``VotePatterns``, and
``fit`` minimizes it exactly by a 1-D search over the dual variable of
the prior term.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from numbers import Real
from typing import Any, Sequence

import numpy as np

from .data import Dataset, Prior, VotePatterns, coverage_mask, record_scores, vote_patterns
from .payload import check_keys, json_object, json_scalars, numbers


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
        return {
            "theta": [float(x) for x in self.theta],
            "config": asdict(self.config),
            "diagnostics": json_scalars(self.diagnostics),
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

    def pattern_scores(self, patterns: VotePatterns) -> np.ndarray:
        """The score ``v . theta`` of each vote pattern v."""
        width = patterns.rows.shape[1]
        if width != self.num_lfs:
            raise ValueError(
                f"votes have {width} labeling functions, model expects {self.num_lfs}"
            )
        return patterns.rows.astype(np.float64) @ self.theta


def project_simplex(weights: Sequence[float]) -> np.ndarray:
    """Euclidean projection onto the probability simplex.

    Sort-based algorithm: find the largest support size whose shifted
    values stay positive, then clamp. O(M log M). Refuses weights of
    magnitude 2**53 or more, where the test ``u > u - 1`` of one fails,
    and weights large enough for the shift to round the result off the
    simplex (a sum off 1 by more than 1e-9).
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-D array")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if np.abs(w).max() >= 2.0**53:
        raise ValueError("weights must be less than 2**53 in magnitude")
    u = np.sort(w)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, w.size + 1)
    support = np.nonzero(u * ks > css - 1.0)[0][-1]
    tau = (css[support] - 1.0) / (support + 1.0)
    projection = np.maximum(w - tau, 0.0)
    if abs(projection.sum() - 1.0) > 1e-9:
        raise ValueError("weights too large in magnitude to project onto the simplex")
    return projection


def predict_dataset(model: WeapoModel, dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Scores for every record plus the coverage mask.

    Each distinct vote row is scored once and the scores are gathered
    back to the records. Uncovered records score exactly 0 since all
    their vote bits are 0.
    """
    return record_scores(model.pattern_scores, dataset), coverage_mask(dataset)


def _ratio_cap(a: np.ndarray) -> float:
    """The cap ``4/gap`` on ``w/lambda`` that ``_dual_search`` explains.

    ``gap`` is the smallest positive step of the sorted finite ``a``, the
    smallest spacing of its distinct entries; ``np.unique`` would give the
    same, but its first call imports ``numpy.ma``."""
    gaps = np.diff(np.sort(a))
    return 4.0 / float(gaps[gaps > 0.0].min(initial=1.0))


def _mean_votes_and_ratio(table: VotePatterns, cfg: WeapoConfig) -> tuple[np.ndarray, float]:
    """All that the fit reads of its data and settings: the weighted mean
    ``a`` of the table's rows and the ratio ``w/lambda`` (``inf`` at
    ``lambda`` = 0)."""
    mean_votes = (table.weights @ table.rows) / table.weights.sum()
    lam = float(cfg.lambda_reg)
    return mean_votes, float(cfg.prior_weight) / lam if lam else math.inf


def _prior_band(dataset: Dataset | VotePatterns, cfg: WeapoConfig) -> tuple[float, float]:
    """The priors ``[a.theta(+r/2), a.theta(-r/2)]`` that move theta.

    ``r`` is ``w/lambda`` capped as in ``_dual_search`` and
    ``theta(t) = project_simplex(-t*a)``; at the cap the band is
    ``[min a, max a]``. Every prior below the band fits the same theta,
    and so does every prior above it. Requires ``prior_weight > 0`` and a
    dataset ``fit`` accepts.
    """
    a, ratio = _mean_votes_and_ratio(vote_patterns(dataset), cfg)
    if ratio >= _ratio_cap(a):
        return float(a.min()), float(a.max())
    t = ratio / 2.0
    return float(a @ project_simplex(-t * a)), float(a @ project_simplex(t * a))


def _dual_search(a: np.ndarray, p: float, ratio: float) -> tuple[np.ndarray, int]:
    """Exact minimizer of ``|theta|^2 + ratio*|a.theta - p|`` on the simplex.

    Requires ``ratio > 0``; ``inf`` stands for a zero regularizer. Writing
    ``ratio*|d|`` as the maximum of ``2*t*d`` over ``|t| <= ratio/2``
    gives, for each dual value ``t``, the minimizer
    ``theta(t) = project_simplex(-t*a)``, and ``a.theta(t)`` does not
    increase as ``t`` grows. The optimum is ``theta(+ratio/2)`` when
    ``a.theta(+ratio/2) >= p``, ``theta(-ratio/2)`` when
    ``a.theta(-ratio/2) <= p``, and otherwise ``theta(t)`` at the root of
    ``a.theta(t) = p``. The root is bisected until no float lies between
    the bracket ends, and the end with the lower objective is kept.
    Returns theta and the number of projections made.

    Past ``t = 2/gap``, where ``gap`` is the smallest spacing between
    distinct entries of ``a`` (1 when they are all equal), ``theta(t)``
    is the uniform weight on the smallest entries of ``a``, and below
    ``-2/gap`` on the largest, so no ratio beyond ``4/gap`` changes theta.
    The ratio is capped there; at the cap a ``p`` outside
    ``(min a, max a)`` gets that face exactly, with no projection. The
    capped search is the minimum-norm minimizer of ``|a.theta - p|``, the
    limit of a vanishing regularizer.
    """
    cap = _ratio_cap(a)
    if ratio >= cap:
        if p <= a.min() or p >= a.max():
            face = a == (a.min() if p <= a.min() else a.max())
            return face / face.sum(), 0
        ratio = cap

    def theta_at(t: float) -> np.ndarray:
        return project_simplex(-t * a)

    def value(th: np.ndarray) -> float:
        return float(th @ th) + ratio * abs(float(a @ th) - p)

    lo, hi = -ratio / 2.0, ratio / 2.0
    theta_hi = theta_at(hi)
    if float(a @ theta_hi) >= p:
        return theta_hi, 1
    theta_lo = theta_at(lo)
    if float(a @ theta_lo) <= p:
        return theta_lo, 2
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
    dataset: Dataset | VotePatterns,
    prior: Prior | None = None,
    config: WeapoConfig | None = None,
) -> WeapoModel:
    """Fit aggregation weights exactly by a 1-D dual search.

    Parameters
    ----------
    dataset : Dataset or VotePatterns
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
    vote vector over all records. Divided by ``lam``, it depends on
    ``lam`` and ``w`` only through ``w/lam`` (``inf`` when ``lam`` is 0),
    which is all ``_dual_search`` takes; the reported terms use ``lam``
    and ``w``. Without the prior term (``use_prior`` off or
    ``prior_weight == 0``) the minimizer is the uniform vector. ``a`` is
    the weighted mean of the rows of the vote table (``dataset.patterns``
    for a dataset); ``num_slices`` counts its non-zero rows.
    """
    cfg = config if config is not None else WeapoConfig()
    if cfg.use_prior and prior is None:
        raise ValueError("config.use_prior is set but no prior was given")
    pats = vote_patterns(dataset)
    num_slices = int(pats.rows.any(axis=1).sum())
    if num_slices == 0:
        raise ValueError("dataset has no covered records")
    m = pats.rows.shape[1]
    mean_votes, ratio = _mean_votes_and_ratio(pats, cfg)
    if cfg.use_prior and cfg.prior_weight > 0.0:
        theta, projections = _dual_search(mean_votes, prior.p_plus, ratio)
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

