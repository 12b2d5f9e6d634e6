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
``fit`` minimizes it in closed form: the mean score along the dual path
of the prior term is piecewise linear, so its root is one division, and
theta is read off the piece that holds it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field, fields
from numbers import Real
from typing import Any

import numpy as np

from .data import (Dataset, Prior, VotePatterns, _check_width, _weighted, coverage_mask,
                   record_scores, vote_patterns)
from .payload import check_keys, json_object, json_scalars, numbers


@dataclass(frozen=True)
class WeapoConfig:
    """Objective settings.

    ``lambda_reg`` scales the squared-norm regularizer against the
    absolute prior-deviation term, whose weight is 1; ``use_prior`` turns
    that term on. ``lambda_reg`` must be a finite, non-negative real
    number and ``use_prior`` a bool; a bool is not accepted as a number.
    """

    lambda_reg: float = 1.0
    use_prior: bool = True

    def __post_init__(self) -> None:
        lam = self.lambda_reg
        if isinstance(lam, bool) or not isinstance(lam, Real):
            raise ValueError(f"lambda_reg must be a number, got {lam!r}")
        if not 0.0 <= lam <= sys.float_info.max:  # an int past the float range too
            raise ValueError("lambda_reg must be finite and non-negative")
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
        _check_width(patterns, self.num_lfs)
        return patterns.rows.astype(np.float64) @ self.theta


def predict_dataset(model: WeapoModel, dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Scores for every record plus the boolean coverage mask.

    Each distinct vote row is scored once and the scores are gathered
    back to the records. Uncovered records score exactly 0 since all
    their vote bits are 0.
    """
    return record_scores(model.pattern_scores, dataset), coverage_mask(dataset)


def _mean_votes_and_ratio(table: VotePatterns, cfg: WeapoConfig) -> tuple[np.ndarray, float]:
    """All that the fit reads of its data and settings: the weighted mean
    ``a`` of the rows of the table, read through ``data._weighted``, and
    the ratio ``1/lambda`` (``inf`` at ``lambda`` = 0)."""
    table, n = _weighted(table)
    mean_votes = (table.weights @ table.rows) / n
    lam = float(cfg.lambda_reg)
    return mean_votes, 1.0 / lam if lam else math.inf


def _prior_band(dataset: Dataset | VotePatterns, cfg: WeapoConfig) -> tuple[float, float]:
    """The priors ``[a.theta(+r/2), a.theta(-r/2)]`` that move theta.

    ``r`` is ``1/lambda`` and ``theta(t)`` the minimizer at the dual value
    t, whose mean scores ``_descent`` gives in closed form; from the last
    finite breakpoint on, a band end is ``min a`` or ``max a`` exactly.
    Every prior below the band fits the same theta, and so does every
    prior above it. Requires a dataset ``fit`` accepts.
    """
    a, ratio = _mean_votes_and_ratio(vote_patterns(dataset), cfg)
    # A target of -inf lies below every mean score, so only g(r/2) is asked.
    low, _ = _descent(a, -math.inf, ratio / 2.0)
    high, _ = _descent(-a, -math.inf, ratio / 2.0)
    return low, -high


def _descent(b: np.ndarray, q: float, t_max: float) -> tuple[float, tuple | None]:
    """Where ``g(t) = b.theta(t)`` meets ``q`` on ``[0, t_max]``, with
    ``theta(t)`` the Euclidean projection of ``-t*b`` onto the simplex.

    ``t_max`` may be ``inf``. With b sorted, the support of theta(t) is
    its k smallest entries, where ``theta_j = 1/k + t*(m_k - b_j)`` and
    ``g(t) = m_k - t*v_k``: ``m_k`` is their mean and ``v_k`` k times
    their variance, summed from the deviations. The k-th entry leaves the
    support at the breakpoint ``t_k = 1/sum_{i<=k}(b_(k) - b_(i))``, so
    equal entries leave together, and g falls piecewise linearly from
    ``mean(b)`` to ``min b`` at the last finite breakpoint, past which
    theta is the uniform weight on the entries equal to ``min b`` (Duchi
    et al., ICML 2008).

    Returns ``g(t_max)``, never below ``min b``, and the minimizer's piece
    ``(t, k, m_k)``: t is ``t_max`` when ``q <= g(t_max)``, else
    ``(m_k - q)/v_k`` on the piece that brackets q. At the face, past the
    last breakpoint with ``q <= g(t_max)`` or with all entries equal, the
    piece is None.
    """
    s = np.sort(b)
    k = np.arange(1.0, s.size + 1.0)
    mean = np.cumsum(s) / k
    kvar = np.square(np.tril(s - mean[:, None])).sum(axis=1)
    with np.errstate(divide="ignore"):
        breaks = 1.0 / np.tril(s[:, None] - s).sum(axis=1)
    tied = int(np.isinf(breaks).sum())
    if tied == s.size or t_max >= breaks[tied]:
        end, at_end = float(s[0]), None
    else:
        j = int((breaks > t_max).sum()) - 1
        end = max(float(mean[j] - t_max * kvar[j]), float(s[0]))
        at_end = t_max, j + 1, float(mean[j])
    if q <= end or tied == s.size:
        return end, at_end
    tops = mean[tied:] - np.append(breaks[tied + 1 :], 0.0) * kvar[tied:]
    j = tied + min(int(np.searchsorted(tops, q)), tops.size - 1)
    return end, (min(float((mean[j] - q) / kvar[j]), t_max), j + 1, float(mean[j]))


def _closed_form(a: np.ndarray, p: float, ratio: float) -> tuple[np.ndarray, int]:
    """Exact minimizer of ``|theta|^2 + ratio*|a.theta - p|`` on the simplex.

    Requires ``ratio > 0``; ``inf`` stands for a zero regularizer. Writing
    ``ratio*|d|`` as the maximum of ``2*t*d`` over ``|t| <= ratio/2``
    gives, for each dual value ``t``, the minimizer ``theta(t)`` of
    ``_descent``, and the optimum is ``theta(t)`` at the root of
    ``a.theta(t) = p`` clamped to ``|t| <= ratio/2``, read off its piece.
    A prior above the mean of a needs ``t < 0``: the mirror case of ``-a``
    and ``-p``. At a face, a ``p`` outside ``(min a, max a)`` gets the
    uniform weight on the entries of a nearest it exactly: the
    minimum-norm minimizer of ``|a.theta - p|``. Returns theta and the
    number of pieces read, 0 or 1. Where two entries of a differ by about
    1e-9 or less and t lies near the last breakpoint, t magnifies the
    rounding of ``m_k - a_j``: a theta whose sum is off 1 by more than
    1e-9 is refused.
    """
    side = 1.0 if p <= a.mean() else -1.0
    _, piece = _descent(side * a, side * p, ratio / 2.0)
    if piece is None:
        face = a == (a.min() if side > 0 else a.max())
        return face / face.sum(), 0
    t, k, mean = piece
    theta = np.maximum(1.0 / k + t * (mean - side * a), 0.0)
    if not abs(float(theta.sum()) - 1.0) <= 1e-9:
        raise ValueError(f"weapo theta sums to {float(theta.sum())!r}, not 1: firing rates "
                         "within about 1e-9 of each other; use a larger lambda_reg")
    return theta, 1


def fit(
    dataset: Dataset | VotePatterns,
    prior: Prior | None = None,
    config: WeapoConfig | None = None,
) -> WeapoModel:
    """Fit aggregation weights exactly, in closed form.

    Parameters
    ----------
    dataset : Dataset or VotePatterns
        Must contain at least one covered record; its vote table's total
        weight must be positive and finite. Gold labels are ignored.
    prior : Prior, optional
        Required when ``config.use_prior`` is set.
    config : WeapoConfig, optional

    Returns
    -------
    WeapoModel
        The exact minimizer. ``diagnostics`` carries the objective with
        its per-term breakdown (``hinge`` is always 0.0), the number of
        pieces of the dual path theta was read off (``iterations``: 0 at
        a face of the simplex or without the prior term, else 1),
        ``converged`` (always true), and the number of distinct covered
        vote vectors (``num_slices``). Raises ``ValueError`` when firing
        rates too close to resolve would give a theta off the simplex.

    Notes
    -----
    Deterministic: identical inputs produce bitwise-identical theta. On
    the simplex the hinge term is identically zero, so the objective
    reduces to ``lam*|theta|^2 + |a.theta - p|`` with ``a`` the mean
    vote vector over all records. Divided by ``lam``, it is
    ``|theta|^2 + (1/lam)*|a.theta - p|`` (``1/lam`` is ``inf`` when
    ``lam`` is 0), and that ratio is all ``_closed_form`` takes; the
    reported terms use ``lam``. Without the prior term (``use_prior``
    off) the minimizer is the uniform vector. ``a`` is the weighted mean
    of the rows of the vote table (``dataset.patterns`` for a dataset);
    ``num_slices`` counts its non-zero rows.
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
    if cfg.use_prior:
        theta, projections = _closed_form(mean_votes, prior.p_plus, ratio)
    else:
        theta, projections = np.full(m, 1.0 / m, dtype=np.float64), 0
    reg = cfg.lambda_reg * float(theta @ theta)
    prior_dev = abs(float(mean_votes @ theta) - prior.p_plus) if cfg.use_prior else 0.0
    diagnostics: dict[str, Any] = {
        "objective": reg + prior_dev,
        "reg": reg,
        "hinge": 0.0,
        "prior": prior_dev,
        "iterations": projections,
        "converged": True,
        "num_slices": num_slices,
    }
    return WeapoModel(theta=theta, config=cfg, diagnostics=diagnostics)

