"""Baseline label models over signed votes.

Positive-only votes carry no explicit negative evidence, so every
baseline here first maps abstains to negative votes: 0 -> -1, 1 -> +1.
Majority vote scores by the fraction of firing functions; Dawid-Skene
fits per-function confusion matrices by EM under a naive-Bayes model;
the triplet method recovers mean accuracies E[vote * y] from second
moments in closed form. Each sees a record only through its vote
pattern, so the fits and posterior functions take a ``VotePatterns``
table, a ``Dataset``, whose table they read, or a signed (N, M) array,
which ``data.vote_patterns`` checks and compresses.

Dawid-Skene, the triplet method and the Bayes oracle of ``synth`` share
one naive-Bayes scorer: each function fires at one rate given y = +1 and
another given y = -1. The triplet model is the symmetric channel with
rates (1 + a_j) / 2 and (1 - a_j) / 2; the oracle uses the generating
law's ``tpr`` and ``fpr``. The scorer checks the width and names a vote
vector of zero probability. Each model scores each vote pattern once
(``_mv_patterns``, ``DSModel.pattern_scores``, ``FSModel.pattern_scores``);
``data.record_scores`` gathers those scores to every record.

The defaults of the fitting settings live in the fit signatures alone
(the triplet method's shared clip in ``FS_EPS_CLIP``), and their range
checks in ``check_ds_settings`` and ``check_fs_settings``, which the
fits and the CLI both call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral
from typing import Any

import numpy as np

from .data import Dataset, Prior, VotePatterns, _check_width, _weighted, record_scores
from .payload import check_keys, json_object, json_scalars, numbers

SignedVotes = np.ndarray
"""(N, M) array over {-1, +1}; produced by ``convert_abstain``."""

# The triplet method's default clip: it discards denominator moments of at
# most this size and keeps estimates this far below accuracy 1.
FS_EPS_CLIP = 1e-4


def convert_abstain(dataset: Dataset) -> SignedVotes:
    """Map vote bits to signed votes, treating abstain as negative."""
    return (2 * dataset.votes_matrix.astype(np.int8) - 1).astype(np.int8)


def _mv_patterns(patterns: VotePatterns) -> np.ndarray:
    """The majority-vote score of each vote pattern: its fraction of firing."""
    return patterns.rows.astype(np.float64).mean(axis=1)


def mv_scores(dataset: Dataset) -> np.ndarray:
    """Majority-vote scores for every record, computed once per vote pattern."""
    return record_scores(_mv_patterns, dataset)


@dataclass(frozen=True, eq=False)
class DSModel:
    """Naive-Bayes vote model: class prior plus per-function confusion.

    ``confusion`` has shape (M, 2, 2) indexed ``[j, c, o]`` with class
    index c and vote index o mapping 0 -> -1 and 1 -> +1, so
    ``confusion[j, 1, 1]`` is P(vote_j = +1 | y = +1). Rows over o sum
    to 1.
    """

    class_prior: float
    confusion: np.ndarray
    diagnostics: dict[str, Any] = field(default_factory=dict)

    @property
    def num_lfs(self) -> int:
        return int(self.confusion.shape[0])

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "class_prior": float(self.class_prior),
            "confusion": [[list(map(float, row)) for row in mat] for mat in self.confusion],
            "diagnostics": json_scalars(self.diagnostics),
        }

    @classmethod
    def from_json_dict(cls, payload: dict[str, Any]) -> "DSModel":
        """Inverse of ``to_json_dict``. Rejects a key other than
        ``class_prior``, ``confusion`` and ``diagnostics``, a value that is
        not a JSON number, a class prior outside (0, 1), and confusions
        that are not (M, 2, 2) with entries in [0, 1] and rows over the
        vote index summing to 1 within 1e-9."""
        prior, confusion = _read_payload(payload, "ds", "confusion", ("diagnostics",))
        if confusion.ndim != 3 or confusion.shape[0] == 0 or confusion.shape[1:] != (2, 2):
            raise ValueError(f"ds confusion must have shape (M, 2, 2), got {confusion.shape}")
        if not ((confusion >= 0.0) & (confusion <= 1.0)).all():
            raise ValueError("ds confusion entries must lie in [0, 1]")
        if not (np.abs(confusion.sum(axis=2) - 1.0) <= 1e-9).all():
            raise ValueError("ds confusion rows must sum to 1 within 1e-9")
        return cls(
            class_prior=prior,
            confusion=confusion,
            diagnostics=json_object(payload, "diagnostics"),
        )

    def pattern_scores(self, patterns: VotePatterns) -> np.ndarray:
        """P(y = +1 | v) for each vote pattern v under the fitted naive-Bayes model."""
        conf = self.confusion
        return _naive_bayes_posteriors(patterns, self.class_prior, conf[:, 1, 1], conf[:, 0, 1])


def _read_payload(
    payload: dict[str, Any], kind: str, array_key: str, optional: tuple[str, ...] = ()
) -> tuple[float, np.ndarray]:
    """The class prior, checked to lie in (0, 1), and the parameter array
    of a serialized model."""
    check_keys(payload, f"{kind} model payload", ("class_prior", array_key), optional)
    prior = float(numbers(payload, "class_prior", ndim=0))
    if not 0.0 < prior < 1.0:
        raise ValueError(
            f"{kind} class_prior must lie strictly in (0, 1), got {payload['class_prior']!r}"
        )
    return prior, numbers(payload, array_key)


def _class_log_likelihoods(
    rows: np.ndarray, pi: float, pos_fire: np.ndarray, neg_fire: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``log P(v, y = +1)`` and ``log P(v, y = -1)`` for each 0/1 pattern row.

    A function fires at rate ``pos_fire[j]`` given y = +1 and
    ``neg_fire[j]`` given y = -1. A rate of exactly 0 or 1 makes the
    patterns it rules out score ``-inf`` rather than NaN.
    """
    fired = rows.astype(bool)
    with np.errstate(divide="ignore"):
        lp = np.where(fired, np.log(pos_fire), np.log1p(-pos_fire)).sum(axis=1)
        ln = np.where(fired, np.log(neg_fire), np.log1p(-neg_fire)).sum(axis=1)
    return math.log(pi) + lp, math.log1p(-pi) + ln


def _posterior(lp: np.ndarray, ln: np.ndarray) -> np.ndarray:
    """P(y = +1 | v), the logistic of ``lp - ln``; it saturates to exactly
    0.0 where ``exp`` overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(ln - lp))


def check_ds_settings(
    max_iters: int | None = None, tol: float | None = None, smoothing: float | None = None
) -> None:
    """Raise ``ValueError`` naming a ``ds_fit`` setting out of range; a
    setting left as None is not checked."""
    if smoothing is not None and not (math.isfinite(smoothing) and smoothing >= 0):
        raise ValueError(f"smoothing must be finite and non-negative, got {smoothing!r}")
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    if max_iters is not None and (
        isinstance(max_iters, bool) or not isinstance(max_iters, Integral) or max_iters < 1
    ):
        raise ValueError(f"max_iters must be an integer of at least 1, got {max_iters!r}")


def ds_fit(
    votes: Dataset | VotePatterns | SignedVotes,
    init_prior: Prior = Prior(0.5),
    max_iters: int = 1000,
    tol: float = 1e-6,
    smoothing: float = 1.0,
) -> DSModel:
    """Fit the Dawid-Skene model by EM.

    Parameters
    ----------
    votes : VotePatterns, Dataset or (N, M) array over {-1, +1}
    init_prior : Prior
        Initial class prior; EM updates it along with the confusions.
    max_iters, tol : int, float
        EM stops when the objective improves by less than ``tol`` or
        after ``max_iters`` iterations. ``max_iters`` must be an integer
        of at least 1 and ``tol`` finite and non-negative. The objective
        sums over records, so ``tol`` scales with the total weight.
    smoothing : float
        Add-``smoothing`` Laplace counts in every re-estimation, which
        makes the fit the MAP under Beta(1 + smoothing, 1 + smoothing)
        priors; it must be finite and non-negative. The recorded
        objective history includes the matching log-prior terms and is
        therefore non-decreasing. A smoothing so large that ``n +
        2 * smoothing`` or the starting objective overflows float64 is
        refused before any EM step.

    Notes
    -----
    Records with the same votes share one responsibility, so EM runs
    over the table's rows, in key order, each with its weight. EM starts
    from majority vote: responsibilities start at the mean of the
    per-record positive-vote fraction and the prior, and the first
    parameter estimate is one M-step from there. After convergence the
    classes are canonicalized so the one with the larger
    posterior-weighted mean signed vote is +1; when the two are within
    1e-9, a tie the votes cannot break, the minority class is +1.
    """
    pats, n = _weighted(votes)
    check_ds_settings(max_iters, tol, smoothing)
    overflow = f"smoothing {smoothing!r} is too large: the Dawid-Skene objective overflows"
    if not math.isfinite(n + 2.0 * smoothing):
        raise ValueError(overflow)
    v01 = pats.rows.astype(np.float64)
    weights = pats.weights

    def m_step(resp: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        # Exact ratios of counts stay in [0, 1]; the clip only removes
        # one-ulp float overshoot that would poison the log terms.
        pos_weight = weights * resp
        total_pos = pos_weight.sum()
        pos_fire = np.clip(
            (v01.T @ pos_weight + smoothing) / (total_pos + 2.0 * smoothing), 0.0, 1.0
        )
        neg_fire = np.clip(
            (v01.T @ (weights * (1.0 - resp)) + smoothing) / (n - total_pos + 2.0 * smoothing),
            0.0, 1.0,
        )
        pi = min(max((total_pos + smoothing) / (n + 2.0 * smoothing), 0.0), 1.0)
        return float(pi), pos_fire, neg_fire

    resp0 = 0.5 * v01.mean(axis=1) + 0.5 * init_prior.p_plus
    pi, pos_fire, neg_fire = m_step(resp0)

    def objective_at(pi, pos_fire, neg_fire):
        # Penalized objective plus the per-pattern class log-likelihoods.
        # math.fsum keeps the recorded history monotone down to rounding
        # of the final digit rather than of the accumulated sum.
        lp, ln = _class_log_likelihoods(v01, pi, pos_fire, neg_fire)
        data_term = math.fsum(weights * np.logaddexp(lp, ln))
        penalty = 0.0
        if smoothing > 0.0:
            penalty = smoothing * (
                math.log(pi)
                + math.log1p(-pi)
                + float(np.log(pos_fire).sum() + np.log1p(-pos_fire).sum())
                + float(np.log(neg_fire).sum() + np.log1p(-neg_fire).sum())
            )
        return data_term + penalty, data_term, lp, ln

    objective, data_ll, lp, ln = objective_at(pi, pos_fire, neg_fire)
    if not math.isfinite(objective):
        raise ValueError(overflow)
    history = [objective]
    converged = False
    iterations = 0
    for t in range(1, max_iters + 1):
        iterations = t
        resp = _posterior(lp, ln)
        pi, pos_fire, neg_fire = m_step(resp)
        objective, data_ll, lp, ln = objective_at(pi, pos_fire, neg_fire)
        history.append(objective)
        if history[-1] - history[-2] < tol:
            converged = True
            break

    # Canonicalize label switching, as the docstring says.
    resp = _posterior(lp, ln)
    mean_signed = (2.0 * v01 - 1.0).mean(axis=1)
    weight_pos = float(weights @ resp)
    weight_neg = n - weight_pos
    if weight_pos > 0.0 and weight_neg > 0.0:
        side_pos = float((weights * resp) @ mean_signed) / weight_pos
        side_neg = float((weights * (1.0 - resp)) @ mean_signed) / weight_neg
        gap = side_pos - side_neg
        if gap < -1e-9 or (abs(gap) <= 1e-9 and pi > 0.5):
            pi = 1.0 - pi
            pos_fire, neg_fire = neg_fire.copy(), pos_fire.copy()

    fire = np.stack([neg_fire, pos_fire], axis=1)
    confusion = np.stack([1.0 - fire, fire], axis=2)
    diagnostics: dict[str, Any] = {
        "objective": float(history[-1]),
        "log_likelihood": float(data_ll),
        "iterations": iterations,
        "converged": converged,
        "objective_history": [float(x) for x in history],
    }
    return DSModel(class_prior=float(pi), confusion=confusion, diagnostics=diagnostics)


def _naive_bayes_posteriors(
    pats: VotePatterns, pi: float, pos_fire: np.ndarray, neg_fire: np.ndarray
) -> np.ndarray:
    """P(y = +1 | v) for each vote pattern v of ``pats``."""
    _check_width(pats, pos_fire.shape[0])
    lp, ln = _class_log_likelihoods(pats.rows, pi, pos_fire, neg_fire)
    impossible = np.isneginf(lp) & np.isneginf(ln)
    if impossible.any():
        votes = tuple(pats.rows[int(impossible.argmax())].tolist())
        raise ValueError(f"vote vector {votes} has zero probability under the model")
    return _posterior(lp, ln)


def ds_posteriors(model: DSModel, votes: Dataset | SignedVotes) -> np.ndarray:
    """P(y = +1 | votes) for every record under the fitted naive-Bayes model."""
    return record_scores(model.pattern_scores, votes)


@dataclass(frozen=True, eq=False)
class FSModel:
    """Triplet-method estimates of mean accuracies a_j = E[vote_j * y]."""

    accuracies: np.ndarray
    class_prior: float

    @property
    def num_lfs(self) -> int:
        return int(self.accuracies.shape[0])

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "accuracies": [float(a) for a in self.accuracies],
            "class_prior": float(self.class_prior),
        }

    @classmethod
    def from_json_dict(cls, payload: dict[str, Any]) -> "FSModel":
        """Inverse of ``to_json_dict``. Rejects a key other than
        ``accuracies`` and ``class_prior``, a value that is not a JSON
        number, accuracies outside [0, 1) and a class prior outside (0, 1)."""
        prior, accuracies = _read_payload(payload, "fs", "accuracies")
        if accuracies.ndim != 1 or accuracies.size == 0:
            raise ValueError("fs accuracies must be a non-empty list of numbers")
        if not ((accuracies >= 0.0) & (accuracies < 1.0)).all():
            raise ValueError("fs accuracies must lie in [0, 1)")
        return cls(accuracies=accuracies, class_prior=prior)

    def pattern_scores(self, patterns: VotePatterns) -> np.ndarray:
        """P(y = +1 | v) for each vote pattern v; function j has accuracy (1 + a_j) / 2."""
        a = self.accuracies
        return _naive_bayes_posteriors(
            patterns, self.class_prior, (1.0 + a) / 2.0, (1.0 - a) / 2.0
        )


def check_fs_settings(eps_clip: float | None = None) -> None:
    """Raise ``ValueError`` unless ``1 - eps_clip``, the largest accuracy a fit
    gives, lies strictly in (0, 1), where ``FSModel`` reads it; None is not checked."""
    if eps_clip is not None and not 0.0 < 1.0 - eps_clip < 1.0:
        raise ValueError(f"eps_clip must leave 1 - eps_clip in (0, 1), got {eps_clip!r}")


def _median(x: np.ndarray) -> float:
    """``np.median`` of a non-empty 1-D float array, bit for bit: NaN if
    any entry is NaN, else the mean of the middle one or two sorted
    entries. ``np.median`` itself imports ``numpy.ma`` on its first call."""
    s = np.sort(x)
    if np.isnan(s[-1]):
        return float(s[-1])
    h = s.size // 2
    return float(np.mean(s[h - 1 + s.size % 2 : h + 1]))


def fs_fit_from_moments(
    moments: np.ndarray,
    prior: Prior,
    eps_clip: float = FS_EPS_CLIP,
) -> FSModel:
    """Recover mean accuracies from a second-moment matrix.

    For each function j, every pair (k, l) of other functions gives the
    candidate ``sqrt(|M_jk * M_jl / M_kl|)``; candidates whose denominator
    moment is at most ``eps_clip`` in magnitude are discarded, and the
    estimate is the median of the rest, clipped into
    ``[0, 1 - eps_clip]``. Signs are fixed positive: better-than-random
    functions are assumed.

    Raises
    ------
    ValueError
        If ``1 - eps_clip`` lies outside (0, 1), fewer than
        three functions are present, or some function has no admissible
        triplet.
    """
    check_fs_settings(eps_clip)
    moments = np.asarray(moments, dtype=np.float64)
    if moments.ndim != 2 or moments.shape[0] != moments.shape[1]:
        raise ValueError("moments must be a square matrix")
    m = moments.shape[0]
    if m < 3:
        raise ValueError("triplet method requires M >= 3")
    k, l = np.triu_indices(m, 1)
    admissible = np.abs(moments[k, l]) > eps_clip
    accuracies = np.empty(m, dtype=np.float64)
    for j in range(m):
        use = admissible & (k != j) & (l != j)
        if not use.any():
            raise ValueError(f"no admissible triplet for labeling function {j}")
        ks, ls = k[use], l[use]
        estimates = np.sqrt(np.abs(moments[j, ks] * moments[j, ls] / moments[ks, ls]))
        accuracies[j] = min(max(_median(estimates), 0.0), 1.0 - eps_clip)
    return FSModel(accuracies=accuracies, class_prior=prior.p_plus)


def fs_fit(
    votes: Dataset | VotePatterns | SignedVotes, prior: Prior, eps_clip: float = FS_EPS_CLIP
) -> FSModel:
    """Triplet-method fit from data: the table's weighted moments, then recovery."""
    pats, n = _weighted(votes)
    # Over count weights every sum is an integer, so exact.
    signed = 2.0 * pats.rows - 1.0
    moments = ((signed.T * pats.weights) @ signed) / n
    return fs_fit_from_moments(moments, prior, eps_clip=eps_clip)


def fs_posteriors(model: FSModel, votes: Dataset | SignedVotes) -> np.ndarray:
    """``FSModel.pattern_scores`` for every record."""
    return record_scores(model.pattern_scores, votes)
