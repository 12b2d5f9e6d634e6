"""Seeded synthetic benchmarks with known ground truth.

Labels are drawn from a Bernoulli prior; each labeling function fires
conditionally independently given the label, with per-function true- and
false-positive rates; optional features come from one of two Gaussians
with a shared isotropic scale. Because the generating law is known
exactly, Bayes-optimal posteriors and population vote moments are
available in closed form for use as oracles.

Generation is columnar: records are drawn in fixed-size blocks, each
from its own spawned Philox stream, so a run costs one stream set-up per
block rather than per record. The oracle scores a dataset once per
distinct vote pattern and gathers the values back to the records.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .data import Dataset, VoteVector

BLOCK_SIZE = 4096
"""Records drawn from each spawned random stream in ``generate``."""


@dataclass(frozen=True)
class FeatureSpec:
    """Two-Gaussian feature generator: class means and one shared sigma."""

    mu_pos: tuple[float, ...]
    mu_neg: tuple[float, ...]
    sigma: float

    def __post_init__(self) -> None:
        if len(self.mu_pos) != len(self.mu_neg):
            raise ValueError("mu_pos and mu_neg must have the same dimension")
        if len(self.mu_pos) == 0:
            raise ValueError("feature dimension must be at least 1")
        if not all(math.isfinite(x) for x in self.mu_pos + self.mu_neg):
            raise ValueError("mu_pos and mu_neg entries must be finite")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be finite and positive")

    @property
    def dim(self) -> int:
        return len(self.mu_pos)


@dataclass(frozen=True)
class SyntheticSpec:
    """Full description of one synthetic benchmark.

    ``tpr[j]`` is P(vote_j = 1 | y = +1) and ``fpr[j]`` is
    P(vote_j = 1 | y = -1). All probabilities live in [0, 1]; the class
    prior is strictly interior.
    """

    p_plus: float
    tpr: tuple[float, ...]
    fpr: tuple[float, ...]
    n: int
    seed: int = 0
    feature_spec: FeatureSpec | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.p_plus < 1.0):
            raise ValueError("p_plus must lie strictly in (0, 1)")
        if len(self.tpr) != len(self.fpr) or len(self.tpr) == 0:
            raise ValueError("tpr and fpr must be non-empty and equally long")
        for name, rates in (("tpr", self.tpr), ("fpr", self.fpr)):
            if any(not (0.0 <= r <= 1.0) for r in rates):
                raise ValueError(f"{name} entries must lie in [0, 1]")
        if self.n < 0:
            raise ValueError("n must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @property
    def num_lfs(self) -> int:
        return len(self.tpr)

    def to_json_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "p_plus": self.p_plus,
            "tpr": list(self.tpr),
            "fpr": list(self.fpr),
            "n": self.n,
            "seed": self.seed,
        }
        if self.feature_spec is not None:
            payload["feature_spec"] = {
                "mu_pos": list(self.feature_spec.mu_pos),
                "mu_neg": list(self.feature_spec.mu_neg),
                "sigma": self.feature_spec.sigma,
            }
        return payload

    @classmethod
    def from_json_dict(cls, payload: Any) -> "SyntheticSpec":
        """Inverse of ``to_json_dict``, and strict about it.

        The payload is an object with exactly the keys ``p_plus``, ``tpr``,
        ``fpr``, ``n`` and ``seed``, plus an optional ``feature_spec``
        object with exactly ``mu_pos``, ``mu_neg`` and ``sigma``. Rates,
        means and sigma are JSON numbers; ``n`` and ``seed`` are JSON
        integers. Anything else raises ``ValueError`` naming the key.
        """
        required = ("p_plus", "tpr", "fpr", "n", "seed")
        _check_keys(payload, "spec", required, optional=("feature_spec",))
        feature_spec = None
        if "feature_spec" in payload:
            fs = payload["feature_spec"]
            _check_keys(fs, "feature_spec", ("mu_pos", "mu_neg", "sigma"))
            feature_spec = FeatureSpec(
                mu_pos=_numbers(fs["mu_pos"], "mu_pos"),
                mu_neg=_numbers(fs["mu_neg"], "mu_neg"),
                sigma=_number(fs["sigma"], "sigma"),
            )
        return cls(
            p_plus=_number(payload["p_plus"], "p_plus"),
            tpr=_numbers(payload["tpr"], "tpr"),
            fpr=_numbers(payload["fpr"], "fpr"),
            n=_integer(payload["n"], "n"),
            seed=_integer(payload["seed"], "seed"),
            feature_spec=feature_spec,
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, separators=(",", ":"))
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "SyntheticSpec":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return cls.from_json_dict(json.load(fh))
            # json raises RecursionError on input nested deeper than the stack.
            except (ValueError, RecursionError) as err:
                raise ValueError(f"{path}: {err}") from None


def _check_keys(
    payload: Any, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()
) -> None:
    if not isinstance(payload, dict):
        raise ValueError(f"{where} must be a JSON object")
    for key in required:
        if key not in payload:
            raise ValueError(f"{where} lacks key {key!r}")
    for key in payload:
        if key not in required + optional:
            raise ValueError(f"unknown {where} key {key!r}")


def _as_float(value: Any) -> float | None:
    """A JSON number as a float; None for anything else, booleans and
    integers beyond the float range included."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        return float(value)
    except OverflowError:
        return None


def _number(value: Any, key: str) -> float:
    number = _as_float(value)
    if number is None:
        raise ValueError(f"key {key!r} must be a number, got {value!r}")
    return number


def _numbers(value: Any, key: str) -> tuple[float, ...]:
    numbers = [_as_float(x) for x in value] if isinstance(value, list) else [None]
    if None in numbers:
        raise ValueError(f"key {key!r} must be a list of numbers, got {value!r}")
    return tuple(numbers)


def _integer(value: Any, key: str) -> int:
    if not (isinstance(value, int) and not isinstance(value, bool)):
        raise ValueError(f"key {key!r} must be an integer, got {value!r}")
    return value


def generate(spec: SyntheticSpec) -> Dataset:
    """Draw a dataset from the generating law.

    Records are drawn in blocks of ``BLOCK_SIZE``. Each block gets its
    own counter-based random stream (Philox keyed through
    ``SeedSequence(seed).spawn``) and draws, in this order, the labels,
    the votes and the features of all its records at once. Generation is
    therefore reproducible bit for bit, and any block can be drawn on its
    own. Gold labels are always attached; features only when the spec
    asks.
    """
    tpr = np.array(spec.tpr, dtype=np.float64)
    fpr = np.array(spec.fpr, dtype=np.float64)
    m = spec.num_lfs
    feature_spec = spec.feature_spec
    votes = np.empty((spec.n, m), dtype=np.int8)
    gold = np.empty(spec.n, dtype=np.int8)
    features = None
    if feature_spec is not None:
        mu = np.array([feature_spec.mu_neg, feature_spec.mu_pos], dtype=np.float64)
        features = np.empty((spec.n, feature_spec.dim), dtype=np.float64)
    num_blocks = -(-spec.n // BLOCK_SIZE)
    for b, stream in enumerate(np.random.SeedSequence(spec.seed).spawn(num_blocks)):
        rng = np.random.Generator(np.random.Philox(stream))
        block = slice(b * BLOCK_SIZE, min((b + 1) * BLOCK_SIZE, spec.n))
        size = block.stop - block.start
        positive = rng.random(size) < spec.p_plus
        gold[block] = np.where(positive, 1, -1)
        votes[block] = rng.random((size, m)) < np.where(positive[:, None], tpr, fpr)
        if features is not None:
            noise = rng.standard_normal((size, feature_spec.dim))
            features[block] = mu[positive.astype(np.intp)] + feature_spec.sigma * noise
    width = len(str(max(spec.n - 1, 0)))
    ids = tuple(f"r{i:0{width}d}" for i in range(spec.n))
    return Dataset(ids=ids, votes_matrix=votes, features_matrix=features, gold=gold)


@dataclass(frozen=True, eq=False)
class OracleTable:
    """Closed-form Bayes posteriors P(y = +1 | votes) for a spec.

    ``posterior`` evaluates one vote vector; ``scores`` and ``as_dict``
    evaluate many at once with the same products in the same order, so
    every path gives bitwise the same value for the same vector.
    ``as_dict`` walks all 2^M vectors and is only sensible for small M.
    """

    spec: SyntheticSpec

    def posterior(self, votes: VoteVector) -> float:
        votes = tuple(int(v) for v in votes)
        if len(votes) != self.spec.num_lfs:
            raise ValueError(
                f"vote vector has length {len(votes)}, spec has {self.spec.num_lfs}"
            )
        like_pos = 1.0
        like_neg = 1.0
        for v, t, f in zip(votes, self.spec.tpr, self.spec.fpr):
            like_pos *= t if v else 1.0 - t
            like_neg *= f if v else 1.0 - f
        numerator = self.spec.p_plus * like_pos
        denominator = numerator + (1.0 - self.spec.p_plus) * like_neg
        if denominator == 0.0:
            raise ValueError(f"vote vector {votes} has zero probability under the spec")
        return numerator / denominator

    def _posteriors(self, rows: np.ndarray) -> np.ndarray:
        """``posterior`` of every row of a (K, M) 0/1 array."""
        like_pos = np.ones(rows.shape[0])
        like_neg = np.ones(rows.shape[0])
        for column, t, f in zip(rows.T.astype(bool), self.spec.tpr, self.spec.fpr):
            like_pos *= np.where(column, t, 1.0 - t)
            like_neg *= np.where(column, f, 1.0 - f)
        numerator = self.spec.p_plus * like_pos
        denominator = numerator + (1.0 - self.spec.p_plus) * like_neg
        if (denominator == 0.0).any():
            votes = tuple(rows[int((denominator == 0.0).argmax())].tolist())
            raise ValueError(f"vote vector {votes} has zero probability under the spec")
        return numerator / denominator

    def scores(self, dataset: Dataset) -> np.ndarray:
        """Oracle posterior for every record of a compatible dataset."""
        if dataset.num_lfs != self.spec.num_lfs:
            raise ValueError(
                f"dataset has {dataset.num_lfs} labeling functions, "
                f"spec has {self.spec.num_lfs}"
            )
        pats = dataset.patterns
        return self._posteriors(pats.rows)[pats.inverse]

    def as_dict(self) -> dict[VoteVector, float]:
        """Posterior for every one of the 2^M possible vote vectors."""
        m = self.spec.num_lfs
        if m > 20:
            raise ValueError("full table only supported for M <= 20")
        rows = (np.arange(2**m)[:, None] >> np.arange(m)) & 1
        return dict(zip(map(tuple, rows.tolist()), self._posteriors(rows).tolist()))


def oracle_posteriors(spec: SyntheticSpec) -> OracleTable:
    """Bayes-optimal posterior oracle for a synthetic spec."""
    return OracleTable(spec=spec)


def population_moments(spec: SyntheticSpec) -> np.ndarray:
    """Exact second moments E[signed_j * signed_k] of the signed votes.

    Off-diagonal entries expand over the label:
    ``p * m_j(+) * m_k(+) + (1 - p) * m_j(-) * m_k(-)`` with
    ``m_j(y) = E[signed_j | y]``; the diagonal is identically 1.
    """
    mean_pos = 2.0 * np.array(spec.tpr, dtype=np.float64) - 1.0
    mean_neg = 2.0 * np.array(spec.fpr, dtype=np.float64) - 1.0
    p = spec.p_plus
    moments = p * np.outer(mean_pos, mean_pos) + (1.0 - p) * np.outer(mean_neg, mean_neg)
    np.fill_diagonal(moments, 1.0)
    return moments
