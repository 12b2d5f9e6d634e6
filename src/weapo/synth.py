"""Seeded synthetic benchmarks with known ground truth.

Labels are drawn from a Bernoulli prior; each labeling function fires
conditionally independently given the label, with per-function true- and
false-positive rates; optional features come from one of two Gaussians
with a shared isotropic scale. Because the generating law is known
exactly, Bayes-optimal posteriors and population vote moments are
available in closed form for use as oracles. The Bayes oracle is the
naive-Bayes posterior under the generating law, so its ``pattern_scores``
scores through the one naive-Bayes scorer of ``baselines`` that
Dawid-Skene and the triplet method share, once per distinct vote pattern.

Generation is columnar: records are drawn in fixed-size blocks, each
from its own spawned Philox stream, so a run costs one stream set-up per
block rather than per record.

A spec file is read with ``payload.read_json`` and checked with the
shared checks of ``payload``, the same as a model file.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from .baselines import _naive_bayes_posteriors, _patterns
from .data import Dataset, VotePatterns, VoteVector, compress_votes
from .payload import check_keys, integer, numbers, read_json

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
        """The fields, nested ones too, in declaration order, without those
        that are None, and with tuples as lists, as ``from_json_dict`` reads."""
        return asdict(self, dict_factory=lambda fields: {
            key: list(value) if type(value) is tuple else value
            for key, value in fields if value is not None
        })

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
        check_keys(payload, "spec", required, optional=("feature_spec",))
        feature_spec = None
        if "feature_spec" in payload:
            fs = payload["feature_spec"]
            check_keys(fs, "feature_spec", ("mu_pos", "mu_neg", "sigma"))
            feature_spec = FeatureSpec(
                mu_pos=tuple(numbers(fs, "mu_pos", ndim=1).tolist()),
                mu_neg=tuple(numbers(fs, "mu_neg", ndim=1).tolist()),
                sigma=float(numbers(fs, "sigma", ndim=0)),
            )
        return cls(
            p_plus=float(numbers(payload, "p_plus", ndim=0)),
            tpr=tuple(numbers(payload, "tpr", ndim=1).tolist()),
            fpr=tuple(numbers(payload, "fpr", ndim=1).tolist()),
            n=integer(payload, "n"),
            seed=integer(payload, "seed"),
            feature_spec=feature_spec,
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, separators=(",", ":"))
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "SyntheticSpec":
        """Read a spec file; every error message starts with ``path``."""
        payload = read_json(path)
        try:
            return cls.from_json_dict(payload)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None


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
    ids = tuple(map(f"r%0{width}d".__mod__, range(spec.n)))
    return Dataset(ids=ids, votes_matrix=votes, features_matrix=features, gold=gold)


@dataclass(frozen=True, eq=False)
class OracleTable:
    """Closed-form Bayes posteriors P(y = +1 | votes) for a spec.

    The generating law is a naive-Bayes model with prior ``p_plus`` and
    fire rates ``tpr`` and ``fpr``, so ``pattern_scores`` scores through
    the naive-Bayes scorer that Dawid-Skene and the triplet method share;
    it checks the width and names a vote vector of zero probability.
    ``posterior`` scores one vector as a one-row array.
    """

    spec: SyntheticSpec

    def posterior(self, votes: VoteVector) -> float:
        """The posterior of one 0/1 vote vector."""
        row = np.asarray(votes).reshape(1, -1)
        if row.shape[1] != self.spec.num_lfs:
            raise ValueError(
                f"vote vector has length {row.shape[1]}, spec has {self.spec.num_lfs}"
            )
        if not np.isin(row, (0, 1)).all():
            votes = tuple(row[0].tolist())
            raise ValueError(f"vote vector {votes} holds a value other than 0 or 1")
        return float(self.pattern_scores(compress_votes(row))[0])

    def scores(self, dataset: Dataset) -> np.ndarray:
        """Oracle posterior for every record of a compatible dataset."""
        pats = _patterns(dataset)
        return self.pattern_scores(pats)[pats.inverse]

    def pattern_scores(self, patterns: VotePatterns) -> np.ndarray:
        """The posterior of each vote pattern."""
        tpr, fpr = np.array(self.spec.tpr), np.array(self.spec.fpr)
        return _naive_bayes_posteriors(patterns, self.spec.p_plus, tpr, fpr)


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
