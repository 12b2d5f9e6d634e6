"""Workload definitions and the benchmark's own seeded input generator.

The generator draws from the same law as ``weapo.synth`` (a Bernoulli
class prior, labeling functions that fire independently given the class,
optional two-Gaussian features) but shares no code with it. Inputs
therefore stay byte-identical across commits of the program, even when
the program changes how its own ``synth`` draws random streams.

Every workload runs the same five-command user pipeline (synth, fit,
eval, compare, end); the workloads differ in shape, and each shape makes
a different layer dominate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Law:
    """Generating law: class prior, per-function firing rates, features."""

    p_plus: float
    tpr: tuple[float, ...]
    fpr: tuple[float, ...]
    mu_pos: tuple[float, ...] = (0.7, -0.5, 0.4, 0.3)
    mu_neg: tuple[float, ...] = (-0.3, 0.2, -0.4, 0.0)
    sigma: float = 1.0

    @property
    def num_lfs(self) -> int:
        return len(self.tpr)

    @property
    def num_features(self) -> int:
        return len(self.mu_pos)

    def spec_json(self, n: int, seed: int, features: bool) -> dict:
        """The law as a ``weapo`` synthetic-spec payload."""
        payload = {
            "p_plus": self.p_plus,
            "tpr": list(self.tpr),
            "fpr": list(self.fpr),
            "n": n,
            "seed": seed,
        }
        if features:
            payload["feature_spec"] = {
                "mu_pos": list(self.mu_pos),
                "mu_neg": list(self.mu_neg),
                "sigma": self.sigma,
            }
        return payload


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``n`` is the size of the train and of the test file the label models
    see, and of the dataset ``synth`` writes. ``n_end`` is the size of
    the featured train and test pair that ``weapo end`` sees; ``None``
    means the end model trains on the label-model train file itself,
    which then carries features.
    ``covered`` is the accepted band (inclusive) for the covered count
    of the train file and ``patterns`` the one for its distinct covered
    vote patterns K. ``pin_patterns`` makes the generator hold K of the
    train file at exactly that value.
    """

    name: str
    why: str
    law: Law
    n: int
    n_end: int | None
    covered: tuple[int, int]
    patterns: tuple[int, int]
    seed_salt: int
    pin_patterns: int | None = None


# M = 8 with dense firing: all 255 covered patterns appear, so the
# covering order is tiny (K = 255) and per-record work dominates: JSONL
# parsing of four 1e5-row loads, generating and writing 1e5 rows in
# synth, Dawid-Skene EM over 1e5 rows, and per-record oracle posteriors.
_TALL_M8 = Law(
    p_plus=0.35,
    tpr=(0.42, 0.55, 0.37, 0.61, 0.48, 0.33, 0.58, 0.45),
    fpr=(0.09, 0.14, 0.06, 0.17, 0.11, 0.08, 0.15, 0.12),
)

# M = 16 with sparse, skewed firing: about 45 % coverage and about 1200
# distinct covered patterns K. The covering order's Hasse diagram costs
# O(K^2) memory and O(K^3) time, and it is built three times (fit, and
# weapo and weapo-noprior in compare), so it dominates while per-record
# work stays small. Dawid-Skene EM hits its iteration cap here.
_WIDE_M16 = Law(
    p_plus=0.3,
    tpr=(0.05, 0.14, 0.08, 0.19, 0.11, 0.06, 0.17, 0.12,
         0.09, 0.2, 0.07, 0.15, 0.1, 0.18, 0.13, 0.16),
    fpr=(0.018, 0.011, 0.026, 0.014, 0.03, 0.021, 0.012, 0.027,
         0.016, 0.023, 0.01, 0.029, 0.019, 0.025, 0.013, 0.022),
)

# M = 8 with 4 Gaussian features and N = 6000: the end model's dense RBF
# kernel and Cholesky solve (O(N^2) memory, O(N^3) time) dominate `end`,
# while every label-model layer is small.
_END_KRR = _TALL_M8

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tall-m8",
            why="1e5 records, M=8, K=255: per-record parsing, generation, "
            "Dawid-Skene EM and oracle scoring dominate",
            law=_TALL_M8,
            n=100_000,
            n_end=2000,
            covered=(74_500, 76_500),
            patterns=(255, 255),
            seed_salt=11,
        ),
        Workload(
            name="wide-m16",
            why="2e4 records, M=16, sparse firing, K=1100: the covering "
            "order (Hasse edges, O(K^3)) dominates fit and compare",
            law=_WIDE_M16,
            n=20_000,
            n_end=2000,
            covered=(8_600, 9_700),
            patterns=(1100, 1100),
            seed_salt=23,
            # Hasse time is steep in K (about 1.9 s at K = 1100 and 3.0 s
            # at K = 1200 on 2 cores), while K of a free draw spreads by
            # about 2 % between seeds, so the train file's K is pinned.
            pin_patterns=1100,
        ),
        Workload(
            name="end-krr",
            why="6000 records with 4 features: the dense RBF kernel ridge "
            "end model (O(N^3) Cholesky) dominates end",
            law=_END_KRR,
            n=6000,
            n_end=None,
            covered=(4_300, 4_800),
            patterns=(240, 255),
            seed_salt=37,
        ),
    )
}


@dataclass(frozen=True)
class Sample:
    """Records drawn from a law: votes (N, M) int8, gold (N,), features."""

    votes: np.ndarray
    gold: np.ndarray
    features: np.ndarray

    def __len__(self) -> int:
        return int(self.gold.shape[0])


def draw(law: Law, n: int, rng: np.random.Generator) -> Sample:
    """Draw ``n`` records from ``law``."""
    positive = rng.random(n) < law.p_plus
    rates = np.where(positive[:, None], np.array(law.tpr), np.array(law.fpr))
    votes = (rng.random((n, law.num_lfs)) < rates).astype(np.int8)
    means = np.where(positive[:, None], np.array(law.mu_pos), np.array(law.mu_neg))
    features = means + law.sigma * rng.standard_normal((n, law.num_features))
    return Sample(votes=votes, gold=np.where(positive, 1, -1).astype(np.int8), features=features)


def pin_pattern_count(sample: Sample, law: Law, target: int, rng: np.random.Generator) -> Sample:
    """Redraw the votes of singleton-pattern records until K equals ``target``.

    The last records (in file order) whose covered pattern occurs once
    get fresh votes from their own class, redrawn until the pattern is
    uncovered or one that is kept, so each redraw removes one pattern
    and adds none. Gold labels and features are untouched.
    """
    votes = sample.votes.copy()
    covered = votes.any(axis=1)
    _, inverse, counts = np.unique(votes, axis=0, return_inverse=True, return_counts=True)
    inverse = inverse.ravel()
    singles = np.flatnonzero(covered & (counts[inverse] == 1))
    excess = int(len(np.unique(inverse[covered])) - target)
    if excess < 0 or excess > len(singles):
        raise ValueError(f"cannot pin K to {target}: {excess} excess patterns, "
                         f"{len(singles)} singletons")
    redraw = singles[len(singles) - excess:]
    kept = {tuple(row) for row in votes[covered].tolist()}
    kept -= {tuple(row) for row in votes[redraw].tolist()}
    kept.add((0,) * law.num_lfs)
    for i in redraw.tolist():
        rates = np.array(law.tpr if sample.gold[i] == 1 else law.fpr)
        while True:
            row = tuple((rng.random(law.num_lfs) < rates).astype(np.int8).tolist())
            if row in kept:
                break
        votes[i] = row
    return Sample(votes=votes, gold=sample.gold, features=sample.features)


def write_jsonl(path: Path, sample: Sample, with_features: bool) -> None:
    """Write ``sample`` in the weapo JSONL dataset format, meta line first."""
    patterns, inverse = np.unique(sample.votes, axis=0, return_inverse=True)
    vote_text = [",".join(map(str, row)) for row in patterns.tolist()]
    lines = [json.dumps({"meta": {"num_lfs": sample.votes.shape[1]}}, separators=(",", ":"))]
    gold = sample.gold.tolist()
    feats = sample.features.tolist() if with_features else None
    for i, k in enumerate(inverse.ravel().tolist()):
        line = f'{{"id":"r{i:06d}","votes":[{vote_text[k]}]'
        if feats is not None:
            line += ',"features":[' + ",".join(map(repr, feats[i])) + "]"
        lines.append(line + f',"label":{gold[i]}}}')
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class Inputs:
    """Paths and in-memory copies of one run's generated inputs."""

    train: Sample
    test: Sample
    end_train: Sample
    end_test: Sample
    train_path: Path
    test_path: Path
    end_train_path: Path
    end_test_path: Path
    spec_path: Path
    oracle_path: Path


def make_inputs(workload: Workload, seed: int, workdir: Path) -> Inputs:
    """Draw and write every input of one run; the same seed gives the same bytes."""
    rng = np.random.default_rng([workload.seed_salt, seed])
    law = workload.law
    featured = workload.n_end is None
    train = draw(law, workload.n, rng)
    test = draw(law, workload.n, rng)
    if workload.pin_patterns is not None:
        train = pin_pattern_count(train, law, workload.pin_patterns, rng)
    train_path, test_path = workdir / "train.jsonl", workdir / "test.jsonl"
    write_jsonl(train_path, train, featured)
    write_jsonl(test_path, test, featured)
    if featured:
        end_train, end_test = train, test
        end_train_path, end_test_path = train_path, test_path
    else:
        end_train = draw(law, workload.n_end, rng)
        end_test = draw(law, workload.n_end, rng)
        end_train_path, end_test_path = workdir / "end_train.jsonl", workdir / "end_test.jsonl"
        write_jsonl(end_train_path, end_train, True)
        write_jsonl(end_test_path, end_test, True)
    spec_path = workdir / "synth_spec.json"
    spec_path.write_text(json.dumps(law.spec_json(workload.n, seed, featured)))
    oracle_path = workdir / "oracle_spec.json"
    oracle_path.write_text(json.dumps(law.spec_json(workload.n, seed, featured)))
    return Inputs(
        train=train, test=test, end_train=end_train, end_test=end_test,
        train_path=train_path, test_path=test_path,
        end_train_path=end_train_path, end_test_path=end_test_path,
        spec_path=spec_path, oracle_path=oracle_path,
    )


def shape(sample: Sample) -> dict[str, int]:
    """N, covered count, distinct covered patterns K, and M of a sample."""
    covered = sample.votes.any(axis=1)
    k = len(np.unique(sample.votes[covered], axis=0))
    return {"n": len(sample), "covered": int(covered.sum()), "patterns": k,
            "lfs": int(sample.votes.shape[1])}


def shape_errors(workload: Workload, inputs: Inputs) -> list[str]:
    """Where the train file's shape leaves the workload's stated bands."""
    got = shape(inputs.train)
    errors = []
    for key, (lo, hi) in (("covered", workload.covered), ("patterns", workload.patterns)):
        if not lo <= got[key] <= hi:
            errors.append(f"{workload.name}: train {key} = {got[key]}, band [{lo}, {hi}]")
    if got["n"] != workload.n or got["lfs"] != workload.law.num_lfs:
        errors.append(f"{workload.name}: train shape {got} does not match the workload")
    if inputs.end_train.features.shape[1] != workload.law.num_features:
        errors.append(f"{workload.name}: end-model inputs lack {workload.law.num_features} features")
    return errors
