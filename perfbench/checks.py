"""Correctness checks on the outputs of each weapo command.

Every check recomputes what a correct implementation must produce from
the benchmark's own inputs, so none of them pins output bytes. Each
returns a list of error strings, empty when the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import Law, Sample

AUC_TOL = 1e-9
MODELS = ("weapo", "weapo-noprior", "mv", "ds", "fs")


def roc_auc(scores: np.ndarray, positive: np.ndarray) -> float:
    """Mann-Whitney ROC-AUC from average ranks, ties counting half."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    first_rank = np.cumsum(counts) - counts + 1
    ranks = (first_rank + (counts - 1) / 2.0)[inverse.ravel()]
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    return (float(ranks[positive].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def pr_auc(scores: np.ndarray, positive: np.ndarray) -> float:
    """Average precision over blocks of tied scores, highest score first."""
    values, inverse = np.unique(-scores, return_inverse=True)
    block_pos = np.bincount(inverse.ravel(), weights=positive.astype(np.float64),
                            minlength=values.size)
    block_size = np.bincount(inverse.ravel(), minlength=values.size)
    cum_pos = np.cumsum(block_pos)
    precision = cum_pos / np.cumsum(block_size)
    return float((block_pos / cum_pos[-1] * precision).sum())


def tie_bounds(scores: np.ndarray, positive: np.ndarray) -> dict[str, tuple[float, float]]:
    """Lowest and highest ROC-AUC and PR-AUC over every order of the
    records within each block of tied scores."""
    _, inverse = np.unique(scores, return_inverse=True)
    inverse = inverse.ravel()
    tied = float((np.bincount(inverse, weights=positive.astype(np.float64))
                  * np.bincount(inverse, weights=(~positive).astype(np.float64))).sum())
    n_pos = int(positive.sum())
    half = tied / (2.0 * n_pos * (positive.size - n_pos))
    roc = roc_auc(scores, positive)
    ap = []
    # Negatives first within each tied block, then positives first.
    for within in (positive, ~positive):
        order = np.lexsort((within, -scores))
        hits = positive[order]
        ap.append(float((np.cumsum(hits) / np.arange(1, hits.size + 1))[hits].sum() / n_pos))
    return {"roc_auc": (roc - half, roc + half), "pr_auc": (ap[0], ap[1])}


def covered_result(scores: np.ndarray, sample: Sample) -> dict:
    """The eval payload a correct implementation gives for these scores."""
    mask = sample.votes.any(axis=1)
    positive = sample.gold[mask] == 1
    return {
        "roc_auc": roc_auc(scores[mask], positive),
        "pr_auc": pr_auc(scores[mask], positive),
        "n_pos": int(positive.sum()),
        "n_neg": int((~positive).sum()),
        "n_evaluated": int(mask.sum()),
    }


def weapo_scores(theta: np.ndarray, sample: Sample) -> np.ndarray:
    return sample.votes.astype(np.float64) @ theta


def oracle_scores(law: Law, sample: Sample) -> np.ndarray:
    """Closed-form Bayes posterior P(y = +1 | votes) of every record."""
    votes = sample.votes.astype(bool)
    like_pos = np.ones(len(sample))
    like_neg = np.ones(len(sample))
    for j, (t, f) in enumerate(zip(law.tpr, law.fpr)):
        like_pos *= np.where(votes[:, j], t, 1.0 - t)
        like_neg *= np.where(votes[:, j], f, 1.0 - f)
    numerator = law.p_plus * like_pos
    return numerator / (numerator + (1.0 - law.p_plus) * like_neg)


def feature_bayes_scores(law: Law, sample: Sample) -> np.ndarray:
    """A score that ranks records as the Bayes posterior from features alone
    does: the log-likelihood ratio of two Gaussians with one shared
    isotropic scale is linear in the features."""
    return sample.features @ (np.array(law.mu_pos) - np.array(law.mu_neg))


def _compare_result(name: str, got: dict, want: dict) -> list[str]:
    errors = []
    for key, value in want.items():
        have = got.get(key)
        if not isinstance(have, (int, float)) or abs(have - value) > AUC_TOL:
            errors.append(f"{name}: {key} = {have!r}, expected {value!r}")
    return errors


def _load_json(path: Path) -> tuple[dict | None, list[str]]:
    try:
        return json.loads(path.read_text(encoding="utf-8")), []
    except (OSError, ValueError) as err:
        return None, [f"{path.name}: {err}"]


def check_fit(path: Path, law: Law) -> tuple[np.ndarray | None, list[str]]:
    """Fitted theta is finite, non-negative, of length M and sums to 1."""
    payload, errors = _load_json(path)
    if errors:
        return None, errors
    try:
        theta = np.array(payload["theta"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as err:
        return None, [f"fit: no numeric theta ({err})"]
    if theta.shape != (law.num_lfs,):
        return None, [f"fit: theta has shape {theta.shape}, expected ({law.num_lfs},)"]
    if not np.isfinite(theta).all() or (theta < 0).any():
        return None, [f"fit: theta is not finite and non-negative: {theta.tolist()}"]
    if abs(math.fsum(theta.tolist()) - 1.0) > 1e-9:
        return None, [f"fit: theta sums to {math.fsum(theta.tolist())!r}, not 1"]
    return theta, []


def check_eval(path: Path, theta: np.ndarray, test: Sample) -> tuple[dict | None, list[str]]:
    """eval's result equals the recomputation from theta and the test file."""
    payload, errors = _load_json(path)
    if errors:
        return None, errors
    result = payload.get("result") or {}
    return result, _compare_result("eval", result, covered_result(weapo_scores(theta, test), test))


def check_compare(path: Path, theta: np.ndarray, law: Law, test: Sample) -> list[str]:
    """Every compare row is error-free and matches what can be recomputed.

    The weapo row comes from the fitted theta; mv ranks records as the
    uniform theta does, and so does weapo-noprior, whose exact optimum
    is uniform, up to the order of tied records. The oracle row is the
    closed-form posterior. ds and fs rows must cover the same records.
    """
    payload, errors = _load_json(path)
    if errors:
        return errors
    rows = {row.get("model"): row for row in payload.get("rows", [])}
    if set(rows) != set(MODELS) | {"oracle"}:
        return [f"compare: rows {sorted(rows)}, expected {sorted(MODELS + ('oracle',))}"]
    uniform = weapo_scores(np.full(law.num_lfs, 1.0 / law.num_lfs), test)
    want = {
        "weapo": covered_result(weapo_scores(theta, test), test),
        "mv": covered_result(uniform, test),
        "oracle": covered_result(oracle_scores(law, test), test),
    }
    counts = {k: want["oracle"][k] for k in ("n_pos", "n_neg", "n_evaluated")}
    mask = test.votes.any(axis=1)
    # A solver may return the uniform optimum up to rounding, which
    # orders records inside blocks that uniform weights leave tied.
    bounds = tie_bounds(uniform[mask], test.gold[mask] == 1)
    for name, row in rows.items():
        if row.get("error") is not None:
            errors.append(f"compare: {name} row has error {row['error']!r}")
            continue
        errors += _compare_result(f"compare {name}", row, want.get(name, counts))
        if name == "weapo-noprior":
            for key, (lo, hi) in bounds.items():
                value = row.get(key)
                if not isinstance(value, float) or not lo - AUC_TOL <= value <= hi + AUC_TOL:
                    errors.append(f"compare {name}: {key} = {value!r}, "
                                  f"outside the uniform-weight range [{lo!r}, {hi!r}]")
        for key in ("roc_auc", "pr_auc"):
            if not isinstance(row.get(key), float) or not 0.0 <= row[key] <= 1.0:
                errors.append(f"compare {name}: {key} = {row.get(key)!r}")
    return errors


def check_end(path: Path, test: Sample) -> tuple[dict | None, list[str]]:
    """end reports finite ROC-AUC and PR-AUC over every test record."""
    payload, errors = _load_json(path)
    if errors:
        return None, errors
    result = payload.get("result") or {}
    for key in ("roc_auc", "pr_auc"):
        value = result.get(key)
        if not isinstance(value, float) or not 0.0 <= value <= 1.0:
            errors.append(f"end: {key} = {value!r}")
    if result.get("n_evaluated") != len(test):
        errors.append(f"end: n_evaluated = {result.get('n_evaluated')!r}, expected {len(test)}")
    return result, errors


def check_synth(path: Path, law: Law, n: int, features: bool) -> tuple[str, list[str]]:
    """synth writes N records of M votes whose per-class firing rates
    lie within six binomial standard errors of the spec, each and as a
    whole.

    Returns the file's SHA-256, so reruns can be compared byte for byte.
    """
    try:
        data = path.read_bytes()
    except OSError as err:
        return "", [f"synth: {err}"]
    digest = hashlib.sha256(data).hexdigest()
    lines = data.decode("utf-8").splitlines()
    try:
        meta = json.loads(lines[0])["meta"]
        rows = [json.loads(line) for line in lines[1:]]
    except (IndexError, KeyError, ValueError) as err:
        return digest, [f"synth: unreadable output ({err})"]
    if meta.get("num_lfs") != law.num_lfs or len(rows) != n:
        return digest, [f"synth: {len(rows)} records of {meta.get('num_lfs')} votes, "
                        f"expected {n} of {law.num_lfs}"]
    try:
        votes = np.array([row["votes"] for row in rows], dtype=np.float64)
        positive = np.array([row["label"] for row in rows]) == 1
    except (KeyError, ValueError) as err:
        return digest, [f"synth: malformed records ({err})"]
    errors = []
    if votes.shape != (n, law.num_lfs):
        errors.append(f"synth: vote matrix has shape {votes.shape}")
    if features and any(len(row.get("features") or ()) != law.num_features for row in rows):
        errors.append(f"synth: records lack {law.num_features} features")
    if errors:
        return digest, errors
    chi2 = 0.0
    for label, mask, rates in (("tpr", positive, law.tpr), ("fpr", ~positive, law.fpr)):
        size = int(mask.sum())
        observed = votes[mask].mean(axis=0)
        for j, rate in enumerate(rates):
            std = math.sqrt(rate * (1.0 - rate) / size)
            chi2 += ((observed[j] - rate) / std) ** 2
            if abs(observed[j] - rate) > 6.0 * std + 1.0 / size:
                errors.append(f"synth: {label}[{j}] observed {observed[j]:.4f}, spec {rate}")
    # A shift shared by many rates can hide inside each rate's tolerance
    # on small N; their summed squared z-scores is chi-square with 2M
    # degrees of freedom, here allowed up to its mean plus 8 deviations.
    dof = 2 * law.num_lfs
    if chi2 > dof + 8.0 * math.sqrt(2.0 * dof):
        errors.append(f"synth: firing rates are off the spec as a whole (chi-square {chi2:.1f})")
    share = float(positive.mean())
    if abs(share - law.p_plus) > 6.0 * math.sqrt(law.p_plus * (1 - law.p_plus) / n) + 1.0 / n:
        errors.append(f"synth: positive share {share:.4f}, spec {law.p_plus}")
    return digest, errors
