"""Independent reference implementations used to pin expected values.

Everything here is deliberately written the slow, obvious way: nested
loops, explicit rank walks, dense grid searches. Nothing is shared with
the package under test, so agreement between the two is evidence rather
than tautology; the reference loader shares only the ``Dataset`` it
returns and its constructor's checks, and ``objective`` sums hinge
penalties through the package's ``ConstraintMatrix.apply``.
"""

from __future__ import annotations

import json
import math
from itertools import chain, combinations
from typing import NoReturn

import numpy as np

from weapo import Dataset, DatasetFormatError, Prior, WeapoConfig
from weapo.covering import ConstraintMatrix


def covering_pairs_brute(vectors):
    """All (low, high) pairs where high dominates low with a strict bit.

    Direct quadratic scan with explicit elementwise comparison.
    """
    vecs = sorted({tuple(v) for v in vectors})
    pairs = set()
    for low in vecs:
        for high in vecs:
            if low == high:
                continue
            ge = all(h >= l for h, l in zip(high, low))
            gt = any(h > l for h, l in zip(high, low))
            if ge and gt:
                pairs.add((low, high))
    return pairs


def closure_of_edges(edge_pairs, vectors):
    """Transitive closure of a set of (low, high) pairs, by Warshall."""
    vecs = sorted({tuple(v) for v in vectors})
    index = {v: i for i, v in enumerate(vecs)}
    k = len(vecs)
    reach = [[False] * k for _ in range(k)]
    for low, high in edge_pairs:
        reach[index[low]][index[high]] = True
    for mid in range(k):
        for a in range(k):
            if reach[a][mid]:
                for b in range(k):
                    if reach[mid][b]:
                        reach[a][b] = True
    return {
        (vecs[a], vecs[b]) for a in range(k) for b in range(k) if reach[a][b]
    }


def roc_auc_by_pair_counting(scores, labels):
    """ROC-AUC as the literal fraction of correctly ordered pairs.

    O(n_pos * n_neg) double loop; ties earn half credit. The numerator is
    an exact half-integer, so the returned float is exact given the
    division.
    """
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == -1]
    if not pos or not neg:
        raise ValueError("need both classes")
    wins = 0
    ties = 0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1
            elif sp == sn:
                ties += 1
    return (wins + ties / 2.0) / (len(pos) * len(neg))


def roc_auc_pair_matrix(scores, labels):
    """Same pair counting as above, via one broadcast comparison matrix.

    Still literal O(n_pos * n_neg) pair enumeration (no ranks involved),
    just fast enough to run on a thousand instances. Counts are exact
    integers, so the result equals the scalar version bit for bit.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == -1]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("need both classes")
    wins = int((pos[:, None] > neg[None, :]).sum())
    ties = int((pos[:, None] == neg[None, :]).sum())
    return (wins + ties / 2.0) / (pos.size * neg.size)


def average_precision_rank_walk(scores, labels):
    """Average precision by walking the ranking one instance at a time.

    Valid only on tie-free score vectors. Uses the same float recurrence
    an implementation would (divide, subtract, multiply, accumulate), so
    on tie-free inputs the comparison can demand exact equality.
    """
    n = len(scores)
    order = sorted(range(n), key=lambda i: -scores[i])
    total_pos = sum(1 for y in labels if y == 1)
    if total_pos == 0:
        raise ValueError("need at least one positive")
    ap = 0.0
    recall_prev = 0.0
    cum_pos = 0
    for k, i in enumerate(order, start=1):
        if labels[i] == 1:
            cum_pos += 1
            recall = cum_pos / total_pos
            ap += (recall - recall_prev) * (cum_pos / k)
            recall_prev = recall
    return ap


def average_precision_tie_blocks(scores, labels):
    """Average precision with atomic tied blocks, walking one record at a time.

    Sorts by descending score (stable), then scans forward to the end of
    each run of equal scores and adds precision * recall-increment once
    per run, with a running float sum. Valid with or without ties.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    total_pos = int((labels == 1).sum())
    if total_pos == 0:
        raise ValueError("need at least one positive")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    n = s.size
    ap = 0.0
    recall_prev = 0.0
    cum_pos = 0
    i = 0
    while i < n:
        j = i + 1
        while j < n and s[j] == s[i]:
            j += 1
        cum_pos += int((y[i:j] == 1).sum())
        recall = cum_pos / total_pos
        precision = cum_pos / j
        ap += (recall - recall_prev) * precision
        recall_prev = recall
        i = j
    return ap


def simplex_grid(m, steps):
    """All grid points on the (m-1)-simplex with coordinates k/steps."""
    points = []
    for cuts in combinations(range(steps + m - 1), m - 1):
        counts = []
        prev = -1
        for c in cuts:
            counts.append(c - prev - 1)
            prev = c
        counts.append(steps + m - 2 - prev)
        points.append(np.array(counts, dtype=np.float64) / steps)
    return points


def min_on_simplex_grid(fun, m, steps):
    """Dense grid minimization over the simplex; returns (theta, value)."""
    best_theta = None
    best_value = np.inf
    for theta in simplex_grid(m, steps):
        value = fun(theta)
        if value < best_value:
            best_value = value
            best_theta = theta
    return best_theta, best_value


def min_on_2simplex_line(fun, steps):
    """1-D scan of the 2-simplex: theta = (1 - t, t) for t on a fine grid."""
    best_theta = None
    best_value = np.inf
    for t in np.linspace(0.0, 1.0, steps + 1):
        theta = np.array([1.0 - t, t])
        value = fun(theta)
        if value < best_value:
            best_value = value
            best_theta = theta
    return best_theta, best_value


def objective(
    theta: np.ndarray,
    constraints: ConstraintMatrix,
    dataset: Dataset,
    prior: Prior | None = None,
    config: WeapoConfig | None = None,
) -> tuple[float, dict[str, float]]:
    """Evaluate the full weapo objective and its per-term breakdown, with
    the hinge penalties summed over every covering constraint of
    ``constraints`` and the scores of every record.

    Returns ``(total, terms)`` with ``terms`` holding the regularizer,
    the summed hinge penalties, and the raw prior deviation (0 when the
    prior term is disabled). ``total`` is ``reg + hinge +
    prior_weight * prior``.
    """
    cfg = config if config is not None else WeapoConfig()
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (dataset.num_lfs,):
        raise ValueError(
            f"theta must have shape ({dataset.num_lfs},), got {theta.shape}"
        )
    if cfg.use_prior and prior is None:
        raise ValueError("config.use_prior is set but no prior was given")
    f = dataset.votes_matrix.astype(np.float64) @ theta
    reg = cfg.lambda_reg * float(theta @ theta)
    if constraints.num_rows:
        hinge = float(np.maximum(constraints.apply(f), 0.0).sum())
    else:
        hinge = 0.0
    if cfg.use_prior:
        prior_dev = abs(float(f.mean()) - prior.p_plus)
    else:
        prior_dev = 0.0
    total = reg + hinge + cfg.prior_weight * prior_dev
    return total, {"reg": reg, "hinge": hinge, "prior": prior_dev}


def dawid_skene_per_row(signed, p_init, max_iters=1000, tol=1e-6, smoothing=1.0):
    """Dawid-Skene EM over every row, one record at a time.

    Follows the model the package fits (abstain-as-negative naive Bayes
    with add-``smoothing`` counts, start from a blend of each record's
    positive-vote fraction and the prior, stop when the penalized
    objective rises by less than ``tol``, then canonicalize the classes)
    with scalar loops and ``math`` only. Returns the class prior,
    ``pos_fire[j] = P(vote_j = +1 | y = +1)``, ``neg_fire[j] = P(vote_j =
    +1 | y = -1)`` and the number of iterations.
    """
    rows = [[1 if v > 0 else 0 for v in row] for row in np.asarray(signed).tolist()]
    n, m = len(rows), len(rows[0])

    def m_step(resp):
        total = sum(resp)
        pos = [
            min(max((sum(r * row[j] for r, row in zip(resp, rows)) + smoothing)
                    / (total + 2 * smoothing), 0.0), 1.0)
            for j in range(m)
        ]
        neg = [
            min(max((sum((1 - r) * row[j] for r, row in zip(resp, rows)) + smoothing)
                    / (n - total + 2 * smoothing), 0.0), 1.0)
            for j in range(m)
        ]
        pi = min(max((total + smoothing) / (n + 2 * smoothing), 0.0), 1.0)
        return pi, pos, neg

    def log_term(v, rate):
        if v:
            return math.log(rate) if rate > 0 else -math.inf
        return math.log1p(-rate) if rate < 1 else -math.inf

    def scores(pi, pos, neg):
        lps, lns = [], []
        for row in rows:
            lps.append(math.log(pi) + sum(log_term(v, t) for v, t in zip(row, pos)))
            lns.append(math.log1p(-pi) + sum(log_term(v, f) for v, f in zip(row, neg)))
        return lps, lns

    def objective(pi, pos, neg):
        lps, lns = scores(pi, pos, neg)
        data = math.fsum(
            max(a, b) + math.log1p(math.exp(-abs(a - b))) for a, b in zip(lps, lns)
        )
        penalty = 0.0
        if smoothing > 0:
            penalty = smoothing * (
                math.log(pi) + math.log1p(-pi)
                + sum(math.log(t) + math.log1p(-t) for t in pos)
                + sum(math.log(f) + math.log1p(-f) for f in neg)
            )
        return data + penalty, lps, lns

    def responsibilities(lps, lns):
        return [1.0 / (1.0 + math.exp(b - a)) for a, b in zip(lps, lns)]

    pi, pos, neg = m_step([0.5 * sum(row) / m + 0.5 * p_init for row in rows])
    value, lps, lns = objective(pi, pos, neg)
    iterations = 0
    for t in range(1, max_iters + 1):
        iterations = t
        pi, pos, neg = m_step(responsibilities(lps, lns))
        new_value, lps, lns = objective(pi, pos, neg)
        improved = new_value - value
        value = new_value
        if improved < tol:
            break
    resp = responsibilities(lps, lns)
    mean_signed = [sum(2 * v - 1 for v in row) / m for row in rows]
    w_pos = sum(resp)
    w_neg = n - w_pos
    if w_pos > 0 and w_neg > 0:
        side_pos = sum(r * s for r, s in zip(resp, mean_signed)) / w_pos
        side_neg = sum((1 - r) * s for r, s in zip(resp, mean_signed)) / w_neg
        if side_pos < side_neg:
            pi, pos, neg = 1.0 - pi, neg, pos
    return pi, pos, neg, iterations


def rbf_kernel_three_temporaries(x, y, gamma):
    """The RBF kernel as a plain expression: squared distances, then the
    scaled copy, then its exponential, each a new array."""
    sq = (
        (x * x).sum(axis=1)[:, None]
        + (y * y).sum(axis=1)[None, :]
        - 2.0 * (x @ y.T)
    )
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-gamma * sq)


def ridge_system_with_identity(kernel, alpha):
    """``kernel + alpha * I`` with the identity spelled out."""
    return kernel + alpha * np.eye(kernel.shape[0])


def krr_coefficients_lu(kernel, alpha, targets):
    """Kernel ridge coefficients by one dense LU solve of
    ``kernel + alpha * I``."""
    return np.linalg.solve(ridge_system_with_identity(kernel, alpha), targets)


def signed_second_moments(signed):
    """Triplet-method moments over every record: ``S^T S / N`` in float64."""
    s = np.asarray(signed, dtype=np.float64)
    return (s.T @ s) / s.shape[0]


def compress_votes_void(votes):
    """Vote-pattern compression keyed by one void byte string per row.

    Each row is packed to bits and viewed as a fixed-width ``np.void``
    key; ``np.unique`` on those keys (a stable sort, so ``first`` holds
    first occurrences) gives the distinct rows, which are then put in
    first-occurrence order. Returns ``(rows, counts, inverse)``.
    """
    bits = np.asarray(votes) > 0
    packed = np.packbits(bits, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return bits[first[order]].astype(np.int8), counts[order], rank[inverse]


_PER_LINE_RECORD_KEYS = frozenset(("id", "votes", "features", "label"))
_PER_LINE_META_KEYS = frozenset(("num_lfs", "lf_names"))


def _per_line_meta(obj: dict, lineno: int) -> tuple[int | None, tuple[str, ...] | None]:
    meta = obj["meta"]
    if len(obj) != 1:
        raise DatasetFormatError(f"line {lineno}: the meta line holds only the meta key")
    if not isinstance(meta, dict):
        raise DatasetFormatError(f"line {lineno}: meta must be an object")
    if not meta.keys() <= _PER_LINE_META_KEYS:
        unknown = sorted(meta.keys() - _PER_LINE_META_KEYS)[0]
        raise DatasetFormatError(f"line {lineno}: unknown meta key {unknown!r}")
    num_lfs = meta.get("num_lfs")
    if num_lfs is not None and (type(num_lfs) is not int or num_lfs < 1):
        raise DatasetFormatError(f"line {lineno}: meta num_lfs must be a positive integer")
    names = meta.get("lf_names")
    if names is not None:
        if not isinstance(names, list) or not all(isinstance(s, str) for s in names):
            raise DatasetFormatError(f"line {lineno}: meta lf_names must be a list of strings")
        names = tuple(names)
    return num_lfs, names


class _PerLineColumns:
    """Record objects of one file, checked column by column.

    Each check runs over a whole column; only when it fails does a loop
    look for the first offending record, whose line number it reports.
    """

    def __init__(self, objs: list[dict], linenos: list[int]) -> None:
        self.objs = objs
        self.linenos = linenos

    def fail(self, index: int, message: str) -> NoReturn:
        raise DatasetFormatError(f"line {self.linenos[index]}: {message}")

    def required(self, key: str, kind: type, message: str) -> list:
        values = [obj.get(key) for obj in self.objs]
        if not set(map(type, values)) <= {kind}:
            i = next(i for i, v in enumerate(values) if type(v) is not kind)
            self.fail(i, f"missing key {key!r}" if key not in self.objs[i] else message)
        return values

    def optional(self, key: str) -> tuple[np.ndarray, list]:
        present = np.array([key in obj for obj in self.objs], dtype=bool)
        return present, [obj[key] for obj in self.objs if key in obj]

    def matrix(
        self, rows: list, width: int | None, kinds: set[type], dtype: type, noun: str
    ) -> np.ndarray:
        """Stack one list of numbers per record into an array, or name the
        first bad line. ``width`` is the required row length (the first
        row's when None).
        """
        message = f"{noun} must be a list of " + (
            "0/1 integers" if kinds == {int} else "finite numbers"
        )
        if not set(map(type, rows)) <= {list}:
            self.fail(next(i for i, r in enumerate(rows) if type(r) is not list), message)
        if width is None:
            width = len(rows[0]) if rows else 0
        lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
        if (lengths != width).any():
            i = int((lengths != width).argmax())
            self.fail(i, f"record has {lengths[i]} {noun}, expected {width}")
        if not set(map(type, chain.from_iterable(rows))) <= kinds:
            bad = next(i for i, r in enumerate(rows) if not set(map(type, r)) <= kinds)
            self.fail(bad, message)
        try:
            return np.array(rows, dtype=dtype).reshape(len(rows), width)
        except OverflowError:
            for i, row in enumerate(rows):
                try:
                    np.array(row, dtype=dtype)
                except OverflowError:
                    self.fail(i, message)
            raise


def load_dataset_per_line(path: str) -> Dataset:
    """Read a dataset from a JSON Lines file, one ``json.loads`` per line.

    The loader of ``weapo.data`` as it was before it parsed each line with
    ``raw_decode`` and checked record shapes by column, kept verbatim. Its
    errors name the line but not the file, except those of the
    ``Dataset`` constructor, the one piece it shares with the package.

    The first line may be a meta object ``{"meta": {"num_lfs": M,
    "lf_names": [...]}}``; every other line is one record object with keys
    ``id`` (a string), ``votes`` (a list of the integers 0 and 1), and
    optionally ``features`` (a list of finite numbers, on every record or
    on none) and ``label`` (the integer -1 or 1). Any other key, a JSON
    ``true``/``false`` or ``null`` where a number belongs, and a
    non-integer label are errors.

    Raises
    ------
    DatasetFormatError
        On malformed JSON, unknown keys, wrong JSON types, inconsistent
        vote or feature widths, or out-of-range values, each with the
        offending line number; on duplicate ids with the id.
    """
    objs: list[dict] = []
    linenos: list[int] = []
    declared_m: int | None = None
    lf_names: tuple[str, ...] | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                raise DatasetFormatError(f"line {lineno}: invalid JSON ({err.msg})") from None
            # json raises RecursionError on input nested deeper than the stack.
            except RecursionError as err:
                raise DatasetFormatError(f"line {lineno}: invalid JSON ({err})") from None
            if type(obj) is not dict:
                raise DatasetFormatError(f"line {lineno}: expected a JSON object")
            if not obj.keys() <= _PER_LINE_RECORD_KEYS:
                if "meta" not in obj:
                    unknown = sorted(obj.keys() - _PER_LINE_RECORD_KEYS)[0]
                    raise DatasetFormatError(f"line {lineno}: unknown record key {unknown!r}")
                if lineno != 1:
                    raise DatasetFormatError(f"line {lineno}: meta only allowed on line 1")
                declared_m, lf_names = _per_line_meta(obj, lineno)
                continue
            objs.append(obj)
            linenos.append(lineno)
    if declared_m is None and not objs:
        raise DatasetFormatError(f"{path}: no records and no meta line")
    cols = _PerLineColumns(objs, linenos)
    n = len(objs)
    ids = cols.required("id", str, "id must be a string")
    vote_rows = cols.required("votes", list, "votes must be a list of 0/1 integers")
    votes = cols.matrix(vote_rows, declared_m, {int}, np.int8, "votes")
    bad = ~((votes == 0) | (votes == 1)).all(axis=1)
    if bad.any():
        cols.fail(int(bad.argmax()), "votes must be a list of 0/1 integers")
    labelled, labels = cols.optional("label")
    gold = np.zeros(n, dtype=np.int8)
    if labels:
        where = np.flatnonzero(labelled)
        if not set(map(type, labels)) <= {int}:
            cols.fail(where[next(i for i, g in enumerate(labels) if type(g) is not int)],
                      "label must be the integer -1 or 1")
        bad = [g not in (-1, 1) for g in labels]
        if any(bad):
            cols.fail(where[bad.index(True)], "label must be the integer -1 or 1")
        gold[labelled] = labels
    featured, feature_rows = cols.optional("features")
    features = None
    if feature_rows:
        if not featured.all():
            cols.fail(int((featured != featured[0]).argmax()),
                      "record disagrees with the rest of the dataset on feature presence")
        features = cols.matrix(feature_rows, None, {int, float}, np.float64, "features")
        bad = ~np.isfinite(features).all(axis=1)
        if bad.any():
            cols.fail(int(bad.argmax()), "features must be a list of finite numbers")
    try:
        return Dataset(
            ids=tuple(ids),
            votes_matrix=votes,
            features_matrix=features,
            gold=gold,
            lf_names=lf_names,
        )
    except DatasetFormatError as err:
        raise DatasetFormatError(f"{path}: {err}") from None
