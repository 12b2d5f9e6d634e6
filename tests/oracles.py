"""Independent reference implementations used to pin expected values.

Everything here is deliberately written the slow, obvious way: nested
loops, explicit rank walks, dense grid searches. Nothing is shared with
the package under test, so agreement between the two is evidence rather
than tautology; the reference loader shares only the ``Dataset`` it
returns and its constructor's checks, ``slice_mean_differences`` reads
only a ``Dataset``'s votes matrix, and ``objective`` and
``objective_values`` sum hinge penalties through the package's
``ConstraintMatrix.apply``. ``make_dataset``, the tests' builder of small
vote-only datasets, is no reference: it builds through the package's
``Dataset.from_records``.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations
from typing import NoReturn

import numpy as np

from weapo import Dataset, DatasetFormatError, Prior, Record, WeapoConfig
from weapo.covering import ConstraintMatrix


def make_dataset(vote_rows, **kwargs) -> Dataset:
    """A dataset of one record a vote row, with ids ``r0``, ``r1``, ...;
    ``kwargs`` go to ``Dataset.from_records``."""
    return Dataset.from_records(
        [Record(id=f"r{i}", votes=tuple(v)) for i, v in enumerate(vote_rows)], **kwargs
    )


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


def slice_mean_differences(dataset, edges, scores):
    """``mean(scores over D_low) - mean(scores over D_high)`` for each
    edge, one edge at a time, as float64.

    A slice's records are found by comparing every row of
    ``dataset.votes_matrix`` with the edge's end, and their scores are
    summed with a plain float loop in record order.
    """
    rows = [tuple(int(b) for b in row) for row in dataset.votes_matrix.tolist()]

    def mean(vector):
        total, count = 0.0, 0
        for row, score in zip(rows, scores):
            if row == vector:
                total += float(score)
                count += 1
        return total / count

    return np.array([mean(e.low) - mean(e.high) for e in edges], dtype=np.float64)


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
    """1-D scan of the 2-simplex: theta = (1 - t, t) for t on a fine grid.

    ``fun`` maps a (k, 2) array of such thetas to their k values; the grid
    is evaluated 10 000 points at a time. Returns the first minimizer and
    its value.
    """
    best_theta = None
    best_value = np.inf
    grid = np.linspace(0.0, 1.0, steps + 1)
    for start in range(0, grid.size, 10_000):
        t = grid[start : start + 10_000]
        thetas = np.column_stack([1.0 - t, t])
        values = fun(thetas)
        i = int(np.argmin(values))
        if values[i] < best_value:
            best_value = float(values[i])
            best_theta = thetas[i]
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


def objective_values(
    thetas: np.ndarray,
    constraints: ConstraintMatrix,
    dataset: Dataset,
    prior: Prior | None = None,
    config: WeapoConfig | None = None,
) -> np.ndarray:
    """``objective``'s total at each row of the (k, M) array ``thetas``.

    The scores, every constraint's value and the mean score are linear in
    theta, so each is taken once per labeling function, the constraints
    through ``ConstraintMatrix.apply``, and combined for all rows at once.
    The totals equal ``objective``'s up to rounding.
    """
    cfg = config if config is not None else WeapoConfig()
    if cfg.use_prior and prior is None:
        raise ValueError("config.use_prior is set but no prior was given")
    thetas = np.asarray(thetas, dtype=np.float64)
    votes = dataset.votes_matrix.astype(np.float64)
    reg = cfg.lambda_reg * (thetas * thetas).sum(axis=1)
    hinge = 0.0
    if constraints.num_rows:
        per_function = np.array([constraints.apply(column) for column in votes.T])
        hinge = np.maximum(thetas @ per_function, 0.0).sum(axis=1)
    prior_dev = np.abs(thetas @ votes.mean(axis=0) - prior.p_plus) if cfg.use_prior else 0.0
    return reg + hinge + cfg.prior_weight * prior_dev


def weapo_by_supports(a, p, ratio):
    """The minimizer of ``|theta|^2 + ratio*|a.theta - p|`` on the simplex,
    in exact rational arithmetic, by enumerating supports.

    ``ratio`` is positive, or ``inf`` for a zero regularizer, where the
    minimizer is the least-norm theta of least ``|a.theta - p|``. On a
    support S of size k, stationarity gives ``theta_S = 1/k +
    t*(mean_S - a_S)`` for the dual value t of the prior term, with
    ``|t| <= ratio/2``, and ``a.theta = mean_S - t*k*Var_S``. So the
    minimizer is, for some S, the point where ``a.theta = p`` (the uniform
    weight on S when ``Var_S`` is 0) or the point at ``t = +-ratio/2``.
    Every such candidate in the simplex is scored and the least objective
    kept; the objective is strictly convex, so that one is the minimizer.
    Returns theta as float64.
    """
    a = [Fraction(float(x)) for x in a]
    p = Fraction(float(p))
    finite = math.isfinite(ratio)
    best, best_key = None, None
    for size in range(1, len(a) + 1):
        for support in combinations(range(len(a)), size):
            mean = sum(a[j] for j in support) / size
            k_var = sum((a[j] - mean) ** 2 for j in support)
            duals = [(mean - p) / k_var if k_var else Fraction(0)]
            if finite:
                duals += [Fraction(ratio) / 2, -Fraction(ratio) / 2]
            for t in duals:
                theta = [Fraction(0)] * len(a)
                for j in support:
                    theta[j] = Fraction(1, size) + t * (mean - a[j])
                if min(theta) < 0:
                    continue
                norm = sum(x * x for x in theta)
                deviation = abs(sum(x * y for x, y in zip(a, theta)) - p)
                key = (norm + Fraction(ratio) * deviation,) if finite else (deviation, norm)
                if best_key is None or key < best_key:
                    best, best_key = theta, key
    return np.array([float(x) for x in best])


def simplex_projection_by_bisection(w):
    """The Euclidean projection of ``w`` onto the probability simplex,
    ``max(w_j - tau, 0)`` with tau the root of ``sum_j max(w_j - tau, 0)
    = 1``, found by bisection: the sum falls as tau grows, from at least
    1 at ``min w - 1`` to 0 at ``max w``, and the bracket is halved until
    its midpoint rounds to one of its ends. Returns float64."""
    w = [float(x) for x in w]
    low, high = min(w) - 1.0, max(w)
    while low < (mid := (low + high) / 2) < high:
        if sum(max(x - mid, 0.0) for x in w) > 1.0:
            low = mid
        else:
            high = mid
    return np.array([max(x - low, 0.0) for x in w])


def dawid_skene_per_row(signed, p_init, max_iters=1000, tol=1e-6, smoothing=1.0):
    """Dawid-Skene EM over every row, one record at a time.

    Follows the model the package fits (abstain-as-negative naive Bayes
    with add-``smoothing`` counts, start from a blend of each record's
    positive-vote fraction and the prior, stop when the penalized
    objective rises by less than ``tol``, then canonicalize the classes,
    the minority class +1 when their mean signed votes are within 1e-9)
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
        gap = side_pos - side_neg
        if gap < -1e-9 or (abs(gap) <= 1e-9 and pi > 0.5):
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
    key; ``np.unique`` on those keys compares them byte by byte, so it
    gives the distinct rows in lexicographic order, function 0 first.
    Returns ``(rows, counts, inverse)``, the counts as float64 weights.
    """
    bits = np.asarray(votes) > 0
    packed = np.packbits(bits, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    return bits[first].astype(np.int8), counts.astype(np.float64), inverse


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
    if "num_lfs" in meta and (type(num_lfs) is not int or num_lfs < 1):
        raise DatasetFormatError(f"line {lineno}: meta num_lfs must be a positive integer")
    names = meta.get("lf_names")
    if "lf_names" in meta:
        if not isinstance(names, list) or not all(isinstance(s, str) for s in names):
            raise DatasetFormatError(f"line {lineno}: meta lf_names must be a list of strings")
        names = tuple(names)
    return num_lfs, names


def _finite_number(value: int | float) -> bool:
    """Whether a JSON number is a finite float; an integer too large for a
    float is not."""
    try:
        return math.isfinite(float(value))
    except OverflowError:
        return False


def load_dataset_per_line(path: str) -> Dataset:
    """Read a dataset from a JSON Lines file, one ``json.loads`` per line.

    The reference for ``weapo.data.load_dataset``. Every line is parsed
    before any record is checked; then each check is one plain loop over
    the records, in the order ``load_dataset`` documents: record shape;
    id; votes (a list, its width, its elements' types, their range);
    label (its type, its value); features (on every record or on none, a
    list, its width, its elements' types, their finiteness). The first
    record a check refuses is named by its line. Its errors name the file
    only where the ``Dataset`` constructor, the one piece it shares with
    the package, refuses.

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
    records: list[tuple[int, object]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                records.append((lineno, json.loads(line)))
            except json.JSONDecodeError as err:
                raise DatasetFormatError(f"line {lineno}: invalid JSON ({err.msg})") from None
            # json raises RecursionError on input nested deeper than the stack.
            except RecursionError as err:
                raise DatasetFormatError(f"line {lineno}: invalid JSON ({err})") from None
    declared_m: int | None = None
    lf_names: tuple[str, ...] | None = None
    if records and records[0][0] == 1 and type(records[0][1]) is dict and "meta" in records[0][1]:
        declared_m, lf_names = _per_line_meta(records.pop(0)[1], 1)
    if declared_m is None and not records:
        raise DatasetFormatError(f"{path}: no records and no meta line")

    def fail(index: int, message: str) -> NoReturn:
        raise DatasetFormatError(f"line {records[index][0]}: {message}")

    objs = [obj for _, obj in records]
    for i, obj in enumerate(objs):
        if type(obj) is not dict:
            fail(i, "expected a JSON object")
        if not obj.keys() <= _PER_LINE_RECORD_KEYS:
            if "meta" in obj:
                fail(i, "meta only allowed on line 1")
            fail(i, f"unknown record key {sorted(obj.keys() - _PER_LINE_RECORD_KEYS)[0]!r}")

    for i, obj in enumerate(objs):
        if "id" not in obj:
            fail(i, "missing key 'id'")
        if type(obj["id"]) is not str:
            fail(i, "id must be a string")
    ids = [obj["id"] for obj in objs]

    message = "votes must be a list of 0/1 integers"
    for i, obj in enumerate(objs):
        if "votes" not in obj:
            fail(i, "missing key 'votes'")
        if type(obj["votes"]) is not list:
            fail(i, message)
    width = declared_m if declared_m is not None else len(objs[0]["votes"])
    for i, obj in enumerate(objs):
        if len(obj["votes"]) != width:
            fail(i, f"record has {len(obj['votes'])} votes, expected {width}")
    for i, obj in enumerate(objs):
        if any(type(vote) is not int for vote in obj["votes"]):
            fail(i, message)
    for i, obj in enumerate(objs):
        if any(vote not in (0, 1) for vote in obj["votes"]):
            fail(i, message)
    votes = np.array([obj["votes"] for obj in objs], dtype=np.int8).reshape(len(objs), width)

    message = "label must be the integer -1 or 1"
    for i, obj in enumerate(objs):
        if "label" in obj and type(obj["label"]) is not int:
            fail(i, message)
    for i, obj in enumerate(objs):
        if obj.get("label", 1) not in (-1, 1):
            fail(i, message)
    gold = np.array([obj.get("label", 0) for obj in objs], dtype=np.int8)

    features = None
    featured = ["features" in obj for obj in objs]
    if any(featured):
        for i, has in enumerate(featured):
            if has != featured[0]:
                fail(i, "record disagrees with the rest of the dataset on feature presence")
        message = "features must be a list of finite numbers"
        for i, obj in enumerate(objs):
            if type(obj["features"]) is not list:
                fail(i, message)
        width = len(objs[0]["features"])
        for i, obj in enumerate(objs):
            if len(obj["features"]) != width:
                fail(i, f"record has {len(obj['features'])} features, expected {width}")
        for i, obj in enumerate(objs):
            if any(type(value) not in (int, float) for value in obj["features"]):
                fail(i, message)
        for i, obj in enumerate(objs):
            if not all(map(_finite_number, obj["features"])):
                fail(i, message)
        features = np.array([obj["features"] for obj in objs], dtype=np.float64)
        features = features.reshape(len(objs), width)
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
