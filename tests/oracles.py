"""Independent reference implementations used to pin expected values.

Everything here is deliberately written the slow, obvious way: nested
loops, explicit rank walks, dense grid searches. Nothing is shared with
the package under test, so agreement between the two is evidence rather
than tautology.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np


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


def dawid_skene_per_row(signed, p_init, max_iters=100, tol=1e-6, smoothing=1.0):
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
