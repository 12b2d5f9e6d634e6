"""Covering order over vote vectors, slices and the slice-mean constraint matrix.

Vote vector ``v2`` covers ``v1`` when ``v2`` fires everywhere ``v1`` does
and strictly more somewhere: under positive-only voting, the extra
positive evidence can only raise the chance of the positive class. A
*slice* groups the covered records that share a vote vector: a non-zero
row of the dataset's ``VotePatterns``. The Hasse diagram is the transitive
reduction of the covering order restricted to the observed vectors; each
edge yields one linear constraint comparing slice mean scores, which
``ConstraintMatrix`` takes from the table's ``inverse`` and ``weights``.
``hasse_edges`` refuses more than ``MAX_HASSE_PATTERNS`` distinct vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .data import Dataset, VotePatterns, VoteVector

# hasse_edges holds about 10 * K**2 bytes of dense arrays for K distinct
# vectors: about 0.7 GB at this limit.
MAX_HASSE_PATTERNS = 2**13


@dataclass(frozen=True)
class SliceTable:
    """Covered records grouped by exact vote vector, as rows of a vote table.

    ``patterns`` is the dataset's ``VotePatterns``. ``slices`` maps each
    non-zero vote vector, in key order, to its row ``k`` in ``patterns``:
    the slice's records are those whose ``patterns.inverse`` is ``k``, and
    ``patterns.weights[k]`` counts them.
    """

    patterns: VotePatterns
    slices: dict[VoteVector, int]


def build_slices(dataset: Dataset) -> SliceTable:
    """The slices of ``dataset``: its non-zero vote rows, in key order
    (lexicographic, function 0 first), each keyed to its row index."""
    pats = dataset.patterns
    return SliceTable(
        patterns=pats,
        slices={tuple(row): k for k, row in enumerate(pats.rows.tolist()) if any(row)},
    )


@dataclass(frozen=True)
class HasseEdge:
    """One covering-order edge from a lower to a strictly higher vote vector."""

    low: VoteVector
    high: VoteVector


def _dominates(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Strict elementwise dominance of ``high`` over ``low`` along the last axis."""
    return (high >= low).all(axis=-1) & (high > low).any(axis=-1)


def covers(v_high: Sequence[int], v_low: Sequence[int]) -> bool:
    """True when ``v_high`` strictly dominates ``v_low`` elementwise.

    Every coordinate of ``v_high`` must be >= the matching coordinate of
    ``v_low``, with strict inequality somewhere. Raises ``ValueError`` on
    length mismatch.
    """
    if len(v_high) != len(v_low):
        raise ValueError(
            f"vote vectors have different lengths ({len(v_high)} vs {len(v_low)})"
        )
    return bool(_dominates(np.asarray(v_high), np.asarray(v_low)))


def hasse_edges(vectors: Iterable[VoteVector]) -> list[HasseEdge]:
    """Transitive reduction of the covering order on a set of vote vectors.

    ``vectors`` are the observed vote vectors, all of one length;
    duplicates are ignored. The edges ``low -> high`` are those where
    ``high`` covers ``low`` and no third observed vector sits strictly
    between them, sorted by ``(low, high)``. Raises ``ValueError`` on mixed
    lengths or at more than ``MAX_HASSE_PATTERNS`` distinct vectors.
    """
    unique = sorted({tuple(int(b) for b in v) for v in vectors})
    if len(unique) <= 1:
        return []
    lengths = {len(v) for v in unique}
    if len(lengths) != 1:
        raise ValueError(f"vote vectors have mixed lengths: {sorted(lengths)}")
    u = np.array(unique, dtype=np.int8)
    k = len(unique)
    if k > MAX_HASSE_PATTERNS:
        raise ValueError(
            f"the covering order of K = {k} distinct vote vectors exceeds the "
            f"limit of {MAX_HASSE_PATTERNS}"
        )
    # Entry (a, b) of the float32 product below counts the 2-step paths
    # a -> c -> b, at most K, and float32 holds every integer below 2**24,
    # far above the limit.
    # dom[a, b]: vector a strictly dominates vector b, built one row at a
    # time so the comparisons need O(K*M) scratch. The result is dense:
    # about 10*K^2 bytes at the peak (dom, its float32 copy, the float32
    # product and two_step), and the BLAS product takes O(K^3) time.
    dom = np.zeros((k, k), dtype=bool)
    for a in range(k):
        dom[a] = _dominates(u[a], u)
    # An edge survives the transitive reduction unless a 2-step path exists.
    f = dom.astype(np.float32)
    two_step = (f @ f) > 0
    keep = dom & ~two_step
    # Row-major order over keep.T walks the sorted ``unique`` by low, then
    # by high, so the edges come out sorted by (low, high).
    return [
        HasseEdge(low=unique[b], high=unique[a]) for b, a in zip(*np.nonzero(keep.T))
    ]


@dataclass(frozen=True, eq=False)
class ConstraintMatrix:
    """Sparse slice-mean difference operator, one row per Hasse edge.

    Row ``r`` represents ``mean(f over D_low) - mean(f over D_high)`` for
    edge ``low -> high``; feasible scorers satisfy ``apply(f) <= 0``. As a
    dense matrix it carries ``+1/|D_low|`` on the low slice members
    and ``-1/|D_high|`` on the high slice members, so each row sums to
    zero. It reads the slices from ``table``, the ``SliceTable`` it was
    built from.
    """

    table: SliceTable
    edges: tuple[HasseEdge, ...]

    @property
    def num_records(self) -> int:
        return len(self.table.patterns.inverse)

    @property
    def num_rows(self) -> int:
        return len(self.edges)

    def apply(self, scores: np.ndarray) -> np.ndarray:
        """Evaluate every row against a length-N score vector.

        Each slice mean is one sum of the scores in record order divided by
        the slice's record count, so a constant vector maps exactly to zero.
        """
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != (self.num_records,):
            raise ValueError(
                f"scores must have shape ({self.num_records},), got {scores.shape}"
            )
        pats, row = self.table.patterns, self.table.slices
        means = np.bincount(pats.inverse, scores, minlength=len(pats.weights)) / pats.weights
        return means[[row[e.low] for e in self.edges]] - means[[row[e.high] for e in self.edges]]


def constraint_matrix(slices: SliceTable, edges: Sequence[HasseEdge]) -> ConstraintMatrix:
    """Assemble the slice-mean constraint operator for a set of edges.

    Raises ``ValueError`` if an edge endpoint does not appear in the slice
    table.
    """
    for edge in edges:
        for name, vec in (("low", edge.low), ("high", edge.high)):
            if vec not in slices.slices:
                raise ValueError(f"edge {name} endpoint {vec} has no slice")
    return ConstraintMatrix(table=slices, edges=tuple(edges))
