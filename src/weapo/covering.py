"""Covering order over vote vectors, slices and the slice-mean constraint matrix.

Vote vector ``v2`` covers ``v1`` when ``v2`` fires everywhere ``v1`` does
and strictly more somewhere: under positive-only voting, the extra
positive evidence can only raise the chance of the positive class. A
*slice* groups the covered records that share a vote vector. The Hasse
diagram is the transitive reduction of the covering order restricted to
the observed vectors; each edge yields one linear constraint comparing
slice mean scores. ``hasse_edges`` refuses more than
``MAX_HASSE_PATTERNS`` distinct vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .data import Dataset, VoteVector

# hasse_edges holds about 9 * K**2 bytes of dense arrays for K distinct
# vectors: about 0.6 GB at this limit.
MAX_HASSE_PATTERNS = 2**13


@dataclass(frozen=True)
class SliceTable:
    """Covered records grouped by exact vote vector.

    ``slices`` maps each observed non-zero vote vector to the indices of
    records carrying it, in dataset order; ``uncovered`` lists the indices
    of all-abstain records. Together they partition ``range(num_records)``.
    """

    slices: dict[VoteVector, tuple[int, ...]]
    uncovered: tuple[int, ...]
    num_records: int


def build_slices(dataset: Dataset) -> SliceTable:
    """Group covered records by vote vector.

    Parameters
    ----------
    dataset : Dataset

    Returns
    -------
    SliceTable
        Slice keys appear in first-occurrence order; member index lists
        follow dataset record order.
    """
    pats = dataset.patterns
    members = np.split(np.argsort(pats.inverse, kind="stable"), np.cumsum(pats.counts)[:-1])
    slices: dict[VoteVector, tuple[int, ...]] = {}
    uncovered: tuple[int, ...] = ()
    for row, group in zip(pats.rows.tolist(), members):
        if any(row):
            slices[tuple(row)] = tuple(group.tolist())
        else:
            uncovered = tuple(group.tolist())
    return SliceTable(slices=slices, uncovered=uncovered, num_records=len(dataset))


@dataclass(frozen=True)
class HasseEdge:
    """One covering-order edge from a lower to a strictly higher vote vector."""

    low: VoteVector
    high: VoteVector


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
    ge = all(h >= l for h, l in zip(v_high, v_low))
    return ge and any(h > l for h, l in zip(v_high, v_low))


def hasse_edges(vectors: Iterable[VoteVector]) -> list[HasseEdge]:
    """Transitive reduction of the covering order on a set of vote vectors.

    Parameters
    ----------
    vectors : iterable of VoteVector
        Observed vote vectors; duplicates are ignored. All must share one
        length.

    Returns
    -------
    list of HasseEdge
        Edges ``low -> high`` such that ``high`` covers ``low`` and no
        third observed vector sits strictly between them. Sorted by
        ``(low, high)`` so the output is deterministic.

    Raises ``ValueError`` on mixed lengths or at more than
    ``MAX_HASSE_PATTERNS`` distinct vectors.
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
    # about 9*K^2 bytes in all (dom, its float32 copy and the product),
    # and the BLAS product takes O(K^3) time.
    dom = np.zeros((k, k), dtype=bool)
    for a in range(k):
        ge = (u[a] >= u).all(axis=1)
        gt = (u[a] > u).any(axis=1)
        dom[a] = ge & gt
    # An edge survives the transitive reduction unless a 2-step path exists.
    f = dom.astype(np.float32)
    two_step = (f @ f) > 0
    keep = dom & ~two_step
    edges = [
        HasseEdge(low=unique[b], high=unique[a]) for a, b in zip(*np.nonzero(keep))
    ]
    edges.sort(key=lambda e: (e.low, e.high))
    return edges


@dataclass(frozen=True, eq=False)
class ConstraintMatrix:
    """Sparse slice-mean difference operator, one row per Hasse edge.

    Row ``r`` represents ``mean(f over D_low) - mean(f over D_high)`` for
    edge ``low -> high``; feasible scorers satisfy ``apply(f) <= 0``. As a
    dense matrix it carries ``+1/|D_low|`` on the low slice members
    and ``-1/|D_high|`` on the high slice members, so each row sums to
    zero.
    """

    num_records: int
    edges: tuple[HasseEdge, ...]
    low_members: tuple[np.ndarray, ...]
    high_members: tuple[np.ndarray, ...]

    @property
    def num_rows(self) -> int:
        return len(self.edges)

    def apply(self, scores: np.ndarray) -> np.ndarray:
        """Evaluate every row against a length-N score vector.

        Computed as a difference of group means, which makes the product
        with a constant vector exactly zero.
        """
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != (self.num_records,):
            raise ValueError(
                f"scores must have shape ({self.num_records},), got {scores.shape}"
            )
        out = np.empty(self.num_rows, dtype=np.float64)
        for r in range(self.num_rows):
            out[r] = scores[self.low_members[r]].mean() - scores[self.high_members[r]].mean()
        return out


def constraint_matrix(slices: SliceTable, edges: Sequence[HasseEdge]) -> ConstraintMatrix:
    """Assemble the slice-mean constraint operator for a set of edges.

    Raises ``ValueError`` if an edge endpoint does not appear in the slice
    table.
    """
    low_members: list[np.ndarray] = []
    high_members: list[np.ndarray] = []
    for edge in edges:
        for name, vec in (("low", edge.low), ("high", edge.high)):
            if vec not in slices.slices:
                raise ValueError(f"edge {name} endpoint {vec} has no slice")
        low_members.append(np.array(slices.slices[edge.low], dtype=np.intp))
        high_members.append(np.array(slices.slices[edge.high], dtype=np.intp))
    return ConstraintMatrix(
        num_records=slices.num_records,
        edges=tuple(edges),
        low_members=tuple(low_members),
        high_members=tuple(high_members),
    )
