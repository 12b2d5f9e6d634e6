"""Covering order, Hasse edge reduction, and the constraint operator."""

import numpy as np
import pytest

import weapo
from weapo import (
    Dataset,
    Record,
    build_slices,
    constraint_matrix,
    covers,
    hasse_edges,
)
from weapo.covering import HasseEdge

from oracles import closure_of_edges, covering_pairs_brute


def make_dataset(vote_rows):
    return Dataset.from_records(
        [Record(id=f"r{i}", votes=tuple(v)) for i, v in enumerate(vote_rows)]
    )


class TestCovers:
    def test_strict_dominance(self):
        assert covers([1, 1, 0], [1, 0, 0])

    def test_incomparable_both_ways(self):
        assert not covers([1, 1, 0], [0, 0, 1])
        assert not covers([0, 0, 1], [1, 1, 0])

    def test_irreflexive(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = tuple(int(b) for b in rng.integers(0, 2, 5))
            assert not covers(v, v)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths"):
            covers([1, 0], [1, 0, 0])

    def test_antisymmetric(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = tuple(int(b) for b in rng.integers(0, 2, 4))
            b = tuple(int(x) for x in rng.integers(0, 2, 4))
            assert not (covers(a, b) and covers(b, a))


class TestHasseEdges:
    def test_diamond(self):
        edges = hasse_edges([(1, 0), (0, 1), (1, 1)])
        assert edges == [
            HasseEdge(low=(0, 1), high=(1, 1)),
            HasseEdge(low=(1, 0), high=(1, 1)),
        ]

    def test_long_edge_survives_without_midpoint(self):
        """The reduction only removes edges implied by observed vectors."""
        edges = hasse_edges([(1, 0, 0), (1, 1, 1)])
        assert edges == [HasseEdge(low=(1, 0, 0), high=(1, 1, 1))]

    def test_singleton_and_empty(self):
        assert hasse_edges([(1, 0)]) == []
        assert hasse_edges([]) == []

    def test_duplicates_ignored(self):
        assert hasse_edges([(1, 0), (1, 0), (1, 1)]) == [
            HasseEdge(low=(1, 0), high=(1, 1))
        ]

    def test_deterministic_order(self):
        vecs = [(1, 1, 0), (0, 1, 1), (1, 1, 1), (0, 1, 0)]
        assert hasse_edges(vecs) == hasse_edges(reversed(vecs))

    def test_closure_equals_brute_force(self):
        """Transitive closure of the reduction is the full covering relation."""
        rng = np.random.default_rng(2)
        for _ in range(60):
            m = int(rng.integers(1, 7))
            count = int(rng.integers(1, min(2**m, 24) + 1))
            vecs = {
                tuple(int(b) for b in rng.integers(0, 2, m)) for _ in range(count)
            }
            vecs = {v for v in vecs if any(v)} or {(1,) * m}
            edges = hasse_edges(vecs)
            closure = closure_of_edges({(e.low, e.high) for e in edges}, vecs)
            assert closure == covering_pairs_brute(vecs)

    def test_pattern_limit(self, monkeypatch):
        """K at the limit is reduced; one more is refused with K and the
        limit named. The limit keeps the path counts exact in float32."""
        assert weapo.covering.MAX_HASSE_PATTERNS < 2**24
        monkeypatch.setattr(weapo.covering, "MAX_HASSE_PATTERNS", 3)
        assert hasse_edges([(1, 0), (1, 1), (0, 1), (1, 0)]) == [
            HasseEdge(low=(0, 1), high=(1, 1)), HasseEdge(low=(1, 0), high=(1, 1))
        ]
        with pytest.raises(ValueError, match=r"K = 4 .*limit of 3"):
            hasse_edges([(1, 0), (1, 1), (0, 1), (0, 0)])


def dense_rows(cm):
    """The dense (num_rows, N) coefficients of ``cm``, one column per unit vector."""
    return np.array([cm.apply(unit) for unit in np.eye(cm.num_records)]).T


class TestConstraintMatrix:
    def test_row_coefficients_by_hand(self):
        """Edge from a singleton slice to a two-record slice."""
        ds = make_dataset([(1, 1), (1, 1), (1, 0)])
        table = build_slices(ds)
        cm = constraint_matrix(table, [HasseEdge(low=(1, 0), high=(1, 1))])
        dense = dense_rows(cm)
        np.testing.assert_allclose(dense[0], [-0.5, -0.5, 1.0])
        np.testing.assert_allclose(dense, [[-0.5, -0.5, 1.0]])

    def test_rows_kill_constant_scores(self):
        ds = make_dataset([(1, 1), (1, 1), (1, 0), (0, 1), (0, 0)])
        table = build_slices(ds)
        cm = constraint_matrix(table, hasse_edges(table.slices.keys()))
        assert cm.num_rows > 0
        out = cm.apply(np.ones(5))
        assert (out == 0.0).all()

    def test_apply_matches_dense(self):
        rng = np.random.default_rng(3)
        ds = make_dataset([tuple(r) for r in rng.integers(0, 2, (60, 4))])
        table = build_slices(ds)
        cm = constraint_matrix(table, hasse_edges(table.slices.keys()))
        scores = rng.normal(size=60)
        np.testing.assert_allclose(cm.apply(scores), dense_rows(cm) @ scores, atol=1e-12)

    def test_missing_endpoint_rejected(self):
        ds = make_dataset([(1, 1), (1, 0)])
        table = build_slices(ds)
        with pytest.raises(ValueError, match="has no slice"):
            constraint_matrix(table, [HasseEdge(low=(0, 1), high=(1, 1))])

    def test_empty_edges_vacuous(self):
        ds = make_dataset([(1, 0)])
        cm = constraint_matrix(build_slices(ds), [])
        assert cm.num_rows == 0
        assert cm.apply(np.zeros(1)).shape == (0,)

    def test_monotone_scores_feasible(self):
        """Any score monotone in the covering order satisfies apply(f) <= 0."""
        rng = np.random.default_rng(4)
        for _ in range(20):
            ds = make_dataset([tuple(r) for r in rng.integers(0, 2, (40, 3))])
            table = build_slices(ds)
            if not table.slices:
                continue
            cm = constraint_matrix(table, hasse_edges(table.slices.keys()))
            weights = rng.random(3)
            scores = ds.votes_matrix.astype(float) @ weights
            assert (cm.apply(scores) <= 1e-12).all()


def test_slices_live_in_the_covering_module():
    for module in (weapo.data, weapo.model):
        assert not hasattr(module, "build_slices")
        assert not hasattr(module, "SliceTable")
    assert weapo.build_slices is weapo.covering.build_slices
    assert weapo.SliceTable is weapo.covering.SliceTable
