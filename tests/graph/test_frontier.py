"""Shared CSR frontier kernels vs naive references."""

import numpy as np
import pytest

from repro.graph.arena import ScratchArena
from repro.graph.csr import (
    dedup_pairs,
    dedup_pairs_dense,
    expand_frontier,
    propagate_mass,
)
from repro.graph.generators import chung_lu


@pytest.fixture
def skewed_graph():
    """A small power-law digraph including zero-out-degree vertices."""
    return chung_lu(200, avg_degree=6.0, exponent=2.0, seed=42)


def naive_expand(graph, verts):
    """Reference: per-frontier-vertex python loop over CSR slices."""
    arc_positions = []
    for v in verts:
        arc_positions.extend(range(graph.indptr[v], graph.indptr[v + 1]))
    return np.asarray(arc_positions, dtype=np.int64)


class TestExpandFrontier:
    def test_matches_naive(self, skewed_graph):
        rng = np.random.default_rng(3)
        scratch = ScratchArena()
        for trial in range(10):
            verts = rng.choice(
                skewed_graph.num_vertices, size=30, replace=False
            ).astype(np.int64)
            arc_pos, counts, kept = expand_frontier(
                skewed_graph, verts, scratch
            )
            np.testing.assert_array_equal(
                arc_pos, naive_expand(skewed_graph, verts)
            )
            # counts covers the kept (non-zero-degree) vertices only.
            survivors = verts if kept is None else verts[kept]
            np.testing.assert_array_equal(
                counts, skewed_graph.degrees[survivors]
            )
            assert int(counts.sum()) == arc_pos.size

    def test_zero_degree_vertices_filtered(self, skewed_graph):
        degrees = skewed_graph.degrees
        zeros = np.flatnonzero(degrees == 0)
        assert zeros.size > 0, "fixture should contain sinks"
        verts = np.concatenate([zeros[:2], np.flatnonzero(degrees > 0)[:3]])
        arc_pos, counts, kept = expand_frontier(skewed_graph, verts)
        assert kept is not None
        np.testing.assert_array_equal(
            arc_pos, naive_expand(skewed_graph, verts)
        )
        assert counts.min() > 0

    def test_empty_frontier(self, skewed_graph):
        arc_pos, counts, _kept = expand_frontier(
            skewed_graph, np.empty(0, dtype=np.int64)
        )
        assert arc_pos.size == 0
        assert counts.size == 0

    def test_scratch_buffer_grows_and_reuses(self):
        scratch = ScratchArena()
        small = scratch.arange(4)
        np.testing.assert_array_equal(small, np.arange(4))
        big = scratch.arange(100)
        np.testing.assert_array_equal(big, np.arange(100))
        again = scratch.arange(50)
        assert again.base is scratch.arange(50).base  # same backing buffer


class TestDedupPairs:
    def test_matches_np_unique(self):
        rng = np.random.default_rng(9)
        rows = rng.integers(0, 8, size=500).astype(np.int64)
        cols = rng.integers(0, 40, size=500).astype(np.int64)
        ur, uc = dedup_pairs(rows.copy(), cols, 40)
        keys = np.unique(rows * 40 + cols)
        np.testing.assert_array_equal(ur, keys // 40)
        np.testing.assert_array_equal(uc, keys % 40)

    def test_dense_matches_sort_based(self):
        rng = np.random.default_rng(10)
        rows = rng.integers(0, 8, size=500).astype(np.int64)
        cols = rng.integers(0, 40, size=500).astype(np.int64)
        mask = np.zeros((8, 40), dtype=bool)
        dr, dc = dedup_pairs_dense(rows, cols, mask)
        sr, sc = dedup_pairs(rows.copy(), cols, 40)
        np.testing.assert_array_equal(dr, sr)
        np.testing.assert_array_equal(dc, sc)
        assert not mask.any(), "dense dedup must leave the mask cleared"

    def test_empty(self):
        empty = np.empty(0, dtype=np.int64)
        ur, uc = dedup_pairs(empty, empty, 10)
        assert ur.size == 0 and uc.size == 0


class TestPropagateMass:
    def test_matches_naive(self, skewed_graph):
        rng = np.random.default_rng(5)
        per_vertex = rng.random(skewed_graph.num_vertices)
        got = propagate_mass(skewed_graph, per_vertex)
        expected = np.zeros(skewed_graph.num_vertices)
        for v in range(skewed_graph.num_vertices):
            for pos in range(
                skewed_graph.indptr[v], skewed_graph.indptr[v + 1]
            ):
                expected[skewed_graph.indices[pos]] += per_vertex[v]
        np.testing.assert_allclose(got, expected)
