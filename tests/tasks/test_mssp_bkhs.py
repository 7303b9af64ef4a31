"""Correctness tests for MSSP and BKHS kernels against references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.build import from_edges
from repro.graph.csr import Graph, iter_frontier_blocks
from repro.graph.generators import chain, chung_lu, grid_2d
from repro.graph.mirrors import build_mirror_plan
from repro.graph.partition import hash_partition
from repro.messages.routing import BroadcastRouter, PointToPointRouter
from repro.rng import make_rng
from repro.tasks import bkhs as bkhs_module
from repro.tasks import mssp as mssp_module
from repro.tasks.bkhs import BKHSKernel, bkhs_task
from repro.tasks.exact import (
    bfs_distances,
    dijkstra_distances,
    k_hop_set,
    shortest_path_distances,
)
from repro.tasks.mssp import MSSPKernel, mssp_task


def run_kernel(kernel, workload):
    kernel.start_batch(workload)
    for _ in range(100_000):
        if kernel.step().done:
            break
    return kernel


def router_for(graph, machines=4):
    partition = hash_partition(graph, machines)
    plan = build_mirror_plan(graph, partition)
    return PointToPointRouter(graph, plan)


def unit_weight_twin(graph):
    """``graph`` with explicit all-ones weights: same arcs, same
    distances, but MSSP runs the weighted min-scatter round on it."""
    return Graph(
        graph.indptr,
        graph.indices,
        np.ones(graph.num_arcs),
        directed=graph.directed,
        name=graph.name,
    )


def mssp_trace(graph, workload, seed=2, **params):
    """Every round's summary and residual of one MSSP batch, plus the
    final distance rows as bytes."""
    kernel = MSSPKernel(
        graph, router_for(graph, 2), make_rng(seed), sample_limit=None,
        **params,
    )
    kernel.start_batch(workload)
    rounds = [(None, kernel.residual_bytes())]
    for _ in range(10_000):
        summary = kernel.step()
        rounds.append((summary, kernel.residual_bytes()))
        if summary.done:
            break
    return rounds, {
        source: dist.tobytes() for source, dist in kernel.result.items()
    }


class TestMSSPCorrectness:
    def test_unweighted_matches_bfs(self):
        graph = chung_lu(150, 6.0, seed=5)
        kernel = MSSPKernel(
            graph, router_for(graph), make_rng(2), sample_limit=None
        )
        run_kernel(kernel, 10)
        for source, dist in kernel.result.items():
            np.testing.assert_array_equal(
                dist, bfs_distances(graph, source)
            )

    def test_weighted_matches_dijkstra(self, weighted_graph):
        kernel = MSSPKernel(
            weighted_graph,
            router_for(weighted_graph, 2),
            make_rng(2),
            sample_limit=None,
        )
        run_kernel(kernel, 3)
        for source, dist in kernel.result.items():
            np.testing.assert_allclose(
                dist, dijkstra_distances(weighted_graph, source)
            )

    def test_chain_distances(self):
        graph = chain(20, directed=False)
        kernel = MSSPKernel(
            graph, router_for(graph, 2), make_rng(0), sample_limit=None
        )
        run_kernel(kernel, 5)
        for source, dist in kernel.result.items():
            expected = np.abs(np.arange(20) - source).astype(float)
            np.testing.assert_array_equal(dist, expected)

    def test_rounds_track_eccentricity(self):
        graph = grid_2d(6, 6, directed=False)
        kernel = MSSPKernel(
            graph, router_for(graph, 2), make_rng(0), sample_limit=1
        )
        run_kernel(kernel, 1)
        source = next(iter(kernel.result))
        ecc = int(
            np.max(kernel.result[source][np.isfinite(kernel.result[source])])
        )
        # One relaxation round per BFS level + the terminating round.
        assert kernel.round_index == ecc + 1

    def test_sampling_scales_counts(self):
        graph = chung_lu(150, 6.0, seed=5)
        limited = MSSPKernel(
            graph, router_for(graph), make_rng(2), sample_limit=4
        )
        limited.start_batch(40)
        full = MSSPKernel(
            graph, router_for(graph), make_rng(2), sample_limit=None
        )
        full.start_batch(40)
        lim_first = limited.step()
        full_first = full.step()
        assert limited._scale == pytest.approx(10.0)
        # Scaled counts approximate the full simulation's round-1 load.
        assert lim_first.wire_messages == pytest.approx(
            full_first.wire_messages, rel=0.6
        )

    def test_unreachable_stays_infinite(self):
        graph = from_edges(
            np.array([0]), np.array([1]), num_vertices=4
        )  # vertices 2, 3 unreachable from 0
        kernel = MSSPKernel(
            graph, router_for(graph, 2), make_rng(0), sample_limit=None
        )
        kernel.start_batch(4)
        # Force source set to include 0 for determinism of the check.
        for _ in range(100):
            if kernel.step().done:
                break
        for source, dist in kernel.result.items():
            expected = shortest_path_distances(graph, source)
            np.testing.assert_array_equal(dist, expected)


class TestBKHSCorrectness:
    def test_counts_match_bruteforce(self):
        graph = chung_lu(120, 5.0, seed=9)
        kernel = BKHSKernel(
            graph, router_for(graph), make_rng(3), k=2, sample_limit=None
        )
        run_kernel(kernel, 8)
        for source, count in kernel.result.items():
            assert count == int(k_hop_set(graph, source, 2).sum())

    def test_reachable_sets_match(self):
        graph = grid_2d(5, 5, directed=False)
        kernel = BKHSKernel(
            graph, router_for(graph, 2), make_rng(3), k=3, sample_limit=None
        )
        run_kernel(kernel, 4)
        for source, mask in kernel.reachable_sets().items():
            np.testing.assert_array_equal(
                mask, k_hop_set(graph, source, 3)
            )

    def test_fixed_round_count(self):
        graph = chung_lu(100, 6.0, seed=4)
        for k in (1, 2, 4):
            kernel = BKHSKernel(
                graph, router_for(graph), make_rng(3), k=k, sample_limit=4
            )
            run_kernel(kernel, 4)
            assert kernel.round_index == k + 1

    def test_k_must_be_positive(self):
        graph = chain(5)
        with pytest.raises(Exception):
            BKHSKernel(graph, router_for(graph, 2), make_rng(0), k=0)

    def test_broadcast_router_accepted(self):
        graph = chung_lu(100, 6.0, seed=4)
        partition = hash_partition(graph, 4)
        plan = build_mirror_plan(graph, partition, degree_threshold=10)
        router = BroadcastRouter(graph, plan)
        kernel = BKHSKernel(graph, router, make_rng(3), k=2, sample_limit=4)
        run_kernel(kernel, 4)
        for source, count in kernel.result.items():
            assert count == int(k_hop_set(graph, source, 2).sum())


class TestTaskSpecs:
    def test_mssp_task(self, random_graph):
        task = mssp_task(random_graph, 64)
        assert task.name == "mssp"
        assert task.params["sample_limit"] == 64

    def test_bkhs_task(self, random_graph):
        task = bkhs_task(random_graph, 64, k=3)
        assert task.params["k"] == 3


@given(
    st.integers(min_value=2, max_value=30),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=30, deadline=None)
def test_mssp_property_matches_bfs(n, m, seed):
    """Property test: MSSP distances equal BFS on random digraphs."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    graph = from_edges(src, dst, num_vertices=n, dedup=True)
    kernel = MSSPKernel(
        graph, router_for(graph, 2), make_rng(seed), sample_limit=None
    )
    kernel.start_batch(min(3, n))
    levels = np.stack(
        [bfs_distances(graph, int(s)) for s in kernel._sources]
    )
    for level in range(1, 100_000):
        done = kernel.step().done
        expected_rows, expected_verts = np.nonzero(levels == level)
        if done:
            # Nothing is first reached in the terminating round.
            assert expected_rows.size == 0
            break
        # Each round's frontier is exactly the BFS level set, in
        # row-major (source-row, vertex) order.
        np.testing.assert_array_equal(kernel._frontier_rows, expected_rows)
        np.testing.assert_array_equal(kernel._frontier_verts, expected_verts)
        keys = kernel._frontier_rows * n + kernel._frontier_verts
        assert np.all(np.diff(keys) > 0)
    for source, dist in kernel.result.items():
        np.testing.assert_array_equal(dist, bfs_distances(graph, source))


def _loopy_graph():
    # Self-loops (0, 3), a parallel arc 1 -> 2, zero-out-degree vertices
    # 4 and 6, and a component {7, 8} that the rest cannot reach.
    src = np.array([0, 0, 1, 1, 1, 2, 3, 3, 5, 7, 8])
    dst = np.array([0, 1, 2, 2, 4, 3, 3, 5, 6, 8, 7])
    return from_edges(src, dst, num_vertices=10)


class TestUnweightedSparsePath:
    """The boolean sparse-product round on unweighted graphs is
    bit-equal to the min-scatter round on the all-ones weighted twin."""

    CASES = {
        # Every vertex a source: zero-out-degree and isolated sources,
        # self-loops, parallel arcs, an unreachable component.
        "loops-isolated": (_loopy_graph, 10, {}),
        # Every frontier vertex has out-degree 0: one empty done round.
        "no-arcs": (
            lambda: from_edges(
                np.empty(0, np.int64), np.empty(0, np.int64), num_vertices=5
            ),
            5,
            {},
        ),
        "max-rounds-cap": (lambda: chain(20), 6, {"max_rounds": 3}),
        # Large enough that the twin takes the dense scatter.
        "dense-scatter": (lambda: chung_lu(150, 6.0, seed=5), 40, {}),
        "undirected": (lambda: grid_2d(5, 5, directed=False), 7, {}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_weighted_twin(self, case):
        build, workload, params = self.CASES[case]
        graph = build()
        assert graph.weights is None
        trace = mssp_trace(graph, workload, **params)
        assert trace == mssp_trace(unit_weight_twin(graph), workload, **params)
        if "max_rounds" in params:
            rounds, _ = trace
            assert len(rounds) - 1 == params["max_rounds"]

    def test_no_arcs_ends_in_one_empty_round(self):
        graph = self.CASES["no-arcs"][0]()
        rounds, _ = mssp_trace(graph, 5)
        (summary, _), = rounds[1:]
        assert summary.done and summary.active_vertices == 0.0


@given(
    st.integers(min_value=1, max_value=25),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=30, deadline=None)
def test_mssp_property_matches_weighted_twin(n, m, max_rounds, seed):
    """Property test: on random multigraphs with self-loops, the sparse
    product round is bit-equal to the weighted twin's min-scatter."""
    rng = np.random.default_rng(seed)
    graph = from_edges(
        rng.integers(0, n, size=m), rng.integers(0, n, size=m), num_vertices=n
    )
    workload = min(4, n)
    assert mssp_trace(graph, workload, seed, max_rounds=max_rounds) == (
        mssp_trace(unit_weight_twin(graph), workload, seed,
                   max_rounds=max_rounds)
    )


def _hub_graph(weighted):
    """40 vertices: hub 0 with 15 out-arcs, self-loops and parallel
    arcs among 1..29, and sinks 30..39 with no out-arcs."""
    rng = np.random.default_rng(17)
    src = np.concatenate([np.zeros(15, np.int64), rng.integers(1, 30, 90)])
    dst = np.concatenate([rng.integers(1, 40, 15), rng.integers(0, 40, 90)])
    weights = rng.integers(1, 5, src.size).astype(float) if weighted else None
    return from_edges(src, dst, weights=weights, num_vertices=40)


def frontier_trace(kernel, workload):
    """Every round's summary, residual and next frontier, plus the
    final state-matrix bytes, of one batch."""
    kernel.start_batch(workload)
    rounds = []
    for _ in range(10_000):
        summary = kernel.step()
        rounds.append(
            (
                summary,
                kernel.residual_bytes(),
                kernel._frontier_rows.tobytes(),
                kernel._frontier_verts.tobytes(),
            )
        )
        if summary.done:
            break
    state = kernel._dist if isinstance(kernel, MSSPKernel) else kernel._visited
    return rounds, state.tobytes()


class TestFrontierBlockSplit:
    """Rounds cut into budget-sized frontier blocks are bit-equal to the
    one-block rounds an in-RAM graph runs."""

    KERNELS = {
        "mssp": (
            mssp_module,
            lambda g: MSSPKernel(
                g, router_for(g, 2), make_rng(4), sample_limit=None
            ),
            True,
        ),
        "mssp-max-rounds": (
            mssp_module,
            lambda g: MSSPKernel(
                g, router_for(g, 2), make_rng(4), sample_limit=None,
                max_rounds=2,
            ),
            True,
        ),
        "bkhs": (
            bkhs_module,
            lambda g: BKHSKernel(
                g, router_for(g, 2), make_rng(4), k=3, sample_limit=None
            ),
            False,
        ),
    }

    def _split_trace(self, monkeypatch, case, block_arcs):
        module, make, weighted = self.KERNELS[case]
        graph = _hub_graph(weighted)
        blocks = []

        def recorded(degrees, max_arcs):
            for lo, hi in iter_frontier_blocks(degrees, max_arcs):
                block = degrees[lo:hi]
                blocks.append(
                    (block.size, int(block.sum()), int((block == 0).sum()))
                )
                yield lo, hi

        monkeypatch.setattr(module, "iter_frontier_blocks", recorded)
        monkeypatch.setattr(
            module, "streaming_block_arcs", lambda g: block_arcs
        )
        return frontier_trace(make(graph), graph.num_vertices), blocks

    @pytest.mark.parametrize("block_arcs", [1, 5, 64])
    @pytest.mark.parametrize("case", sorted(KERNELS))
    def test_matches_one_block(self, monkeypatch, case, block_arcs):
        one_block, whole = self._split_trace(monkeypatch, case, None)
        split, blocks = self._split_trace(monkeypatch, case, block_arcs)
        assert split == one_block
        assert len(blocks) > len(whole)
        if block_arcs < 15:
            # The hub, heavier than the budget, gets a block alone.
            assert (1, 15, 0) in blocks
        if case == "mssp-max-rounds":
            rounds, _ = split
            assert len(rounds) == 2

    @pytest.mark.parametrize("case", sorted(KERNELS))
    def test_sinks_ride_along_in_blocks(self, monkeypatch, case):
        split, blocks = self._split_trace(monkeypatch, case, 5)
        # Every vertex is a source, so round 1's frontier holds the
        # zero-out-degree sinks, which share blocks with senders.
        assert any(0 < zeros < size for size, _, zeros in blocks)
        assert split == self._split_trace(monkeypatch, case, None)[0]
