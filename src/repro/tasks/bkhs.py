"""Batch k-Hop Search (BKHS).

Given a source set ``S`` and constant ``k``, BKHS collects, for each
``s ∈ S``, the vertices within ``k`` hops (Section 2.3). The Pregel
implementation mirrors MSSP but "the program stops after k + 1
communication rounds" (Section 3): rounds 1..k expand the BFS frontier
and round ``k + 1`` is the terminating round in which every vertex votes
to halt. Workload is the number of sources; large workloads are sampled
and scaled like MSSP.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

import numpy as np

from repro.errors import TaskError
from repro.graph.csr import (
    Graph,
    dedup_pairs,
    dedup_pairs_dense,
    expand_frontier,
    iter_frontier_blocks,
    streaming_block_arcs,
    unique_sorted,
    use_dense_cells,
)
from repro.messages.routing import MessageRouter
from repro.perf import kernel_pool, timings
from repro.tasks.base import (
    RoundSummary,
    TaskKernel,
    TaskSpec,
    alloc_state_matrix,
    choose_sources,
)

#: Bytes for one source's k-hop statistic (the collected output).
RESIDUAL_RECORD_BYTES = 16.0

#: Bytes per (source, vertex) visited marker held during the batch.
VISITED_ENTRY_BYTES = 4.0


class BKHSKernel(TaskKernel):
    """One batch of k-hop searches from sampled sources."""

    def __init__(
        self,
        graph: Graph,
        router: MessageRouter,
        rng: np.random.Generator,
        k: int = 2,
        sample_limit: Optional[int] = 64,
    ) -> None:
        super().__init__(graph, router)
        if k < 1:
            raise TaskError("k must be at least 1")
        self.k = int(k)
        self.rng = rng
        self.sample_limit = sample_limit
        self._degrees = graph.degrees

    def _initialise(self, workload: float) -> None:
        sampled = choose_sources(
            self.graph, workload, self.sample_limit, self.rng
        )
        self._sources = sampled.sources
        self._scale = sampled.scale_factor
        n = self.graph.num_vertices
        s = self._sources.size
        self._visited = alloc_state_matrix((s, n), bool)
        self._visited[np.arange(s), self._sources] = True
        self._pair_mask = alloc_state_matrix((s, n), bool)
        self._frontier_rows = np.arange(s, dtype=np.int64)
        self._frontier_verts = self._sources.copy()

    def _advance(self) -> RoundSummary:
        graph = self.graph
        if self._round > self.k:
            # Round k + 1: receive-only termination round, no messages.
            routed = self.route_emissions(
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
                np.empty(0, dtype=np.float64),
            )
            return RoundSummary(
                routed=routed,
                compute_ops=float(self.graph.num_vertices),
                task_state_bytes=self._state_bytes(),
                active_vertices=0.0,
                done=True,
            )

        block_arcs = streaming_block_arcs(graph)
        if block_arcs is not None:
            return self._advance_streaming(block_arcs)
        if kernel_pool.kernel_workers() > 1:
            shards = kernel_pool.choose_shards(
                int(self._degrees[self._frontier_verts].sum())
            )
            if shards > 1:
                return self._advance_parallel(shards)

        arena = self.arena
        arena.new_round()
        rows, verts = self._frontier_rows, self._frontier_verts
        tick = perf_counter()
        arc_pos, counts, kept = expand_frontier(graph, verts, arena)
        if arc_pos.size > 0:
            src_rows = rows if kept is None else rows[kept]
            nbr = np.take(
                graph.indices, arc_pos, out=arena.take(arc_pos.size)
            )
            msg_rows = np.repeat(src_rows, counts)
            tock = perf_counter()
            timings.add("kernel.expand", tock - tick)
            # Deduplicate the touched (source, target) cells first, then
            # probe the visited table only at the unique cells (the
            # candidate list repeats each cell once per in-arc). Strategy
            # choice shares the measured crossover with the segment
            # reductions (:func:`use_dense_cells`).
            if use_dense_cells(msg_rows.size, self._pair_mask.size):
                cell_rows, cell_verts = dedup_pairs_dense(
                    msg_rows, nbr, self._pair_mask, arena
                )
            else:
                cell_rows, cell_verts = dedup_pairs(
                    msg_rows, nbr, graph.num_vertices, arena
                )
            tick = perf_counter()
            timings.add("kernel.dedup", tick - tock)
            fresh = ~self._visited[cell_rows, cell_verts]
            if fresh.all():
                new_rows, new_verts = cell_rows, cell_verts
            else:
                new_rows = cell_rows[fresh]
                new_verts = cell_verts[fresh]
            self._visited[new_rows, new_verts] = True
            self._frontier_rows, self._frontier_verts = new_rows, new_verts
            timings.add("kernel.frontier", perf_counter() - tick)
        else:
            self._frontier_rows = np.empty(0, dtype=np.int64)
            self._frontier_verts = np.empty(0, dtype=np.int64)

        return self._expand_summary(verts)

    def _advance_parallel(self, shards: int) -> RoundSummary:
        """Row-sharded expansion round on the intra-task kernel pool.

        Each contiguous frontier shard expands and sort-dedups into its
        own arena, then probes the visited table *read-only* — unlike
        the streaming path, whose sequential blocks may mark visited as
        they go, concurrent shards must not write while siblings read
        (two shards reaching the same cell would race and both or
        neither could see it fresh). So the per-shard fresh sets are
        fresh-versus-round-start, their union is exactly the monolithic
        fresh set, and the parent dedups the concatenated keys (shards
        *can* overlap, unlike the disjoint streaming blocks) before
        marking visited once, serially. Byte-identical frontier and
        visited table at any shard count.
        """
        graph = self.graph
        n = graph.num_vertices
        rows, verts = self._frontier_rows, self._frontier_verts
        tick = perf_counter()
        bounds = [
            (lo, hi)
            for lo, hi in kernel_pool.shard_bounds(
                self._degrees[verts], shards
            )
            if hi > lo
        ]
        arenas = self.shard_arenas(len(bounds))

        def run_shard(lo: int, hi: int, arena) -> Optional[np.ndarray]:
            # Thread body: no shared-state writes, no timings (the
            # accumulators are not thread-safe); sparse dedup only —
            # the dense variant scribbles on the shared pair mask.
            blk_rows = rows[lo:hi]
            blk_verts = verts[lo:hi]
            arena.new_round()
            arc_pos, counts, kept = expand_frontier(graph, blk_verts, arena)
            if arc_pos.size == 0:
                return None
            src_rows = blk_rows if kept is None else blk_rows[kept]
            nbr = np.take(
                graph.indices, arc_pos, out=arena.take(arc_pos.size)
            )
            msg_rows = np.repeat(src_rows, counts)
            cell_rows, cell_verts = dedup_pairs(msg_rows, nbr, n, arena)
            fresh = ~self._visited[cell_rows, cell_verts]
            if not fresh.any():
                return np.empty(0, dtype=np.int64)
            # Boolean indexing copies out of the shard arena.
            return cell_rows[fresh] * np.int64(n) + cell_verts[fresh]

        results = kernel_pool.run_sharded(
            [
                (lambda lo=lo, hi=hi, arena=arena: run_shard(lo, hi, arena))
                for (lo, hi), arena in zip(bounds, arenas)
            ]
        )
        tock = perf_counter()
        timings.add("kernel.expand", tock - tick)
        fresh_lists = [res for res in results if res is not None and res.size]
        if fresh_lists:
            if len(fresh_lists) == 1:
                keys = fresh_lists[0]  # row-major within a shard already
            else:
                keys = unique_sorted(np.concatenate(fresh_lists))
            new_rows, new_verts = np.divmod(keys, np.int64(n))
            self._visited[new_rows, new_verts] = True
            self._frontier_rows, self._frontier_verts = new_rows, new_verts
        else:
            self._frontier_rows = np.empty(0, dtype=np.int64)
            self._frontier_verts = np.empty(0, dtype=np.int64)
        timings.add("kernel.frontier", perf_counter() - tock)
        return self._expand_summary(verts)

    def _advance_streaming(self, block_arcs: int) -> RoundSummary:
        """Block-streaming expansion round for memory-mapped graphs.

        Frontier slices bounded by combined out-degree
        (:func:`iter_frontier_blocks`) expand one at a time through the
        arena. Bit-identical to the monolithic round: the visited table
        makes per-block fresh sets *disjoint* (a cell discovered in an
        earlier block is already marked when a later block touches it),
        so concatenating them and sorting the composite keys recovers
        exactly the monolithic row-major frontier.
        """
        graph = self.graph
        arena = self.arena
        rows, verts = self._frontier_rows, self._frontier_verts
        n = graph.num_vertices
        degrees = self._degrees[verts]
        fresh_lists = []
        for lo, hi in iter_frontier_blocks(degrees, block_arcs):
            blk_rows = rows[lo:hi]
            blk_verts = verts[lo:hi]
            arena.new_round()
            tick = perf_counter()
            arc_pos, counts, kept = expand_frontier(graph, blk_verts, arena)
            if arc_pos.size == 0:
                timings.add("kernel.expand", perf_counter() - tick)
                continue
            src_rows = blk_rows if kept is None else blk_rows[kept]
            nbr = np.take(
                graph.indices, arc_pos, out=arena.take(arc_pos.size)
            )
            msg_rows = np.repeat(src_rows, counts)
            tock = perf_counter()
            timings.add("kernel.expand", tock - tick)
            if use_dense_cells(msg_rows.size, self._pair_mask.size):
                cell_rows, cell_verts = dedup_pairs_dense(
                    msg_rows, nbr, self._pair_mask, arena
                )
            else:
                cell_rows, cell_verts = dedup_pairs(msg_rows, nbr, n, arena)
            tick = perf_counter()
            timings.add("kernel.dedup", tick - tock)
            fresh = ~self._visited[cell_rows, cell_verts]
            # Boolean indexing copies out of the arena, so the fresh
            # cells survive the next block's new_round().
            new_rows = cell_rows[fresh]
            new_verts = cell_verts[fresh]
            if new_rows.size:
                self._visited[new_rows, new_verts] = True
                fresh_lists.append(new_rows * np.int64(n) + new_verts)
            timings.add("kernel.frontier", perf_counter() - tick)

        tick = perf_counter()
        if fresh_lists:
            if len(fresh_lists) == 1:
                keys = fresh_lists[0]  # row-major within a block already
            else:
                keys = np.concatenate(fresh_lists)
                keys.sort()  # disjoint sets: sort alone restores order
            self._frontier_rows, self._frontier_verts = np.divmod(
                keys, np.int64(n)
            )
        else:
            self._frontier_rows = np.empty(0, dtype=np.int64)
            self._frontier_verts = np.empty(0, dtype=np.int64)
        timings.add("kernel.frontier", perf_counter() - tick)
        return self._expand_summary(verts)

    def _expand_summary(self, verts: np.ndarray) -> RoundSummary:
        """Emission accounting shared by the monolithic and streaming
        expansion rounds (``verts`` is the round's sending frontier)."""
        updates_per_vertex = np.bincount(
            verts, minlength=self.graph.num_vertices
        ).astype(np.float64)
        active = np.flatnonzero(updates_per_vertex > 0)
        blocks = updates_per_vertex[active] * self._scale
        point = (
            updates_per_vertex[active]
            * self._degrees[active].astype(np.float64)
            * self._scale
        )
        routed = self.route_emissions(active, blocks, point)
        return RoundSummary(
            routed=routed,
            compute_ops=routed.delivered_messages + active.size * self._scale,
            task_state_bytes=self._state_bytes(),
            active_vertices=float(active.size) * self._scale,
            done=False,
            combined_messages=routed.wire_messages,
        )

    def _state_bytes(self) -> float:
        return (
            float(self._visited.sum()) * VISITED_ENTRY_BYTES * self._scale
        )

    def residual_bytes(self) -> float:
        """Only the per-source statistics survive the batch."""
        return self._sources.size * RESIDUAL_RECORD_BYTES * self._scale

    @property
    def result(self) -> dict:
        """Map ``source id -> number of vertices within k hops`` (incl. s)."""
        counts = self._visited.sum(axis=1)
        return {
            int(s): int(counts[i]) for i, s in enumerate(self._sources)
        }

    def reachable_sets(self) -> dict:
        """Map ``source id -> boolean reachability mask`` (for tests)."""
        return {
            int(s): self._visited[i].copy()
            for i, s in enumerate(self._sources)
        }


def bkhs_task(
    graph: Graph,
    workload: float,
    k: int = 2,
    sample_limit: Optional[int] = 64,
) -> TaskSpec:
    """Build the BKHS :class:`TaskSpec` (workload = number of sources)."""

    def factory(g, router, batch_workload, rng):
        return BKHSKernel(g, router, rng, k=k, sample_limit=sample_limit)

    return TaskSpec(
        name="bkhs",
        graph=graph,
        workload=workload,
        kernel_factory=factory,
        params={"k": k, "sample_limit": sample_limit},
        message_bytes=12.0,
        residual_record_bytes=RESIDUAL_RECORD_BYTES,
    )
