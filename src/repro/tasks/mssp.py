"""Multi-Source Shortest Path distance queries (MSSP).

Section 3's Pregel MSSP: messages ``(u, v, d)`` assert a length-``d``
path from source ``u`` to ``v``; per round, a vertex keeps the minimum
per source and relaxes its out-edges. The kernel executes exactly that —
a synchronous multi-source Bellman-Ford — fully vectorised over the
(source, vertex) frontier. Under the mirror/broadcast interface the
per-neighbour message collapses to one ``(u, d)`` broadcast block per
updated (source, vertex) pair, which :meth:`route_emissions` handles.
On unweighted graphs the same rounds are level-synchronous BFS and run
as one boolean sparse product per round
(:meth:`MSSPKernel._advance_unweighted`).

Workload is the *number of source nodes* (the paper's MSSP unit). For
large workloads, ``sample_limit`` caps how many distinct sources are
simulated and scales all counts — see
:func:`repro.tasks.base.choose_sources`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

import numpy as np

from repro.graph.csr import (
    Graph,
    adjacency_operator,
    expand_frontier,
    iter_frontier_blocks,
    scatter_min_dense,
    segment_min,
    streaming_block_arcs,
    unique_sorted,
    use_dense_cells,
)
from repro.messages.routing import MessageRouter
from repro.perf import timings
from repro.tasks.base import (
    RoundSummary,
    TaskKernel,
    TaskSpec,
    alloc_state_matrix,
    choose_sources,
)

#: Bytes to keep one (source, vertex) final distance.
RESIDUAL_RECORD_BYTES = 8.0

#: Bytes per in-flight frontier entry ((source, vertex, distance) triple).
FRONTIER_ENTRY_BYTES = 12.0


class MSSPKernel(TaskKernel):
    """One batch of single-source shortest-path queries."""

    def __init__(
        self,
        graph: Graph,
        router: MessageRouter,
        rng: np.random.Generator,
        sample_limit: Optional[int] = 64,
        max_rounds: int = 100_000,
    ) -> None:
        super().__init__(graph, router)
        self.rng = rng
        self.sample_limit = sample_limit
        self.max_rounds = int(max_rounds)
        self._degrees = graph.degrees

    def _initialise(self, workload: float) -> None:
        sampled = choose_sources(
            self.graph, workload, self.sample_limit, self.rng
        )
        self._sources = sampled.sources
        self._scale = sampled.scale_factor
        n = self.graph.num_vertices
        s = self._sources.size
        self._dist = alloc_state_matrix((s, n), np.float64, np.inf)
        self._dist[np.arange(s), self._sources] = 0.0
        self._pair_mask = alloc_state_matrix((s, n), bool)
        # Frontier: (source-row, vertex) pairs improved last round.
        self._frontier_rows = np.arange(s, dtype=np.int64)
        self._frontier_verts = self._sources.copy()

    def _advance(self) -> RoundSummary:
        graph = self.graph
        block_arcs = streaming_block_arcs(graph)
        if block_arcs is None and graph.weights is None:
            adjacency = adjacency_operator(graph)
            if adjacency is not None:
                return self._advance_unweighted(adjacency)
        return self._advance_blocks(block_arcs)

    def _advance_unweighted(self, adjacency) -> RoundSummary:
        """Unweighted round as one boolean sparse product (a BFS level).

        Without weights, synchronous Bellman-Ford is level-synchronous
        BFS: round ``k``'s frontier is exactly the cells first reached
        in round ``k``, so every frontier cell holds the same distance
        ``level`` and every other finite cell holds less. Every
        candidate is therefore ``level + 1.0``, and a cell improves iff
        it is still unreached — the min-scatter's minima are never
        read. The row-major frontier becomes an ``(s, n)`` boolean CSR
        (``indptr`` is a ``searchsorted`` over the sorted rows); one
        product with the cached out-adjacency
        (:func:`adjacency_operator`) yields every reached cell, and the
        unreached ones get ``level + 1.0`` — the float the candidate
        sum produced — in row-major frontier order. Distances, frontier
        and round summaries are bit-identical to the min-scatter path.
        """
        from scipy import sparse  # loaded by adjacency_operator

        rows, verts = self._frontier_rows, self._frontier_verts
        s, n = self._dist.shape
        tick = perf_counter()
        frontier = sparse.csr_matrix(
            (
                np.ones(verts.size, dtype=bool),
                verts,
                np.searchsorted(rows, np.arange(s + 1)),
            ),
            shape=(s, n),
        )
        reached = frontier @ adjacency
        tock = perf_counter()
        timings.add("kernel.expand", tock - tick)
        if reached.nnz == 0:
            return self._summary_for(
                np.empty(0, dtype=np.int64), np.empty(0), done=True
            )
        keys = np.repeat(
            np.arange(0, s * n, n, dtype=np.int64), np.diff(reached.indptr)
        )
        keys += reached.indices
        flat = self._dist.reshape(-1)
        level = self._dist[rows[0], verts[0]]
        winners = keys[flat[keys] > level]
        winners.sort()
        tick = perf_counter()
        timings.add("kernel.reduce", tick - tock)
        if winners.size:
            flat[winners] = level + 1.0
            self._frontier_rows, self._frontier_verts = np.divmod(
                winners, np.int64(n)
            )
            done = self._round >= self.max_rounds
        else:
            self._frontier_rows = np.empty(0, dtype=np.int64)
            self._frontier_verts = np.empty(0, dtype=np.int64)
            done = True
        timings.add("kernel.frontier", perf_counter() - tick)
        updates_per_vertex = np.bincount(verts, minlength=n).astype(
            np.float64
        )
        return self._summary_for(verts, updates_per_vertex, done)

    def _advance_blocks(self, block_arcs: Optional[int]) -> RoundSummary:
        """Min-scatter round over frontier blocks.

        The frontier is cut into slices whose combined out-degree fits
        ``block_arcs`` (:func:`iter_frontier_blocks`); in-RAM graphs pass
        ``None`` and run the whole frontier as one block, mapped graphs
        stream budget-sized blocks so at most one block's arc gather is
        resident at a time (the arena recycles the buffers across
        blocks). Every block split is bit-identical: the source
        distances are snapshotted before any scatter, ``min`` is
        order-independent, and per-block improved sets union to exactly
        the one-block improved set (a cell improves against a running
        minimum iff it improves against the round-start value), merged
        back into row-major frontier order by a sort over composite keys.
        Each block aggregates per (source, target) cell with the fused
        dense scatter or the sort-based segment reduction, pivoting on
        the shared measured crossover (:func:`use_dense_cells`).
        """
        graph = self.graph
        arena = self.arena
        rows, verts = self._frontier_rows, self._frontier_verts
        n = graph.num_vertices
        if verts.size == 0:
            return self._summary_for(
                np.empty(0, dtype=np.int64), np.empty(0), done=True
            )
        # Snapshot: block K's scatters must not feed block K+1's sends.
        source_dist = self._dist[rows, verts]
        degrees = self._degrees[verts]
        winner_lists = []
        expanded_any = False
        for lo, hi in iter_frontier_blocks(degrees, block_arcs):
            blk_rows = rows[lo:hi]
            blk_verts = verts[lo:hi]
            blk_dist = source_dist[lo:hi]
            arena.new_round()
            tick = perf_counter()
            arc_pos, counts, kept = expand_frontier(graph, blk_verts, arena)
            if arc_pos.size == 0:
                timings.add("kernel.expand", perf_counter() - tick)
                continue
            expanded_any = True
            src_rows = blk_rows if kept is None else blk_rows[kept]
            src_dist = blk_dist if kept is None else blk_dist[kept]
            nbr = np.take(
                graph.indices, arc_pos, out=arena.take(arc_pos.size)
            )
            msg_rows = np.repeat(src_rows, counts)
            cand = np.repeat(src_dist, counts)
            if graph.weights is not None:
                weights = np.take(
                    graph.weights,
                    arc_pos,
                    out=arena.take(arc_pos.size, np.float64),
                )
                cand += weights
            else:
                cand += 1.0
            tock = perf_counter()
            timings.add("kernel.expand", tock - tick)
            if use_dense_cells(msg_rows.size, self._pair_mask.size):
                cells, before, best = scatter_min_dense(
                    msg_rows, nbr, cand, self._dist, self._pair_mask, arena
                )
                improved = best < before
                if improved.any():
                    # flatnonzero-fresh array; the boolean index copies,
                    # so the keys survive the next block's new_round().
                    winner_lists.append(cells[improved])
            else:
                cell_rows, cell_verts, best = segment_min(
                    msg_rows, nbr, cand, n, arena
                )
                current = self._dist[cell_rows, cell_verts]
                improved = best < current
                if improved.any():
                    improved_rows = cell_rows[improved]
                    improved_verts = cell_verts[improved]
                    self._dist[improved_rows, improved_verts] = best[improved]
                    winner_lists.append(
                        improved_rows * np.int64(n) + improved_verts
                    )
            timings.add("kernel.reduce", perf_counter() - tock)

        if not expanded_any:
            return self._summary_for(
                np.empty(0, dtype=np.int64), np.empty(0), done=True
            )
        tick = perf_counter()
        if winner_lists:
            if len(winner_lists) == 1:
                keys = winner_lists[0]  # already row-major within a block
            else:
                keys = unique_sorted(np.concatenate(winner_lists))
            self._frontier_rows, self._frontier_verts = np.divmod(
                keys, np.int64(n)
            )
            done = self._round >= self.max_rounds
        else:
            self._frontier_rows = np.empty(0, dtype=np.int64)
            self._frontier_verts = np.empty(0, dtype=np.int64)
            done = True
        timings.add("kernel.frontier", perf_counter() - tick)
        updates_per_vertex = np.bincount(verts, minlength=n).astype(
            np.float64
        )
        return self._summary_for(verts, updates_per_vertex, done)

    def _summary_for(
        self,
        sending_verts: np.ndarray,
        updates_per_vertex: np.ndarray,
        done: bool,
    ) -> RoundSummary:
        graph = self.graph
        if sending_verts.size == 0:
            routed = self.route_emissions(
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
                np.empty(0, dtype=np.float64),
            )
            return RoundSummary(
                routed=routed,
                compute_ops=0.0,
                task_state_bytes=self._state_bytes(),
                active_vertices=0.0,
                done=done,
            )
        active = np.flatnonzero(updates_per_vertex > 0)
        blocks = updates_per_vertex[active] * self._scale
        point = (
            updates_per_vertex[active]
            * self._degrees[active].astype(np.float64)
            * self._scale
        )
        routed = self.route_emissions(active, blocks, point)
        # Combining keeps at most one message per (source, target) pair;
        # in-round duplicates (several paths to the same neighbour in the
        # same round) are rare for distinct arcs, so point count stands.
        return RoundSummary(
            routed=routed,
            compute_ops=routed.delivered_messages + active.size * self._scale,
            task_state_bytes=self._state_bytes(),
            active_vertices=float(active.size) * self._scale,
            done=done,
            combined_messages=routed.wire_messages,
        )

    def _state_bytes(self) -> float:
        """In-flight distance table + frontier for the whole batch."""
        reached = np.isfinite(self._dist).sum()
        return (
            float(reached) * FRONTIER_ENTRY_BYTES
            + float(self._frontier_rows.size) * FRONTIER_ENTRY_BYTES
        ) * self._scale

    def residual_bytes(self) -> float:
        """Final distances stay resident per machine until the job ends."""
        reached = float(np.isfinite(self._dist).sum())
        return reached * RESIDUAL_RECORD_BYTES * self._scale

    @property
    def result(self) -> dict:
        """Map ``source id -> distance vector`` for simulated sources."""
        return {
            int(s): self._dist[i].copy()
            for i, s in enumerate(self._sources)
        }


def mssp_task(
    graph: Graph,
    workload: float,
    sample_limit: Optional[int] = 64,
    max_rounds: int = 100_000,
) -> TaskSpec:
    """Build the MSSP :class:`TaskSpec` (workload = number of sources)."""

    def factory(g, router, batch_workload, rng):
        return MSSPKernel(
            g,
            router,
            rng,
            sample_limit=sample_limit,
            max_rounds=max_rounds,
        )

    return TaskSpec(
        name="mssp",
        graph=graph,
        workload=workload,
        kernel_factory=factory,
        params={"sample_limit": sample_limit, "max_rounds": max_rounds},
        message_bytes=20.0,
        residual_record_bytes=RESIDUAL_RECORD_BYTES,
    )
