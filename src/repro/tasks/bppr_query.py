"""Query-based BPPR: the alternative workload setting of Section 4.9.

"It is also natural to set the unit task for BPPR as a PPR query and
the workload as the number of queries. In other words, a batch contains
a subset of source nodes for PPR queries."

:class:`BPPRQueryKernel` reuses the expected-mass machinery of
:class:`~repro.tasks.bppr.BPPRKernel` but seeds walk mass only at the
batch's sampled source nodes (``walks_per_query`` walks each) instead
of at every vertex. Workload = number of queries; large workloads are
sampled and scaled like MSSP's sources.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.csr import Graph
from repro.messages.routing import MessageRouter
from repro.tasks.base import TaskSpec, choose_sources
from repro.tasks.bppr import (
    DEFAULT_ALPHA,
    RESIDUAL_RECORD_BYTES,
    BPPRKernel,
)


class BPPRQueryKernel(BPPRKernel):
    """One batch of PPR queries (workload = number of source queries)."""

    def __init__(
        self,
        graph: Graph,
        router: MessageRouter,
        rng: np.random.Generator,
        walks_per_query: int = 2000,
        alpha: float = DEFAULT_ALPHA,
        sample_limit: Optional[int] = 64,
        max_rounds: int = 10_000,
    ) -> None:
        super().__init__(
            graph,
            router,
            rng,
            alpha=alpha,
            mode="expected",
            track_sources=False,
            max_rounds=max_rounds,
        )
        self.walks_per_query = int(walks_per_query)
        self.sample_limit = sample_limit
        self._query_scale = 1.0
        self._sources = np.empty(0, dtype=np.int64)

    @property
    def pure(self) -> bool:
        """Query sources are drawn from the RNG, so never replayed."""
        return False

    def _initialise(self, workload: float) -> None:
        super()._initialise(workload)
        sampled = choose_sources(
            self.graph, workload, self.sample_limit, self.rng
        )
        self._sources = sampled.sources
        self._query_scale = sampled.scale_factor
        n = self.graph.num_vertices
        # Walk mass only at the sampled query sources (duplicates from
        # with-replacement sampling stack up, as they should).
        # ``np.bincount`` accumulates weights in input order — the same
        # sequence the old ``np.add.at`` scatter used, through the fast
        # buffered loop.
        per_query = float(self.walks_per_query) * self._query_scale
        mass = np.bincount(
            self._sources,
            weights=np.full(self._sources.size, per_query),
            minlength=n,
        )
        self._mass_vec = mass
        self._stopped_vec = np.zeros(n, dtype=np.float64)

    def _distinct_sources_estimate(self) -> float:
        """Source diversity is capped by the batch's query count."""
        base = super()._distinct_sources_estimate()
        return float(min(base, self._sources.size * self._query_scale))

    @property
    def sources(self) -> np.ndarray:
        """The sampled query sources of this batch."""
        return self._sources.copy()


def bppr_query_task(
    graph: Graph,
    workload: float,
    walks_per_query: int = 2000,
    alpha: float = DEFAULT_ALPHA,
    sample_limit: Optional[int] = 64,
    max_rounds: int = 10_000,
) -> TaskSpec:
    """Build the query-based BPPR :class:`TaskSpec`.

    ``workload`` counts PPR queries; each query runs
    ``walks_per_query`` α-decay walks from its source.
    """

    def factory(g, router, batch_workload, rng):
        return BPPRQueryKernel(
            g,
            router,
            rng,
            walks_per_query=walks_per_query,
            alpha=alpha,
            sample_limit=sample_limit,
            max_rounds=max_rounds,
        )

    return TaskSpec(
        name="bppr-query",
        graph=graph,
        workload=workload,
        kernel_factory=factory,
        params={
            "walks_per_query": walks_per_query,
            "alpha": alpha,
            "sample_limit": sample_limit,
        },
        message_bytes=8.0,
        residual_record_bytes=RESIDUAL_RECORD_BYTES,
    )
