"""Task abstractions shared by all benchmark workloads.

A *multi-processing job* (the paper's term) is a workload ``W`` of unit
tasks — random walks per node for BPPR, source nodes for MSSP/BKHS — that
the batching executor splits into batches. For each batch the engine
instantiates a :class:`TaskKernel` and drives it round by round; the
kernel runs the real algorithm on the full graph and reports a
:class:`RoundSummary` of what it emitted, which the engine prices.

Kernels are deliberately *engine-agnostic*: the engine injects a
:class:`~repro.messages.routing.MessageRouter` so the same kernel serves
point-to-point and broadcast (mirror) engines, matching Section 3's
paired implementations.
"""

from __future__ import annotations

import shutil
import tempfile
import weakref
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import TaskError
from repro.graph.arena import ScratchArena
from repro.graph.csr import Graph, streaming_budget_bytes
from repro.messages.routing import MessageRouter, RoutedMessages

#: Fraction of the ``--max-ram`` budget one dense state matrix may
#: occupy before :func:`alloc_state_matrix` spills it to a mapped
#: scratch file. Half, because the kernels hold two comparable matrices
#: (``dist`` + ``pair_mask`` / ``visited`` + ``pair_mask``) and the
#: streaming arc blocks need the rest of the budget.
STATE_SPILL_FRACTION = 0.5


def alloc_state_matrix(
    shape: Tuple[int, ...], dtype, fill: Any = None
) -> np.ndarray:
    """A dense kernel-state matrix (``sources × n``), spilled to disk
    when it would blow the ``--max-ram`` budget.

    In-RAM is the default: without a streaming budget, or for matrices
    small against it, this is exactly ``np.full``/``np.zeros``. When the
    matrix alone would exceed :data:`STATE_SPILL_FRACTION` of the
    configured budget, the array is backed by an ``open_memmap`` scratch
    file instead — same dtype, same shape, same initial fill, so every
    subsequent read/scatter produces identical bits; the OS pages the
    cold rows out instead of the process holding them resident. The
    scratch directory is removed when the array is garbage-collected.
    """
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    budget = streaming_budget_bytes()
    if budget is None or nbytes <= budget * STATE_SPILL_FRACTION:
        if fill is None or fill == 0:
            return np.zeros(shape, dtype=dtype)
        return np.full(shape, fill, dtype=dtype)
    from repro.perf.memory import record_state_spill

    scratch_dir = tempfile.mkdtemp(prefix="repro-state-")
    arr = np.lib.format.open_memmap(
        f"{scratch_dir}/state.npy", mode="w+", dtype=dtype, shape=shape
    )
    if fill is not None and fill != 0:
        arr[...] = fill
    # open_memmap zero-fills new pages, so fill == 0 needs no pass.
    weakref.finalize(arr, shutil.rmtree, scratch_dir, ignore_errors=True)
    record_state_spill(nbytes)
    return arr


@dataclass(frozen=True)
class RoundSummary:
    """What one kernel round emitted, already routed.

    Frozen: a session keeps the summaries of its last pure batch and
    hands the same objects out again on replay, so none may change.

    Attributes
    ----------
    routed:
        network/local/delivered message split from the engine's router.
    combined_messages:
        wire messages after (source, target) combining — engines with
        combiners (GraphLab sync) transmit this count instead. ``None``
        means combining does not apply (defaults to the routed count).
        Kernels whose estimate costs real work (BPPR) compute it only
        when the engine combines (:meth:`TaskKernel.use_combining`) and
        leave it ``None`` otherwise.
    compute_ops:
        work units this round (message handling + vertex updates),
        cluster-wide.
    task_state_bytes:
        cluster-wide in-flight state of the batch (walk bookkeeping,
        frontier bitmaps, distance rows being built).
    active_vertices:
        number of vertices that executed compute() this round.
    done:
        True when the batch finished after this round.
    """

    routed: RoutedMessages
    compute_ops: float
    task_state_bytes: float
    active_vertices: float
    done: bool
    combined_messages: Optional[float] = None

    @property
    def wire_messages(self) -> float:
        return self.routed.wire_messages


class TaskKernel(ABC):
    """One batch of unit tasks executing round-by-round.

    Lifecycle: construct → ``start_batch(workload)`` → repeated
    ``step()`` until a summary with ``done=True`` → read ``result`` /
    ``residual_bytes()``. A kernel instance serves a single batch.
    """

    def __init__(self, graph: Graph, router: MessageRouter) -> None:
        self.graph = graph
        self.router = router
        self.arena = ScratchArena()
        #: whether the engine reads ``RoundSummary.combined_messages``.
        self.combining = False
        self._started = False
        self._finished = False
        self._round = 0

    # -- lifecycle ------------------------------------------------------
    def use_arena(self, arena: ScratchArena) -> None:
        """Adopt a shared scratch arena (engine-injected, one per job, so
        batch boundaries reuse the same buffer pool). Must happen before
        :meth:`start_batch`."""
        if self._started:
            raise TaskError("use_arena() must be called before start_batch()")
        self.arena = arena

    def use_combining(self, enabled: bool) -> None:
        """Tell the kernel whether the engine combines messages (and so
        reads ``RoundSummary.combined_messages``). Engine-injected like
        :meth:`use_arena`; must happen before :meth:`start_batch`."""
        if self._started:
            raise TaskError(
                "use_combining() must be called before start_batch()"
            )
        self.combining = bool(enabled)

    @property
    def pure(self) -> bool:
        """True when the kernel never draws from its RNG, so its rounds
        depend only on (graph, router, batch workload, task params) and
        an engine session may replay a recorded batch instead of
        re-running it (DESIGN.md §8). Conservatively ``False``."""
        return False

    def start_batch(self, workload: float) -> None:
        """Initialise the batch for ``workload`` unit tasks."""
        if self._started:
            raise TaskError("kernel already started; kernels are single-use")
        if workload <= 0:
            raise TaskError("batch workload must be positive")
        self._started = True
        self._workload = float(workload)
        self._initialise(float(workload))

    def step(self) -> RoundSummary:
        """Advance one communication round."""
        if not self._started:
            raise TaskError("start_batch() must be called before step()")
        if self._finished:
            raise TaskError("kernel already finished")
        self._round += 1
        summary = self._advance()
        if summary.done:
            self._finished = True
        return summary

    @property
    def round_index(self) -> int:
        return self._round

    @property
    def finished(self) -> bool:
        return self._finished

    # -- helpers for subclasses -----------------------------------------
    def route_emissions(
        self,
        vertex_ids: np.ndarray,
        blocks_per_vertex: np.ndarray,
        point_messages_per_vertex: np.ndarray,
    ) -> RoutedMessages:
        """Route this round's emissions through the engine's router.

        Broadcast routers consume *blocks* (one per vertex per unit-task
        group — Section 3's common message to all neighbours);
        point-to-point routers consume individual per-arc messages.
        """
        from repro.messages.routing import BroadcastRouter

        if isinstance(self.router, BroadcastRouter):
            return self.router.route(vertex_ids, blocks_per_vertex)
        return self.router.route(vertex_ids, point_messages_per_vertex)

    # -- subclass hooks ---------------------------------------------------
    @abstractmethod
    def _initialise(self, workload: float) -> None:
        """Set up batch state for ``workload`` unit tasks."""

    @abstractmethod
    def _advance(self) -> RoundSummary:
        """Run one round and summarise it."""

    @abstractmethod
    def residual_bytes(self) -> float:
        """Cluster-wide bytes of results this batch leaves resident for
        final aggregation (the paper's *residual memory*)."""

    @property
    @abstractmethod
    def result(self) -> Any:
        """Task-specific result of the batch (valid once finished)."""


#: Builds a kernel for one batch: (graph, router, batch_workload, rng).
KernelFactory = Callable[
    [Graph, MessageRouter, float, np.random.Generator], TaskKernel
]


@dataclass(frozen=True)
class TaskSpec:
    """A multi-processing job definition.

    ``workload`` follows the paper's units: walks-per-node for BPPR,
    number of source nodes for MSSP/BKHS. ``params`` carries
    task-specific settings (α, k, sampling limits) for reports.
    """

    name: str
    graph: Graph
    workload: float
    kernel_factory: KernelFactory = field(repr=False, compare=False, default=None)  # type: ignore[assignment]
    params: Dict[str, Any] = field(default_factory=dict)
    #: serialized message bytes for point-to-point transport of this task.
    message_bytes: float = 16.0
    #: bytes of one residual record (see kernel.residual_bytes).
    residual_record_bytes: float = 8.0

    def __post_init__(self) -> None:
        if self.workload <= 0:
            raise TaskError("workload must be positive")
        if self.kernel_factory is None:
            raise TaskError("kernel_factory is required")

    def make_kernel(
        self,
        router: MessageRouter,
        batch_workload: float,
        rng: np.random.Generator,
        arena: Optional[ScratchArena] = None,
        combining: bool = False,
    ) -> TaskKernel:
        """Instantiate a kernel for one batch of this job.

        ``arena`` (engine-provided) shares one scratch-buffer pool across
        every batch of a job, so steady-state rounds allocate nothing.
        ``combining`` says whether the engine reads the combined-message
        estimate (see :meth:`TaskKernel.use_combining`).
        """
        kernel = self.kernel_factory(self.graph, router, batch_workload, rng)
        if arena is not None:
            kernel.use_arena(arena)
        kernel.use_combining(combining)
        kernel.start_batch(batch_workload)
        return kernel


def choose_sources(
    graph: Graph,
    workload: float,
    sample_limit: Optional[int],
    rng: np.random.Generator,
) -> "SampledSources":
    """Pick the source set for a source-driven batch (MSSP/BKHS).

    The paper's workload for these tasks is the *number of source nodes*.
    When ``workload`` exceeds ``sample_limit``, only ``sample_limit``
    distinct sources are simulated and all message/compute counts are
    multiplied by ``workload / sample_limit`` — statistically faithful
    because source costs are i.i.d. draws from the same graph. Results
    are exact for the simulated sources.
    """
    if workload <= 0:
        raise TaskError("workload must be positive")
    count = int(round(workload))
    simulated = count if sample_limit is None else min(count, sample_limit)
    simulated = max(1, min(simulated, graph.num_vertices))
    replace = simulated > graph.num_vertices
    sources = rng.choice(
        graph.num_vertices, size=simulated, replace=replace
    ).astype(np.int64)
    return SampledSources(
        sources=sources, scale_factor=count / simulated, requested=count
    )


@dataclass(frozen=True)
class SampledSources:
    """Source sample plus the count scale factor (see :func:`choose_sources`)."""

    sources: np.ndarray
    scale_factor: float
    requested: int

    @property
    def num_simulated(self) -> int:
        return self.sources.size


def make_task(name: str, graph: Graph, workload: float, **params: Any) -> TaskSpec:
    """Build a :class:`TaskSpec` by task name ("bppr", "mssp", "bkhs",
    "pagerank"); keyword params are forwarded to the task constructor."""
    from repro.tasks.bkhs import bkhs_task
    from repro.tasks.bppr import bppr_task
    from repro.tasks.bppr_query import bppr_query_task
    from repro.tasks.mssp import mssp_task
    from repro.tasks.pagerank import pagerank_task

    factories = {
        "bppr": bppr_task,
        "bppr-query": bppr_query_task,
        "mssp": mssp_task,
        "bkhs": bkhs_task,
        "pagerank": pagerank_task,
    }
    key = name.strip().lower()
    if key not in factories:
        known = ", ".join(sorted(factories))
        raise TaskError(f"unknown task {name!r}; known: {known}")
    return factories[key](graph, workload, **params)
