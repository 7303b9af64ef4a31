"""Performance subsystem: artifact caching, parallel fan-out, timings.

Four coordinated layers added on top of the simulator:

* :mod:`repro.perf.cache` — a content-addressed artifact cache
  (in-memory LRU + optional on-disk ``.npz`` store) shared by dataset
  instantiation, partitioning, mirror planning, and whole engine runs.
* :mod:`repro.perf.parallel` — ``ProcessPoolExecutor``-backed fan-out
  for independent experiments and ``(engine, batch_count)`` runs, with
  deterministic per-run seeding and graceful serial fallback.
* :mod:`repro.perf.timings` — phase-timing spans (graph-gen /
  partition / kernel / cost-model) surfaced by ``vcrepro report`` and
  dumped as ``BENCH_perf.json``.
* :mod:`repro.perf.numa` — topology discovery, round-robin worker
  pinning and node-local shared-graph placement for the pools
  (``--numa {auto,off,replicate,interleave}``), with named
  :class:`~repro.perf.numa.NumaWarning` fallbacks on platforms that
  cannot pin.
"""

from repro.perf import timings
from repro.perf.backoff import BackoffPolicy
from repro.perf.cache import (
    ArtifactCache,
    ArraySerializer,
    clear_cache,
    configure_cache,
    get_cache,
)
from repro.perf.numa import (
    NumaNode,
    NumaTopology,
    NumaWarning,
    configure_numa,
    numa_mode,
    numa_stats,
    reset_numa_state,
)
from repro.perf.parallel import (
    configure_watchdog,
    parallel_map,
    parallel_map_fork,
    resolve_jobs,
    supervision_stats,
)

__all__ = [
    "ArtifactCache",
    "ArraySerializer",
    "BackoffPolicy",
    "configure_watchdog",
    "supervision_stats",
    "NumaNode",
    "NumaTopology",
    "NumaWarning",
    "clear_cache",
    "configure_cache",
    "configure_numa",
    "get_cache",
    "numa_mode",
    "numa_stats",
    "parallel_map",
    "parallel_map_fork",
    "resolve_jobs",
    "reset_numa_state",
    "timings",
]
