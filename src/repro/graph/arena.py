"""Pooled scratch arenas for per-round kernel buffers.

Every ``_advance`` round of the frontier kernels used to allocate a
fresh set of candidate-length arrays (composite keys, gathered values,
boundary masks, reduction outputs). On the steady state those arrays
have near-constant sizes round over round, so the allocations — and the
page faults that come with them — are pure overhead. :class:`ScratchArena`
pairs a grow-only cached ``arange`` with a general buffer pool:

* **size-classed** — buffers live in power-of-two byte classes, so a
  request is served by any free buffer of its class regardless of dtype
  or exact length (a ``take`` returns a view of the right length);
* **generation-tagged** — :meth:`new_round` advances a generation
  counter; a buffer handed out at generation ``g`` returns to the free
  pool only once the arena reaches generation ``g + KEEPALIVE``.  With
  the default ``KEEPALIVE = 2`` a round's outputs stay valid through
  the *next* round, which is exactly the lifetime of a frontier array:
  kernels rebuild their frontier every round, so by the time a buffer
  is recycled nothing live can reference it (asserted by
  ``tests/graph/test_arena.py``).

The engine creates one arena per job and threads it through every
kernel batch (:meth:`repro.tasks.base.TaskSpec.make_kernel`), so batch
boundaries reuse the same pool too.

The frontier kernels call :meth:`new_round` once per *frontier block*
rather than once per round (an in-RAM graph is one block per round, a
memory-mapped graph under a ``--max-ram`` budget streams several): with
``KEEPALIVE = 2`` the pool's resident footprint stays at roughly two
blocks' worth of buffers however many blocks a round streams — the
arena is what makes the per-block working set a bound instead of a
high-water mark. :meth:`pool_bytes` reports that footprint for the memory accounting (:mod:`repro.perf.memory`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

__all__ = ["ScratchArena"]

#: Smallest size class in bytes; tiny requests share one class.
_MIN_CLASS_BYTES = 256


class ScratchArena:
    """A size-classed, generation-tagged pool of reusable numpy buffers.

    Lifecycle contract: call :meth:`new_round` once at the top of every
    kernel round; arrays obtained from :meth:`take` remain valid for the
    round they were taken in **and** the following round (``KEEPALIVE``
    generations), after which their backing buffer may be handed out
    again. Arrays that must outlive that window belong to the caller —
    copy them out (``np.copy``) before the window closes.
    """

    #: Generations a handed-out buffer survives before recycling. Two
    #: generations make arena-backed frontier arrays (built in round N,
    #: consumed in round N + 1, rebuilt before round N + 2) safe without
    #: any copies.
    KEEPALIVE = 2

    __slots__ = (
        "_free",
        "_inuse",
        "_generation",
        "_iota",
        "allocations",
        "reuses",
    )

    def __init__(self) -> None:
        self._free: Dict[int, List[np.ndarray]] = {}
        # (generation handed out, size class, raw uint8 buffer)
        self._inuse: List[Tuple[int, int, np.ndarray]] = []
        self._generation = 0
        self._iota = np.empty(0, dtype=np.int64)
        #: fresh buffers created / requests served from the pool —
        #: steady-state rounds should be all reuses (asserted in tests).
        self.allocations = 0
        self.reuses = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        return self._generation

    def new_round(self) -> None:
        """Advance one generation; recycle buffers past their keepalive."""
        self._generation += 1
        if not self._inuse:
            return
        horizon = self._generation - self.KEEPALIVE
        survivors: List[Tuple[int, int, np.ndarray]] = []
        for record in self._inuse:
            if record[0] <= horizon:
                self._free.setdefault(record[1], []).append(record[2])
            else:
                survivors.append(record)
        self._inuse = survivors

    # ------------------------------------------------------------------
    # Buffers
    # ------------------------------------------------------------------
    def take(self, size: int, dtype=np.int64) -> np.ndarray:
        """An uninitialised length-``size`` array valid for KEEPALIVE rounds."""
        dtype = np.dtype(dtype)
        if size == 0:
            return np.empty(0, dtype=dtype)
        nbytes = int(size) * dtype.itemsize
        size_class = _MIN_CLASS_BYTES
        while size_class < nbytes:
            size_class <<= 1
        pool = self._free.get(size_class)
        if pool:
            raw = pool.pop()
            self.reuses += 1
        else:
            raw = np.empty(size_class, dtype=np.uint8)
            self.allocations += 1
        self._inuse.append((self._generation, size_class, raw))
        return raw[:nbytes].view(dtype)

    def pool_bytes(self) -> int:
        """Resident footprint of the pool: free + in-use buffer bytes
        (excluding the shared ``arange`` cache). Streaming rounds watch
        this stay flat across blocks; it only steps up when a block is
        larger than anything the pool has served before."""
        free = sum(
            buf.nbytes for bufs in self._free.values() for buf in bufs
        )
        return free + sum(record[2].nbytes for record in self._inuse)

    def arange(self, size: int) -> np.ndarray:
        """A ``[0, size)`` int64 arange view from a grow-only cached buffer
        (kept separate from the generational pool because its contents
        are immutable and shared by every round)."""
        if self._iota.size < size:
            self._iota = np.arange(
                max(size, 2 * self._iota.size), dtype=np.int64
            )
        return self._iota[:size]
