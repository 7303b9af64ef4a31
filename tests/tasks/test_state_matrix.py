"""``alloc_state_matrix``: in-RAM state matrices, and the memory-mapped
spill past the ``--max-ram`` budget."""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.graph.csr import configure_streaming
from repro.perf import memory


@pytest.fixture(autouse=True)
def _fresh_memory_state():
    memory.reset_memory_state()
    yield
    memory.reset_memory_state()
    configure_streaming(None)


class TestAllocStateMatrix:
    def test_in_ram_without_budget(self):
        from repro.tasks.base import alloc_state_matrix

        arr = alloc_state_matrix((3, 4), np.float64, np.inf)
        assert not isinstance(arr, np.memmap)
        assert np.all(np.isinf(arr))

    def test_spills_over_budget_and_counts(self):
        from repro.tasks.base import alloc_state_matrix

        configure_streaming(max_ram_bytes=1)
        arr = alloc_state_matrix((8, 16), np.float64, np.inf)
        assert isinstance(arr, np.memmap)
        assert np.all(np.isinf(arr))
        spills = memory.memory_stats()["state_spills"]
        assert spills["count"] == 1
        assert spills["bytes"] == 8 * 16 * 8

    def test_spilled_matches_in_ram_bytes(self):
        from repro.tasks.base import alloc_state_matrix

        in_ram = alloc_state_matrix((5, 7), np.float64, np.inf)
        configure_streaming(max_ram_bytes=1)
        spilled = alloc_state_matrix((5, 7), np.float64, np.inf)
        rng = np.random.default_rng(11)
        updates = rng.random((5, 7))
        in_ram[:] = np.minimum(in_ram, updates)
        spilled[:] = np.minimum(spilled, updates)
        assert in_ram.tobytes() == np.asarray(spilled).tobytes()

    def test_scratch_dir_removed_when_collected(self):
        import os

        from repro.tasks.base import alloc_state_matrix

        configure_streaming(max_ram_bytes=1)
        arr = alloc_state_matrix((4, 4), np.bool_)
        scratch = os.path.dirname(arr.filename)
        assert os.path.isdir(scratch)
        del arr
        gc.collect()
        assert not os.path.isdir(scratch)
