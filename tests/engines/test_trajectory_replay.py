"""Session replay of pure-kernel batches (DESIGN.md §8).

An :class:`~repro.engines.base.EngineSession` keeps the superstep
trajectory of its last completed pure batch and replays it for the next
batch of the same workload. Replay skips only the kernel's work: every
round is still priced, so the metrics must be byte-identical to running
the kernel again.
"""

import pytest

from repro.cluster.cluster import cluster_by_name
from repro.engines.base import (
    BatchCheckpoint,
    EngineSession,
    Trajectory,
    _ReplayKernel,
)
from repro.engines.registry import ENGINE_NAMES, create_engine
from repro.graph.datasets import load_dataset
from repro.perf import timings
from repro.sim.metrics import JobMetrics, pack_job
from repro.tasks.base import make_task

SCALE = 4000
UNITS = 8.0
REMAINDER = 3.0
#: An equal split plus a remainder batch: three replays, two misses.
SIZES = [UNITS] * 4 + [REMAINDER]


@pytest.fixture(scope="module")
def graph():
    return load_dataset("dblp", scale=SCALE)


@pytest.fixture(scope="module")
def cluster():
    return cluster_by_name("galaxy-8", scale=SCALE)


def _never_replay(monkeypatch):
    """Make every trajectory lookup miss, so every batch runs its kernel."""
    monkeypatch.setattr(
        EngineSession, "_lookup_trajectory", lambda self, workload: None
    )


def _replays():
    return timings.snapshot().get("kernel.replay", {"count": 0})["count"]


def _job_bytes(engine, task, sizes, seed=7):
    job = engine._run_job_uncached(task, list(sizes), seed)
    return bytes(pack_job(job)["payload"])


def _drain(session, workload):
    result = session.run_batch(workload)
    while isinstance(result, BatchCheckpoint):
        result = session.resume()
    return result


class TestReplayEquivalence:
    @pytest.mark.parametrize("engine_name", ENGINE_NAMES)
    def test_equal_split_job_packs_identically(
        self, engine_name, graph, cluster, monkeypatch
    ):
        engine = create_engine(engine_name, cluster)
        task = make_task("bppr", graph, sum(SIZES))
        before = _replays()
        replayed = _job_bytes(engine, task, SIZES)
        rounds_replayed = _replays() - before
        _never_replay(monkeypatch)
        before = _replays()
        live = _job_bytes(engine, task, SIZES)
        assert _replays() == before
        assert rounds_replayed > 0, "no batch was replayed; test is vacuous"
        assert replayed == live

    def test_suspend_resume_inside_a_replayed_batch(self, graph, cluster):
        def run(suspend):
            engine = create_engine("pregel+", cluster)
            session = EngineSession(
                engine, make_task("bppr", graph, 2 * UNITS), seed=7
            )
            first = _drain(session, UNITS)
            callback = None
            if suspend:

                def callback(batch):
                    return len(batch.rounds) % 2 == 0

            result = session.run_batch(UNITS, should_suspend=callback)
            suspends = 0
            while isinstance(result, BatchCheckpoint):
                assert isinstance(result.kernel, _ReplayKernel)
                suspends += 1
                result = session.resume(should_suspend=callback)
            job = JobMetrics(
                engine=engine.name,
                task="bppr",
                dataset=graph.name,
                cluster=cluster.name,
                num_machines=cluster.num_machines,
                total_workload=2 * UNITS,
                batch_sizes=[UNITS, UNITS],
            )
            job.batches.extend([first, result])
            return bytes(pack_job(job)["payload"]), suspends, session.elapsed

        interrupted, suspends, interrupted_elapsed = run(True)
        straight, zero, straight_elapsed = run(False)
        assert suspends > 0 and zero == 0
        assert interrupted == straight
        # Suspension costs land on the session clock only.
        assert interrupted_elapsed > straight_elapsed


class TestImpureKernelsNeverReplay:
    @pytest.mark.parametrize(
        "kind, params",
        [
            ("mssp", {}),
            ("bkhs", {}),
            ("bppr-query", {}),
            ("bppr", {"mode": "montecarlo"}),
        ],
        ids=["mssp", "bkhs", "bppr-query", "bppr-montecarlo"],
    )
    def test_rng_stream_position_unchanged(
        self, kind, params, graph, cluster, monkeypatch
    ):
        def final_state():
            engine = create_engine("pregel+", cluster)
            session = EngineSession(
                engine, make_task(kind, graph, 3 * 4.0, **params), seed=11
            )
            for _ in range(3):
                _drain(session, 4.0)
            assert session.trajectory is None
            return session.rng.bit_generator.state

        before = _replays()
        with_lookup = final_state()
        assert _replays() == before
        _never_replay(monkeypatch)
        assert final_state() == with_lookup


class TestRecording:
    def test_timed_out_batch_is_not_recorded(self, graph, cluster):
        engine = create_engine("pregel+", cluster)
        session = EngineSession(
            engine, make_task("bppr", graph, UNITS), cutoff_seconds=1e-9
        )
        batch = session.run_batch(UNITS)
        assert batch.overloaded and batch.overload_reason == "timeout"
        assert session.trajectory is None

    def test_overloaded_batch_is_not_recorded(self, graph, cluster):
        engine = create_engine("pregel+", cluster)
        session = EngineSession(
            engine,
            make_task("bppr", graph, UNITS),
            initial_residual_bytes=1e18,
        )
        batch = session.run_batch(UNITS)
        assert batch.overloaded and batch.overload_reason == "memory"
        assert session.trajectory is None

    def test_one_slot_replaced_on_miss(self, graph, cluster):
        engine = create_engine("pregel+", cluster)
        session = EngineSession(engine, make_task("bppr", graph, 20.0))
        session.run_batch(UNITS)
        first = session.trajectory
        assert isinstance(first, Trajectory)
        assert first.workload == UNITS
        assert len(first.residuals) == len(first.summaries) + 1

        before = _replays()
        session.run_batch(UNITS)
        assert _replays() - before == len(first.summaries)
        assert session.trajectory is first

        session.run_batch(REMAINDER)
        assert session.trajectory.workload == REMAINDER
        assert session.trajectory is not first

        before = _replays()
        session.run_batch(UNITS)
        assert _replays() == before, "evicted trajectory was replayed"
        assert session.trajectory.workload == UNITS
