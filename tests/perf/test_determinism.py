"""Differential determinism suite: perf knobs must never change results.

Every performance layer in :mod:`repro.perf` — worker pools, the
artifact cache, shared-memory graphs, NUMA placement — promises the
same contract: it changes *when and where* work runs, never what it
computes. This suite runs the same experiments under each knob's
settings and asserts the outputs are byte-identical:

* ``--jobs 1`` vs ``--jobs N`` (``REPRO_TEST_JOBS``, default 2);
* a cold artifact cache vs a warm one (memory and disk);
* shared-memory graph transport on vs off;
* ``--numa auto`` (with an injected multi-node topology, so pinning
  and replicas actually engage even on a single-node host) vs
  ``--numa off``;
* per-round metric streams across serial and forked sweeps;
* the online scheduler (``repro.sched``): the same seeded arrival
  stream must yield byte-identical service metrics — per-batch round
  traces included — under serial vs forked fan-out, cold vs warm
  caches, and every ``--numa`` mode.

"Byte-identical" is literal: rendered Markdown rows and
``json.dumps``-serialised metric streams are compared as strings, so
even a float's last bit flipping fails the suite.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.batching.executor import MultiProcessingJob
from repro.cluster.cluster import cluster_by_name
from repro.engines.registry import ENGINE_NAMES
from repro.experiments.base import ExperimentConfig
from repro.experiments.common import sweep_batches
from repro.experiments.runner import run_all, run_experiment
from repro.graph.datasets import load_dataset
from repro.perf import numa
from repro.perf.cache import clear_cache, configure_cache, get_cache
from repro.tasks.base import make_task

SCALE = 4000
JOBS = int(os.environ.get("REPRO_TEST_JOBS", "2"))
IDS = ["fig2", "fig8"]
CONFIG = dict(scale=SCALE, quick=True)


@pytest.fixture(autouse=True)
def _isolated_perf_state():
    """Fresh cache and NUMA state per test; restore the cache config."""
    cache = get_cache()
    directory, capacity = cache.directory, cache.capacity
    configure_cache(capacity=256)
    clear_cache()
    numa.reset_numa_state()
    yield
    cache.directory, cache.capacity = directory, capacity
    clear_cache()
    numa.reset_numa_state()


def _markdown(results):
    return "\n".join(result.to_markdown() for result in results)


def _run(jobs, only=IDS):
    clear_cache()
    config = ExperimentConfig(jobs=jobs, **CONFIG)
    return _markdown(run_all(config, only=only, jobs=jobs))


def two_node_topology():
    cpus = tuple(sorted(os.sched_getaffinity(0)))
    return numa.NumaTopology(
        nodes=(numa.NumaNode(0, cpus), numa.NumaNode(1, cpus)),
        source="test",
    )


class TestJobsInvariance:
    def test_serial_vs_pool(self):
        assert _run(jobs=1) == _run(jobs=JOBS)


class TestCacheInvariance:
    def test_cold_vs_warm_memory_cache(self):
        config = ExperimentConfig(jobs=1, **CONFIG)
        clear_cache()
        cold = run_experiment("fig8", config).to_markdown()
        warm = run_experiment("fig8", config).to_markdown()
        assert get_cache().stats.hits > 0
        assert cold == warm

    def test_cold_vs_warm_disk_cache(self, tmp_path):
        configure_cache(directory=str(tmp_path))
        config = ExperimentConfig(jobs=1, **CONFIG)
        clear_cache()
        cold = run_experiment("fig8", config).to_markdown()
        clear_cache()  # drop memory so the disk store must serve
        warm = run_experiment("fig8", config).to_markdown()
        assert get_cache().stats.disk_hits > 0
        assert cold == warm


class TestShmInvariance:
    def test_shared_graphs_on_vs_off(self, monkeypatch):
        with_shm = _run(jobs=JOBS)
        from repro.experiments import runner

        monkeypatch.setattr(
            runner, "_shared_graph_pool_args", lambda *a, **k: {}
        )
        without_shm = _run(jobs=JOBS)
        assert with_shm == without_shm


class TestNumaInvariance:
    def test_auto_vs_off(self):
        numa.configure_numa(
            mode="auto", topology=two_node_topology(), replicate_threshold=1
        )
        pinned = _run(jobs=JOBS)
        numa.configure_numa(mode="off")
        unpinned = _run(jobs=JOBS)
        assert pinned == unpinned

    def test_replicate_vs_interleave(self):
        numa.configure_numa(mode="replicate", topology=two_node_topology())
        replicated = _run(jobs=JOBS)
        numa.configure_numa(mode="interleave")
        interleaved = _run(jobs=JOBS)
        assert replicated == interleaved


class TestMappedGraphInvariance:
    """Out-of-core graphs (memory-mapped CSR directories plus the
    block-streaming kernel variants they dispatch to) vs the in-RAM
    path: same Markdown rows, same metric streams, same graph bits."""

    @pytest.fixture(autouse=True)
    def _restore_out_of_core(self):
        from repro.graph import datasets
        from repro.graph.csr import configure_streaming

        yield
        datasets.configure_out_of_core(None, None)
        configure_streaming(None)

    def _mapped_run(self, jobs, directory):
        from repro.graph import datasets

        datasets.configure_out_of_core(force=True, directory=str(directory))
        try:
            return _run(jobs=jobs)
        finally:
            datasets.configure_out_of_core(None, None)

    def test_mapped_vs_in_ram_serial(self, tmp_path):
        assert self._mapped_run(1, tmp_path) == _run(jobs=1)

    def test_mapped_vs_in_ram_pool(self, tmp_path):
        assert self._mapped_run(JOBS, tmp_path) == _run(jobs=JOBS)

    def test_mapped_cold_vs_warm(self, tmp_path):
        cold = self._mapped_run(1, tmp_path)
        # Same directory: the second run reopens the CSR files on disk.
        warm = self._mapped_run(1, tmp_path)
        assert cold == warm

    def test_chunked_build_bits_at_scale_400(self, tmp_path):
        from repro.graph.datasets import PAPER_DATASETS

        profile = PAPER_DATASETS["twitter"]
        in_ram = profile.instantiate(scale=400)
        mapped = profile.instantiate_mapped(
            scale=400, directory=str(tmp_path / "twitter.csr")
        )
        import numpy as np

        assert (
            np.asarray(in_ram.indptr).tobytes()
            == np.asarray(mapped.indptr).tobytes()
        )
        assert (
            np.asarray(in_ram.indices).tobytes()
            == np.asarray(mapped.indices).tobytes()
        )
        assert in_ram.fingerprint == mapped.fingerprint

    def test_engine_outputs_at_scale_400(self, tmp_path):
        from repro.graph import datasets

        def metrics():
            graph = load_dataset("twitter", scale=400)
            cluster = cluster_by_name("galaxy-8", scale=400)
            job = MultiProcessingJob("pregel+", cluster)
            run = job.run(make_task("mssp", graph, 64.0),
                          num_batches=2, seed=5)
            return json.dumps(
                run.to_dict(include_rounds=True), sort_keys=True
            )

        in_ram = metrics()
        clear_cache()
        datasets.configure_out_of_core(force=True, directory=str(tmp_path))
        try:
            mapped = metrics()
        finally:
            datasets.configure_out_of_core(None, None)
        assert in_ram == mapped


class TestRoundStreamInvariance:
    """Per-round metric streams, not just rendered tables."""

    def _streams(self, jobs):
        clear_cache()
        graph = load_dataset("dblp", scale=SCALE)
        cluster = cluster_by_name("galaxy-8", scale=SCALE)
        runs = sweep_batches(
            "pregel+",
            cluster,
            lambda: make_task("mssp", graph, 64.0),
            batch_counts=[1, 2, 4],
            seed=7,
            jobs=jobs,
        )
        return json.dumps(
            [m.to_dict(include_rounds=True) for m in runs],
            sort_keys=True,
        )

    def test_serial_vs_forked_round_streams(self):
        assert self._streams(jobs=1) == self._streams(jobs=JOBS)

    def test_repeat_runs_are_stable(self):
        graph = load_dataset("dblp", scale=SCALE)
        cluster = cluster_by_name("galaxy-8", scale=SCALE)
        job = MultiProcessingJob("pregel+", cluster)
        task = make_task("bppr", graph, 256.0)
        first = job.run(task, num_batches=2, seed=11)
        second = job.run(make_task("bppr", graph, 256.0),
                         num_batches=2, seed=11)
        assert json.dumps(
            first.to_dict(include_rounds=True), sort_keys=True
        ) == json.dumps(
            second.to_dict(include_rounds=True), sort_keys=True
        )


class TestSuspendResumeInvariance:
    """Barrier suspend/resume must be invisible in the metrics: a batch
    frozen at superstep barriers and resumed — for every engine and
    every preemptable task kind — must serialize byte-identically
    (``pack_job``) to the same batch run straight through."""

    KINDS = ("bppr", "mssp", "bkhs")
    BATCH_UNITS = 16.0

    def _job(self, engine_name, kind, suspend):
        from repro.engines.base import BatchCheckpoint, EngineSession
        from repro.engines.registry import create_engine
        from repro.sim.metrics import JobMetrics, pack_job

        graph = load_dataset("dblp", scale=SCALE)
        cluster = cluster_by_name("galaxy-8", scale=SCALE)
        engine = create_engine(engine_name, cluster)
        session = EngineSession(
            engine, make_task(kind, graph, self.BATCH_UNITS), seed=7
        )

        def at_even_barriers(batch):
            return len(batch.rounds) % 2 == 0

        callback = at_even_barriers if suspend else None
        suspends = 0
        job = JobMetrics(
            engine=engine.name,
            task=kind,
            dataset=graph.name,
            cluster=cluster.name,
            num_machines=cluster.num_machines,
            total_workload=2 * self.BATCH_UNITS,
            batch_sizes=[self.BATCH_UNITS, self.BATCH_UNITS],
        )
        for _ in range(2):
            result = session.run_batch(
                self.BATCH_UNITS, should_suspend=callback
            )
            while isinstance(result, BatchCheckpoint):
                suspends += 1
                result = session.resume(should_suspend=callback)
            job.batches.append(result)
        return bytes(pack_job(job)["payload"]), suspends

    @pytest.mark.parametrize("engine_name", ENGINE_NAMES)
    def test_every_engine_and_kind(self, engine_name):
        total_suspends = 0
        for kind in self.KINDS:
            interrupted, suspends = self._job(engine_name, kind, True)
            straight, zero = self._job(engine_name, kind, False)
            assert zero == 0
            assert interrupted == straight, (engine_name, kind)
            total_suspends += suspends
        assert total_suspends > 0, "no barrier ever fired; test is vacuous"


class TestSchedulerInvariance:
    """The online scheduler under the same knobs: one seeded stream
    must produce the same latency tables, batch logs, and per-round
    traces no matter where or how often it runs."""

    RATES = (0.4, 0.8)

    def _one_stream(self, rate):
        from repro.engines.registry import create_engine
        from repro.sched.arrivals import generate_arrivals
        from repro.sched.service import SchedulerService

        graph = load_dataset("dblp", scale=SCALE)
        cluster = cluster_by_name("galaxy-8", scale=SCALE)
        service = SchedulerService(
            create_engine("pregel+", cluster),
            graph,
            kinds=("bppr",),
            seed=13,
            record_rounds=True,
        )
        requests = generate_arrivals(
            rate, 12, seed=13, kinds=("bppr",), units_range=(8, 48)
        )
        metrics = service.run(requests, arrival_rate=rate)
        return json.dumps(
            metrics.to_dict(include_latencies=True), sort_keys=True
        )

    def _streams(self, jobs):
        from repro.perf.parallel import parallel_map_fork

        clear_cache()
        return parallel_map_fork(
            lambda i: self._one_stream(self.RATES[i]),
            len(self.RATES),
            jobs=jobs,
        )

    def test_serial_vs_forked_scheduler_streams(self):
        assert self._streams(jobs=1) == self._streams(jobs=JOBS)

    def test_cold_vs_warm_training_cache(self):
        clear_cache()
        cold = self._one_stream(0.4)
        warm = self._one_stream(0.4)  # training probes now cache-hit
        assert get_cache().stats.hits > 0
        assert cold == warm

    @pytest.mark.parametrize("mode", ["auto", "replicate", "interleave"])
    def test_every_numa_mode_matches_off(self, mode):
        numa.configure_numa(mode="off")
        baseline = self._streams(jobs=JOBS)
        numa.configure_numa(
            mode=mode, topology=two_node_topology(), replicate_threshold=1
        )
        assert self._streams(jobs=JOBS) == baseline


class TestMultiTenantServeInvariance:
    """Multi-tenant serving knobs (engine routing table, tenant quotas,
    the content-keyed result cache) must not move a byte of the serve
    digest when they cannot matter: the cache on a duplicate-free
    stream, a routing table naming the base engine, and quota mappings
    that never bind or merely permute."""

    def _serve(self, policy=None, base_engine="pregel+"):
        from repro.engines.registry import create_engine
        from repro.sched.arrivals import TaskRequest
        from repro.sched.service import SchedulerService

        graph = load_dataset("dblp", scale=SCALE)
        cluster = cluster_by_name("galaxy-8", scale=SCALE)
        service = SchedulerService(
            create_engine(base_engine, cluster),
            graph,
            kinds=("bppr",),
            seed=17,
            record_rounds=True,
            policy=policy,
        )
        tenants = ("acme", "globex")
        # Hand-rolled duplicate-free stream: every request has a unique
        # unit count, so no two share a content key.
        requests = [
            TaskRequest(i, "bppr", 8.0 + i, float(3 * i),
                        tenant=tenants[i % 2])
            for i in range(8)
        ]
        metrics = service.run(requests)
        return metrics.to_dict(include_latencies=True)

    def test_cache_on_vs_off_duplicate_free_stream(self):
        from repro.sched.policy import ServicePolicy

        off = self._serve()
        on = self._serve(ServicePolicy(result_cache=True))
        cache = on.pop("result_cache")
        # Every request missed and executed: the cache stored but never
        # served, so the schedule digest must be untouched.
        assert cache["hits"] == 0 and cache["coalesced"] == 0
        assert cache["misses"] == 8 and cache["stores"] == 8
        assert json.dumps(on, sort_keys=True) == json.dumps(
            off, sort_keys=True
        )

    def test_cache_hits_replay_exact_payload_bytes(self):
        from repro.engines.registry import create_engine
        from repro.sched.arrivals import TaskRequest
        from repro.sched.policy import ServicePolicy
        from repro.sched.service import SchedulerService

        graph = load_dataset("dblp", scale=SCALE)
        cluster = cluster_by_name("galaxy-8", scale=SCALE)

        def responses(requests):
            service = SchedulerService(
                create_engine("pregel+", cluster),
                graph,
                kinds=("bppr",),
                seed=17,
                policy=ServicePolicy(result_cache=True),
            )
            service.run(requests)
            return service.responses

        warm = responses(
            [
                TaskRequest(0, "bppr", 8.0, 0.0),
                TaskRequest(1, "bppr", 8.0, 1.0e6),  # pure cache hit
            ]
        )
        cold = responses([TaskRequest(5, "bppr", 8.0, 0.0)])
        assert warm[1] == warm[0] == cold[5]

    def test_route_to_base_engine_is_identity(self):
        from repro.sched.policy import ServicePolicy

        unrouted = self._serve()
        routed = self._serve(ServicePolicy(routes={"bppr": "pregel+"}))
        assert json.dumps(routed, sort_keys=True) == json.dumps(
            unrouted, sort_keys=True
        )

    def test_routed_kind_matches_native_base_engine(self):
        from repro.sched.policy import ServicePolicy

        native = self._serve(base_engine="graphlab(async)")
        routed = self._serve(
            ServicePolicy(routes={"bppr": "graphlab(async)"}),
            base_engine="pregel+",
        )
        # Only the service-level engine header may differ: every batch
        # ran on graphlab(async) either way.
        assert native.pop("engine") == "graphlab(async)"
        assert routed.pop("engine") == "pregel+"
        assert json.dumps(routed, sort_keys=True) == json.dumps(
            native, sort_keys=True
        )

    def test_quota_permutation_and_generous_quotas(self):
        from repro.sched.policy import ServicePolicy

        first = self._serve(
            ServicePolicy(tenant_quotas={"acme": 0.9, "globex": 0.8})
        )
        permuted = self._serve(
            ServicePolicy(tenant_quotas={"globex": 0.8, "acme": 0.9})
        )
        assert json.dumps(first, sort_keys=True) == json.dumps(
            permuted, sort_keys=True
        )
        # Quotas generous enough never to bind must not change the
        # admission order — only the batch log's tenant attribution
        # (absent with quotas off) may differ.
        bare = self._serve()
        for entry in first["batches"]:
            entry.pop("tenants")
        assert json.dumps(first, sort_keys=True) == json.dumps(
            bare, sort_keys=True
        )


class TestCalibrationInvariance:
    """Online ask-tell calibration (``--calibrate`` and friends): the
    degenerate policy — calibration off, even worker shares, admit-all
    cache — must keep the serve digest byte-identical to the default,
    and a warm restart from persisted coefficients must reproduce the
    cold run's digest with zero probe runs."""

    def _serve(self, policy=None, kinds=("bppr",)):
        from repro.engines.registry import create_engine
        from repro.sched.arrivals import generate_arrivals
        from repro.sched.service import SchedulerService

        graph = load_dataset("dblp", scale=SCALE)
        cluster = cluster_by_name("galaxy-8", scale=SCALE)
        service = SchedulerService(
            create_engine("pregel+", cluster),
            graph,
            kinds=kinds,
            seed=13,
            record_rounds=True,
            policy=policy,
            task_params={"mssp": {"sample_limit": 16}},
        )
        requests = generate_arrivals(
            0.4, 12, seed=13, kinds=kinds, units_range=(8, 48)
        )
        metrics = service.run(requests, arrival_rate=0.4)
        return metrics.to_dict(include_latencies=True)

    def test_degenerate_policy_matches_default_byte_for_byte(self):
        from repro.sched.policy import ServicePolicy

        default = self._serve()
        clear_cache()
        degenerate = self._serve(
            ServicePolicy(
                calibrate=False,
                cache_min_seconds=None,
                tenant_cache_quotas=None,
            )
        )
        assert json.dumps(degenerate, sort_keys=True) == json.dumps(
            default, sort_keys=True
        )

    def test_warm_restart_reproduces_cold_digest(self, tmp_path):
        # Multi-kind on purpose: probe training prepares the kinds in
        # policy order while a warm restart prepares them in arrival
        # order, so any preparation-order dependence (e.g. two kinds
        # sharing one router prep) breaks this digest and only this
        # digest.
        from repro.sched.policy import ServicePolicy

        configure_cache(directory=str(tmp_path))
        kinds = ("bppr", "mssp")
        policy = ServicePolicy(calibrate=True)
        cold = self._serve(policy, kinds=kinds)
        cold_cal = cold.pop("calibration")
        assert cold_cal["training_runs"] > 0
        assert not cold_cal["warm_start"]
        clear_cache()  # drop memory so the disk store must serve
        warm = self._serve(policy, kinds=kinds)
        warm_cal = warm.pop("calibration")
        # Zero probe executions on restart: the coefficients and probe
        # samples came back from the artifact cache.
        assert warm_cal["training_runs"] == 0
        assert warm_cal["warm_start"]
        assert warm_cal["probe_seconds_saved"] > 0
        # Only the training provenance may differ — the scheduling
        # trajectory itself is reproduced byte-for-byte.
        assert json.dumps(warm, sort_keys=True) == json.dumps(
            cold, sort_keys=True
        )
