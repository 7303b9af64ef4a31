"""Workload definitions: what each named workload runs and with which inputs.

Every input is generated here from the workload seed and handed to the
program: the experiment config for the report, the arrival list and the
fault plan for the serve streams. ``RATIONALE.md`` says why each workload
was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Seed at which outputs are compared against ``reference.json``.
DEFAULT_SEED = 42

#: Sub-stream ``i`` of a serve run uses ``seed + STREAM_STRIDE * i``, so
#: sub-stream 0 at the default seed is the stream ROADMAP item 5 pins.
STREAM_STRIDE = 1_000_003

#: Setting shared by both serve streams (ROADMAP item 5's stream).
ENGINE = "pregel+"
CLUSTER = "galaxy-8"
DATASET = "dblp"
KINDS = ("bppr", "mssp")
SAMPLE_LIMIT = 16
REFERENCE_WORKLOAD = 1024.0

#: What the mixed stream turns on beyond the saturated one.
TENANTS = ("acme", "globex")
TENANT_QUOTAS = {"acme": 0.6, "globex": 0.6}
PRIORITY_CLASSES = 2
DEADLINES = {0: 600.0}
FAULT_RATE = 0.01
CHECKPOINT_EVERY = 5

#: A run makes at least this many warm report passes, or serves at least
#: this many sub-streams, before ``--seconds`` may end it.
MIN_PASSES = 3


@dataclass(frozen=True)
class ReportSpec:
    """``write_experiments_markdown`` in quick mode, cold then warm."""

    name: str
    #: restrict the report to these experiment ids (``None`` = all 17).
    experiments: Optional[Tuple[str, ...]] = None

    kind = "report"

    def params(self) -> Dict[str, object]:
        return {
            "quick": True,
            "jobs": 1,
            "kernel_workers": 0,
            "experiments": list(self.experiments or ()) or "all",
        }


@dataclass(frozen=True)
class ServeSpec:
    """An open-loop Poisson stream handed whole to ``SchedulerService.run``.

    ``mixed`` adds two tenants with quotas, two priority lanes with a
    deadline on the urgent one, Table-4 engine routing, the result cache,
    online calibration and a seeded fault plan with checkpoints.
    """

    name: str
    rate: float
    ticks: int
    mixed: bool = False

    kind = "serve"

    def params(self) -> Dict[str, object]:
        params: Dict[str, object] = {
            "rate_per_tick": self.rate,
            "ticks": self.ticks,
            "engine": ENGINE,
            "cluster": CLUSTER,
            "dataset": DATASET,
            "kinds": list(KINDS),
            "sample_limit": SAMPLE_LIMIT,
            "reference_workload": REFERENCE_WORKLOAD,
            "kernel_workers": 0,
        }
        if self.mixed:
            params.update(
                {
                    "tenants": list(TENANTS),
                    "tenant_quotas": TENANT_QUOTAS,
                    "priority_classes": PRIORITY_CLASSES,
                    "deadlines": DEADLINES,
                    "routes": "table4",
                    "result_cache": True,
                    "calibrate": True,
                    "fault_rate": FAULT_RATE,
                    "checkpoint_every": CHECKPOINT_EVERY,
                }
            )
        return params

    def build(self, seed: int):
        """Construct ``(service, requests)`` for one sub-stream seed.

        Everything up to and including the service construction (dataset
        load, probe training) is the pass's set-up; the caller times
        ``service.run(requests, ...)`` alone.
        """
        from repro.cluster.cluster import cluster_by_name
        from repro.engines.registry import create_engine
        from repro.faults.plan import mixed_fault_plan
        from repro.graph.datasets import DEFAULT_SCALE, load_dataset
        from repro.sched.arrivals import generate_arrivals
        from repro.sched.policy import TABLE4_ROUTES, ServicePolicy
        from repro.sched.service import SchedulerService

        cluster = cluster_by_name(CLUSTER, scale=DEFAULT_SCALE)
        graph = load_dataset(DATASET, scale=DEFAULT_SCALE)
        engine = create_engine(ENGINE, cluster)
        limits = {"sample_limit": SAMPLE_LIMIT}
        service_args = {}
        stream_args = {}
        if self.mixed:
            service_args = {
                "fault_plan": mixed_fault_plan(
                    seed, cluster.num_machines, FAULT_RATE
                ),
                "checkpoint_every": CHECKPOINT_EVERY,
                "policy": ServicePolicy(
                    priority_classes=PRIORITY_CLASSES,
                    routes=dict(TABLE4_ROUTES),
                    tenant_quotas=TENANT_QUOTAS,
                    result_cache=True,
                    calibrate=True,
                ),
            }
            stream_args = {
                "priority_classes": PRIORITY_CLASSES,
                "deadlines": DEADLINES,
                "tenants": TENANTS,
            }
        service = SchedulerService(
            engine,
            graph,
            kinds=KINDS,
            seed=seed,
            reference_workload=REFERENCE_WORKLOAD,
            task_params={"mssp": limits, "bkhs": limits},
            **service_args,
        )
        requests = generate_arrivals(
            self.rate, self.ticks, seed=seed, kinds=KINDS, **stream_args
        )
        return service, requests


WORKLOADS = {
    spec.name: spec
    for spec in (
        ReportSpec("report-quick"),
        ServeSpec("serve-saturated", rate=2.0, ticks=300),
        ServeSpec("serve-mixed", rate=0.1, ticks=600, mixed=True),
    )
}

#: Miniature workloads the self-test pushes through both paths.
SELFTEST_WORKLOADS = {
    spec.name: spec
    for spec in (
        ReportSpec("selftest-report", experiments=("table2",)),
        ServeSpec("selftest-serve", rate=2.0, ticks=4, mixed=True),
    )
}


def stream_seed(seed: int, index: int) -> int:
    """Seed of sub-stream ``index`` of a serve run."""
    return seed + STREAM_STRIDE * index
