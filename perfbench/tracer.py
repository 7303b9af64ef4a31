"""Outside-in tracing: spans around the public calls into each repro layer.

The tracer replaces named functions and methods of the already-imported
``repro`` modules with thin wrappers. Each wrapper records a span (name,
duration, the span that was open when it started) into in-memory tables;
nothing is written until the traced pass ends. A span's *self* time is its
duration minus the durations of the wrapped spans it caused, so the self
times of all spans add up to the total of the top-level spans.

Tracing is single-threaded by design: the benchmark runs with one job and
no kernel workers, so the span stack is never shared between threads.
"""

from __future__ import annotations

import sys
import time
import types
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Kernel class name → task kind used in the ``tasks.<kind>.*`` metrics.
KERNEL_KINDS = {
    "BPPRKernel": "bppr",
    "MSSPKernel": "mssp",
    "BKHSKernel": "bkhs",
    "PageRankKernel": "pagerank",
}


class Tracer:
    """Span and counter tables for one traced process."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: (parent span, child span) → summed child duration.
        self.edges: Dict[Tuple[str, str], float] = defaultdict(float)
        #: summed duration of spans opened with no span around them.
        self.top_s = 0.0
        #: counters recorded at the wrapped boundaries.
        self.counts: Dict[str, float] = defaultdict(float)
        #: per-run summaries of every ``SchedulerService.run`` result.
        self.services: List[dict] = []
        self._stack: List[list] = []
        self._sessions: List[object] = []
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def add_span(self, name: str, seconds: float) -> None:
        """Record a top-level span measured by the caller."""
        self.self_s[name] += seconds
        self.total_s[name] += seconds
        self.calls[name] += 1
        self.top_s += seconds

    def _wrap(
        self,
        fn: Callable,
        name: object,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` inside a span; ``name`` is a string or ``f(args) -> str``."""
        stack = self._stack
        self_s, total_s, calls, edges = (
            self.self_s,
            self.total_s,
            self.calls,
            self.edges,
        )
        tracer = self
        clock = time.perf_counter
        fixed = name if isinstance(name, str) else None

        def traced(*args, **kwargs):
            span = fixed if fixed is not None else name(args)
            if before is not None:
                before(args, kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[span] += elapsed - frame[1]
                total_s[span] += elapsed
                calls[span] += 1
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    edges[(parent[0], span)] += elapsed
                else:
                    tracer.top_s += elapsed
                if after is not None:
                    after(args, kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def _wrap_result(
        self, fn: Callable, name: object, on_result: Callable, **hooks
    ) -> Callable:
        """:meth:`_wrap`, also handing the return value to ``on_result``."""

        def call(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(args, kwargs, result)
            return result

        call.__name__ = getattr(fn, "__name__", "traced")
        return self._wrap(call, name, **hooks)

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def _patch_function(self, module, attr: str, wrapper: Callable) -> None:
        """Replace ``module.attr`` in every repro module that bound it."""
        original = getattr(module, attr)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "") if mod is not None else ""
            if not name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr: str, make: Callable) -> None:
        """Wrap ``attr`` on ``cls`` and on every subclass that redefines it."""
        seen = set()
        pending = [cls]
        while pending:
            klass = pending.pop()
            if klass in seen:
                continue
            seen.add(klass)
            pending.extend(klass.__subclasses__())
            fn = klass.__dict__.get(attr)
            if not isinstance(fn, types.FunctionType):
                continue
            if getattr(fn, "__isabstractmethod__", False):
                continue
            self._restore.append((klass, attr, fn))
            setattr(klass, attr, make(fn))

    def install(self) -> None:
        """Wrap the public calls of every traced layer."""
        import repro.analysis.ppa  # noqa: F401  (router subclass)
        import repro.experiments.report  # noqa: F401
        import repro.experiments.runner as runner
        import repro.graph.mirrors as mirrors
        import repro.graph.partition as partition
        import repro.messages.combine as combine
        import repro.tuning.trainer as trainer
        from repro.engines.base import EngineSession, SimulatedEngine
        from repro.graph.datasets import DatasetProfile
        from repro.messages.routing import MessageRouter
        from repro.perf.cache import ArtifactCache
        from repro.sched.admission import AdmissionController
        from repro.sched.service import SchedulerService
        from repro.sim.cost import CostModel
        from repro.tasks.base import TaskKernel
        from repro.tuning.calibrate import Calibrator

        wrap = self._wrap
        self._patch_method(
            DatasetProfile,
            "instantiate",
            lambda fn: wrap(fn, "graph.generate"),
        )
        self._patch_function(
            partition,
            "partition_graph",
            wrap(partition.partition_graph, "graph.partition"),
        )
        self._patch_function(
            mirrors,
            "build_mirror_plan",
            wrap(mirrors.build_mirror_plan, "graph.mirror_plan"),
        )
        self._patch_method(
            TaskKernel, "step", lambda fn: wrap(fn, _kernel_span)
        )
        self._patch_function(
            combine,
            "combined_walk_messages",
            wrap(
                combine.combined_walk_messages,
                "messages.combine",
                before=self._note_combine,
            ),
        )
        self._patch_method(
            MessageRouter, "route", lambda fn: wrap(fn, "messages.route")
        )
        for attr in ("run_batch", "resume"):
            self._patch_method(
                EngineSession,
                attr,
                lambda fn: self._wrap_result(
                    fn,
                    "engines.round_loop",
                    self._note_batch,
                    before=self._enter_session,
                    after=self._leave_session,
                ),
            )
        self._patch_method(
            SimulatedEngine,
            "run_canonical",
            lambda fn: wrap(fn, "engines.canonical"),
        )
        self._patch_method(
            CostModel, "round_cost", lambda fn: wrap(fn, "sim.round_cost")
        )
        self._patch_function(
            runner,
            "run_experiment",
            wrap(runner.run_experiment, _experiment_span),
        )
        self._patch_method(
            ArtifactCache, "get_or_build", lambda fn: wrap(fn, "perf.cache")
        )
        self._patch_function(
            trainer,
            "collect_training_samples",
            wrap(
                trainer.collect_training_samples,
                "tuning.probe",
                before=self._note_probe,
            ),
        )
        self._patch_method(
            Calibrator, "tell", lambda fn: wrap(fn, "tuning.tell")
        )
        self._patch_method(
            SchedulerService,
            "run",
            lambda fn: self._wrap_result(
                fn, "sched.control", self._note_service
            ),
        )
        for attr, fn in list(vars(AdmissionController).items()):
            if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                continue
            self._patch_method(
                AdmissionController,
                attr,
                lambda fn: wrap(fn, "sched.admission"),
            )

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # ------------------------------------------------------------------
    # Boundary counters
    # ------------------------------------------------------------------
    def _enter_session(self, args, kwargs) -> None:
        self._sessions.append(args[0])

    def _leave_session(self, args, kwargs) -> None:
        self._sessions.pop()

    def _note_combine(self, args, kwargs) -> None:
        # The combined estimate is read only by engines whose profile
        # sets ``combining``; every other call computes a discarded value.
        session = self._sessions[-1] if self._sessions else None
        if session is not None and session.engine.profile.combining:
            self.counts["messages.combine.reads"] += 1

    def _note_batch(self, args, kwargs, result) -> None:
        rounds = getattr(result, "rounds", None)
        if not isinstance(rounds, list):
            return  # suspended: the batch finishes in a later resume()
        self.counts["engines.batches"] += 1
        self.counts["engines.rounds"] += len(rounds)
        self.counts["faults.crashes"] += getattr(result, "crashes", 0)
        self.counts["faults.rounds_replayed"] += getattr(
            result, "rounds_replayed", 0
        )

    def _note_probe(self, args, kwargs) -> None:
        workloads = kwargs.get("workloads", args[2] if len(args) > 2 else ())
        self.counts["tuning.probe_runs"] += len(workloads)

    def _note_service(self, args, kwargs, metrics) -> None:
        requests = args[1] if len(args) > 1 else kwargs["requests"]
        self.services.append(
            {
                "sent": len(requests),
                "batches": len(metrics.batch_log),
                "batch_units": [b["workload"] for b in metrics.batch_log],
                "flushes": metrics.flushes,
                "queue_waits": [t.queue_seconds for t in metrics.latencies],
                "deadline_misses": metrics.deadline_misses,
                "result_cache": dict(metrics.result_cache or {}),
                "refits": (metrics.calibration or {}).get("refits", 0),
            }
        )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-data tables for the parent process."""
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "edges": [[p, c, s] for (p, c), s in self.edges.items()],
            "top_s": self.top_s,
            "counts": dict(self.counts),
            "services": self.services,
        }


def _kernel_span(args) -> str:
    kernel = args[0]
    for klass in type(kernel).__mro__:
        kind = KERNEL_KINDS.get(klass.__name__)
        if kind is not None:
            return f"tasks.{kind}.step"
    raise TypeError(f"untraced kernel class {type(kernel).__name__}")


def _experiment_span(args) -> str:
    return f"experiments.{str(args[0]).strip().lower()}"
