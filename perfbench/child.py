"""One pass of a workload in a fresh process; ``run.py`` starts it.

A pass is set-up (imports, plus for serve the dataset load and the
``SchedulerService`` construction) followed by the timed phase
(``write_experiments_markdown`` or ``SchedulerService.run``). The pass
writes its measurements and output digests as JSON to ``--out``.

    python3 perfbench/child.py --workload serve-saturated --seed 42 \
        --cache-dir .perfbench/c0 --out .perfbench/p0.json \
        --spawned-at <time.monotonic() of the parent> [--trace]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import SELFTEST_WORKLOADS, WORKLOADS  # noqa: E402

CLAIMS_LINE = re.compile(r"(\d+)/(\d+) paper claims reproduced")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _dir_bytes(path: Path) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass
    return total


def _report_pass(spec, seed: int, workdir: Path, out: dict) -> float:
    """Run the report; return the timed-phase start (monotonic)."""
    import repro.experiments.report as report
    from repro.experiments.base import ExperimentConfig

    if spec.experiments is not None:
        report.EXPERIMENTS = {
            eid: report.EXPERIMENTS[eid] for eid in spec.experiments
        }
    out["experiments"] = len(report.EXPERIMENTS)
    out["completed"] = 0
    run_experiment = report.run_experiment

    def counted(*args, **kwargs):
        result = run_experiment(*args, **kwargs)
        out["completed"] += 1
        return result

    report.run_experiment = counted
    config = ExperimentConfig(quick=True, seed=seed, jobs=1)
    output = workdir / f"report-{os.getpid()}.md"
    start = time.monotonic()
    report.write_experiments_markdown(str(output), config)
    out["wall_s"] = time.monotonic() - start
    text = output.read_text(encoding="utf-8")
    output.unlink()
    body = "\n".join(
        line
        for line in text.splitlines()
        if not line.startswith("*Regenerated in")
    )
    out["body_sha256"] = _sha256(body)
    match = CLAIMS_LINE.search(text)
    out["claims_held"] = int(match.group(1)) if match else -1
    out["claims_total"] = int(match.group(2)) if match else -1
    return start


def _serve_pass(spec, seed: int, out: dict) -> float:
    """Build the service, run the stream; return the timed-phase start."""
    service, requests = spec.build(seed)
    out["sent"] = len(requests)
    seen = set()
    repeats = 0
    for request in requests:
        key = (request.kind, request.units)
        repeats += key in seen
        seen.add(key)
    out["repeats"] = repeats
    start = time.monotonic()
    metrics = service.run(
        requests, arrival_rate=spec.rate, duration_rounds=spec.ticks
    )
    out["wall_s"] = time.monotonic() - start
    payload = metrics.to_dict()
    out["digest"] = _sha256(json.dumps(payload, sort_keys=True))
    # A warm restart legitimately differs only in its calibration record
    # (zero probe runs, warm_start=True); everything else must match.
    payload.pop("calibration", None)
    out["digest_core"] = _sha256(json.dumps(payload, sort_keys=True))
    out["completed"] = metrics.completed_tasks
    out["dropped"] = metrics.dropped_requests
    out["elapsed_sim_s"] = metrics.elapsed_seconds
    # Batch formation and calibrator refits of this stream, so the run
    # record shows which sub-streams the calibrator fragments.
    units = sorted(b["workload"] for b in metrics.batch_log)
    out["batches"] = len(units)
    out["units_per_batch_p50"] = units[len(units) // 2] if units else 0
    out["refits"] = (metrics.calibration or {}).get("refits", 0)
    out["latencies"] = [t.latency_seconds for t in metrics.latencies]
    return start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    spec = {**WORKLOADS, **SELFTEST_WORKLOADS}[args.workload]
    out: dict = {"workload": spec.name, "seed": args.seed, "trace": args.trace}
    status = 0
    try:
        import_start = time.monotonic()
        import repro.experiments.report  # noqa: F401
        import repro.experiments.runner  # noqa: F401
        import repro.sched.service  # noqa: F401
        from repro.perf import timings
        from repro.perf.cache import configure_cache, get_cache

        import_s = time.monotonic() - import_start
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            # Interpreter start-up and the benchmark's own imports before
            # this point stay unattributed.
            tracer.add_span("setup.import", import_s)
            tracer.install()
        cache_dir = Path(args.cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)
        configure_cache(directory=str(cache_dir))
        if spec.kind == "report":
            start = _report_pass(spec, args.seed, cache_dir.parent, out)
        else:
            start = _serve_pass(spec, args.seed, out)
        out["setup_s"] = start - args.spawned_at
        out["phases"] = timings.snapshot()
        out["cache"] = get_cache().stats.to_dict()
        out["disk_bytes"] = _dir_bytes(cache_dir)
        if tracer is not None:
            tracer.uninstall()
            out["spans"] = tracer.snapshot()
    except Exception:  # the parent counts the pass as failed
        out["error"] = traceback.format_exc()
        sys.stderr.write(out["error"])
        status = 1
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
