"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload report-quick --seed 42 \
        --seconds 30 --trace 0

Run from the root of a checkout. Each pass runs in a fresh process
(``child.py``) with one job and no kernel workers, one pass at a time.
The run checks every pass's outputs, prints each metric by name with its
unit, writes a provenance-stamped record under ``.perfbench/runs/``, and
ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``:

* ``--trace 0``: untraced passes for about ``--seconds``; the metrics are
  the ``end_to_end`` list of ``BENCHMARK.json``.
* ``--trace 1``: unit 0 of the workload untraced and traced; the
  metrics are the ``per_layer`` list (spans recorded from outside by
  ``tracer.py``).

The exit code is 0 only when every output check passed. The workloads,
and which end-to-end metric each layer metric should move, are in
``RATIONALE.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    DEFAULT_SEED,
    MIN_PASSES,
    SELFTEST_WORKLOADS,
    WORKLOADS,
    stream_seed,
)

REFERENCE = HERE / "reference.json"
STATE_DIR = ROOT / ".perfbench"

#: No pass may run past this many seconds after the start, so a run
#: stays inside the three-minute limit of one benchmark invocation.
RUN_LIMIT_S = 170.0

#: Simulated-latency objective behind ``sim_slo_frac`` (the class-0
#: deadline of the mixed stream).
SLO_SECONDS = 600.0

EXPERIMENT_IDS = (
    "fig2", "fig3", "fig4", "fig6", "table2", "table3", "fig5", "fig7",
    "fig8", "fig9", "table4", "fig10", "fig11", "fig12", "faults",
    "ablations", "throughput",
)
TASK_KINDS = ("bppr", "mssp", "bkhs", "pagerank")

#: span name → per-layer metric holding its self time. Every span the
#: tracer records must appear here, so that the self times plus
#: ``unattributed_s`` add up to the traced passes' time.
SELF_METRICS: Dict[str, str] = {
    "setup.import": "setup.import_s",
    "graph.generate": "graph.generate_s",
    "graph.partition": "graph.partition_s",
    "graph.mirror_plan": "graph.mirror_plan_s",
    "messages.combine": "messages.combine_s",
    "messages.route": "messages.route_s",
    "engines.round_loop": "engines.round_loop_s",
    "engines.canonical": "engines.canonical_s",
    "sim.round_cost": "sim.round_cost_s",
    "perf.cache": "perf.cache.self_s",
    "tuning.probe": "tuning.probe_s",
    "tuning.tell": "tuning.tell_s",
    "sched.control": "sched.control_s",
    "sched.admission": "sched.admission_s",
    **{f"tasks.{kind}.step": f"tasks.{kind}.step_s" for kind in TASK_KINDS},
    **{f"experiments.{eid}": f"experiments.{eid}_s" for eid in EXPERIMENT_IDS},
}

#: Workload-specific outcome figures (name → unit). They are printed next
#: to the end-to-end metrics and reported as per-layer metrics, because
#: every end-to-end metric has to exist on every workload.
OUTCOME_UNITS = {
    "failed_frac": "ratio",
    "claims_held": "count",
    "warm_wall_s": "s",
    "sim_throughput_tasks_per_s": "tasks/s",
    "sim_latency_p50_s": "s",
    "sim_latency_tail_s": "s",
    "sim_slo_frac": "ratio",
}


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile (the service's own definition)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def tail_percentile(count: int) -> float:
    """Highest listed percentile with at least ten samples beyond it."""
    for q in (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0):
        if count * (1.0 - q / 100.0) >= 10.0:
            return q
    return 50.0


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def ok(passes: List[dict]) -> List[dict]:
    """The passes that finished without an error."""
    return [p for p in passes if "error" not in p]


def all_passes(units: List[dict]) -> List[dict]:
    return [p for u in units for p in [u["cold"]] + u["warm"]]


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
class Runner:
    """Starts passes one at a time and keeps the run inside its limit."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.started = time.monotonic()
        self.count = 0
        self.env = {
            k: v for k, v in os.environ.items() if not k.startswith("REPRO_")
        }
        self.env["PYTHONPATH"] = str(ROOT / "src")
        # One thread per process: no BLAS/OpenMP pool beside the pass.
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            self.env[var] = "1"

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def run_pass(
        self, workload: str, seed: int, cache: Path, trace: bool = False
    ) -> dict:
        """Run one pass to completion and return what it wrote."""
        self.count += 1
        out = self.workdir / f"pass-{self.count}.json"
        cmd = [
            sys.executable, str(HERE / "child.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--cache-dir", str(cache),
            "--out", str(out),
        ]
        if trace:
            cmd.append("--trace")
        remaining = RUN_LIMIT_S - self.elapsed()
        if remaining <= 1.0:
            return {"error": "run time limit reached before the pass"}
        try:
            subprocess.run(
                cmd + ["--spawned-at", repr(time.monotonic())],
                stdout=sys.stderr,
                env=self.env,
                cwd=ROOT,
                timeout=remaining,
                check=False,
            )
        except subprocess.TimeoutExpired:  # run() killed and reaped it
            return {"error": "pass timed out"}
        try:
            return json.loads(out.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {"error": "pass wrote no result"}

    def more(self, count: int, minimum: int, since: float,
             seconds: float) -> bool:
        """Whether to start another pass: always below ``minimum``, then
        while a pass as long as the mean since ``since`` still ends
        inside ``seconds``."""
        if count < minimum:
            return True
        mean = (self.elapsed() - since) / count
        return self.elapsed() + mean <= seconds


def _unit(index: int, seed: int, cold: dict, warm: List[dict]) -> dict:
    return {"index": index, "seed": seed, "cold": cold, "warm": warm}


def measure_report(spec, seed: int, seconds: float,
                   runner: Runner) -> List[dict]:
    """One cold pass into a fresh cache, then warm passes against it."""
    cache = runner.workdir / "cache-0"
    cold = runner.run_pass(spec.name, seed, cache)
    warm: List[dict] = []
    since = runner.elapsed()
    while runner.more(len(warm), MIN_PASSES, since, seconds):
        warm.append(runner.run_pass(spec.name, seed, cache))
    shutil.rmtree(cache, ignore_errors=True)
    return [_unit(0, seed, cold, warm)]


def measure_serve(spec, seed: int, seconds: float,
                  runner: Runner) -> List[dict]:
    """Independent sub-streams, each a cold start on a fresh cache."""
    units: List[dict] = []
    while runner.more(len(units), MIN_PASSES, 0.0, seconds):
        index = len(units)
        sub_seed = stream_seed(seed, index)
        cache = runner.workdir / f"cache-{index}"
        cold = runner.run_pass(spec.name, sub_seed, cache)
        shutil.rmtree(cache, ignore_errors=True)
        units.append(_unit(index, sub_seed, cold, []))
    return units


def measure_traced(spec, seed: int, runner: Runner):
    """Unit 0 untraced (``MIN_PASSES`` cold passes) and once traced
    (cold + warm).

    Returns ``(plain_passes, traced_unit)``.
    """
    sub_seed = seed if spec.kind == "report" else stream_seed(seed, 0)
    plains = []
    for _ in range(MIN_PASSES):
        plain_cache = runner.workdir / "cache-plain"
        plains.append(runner.run_pass(spec.name, sub_seed, plain_cache))
        shutil.rmtree(plain_cache, ignore_errors=True)
    cache = runner.workdir / "cache-traced"
    cold = runner.run_pass(spec.name, sub_seed, cache, trace=True)
    warm = runner.run_pass(spec.name, sub_seed, cache, trace=True)
    shutil.rmtree(cache, ignore_errors=True)
    return plains, _unit(0, sub_seed, cold, [warm])


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def load_reference() -> dict:
    try:
        return json.loads(REFERENCE.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def _check_report(tag: str, passes: List[dict], ref) -> List[str]:
    cold = passes[0]
    problems = []
    if any(p["body_sha256"] != cold["body_sha256"] for p in passes):
        problems.append(f"{tag}: warm report differs from cold report")
    if not 0 <= cold["claims_held"] <= cold["claims_total"]:
        problems.append(f"{tag}: report has no valid claims summary")
    if ref is not None and (
        cold["body_sha256"] != ref["body_sha256"]
        or cold["claims_held"] != ref["claims_held"]
    ):
        problems.append(f"{tag}: report differs from the reference")
    return problems


def _check_serve(tag: str, passes: List[dict], ref) -> List[str]:
    cold = passes[0]
    problems = []
    for p in passes:
        if p["sent"] != p["completed"] + p["dropped"]:
            problems.append(
                f"{tag}: sent {p['sent']} != completed {p['completed']}"
                f" + dropped {p['dropped']}"
            )
    if any(p["digest_core"] != cold["digest_core"] for p in passes):
        problems.append(f"{tag}: warm restart differs from cold start")
    if ref is not None and cold["digest"] != ref:
        problems.append(f"{tag}: service metrics differ from the reference")
    return problems


def check_units(spec, seed: int, units: List[dict],
                reference: dict) -> List[str]:
    """Output checks; returns the problems found (empty = correct)."""
    problems: List[str] = []
    ref_all = reference.get(spec.name) if seed == DEFAULT_SEED else None
    for unit in units:
        passes = [unit["cold"]] + unit["warm"]
        tag = f"unit {unit['index']} (seed {unit['seed']})"
        failed = [p for p in passes if "error" in p]
        for p in failed:
            last = p["error"].strip().splitlines()[-1:]
            problems.append(f"{tag}: pass failed: {last}")
        if failed:
            continue
        if spec.kind == "report":
            problems += _check_report(tag, passes, ref_all)
        else:
            ref = None
            if ref_all is not None and unit["index"] < len(ref_all):
                ref = ref_all[unit["index"]]
            problems += _check_serve(tag, passes, ref)
    return problems


def operations(spec, passes: List[dict]) -> Dict[str, int]:
    """Attempted and failed operations: experiments or requests."""
    attempted = failed = 0
    for p in passes:
        if spec.kind == "report":
            default = len(spec.experiments or EXPERIMENT_IDS)
            total = p.get("experiments", default)
        else:
            total = p.get("sent", 0)
        attempted += total
        if "error" in p:
            failed += total
        else:
            failed += total - p.get("completed", 0)
    if attempted == 0:  # no pass got far enough to say what it attempted
        return {"attempted": 1, "failed": 1}
    return {"attempted": attempted, "failed": failed}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(units: List[dict], ops: Dict[str, int]) -> dict:
    cold = ok([u["cold"] for u in units])
    warm = ok([p for u in units for p in u["warm"]])
    # Report passes all set up alike (imports only); serve runs only
    # cold starts, which load the dataset and train the probes.
    setups = cold + warm
    metrics = {"completed_frac": 1.0 - ops["failed"] / ops["attempted"]}
    if setups:
        metrics["setup_s"] = median([p["setup_s"] for p in setups])
    if cold:
        metrics["wall_s"] = median([p["wall_s"] for p in cold])
        metrics["peak_rss_mb"] = median([p["peak_rss_mb"] for p in cold])
    return metrics


def outcome(spec, units: List[dict], ops: Dict[str, int]) -> dict:
    """Workload-specific outcome figures of the cold passes."""
    cold = ok([u["cold"] for u in units])
    result = {"failed_frac": ops["failed"] / ops["attempted"]}
    if not cold:
        return result
    if spec.kind == "report":
        result["claims_held"] = float(cold[0]["claims_held"])
        warm = ok([p for u in units for p in u["warm"]])
        if warm:
            result["warm_wall_s"] = median([p["wall_s"] for p in warm])
        return result
    latencies = [x for p in cold for x in p["latencies"]]
    sent = sum(p["sent"] for p in cold)
    elapsed = sum(p["elapsed_sim_s"] for p in cold)
    completed = sum(p["completed"] for p in cold)
    tail = tail_percentile(len(latencies))
    within = sum(x <= SLO_SECONDS for x in latencies)
    result.update(
        {
            "sim_throughput_tasks_per_s": _ratio(completed, elapsed),
            "sim_latency_p50_s": percentile(latencies, 50.0),
            "sim_latency_tail_s": percentile(latencies, tail),
            "sim_latency_tail_percentile": tail,
            "sim_latency_n": float(len(latencies)),
            "sim_slo_frac": _ratio(within, sent),
        }
    )
    return result


def workload_properties(spec, units: List[dict]) -> Dict[str, float]:
    """Input properties a cache or estimate claim can cite."""
    cold = ok([u["cold"] for u in units])
    sent = sum(p.get("sent", 0) for p in cold)
    experiments = 0
    if spec.kind == "report":
        experiments = sum(p["completed"] for p in cold)
    repeats = sum(p.get("repeats", 0) for p in cold)
    return {
        "workload.experiments_run": float(experiments),
        "workload.requests_sent": float(sent),
        "workload.repeat_share": _ratio(repeats, sent),
        "workload.offered_rate_per_s": getattr(spec, "rate", 0.0),
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(unit: dict, plains: List[dict]) -> Dict[str, float]:
    """Per-layer metrics of one traced unit (cold pass + warm pass)."""
    passes = ok([unit["cold"]] + unit["warm"])
    self_s: Dict[str, float] = {}
    calls: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    services: List[dict] = []
    for p in passes:
        spans = p["spans"]
        for table, merged in ((spans["self_s"], self_s),
                              (spans["calls"], calls),
                              (spans["counts"], counts)):
            for name, value in table.items():
                merged[name] = merged.get(name, 0.0) + value
        services.extend(spans["services"])
    unknown = sorted(set(self_s) - set(SELF_METRICS))
    if unknown:
        raise RuntimeError(f"spans without a per-layer metric: {unknown}")

    def service_sum(key: str) -> float:
        return float(sum(s[key] for s in services))

    m = {name: self_s.get(span, 0.0) for span, name in SELF_METRICS.items()}
    m["graph.generate.calls"] = calls.get("graph.generate", 0.0)
    for kind in TASK_KINDS:
        m[f"tasks.{kind}.steps"] = calls.get(f"tasks.{kind}.step", 0.0)
    m["messages.combine.calls"] = calls.get("messages.combine", 0.0)
    m["messages.combine.read_ratio"] = _ratio(
        counts.get("messages.combine.reads", 0.0),
        m["messages.combine.calls"],
    )
    m["messages.route.calls"] = calls.get("messages.route", 0.0)
    m["engines.rounds"] = counts.get("engines.rounds", 0.0)
    m["engines.batches"] = counts.get("engines.batches", 0.0)
    m["engines.canonical.calls"] = calls.get("engines.canonical", 0.0)
    m["sim.round_cost.calls"] = calls.get("sim.round_cost", 0.0)

    m["perf.cache.warm_self_s"] = sum(
        p["spans"]["self_s"].get("perf.cache", 0.0) for p in ok(unit["warm"])
    )
    for key in ("hits", "disk_hits", "misses"):
        m[f"perf.cache.{key}"] = float(sum(p["cache"][key] for p in passes))
    m["perf.cache.disk_hit_ratio"] = _ratio(
        m["perf.cache.disk_hits"],
        m["perf.cache.hits"] + m["perf.cache.disk_hits"]
        + m["perf.cache.misses"],
    )
    m["perf.cache.disk_bytes"] = float(
        max((p["disk_bytes"] for p in passes), default=0)
    )

    result_caches = [s["result_cache"] for s in services if s["result_cache"]]
    for key in ("hits", "coalesced", "misses", "evictions"):
        m[f"perf.result_cache.{key}"] = float(
            sum(c.get(key, 0) for c in result_caches)
        )
    m["perf.result_cache.served_ratio"] = _ratio(
        m["perf.result_cache.hits"] + m["perf.result_cache.coalesced"],
        m["perf.result_cache.hits"] + m["perf.result_cache.misses"],
    )

    m["tuning.probe_runs"] = counts.get("tuning.probe_runs", 0.0)
    m["tuning.tells"] = calls.get("tuning.tell", 0.0)
    m["tuning.refits"] = service_sum("refits")

    m["sched.control_ms_per_request"] = 1000.0 * _ratio(
        m["sched.control_s"], service_sum("sent")
    )
    m["sched.admission.calls"] = calls.get("sched.admission", 0.0)
    m["sched.batches"] = service_sum("batches")
    m["sched.units_per_batch_p50"] = percentile(
        [u for s in services for u in s["batch_units"]], 50.0
    )
    m["sched.flushes"] = service_sum("flushes")
    m["sched.queue_wait_p50_s"] = percentile(
        [w for s in services for w in s["queue_waits"]], 50.0
    )

    m["faults.crashes"] = counts.get("faults.crashes", 0.0)
    m["faults.rounds_replayed"] = counts.get("faults.rounds_replayed", 0.0)
    m["faults.deadline_misses"] = service_sum("deadline_misses")

    traced_s = sum(p["setup_s"] + p["wall_s"] for p in passes)
    m["unattributed_s"] = traced_s - sum(p["spans"]["top_s"] for p in passes)
    cold = unit["cold"]
    plain_walls = [p["wall_s"] for p in ok(plains)]
    m["tracing_overhead_frac"] = 0.0
    if "error" not in cold and plain_walls:
        m["tracing_overhead_frac"] = (
            cold["wall_s"] / median(plain_walls) - 1.0
        )

    def phase(name: str) -> float:
        return sum(
            p["phases"].get(name, {}).get("seconds", 0.0) for p in passes
        )

    steps = sum(m[f"tasks.{kind}.step_s"] for kind in TASK_KINDS)
    m["xcheck.kernel_minus_steps_s"] = phase("kernel") - steps
    m["xcheck.graph_gen_minus_generate_s"] = (
        phase("graph-gen") - m["graph.generate_s"]
    )
    m["xcheck.cost_model_minus_round_s"] = phase("cost-model") - (
        m["sim.round_cost_s"] + m["engines.round_loop_s"]
    )
    return m


# ----------------------------------------------------------------------
# Provenance and output
# ----------------------------------------------------------------------
def _git(*args: str) -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            timeout=20, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def _version(package: str) -> Optional[str]:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _numa_nodes() -> Optional[int]:
    try:
        names = os.listdir("/sys/devices/system/node")
    except OSError:
        return None
    return sum(1 for name in names if re.fullmatch(r"node\d+", name))


def provenance(spec, seed: int, seconds: int, trace: int) -> dict:
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "commit": commit.strip() if commit else None,
        "dirty": bool(status.strip()) if status is not None else None,
        "nproc": len(os.sched_getaffinity(0)),
        "numa_nodes": _numa_nodes(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": spec.params(),
    }


def benchmark_units(section: str) -> Dict[str, str]:
    """Metric name → unit for one section of ``BENCHMARK.json``."""
    path = ROOT / "BENCHMARK.json"
    config = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in config[section]}


def _pass_summary(p: dict) -> dict:
    return {
        k: v for k, v in p.items()
        if k not in ("latencies", "spans", "phases")
    }


def run(workload: str, seed: int, seconds: int, trace: int, *,
        write_reference: bool = False) -> dict:
    """Run one workload and return its record (see the module doc)."""
    spec = {**WORKLOADS, **SELFTEST_WORKLOADS}[workload]
    STATE_DIR.mkdir(exist_ok=True)
    workdir = STATE_DIR / f"work-{os.getpid()}-{time.time_ns()}"
    workdir.mkdir()
    runner = Runner(workdir)
    reference = load_reference()
    try:
        if trace:
            plains, unit = measure_traced(spec, seed, runner)
            units = [unit]
            checked = all_passes(units) + plains
            problems = check_units(spec, seed, units, reference)
            problems += check_units(
                spec, seed, [_unit(0, unit["seed"], p, []) for p in plains],
                reference,
            )
            key = "body_sha256" if spec.kind == "report" else "digest"
            if not problems and any(
                p[key] != unit["cold"][key] for p in plains
            ):
                problems.append("traced pass differs from the untraced pass")
        else:
            if spec.kind == "report":
                units = measure_report(spec, seed, seconds, runner)
            else:
                units = measure_serve(spec, seed, seconds, runner)
            checked = all_passes(units)
            problems = check_units(spec, seed, units, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = operations(spec, checked)
    if problems:
        ops["failed"] = ops["attempted"]
    results = outcome(spec, units, ops)
    properties = workload_properties(spec, units)
    if trace:
        units_map = benchmark_units("per_layer")
        metrics = layer_metrics(unit, plains) if not problems else {}
        for name in OUTCOME_UNITS:
            if name in units_map:
                metrics[name] = results.get(name, 0.0)
        metrics.update(properties)
    else:
        units_map = benchmark_units("end_to_end")
        metrics = end_to_end(units, ops)
    if not problems and set(metrics) != set(units_map):
        raise RuntimeError(
            f"metric set mismatch: {sorted(set(metrics) ^ set(units_map))}"
        )
    record = {
        "provenance": provenance(spec, seed, seconds, trace),
        "correct": not problems,
        "problems": problems,
        "attempted": ops["attempted"],
        "failed": ops["failed"],
        "metrics": {
            name: {"value": value, "unit": units_map[name]}
            for name, value in metrics.items()
        },
        "outcome": results,
        "workload_properties": properties,
        "passes": [
            {
                "unit": u["index"],
                "seed": u["seed"],
                "cold": _pass_summary(u["cold"]),
                "warm": [_pass_summary(p) for p in u["warm"]],
            }
            for u in units
        ],
    }
    if trace:
        record["untraced"] = [_pass_summary(p) for p in plains]
        record["spans"] = [p["spans"] for p in ok(all_passes(units))]
    if write_reference and seed == DEFAULT_SEED and not trace:
        _write_reference(spec, units, problems)
    return record


def _write_reference(spec, units: List[dict], problems: List[str]) -> None:
    """Record the default-seed outputs as the reference; every check other
    than the comparison with the old reference must have passed."""
    blocking = [p for p in problems if "reference" not in p]
    if blocking:
        raise RuntimeError(f"not recording a failing run: {blocking}")
    reference = load_reference()
    if spec.kind == "report":
        cold = units[0]["cold"]
        reference[spec.name] = {
            "body_sha256": cold["body_sha256"],
            "claims_held": cold["claims_held"],
        }
    else:
        reference[spec.name] = [u["cold"]["digest"] for u in units]
    REFERENCE.write_text(
        json.dumps(reference, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def print_record(record: dict) -> None:
    prov = record["provenance"]
    print(
        f"perfbench {prov['workload']} seed={prov['seed']} "
        f"trace={prov['trace']} commit={prov['commit']} "
        f"dirty={prov['dirty']} nproc={prov['nproc']} "
        f"numa_nodes={prov['numa_nodes']} python={prov['python']} "
        f"numpy={prov['numpy']} scipy={prov['scipy']}"
    )
    rows = [(k, v["value"], v["unit"]) for k, v in record["metrics"].items()]
    figures = record["outcome"]
    if not prov["trace"]:
        rows += [
            (k, v, OUTCOME_UNITS[k])
            for k, v in figures.items()
            if k in OUTCOME_UNITS
        ]
        rows += [(k, v, "") for k, v in record["workload_properties"].items()]
    width = max((len(row[0]) for row in rows), default=10)
    for name, value, unit in rows:
        print(f"  {name.ljust(width)}  {value:>14.6g}  {unit}")
    tail = figures.get("sim_latency_tail_percentile")
    if tail is not None and not prov["trace"]:
        print(
            f"  (sim_latency_tail_s is p{tail:g} of "
            f"n={figures['sim_latency_n']:.0f})"
        )
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seeds are non-negative integers")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="record this default-seed run's outputs in reference.json",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    record = run(args.workload, args.seed, args.seconds, args.trace,
                 write_reference=args.write_reference)
    runs = STATE_DIR / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    name = f"{stamp}-{args.workload}-s{args.seed}-t{args.trace}"
    path = runs / f"{name}-{os.getpid()}.json"
    path.write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print_record(record)
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
