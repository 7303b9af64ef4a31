"""Kernel micro-benchmark: p50 step time vs a committed baseline.

Run from the repo root (CI does)::

    python benchmarks/kernel_bench.py              # compare to baseline
    python benchmarks/kernel_bench.py --update     # rewrite the baseline
    python benchmarks/kernel_bench.py --strict     # non-zero exit on drift
    python benchmarks/kernel_bench.py --crossover  # dense/sparse sweep
    python benchmarks/kernel_bench.py --streaming  # block-streaming kernels
    python benchmarks/kernel_bench.py --block-smoke  # digest identity

The default mode measures the median (p50) ``kernel.step()`` wall-clock
per task on a fixed mid-size Chung-Lu graph and compares it against
``benchmarks/kernel_baseline.json`` with a ±30% tolerance. Drift only
*warns* by default — CI hardware is noisy and a micro-benchmark should
flag, not block — but ``--strict`` turns warnings into a failing exit
for local bisection.

``--crossover`` empirically locates the candidates-per-cell density at
which the dense (mask/accumulator) scatter overtakes the sort-based
segment reduction, for sanity-checking
``repro.graph.csr.DENSE_CANDIDATES_PER_CELL`` after a numpy upgrade.

``--streaming`` reruns the same task suite against a memory-mapped copy
of the benchmark graph with the block size forced small enough that
every round streams multiple CSR row blocks through the scratch arena.
The results land under ``streaming.<task>`` keys in the baseline and
drift only ever warns — the mode exists to keep an eye on the
out-of-core overhead ratio, not to gate merges.

``--block-smoke`` is the blocking leg: it digests every task's full
round-summary stream plus its final result arrays on the in-RAM
benchmark graph (one frontier block per round) and on its mapped copy
with the ``--streaming`` block size, and exits non-zero on any digest
mismatch, or when no round streamed more than one block (a match then
proves nothing).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.graph.generators import chung_lu  # noqa: E402
from repro.graph.mirrors import build_mirror_plan  # noqa: E402
from repro.graph.partition import hash_partition  # noqa: E402
from repro.messages.routing import PointToPointRouter  # noqa: E402
from repro.rng import make_rng  # noqa: E402
from repro.tasks.base import make_task  # noqa: E402

BASELINE_PATH = Path(__file__).resolve().parent / "kernel_baseline.json"

#: (task name, workload, batches) — sized so the whole suite stays under
#: ~20 s on CI hardware while giving every task tens of steps.
SETTINGS = (
    ("mssp", 48.0, 3),
    ("bkhs", 48.0, 3),
    ("bppr", 2048.0, 3),
)

TOLERANCE = 0.30  # fractional drift tolerated before warning

GRAPH_NODES = 4000
GRAPH_AVG_DEGREE = 8.0
MAX_STEPS = 200


def _bench_graph():
    return chung_lu(
        GRAPH_NODES, GRAPH_AVG_DEGREE, seed=1234, name="kernel-bench"
    )


def measure() -> dict:
    """p50 step milliseconds per task on the fixed benchmark graph."""
    return _measure_tasks(_bench_graph())


@contextmanager
def _streamed(graph):
    """``graph`` saved to a temporary CSR directory and reopened
    memory-mapped, with the streaming block size forced down to 4096
    arcs (~8 blocks per full-frontier round on the benchmark graph)."""
    import tempfile

    from repro.graph import csr as csr_mod
    from repro.graph.io import save_mapped

    saved_min = csr_mod.MIN_STREAM_BLOCK_ARCS
    with tempfile.TemporaryDirectory() as tmp:
        mapped = save_mapped(graph, Path(tmp) / "kernel-bench.csr")
        csr_mod.MIN_STREAM_BLOCK_ARCS = 1 << 12
        csr_mod.configure_streaming(max_ram_bytes=1)  # clamp to the floor
        try:
            yield mapped
        finally:
            csr_mod.MIN_STREAM_BLOCK_ARCS = saved_min
            csr_mod.configure_streaming(None)


def measure_streaming() -> dict:
    """p50 step milliseconds with the frontier rounds streamed in
    several blocks over a memory-mapped copy of the benchmark graph."""
    with _streamed(_bench_graph()) as mapped:
        return _measure_tasks(mapped, prefix="streaming.")


def _digest_update(h, obj) -> None:
    """Fold one round-summary / result object into a running digest."""
    if isinstance(obj, np.ndarray):
        h.update(obj.tobytes())
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(str(key).encode())
            _digest_update(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _digest_update(h, item)
    else:
        h.update(repr(obj).encode())


def _digest_tasks(graph) -> dict:
    """blake2b over every task's round stream + final result arrays."""
    import hashlib

    partition = hash_partition(graph, 4)
    plan = build_mirror_plan(graph, partition)
    digests = {}
    for task_name, workload, batches in SETTINGS:
        h = hashlib.blake2b(digest_size=16)
        for batch in range(batches):
            spec = make_task(task_name, graph, workload)
            router = PointToPointRouter(graph, plan)
            kernel = spec.make_kernel(
                router, workload, make_rng(97 + batch, label=task_name)
            )
            for _ in range(MAX_STEPS):
                summary = kernel.step()
                _digest_update(
                    h,
                    (
                        summary.routed.network_messages,
                        summary.routed.local_messages,
                        summary.compute_ops,
                        summary.task_state_bytes,
                        summary.active_vertices,
                        summary.done,
                    ),
                )
                if summary.done:
                    break
            _digest_update(h, kernel.result)
        digests[task_name] = h.hexdigest()
    return digests


def run_block_smoke() -> int:
    """Blocking check: multi-block digests must equal one-block digests."""
    from repro.graph.csr import iter_frontier_blocks
    from repro.tasks import bkhs, mssp

    graph = _bench_graph()
    one_block = _digest_tasks(graph)
    blocks_per_round = []

    def counted(degrees, max_arcs):
        blocks = list(iter_frontier_blocks(degrees, max_arcs))
        blocks_per_round.append(len(blocks))
        return iter(blocks)

    modules = (mssp, bkhs)
    for module in modules:
        module.iter_frontier_blocks = counted
    try:
        with _streamed(graph) as mapped:
            streamed = _digest_tasks(mapped)
    finally:
        for module in modules:
            module.iter_frontier_blocks = iter_frontier_blocks
    failures = 0
    for task_name, digest in streamed.items():
        status = "ok" if digest == one_block[task_name] else "MISMATCH"
        print(
            f"{task_name}: one block {one_block[task_name]} vs "
            f"streamed {digest} [{status}]"
        )
        failures += digest != one_block[task_name]
    most = max(blocks_per_round, default=0)
    print(f"most blocks in one streamed round: {most}")
    if most <= 1:
        print("no round streamed more than one block")
        failures += 1
    if failures:
        print(f"FAILED: {failures} block-split check(s)")
        return 1
    print("all streamed digests byte-identical to one block")
    return 0


def _measure_tasks(graph, prefix: str = "") -> dict:
    """Shared timing loop for the in-RAM and streaming modes."""
    partition = hash_partition(graph, 4)
    plan = build_mirror_plan(graph, partition)
    results = {}
    for task_name, workload, batches in SETTINGS:
        step_seconds = []
        for batch in range(batches):
            spec = make_task(task_name, graph, workload)
            router = PointToPointRouter(graph, plan)
            kernel = spec.make_kernel(
                router, workload, make_rng(97 + batch, label=task_name)
            )
            for _ in range(MAX_STEPS):
                start = time.perf_counter()
                summary = kernel.step()
                step_seconds.append(time.perf_counter() - start)
                if summary.done:
                    break
        results[prefix + task_name] = {
            "p50_ms": round(statistics.median(step_seconds) * 1000.0, 4),
            "steps": len(step_seconds),
        }
    return results


def compare(current: dict, baseline: dict) -> list:
    """Human-readable drift warnings (empty when within tolerance)."""
    warnings = []
    for task, entry in current.items():
        base = baseline.get(task)
        if base is None:
            warnings.append(f"{task}: no baseline entry (run --update)")
            continue
        drift = entry["p50_ms"] / base["p50_ms"] - 1.0
        if abs(drift) > TOLERANCE:
            direction = "slower" if drift > 0 else "faster"
            warnings.append(
                f"{task}: p50 {entry['p50_ms']:.3f} ms vs baseline "
                f"{base['p50_ms']:.3f} ms ({abs(drift) * 100:.0f}% "
                f"{direction}, tolerance ±{TOLERANCE * 100:.0f}%)"
            )
    return warnings


def run_crossover() -> int:
    """Sweep candidate density; report where dense overtakes sparse."""
    from repro.graph.csr import (
        DENSE_CANDIDATES_PER_CELL,
        scatter_min_dense,
        segment_min,
    )

    rng = np.random.default_rng(5)
    num_rows, num_cols = 48, 4000
    cells = num_rows * num_cols
    print(f"state matrix {num_rows}x{num_cols} ({cells} cells)")
    print(f"{'cand/cell':>10}  {'sparse ms':>10}  {'dense ms':>10}  winner")
    crossover = None
    for density in (1 / 128, 1 / 64, 1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1):
        size = max(1, int(cells * density))
        rows = rng.integers(0, num_rows, size=size, dtype=np.int64)
        cols = rng.integers(0, num_cols, size=size, dtype=np.int64)
        values = rng.random(size)
        state = np.full((num_rows, num_cols), np.inf)
        mask = np.zeros((num_rows, num_cols), dtype=bool)

        start = time.perf_counter()
        for _ in range(5):
            segment_min(rows, cols, values, num_cols)
        sparse_ms = (time.perf_counter() - start) / 5 * 1000

        start = time.perf_counter()
        for _ in range(5):
            scatter_min_dense(rows, cols, values, state, mask)
        dense_ms = (time.perf_counter() - start) / 5 * 1000

        winner = "dense" if dense_ms < sparse_ms else "sparse"
        if winner == "dense" and crossover is None:
            crossover = density
        print(
            f"{density:>10.4f}  {sparse_ms:>10.3f}  {dense_ms:>10.3f}"
            f"  {winner}"
        )
    print(
        f"\nmeasured crossover ~{crossover}; committed "
        f"DENSE_CANDIDATES_PER_CELL = {DENSE_CANDIDATES_PER_CELL}"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true", help="rewrite the baseline JSON"
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on drift (default: warn only)",
    )
    parser.add_argument(
        "--crossover",
        action="store_true",
        help="sweep the dense/sparse scatter crossover instead",
    )
    parser.add_argument(
        "--streaming",
        action="store_true",
        help="benchmark the block-streaming kernels (warn-only)",
    )
    parser.add_argument(
        "--block-smoke",
        action="store_true",
        help="blocking digest check: streamed multi-block rounds must "
        "match one-block rounds byte for byte",
    )
    args = parser.parse_args(argv)

    if args.crossover:
        return run_crossover()
    if args.block_smoke:
        return run_block_smoke()

    if args.streaming:
        current = measure_streaming()
    else:
        current = measure()
    for task, entry in current.items():
        print(f"{task}: p50 {entry['p50_ms']:.3f} ms over {entry['steps']} steps")

    if args.update or not BASELINE_PATH.exists():
        merged = dict(current)
        if BASELINE_PATH.exists():
            # Keep the other mode's keys: --streaming --update must not
            # drop the in-RAM baselines, and vice versa.
            merged = {
                **json.loads(BASELINE_PATH.read_text(encoding="utf-8")),
                **current,
            }
        BASELINE_PATH.write_text(
            json.dumps(merged, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote baseline {BASELINE_PATH}")
        return 0

    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    warnings = compare(current, baseline)
    for line in warnings:
        print(f"WARNING: {line}")
    if not warnings:
        print(f"all tasks within ±{TOLERANCE * 100:.0f}% of baseline")
    if args.streaming:
        # The streaming comparison is informational: overhead depends on
        # the forced block size and page-cache state, so it never blocks.
        return 0
    return 1 if (warnings and args.strict) else 0


if __name__ == "__main__":
    sys.exit(main())
