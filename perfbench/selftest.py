"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Pushes a few-tick serve stream (with tenants, result cache, calibration
and faults on) and one cheap experiment (``table2``) through both the
untraced and the traced path, and checks that

* every ``end_to_end`` metric of ``BENCHMARK.json`` is emitted untraced,
  and every ``per_layer`` metric traced;
* in every traced pass, the wrapped children of each span take no more
  time than the span itself, and no self time is negative;
* the self times plus ``unattributed_s`` equal the traced passes' set-up
  plus timed phases.

Exits 0 when every check holds.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

TOLERANCE_S = 1e-6


def check_record(workload: str, trace: int, record: dict) -> list:
    problems = []
    if not record["correct"]:
        problems.append(f"output checks failed: {record['problems']}")
        return problems
    section = "per_layer" if trace else "end_to_end"
    expected = set(run.benchmark_units(section))
    missing = sorted(expected - set(record["metrics"]))
    if missing:
        problems.append(f"{section} metrics not emitted: {missing}")
    if not trace:
        return problems
    for number, spans in enumerate(record["spans"]):
        children = defaultdict(float)
        for parent, _child, seconds in spans["edges"]:
            children[parent] += seconds
        for parent, seconds in children.items():
            if seconds > spans["total_s"][parent] + TOLERANCE_S:
                problems.append(
                    f"pass {number}: children of {parent} take "
                    f"{seconds:.6f} s > its total "
                    f"{spans['total_s'][parent]:.6f} s"
                )
        negative = [n for n, s in spans["self_s"].items() if s < -TOLERANCE_S]
        if negative:
            problems.append(f"pass {number}: negative self time in {negative}")
    values = {k: v["value"] for k, v in record["metrics"].items()}
    attributed = sum(values[name] for name in run.SELF_METRICS.values())
    traced = sum(
        p["setup_s"] + p["wall_s"]
        for unit in record["passes"]
        for p in [unit["cold"]] + unit["warm"]
    )
    gap = attributed + values["unattributed_s"] - traced
    if abs(gap) > TOLERANCE_S:
        problems.append(
            f"self times + unattributed_s miss the traced time by {gap:.3g} s"
        )
    return problems


def main() -> int:
    failures = 0
    for workload in sorted(run.SELFTEST_WORKLOADS):
        for trace in (0, 1):
            record = run.run(workload, run.DEFAULT_SEED, 1, trace)
            problems = check_record(workload, trace, record)
            status = "ok" if not problems else "FAILED"
            print(f"{workload} trace={trace}: {status}")
            for problem in problems:
                print(f"  {problem}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
