"""Smoke test of the benchmark on tiny variants of its three workloads.

    python3 perfbench/smoke.py

For every workload (quadrotor N=8, lq_chain N=10) at seed 1 and both trace
settings it checks that
  - every output check passes, with no failed operation;
  - every metric that BENCHMARK.json names for that setting is emitted,
    with the unit given there;
  - every span's self time is nonnegative and no larger than the span that
    encloses it, and the module self times add up to the traced run time.
Exits 0 when all hold.  Takes about half a minute.
"""
from __future__ import annotations

import json
import sys

import run
import tracer
import workloads


def problems_of(workload: str, trace: bool) -> list:
    record = run.bench(workload, seed=1, seconds=0.0, trace=trace, tiny=True)
    found = [f"failure: {f}" for f in record["failures"]]
    for metric in run.SPEC["per_layer" if trace else "end_to_end"]:
        got = record["metrics"].get(metric["name"])
        if got is None:
            found.append(f"metric {metric['name']} missing")
        elif got["unit"] != metric["unit"]:
            found.append(f"metric {metric['name']} has unit {got['unit']}, not {metric['unit']}")
    if trace and not found:
        tag = f"{workload}-tiny-seed1-trace1"
        spans = json.loads((run.OUT / f"spans-{tag}.json").read_text())["spans"]
        selfs = tracer.self_times(spans)
        for (name, _, start, end, parent), own in zip(spans, selfs):
            enclosing = spans[parent] if parent >= 0 else [None, None, start, end]
            if own < -1e-9 or own > enclosing[3] - enclosing[2] + 1e-9:
                found.append(f"span {name}: self time {own} outside [0, enclosing span]")
        traced_s = record["metrics"]["trace.run_s"]["value"]
        module_sum = sum(record["metrics"][f"{m}.self_s"]["value"] for m in tracer.MODULES)
        if abs(module_sum - traced_s) > 0.01 * traced_s + 0.01:
            found.append(f"module self times sum to {module_sum}, traced run took {traced_s}")
    return found


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    failed = False
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            found = problems_of(workload, trace)
            print(f"{workload:24s} trace={int(trace)} {'ok' if not found else 'FAILED'}")
            for line in found:
                print(f"    {line}")
            failed |= bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
