#!/usr/bin/env python
"""Visualise speculative-thread lifetimes as an ASCII Gantt chart.

Runs one workload on the CSMT with timeline collection enabled and draws,
per thread unit, when each committed thread executed (``=``) and how long
it waited for its in-order commit slot (``.``) — the imbalance the paper's
removal policies (Figures 5-7) are designed to attack.  The same view is
available as ``python -m repro timeline <workload>``.

Run:  python examples/thread_timeline.py [workload] [scale] [tus]
"""

import sys

from repro.cmt import ProcessorConfig, simulate
from repro.cmt.gantt import render_gantt
from repro.spawning import select_profile_pairs
from repro.workloads import load_trace, workload_names


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "vortex"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.25
    tus = int(sys.argv[3]) if len(sys.argv) > 3 else 8
    if workload not in workload_names():
        raise SystemExit(f"pick one of {workload_names()}")

    trace = load_trace(workload, scale)
    pairs = select_profile_pairs(trace)
    stats = simulate(
        trace,
        pairs,
        ProcessorConfig(num_thread_units=tus, collect_timeline=True),
    )
    print(
        f"{workload}: {stats.cycles} cycles, {stats.threads_committed} "
        f"threads on {tus} units\n"
    )
    print(render_gantt(stats, tus))
    print("\nlong '.' tails are what the paper's pair removal targets")


if __name__ == "__main__":
    main()
