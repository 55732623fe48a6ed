#!/usr/bin/env python
"""Quickstart: profile a program, pick spawning pairs, simulate the CSMT.

This walks the full pipeline of the paper on one workload:

1. build + functionally execute a SpecInt95-analogue program (a trace),
2. run the profile-based spawning-pair selection (Section 3.1),
3. simulate the 16-unit Clustered Speculative Multithreaded Processor,
4. compare against the single-threaded baseline and the traditional
   loop/subroutine heuristics.

Run:  python examples/quickstart.py [workload] [scale]
"""

import sys

from repro.cmt import ProcessorConfig, simulate, single_thread_cycles
from repro.spawning import heuristic_pairs, select_profile_pairs
from repro.workloads import load_trace, workload_names


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "vortex"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.5
    if workload not in workload_names():
        raise SystemExit(f"pick one of {workload_names()}")

    print(f"== {workload} (scale {scale}) ==")
    trace = load_trace(workload, scale)
    print(f"dynamic trace: {len(trace)} instructions, "
          f"{len(trace.program)} static")

    # --- the paper's profile pass ---
    pairs = select_profile_pairs(trace)
    print(f"profile pass: {pairs.candidates_evaluated} candidate pairs, "
          f"{len(pairs)} spawning points selected")
    for pair in pairs.primary_pairs()[:5]:
        print(
            f"  SP pc {pair.sp_pc:4d} -> CQIP pc {pair.cqip_pc:4d}  "
            f"P(reach)={pair.reach_probability:4.2f}  "
            f"E[distance]={pair.expected_distance:6.1f}  ({pair.kind.value})"
        )

    # --- simulate ---
    config = ProcessorConfig()  # 16 TUs, perfect value prediction
    baseline = single_thread_cycles(trace, config)
    profile_stats = simulate(trace, pairs, config)
    heur_stats = simulate(trace, heuristic_pairs(trace), config)

    print(f"\nsingle-threaded baseline : {baseline:8d} cycles")
    print(
        f"profile-based policy     : {profile_stats.cycles:8d} cycles  "
        f"(speed-up {baseline / profile_stats.cycles:.2f}x, "
        f"{profile_stats.avg_active_threads:.1f} active threads, "
        f"{profile_stats.threads_committed} threads)"
    )
    print(
        f"traditional heuristics   : {heur_stats.cycles:8d} cycles  "
        f"(speed-up {baseline / heur_stats.cycles:.2f}x)"
    )
    print(
        f"profile over heuristics  : "
        f"{heur_stats.cycles / profile_stats.cycles:.2f}x"
    )


if __name__ == "__main__":
    main()
