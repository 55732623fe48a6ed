#!/usr/bin/env python
"""Compare every spawning policy across the whole suite (mini Figure 8).

Sweeps the profile-based policy (all three CQIP-ordering criteria) and the
combined traditional heuristics over the eight SpecInt95 analogues, under
perfect value prediction, and prints speed-ups over single-thread.  The
pairs come from the experiments' policy table, as in the figures.

Run:  python examples/policy_comparison.py [scale]
"""

import sys

from repro.cmt import ProcessorConfig, simulate, single_thread_cycles
from repro.experiments.framework import policy_builder
from repro.metrics import harmonic_mean
from repro.workloads import load_trace, workload_names

POLICIES = (
    "profile", "profile-independent", "profile-predictable", "heuristics",
)


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.4
    config = ProcessorConfig()

    header = f"{'benchmark':>10} " + " ".join(
        f"{name:>20}" for name in POLICIES
    )
    print(header)
    print("-" * len(header))

    per_policy = {name: [] for name in POLICIES}
    for workload in workload_names():
        trace = load_trace(workload, scale)
        baseline = single_thread_cycles(trace, config)
        row = [f"{workload:>10}"]
        for name in POLICIES:
            stats = simulate(trace, policy_builder(name)(trace), config)
            speedup = baseline / stats.cycles
            per_policy[name].append(speedup)
            row.append(f"{speedup:>20.2f}")
        print(" ".join(row))

    print("-" * len(header))
    row = [f"{'hmean':>10}"]
    for name in POLICIES:
        row.append(f"{harmonic_mean(per_policy[name]):>20.2f}")
    print(" ".join(row))
    print(
        "\npaper shape: the distance-ordered profile policy leads; the "
        "independence/predictability orderings trail it (Figure 10b), and "
        "the combined heuristics trail on irregular codes (Figure 8)."
    )


if __name__ == "__main__":
    main()
