#!/usr/bin/env python
"""Author a custom program, inspect its profile, and watch the SVC work.

Demonstrates the substrate layers of the library:

- :class:`ProgramBuilder` for writing programs against the RISC-like ISA,
- the dynamic CFG / reaching-probability profile of a trace,
- the Speculative Versioning Memory with an explicit violation,
- a full CSMT simulation of the custom program.

Run:  python examples/custom_workload.py
"""

from repro.cmt import ProcessorConfig, simulate, single_thread_cycles
from repro.exec import run_program
from repro.isa import Opcode, ProgramBuilder
from repro.mem import SpeculativeVersioningMemory
from repro.profiling import ControlFlowGraph, prune_cfg
from repro.profiling.reaching import EmpiricalReachingProfile
from repro.spawning import select_profile_pairs


def build_histogram_kernel():
    """A small image-histogram kernel: a regular loop with a data-
    dependent inner conditional — a good spawning-pair target."""
    b = ProgramBuilder("histogram")
    from repro.workloads.generators import pseudo_random_words

    pixels = b.alloc_data(pseudo_random_words(7, 600, 0, 256))
    bins = b.alloc(16)
    i, v, addr, t = b.reg("i"), b.reg("v"), b.reg("addr"), b.reg("t")
    with b.for_range(i, 0, 600):
        b.li(addr, pixels)
        b.add(addr, addr, i)
        b.load(v, addr)
        b.shri(v, v, 4)  # 16 bins
        b.li(addr, bins)
        b.add(addr, addr, v)
        b.load(t, addr)
        b.addi(t, t, 1)
        b.store(t, addr)
        with b.if_(Opcode.BEQZ, (v,)):  # dark pixels get extra work
            b.mul(t, t, t)
            b.andi(t, t, 1023)
            b.store(t, addr)
    b.halt()
    return b.build()


def main() -> None:
    program = build_histogram_kernel()
    trace = run_program(program)
    print(f"custom kernel: {len(program)} static / {len(trace)} dynamic instructions")

    # --- profile structure ---
    cfg = ControlFlowGraph.from_trace(trace)
    pruned = prune_cfg(cfg, coverage=0.99)
    profile = EmpiricalReachingProfile(cfg)
    print(f"dynamic CFG: {len(cfg)} blocks, {len(cfg.edges)} edges, "
          f"{len(pruned.kept)} kept at 99% coverage")
    head = cfg.block_of_pc(min(program.loop_heads()))
    print(
        f"loop head block {head}: "
        f"P(reach itself)={profile.prob[head][head]:.3f}, "
        f"E[iteration length]={profile.dist[head][head]:.1f} instructions"
    )

    # --- spawning pairs + simulation ---
    pairs = select_profile_pairs(trace)
    config = ProcessorConfig(num_thread_units=8)
    base = single_thread_cycles(trace, config)
    stats = simulate(trace, pairs, config)
    print(
        f"CSMT (8 units): {stats.cycles} cycles vs {base} single-threaded "
        f"-> speed-up {base / stats.cycles:.2f}x with "
        f"{stats.threads_committed} threads"
    )

    # --- the versioning memory, by hand ---
    print("\nSpeculative Versioning Memory demo:")
    svc = SpeculativeVersioningMemory(backing={100: 1})
    svc.begin_thread(0)
    svc.begin_thread(1)
    print(f"  thread 1 loads addr 100 -> {svc.load(1, 100)} (from memory)")
    violated = svc.store(0, 100, 42)
    print(f"  thread 0 stores 42 late -> violated readers: {violated}")
    svc.squash(1)
    svc.commit(0)
    print(f"  after squash+commit, architectural value: "
          f"{svc.architectural_value(100)}")


if __name__ == "__main__":
    main()
