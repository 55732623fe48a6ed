"""Dataflow critical-path lower bound on the timing model.

The single-threaded run can never finish faster than the longest true-
dependence chain through the trace (registers and memory, one cycle per
hop at minimum) — an independent check on the whole timing model.
"""

from repro.cmt import ProcessorConfig, simulate
from repro.spawning import SpawnPairSet


def _critical_path(trace) -> int:
    """Length (in >=1-cycle hops) of the longest dependence chain."""
    reg_deps = trace.register_deps
    mem_deps = trace.memory_deps
    depth = [0] * len(trace)
    best = 0
    for pos in range(len(trace)):
        d = 0
        for producer in reg_deps[pos]:
            if producer >= 0 and depth[producer] > d:
                d = depth[producer]
        producer = mem_deps[pos]
        if producer >= 0 and depth[producer] > d:
            d = depth[producer]
        depth[pos] = d + 1
        if depth[pos] > best:
            best = depth[pos]
    return best


class TestCriticalPathBound:
    def test_single_thread_respects_dataflow(self, small_traces):
        for name, trace in small_traces.items():
            stats = simulate(
                trace, SpawnPairSet([]), ProcessorConfig().single_threaded()
            )
            assert stats.cycles >= _critical_path(trace), name

    def test_serial_chain_is_tight(self, serial_trace):
        """On a pure dependence chain, the bound should be within the
        latency factor of the measured cycles."""
        stats = simulate(
            serial_trace, SpawnPairSet([]), ProcessorConfig().single_threaded()
        )
        path = _critical_path(serial_trace)
        assert stats.cycles >= path
        # chain of 1-cycle ALU ops: cycles within a small factor of hops
        assert stats.cycles <= path * 6

    def test_multithreaded_respects_memory_dataflow(self, small_traces):
        """Even with perfect register value prediction, memory dataflow is
        never predicted, so the memory-only critical path still bounds the
        clustered runs."""
        from repro.spawning import select_profile_pairs

        for name, trace in small_traces.items():
            mem_deps = trace.memory_deps
            depth = [0] * len(trace)
            best = 0
            for pos in range(len(trace)):
                producer = mem_deps[pos]
                d = depth[producer] if producer >= 0 else 0
                depth[pos] = d + 1
                if depth[pos] > best:
                    best = depth[pos]
            pairs = select_profile_pairs(trace)
            stats = simulate(trace, pairs, ProcessorConfig())
            assert stats.cycles >= best, name
