"""Whole-stack property test: random structured programs through the
profile -> selection -> simulation pipeline must preserve the simulator's
global invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cmt import ProcessorConfig, simulate, single_thread_cycles
from repro.exec import run_program
from repro.isa import Opcode, ProgramBuilder
from repro.isa.builder import ARG_REGS, RV_REG
from repro.profiling import ControlFlowGraph
from repro.spawning import ProfilePolicyConfig, heuristic_pairs, select_profile_pairs

POLICY = ProfilePolicyConfig(min_distance=8)


@st.composite
def random_program(draw):
    """A random but well-formed program: nested counted loops whose bodies
    mix ALU work, array traffic, data-dependent ifs and optional calls;
    optionally one instruction reads the same register in both operand
    slots."""
    outer_trips = draw(st.integers(min_value=2, max_value=12))
    inner_trips = draw(st.integers(min_value=0, max_value=8))
    body_ops = draw(st.integers(min_value=1, max_value=6))
    use_call = draw(st.booleans())
    use_if = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=10_000))
    double_read = draw(st.booleans())

    b = ProgramBuilder("fuzz")
    i, j, acc, addr, tmp = (
        b.reg("i"),
        b.reg("j"),
        b.reg("acc"),
        b.reg("addr"),
        b.reg("tmp"),
    )
    base = b.alloc_data((seed * 31 + k * 7) % 997 for k in range(64))
    b.li(acc, seed % 100)
    with b.for_range(i, 0, outer_trips):
        for k in range(body_ops):
            b.addi(acc, acc, k + 1)
            b.andi(acc, acc, 0xFFFF)
        b.li(addr, base)
        b.andi(tmp, acc, 63)
        b.add(addr, addr, tmp)
        b.load(tmp, addr)
        if double_read:
            b.add(tmp, tmp, tmp)
        b.add(acc, acc, tmp)
        if use_if:
            with b.if_(Opcode.BNEZ, (tmp,)):
                b.xori(acc, acc, 0x55)
        if inner_trips:
            with b.for_range(j, 0, inner_trips):
                b.add(acc, acc, j)
                b.andi(acc, acc, 0xFFFF)
        if use_call:
            b.mov(ARG_REGS[0], acc)
            b.call("mix")
            b.mov(acc, RV_REG)
        b.li(addr, base)
        b.andi(tmp, acc, 63)
        b.add(addr, addr, tmp)
        b.store(acc, addr)
    b.halt()
    if use_call:
        with b.function("mix"):
            b.shli(RV_REG, ARG_REGS[0], 1)
            b.xori(RV_REG, RV_REG, 0x3C)
            b.andi(RV_REG, RV_REG, 0xFFFF)
    return b.build()


class TestPipelineProperties:
    @given(program=random_program())
    @settings(max_examples=25, deadline=None)
    def test_simulation_invariants_hold(self, program):
        trace = run_program(program, max_steps=100_000)
        pairs = select_profile_pairs(trace, POLICY)
        for predictor in ("perfect", "stride"):
            config = ProcessorConfig(
                num_thread_units=4, value_predictor=predictor
            )
            stats = simulate(trace, pairs, config)
            assert stats.instructions == len(trace)
            assert sum(stats.thread_sizes) == len(trace)
            assert stats.threads_committed == stats.spawns + 1
            assert 0 < stats.avg_active_threads <= 4
            assert stats.cycles >= len(trace) / (4 * config.issue_width)
            # Differential check: the default event core matches the
            # legacy reference core counter for counter.
            reference = simulate(trace, pairs, config.with_(sim_core="legacy"))
            assert stats == reference

    @given(program=random_program())
    @settings(max_examples=15, deadline=None)
    def test_speculation_never_catastrophic_with_perfect_vp(self, program):
        trace = run_program(program, max_steps=100_000)
        base = single_thread_cycles(trace, ProcessorConfig())
        for pairs in (
            select_profile_pairs(trace, POLICY),
            heuristic_pairs(trace),
        ):
            stats = simulate(trace, pairs, ProcessorConfig())
            assert stats.cycles <= base * 1.25

    @given(program=random_program())
    @settings(max_examples=15, deadline=None)
    def test_cfg_tiles_random_traces(self, program):
        trace = run_program(program, max_steps=100_000)
        cfg = ControlFlowGraph.from_trace(trace)
        covered = 0
        for bid, start in cfg.sequence:
            assert start == covered
            covered = start + cfg.blocks[bid].size
        assert covered == len(trace)
