"""Dynamic-trace index and dependence tests."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import run_program
from repro.isa import ProgramBuilder, assemble


class TestPcIndex:
    def test_positions_are_sorted_and_complete(self, loop_trace):
        pcs = range(len(loop_trace.program))
        total = sum(len(loop_trace.positions_of(pc)) for pc in pcs)
        assert total == len(loop_trace)
        for pc in pcs:
            positions = list(loop_trace.positions_of(pc))
            assert positions == sorted(positions)
            assert all(loop_trace.pc_at(pos) == pc for pos in positions)

    def test_next_occurrence_respects_open_interval(self, loop_trace):
        pc = loop_trace[10].pc
        positions = loop_trace.positions_of(pc)
        if len(positions) >= 2:
            first, second = positions[0], positions[1]
            assert loop_trace.next_occurrence(pc, first, second + 1) == second
            assert loop_trace.next_occurrence(pc, first, second) is None

    def test_next_occurrence_missing_pc(self, loop_trace):
        assert loop_trace.next_occurrence(10_000, 0, len(loop_trace)) is None


class TestRegisterDeps:
    def test_deps_point_to_actual_writers(self, loop_trace):
        deps = loop_trace.register_deps
        for pos in range(min(len(loop_trace), 500)):
            inst = loop_trace[pos]
            for src_i, producer in enumerate(deps[pos]):
                reg = inst.srcs[src_i]
                if producer >= 0:
                    assert loop_trace[producer].dst == reg
                    # no intervening writer
                    for mid in range(producer + 1, pos):
                        assert loop_trace[mid].dst != reg
                else:
                    for mid in range(pos):
                        assert loop_trace[mid].dst != reg

    def test_memory_deps_point_to_stores(self, loop_trace):
        mem = loop_trace.memory_deps
        for pos in range(len(loop_trace)):
            producer = mem[pos]
            if producer >= 0:
                assert loop_trace[producer].is_store
                assert loop_trace[producer].addr == loop_trace[pos].addr


class TestRegisterValues:
    def test_value_of_register_matches_dataflow(self, loop_trace):
        # value before pos must equal the last writer's dst_value
        deps = loop_trace.register_deps
        for pos in range(0, min(len(loop_trace), 300), 7):
            inst = loop_trace[pos]
            for src_i, reg in enumerate(inst.srcs):
                expected = (
                    loop_trace[deps[pos][src_i]].dst_value
                    if deps[pos][src_i] >= 0
                    else 0
                )
                assert loop_trace.value_of_register_at(reg, pos) == expected

    @given(st.integers(min_value=0, max_value=63))
    @settings(max_examples=20, deadline=None)
    def test_value_query_against_brute_force(self, reg):
        program = assemble(
            "li r1 5\nloop: addi r1 r1 -1\nadd r2 r1 r1\nbnez r1 loop\nhalt"
        )
        trace = run_program(program)
        pos = len(trace) // 2
        brute = 0
        for p in range(pos - 1, -1, -1):
            if trace[p].dst == reg:
                brute = trace[p].dst_value
                break
        assert trace.value_of_register_at(reg, pos) == brute

    def test_register_writes_index(self):
        trace = run_program(assemble("li r1 1\nli r1 2\nli r2 3\nhalt"))
        cols = trace.columns
        positions = cols.writes[cols.writes_off[1]:cols.writes_off[2]]
        assert list(positions) == [0, 1]
        assert [cols.dst_value[pos] for pos in positions] == [1, 2]
        assert [trace.value_of_register_at(1, pos) for pos in range(4)] == [
            0, 1, 2, 2,
        ]


class TestNextOccurrenceEdges:
    """Boundary behaviour of the bisect-backed occurrence lookup."""

    def test_empty_interval_returns_none(self, loop_trace):
        pc = loop_trace[10].pc
        first = loop_trace.positions_of(pc)[0]
        assert loop_trace.next_occurrence(pc, first, first) is None
        assert loop_trace.next_occurrence(pc, first, first - 1) is None

    def test_after_equal_to_position_is_excluded(self, loop_trace):
        pc = loop_trace[10].pc
        positions = loop_trace.positions_of(pc)
        last = positions[-1]
        # The interval is open on the left: `after` itself never matches.
        assert loop_trace.next_occurrence(pc, last, len(loop_trace)) is None

    def test_after_beyond_trace_returns_none(self, loop_trace):
        pc = loop_trace[10].pc
        assert loop_trace.next_occurrence(
            pc, len(loop_trace) + 5, len(loop_trace) + 50
        ) is None

    def test_negative_after_finds_first(self, loop_trace):
        pc = loop_trace[10].pc
        first = loop_trace.positions_of(pc)[0]
        assert loop_trace.next_occurrence(pc, -1, len(loop_trace)) == first

    def test_matches_linear_scan(self, loop_trace):
        # The bisect result agrees with a brute-force scan over a window.
        pc = loop_trace[10].pc
        for after in (0, 5, 40, 200):
            before = after + 60
            expected = next(
                (
                    pos
                    for pos in range(after + 1, min(before, len(loop_trace)))
                    if loop_trace[pos].pc == pc
                ),
                None,
            )
            assert loop_trace.next_occurrence(pc, after, before) == expected
