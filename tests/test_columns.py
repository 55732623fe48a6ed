"""Columnar trace view: construction, equivalence, pickling, caching.

The linear-scan references at the top take a list of ``DynInst``
records (a ``Machine.step()`` replay or a trace's view) and answer the
trace's index queries by walking them; ``tests/test_trace_build.py``
reuses them on decoded traces.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import ArtifactCache
from repro.exec import Trace, run_program
from repro.exec.columns import (
    F_BRANCH,
    F_LOAD,
    F_STORE,
    F_TAKEN,
    F_UNCOND,
    TraceColumns,
)
from repro.isa import assemble
from repro.isa.instructions import FU_CLASSES, Opcode, fu_class, latency_of
from tests.test_property_pipeline import random_program


def _scan_value_at(records, reg, pos):
    """Reference register value just before ``pos``: the last write."""
    if reg == 0:
        return 0
    for earlier in range(pos - 1, -1, -1):
        if records[earlier].dst == reg:
            return records[earlier].dst_value
    return 0


def _scan_last_write(records, reg, pos):
    """Reference producer: the last position before ``pos`` writing ``reg``."""
    for earlier in range(pos - 1, -1, -1):
        if reg and records[earlier].dst == reg:
            return earlier
    return -1


def _scan_positions(records, pc):
    """Reference pc index: every position that executed ``pc``."""
    return [pos for pos, record in enumerate(records) if record.pc == pc]


def _scan_next_occurrence(records, pc, after, before):
    """Reference occurrence lookup: first ``pc`` in (after, before)."""
    for pos in range(max(after + 1, 0), min(before, len(records))):
        if records[pos].pc == pc:
            return pos
    return None


def _scan_livein_window(records, start, end):
    """Reference live-in scan of ``[start, end)``: walk the window in
    order, skip registers already seen or written, and mark each
    position's destination after its reads.  A live-in's producer is
    its last write before the window."""
    skip = set()
    found = []
    for pos in range(start, end):
        record = records[pos]
        for reg in record.srcs:
            if reg and reg not in skip:
                skip.add(reg)
                found.append((reg, _scan_last_write(records, reg, start)))
        if record.dst:
            skip.add(record.dst)
    return tuple(found)


class TestBuild:
    def test_length_matches_trace(self, loop_trace):
        cols = TraceColumns.build(loop_trace)
        assert len(cols) == len(loop_trace)

    def test_columns_mirror_dyninst_fields(self, loop_trace):
        cols = TraceColumns.build(loop_trace)
        records = list(loop_trace)
        last_store = {}
        for pos, inst in enumerate(records):
            assert cols.pc[pos] == inst.pc
            assert FU_CLASSES[cols.fu_of[inst.pc]] is fu_class(inst.op)
            assert cols.lat_of[inst.pc] == latency_of(inst.op)
            flags = cols.flags[pos]
            assert bool(flags & F_BRANCH) == (inst.taken is not None)
            if inst.taken is not None:
                assert bool(flags & F_TAKEN) == inst.taken
            assert bool(flags & F_LOAD) == inst.is_load
            assert bool(flags & F_STORE) == inst.is_store
            uncond = inst.taken is None and inst.op in (
                Opcode.JUMP, Opcode.CALL, Opcode.RET,
            )
            assert bool(flags & F_UNCOND) == uncond
            if inst.addr is None:
                assert cols.addr[pos] == -1
            else:
                assert cols.addr[pos] == inst.addr
            if inst.is_load:
                assert cols.mem_dep[pos] == last_store.get(inst.addr, -1)
            else:
                assert cols.mem_dep[pos] == -1
            if inst.is_store:
                last_store[inst.addr] = pos
            # Operand slots: the registers are the static instruction's,
            # the producers each source's last writer.
            slots = (cols.reg0_of[inst.pc], cols.reg1_of[inst.pc])
            assert slots[: len(inst.srcs)] == inst.srcs
            producers = (cols.dep0[pos], cols.dep1[pos])
            for slot, reg in enumerate(inst.srcs):
                assert producers[slot] == _scan_last_write(records, reg, pos)
            assert producers[len(inst.srcs):] == (-1,) * (2 - len(inst.srcs))

    def test_scan_reads_keep_unresolved_producers(self, loop_trace):
        # The read index the live-in scan bisects lists every non-zero
        # register read, whether or not the register has a producer; an
        # unproduced read keeps -1 in its operand slot.
        unproduced = run_program(
            assemble("add r2 r1 r3\naddi r1 r2 1\nadd r4 r1 r1\nhalt")
        )
        unresolved = 0
        for trace in (loop_trace, unproduced):
            cols = TraceColumns.build(trace)
            records = list(trace)
            for pos, inst in enumerate(records):
                for slot, reg in enumerate(inst.srcs):
                    if reg == 0:
                        continue
                    lo, hi = cols.reads_off[reg], cols.reads_off[reg + 1]
                    assert pos in cols.reads[lo:hi]
                    producer = (cols.dep0, cols.dep1)[slot][pos]
                    if _scan_last_write(records, reg, pos) < 0:
                        assert producer == -1
                        unresolved += 1
        assert unresolved == 2

    def test_dst_columns(self, loop_trace):
        cols = TraceColumns.build(loop_trace)
        for pos, inst in enumerate(loop_trace):
            assert cols.dst_value[pos] == inst.dst_value
            if inst.dst is not None and inst.dst != 0:
                lo, hi = cols.writes_off[inst.dst], cols.writes_off[inst.dst + 1]
                assert pos in cols.writes[lo:hi]
        written = sum(
            1 for inst in loop_trace if inst.dst is not None and inst.dst != 0
        )
        assert len(cols.writes) == written


class TestTraceIntegration:
    def test_columns_property_memoizes(self, loop_trace):
        cols = loop_trace.columns
        assert loop_trace.columns is cols
        assert len(cols) == len(loop_trace)

    def test_trace_rejects_columns_of_another_program(
        self, loop_trace, serial_trace
    ):
        assert len(serial_trace.program) != len(loop_trace.program)
        with pytest.raises(ValueError):
            Trace(serial_trace.program, loop_trace.columns)

    def test_trace_is_its_program_and_columns(self, loop_trace):
        rebuilt = TraceColumns.build(loop_trace)
        trace = Trace(loop_trace.program, rebuilt)
        assert trace.columns is rebuilt
        assert len(trace) == len(loop_trace)
        assert [d.pc for d in trace] == [d.pc for d in loop_trace]


class TestLiveinWindow:
    @given(program=random_program(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_linear_scan(self, program, data):
        trace = run_program(program, max_steps=100_000)
        cols = trace.columns
        records = list(trace)
        n = len(cols)
        pos = st.integers(min_value=0, max_value=n)
        k = data.draw(st.integers(min_value=0, max_value=n - 1))
        # Edge windows: empty (inside and at the end), one instruction,
        # and running to the end of the trace; then random ones.
        windows = [(k, k), (n, n), (k, k + 1), (k, n), (0, n)]
        for _ in range(20):
            start = data.draw(pos)
            end = data.draw(st.integers(min_value=start, max_value=n))
            windows.append((start, end))
        for start, end in windows:
            window = cols.livein_window(start, end)
            assert window == _scan_livein_window(records, start, end)
            assert cols.livein_window(start, end) is window  # memoized

    def test_producer_is_last_write_before_window(self, loop_trace):
        cols = loop_trace.columns
        records = list(loop_trace)
        n = len(cols)
        for start in range(0, n, max(n // 40, 1)):
            for reg, producer in cols.livein_window(start, n):
                writes = [p for p in range(start) if records[p].dst == reg]
                assert producer == (writes[-1] if writes else -1)


class TestSerialization:
    def test_pickle_round_trip_is_equal(self, loop_trace):
        cols = loop_trace.columns
        clone = pickle.loads(pickle.dumps(cols))
        assert clone == cols
        assert len(clone) == len(cols)

    def test_equality_detects_divergence(self, loop_trace, serial_trace):
        assert loop_trace.columns != serial_trace.columns

    def test_trace_cache_kind_round_trips_columns(self, loop_trace, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        built = cache.get_or_create(
            "trace", lambda: loop_trace, workload="testloop"
        )
        assert built.columns == loop_trace.columns
        # A fresh cache instance must deserialise equal columns, as the
        # loaded trace's own, rather than rebuild them.
        fresh = ArtifactCache(tmp_path / "cache")
        loaded = fresh.get_or_create(
            "trace",
            lambda: pytest.fail("expected a cache hit"),
            workload="testloop",
        )
        assert loaded.columns == loop_trace.columns
        assert len(loaded) == len(loop_trace)
        assert fresh.stats.disk_hits == 1


class TestFrameworkCacheWiring:
    def test_trace_for_attaches_cached_columns(self, tmp_path):
        from repro.experiments import framework

        cache = ArtifactCache(tmp_path / "cache")
        with framework.use_cache(cache):
            trace = framework.trace_for("compress", 0.1)
            assert len(trace.columns) == len(trace)
        framework.clear_memos()
        # Second process-like pass: trace and columns come off disk.
        fresh = ArtifactCache(tmp_path / "cache")
        with framework.use_cache(fresh):
            warm = framework.trace_for("compress", 0.1)
            assert warm is not trace
        framework.clear_memos()
        assert fresh.stats.misses == 0
        assert fresh.stats.hit_rate == 1.0
        assert warm.columns == trace.columns
