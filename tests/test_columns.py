"""Columnar trace view: construction, equivalence, pickling, caching."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import ArtifactCache
from repro.exec import run_program
from repro.exec.columns import (
    F_BRANCH,
    F_LOAD,
    F_STORE,
    F_TAKEN,
    F_UNCOND,
    TraceColumns,
)
from repro.isa.instructions import FU_CLASSES, Opcode, fu_class, latency_of
from tests.test_property_pipeline import random_program


class TestBuild:
    def test_length_matches_trace(self, loop_trace):
        cols = TraceColumns.build(loop_trace)
        assert len(cols) == len(loop_trace)

    def test_columns_mirror_dyninst_fields(self, loop_trace):
        cols = TraceColumns.build(loop_trace)
        reg_deps = loop_trace.register_deps
        mem_deps = loop_trace.memory_deps
        for pos, inst in enumerate(loop_trace):
            assert cols.pc[pos] == inst.pc
            assert FU_CLASSES[cols.fu[pos]] is fu_class(inst.op)
            assert cols.lat[pos] == latency_of(inst.op)
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
            assert cols.mem_dep[pos] == mem_deps[pos]
            # dep_pairs keeps only resolved producers, paired with the
            # register each produced.
            expected = tuple(
                (producer, inst.srcs[i])
                for i, producer in enumerate(reg_deps[pos])
                if producer >= 0
            )
            assert cols.dep_pairs[pos] == expected

    def test_scan_reads_keep_unresolved_producers(self, loop_trace):
        cols = TraceColumns.build(loop_trace)
        reg_deps = loop_trace.register_deps
        for pos, inst in enumerate(loop_trace):
            expected = tuple(
                (reg, reg_deps[pos][i])
                for i, reg in enumerate(inst.srcs)
                if reg != 0
            )
            assert cols.scan_reads[pos] == expected

    def test_dst_columns(self, loop_trace):
        cols = TraceColumns.build(loop_trace)
        for pos, inst in enumerate(loop_trace):
            if inst.dst is not None and inst.dst != 0:
                assert cols.dst_nz[pos] == inst.dst
                assert cols.dst_value[pos] == inst.dst_value
            else:
                assert cols.dst_nz[pos] == -1


class TestTraceIntegration:
    def test_columns_property_memoizes(self, loop_trace):
        cols = loop_trace.columns
        assert loop_trace.columns is cols
        assert len(cols) == len(loop_trace)

    def test_attach_columns_rejects_length_mismatch(self, loop_trace, serial_trace):
        other = TraceColumns.build(serial_trace)
        assert len(other) != len(loop_trace)
        with pytest.raises(ValueError):
            loop_trace.attach_columns(other)

    def test_attach_columns_installs_view(self, loop_trace):
        rebuilt = TraceColumns.build(loop_trace)
        loop_trace.attach_columns(rebuilt)
        assert loop_trace.columns is rebuilt


def _scan_livein_window(cols, start, end):
    """Reference live-in scan of ``[start, end)``: walk the window in
    order, skip registers already seen or written, and mark each
    position's destination after its reads."""
    skip = set()
    found = []
    for pos in range(start, end):
        for reg, producer in cols.scan_reads[pos]:
            if reg not in skip:
                skip.add(reg)
                found.append((reg, producer))
        if cols.dst_nz[pos] >= 0:
            skip.add(cols.dst_nz[pos])
    return tuple(found)


class TestLiveinWindow:
    @given(program=random_program(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_linear_scan(self, program, data):
        trace = run_program(program, max_steps=100_000)
        cols = trace.columns
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
            assert window == _scan_livein_window(cols, start, end)
            assert cols.livein_window(start, end) is window  # memoized

    def test_producer_is_last_write_before_window(self, loop_trace):
        cols = loop_trace.columns
        n = len(cols)
        for start in range(0, n, max(n // 40, 1)):
            for reg, producer in cols.livein_window(start, n):
                writes = [p for p in range(start) if cols.dst_nz[p] == reg]
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
        # A fresh cache instance must deserialise equal columns, attached
        # to the loaded trace rather than rebuilt from it.
        fresh = ArtifactCache(tmp_path / "cache")
        loaded = fresh.get_or_create(
            "trace",
            lambda: pytest.fail("expected a cache hit"),
            workload="testloop",
        )
        assert loaded._columns == loop_trace.columns
        assert len(loaded) == len(loop_trace)
        assert fresh.stats.disk_hits == 1


class TestFrameworkCacheWiring:
    def test_trace_for_attaches_cached_columns(self, tmp_path):
        from repro.experiments import framework

        cache = ArtifactCache(tmp_path / "cache")
        with framework.use_cache(cache):
            trace = framework.trace_for("compress", 0.1)
            assert trace._columns is not None
        framework.clear_memos()
        # Second process-like pass: trace and columns come off disk.
        fresh = ArtifactCache(tmp_path / "cache")
        with framework.use_cache(fresh):
            warm = framework.trace_for("compress", 0.1)
            assert warm._columns is not None
        framework.clear_memos()
        assert fresh.stats.misses == 0
        assert fresh.stats.hit_rate == 1.0
        assert warm.columns == trace.columns
