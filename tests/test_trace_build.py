"""One-pass trace build: the executor against the reference derivations.

``Machine.run`` writes the columns and indexes of a trace in its one
execution loop.  These tests hold it to the independent reference
paths: ``TraceColumns.build`` (which derives every column from a
``Machine.step()`` replay) and that replay itself (one ``DynInst`` per
instruction), against which the trace's derived ``DynInst`` view must
agree field for field.  They also check that a trace decoded from the
artifact cache answers its index queries like a linear scan and
simulates without building anything, and that the consumers outside the
legacy oracle read the columns without building ``DynInst`` objects.
"""

import pickle
import re
import tempfile
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import sanitize_run
from repro.cache import ArtifactCache
from repro.cli import main
from repro.cmt import ProcessorConfig, simulate
from repro.exec import DynInst, Machine, Trace, run_program
from repro.exec import columns as columns_mod
from repro.exec.columns import NUM_REGS, TraceColumns
from repro.isa.instructions import Opcode
from repro.spawning import ProfilePolicyConfig, heuristic_pairs, select_profile_pairs
from repro.workloads import build_workload, load_trace, workload_names
from tests.test_columns import (
    _scan_livein_window,
    _scan_next_occurrence,
    _scan_positions,
    _scan_value_at,
)
from tests.test_property_pipeline import random_program

SCALE = 0.1


def _step_replay(program):
    """The program's ``DynInst`` records, one ``Machine.step()`` at a time."""
    machine = Machine(program)
    records = []
    while not machine.halted:
        records.append(machine.step())
    return records


def _assert_matches_references(trace):
    assert trace.columns == TraceColumns.build(trace)
    replay = _step_replay(trace.program)
    records = list(trace)
    assert len(records) == len(replay) == len(trace)
    for pos, (got, want) in enumerate(zip(records, replay)):
        for name in DynInst.__slots__:
            value, expected = getattr(got, name), getattr(want, name)
            assert value == expected, (pos, name)
            assert type(value) is type(expected), (pos, name)
            if isinstance(value, tuple):
                assert [type(v) for v in value] == [type(v) for v in expected]


@pytest.fixture
def built_insts(monkeypatch):
    """Records one entry per ``DynInst`` constructed while active."""
    built = []
    original_init = DynInst.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(DynInst, "__init__", counting_init)
    return built


class TestExecutorMatchesReference:
    @given(program=random_program())
    @settings(max_examples=30, deadline=None)
    def test_generated_programs(self, program):
        _assert_matches_references(run_program(program, max_steps=100_000))

    @pytest.mark.parametrize("dataset", ["train", "ref"])
    @pytest.mark.parametrize("name", workload_names())
    def test_workloads(self, name, dataset):
        _assert_matches_references(
            run_program(build_workload(name, SCALE, dataset))
        )



def _slices(offsets, data):
    """Per key, the positions a CSR index stores."""
    return [list(data[offsets[k]:offsets[k + 1]]) for k in range(len(offsets) - 1)]


def _from_scratch_indexes(records, n_pcs):
    """The read, write and pc indexes of ``records``, by one linear pass."""
    reads = [[] for _ in range(NUM_REGS)]
    writes = [[] for _ in range(NUM_REGS)]
    by_pc = [[] for _ in range(n_pcs)]
    for pos, record in enumerate(records):
        for reg in sorted(set(record.srcs)):
            if reg:
                reads[reg].append(pos)
        if record.dst:
            writes[record.dst].append(pos)
        by_pc[record.pc].append(pos)
    return reads, writes, by_pc


def _assert_indexes_match(trace):
    cols = trace.columns
    reads, writes, by_pc = _from_scratch_indexes(
        _step_replay(trace.program), len(trace.program)
    )
    assert _slices(cols.reads_off, cols.reads) == reads
    assert _slices(cols.writes_off, cols.writes) == writes
    assert _slices(cols.pc_off, cols.pc_pos) == by_pc


def _decoded(trace):
    """``trace`` after the ``trace`` codec's round trip through disk."""
    with tempfile.TemporaryDirectory() as directory:
        cache = ArtifactCache(directory)
        key = cache.key("trace", label="decoded")
        cache.store("trace", key, trace)
        decoded = ArtifactCache(directory).lookup("trace", key)
    assert decoded is not trace
    return decoded


class TestStoredIndexes:
    @given(program=random_program())
    @settings(max_examples=30, deadline=None)
    def test_generated_programs(self, program):
        _assert_indexes_match(run_program(program, max_steps=100_000))

    @pytest.mark.parametrize("name", workload_names())
    def test_workloads(self, name):
        _assert_indexes_match(run_program(build_workload(name, SCALE)))

    def test_an_instruction_reading_one_register_twice_is_indexed_once(
        self, loop_trace
    ):
        # ``mul val val val`` reads ``val`` in both operand slots.
        program = loop_trace.program
        (pc,) = [
            pc for pc, inst in enumerate(program)
            if inst.op is Opcode.MUL and inst.srcs[0] == inst.srcs[1]
        ]
        reg = program[pc].srcs[0]
        cols = loop_trace.columns
        reads = _slices(cols.reads_off, cols.reads)[reg]
        assert len(reads) == len(set(reads))
        for pos in loop_trace.positions_of(pc):
            assert reads.count(pos) == 1
            assert cols.dep0[pos] == cols.dep1[pos] >= 0


class TestDecodedTrace:
    @given(program=random_program(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_queries_match_linear_scans(self, program, data):
        trace = _decoded(run_program(program, max_steps=100_000))
        records = _step_replay(program)
        n = len(trace)
        assert n == len(records)
        position = st.integers(min_value=0, max_value=n)
        for pc in range(-1, len(program) + 1):
            assert list(trace.positions_of(pc)) == _scan_positions(records, pc)
        for _ in range(20):
            start = data.draw(position)
            end = data.draw(st.integers(min_value=start, max_value=n))
            assert trace.columns.livein_window(start, end) == (
                _scan_livein_window(records, start, end)
            )
            pc = records[min(start, n - 1)].pc
            after = data.draw(st.integers(min_value=-2, max_value=n))
            assert trace.next_occurrence(pc, after, end) == (
                _scan_next_occurrence(records, pc, after, end)
            )
            reg = data.draw(st.integers(min_value=0, max_value=NUM_REGS - 1))
            value = trace.value_of_register_at(reg, start)
            expected = _scan_value_at(records, reg, start)
            assert value == expected and type(value) is type(expected)

    def test_simulates_without_building_an_index(self, monkeypatch):
        trace = load_trace("compress", SCALE)
        pairs = select_profile_pairs(trace)
        configs = [
            ProcessorConfig(value_predictor=vp, prime_value_predictor=True)
            for vp in ("perfect", "stride", "fcm")
        ]
        expected = [simulate(trace, pairs, config) for config in configs]
        decoded = _decoded(trace)

        def refuse(*args, **kwargs):
            raise AssertionError("a decoded trace built an index")

        monkeypatch.setattr(TraceColumns, "__init__", refuse)
        monkeypatch.setattr(TraceColumns, "build", classmethod(refuse))
        monkeypatch.setattr(columns_mod, "_csr", refuse)
        monkeypatch.setattr(Trace, "insts", property(refuse))
        monkeypatch.setattr(Trace, "register_deps", property(refuse))
        assert [simulate(decoded, pairs, config) for config in configs] == expected

    def test_artifact_is_flat(self, tmp_path):
        # The stored trace is its program plus typed arrays, tuples of
        # ints and the list of written values: no tuple of tuples and no
        # per-field DynInst list.
        cache = ArtifactCache(tmp_path)
        key = cache.key("trace", label="flat")
        cache.store("trace", key, load_trace("ijpeg", SCALE))
        program, columns = pickle.loads(cache.read_blob("trace", key))
        assert len(program) == len(columns.fu_of)
        for name, value in zip(columns_mod._FIELDS, columns.__getstate__()):
            if name == "dst_value":
                assert type(value) is list
                assert {type(v) for v in value} <= {int, float, type(None)}
            elif isinstance(value, tuple):
                assert {type(v) for v in value} <= {int}, name
            else:
                assert type(value) is array, name


class TestNoInstructionObjects:
    def test_run_and_load_trace(self, built_insts):
        assert len(load_trace("compress", SCALE)) > 0
        assert run_program(build_workload("ijpeg", SCALE)).columns.length > 0
        assert built_insts == []

    def test_predictable_profile_selection(self, built_insts):
        trace = run_program(build_workload("compress", SCALE))
        pairs = select_profile_pairs(
            trace, ProfilePolicyConfig(ordering="predictable")
        )
        assert len(pairs) > 0
        assert built_insts == []

    def test_heuristic_selection(self, built_insts):
        trace = run_program(build_workload("compress", SCALE))
        assert len(heuristic_pairs(trace)) > 0
        assert built_insts == []

    def test_event_core_sanitize_run(self, built_insts):
        trace = run_program(build_workload("compress", SCALE))
        pairs = select_profile_pairs(trace)
        config = ProcessorConfig(value_predictor="stride")
        assert config.sim_core == "event"
        stats, report = sanitize_run(trace, pairs, config)
        assert report.ok and stats.spawns > 0
        assert built_insts == []

    def test_trace_summary(self, built_insts, capsys):
        assert main(["trace", "compress", "--scale", str(SCALE)]) == 0
        trace = load_trace("compress", SCALE)
        assert built_insts == []
        records = list(trace)
        out = capsys.readouterr().out

        def field(label):
            return re.search(rf"^{label}\s+(.*)$", out, re.MULTILINE).group(1)

        branches = sum(1 for d in records if d.taken is not None)
        taken = sum(1 for d in records if d.taken)
        loads = sum(1 for d in records if d.op is Opcode.LOAD)
        stores = sum(1 for d in records if d.op is Opcode.STORE)
        calls = sum(1 for d in records if d.op is Opcode.CALL)
        assert field("dynamic length") == str(len(records))
        assert field("branches") == (
            f"{branches} ({taken / max(branches, 1):.0%} taken)"
        )
        assert field("loads / stores") == f"{loads} / {stores}"
        assert field("calls") == str(calls)
