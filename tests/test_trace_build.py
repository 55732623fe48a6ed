"""One-pass trace build: the executor against the reference derivations.

``Machine.run`` writes the field lists and the columns of a trace in its
one execution loop.  These tests hold it to the independent reference
paths: ``TraceColumns.build`` (which derives every column from the
finished trace and its lazily computed dependences) and a
``Machine.step()`` replay (one ``DynInst`` per instruction).  They also
check that the consumers outside the legacy oracle read the fields and
columns without building ``DynInst`` objects.
"""

import re

import pytest
from hypothesis import given, settings

from repro.analysis.sanitizer import sanitize_run
from repro.cli import main
from repro.cmt import ProcessorConfig
from repro.exec import DynInst, Machine, run_program
from repro.exec.columns import _FIELDS as COLUMN_NAMES
from repro.exec.columns import TraceColumns
from repro.exec.trace import FIELDS
from repro.isa.instructions import Opcode
from repro.spawning import ProfilePolicyConfig, heuristic_pairs, select_profile_pairs
from repro.workloads import build_workload, load_trace, workload_names
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
        for name in FIELDS:
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

    def test_columns_share_no_list_with_the_fields(self, loop_trace):
        fields = {id(field) for field in loop_trace.field_lists()}
        columns = loop_trace.columns
        assert not fields & {id(getattr(columns, name)) for name in COLUMN_NAMES}


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
