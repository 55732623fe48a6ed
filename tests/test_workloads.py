"""Workload-suite tests: every benchmark builds, runs and is deterministic."""

import pytest

from repro.exec import run_program
from repro.experiments import framework
from repro.isa.instructions import Opcode
from repro.workloads import SPECINT95, build_workload, load_trace, workload_names

SCALE = 0.15


class TestRegistry:
    def test_suite_has_the_papers_eight_benchmarks(self):
        assert workload_names() == [
            "go",
            "m88ksim",
            "gcc",
            "compress",
            "li",
            "ijpeg",
            "perl",
            "vortex",
        ]

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            build_workload("doom")

    def test_specs_carry_descriptions(self):
        for spec in SPECINT95.values():
            assert spec.description


@pytest.mark.parametrize("name", workload_names())
class TestEveryWorkload:
    def test_builds_and_validates(self, name):
        program = build_workload(name, SCALE)
        program.validate()
        assert program.name == name

    def test_halts_and_is_nontrivial(self, name):
        trace = run_program(build_workload(name, SCALE))
        assert trace[-1].op is Opcode.HALT
        assert len(trace) > 1000

    def test_deterministic(self, name):
        t1 = run_program(build_workload(name, SCALE))
        t2 = run_program(build_workload(name, SCALE))
        assert len(t1) == len(t2)
        assert [d.pc for d in t1[:200]] == [d.pc for d in t2[:200]]

    def test_scale_grows_the_trace(self, name):
        small = run_program(build_workload(name, 0.1))
        large = run_program(build_workload(name, 0.3))
        assert len(large) > len(small)

    def test_has_loops_and_branches(self, name):
        trace = run_program(build_workload(name, SCALE))
        assert trace.program.loop_heads(), "workloads must contain loops"
        assert any(d.taken is not None for d in trace)


class TestCharacter:
    """Each analogue must keep its namesake's distinguishing features."""

    def test_call_heavy_workloads(self):
        for name in ("li", "vortex", "gcc", "go"):
            trace = load_trace(name, SCALE)
            assert any(d.op is Opcode.CALL for d in trace), name

    def test_ijpeg_uses_floating_point(self):
        trace = load_trace("ijpeg", SCALE)
        assert any(
            d.op in (Opcode.FADD, Opcode.FMUL, Opcode.FCVT) for d in trace
        )

    def test_compress_is_loop_dominated(self):
        trace = load_trace("compress", SCALE)
        heads = trace.program.loop_heads()
        hot = max(heads, key=lambda pc: len(trace.positions_of(pc)))
        # the dominant loop accounts for the overwhelming majority of work
        assert len(trace.positions_of(hot)) > len(trace) / 60

    def test_interpreters_touch_guest_state(self):
        for name in ("m88ksim", "perl"):
            trace = load_trace(name, SCALE)
            loads = sum(1 for d in trace if d.op is Opcode.LOAD)
            stores = sum(1 for d in trace if d.op is Opcode.STORE)
            assert loads > 100 and stores > 50, name

    def test_trace_for_caches(self):
        assert framework.trace_for("compress", SCALE) is framework.trace_for(
            "compress", SCALE
        )

    def test_trace_for_call_forms_share_one_execution(self, monkeypatch):
        # The callers mix positional, keyword and defaulted forms; each
        # must hit the one memoized trace instead of executing again.
        from repro.workloads import suite

        executed = []
        real_run = suite.run_program

        def counting_run(program, max_steps=None):
            executed.append(program.name)
            return real_run(program, max_steps=max_steps)

        monkeypatch.setattr(suite, "run_program", counting_run)
        framework.clear_memos()
        try:
            traces = [
                framework.trace_for("compress", 0.05),
                framework.trace_for("compress", 0.05, "train"),
                framework.trace_for("compress", 0.05, dataset="train"),
            ]
        finally:
            framework.clear_memos()
        assert all(trace is traces[0] for trace in traces)
        assert len(executed) == 1
