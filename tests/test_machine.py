"""Functional-executor semantics, one behaviour per test."""

import gc

import pytest

from repro.errors import WorkloadError
from repro.exec import ExecutionError, Machine, run_program
from repro.exec.machine import _wrap32
from repro.isa import Opcode, ProgramBuilder
from repro.isa.assembler import assemble


def _run_asm(text):
    return run_program(assemble(text))


def _final(trace, reg):
    return trace.value_of_register_at(reg, len(trace))


class TestArithmetic:
    @pytest.mark.parametrize(
        "snippet,expected",
        [
            ("li r1 6\nli r2 7\nadd r3 r1 r2", 13),
            ("li r1 6\nli r2 7\nsub r3 r1 r2", -1),
            ("li r1 6\nli r2 7\nmul r3 r1 r2", 42),
            ("li r1 42\nli r2 5\ndiv r3 r1 r2", 8),
            ("li r1 42\nli r2 5\nrem r3 r1 r2", 2),
            ("li r1 12\nli r2 10\nand r3 r1 r2", 8),
            ("li r1 12\nli r2 10\nor r3 r1 r2", 14),
            ("li r1 12\nli r2 10\nxor r3 r1 r2", 6),
            ("li r1 3\nli r2 2\nshl r3 r1 r2", 12),
            ("li r1 12\nli r2 2\nshr r3 r1 r2", 3),
            ("li r1 3\nli r2 5\nslt r3 r1 r2", 1),
            ("li r1 5\nslti r3 r1 5", 0),
            ("li r1 5\naddi r3 r1 -2", 3),
            ("li r1 0xff\nandi r3 r1 0x0f", 15),
            ("li r1 8\nori r3 r1 3", 11),
            ("li r1 8\nxori r3 r1 9", 1),
            ("li r1 1\nshli r3 r1 4", 16),
            ("li r1 -8\nshri r3 r1 1", (0x100000000 - 8) >> 1),
        ],
    )
    def test_int_op(self, snippet, expected):
        trace = _run_asm(snippet + "\nhalt")
        assert _final(trace, 3) == expected

    def test_division_by_zero_yields_zero(self):
        trace = _run_asm("li r1 9\nli r2 0\ndiv r3 r1 r2\nrem r4 r1 r2\nhalt")
        assert _final(trace, 3) == 0
        assert _final(trace, 4) == 0

    def test_negative_division_truncates_toward_zero(self):
        trace = _run_asm("li r1 -7\nli r2 2\ndiv r3 r1 r2\nhalt")
        assert _final(trace, 3) == -3

    def test_results_wrap_to_32_bits(self):
        trace = _run_asm("li r1 2000000000\nli r2 2000000000\nadd r3 r1 r2\nhalt")
        assert _final(trace, 3) == _wrap32(4_000_000_000)

    def test_wrap32_helper(self):
        assert _wrap32(0x7FFFFFFF) == 0x7FFFFFFF
        assert _wrap32(0x80000000) == -(1 << 31)
        assert _wrap32(-1) == -1


class TestFloatingPoint:
    def test_fp_pipeline(self):
        trace = _run_asm(
            "li r1 3\nfcvt r2 r1\nli r3 4\nfcvt r4 r3\n"
            "fmul r5 r2 r4\nfadd r6 r5 r2\nfsub r7 r6 r4\nfdiv r8 r7 r2\nhalt"
        )
        assert _final(trace, 5) == 12.0
        assert _final(trace, 6) == 15.0
        assert _final(trace, 7) == 11.0
        assert _final(trace, 8) == pytest.approx(11.0 / 3.0)

    def test_fdiv_by_zero_yields_zero(self):
        trace = _run_asm("li r1 5\nfcvt r2 r1\nli r3 0\nfcvt r4 r3\nfdiv r5 r2 r4\nhalt")
        assert _final(trace, 5) == 0.0


class TestMemory:
    def test_store_then_load_roundtrips(self):
        trace = _run_asm("li r1 1000\nli r2 77\nstore r2 r1 4\nload r3 r1 4\nhalt")
        assert _final(trace, 3) == 77

    def test_uninitialised_memory_reads_zero(self):
        trace = _run_asm("li r1 5555\nload r3 r1\nhalt")
        assert _final(trace, 3) == 0

    def test_initial_memory_from_program(self):
        b = ProgramBuilder()
        base = b.alloc_data([41])
        x = b.reg("x")
        b.li(x, base)
        b.load(x, x)
        b.addi(x, x, 1)
        b.halt()
        assert _final(run_program(b.build()), x) == 42

    def test_addresses_recorded_in_trace(self):
        trace = _run_asm("li r1 300\nli r2 9\nstore r2 r1 8\nload r3 r1 8\nhalt")
        addrs = [d.addr for d in trace if d.addr is not None]
        assert addrs == [308, 308]


class TestControl:
    def test_branch_outcomes_recorded(self):
        trace = _run_asm("li r1 1\nbeqz r1 end\nbnez r1 end\nnop\nend: halt")
        branches = [d for d in trace if d.taken is not None]
        assert [d.taken for d in branches] == [False, True]

    def test_register_zero_is_hardwired(self):
        trace = _run_asm("li r0 55\nadd r3 r0 r0\nhalt")
        assert _final(trace, 3) == 0

    def test_ret_without_call_raises(self):
        with pytest.raises(ExecutionError):
            _run_asm("ret\nhalt")

    def test_runaway_program_raises(self):
        with pytest.raises(ExecutionError):
            run_program(assemble("loop: jump loop\nhalt"), max_steps=100)

    def test_runaway_is_a_workload_error_with_context(self):
        from repro.errors import SimulationError, WorkloadError

        with pytest.raises(WorkloadError) as info:
            run_program(assemble("loop: jump loop\nhalt"), max_steps=5)
        # structured: catchable as either family, carries the budget
        assert isinstance(info.value, ExecutionError)
        assert isinstance(info.value, SimulationError)
        assert "max_steps=5" in str(info.value)

    def test_step_after_halt_raises(self):
        machine = Machine(assemble("halt"))
        machine.step()
        with pytest.raises(ExecutionError):
            machine.step()

    def test_nested_calls_return_in_order(self):
        trace = _run_asm(
            "call outer\nhalt\n"
            "outer: li r1 1\ncall inner\naddi r1 r1 4\nret\n"
            "inner: addi r1 r1 2\nret"
        )
        assert _final(trace, 1) == 7


class TestDeterminism:
    def test_same_program_same_trace(self):
        program = assemble("li r1 3\nloop: addi r1 r1 -1\nbnez r1 loop\nhalt")
        t1 = run_program(program)
        t2 = run_program(program)
        assert [d.pc for d in t1] == [d.pc for d in t2]
        assert [d.dst_value for d in t1] == [d.dst_value for d in t2]



class TestCollectorState:
    """``run`` builds the trace with the cyclic collector off and hands
    the caller's collector state back, also when it raises."""

    @staticmethod
    def _probed_run(source, enabled, max_steps=None):
        """Run ``source`` with the collector ``enabled`` or not.

        Returns the collector states seen inside the loop, the state
        right after ``run`` and the ``WorkloadError`` it raised, if any.
        """
        machine = Machine(assemble(source))
        execute = machine._execute
        seen = set()

        def probe():
            seen.add(gc.isenabled())
            return execute()

        machine._execute = probe
        prior = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        error = None
        try:
            machine.run(max_steps)
        except WorkloadError as exc:
            error = exc
        finally:
            after = gc.isenabled()
            (gc.enable if prior else gc.disable)()
        return seen, after, error

    @pytest.mark.parametrize("enabled", [True, False])
    def test_off_in_the_loop_and_restored(self, enabled):
        seen, after, error = self._probed_run(
            "li r1 3\nloop: addi r1 r1 -1\nbnez r1 loop\nhalt", enabled
        )
        assert error is None
        assert seen == {False}
        assert after is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restored_when_the_program_does_not_halt(self, enabled):
        seen, after, error = self._probed_run(
            "loop: jump loop\nhalt", enabled, max_steps=5
        )
        assert isinstance(error, WorkloadError)
        assert seen == {False}
        assert after is enabled
