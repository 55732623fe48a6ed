"""Unit tests for opcode classification and instruction encoding."""

import pytest

from repro.isa.instructions import (
    BRANCH_OPS,
    FU_COUNT,
    FU_LATENCY,
    FuClass,
    Instruction,
    Opcode,
    fu_class,
    is_branch_op,
    is_control_op,
    latency_of,
)


class TestFuClassification:
    def test_alu_ops_use_simple_int(self):
        for op in (Opcode.ADD, Opcode.SUB, Opcode.XOR, Opcode.SHLI, Opcode.LI):
            assert fu_class(op) is FuClass.SIMPLE_INT

    def test_memory_ops_use_ldst(self):
        assert fu_class(Opcode.LOAD) is FuClass.LDST
        assert fu_class(Opcode.STORE) is FuClass.LDST

    def test_multiplier_classes(self):
        assert fu_class(Opcode.MUL) is FuClass.INT_MUL
        assert fu_class(Opcode.FMUL) is FuClass.FP_MUL

    def test_divider_shared_by_int_and_fp(self):
        assert fu_class(Opcode.DIV) is FuClass.FP_DIV
        assert fu_class(Opcode.REM) is FuClass.FP_DIV
        assert fu_class(Opcode.FDIV) is FuClass.FP_DIV

    def test_branches_execute_on_simple_int(self):
        for op in BRANCH_OPS:
            assert fu_class(op) is FuClass.SIMPLE_INT


class TestLatencies:
    """Latencies must match the paper's Section 4.1 table."""

    @pytest.mark.parametrize(
        "op,expected",
        [
            (Opcode.ADD, 1),
            (Opcode.LOAD, 1),  # plus cache access, added by the core model
            (Opcode.MUL, 4),
            (Opcode.FADD, 4),
            (Opcode.FMUL, 6),
            (Opcode.FDIV, 17),
        ],
    )
    def test_latency(self, op, expected):
        assert latency_of(op) == expected

    def test_fu_counts_match_paper(self):
        assert FU_COUNT[FuClass.SIMPLE_INT] == 2
        assert FU_COUNT[FuClass.LDST] == 2
        assert FU_COUNT[FuClass.INT_MUL] == 1
        assert FU_COUNT[FuClass.FP_SIMPLE] == 2
        assert FU_COUNT[FuClass.FP_MUL] == 1
        assert FU_COUNT[FuClass.FP_DIV] == 1

    def test_every_class_has_a_latency(self):
        for cls in FuClass:
            assert FU_LATENCY[cls] >= 1


class TestPredicates:
    def test_conditional_branches(self):
        assert is_branch_op(Opcode.BEQ)
        assert is_branch_op(Opcode.BNEZ)
        assert not is_branch_op(Opcode.JUMP)

    def test_control_ops_include_calls(self):
        for op in (Opcode.JUMP, Opcode.CALL, Opcode.RET, Opcode.BLT):
            assert is_control_op(op)
        assert not is_control_op(Opcode.ADD)


class TestInstruction:
    def test_register_range_checked(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.ADD, dst=64, srcs=(1, 2))
        with pytest.raises(ValueError):
            Instruction(Opcode.ADD, dst=1, srcs=(1, 99))

    def test_third_source_rejected(self):
        # The interpreter reads at most two sources, and a trace keeps
        # two operand slots per instruction.
        with pytest.raises(ValueError, match="at most two source"):
            Instruction(Opcode.ADD, dst=1, srcs=(1, 2, 3))

    def test_properties(self):
        load = Instruction(Opcode.LOAD, dst=1, srcs=(2,), imm=4)
        assert load.is_mem and not load.is_branch and not load.is_control
        br = Instruction(Opcode.BEQ, srcs=(1, 2), target=0)
        assert br.is_branch and br.is_control

    def test_str_mentions_operands(self):
        text = str(Instruction(Opcode.ADDI, dst=3, srcs=(4,), imm=7))
        assert "addi" in text and "r3" in text and "r4" in text and "7" in text
