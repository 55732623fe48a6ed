"""Spawning-pair validator: adversarial pair tables must be caught
statically, and policy-produced tables must pass."""

import pytest

from repro.analysis import (
    PairValidationConfig,
    Severity,
    lint_program,
    validate_pairs,
)
from repro.experiments.framework import policy_builder, policy_names
from repro.isa import ProgramBuilder
from repro.spawning import PairKind, SpawnPair, SpawnPairSet
from repro.workloads import build_workload, load_trace, workload_names


def _pair(sp, cqip, dist=64.0):
    return SpawnPair(sp, cqip, PairKind.PROFILE, 0.99, dist, dist)


def _findings(report, rule):
    return [f for f in report if f.diagnostic.rule == rule]


@pytest.fixture(scope="module")
def loop_program():
    b = ProgramBuilder("vloop")
    i = b.reg("i")
    acc = b.reg("acc")
    b.li(acc, 0)
    with b.for_range(i, 0, 32):
        b.add(acc, acc, i)
        b.mul(acc, acc, acc)
        b.andi(acc, acc, 1023)
    b.store(acc, i)
    b.halt()
    return b.build()


class TestAdversarialPairs:
    def test_mid_instruction_pc_rejected(self, loop_program):
        report = validate_pairs(
            loop_program, SpawnPairSet([_pair(2.5, 4)])
        )
        assert _findings(report, "mid-instruction-pc")
        assert report.errors()

    def test_out_of_range_pcs_rejected(self, loop_program):
        n = len(loop_program)
        report = validate_pairs(
            loop_program, SpawnPairSet([_pair(0, n + 10), _pair(-3, 1)])
        )
        assert len(_findings(report, "pc-out-of-range")) == 2
        assert len(report.invalid_pairs()) == 2

    def test_unreachable_cqip_rejected(self, loop_program):
        # Straight-line region: pc 1 can never reach pc 0 again.
        report = validate_pairs(loop_program, SpawnPairSet([_pair(1, 0)]))
        assert _findings(report, "cqip-unreachable")
        assert not report.is_valid(_pair(1, 0))

    def test_self_pair_outside_loop_rejected(self, loop_program):
        halt_pc = len(loop_program) - 1
        report = validate_pairs(
            loop_program, SpawnPairSet([_pair(halt_pc, halt_pc)])
        )
        assert _findings(report, "cqip-unreachable")

    def test_self_pair_on_loop_head_accepted(self, loop_program):
        head = next(iter(loop_program.loop_heads()))
        report = validate_pairs(
            loop_program, SpawnPairSet([_pair(head, head)])
        )
        assert report.is_valid(_pair(head, head))

    def test_clobbered_live_ins_flagged(self, loop_program):
        # Spawning the next iteration at the loop head: the accumulator
        # and counter are rewritten every iteration, so both must be
        # flagged as prediction-dependent live-ins.
        head = next(iter(loop_program.loop_heads()))
        report = validate_pairs(
            loop_program, SpawnPairSet([_pair(head, head)])
        )
        clobbered = _findings(report, "live-in-clobbered")
        assert clobbered
        assert clobbered[0].diagnostic.severity is Severity.WARNING

    def test_independent_region_not_flagged(self):
        b = ProgramBuilder("indep")
        x, y, a = b.reg("x"), b.reg("y"), b.reg("a")
        b.li(y, 5)       # pc 0: the future thread's live-in value
        b.li(a, 0x40)    # pc 1: the future thread's base address
        b.li(x, 1)       # pc 2: SP; region writes only x
        b.addi(x, x, 1)  # pc 3
        b.store(y, a)    # pc 4: CQIP reads y and a — neither clobbered
        b.halt()
        program = b.build()
        report = validate_pairs(program, SpawnPairSet([_pair(2, 4)]))
        assert not _findings(report, "live-in-clobbered")
        assert report.is_valid(_pair(2, 4))

    def test_short_static_distance_warns(self, loop_program):
        report = validate_pairs(
            loop_program,
            SpawnPairSet([_pair(0, 1)]),
            PairValidationConfig(min_static_distance=8.0),
        )
        assert _findings(report, "thread-too-short")
        # Warning only: the pair survives filtering.
        assert report.is_valid(_pair(0, 1))


class TestPolicyIntegration:
    """Selection does not filter through the validator, so every policy's
    pairs on every workload must pass it on their own."""

    @pytest.mark.parametrize("name", workload_names())
    def test_policy_pairs_have_no_static_errors(self, name):
        trace = load_trace(name, 0.1)
        for policy in policy_names():
            pairs = policy_builder(policy)(trace)
            report = validate_pairs(trace.program, pairs)
            assert report.errors() == [], (policy, report.format())


class TestWorkloadLintClean:
    """The shipped suite must stay lint-clean at error severity."""

    @pytest.mark.parametrize(
        "name",
        ("go", "m88ksim", "gcc", "compress", "li", "ijpeg", "perl", "vortex"),
    )
    def test_workload_has_no_lint_errors(self, name):
        report = lint_program(build_workload(name, 0.2))
        assert report.errors == []
        assert report.warnings == []
