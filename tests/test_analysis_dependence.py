"""Static memory-dependence analysis: intervals, induction, risk reports."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.dependence import (
    TOP,
    DependenceAnalysis,
    Interval,
    LiveInClass,
    continuation_pc_ranges,
    region_pc_ranges,
)
from repro.analysis.cfg import StaticCFG
from repro.analysis.lint import HIGH_SQUASH_RISK_THRESHOLD, lint_program
from repro.exec import run_program
from repro.isa import ProgramBuilder
from repro.isa.instructions import Opcode
from repro.spawning import HeuristicConfig, heuristic_pairs


# ----------------------------------------------------------------------
# Interval arithmetic.
# ----------------------------------------------------------------------

_bounded = st.tuples(
    st.integers(-5000, 5000), st.integers(0, 5000)
).map(lambda t: Interval(float(t[0]), float(t[0] + t[1])))


def test_interval_basics():
    iv = Interval(2.0, 9.0)
    assert iv.is_bounded and not iv.is_top
    assert TOP.is_top and not TOP.is_bounded
    assert iv.contains(2) and iv.contains(9) and not iv.contains(10)
    assert iv.shift(3) == Interval(5.0, 12.0)
    assert iv.hull(Interval(-1.0, 4.0)) == Interval(-1.0, 9.0)
    assert iv.overlaps(Interval(9.0, 20.0))
    assert not iv.overlaps(Interval(10.0, 20.0))


@settings(max_examples=200, deadline=None)
@given(a=_bounded, b=_bounded, offset=st.integers(-1000, 1000))
def test_interval_ops_sound(a, b, offset):
    hull = a.hull(b)
    assert hull.contains(a.lo) and hull.contains(a.hi)
    assert hull.contains(b.lo) and hull.contains(b.hi)
    shifted = a.shift(offset)
    assert shifted.contains(a.lo + offset) and shifted.contains(a.hi + offset)
    # overlap is symmetric and agrees with a concrete witness search.
    assert a.overlaps(b) == b.overlaps(a)
    assert a.overlaps(b) == (max(a.lo, b.lo) <= min(a.hi, b.hi))
    assert TOP.overlaps(a) and TOP.contains(a.lo)


# ----------------------------------------------------------------------
# Induction bounds and live-in classification on the shared fixtures.
# ----------------------------------------------------------------------


def _loop_head_report(trace):
    analysis = DependenceAnalysis(trace.program)
    heads = sorted(trace.program.loop_heads())
    assert len(heads) == 1
    return analysis, analysis.analyze_pair(heads[0], heads[0])


def test_loop_fixture_induction_and_may_raw(loop_trace):
    analysis, report = _loop_head_report(loop_trace)
    classes = dict(report.live_in_classes)
    # The only live-in the body clobbers is the counter, and it is a
    # recognised induction variable -> a stride predictor covers it.
    assert set(classes.values()) == {LiveInClass.INDUCTION}
    assert report.recommended_predictor == "stride"
    assert not report.memory_carried_live_ins()
    # One store and one load alias (same base+i address both ways).
    assert len(report.store_pcs) == 1 and len(report.load_pcs) == 1
    assert report.may_raw == {(report.store_pcs[0], report.load_pcs[0])}
    assert report.likely_raw == report.may_raw

    # The widened address interval is tight: i in [0, 64] (exit value
    # included), so the load address spans exactly [base, base + 64].
    program = loop_trace.program
    load_pc = report.load_pcs[0]
    addr = analysis.use_interval(load_pc, program[load_pc].srcs[0])
    assert addr.is_bounded
    assert addr.hi - addr.lo == 64


def test_serial_fixture_is_not_stride_friendly(serial_trace):
    _, report = _loop_head_report(serial_trace)
    classes = dict(report.live_in_classes)
    # x is chained through a mul (non-affine), so it is beyond AFFINE but
    # never touches memory.
    assert LiveInClass.OTHER in classes.values()
    assert report.recommended_predictor == "fcm"
    assert not report.memory_carried_live_ins()


def test_disjoint_arrays_have_empty_may_raw():
    b = ProgramBuilder("noalias")
    i = b.reg("i")
    addr = b.reg("addr")
    addr2 = b.reg("addr2")
    val = b.reg("val")
    src = b.alloc_data([1] * 32)
    b.alloc_data([0] * 80)  # padding absorbs the widening slack
    dst = b.alloc_data([2] * 32)
    with b.for_range(i, 0, 32):
        b.li(addr, src)
        b.add(addr, addr, i)
        b.li(val, 5)
        b.store(val, addr)
        b.li(addr2, dst)
        b.add(addr2, addr2, i)
        b.load(val, addr2)
    b.halt()
    program = b.build()
    analysis = DependenceAnalysis(program)
    head = sorted(program.loop_heads())[0]
    report = analysis.analyze_pair(head, head)
    assert report.store_pcs and report.load_pcs
    assert report.may_raw == frozenset()
    assert report.risk_score < HIGH_SQUASH_RISK_THRESHOLD


def test_region_and_continuation_cover_the_loop(loop_trace):
    cfg = StaticCFG(loop_trace.program)
    head = sorted(loop_trace.program.loop_heads())[0]
    region = region_pc_ranges(cfg, head, head)
    continuation = continuation_pc_ranges(cfg, head)
    region_pcs = {pc for s, e in region for pc in range(s, e)}
    continuation_pcs = {pc for s, e in continuation for pc in range(s, e)}
    # The loop body (store included) is in the region; the continuation
    # re-enters the loop, so the body is reachable there too.
    store_pcs = {
        pc
        for pc in range(len(loop_trace.program))
        if loop_trace.program[pc].op is Opcode.STORE
    }
    assert store_pcs <= region_pcs
    assert store_pcs <= continuation_pcs


def test_analyze_pair_rejects_out_of_range(loop_trace):
    analysis = DependenceAnalysis(loop_trace.program)
    with pytest.raises(ValueError):
        analysis.analyze_pair(0, 10_000)


def test_report_to_dict_round_trip(loop_trace):
    _, report = _loop_head_report(loop_trace)
    payload = report.to_dict()
    assert payload["sp_pc"] == report.sp_pc
    assert payload["recommended_predictor"] == "stride"
    assert all(
        label in LiveInClass.__members__ or True
        for label in payload["live_in_classes"].values()
    )
    assert isinstance(report.format(), str) and "risk=" in report.format()


# ----------------------------------------------------------------------
# Hypothesis soundness: generated loops never violate the static oracle.
# ----------------------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(
    start=st.integers(0, 6),
    count=st.integers(2, 20),
    bump=st.integers(1, 7),
)
def test_generated_loop_dependences_within_may_set(start, count, bump):
    from repro.analysis.sanitizer import sanitize_run
    from repro.cmt import ProcessorConfig

    b = ProgramBuilder("genloop")
    i = b.reg("i")
    addr = b.reg("addr")
    val = b.reg("val")
    base = b.alloc_data([3] * 64)
    with b.for_range(i, start, start + count):
        b.li(addr, base)
        b.add(addr, addr, i)
        b.load(val, addr)
        b.addi(val, val, bump)
        b.store(val, addr)
    b.halt()
    trace = run_program(b.build())
    pairs = heuristic_pairs(trace, HeuristicConfig())
    config = ProcessorConfig(num_thread_units=4, value_predictor="stride")
    _, report = sanitize_run(trace, pairs, config)
    assert report.ok, report.format()


# ----------------------------------------------------------------------
# Lint rules.
# ----------------------------------------------------------------------


def _pointer_chase_program(suppress=()):
    b = ProgramBuilder("chaser")
    i = b.reg("i")
    ptr = b.reg("ptr")
    val = b.reg("val")
    base = b.alloc_data(list(range(64)))
    b.li(ptr, base)
    with b.for_range(i, 0, 32):
        b.load(val, ptr)
        b.mul(val, val, val)
        b.store(val, ptr)
        b.load(ptr, ptr, 1)
        b.andi(ptr, ptr, 63)
        b.addi(ptr, ptr, base)
    for rule, reason in suppress:
        b.lint_suppress(rule, reason)
    b.halt()
    return b.build()


def test_memory_carried_lint_rule_fires():
    report = lint_program(_pointer_chase_program())
    rules = {d.rule for d in report.diagnostics}
    assert "memory-carried-live-in-without-realistic-vp" in rules
    diag = next(
        d
        for d in report.diagnostics
        if d.rule == "memory-carried-live-in-without-realistic-vp"
    )
    assert "sync" in diag.message


def test_lint_rule_suppression_is_counted():
    program = _pointer_chase_program(
        suppress=[
            (
                "memory-carried-live-in-without-realistic-vp",
                "pointer chase is intentional here",
            ),
            ("high-squash-risk-pair", "ditto"),
        ]
    )
    report = lint_program(program)
    rules = {d.rule for d in report.diagnostics}
    assert "memory-carried-live-in-without-realistic-vp" not in rules
    assert "high-squash-risk-pair" not in rules
    assert report.suppressed >= 1


def test_lint_clean_fixture_has_no_new_rule_findings(loop_trace):
    report = lint_program(loop_trace.program)
    rules = {d.rule for d in report.diagnostics}
    assert "high-squash-risk-pair" not in rules
    assert "memory-carried-live-in-without-realistic-vp" not in rules
