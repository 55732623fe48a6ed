"""Spawn-runtime pair-management tests (removal / reassign plumbing)."""

from repro.cmt import ProcessorConfig
from repro.cmt.spawn_runtime import SpawnRuntime
from repro.spawning import PairKind, SpawnPair, SpawnPairSet


def _pair(sp, cqip, score=50.0):
    return SpawnPair(sp, cqip, PairKind.PROFILE, 0.99, score, score)


def _runtime(pairs, **config_overrides):
    return SpawnRuntime(
        SpawnPairSet(pairs), ProcessorConfig().with_(**config_overrides)
    )


class TestCandidates:
    def test_best_only_without_reassign(self):
        rt = _runtime([_pair(1, 2, 10), _pair(1, 3, 99)])
        assert [p.cqip_pc for p in rt.candidates(1)] == [3]

    def test_all_alternatives_with_reassign(self):
        rt = _runtime([_pair(1, 2, 10), _pair(1, 3, 99)], reassign=True)
        assert [p.cqip_pc for p in rt.candidates(1)] == [3, 2]

    def test_non_spawning_point(self):
        rt = _runtime([_pair(1, 2)])
        assert not rt.is_spawning_point(7)
        assert rt.candidates(7) == []


class TestAloneRemoval:
    def test_removed_after_threshold(self):
        pair = _pair(1, 2)
        rt = _runtime([pair], removal_cycles=50)
        assert rt.note_alone_threshold(pair) is True
        assert rt.candidates(1) == []
        assert rt.removed_alone == 1

    def test_delayed_removal_counts_occurrences(self):
        pair = _pair(1, 2)
        rt = _runtime([pair], removal_cycles=50, removal_occurrences=3)
        assert rt.note_alone_threshold(pair) is False
        assert rt.note_alone_threshold(pair) is False
        assert rt.note_alone_threshold(pair) is True
        assert rt.candidates(1) == []

    def test_disabled_when_no_threshold(self):
        pair = _pair(1, 2)
        rt = _runtime([pair])  # removal_cycles=None
        assert rt.note_alone_threshold(pair) is False
        assert rt.candidates(1)

    def test_root_thread_has_no_pair(self):
        rt = _runtime([_pair(1, 2)], removal_cycles=50)
        assert rt.note_alone_threshold(None) is False

    def test_removal_unmasks_alternative_under_reassign(self):
        best, alt = _pair(1, 3, 99), _pair(1, 2, 10)
        rt = _runtime([best, alt], removal_cycles=50, reassign=True)
        rt.note_alone_threshold(best)
        assert [p.cqip_pc for p in rt.candidates(1)] == [2]


class TestRevival:
    """The paper's footnote policy: removed pairs return after a period."""

    def test_pair_revived_after_period(self):
        pair = _pair(1, 2)
        rt = _runtime([pair], removal_cycles=50, removal_revival_cycles=100)
        rt.note_alone_threshold(pair, cycle=10)
        assert rt.candidates(1, cycle=50) == []  # still removed
        assert [p.cqip_pc for p in rt.candidates(1, cycle=120)] == [2]
        assert rt.revived == 1

    def test_revived_pair_can_be_removed_again(self):
        pair = _pair(1, 2)
        rt = _runtime([pair], removal_cycles=50, removal_revival_cycles=100)
        rt.note_alone_threshold(pair, cycle=0)
        rt.candidates(1, cycle=200)  # revival
        assert rt.note_alone_threshold(pair, cycle=210) is True
        assert rt.candidates(1, cycle=250) == []

    def test_no_revival_by_default(self):
        pair = _pair(1, 2)
        rt = _runtime([pair], removal_cycles=50)
        rt.note_alone_threshold(pair, cycle=0)
        assert rt.candidates(1, cycle=10**9) == []


class TestCoactiveThreshold:
    """The paper's 'executing with just a few threads' removal variant."""

    def test_processor_accepts_coactive_threshold(self, ):
        from repro.cmt import ProcessorConfig, simulate
        from repro.exec import run_program
        from repro.isa import ProgramBuilder

        b = ProgramBuilder()
        i, acc = b.reg("i"), b.reg("acc")
        with b.for_range(i, 0, 40):
            for _ in range(10):
                b.addi(acc, acc, 1)
        b.halt()
        trace = run_program(b.build())
        head = min(trace.program.loop_heads())
        pairs = SpawnPairSet([_pair(head, head, 12.0)])
        gentle = simulate(
            trace,
            pairs,
            ProcessorConfig(removal_cycles=30, removal_coactive_threshold=1),
        )
        aggressive = simulate(
            trace,
            pairs,
            ProcessorConfig(removal_cycles=30, removal_coactive_threshold=8),
        )
        # a larger threshold can only remove at least as eagerly
        assert aggressive.pairs_removed_alone >= gentle.pairs_removed_alone


class TestRevivalBoundary:
    """Exact semantics of the revival window edge."""

    def test_revival_exactly_at_threshold(self):
        pair = _pair(1, 2)
        rt = _runtime([pair], removal_cycles=50, removal_revival_cycles=100)
        rt.note_alone_threshold(pair, cycle=10)
        # one cycle short of the revival period: still removed
        assert rt.candidates(1, cycle=109) == []
        assert rt.revived == 0
        # exactly removal_revival_cycles later: revived
        assert [p.cqip_pc for p in rt.candidates(1, cycle=110)] == [2]
        assert rt.revived == 1

    def test_occurrence_counter_resets_on_revival(self):
        pair = _pair(1, 2)
        rt = _runtime(
            [pair],
            removal_cycles=50,
            removal_occurrences=2,
            removal_revival_cycles=100,
        )
        assert rt.note_alone_threshold(pair, cycle=0) is False
        assert rt.note_alone_threshold(pair, cycle=5) is True  # 2nd strike
        rt.candidates(1, cycle=200)  # revival clears the strike count
        # the revived pair gets a fresh occurrence budget
        assert rt.note_alone_threshold(pair, cycle=210) is False
        assert rt.note_alone_threshold(pair, cycle=220) is True

    def test_delayed_removal_interleaved_pairs(self):
        """Occurrence counts are tracked per pair, not globally."""
        a, b = _pair(1, 2), _pair(5, 6)
        rt = _runtime([a, b], removal_cycles=50, removal_occurrences=2)
        assert rt.note_alone_threshold(a) is False
        assert rt.note_alone_threshold(b) is False
        assert rt.note_alone_threshold(a) is True
        assert rt.candidates(1) == []
        assert rt.candidates(5)  # b has only one strike


class TestProcessorReassignment:
    """End-to-end reassign: walk the CQIP alternatives, fall through all."""

    def _loop_trace(self):
        from repro.exec import run_program
        from repro.isa import ProgramBuilder

        b = ProgramBuilder("reassign")
        i, acc = b.reg("i"), b.reg("acc")
        with b.for_range(i, 0, 16):
            for _ in range(12):
                b.addi(acc, acc, 1)
        b.halt()
        return run_program(b.build())

    def test_fallback_to_second_cqip(self):
        from repro.cmt import ProcessorConfig, simulate

        trace = self._loop_trace()
        head = min(trace.program.loop_heads())
        never_pc = max(inst.pc for inst in trace) + 100  # unreachable CQIP
        pairs = SpawnPairSet([
            _pair(head, never_pc, 99),  # preferred but never occurs
            _pair(head, head, 10),      # viable alternative
        ])
        stats = simulate(trace, pairs, ProcessorConfig(reassign=True))
        assert stats.reassign_fallbacks > 0
        assert stats.spawns > 0
        assert sum(stats.thread_sizes) == len(trace)

    def test_all_alternatives_exhausted_is_a_ghost(self):
        from repro.cmt import ProcessorConfig, simulate

        trace = self._loop_trace()
        head = min(trace.program.loop_heads())
        never = max(inst.pc for inst in trace) + 100
        pairs = SpawnPairSet([
            _pair(head, never, 99),
            _pair(head, never + 1, 10),
        ])
        stats = simulate(trace, pairs, ProcessorConfig(reassign=True))
        # every candidate's CQIP is unreachable: the hardware misspawns
        assert stats.spawns == 0
        assert stats.control_misspeculations > 0
        assert sum(stats.thread_sizes) == len(trace)

    def test_exact_check_rejects_instead_of_ghosting(self):
        from repro.cmt import ProcessorConfig, simulate

        trace = self._loop_trace()
        head = min(trace.program.loop_heads())
        never = max(inst.pc for inst in trace) + 100
        pairs = SpawnPairSet([_pair(head, never, 99)])
        stats = simulate(
            trace, pairs,
            ProcessorConfig(reassign=True, spawn_order_check="exact"),
        )
        assert stats.control_misspeculations == 0
        assert stats.spawns_rejected_order > 0


class TestMinSizeRemoval:
    def test_small_threads_remove_their_pair(self):
        pair = _pair(1, 2)
        rt = _runtime([pair], min_thread_size=32)
        assert rt.note_thread_size(pair, 10) is True
        assert rt.candidates(1) == []
        assert rt.removed_min_size == 1

    def test_large_threads_keep_the_pair(self):
        pair = _pair(1, 2)
        rt = _runtime([pair], min_thread_size=32)
        assert rt.note_thread_size(pair, 64) is False
        assert rt.candidates(1)

    def test_disabled_without_min_size(self):
        pair = _pair(1, 2)
        rt = _runtime([pair])
        assert rt.note_thread_size(pair, 1) is False

    def test_live_pair_count(self):
        rt = _runtime([_pair(1, 2), _pair(5, 6)], min_thread_size=32)
        assert [len(rt.candidates(sp)) for sp in (1, 5)] == [1, 1]
        rt.note_thread_size(_pair(1, 2), 1)
        assert [len(rt.candidates(sp)) for sp in (1, 5)] == [0, 1]
