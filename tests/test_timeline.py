"""Per-thread timeline collection tests."""

from repro.cmt import ProcessorConfig, simulate
from repro.spawning import select_profile_pairs


class TestTimeline:
    def test_disabled_by_default(self, small_traces):
        trace = small_traces["vortex"]
        stats = simulate(trace, select_profile_pairs(trace), ProcessorConfig())
        assert stats.timeline == []

    def test_records_every_committed_thread(self, small_traces):
        trace = small_traces["vortex"]
        stats = simulate(
            trace,
            select_profile_pairs(trace),
            ProcessorConfig(collect_timeline=True),
        )
        assert len(stats.timeline) == stats.threads_committed
        assert sum(rec.size for rec in stats.timeline) == len(trace)

    def test_records_are_causally_ordered(self, small_traces):
        trace = small_traces["m88ksim"]
        stats = simulate(
            trace,
            select_profile_pairs(trace),
            ProcessorConfig(collect_timeline=True),
        )
        commits = [rec.commit_cycle for rec in stats.timeline]
        starts = [rec.start_pos for rec in stats.timeline]
        assert commits == sorted(commits)  # program-order commit
        assert starts == sorted(starts)  # records come out in program order
        for rec in stats.timeline:
            assert rec.start_cycle <= rec.finish_cycle <= rec.commit_cycle
            assert 0 <= rec.tu < 16

    def test_root_thread_has_no_pair(self, small_traces):
        trace = small_traces["compress"]
        stats = simulate(
            trace,
            select_profile_pairs(trace),
            ProcessorConfig(collect_timeline=True),
        )
        assert stats.timeline[0].pair is None
        assert stats.timeline[0].start_pos == 0

    def test_livein_accounting_consistent(self, small_traces):
        trace = small_traces["vortex"]
        stats = simulate(
            trace,
            select_profile_pairs(trace),
            ProcessorConfig(collect_timeline=True, value_predictor="stride"),
        )
        for rec in stats.timeline:
            assert rec.livein_hits >= 0 and rec.livein_misses >= 0
            if rec.pair is None:
                assert rec.livein_hits == rec.livein_misses == 0
