"""Thread-unit resource bookkeeping tests."""

from repro.cmt import ProcessorConfig
from repro.cmt.thread_unit import ThreadUnit
from repro.isa.instructions import FuClass


def _tu(**overrides):
    return ThreadUnit(0, ProcessorConfig().with_(**overrides))


class TestIssueBooking:
    def test_issue_width_enforced(self):
        tu = _tu(issue_width=2)
        cycles = [tu.book_issue(10, FuClass.SIMPLE_INT) for _ in range(5)]
        # two per cycle: 10, 10, 11, 11, 12
        assert sorted(cycles) == [10, 10, 11, 11, 12]

    def test_fu_count_enforced(self):
        tu = _tu()
        # only one integer multiplier per unit (paper Section 4.1)
        first = tu.book_issue(5, FuClass.INT_MUL)
        second = tu.book_issue(5, FuClass.INT_MUL)
        assert first == 5
        assert second == 6

    def test_different_classes_share_issue_width_only(self):
        tu = _tu(issue_width=4)
        a = tu.book_issue(7, FuClass.INT_MUL)
        b = tu.book_issue(7, FuClass.FP_MUL)
        c = tu.book_issue(7, FuClass.FP_DIV)
        d = tu.book_issue(7, FuClass.LDST)
        assert [a, b, c, d] == [7, 7, 7, 7]
        # the fifth op of the cycle spills over regardless of class
        assert tu.book_issue(7, FuClass.SIMPLE_INT) == 8

    def test_booking_never_before_earliest(self):
        tu = _tu()
        assert tu.book_issue(100, FuClass.SIMPLE_INT) >= 100

    def test_reset_bandwidth_tracking(self):
        tu = _tu(issue_width=1)
        tu.book_issue(3, FuClass.SIMPLE_INT)
        tu.reset_bandwidth_tracking()
        assert tu.book_issue(3, FuClass.SIMPLE_INT) == 3


class TestPerUnitState:
    def test_fresh_unit_is_free_at_time_zero(self):
        assert _tu().free_at == 0

    def test_predictor_and_cache_are_per_unit(self):
        config = ProcessorConfig()
        a = ThreadUnit(0, config)
        b = ThreadUnit(1, config)
        a.gshare.update(5, True)
        assert b.gshare.predictions == 0
        a.l1.access(0)
        assert b.l1.accesses == 0


class TestRingBooking:
    """Ring-buffer tracker vs the legacy dict tracker."""

    def test_ring_matches_dict_under_monotone_floors(self):
        import random

        rng = random.Random(2002)
        classes = list(FuClass)
        probes = []
        floor = 0
        for _ in range(400):
            floor += rng.randrange(0, 3)
            probes.append((floor, floor + rng.randrange(0, 6),
                           rng.choice(classes)))
        ring_tu, dict_tu = _tu(), _tu()
        for group_floor, earliest, fu in probes:
            ring_tu.begin_group(group_floor)
            assert ring_tu.book_issue(earliest, fu) == \
                dict_tu.book_issue_legacy(earliest, fu)

    def test_overflow_beyond_window_is_exact(self):
        from repro.cmt.thread_unit import RING_WINDOW

        tu = _tu(issue_width=1)
        far = RING_WINDOW + 50  # beyond the window while base is 0
        assert tu.book_issue(far, FuClass.SIMPLE_INT) == far
        assert tu.book_issue(far, FuClass.SIMPLE_INT) == far + 1
        assert tu._issue_overflow  # spilled entries recorded
        # In-window bookings still work alongside the spill.
        assert tu.book_issue(3, FuClass.SIMPLE_INT) == 3

    def test_overflow_entries_visible_after_window_advance(self):
        from repro.cmt.thread_unit import RING_WINDOW

        tu = _tu(issue_width=1)
        far = RING_WINDOW + 10
        assert tu.book_issue(far, FuClass.SIMPLE_INT) == far
        # Advance the window so ``far`` is now in range: the spilled
        # booking must still count against the cycle.
        tu.begin_group(far)
        assert tu.book_issue(far, FuClass.SIMPLE_INT) == far + 1

    def test_begin_group_never_regresses(self):
        tu = _tu()
        tu.begin_group(100)
        tu.begin_group(40)
        assert tu._ring_base == 100

    def test_reset_clears_ring_state(self):
        tu = _tu(issue_width=1)
        tu.begin_group(50)
        tu.book_issue(50, FuClass.SIMPLE_INT)
        tu.reset_bandwidth_tracking()
        assert tu._ring_base == 0
        assert tu.book_issue(50, FuClass.SIMPLE_INT) == 50


class TestTrimBandwidth:
    def test_trim_drops_only_past_entries(self):
        tu = _tu()
        tu.book_issue_legacy(5, FuClass.SIMPLE_INT)
        tu.book_issue_legacy(20, FuClass.SIMPLE_INT)
        removed = tu.trim_bandwidth(10)
        assert removed == 2  # one issue entry + one FU entry at cycle 5
        assert 5 not in tu._issue_used
        assert 20 in tu._issue_used
        # Post-trim bookings at future cycles behave normally.
        assert tu.book_issue_legacy(20, FuClass.SIMPLE_INT) == 20

    def test_trim_covers_overflow_spill(self):
        from repro.cmt.thread_unit import RING_WINDOW

        tu = _tu(issue_width=1)
        far = RING_WINDOW + 5
        tu.book_issue(far, FuClass.SIMPLE_INT)
        assert tu.trim_bandwidth(far + 1) == 2
        assert not tu._issue_overflow and not tu._fu_overflow

    def test_trim_on_empty_unit_is_noop(self):
        assert _tu().trim_bandwidth(1000) == 0
