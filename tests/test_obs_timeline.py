"""Timeline-model tests: Chrome trace export, schema validation, and the
ASCII Gantt rendering as two projections of one model."""

import json

import pytest

from repro.cmt import ProcessorConfig, simulate
from repro.cmt.gantt import render_gantt, render_model
from repro.obs import (
    CHROME_TRACE_SCHEMA_VERSION,
    EventTracer,
    Lifetime,
    TimelineModel,
    validate_chrome_trace,
)
from repro.obs.events import (
    EV_CACHE_INSTALL,
    EV_PREDICT_HIT,
    EV_THREAD_SQUASH,
)
from repro.spawning import select_profile_pairs


@pytest.fixture(scope="module")
def timeline_run(small_traces):
    """One timeline-enabled traced run shared by the module's tests."""
    trace = small_traces["compress"]
    pairs = select_profile_pairs(trace)
    tracer = EventTracer()
    config = ProcessorConfig(
        num_thread_units=8, value_predictor="stride", collect_timeline=True
    )
    stats = simulate(trace, pairs, config, tracer=tracer)
    return stats, tracer


class TestModel:
    def test_empty_timeline_rejected(self):
        with pytest.raises(ValueError, match="collect_timeline=True"):
            TimelineModel([], num_tus=4)

    def test_from_stats_without_timeline_rejected(self, small_traces):
        trace = small_traces["compress"]
        pairs = select_profile_pairs(trace)
        stats = simulate(trace, pairs, ProcessorConfig())  # no timeline
        with pytest.raises(ValueError, match="no timeline collected"):
            TimelineModel.from_stats(stats, 16)

    def test_lifetimes_mirror_stats(self, timeline_run):
        stats, _ = timeline_run
        model = TimelineModel.from_stats(stats, 8)
        assert len(model.lifetimes) == len(stats.timeline)
        assert sum(l.size for l in model.lifetimes) == stats.instructions
        assert model.total_cycles == max(l.commit for l in model.lifetimes)

    def test_lanes_cover_every_tu_sorted(self, timeline_run):
        stats, _ = timeline_run
        model = TimelineModel.from_stats(stats, 8)
        lanes = model.lanes()
        assert set(lanes) == set(range(8))
        for lane in lanes.values():
            starts = [l.start for l in lane]
            assert starts == sorted(starts)

    def test_bulk_kinds_excluded_from_markers(self, timeline_run):
        stats, tracer = timeline_run
        model = TimelineModel.from_stats(stats, 8, events=tracer.events)
        kinds = {m.kind for m in model.markers}
        assert EV_PREDICT_HIT not in kinds
        assert EV_CACHE_INSTALL not in kinds

    def test_commit_wait_is_nonnegative(self, timeline_run):
        stats, _ = timeline_run
        model = TimelineModel.from_stats(stats, 8)
        assert all(w >= 0 for w in model.commit_waits())


class TestChromeTrace:
    def test_export_is_schema_valid(self, timeline_run):
        stats, tracer = timeline_run
        model = TimelineModel.from_stats(
            stats, 8, events=tracer.events,
            meta={"workload": "compress", "policy": "profile"},
        )
        chrome = model.chrome_trace()
        assert validate_chrome_trace(chrome) == []
        assert chrome["otherData"]["workload"] == "compress"

    def test_tracks_and_slices(self, timeline_run):
        stats, tracer = timeline_run
        model = TimelineModel.from_stats(stats, 8, events=tracer.events)
        events = model.chrome_trace()["traceEvents"]
        thread_names = [
            e for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert len(thread_names) == 8  # one track per TU
        executes = [e for e in events if e.get("cat") == "execute"]
        assert len(executes) == len(model.lifetimes)
        waits = [e for e in events if e.get("cat") == "commit_wait"]
        expected = sum(1 for l in model.lifetimes if l.commit > l.finish)
        assert len(waits) == expected
        squashes = [e for e in events if e["name"] == EV_THREAD_SQUASH]
        assert all(e["ph"] == "i" for e in squashes)

    def test_json_serialisation_round_trips(self, timeline_run):
        stats, _ = timeline_run
        model = TimelineModel.from_stats(stats, 8)
        parsed = json.loads(json.dumps(model.chrome_trace()))
        assert validate_chrome_trace(parsed) == []


class TestValidator:
    """validate_chrome_trace must actually catch malformed traces."""

    def test_missing_trace_events(self):
        assert validate_chrome_trace({}) == [
            "traceEvents missing or not a list"
        ]

    def test_empty_trace_events(self):
        assert "traceEvents is empty" in validate_chrome_trace(
            {"traceEvents": []}
        )

    def test_unknown_phase(self):
        problems = validate_chrome_trace(
            {"traceEvents": [{"ph": "Z", "pid": 1, "tid": 0, "name": "x"}]}
        )
        assert any("unknown phase" in p for p in problems)

    def test_complete_event_needs_ts_and_dur(self):
        problems = validate_chrome_trace(
            {"traceEvents": [{"ph": "X", "pid": 1, "tid": 0, "name": "x"}]}
        )
        assert any("ts" in p for p in problems)
        assert any("dur" in p for p in problems)

    def test_instant_scope_checked(self):
        problems = validate_chrome_trace(
            {"traceEvents": [
                {"ph": "i", "pid": 1, "tid": 0, "name": "x", "ts": 1,
                 "s": "q"},
            ]}
        )
        assert any("instant scope" in p for p in problems)

    def test_metadata_name_checked(self):
        problems = validate_chrome_trace(
            {"traceEvents": [
                {"ph": "M", "pid": 1, "tid": 0, "name": "favourite_colour"},
            ]}
        )
        assert any("unknown metadata name" in p for p in problems)


class TestSchemaVersion:
    """metadata.schema_version is stamped on export and validated."""

    GOOD = {"ph": "M", "pid": 1, "tid": 0, "name": "process_name"}

    def test_export_stamps_current_version(self, timeline_run):
        stats, _ = timeline_run
        chrome = TimelineModel.from_stats(stats, 8).chrome_trace()
        assert chrome["metadata"]["schema_version"] == (
            CHROME_TRACE_SCHEMA_VERSION
        )

    def test_absent_stamp_is_version_1(self):
        problems = validate_chrome_trace({"traceEvents": [self.GOOD]})
        assert any(
            "assuming 1" in p and "schema_version" in p for p in problems
        )
        # Callers holding pre-stamp exports opt in explicitly.
        assert validate_chrome_trace(
            {"traceEvents": [self.GOOD]}, expected_version=1
        ) == []

    def test_version_mismatch_flagged(self):
        trace = {
            "traceEvents": [self.GOOD],
            "metadata": {"schema_version": 99},
        }
        problems = validate_chrome_trace(trace)
        assert any("99" in p and "!= expected" in p for p in problems)

    def test_matching_stamp_is_clean(self):
        trace = {
            "traceEvents": [self.GOOD],
            "metadata": {
                "schema_version": CHROME_TRACE_SCHEMA_VERSION
            },
        }
        assert validate_chrome_trace(trace) == []

    def test_non_object_metadata_flagged(self):
        trace = {"traceEvents": [self.GOOD], "metadata": "v2"}
        problems = validate_chrome_trace(trace)
        assert "metadata is not an object" in problems


class TestGantt:
    """The ASCII renderer is one projection of the same model."""

    def test_empty_timeline_raises(self, small_traces):
        trace = small_traces["compress"]
        pairs = select_profile_pairs(trace)
        stats = simulate(trace, pairs, ProcessorConfig())
        with pytest.raises(ValueError, match="collect_timeline=True"):
            render_gantt(stats, 16)

    def test_narrow_width_rows_stay_aligned(self, timeline_run):
        stats, _ = timeline_run
        art = render_gantt(stats, 8, width=10)
        rows = [line for line in art.splitlines() if line.startswith("TU")]
        assert len(rows) == 8
        assert len({len(row) for row in rows}) == 1
        assert all(row.endswith("|") for row in rows)

    def test_render_gantt_matches_render_model(self, timeline_run):
        stats, _ = timeline_run
        model = TimelineModel.from_stats(stats, 8)
        assert render_gantt(stats, 8, width=60) == render_model(
            model, width=60
        )

    def test_single_lifetime_renders(self):
        model = TimelineModel(
            [Lifetime(tu=0, start=0, finish=40, commit=50, size=40)],
            num_tus=2,
        )
        art = render_model(model, width=20)
        assert "TU00" in art and "TU01" in art
        assert "=" in art and "." in art
        assert "mean commit wait 10.0 cycles, max 10" in art
