"""Artifact-cache tests: determinism, invalidation, persistence."""

import json
import os
import pickle
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from repro.cache import (
    ArtifactCache,
    canonical_key_fields,
    generator_version,
)
from repro.cmt import simulate, single_thread_cycles
from repro.exec.columns import TraceColumns
from repro.exec.trace import DynInst
from repro.experiments import framework
from repro.spawning.pairs import SpawnPair, SpawnPairSet, PairKind
from repro.workloads import load_trace

SCALE = 0.12


def _tiny_pairs() -> SpawnPairSet:
    return SpawnPairSet(
        [
            SpawnPair(
                sp_pc=4,
                cqip_pc=20,
                reach_probability=0.9,
                expected_distance=64.0,
                kind=PairKind.LOOP_ITERATION,
            )
        ],
        candidates_evaluated=3,
    )


class TestKeys:
    def test_key_is_deterministic(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        a = cache.key("pairs", workload="go", policy="profile", scale=1.0)
        b = cache.key("pairs", workload="go", policy="profile", scale=1.0)
        assert a == b

    def test_changed_knob_changes_key(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        base = cache.key("pairs", workload="go", policy="profile", scale=1.0)
        assert base != cache.key(
            "pairs", workload="go", policy="profile", scale=0.5
        )
        assert base != cache.key(
            "pairs", workload="go", policy="heuristics", scale=1.0
        )
        assert base != cache.key(
            "baseline", workload="go", policy="profile", scale=1.0
        )

    def test_field_order_is_irrelevant(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.key("pairs", a=1, b=2) == cache.key("pairs", b=2, a=1)

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(KeyError):
            ArtifactCache(tmp_path).key("nonsense", x=1)

    def test_canonical_fields_are_compact_and_sorted(self):
        text = canonical_key_fields({"b": 2, "a": [1.0, True]})
        assert text == '{"a":[1.0,true],"b":2}'

    def test_generator_version_is_stable(self):
        assert generator_version() == generator_version()
        assert len(generator_version()) == 16

    def test_payload_and_policy_builders_are_versioned(self):
        # Editing the code that builds a cached artifact must change the
        # generator digest, or stale artifacts stay in use.
        from repro.cache.version import VERSIONED_PACKAGES
        from repro.experiments.engine import CACHED_RUNNERS, POINT_RUNNERS

        builders = [POINT_RUNNERS[name] for name in CACHED_RUNNERS]
        builders += list(framework._POLICIES.values())
        for builder in builders:
            package = builder.__module__.split(".")[1]
            assert package in VERSIONED_PACKAGES, builder.__module__

    def test_pairs_and_points_load_no_analysis_module(self):
        # repro.analysis is not versioned: if pair selection or a point
        # read it, an edit there would leave stale artifacts in use.
        script = (
            "import sys\n"
            "from repro.experiments.framework import (\n"
            "    policy_builder, policy_names, simulate_point)\n"
            "from repro.workloads import load_trace\n"
            "trace = load_trace('compress', 0.05)\n"
            "for policy in policy_names():\n"
            "    policy_builder(policy)(trace)\n"
            "simulate_point('compress', 'profile', 0.05, {})\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[:2] == ['repro', 'analysis']))\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        run = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=env, timeout=120, check=True,
        )
        assert run.stdout.strip() == "[]"


class TestRoundTrip:
    def test_same_key_gives_byte_identical_artifact(self, tmp_path):
        built = []

        def build():
            built.append(1)
            return _tiny_pairs()

        first = ArtifactCache(tmp_path / "a")
        first.get_or_create("pairs", build, workload="x", scale=SCALE)
        blob_a = next((tmp_path / "a" / "pairs").iterdir()).read_bytes()

        second = ArtifactCache(tmp_path / "b")
        second.get_or_create("pairs", build, workload="x", scale=SCALE)
        blob_b = next((tmp_path / "b" / "pairs").iterdir()).read_bytes()

        assert blob_a == blob_b
        assert built == [1, 1]

    def test_miss_then_memory_then_disk_hit(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        value = cache.get_or_create("pairs", _tiny_pairs, workload="x")
        assert cache.stats.misses == 1 and cache.stats.puts == 1
        again = cache.get_or_create("pairs", _tiny_pairs, workload="x")
        assert again is value
        assert cache.stats.memory_hits == 1

        fresh = ArtifactCache(tmp_path)
        reloaded = fresh.get_or_create("pairs", _tiny_pairs, workload="x")
        assert fresh.stats.disk_hits == 1 and fresh.stats.misses == 0
        assert [p.key() for p in reloaded.all_pairs()] == [
            p.key() for p in value.all_pairs()
        ]

    def test_changed_knob_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.get_or_create("pairs", _tiny_pairs, workload="x", scale=1.0)
        cache.get_or_create("pairs", _tiny_pairs, workload="x", scale=0.5)
        assert cache.stats.misses == 2

    def test_clear_empties_the_store(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.get_or_create("pairs", _tiny_pairs, workload="x")
        cache.get_or_create("baseline", lambda: 123, workload="x")
        assert cache.clear("pairs") == 1
        assert cache.clear() == 1
        assert cache.disk_summary() == {}

    def test_clear_rejects_unknown_kind(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.get_or_create("pairs", _tiny_pairs, workload="x")
        for kind in ("colums", "columns"):
            with pytest.raises(KeyError):
                cache.clear(kind)
        assert cache.disk_summary()["pairs"].entries == 1

    def test_trace_round_trip_preserves_instructions(self, tmp_path):
        # ijpeg carries float results, compress integer-only ones.
        for name, scale in (("ijpeg", 0.1), ("compress", SCALE)):
            executed, loaded = _cached_trace_pair(tmp_path, name, scale)
            assert len(loaded) == len(executed)
            for pos, (want, got) in enumerate(zip(executed, loaded)):
                for field in DynInst.__slots__:
                    a, b = getattr(want, field), getattr(got, field)
                    assert type(a) is type(b), (name, pos, field)
                    assert a == b, (name, pos, field)
                assert got.op is want.op
            floats = sum(isinstance(d.dst_value, float) for d in loaded)
            branches = sum(isinstance(d.taken, bool) for d in loaded)
            assert branches > 0
            if name == "ijpeg":
                assert floats > 0
            assert loaded.columns == TraceColumns.build(executed)

    def test_trace_reencodes_to_identical_bytes(self, tmp_path):
        # The network cache ships blobs verbatim: re-encoding a loaded
        # trace must reproduce the executed trace's bytes exactly.
        cache = ArtifactCache(tmp_path)
        for name, scale in (("ijpeg", 0.1), ("compress", SCALE)):
            key = cache.key("trace", workload=name, scale=scale)
            executed = load_trace(name, scale)
            cache.store("trace", key, executed)
            blob = cache.read_blob("trace", key)
            loaded = ArtifactCache(tmp_path).lookup("trace", key)
            assert loaded is not executed
            cache.store("trace", key, loaded)
            assert cache.read_blob("trace", key) == blob


class TestCorruptArtifacts:
    """An artifact that does not decode is a miss, rebuilt in place."""

    def test_truncated_point_is_rebuilt_and_overwritten(self, tmp_path):
        payload = {"cycles": 7, "speedup": 1.5}
        ArtifactCache(tmp_path).get_or_create(
            "point", lambda: payload, runner="simulate"
        )
        (path,) = (tmp_path / "point").iterdir()
        path.write_bytes(path.read_bytes()[:-3])  # torn write

        fresh = ArtifactCache(tmp_path)
        value = fresh.get_or_create(
            "point", lambda: payload, runner="simulate"
        )
        assert value == payload
        assert fresh.stats.misses == 1 and fresh.stats.disk_hits == 0
        assert json.loads(path.read_text()) == payload

    def test_truncated_trace_is_rebuilt_and_overwritten(self, tmp_path):
        def build():
            return load_trace("compress", SCALE)

        fields = {"workload": "compress", "scale": SCALE}
        ArtifactCache(tmp_path).get_or_create("trace", build, **fields)
        (path,) = (tmp_path / "trace").iterdir()
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])

        fresh = ArtifactCache(tmp_path)
        rebuilt = fresh.get_or_create("trace", build, **fields)
        assert fresh.stats.misses == 1 and fresh.stats.disk_hits == 0
        assert path.read_bytes() == blob
        reloaded = ArtifactCache(tmp_path).get_or_create(
            "trace", build, **fields
        )
        assert len(reloaded) == len(rebuilt)

    @pytest.mark.parametrize(
        "corrupt",
        ["short_flags", "decreasing_offset", "offsets_past_data",
         "wide_positions"],
    )
    def test_inconsistent_trace_is_rebuilt_and_overwritten(
        self, tmp_path, corrupt
    ):
        # A blob that unpickles but whose columns disagree with each
        # other is rejected on decode: a miss, rebuilt and overwritten.
        def build():
            return load_trace("compress", SCALE)

        fields = {"workload": "compress", "scale": SCALE}
        ArtifactCache(tmp_path).get_or_create("trace", build, **fields)
        (path,) = (tmp_path / "trace").iterdir()
        blob = path.read_bytes()
        program, columns = pickle.loads(blob)
        if corrupt == "short_flags":
            columns.flags = columns.flags[:-1]
        elif corrupt == "decreasing_offset":
            offsets = columns.pc_off
            offsets[1] = offsets[2] + 1
        elif corrupt == "wide_positions":
            # The schema-3 layout: 8-byte position columns.
            columns.dep0 = array("q", columns.dep0)
        else:
            columns.reads = columns.reads[:-1]
        path.write_bytes(pickle.dumps((program, columns), protocol=4))

        fresh = ArtifactCache(tmp_path)
        rebuilt = fresh.get_or_create("trace", build, **fields)
        assert fresh.stats.misses == 1 and fresh.stats.disk_hits == 0
        assert path.read_bytes() == blob
        assert rebuilt.columns == build().columns

    def test_campaign_passes_over_a_truncated_point(self, tmp_path):
        from repro.faults.campaign import CampaignSpec, run_campaign, run_key

        spec = CampaignSpec(
            workloads=("compress",), rates=(0.0, 0.05), scale=0.1,
            retries=1, backoff=0.0,
        )
        first = run_campaign(spec, cache_dir=str(tmp_path))
        torn = first.outcomes[run_key("compress", 0.0)].value
        (path,) = [
            p for p in (tmp_path / "point").iterdir()
            if json.loads(p.read_text()) == torn
        ]
        path.write_bytes(path.read_bytes()[:10])

        second = run_campaign(spec, cache_dir=str(tmp_path))
        assert second.ok, second.failures()
        assert second.resumed == 1
        assert json.loads(path.read_text()) == torn
        framework.clear_memos()


def _cached_trace_pair(tmp_path, name, scale):
    """(freshly executed trace, the same trace loaded off a cold cache)."""
    directory = tmp_path / f"{name}-{scale}"
    framework.clear_memos()
    with framework.use_cache(ArtifactCache(directory)):
        executed = framework.trace_for(name, scale)
    framework.clear_memos()
    fresh = ArtifactCache(directory)
    with framework.use_cache(fresh):
        loaded = framework.trace_for(name, scale)
    framework.clear_memos()
    assert fresh.stats.disk_hits == 1 and fresh.stats.misses == 0
    return executed, loaded


class TestFrameworkIntegration:
    def test_baseline_memoized_on_disk(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with framework.use_cache(cache):
            cycles = framework.baseline_cycles("compress", scale=SCALE)
        framework.clear_memos()
        fresh = ArtifactCache(tmp_path)
        with framework.use_cache(fresh):
            assert framework.baseline_cycles("compress", scale=SCALE) == cycles
        assert fresh.stats.disk_hits >= 1
        framework.clear_memos()

    def test_a_later_cache_receives_every_artifact(self, tmp_path):
        # No memo outside the active cache answers for it: each cache
        # derives, and stores, what it does not hold yet.
        for directory in (tmp_path / "a", tmp_path / "b"):
            with framework.use_cache(ArtifactCache(directory)):
                framework.pair_set_for("compress", "profile", 0.05)
                framework.baseline_cycles("compress", scale=0.05)
        summary = ArtifactCache(tmp_path / "b").disk_summary()
        assert {kind: info.entries for kind, info in summary.items()} == {
            "trace": 1, "pairs": 1, "baseline": 1,
        }


class TestCachedTraceSimulation:
    """A trace loaded from the cache simulates off its stored columns."""

    def test_event_core_builds_no_instruction_objects(
        self, tmp_path, monkeypatch
    ):
        name = "compress"
        configs = [
            framework.EXPERIMENT_CONFIG.with_(
                value_predictor=vp, prime_value_predictor=True
            )
            for vp in ("perfect", "stride", "fcm")
        ]
        fresh = load_trace(name, SCALE)
        framework.clear_memos()
        with framework.use_cache(ArtifactCache(tmp_path)):
            pairs = framework.pair_set_for(name, "profile", SCALE)
        framework.clear_memos()
        expected = [simulate(fresh, pairs, config).to_dict() for config in configs]
        expected_baseline = single_thread_cycles(fresh, configs[0])

        built = []
        original_init = DynInst.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(DynInst, "__init__", counting_init)
        cache = ArtifactCache(tmp_path)
        try:
            with framework.use_cache(cache):
                trace = framework.trace_for(name, SCALE)
                got = [
                    framework.run_policy(name, "profile", config, SCALE).to_dict()
                    for config in configs
                ]
                baseline = framework.baseline_cycles(name, configs[0], SCALE)
        finally:
            framework.clear_memos()
        assert all(config.sim_core == "event" for config in configs)
        assert cache.stats.disk_hits == 2 and cache.stats.misses == 2
        assert trace._insts is None and built == []
        assert got == expected
        assert baseline == expected_baseline

        # The legacy oracle walks instruction objects, built on demand.
        monkeypatch.undo()
        legacy = simulate(trace, pairs, configs[2].with_(sim_core="legacy"))
        assert trace._insts is not None
        assert legacy.to_dict() == expected[2]
