"""The ``prime`` artifact: value-predictor priming from the cache.

The priming sequence is profile output, so the artifact cache stores it
as a ``prime`` artifact that every later run and forked worker replays.
These tests pin that a replayed (decoded) sequence gives the legacy
oracle's statistics, that decoding returns exactly what was derived,
that a reader holding the artifact derives nothing, and that the trace
decoder leaves the caller's cyclic-GC state alone and gives the
collector nothing to track per instruction.
"""

import gc
import os
import pickle

import pytest

from repro.cache import ArtifactCache
from repro.cache import store
from repro.cli import main
from repro.cmt import priming_sequence, processor, simulate
from repro.experiments import framework
from repro.workloads import load_trace, workload_names

POLICIES = ("profile", "heuristics")

#: Scale of the replay-vs-oracle grid (``TestPaperGrid``'s scale).
GRID_SCALE = 0.12

SCALE = 0.05


def _forbid_derivation(monkeypatch):
    """Make deriving a priming sequence fail, wherever it is called from."""

    def derive(*args, **kwargs):
        raise AssertionError("priming sequence derived, not read")

    monkeypatch.setattr(processor, "priming_sequence", derive)
    monkeypatch.setattr(framework, "priming_sequence", derive)


@pytest.fixture
def fresh_memos():
    """Start and end the test with every in-process memo dropped."""
    framework.clear_memos()
    yield
    framework.clear_memos()


@pytest.fixture(scope="module")
def grid_cache(tmp_path_factory):
    """A cache directory holding every grid cell's ``prime`` artifact."""
    directory = tmp_path_factory.mktemp("prime-grid")
    framework.clear_memos()
    with framework.use_cache(ArtifactCache(directory)):
        for name in workload_names():
            for policy in POLICIES:
                framework.priming_sequence_for(name, policy, GRID_SCALE)
    framework.clear_memos()
    return directory


class TestReplayMatchesOracle:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("name", workload_names())
    def test_decoded_artifact_gives_the_legacy_stats(
        self, grid_cache, fresh_memos, monkeypatch, name, policy
    ):
        cache = ArtifactCache(grid_cache)
        _forbid_derivation(monkeypatch)
        with framework.use_cache(cache):
            for predictor in ("last", "stride", "fcm"):
                config = framework.EXPERIMENT_CONFIG.with_(
                    value_predictor=predictor
                )
                event = framework.run_policy(name, policy, config, GRID_SCALE)
                legacy = framework.run_policy(
                    name, policy, config.with_(sim_core="legacy"), GRID_SCALE
                )
                assert event.to_dict() == legacy.to_dict(), predictor
        assert cache.stats.misses == 0


class TestCrossProfiled:
    """A point simulating the ref input on pairs profiled on train."""

    INPUTS = {"dataset": "ref", "profile_dataset": "train"}

    @pytest.mark.parametrize("name", workload_names())
    def test_replay_gives_the_legacy_stats(
        self, tmp_path, fresh_memos, monkeypatch, name
    ):
        # The oracle primes from the simulated trace, so the artifact
        # must sample the ref trace with the train pairs.
        config = framework.EXPERIMENT_CONFIG.with_(value_predictor="stride")
        with framework.use_cache(ArtifactCache(tmp_path)):
            framework.priming_sequence_for(
                name, "profile", SCALE, config, **self.INPUTS
            )
        framework.clear_memos()
        cache = ArtifactCache(tmp_path)
        _forbid_derivation(monkeypatch)
        with framework.use_cache(cache):
            event = framework.run_policy(
                name, "profile", config, SCALE, **self.INPUTS
            )
            legacy = framework.run_policy(
                name, "profile", config.with_(sim_core="legacy"), SCALE,
                **self.INPUTS,
            )
        assert event.to_dict() == legacy.to_dict()
        assert cache.stats.misses == 0

    def test_both_inputs_key_the_artifact(self, tmp_path, fresh_memos):
        with framework.use_cache(ArtifactCache(tmp_path)):
            sequences = {
                (dataset, profiled): framework.priming_sequence_for(
                    "perl", "profile", SCALE, None, dataset, profiled
                )
                for dataset, profiled in (
                    ("train", "train"), ("ref", "train"), ("ref", "ref"),
                )
            }
        summary = ArtifactCache(tmp_path).disk_summary()
        assert summary["prime"].entries == 3
        assert summary["pairs"].entries == 2
        assert sequences[("ref", "train")] != sequences[("train", "train")]
        assert sequences[("ref", "train")] != sequences[("ref", "ref")]


class TestArtifact:
    @pytest.mark.parametrize("scale", [0.05, 0.25])
    @pytest.mark.parametrize("name", workload_names())
    def test_decoded_sequence_equals_the_derived_one(
        self, tmp_path, fresh_memos, name, scale
    ):
        derived = {}
        with framework.use_cache(ArtifactCache(tmp_path)):
            for policy in POLICIES:
                derived[policy] = framework.priming_sequence_for(
                    name, policy, scale
                )
        fresh = ArtifactCache(tmp_path)
        with framework.use_cache(fresh):
            for policy in POLICIES:
                decoded = framework.priming_sequence_for(name, policy, scale)
                assert decoded is not derived[policy]
                assert decoded == derived[policy], policy
        assert fresh.stats.misses == 0 and fresh.stats.disk_hits == 2

    def test_the_cache_keeps_the_memoized_object(self, tmp_path, fresh_memos):
        config = framework.EXPERIMENT_CONFIG
        with framework.use_cache(ArtifactCache(tmp_path)):
            stored = framework.priming_sequence_for("li", "profile", SCALE)
            trace = framework.trace_for("li", SCALE)
            pairs = framework.pair_set_for("li", "profile", SCALE)
        assert priming_sequence(trace, pairs, config) is stored

    @pytest.mark.parametrize(
        "knob", [{"prime_samples": 8}, {"livein_scan_cap": 64}]
    )
    def test_priming_parameters_key_their_own_artifact(
        self, tmp_path, fresh_memos, monkeypatch, knob
    ):
        # li's heuristic pairs have CQIP windows longer than 64.
        name, policy = "li", "heuristics"
        base = framework.EXPERIMENT_CONFIG.with_(value_predictor="stride")
        config = base.with_(**knob)
        with framework.use_cache(ArtifactCache(tmp_path)):
            default = framework.priming_sequence_for(name, policy, SCALE, base)
            knobbed = framework.priming_sequence_for(
                name, policy, SCALE, config
            )
        assert knobbed != default
        assert ArtifactCache(tmp_path).disk_summary()["prime"].entries == 2

        framework.clear_memos()
        with framework.use_cache(ArtifactCache(tmp_path)):
            trace = framework.trace_for(name, SCALE)
            pairs = framework.pair_set_for(name, policy, SCALE)
            with monkeypatch.context() as patched:
                _forbid_derivation(patched)
                replayed = framework.run_policy(name, policy, config, SCALE)
        direct = simulate(trace, pairs, config)
        assert replayed.to_dict() == direct.to_dict()

    def test_truncated_prime_is_rebuilt_and_overwritten(
        self, tmp_path, fresh_memos
    ):
        with framework.use_cache(ArtifactCache(tmp_path)):
            derived = list(
                framework.priming_sequence_for("compress", "profile", SCALE)
            )
        (path,) = (tmp_path / "prime").iterdir()
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])

        framework.clear_memos()
        fresh = ArtifactCache(tmp_path)
        with framework.use_cache(fresh):
            rebuilt = framework.priming_sequence_for(
                "compress", "profile", SCALE
            )
        assert fresh.stats.misses == 1
        assert rebuilt == derived
        assert path.read_bytes() == blob


class TestReaders:
    def test_cache_warm_derives_every_priming_sequence(
        self, tmp_path, fresh_memos, monkeypatch, capsys
    ):
        assert main(["cache", "warm", "--cache-dir", str(tmp_path),
                     "--scale", str(SCALE)]) == 0
        capsys.readouterr()
        summary = ArtifactCache(tmp_path).disk_summary()
        assert summary["prime"].entries == 2 * len(workload_names())

        framework.clear_memos()
        _forbid_derivation(monkeypatch)
        with framework.use_cache(ArtifactCache(tmp_path)):
            payload = framework.simulate_point(
                "gcc", "heuristics", SCALE, {"value_predictor": "fcm"}
            )
        assert payload["cycles"] > 0 and payload["value_hit_rate"] > 0

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_reader_derives_nothing(
        self, tmp_path, fresh_memos, monkeypatch
    ):
        import multiprocessing

        from repro.dist.backend import _job_main
        from repro.experiments.engine import Point, execute_point

        params = {
            "name": "vortex",
            "policy": "profile",
            "scale": SCALE,
            "overrides": {"value_predictor": "stride"},
        }
        with framework.use_cache(ArtifactCache(tmp_path)):
            framework.priming_sequence_for("vortex", "profile", SCALE)
            expected = framework.simulate_point(**params)
        framework.clear_memos()

        # The serve pool's attempt: one request to a forked job process
        # on the cache directory, which exits when its pipe closes.
        _forbid_derivation(monkeypatch)
        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()
        child = ctx.Process(
            target=_job_main,
            args=(child_conn, parent_conn, os.getpid(), str(tmp_path), True),
        )
        child.start()
        child_conn.close()
        try:
            parent_conn.send(Point("job-1", "simulate", params))
            assert parent_conn.poll(60)
            status, payload, error_type, _ = parent_conn.recv()
        finally:
            parent_conn.close()
            child.join(10)
        assert not child.is_alive() and child.exitcode == 0
        assert (status, error_type) == ("ok", None), payload
        assert payload == expected
        # Without the cache the same job derives, and the patch sees it.
        with pytest.raises(AssertionError, match="derived, not read"):
            execute_point(Point("job-2", "simulate", params))


class TestTraceDecodeGc:
    """``_trace_loads`` pauses the cyclic GC and restores its state."""

    @pytest.fixture
    def blob(self):
        return store._trace_dumps(load_trace("compress", SCALE))

    @pytest.fixture
    def restore_gc(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    def _spy(self, monkeypatch):
        seen = []
        loads = pickle.loads

        def spy(data):
            seen.append(gc.isenabled())
            return loads(data)

        monkeypatch.setattr(store.pickle, "loads", spy)
        return seen

    def test_enabled_collector_is_paused_then_restored(
        self, blob, restore_gc, monkeypatch
    ):
        seen = self._spy(monkeypatch)
        gc.enable()
        trace = store._trace_loads(blob)
        assert seen == [False]
        assert gc.isenabled()
        assert len(trace) == len(load_trace("compress", SCALE))

    def test_collector_disabled_by_the_caller_stays_disabled(
        self, blob, restore_gc, monkeypatch
    ):
        seen = self._spy(monkeypatch)
        gc.disable()
        store._trace_loads(blob)
        assert seen == [False]
        assert not gc.isenabled()

    def test_truncated_pickle_restores_the_collector(self, blob, restore_gc):
        gc.enable()
        with pytest.raises(store._UNDECODABLE):
            store._trace_loads(blob[: len(blob) // 2])
        assert gc.isenabled()

    def test_decode_tracks_no_object_per_instruction(self, blob, restore_gc):
        # A decoded trace is typed arrays, tuples of small ints and one
        # list of values, so decoding creates GC-tracked objects only for
        # the program and the columns' few containers.
        trace = load_trace("compress", SCALE)
        gc.disable()
        before = gc.get_count()[0]
        decoded = store._trace_loads(blob)
        created = gc.get_count()[0] - before
        assert len(decoded) == len(trace) > 4000
        assert created < 4 * len(trace.program) + 100
