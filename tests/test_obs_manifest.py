"""Provenance-manifest tests: digests, round-trips, and the telemetry
directories the engine and the fault campaign write."""

import json

import pytest

from repro.experiments import framework
from repro.experiments.engine import ParallelEngine, Point
from repro.experiments.framework import ResilientOutcome, run_resilient
from repro.faults.campaign import CampaignSpec, run_campaign, workload_seed
from repro.obs import (
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    config_digest,
    find_telemetry,
    read_manifests,
    write_sweep_manifest,
)

SCALE = 0.12


def _mini_points(workloads=("compress", "li")):
    return [
        Point(
            key=f"mini|{name}",
            runner="simulate",
            params={
                "name": name,
                "policy": "profile",
                "scale": SCALE,
                "overrides": {},
            },
        )
        for name in workloads
    ]


@pytest.fixture(autouse=True)
def _fresh_memos():
    framework.clear_memos()
    yield
    framework.clear_memos()


class TestConfigDigest:
    def test_stable_and_order_independent(self):
        a = config_digest({"workload": "gcc", "scale": 0.3, "tus": 8})
        b = config_digest({"tus": 8, "scale": 0.3, "workload": "gcc"})
        assert a == b
        assert len(a) == 32 and int(a, 16) >= 0

    def test_distinguishes_configs(self):
        a = config_digest({"workload": "gcc", "scale": 0.3})
        b = config_digest({"workload": "gcc", "scale": 0.4})
        assert a != b


class TestRunManifest:
    def test_digest_filled_automatically(self):
        manifest = RunManifest(name="p", config={"workload": "li"})
        assert manifest.digest == config_digest({"workload": "li"})

    def test_dict_round_trip(self):
        manifest = RunManifest(
            name="fig8/gcc",
            config={"workload": "gcc", "tus": 8},
            seed=2002,
            seconds=1.25,
            attempts=2,
            ok=True,
            cache={"misses": 3},
            fault_plan={"rate": 0.05, "seed": 17},
            extra={"note": "x"},
        )
        data = manifest.to_dict()
        assert data["schema_version"] == MANIFEST_SCHEMA_VERSION
        restored = RunManifest.from_dict(json.loads(json.dumps(data)))
        assert restored == manifest

    def test_write_and_read_back(self, tmp_path):
        manifest = RunManifest(
            name="fig8/gcc tus=8", config={"workload": "gcc"}
        )
        path = manifest.write(tmp_path)
        assert path.name == "fig8_gcc_tus_8.manifest.json"
        loaded = read_manifests(tmp_path)
        assert loaded["fig8_gcc_tus_8.manifest"]["digest"] == manifest.digest

    def test_read_missing_directory_is_empty(self, tmp_path):
        assert read_manifests(tmp_path / "nowhere") == {}

    def test_sweep_manifest(self, tmp_path):
        write_sweep_manifest(
            tmp_path, name="fig8", points=4,
            config={"jobs": 2}, seconds=3.5,
            cache={"memory_hits": 9}, extra={"ok": 4},
        )
        data = read_manifests(tmp_path)["sweep.manifest"]
        assert data["name"] == "fig8"
        assert data["points"] == 4
        assert data["digest"] == config_digest({"jobs": 2})
        assert data["cache"] == {"memory_hits": 9}


class TestFindTelemetry:
    def test_discovers_nested_manifest_dirs(self, tmp_path):
        RunManifest(name="a", config={}).write(tmp_path / "tele")
        RunManifest(name="b", config={}).write(
            tmp_path / "runs" / "fig8"
        )
        (tmp_path / "empty").mkdir()
        found = find_telemetry(tmp_path)
        assert found == [
            tmp_path / "runs" / "fig8", tmp_path / "tele"
        ]

    def test_root_itself_counts(self, tmp_path):
        RunManifest(name="a", config={}).write(tmp_path)
        assert find_telemetry(tmp_path) == [tmp_path]

    def test_respects_max_depth(self, tmp_path):
        deep = tmp_path / "a" / "b" / "c"
        RunManifest(name="x", config={}).write(deep)
        assert find_telemetry(tmp_path, max_depth=2) == []
        assert find_telemetry(tmp_path, max_depth=3) == [deep]

    def test_skips_hidden_and_pycache(self, tmp_path):
        RunManifest(name="x", config={}).write(tmp_path / ".git")
        RunManifest(name="y", config={}).write(
            tmp_path / "__pycache__"
        )
        assert find_telemetry(tmp_path) == []

    def test_missing_root_is_empty(self, tmp_path):
        assert find_telemetry(tmp_path / "nope") == []


class TestOutcomeSeconds:
    def test_run_resilient_times_the_attempt(self):
        outcome = run_resilient(lambda: 42, retries=0)
        assert outcome.ok and outcome.value == 42
        assert outcome.seconds > 0

    def test_from_dict_back_compat_default(self):
        # An encoded outcome without a "seconds" key (one written
        # before the field existed) must still load.
        data = ResilientOutcome(ok=True, value=1, attempts=1).to_dict()
        del data["seconds"]
        assert ResilientOutcome.from_dict(data).seconds == 0.0

    def test_dict_round_trip_keeps_seconds(self):
        outcome = ResilientOutcome(ok=True, value=1, attempts=1, seconds=0.5)
        assert ResilientOutcome.from_dict(outcome.to_dict()) == outcome


class TestEngineTelemetry:
    def test_serial_sweep_writes_manifests(self, tmp_path):
        points = _mini_points()
        engine = ParallelEngine(
            jobs=1, cache_dir=tmp_path / "cache",
            telemetry_dir=tmp_path / "tele",
        )
        results = engine.run(points)
        assert all(results[p.key].ok for p in points)

        manifests = read_manifests(tmp_path / "tele")
        assert set(manifests) == {
            "mini_compress.manifest", "mini_li.manifest", "sweep.manifest",
        }
        point = manifests["mini_compress.manifest"]
        assert point["schema_version"] == MANIFEST_SCHEMA_VERSION
        assert point["ok"] is True
        assert point["seconds"] > 0
        assert point["config"]["runner"] == "simulate"
        assert point["config"]["name"] == "compress"
        assert point["digest"]
        # cold cache: the point's delta shows misses and puts
        assert point["cache"]["misses"] > 0
        sweep = manifests["sweep.manifest"]
        assert sweep["name"] == "sweep"
        assert sweep["points"] == 2
        assert sweep["extra"] == {"ok": 2, "failed": 0}
        assert sweep["seconds"] > 0

    def test_parallel_sweep_writes_manifests(self, tmp_path):
        points = _mini_points()
        engine = ParallelEngine(
            jobs=2, cache_dir=tmp_path / "cache",
            telemetry_dir=tmp_path / "tele",
        )
        engine.run(points)
        manifests = read_manifests(tmp_path / "tele")
        assert len(manifests) == 3  # two points + the sweep rollup
        for stem, data in manifests.items():
            if stem != "sweep.manifest":
                assert data["ok"] is True and data["seconds"] > 0

    def test_no_telemetry_dir_writes_nothing(self, tmp_path):
        engine = ParallelEngine(jobs=1, cache_dir=tmp_path / "cache")
        engine.run(_mini_points(workloads=("compress",)))
        assert not (tmp_path / "tele").exists()


class TestCampaignTelemetry:
    def test_manifests_carry_derived_fault_seeds(self, tmp_path):
        spec = CampaignSpec(
            workloads=("compress",), rates=(0.0, 0.05),
            seed=2002, scale=0.15, retries=0, backoff=0.0,
        )
        result = run_campaign(spec, telemetry_dir=str(tmp_path))
        assert result.ok, result.failures()

        manifests = read_manifests(tmp_path)
        # the "@" in the run key is flattened to "_" in the filename
        faulty = manifests["compress_0.05.manifest"]
        assert faulty["fault_plan"] == {
            "rate": 0.05,
            "seed": workload_seed(2002, "compress"),
        }
        assert faulty["seed"] == 2002
        assert faulty["config"]["workload"] == "compress"
        sweep = manifests["sweep.manifest"]
        assert sweep["name"] == "campaign"
        assert sweep["points"] == 2
        assert sweep["extra"]["failures"] == []
