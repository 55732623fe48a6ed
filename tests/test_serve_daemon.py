"""Serve daemon end to end: HTTP API, degradation, crash recovery."""

import json
import os
import signal
import time

import pytest

from repro.serve.bench import ServeClient, _spawn_daemon, _wait_endpoint
from repro.serve.server import ServeConfig, ServeDaemon


def start_daemon(tmp_path, **overrides):
    config = dict(
        workers=2,
        state_dir=tmp_path / "state",
        cache_dir=str(tmp_path / "cache"),
        timeout=20.0,
        retries=1,
        backoff=0.01,
        fsync=False,
    )
    config.update(overrides)
    daemon = ServeDaemon(ServeConfig(**config))
    daemon.start()
    return daemon, ServeClient(*daemon.address)


def wait_state(client, job_id, state, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if client.status(job_id)[1].get("state") == state:
            return True
        time.sleep(0.02)
    return False


class TestHttpApi:
    def test_submit_status_result_roundtrip(self, tmp_path):
        daemon, client = start_daemon(tmp_path)
        try:
            status, body = client.submit(
                "sleep", {"duration": 0.01, "tag": "rt"}
            )
            assert status == 202
            assert body["outcome"] == "accepted"
            final = client.wait(body["id"])
            assert final["state"] == "done"
            assert "result" not in final  # status view omits payloads
            status, result = client.result(body["id"])
            assert status == 200
            assert result["result"]["tag"] == "rt"
        finally:
            daemon.stop()

    def test_duplicate_submit_dedups(self, tmp_path):
        daemon, client = start_daemon(tmp_path)
        try:
            _, first = client.submit("sleep", {"duration": 0.01})
            status, second = client.submit("sleep", {"duration": 0.01})
            assert status == 200
            assert second["outcome"] == "dedup"
            assert second["id"] == first["id"]
        finally:
            daemon.stop()

    def test_bad_requests_are_400(self, tmp_path):
        daemon, client = start_daemon(tmp_path)
        try:
            status, _ = client.request("POST", "/jobs", {"params": {}})
            assert status == 400
            status, _ = client.submit("no-such-runner", {})
            assert status == 400
            status, _ = client.submit(
                "sleep", {"duration": 0.01}, priority="urgent"
            )
            assert status == 400
        finally:
            daemon.stop()

    def test_invalid_simulate_params_are_400(self, tmp_path):
        # Params no attempt could run with are refused at submit time:
        # never journaled, never queued, never retried in a worker.
        daemon, client = start_daemon(tmp_path)
        journal = tmp_path / "state" / "journal.jsonl"
        size_before = journal.stat().st_size if journal.exists() else 0
        point = {"name": "compress", "policy": "profile", "scale": 0.05}
        try:
            for overrides in (
                {"sim_core": "bogus"},
                {"sim_core": "columnar"},  # removed simulator core
                {"num_thread_units": 0},
                {"no_such_knob": 1},
            ):
                status, body = client.submit(
                    "simulate", {**point, "overrides": overrides}
                )
                assert status == 400, (overrides, body)
                assert "invalid 'simulate' params" in body["error"]
            for bad in (
                {"name": "nope"},
                {"policy": "bogus"},
                {"scale": "big"},
                {"scale": True},
            ):
                status, body = client.submit(
                    "simulate", {**point, **bad, "overrides": {}}
                )
                assert status == 400, (bad, body)
                assert "invalid 'simulate' params" in body["error"]
            status, body = client.submit("simulate", point)  # no overrides
            assert status == 400, body
            assert client.request("GET", "/jobs")[1]["jobs"] == []
            size_after = journal.stat().st_size if journal.exists() else 0
            assert size_after == size_before
        finally:
            daemon.stop()

    def test_unknown_routes_and_jobs_are_404(self, tmp_path):
        daemon, client = start_daemon(tmp_path)
        try:
            assert client.request("GET", "/nope")[0] == 404
            assert client.status("missing")[0] == 404
            assert client.cancel("missing")[0] == 404
        finally:
            daemon.stop()

    def test_result_before_done_is_409(self, tmp_path):
        daemon, client = start_daemon(tmp_path)
        try:
            _, body = client.submit("sleep", {"duration": 5.0})
            status, payload = client.result(body["id"])
            assert status == 409
            client.cancel(body["id"])
        finally:
            daemon.stop()

    def test_healthz_and_metrics(self, tmp_path):
        daemon, client = start_daemon(tmp_path)
        try:
            _, body = client.submit("sleep", {"duration": 0.01})
            client.wait(body["id"])
            health = client.health()
            assert health["ok"] is True
            assert health["jobs"].get("done") == 1
            text = client.metrics()
            assert "repro_serve_jobs_submitted_total" in text
            assert "repro_serve_job_seconds" in text
        finally:
            daemon.stop()

    def test_jobs_listing_filters_by_state(self, tmp_path):
        daemon, client = start_daemon(tmp_path)
        try:
            _, body = client.submit("sleep", {"duration": 0.01})
            client.wait(body["id"])
            status, listing = client.request("GET", "/jobs?state=done")
            assert status == 200
            assert [j["id"] for j in listing["jobs"]] == [body["id"]]
            assert client.request(
                "GET", "/jobs?state=queued"
            )[1]["jobs"] == []
        finally:
            daemon.stop()


class TestDegradation:
    def test_full_queue_is_429(self, tmp_path):
        daemon, client = start_daemon(
            tmp_path, workers=1, max_queued=1, shed_ratio=1.0
        )
        try:
            _, running = client.submit("sleep", {"duration": 5.0})
            assert wait_state(client, running["id"], "running")
            _, queued = client.submit(
                "sleep", {"duration": 5.0, "tag": "q"}
            )
            status, body = client.submit(
                "sleep", {"duration": 5.0, "tag": "reject"}
            )
            assert status == 429
            assert body["reason"] == "full"
            client.cancel(running["id"])
            client.cancel(queued["id"])
        finally:
            daemon.stop()

    def test_low_priority_shed_is_429(self, tmp_path):
        daemon, client = start_daemon(
            tmp_path, workers=1, max_queued=2, shed_ratio=0.0
        )
        try:
            status, body = client.submit(
                "sleep", {"duration": 0.01}, priority="low"
            )
            assert status == 429
            assert body["reason"] == "shedding"
        finally:
            daemon.stop()

    def test_cancel_running_job_hard_kills(self, tmp_path):
        daemon, client = start_daemon(tmp_path)
        try:
            _, body = client.submit("sleep", {"duration": 30.0})
            assert wait_state(client, body["id"], "running")
            status, verdict = client.cancel(body["id"])
            assert status == 202
            final = client.wait(body["id"], timeout=10.0)
            assert final["state"] == "cancelled"
        finally:
            daemon.stop()

    def test_timeout_then_retries_exhaust(self, tmp_path):
        daemon, client = start_daemon(tmp_path, timeout=0.3, retries=1)
        try:
            _, body = client.submit("sleep", {"duration": 30.0})
            final = client.wait(body["id"], timeout=20.0)
            assert final["state"] == "failed"
            assert final["error_type"] == "SimulationTimeout"
            assert final["attempts"] == 2
            # The retry was journaled and counted before it ran.
            assert "repro_serve_job_retry_attempts_total 1" in client.metrics()
        finally:
            daemon.stop()

    def test_poison_quarantines_without_retry(self, tmp_path):
        daemon, client = start_daemon(tmp_path, retries=3)
        try:
            _, body = client.submit(
                "sleep", {"duration": 0.0, "fail": "poison"}
            )
            final = client.wait(body["id"])
            assert final["state"] == "quarantined"
            assert final["attempts"] == 1  # poison never retries
        finally:
            daemon.stop()

    def test_drain_rejects_with_503_and_finishes_work(self, tmp_path):
        daemon, client = start_daemon(tmp_path)
        _, body = client.submit("sleep", {"duration": 0.3})
        status, _ = client.drain()
        assert status == 202
        status, payload = client.submit(
            "sleep", {"duration": 0.01, "tag": "late"}
        )
        assert status == 503
        assert payload["reason"] == "draining"
        assert daemon.wait_drained(timeout=15.0)
        audit = daemon.audit()
        assert audit["lost"] == 0
        job = daemon.queue.get(body["id"])
        assert job.state.value == "done"  # in-flight work completed


class TestProvenance:
    def test_manifest_written_per_job(self, tmp_path):
        daemon, client = start_daemon(
            tmp_path, telemetry_dir=str(tmp_path / "telemetry")
        )
        try:
            _, body = client.submit("sleep", {"duration": 0.01})
            client.wait(body["id"])
            deadline = time.monotonic() + 5.0
            manifests = []
            while time.monotonic() < deadline and not manifests:
                manifests = list(tmp_path.glob("telemetry/*.json"))
                time.sleep(0.02)
            assert manifests, "no provenance manifest written"
            data = json.loads(manifests[0].read_text())
            assert data["name"] == f"job-{body['id']}"
            assert data["ok"] is True
            assert data["config"]["runner"] == "sleep"
        finally:
            daemon.stop()


class TestCrashRecovery:
    def test_kill_9_mid_queue_completes_every_job_exactly_once(
        self, tmp_path
    ):
        state_dir = tmp_path / "state"
        proc = _spawn_daemon(state_dir)
        try:
            endpoint = _wait_endpoint(state_dir, proc)
            client = ServeClient(endpoint["host"], int(endpoint["port"]))
            ids = []
            for index in range(8):
                status, payload = client.submit(
                    "sleep", {"duration": 0.25, "tag": f"c{index}"}
                )
                assert status == 202
                ids.append(payload["id"])
            time.sleep(0.5)  # some done, some running, some queued
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10.0)

            proc = _spawn_daemon(state_dir)
            endpoint = _wait_endpoint(state_dir, proc)
            client = ServeClient(endpoint["host"], int(endpoint["port"]))
            finals = [client.wait(job_id, timeout=60.0) for job_id in ids]
            health = client.health()
            client.drain()
            assert proc.wait(timeout=30.0) == 0

            assert all(f["state"] == "done" for f in finals)
            assert health["recovery"]["duplicate_finishes"] == 0
            assert health["recovery"]["requeued"] >= 1
            assert len({f["id"] for f in finals}) == len(ids)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)

    def test_restart_after_clean_drain_recovers_results(self, tmp_path):
        daemon, client = start_daemon(tmp_path)
        _, body = client.submit("sleep", {"duration": 0.01, "tag": "r"})
        client.wait(body["id"])
        assert daemon.drain(timeout=10.0)

        reborn = ServeDaemon(ServeConfig(
            state_dir=tmp_path / "state", fsync=False
        ))
        job = reborn.queue.get(body["id"])
        assert job is not None and job.state.value == "done"
        assert job.result["tag"] == "r"
        assert reborn.recovery.requeued == 0
        reborn.journal.close()


class TestSmokeGate:
    def test_run_serve_smoke_passes(self, tmp_path):
        from repro.serve.bench import run_serve_smoke

        report = run_serve_smoke(tmp_path / "smoke")
        failed = [c for c in report["checks"] if not c["ok"]]
        assert report["ok"], f"failed checks: {failed}"
