"""Serve daemon end to end: HTTP API, degradation, crash recovery."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.dist import backend as backend_module
from repro.experiments.engine import Point
from repro.serve import pool as pool_module
from repro.serve.client import ServeClient
from repro.serve.server import ServeConfig, ServeDaemon

SRC = Path(__file__).resolve().parents[1] / "src"


def _spawn_daemon(state_dir):
    """Start ``python -m repro serve`` on an ephemeral port."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--state-dir", str(state_dir),
            "--port", "0", "--workers", "2",
            "--backoff", "0.01",
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=env,
    )


def _wait_endpoint(state_dir, proc, timeout=20.0):
    """Wait for a daemon subprocess to advertise ``endpoint.json``."""
    endpoint = state_dir / "endpoint.json"
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(
                f"serve subprocess exited early (rc={proc.returncode})"
            )
        if endpoint.exists():
            try:
                data = json.loads(endpoint.read_text())
                if int(data.get("pid", -1)) == proc.pid:
                    return data
            except (ValueError, OSError):
                pass
        time.sleep(0.05)
    raise TimeoutError("serve subprocess never advertised its endpoint")


def _processes_holding(text):
    """PIDs of live processes whose command line holds ``text`` (/proc)."""
    found = []
    for entry in Path("/proc").glob("[0-9]*"):
        try:
            if text.encode() in (entry / "cmdline").read_bytes():
                found.append(int(entry.name))
        except OSError:
            pass  # exited while we looked
    return found


def _wait_no_process_holding(text, deadline):
    """Poll until no process holds ``text``; returns the survivors."""
    while True:
        survivors = _processes_holding(text)
        if not survivors or time.monotonic() > deadline:
            return survivors
        time.sleep(0.05)


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


class TestJobProcesses:
    def test_terminate_ends_a_job_process_under_the_daemon_handlers(
        self, tmp_path
    ):
        # ``repro serve`` installs a drain handler for SIGTERM/SIGINT;
        # a job process forked after that must still die on terminate().
        previous = {
            sig: signal.getsignal(sig)
            for sig in (signal.SIGTERM, signal.SIGINT)
        }
        daemon, client = start_daemon(tmp_path, workers=1)
        try:
            daemon.install_signal_handlers()
            _, body = client.submit("sleep", {"duration": 30.0})
            assert wait_state(client, body["id"], "running")
            [process] = daemon.pool.job_processes()
            started = time.monotonic()
            client.cancel(body["id"])
            assert wait_state(client, body["id"], "cancelled", timeout=5.0)
            elapsed = time.monotonic() - started
            process.join(timeout=5.0)
            assert not process.is_alive()
            assert process.exitcode == -signal.SIGTERM
            assert elapsed < 0.5, f"kill took {elapsed:.3f} s"
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
            daemon.stop()

    def test_one_job_process_per_worker_until_a_cancel(self, tmp_path):
        daemon, client = start_daemon(tmp_path, workers=1)
        try:
            for index in range(5):
                _, body = client.submit(
                    "sleep", {"duration": 0.01, "tag": f"s{index}"}
                )
                assert client.wait(body["id"])["state"] == "done"
            assert "repro_serve_worker_starts_total 1" in client.metrics()

            _, body = client.submit("sleep", {"duration": 30.0})
            assert wait_state(client, body["id"], "running")
            client.cancel(body["id"])
            assert client.wait(body["id"])["state"] == "cancelled"
            _, body = client.submit("sleep", {"duration": 0.01, "tag": "z"})
            assert client.wait(body["id"])["state"] == "done"
            assert "repro_serve_worker_starts_total 2" in client.metrics()
        finally:
            daemon.stop()

    def test_a_killed_job_process_is_replaced_and_its_job_retried(
        self, tmp_path
    ):
        daemon, client = start_daemon(tmp_path, workers=1)
        try:
            _, body = client.submit("sleep", {"duration": 1.0})
            assert wait_state(client, body["id"], "running")
            deadline = time.monotonic() + 5.0
            while not daemon.pool.job_processes():
                assert time.monotonic() < deadline, "no job process forked"
                time.sleep(0.01)
            [process] = daemon.pool.job_processes()
            os.kill(process.pid, signal.SIGKILL)
            final = client.wait(body["id"], timeout=10.0)
            assert (final["state"], final["attempts"]) == ("done", 2)
            assert "repro_serve_worker_starts_total 2" in client.metrics()
        finally:
            daemon.stop()

    def test_attempts_in_one_job_process_match_fresh_processes(
        self, tmp_path
    ):
        # One job process runs every attempt back to back; no trace,
        # memo or failure of one attempt may leak into the next.
        configs = [
            {"name": name, "policy": policy, "scale": 0.05,
             "overrides": {"num_thread_units": tus,
                           **({} if vp == "perfect"
                              else {"value_predictor": vp})}}
            for name, policy in (("li", "profile"), ("go", "heuristics"))
            for vp in ("perfect", "stride", "fcm")
            for tus in (2, 4)
        ]
        script = (
            "import json, sys\n"
            "from repro.experiments import framework\n"
            "configs = json.load(sys.stdin)\n"
            "print(json.dumps([framework.simulate_point(**c) "
            "for c in configs]))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        fresh = subprocess.run(
            [sys.executable, "-c", script], input=json.dumps(configs),
            capture_output=True, text=True, env=env, timeout=300,
            check=True,
        )
        expected = json.loads(fresh.stdout)

        heal = tmp_path / "heal.count"
        heal.write_text("1")
        daemon, client = start_daemon(tmp_path, workers=1, timeout=60.0)
        try:
            ids = []
            for index, params in enumerate(configs):
                ids.append(client.submit("simulate", params)[1]["id"])
                if index == 3:
                    ids.append(client.submit("sleep", {
                        "duration": 0.0, "fail_file": str(heal),
                    })[1]["id"])
                if index == 7:
                    ids.append(client.submit(
                        "sleep", {"duration": 0.0, "fail": "poison"}
                    )[1]["id"])
            finals = [client.wait(job_id, timeout=120.0) for job_id in ids]
            assert [f["state"] for f in finals].count("done") == 13
            assert finals[4]["attempts"] == 2  # failed once, then healed
            assert finals[9]["state"] == "quarantined"
            payloads = [
                client.result(f["id"])[1]["result"]
                for f in finals if f["runner"] == "simulate"
            ]
            assert payloads == expected
            assert "repro_serve_worker_starts_total 1" in client.metrics()
        finally:
            daemon.stop()

    def test_an_attempt_leaves_no_memo_or_cache_behind(self, tmp_path):
        # An attempt memoizes only in its own cache, which is gone once
        # it returns: the job process's active cache gains no entry.
        from repro.cache import ArtifactCache
        from repro.experiments import framework

        params = {"name": "compress", "policy": "profile", "scale": 0.05,
                  "overrides": {"value_predictor": "stride"}}
        active = framework.get_cache()
        entries, stats = len(active._memory), active.stats.to_dict()
        for cache_dir in (str(tmp_path / "cache"), None):
            status, payload, error_type, _ = backend_module._run_attempt(
                Point("job-1", "simulate", params), ArtifactCache(cache_dir)
            )
            assert (status, error_type) == ("ok", None), payload
            assert framework.get_cache() is active
            assert len(active._memory) == entries
            assert active.stats.to_dict() == stats
        assert len(list((tmp_path / "cache" / "point").iterdir())) == 1

    def test_stop_without_wait_reaps_job_processes(self, tmp_path):
        daemon, client = start_daemon(tmp_path)
        try:
            _, body = client.submit("sleep", {"duration": 30.0})
            assert wait_state(client, body["id"], "running")
            processes = daemon.pool.job_processes()
            assert len(processes) == 1
        finally:
            daemon.stop()
        # Reaped before stop() returned; the worker then retires it.
        assert all(p.exitcode is not None for p in processes)
        deadline = time.monotonic() + 5.0
        while daemon.pool.job_processes() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert daemon.pool.job_processes() == []

    def test_stress_cancels_with_more_workers_than_cores(
        self, tmp_path, monkeypatch
    ):
        started = []

        class Recorded(backend_module.JobProcess):
            def _start(self):
                process, conn = super()._start()
                if process not in started:
                    started.append(process)
                return process, conn

        monkeypatch.setattr(pool_module, "JobProcess", Recorded)
        daemon, client = start_daemon(tmp_path, workers=4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            ids = [
                client.submit("sleep", {
                    "duration": 30.0 if index % 5 == 4 else 0.02,
                    "tag": f"x{index}",
                })[1]["id"]
                for index in range(40)
            ]
            for job_id in ids[4::5]:
                assert wait_state(client, job_id, "running", timeout=30.0)
                assert client.cancel(job_id)[0] == 202
            finals = [client.wait(job_id, timeout=30.0) for job_id in ids]
            assert daemon.drain(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
            daemon.stop()
        states = [final["state"] for final in finals]
        assert states == [
            "cancelled" if index % 5 == 4 else "done" for index in range(40)
        ]
        audit = daemon.audit()
        assert audit["lost"] == 0 and audit["duplicate_finishes"] == 0
        assert len(started) == daemon.metrics.worker_starts.value()
        for process in started:
            process.join(timeout=5.0)
            assert not process.is_alive()


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
            lanes = ("high", "normal", "normal", "low")
            ids = []
            for index in range(8):
                status, payload = client.submit(
                    "sleep", {"duration": 0.25, "tag": f"c{index}"},
                    lanes[index % len(lanes)],
                )
                assert status == 202
                ids.append(payload["id"])
            time.sleep(0.5)  # some done, some running, some queued
            os.kill(proc.pid, signal.SIGKILL)
            killed_at = time.monotonic()
            proc.wait(timeout=10.0)
            if Path("/proc/self/cmdline").exists():
                # The dead daemon's job processes must not outlive it.
                orphans = _wait_no_process_holding(
                    str(state_dir), killed_at + 5.0
                )
                assert orphans == [], f"orphaned job processes: {orphans}"

            proc = _spawn_daemon(state_dir)
            endpoint = _wait_endpoint(state_dir, proc)
            client = ServeClient(endpoint["host"], int(endpoint["port"]))
            finals = [client.wait(job_id, timeout=60.0) for job_id in ids]
            health = client.health()
            client.drain()
            assert proc.wait(timeout=30.0) == 0
            if Path("/proc/self/cmdline").exists():
                # The drain reaped every job process of the restart.
                assert _processes_holding(str(state_dir)) == []

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
        from repro.serve.client import run_serve_smoke

        report = run_serve_smoke(tmp_path / "smoke")
        failed = [c for c in report["checks"] if not c["ok"]]
        assert report["ok"], f"failed checks: {failed}"
        assert len(report["checks"]) == 16
        names = {c["name"] for c in report["checks"]}
        assert {"hot_cache_served", "job_process_reused",
                "drain_reaps_job_processes"} <= names
