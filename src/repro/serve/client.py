"""Serve-daemon HTTP client and the ``repro serve --smoke`` gate.

- :class:`ServeClient` — a tiny stdlib HTTP/JSON client for the serve
  API (used by the smoke gate and the tests);
- :func:`run_serve_smoke` — the ``repro serve --smoke`` gate: one
  in-process daemon exercised end to end (execute, dedup, retry-until-
  healed, poison quarantine, cancel, a real ``simulate`` job, job
  processes reused across attempts and reaped by the drain), a
  restart proving the journal recovers the full job table with zero
  duplicate finishes, and a fresh daemon on the same artifact cache
  answering the ``simulate`` job from the cache.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.serve.server import ServeConfig, ServeDaemon

__all__ = ["ServeClient", "run_serve_smoke"]


class ServeClient:
    """Minimal HTTP/JSON client for the serve API (stdlib only).

    Args:
        host: Daemon host.
        port: Daemon port.
        timeout: Per-request socket timeout in seconds.
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        self.base = f"http://{host}:{port}"
        self.timeout = timeout

    def request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Tuple[int, Any]:
        """Issue one HTTP request against the daemon.

        Args:
            method: HTTP method (``GET``/``POST``/``DELETE``).
            path: Request path (e.g. ``/jobs``).
            body: Optional JSON body.

        Returns:
            ``(status, payload)`` — the payload JSON-decoded when
            possible, raw text otherwise.  Non-2xx responses are
            returned, not raised.
        """
        data = None
        headers = {}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(
            self.base + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                raw = resp.read().decode("utf-8")
                status = resp.status
        except urllib.error.HTTPError as exc:
            raw = exc.read().decode("utf-8")
            status = exc.code
        content = raw
        try:
            content = json.loads(raw)
        except ValueError:
            pass
        return status, content

    def submit(
        self,
        runner: str,
        params: Dict[str, Any],
        priority: str = "normal",
    ) -> Tuple[int, Dict[str, Any]]:
        """POST /jobs: submit a job.

        Args:
            runner: Registered runner name.
            params: Runner keyword arguments.
            priority: Lane name (``high``/``normal``/``low``).

        Returns:
            ``(status, payload)`` from the submission endpoint.
        """
        return self.request(
            "POST", "/jobs",
            {"runner": runner, "params": params, "priority": priority},
        )

    def status(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        """GET /jobs/<id>; returns ``(status, job status view)``."""
        return self.request("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        """GET /jobs/<id>/result; returns ``(status, result payload)``."""
        return self.request("GET", f"/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        """POST /jobs/<id>/cancel; returns ``(status, verdict)``."""
        return self.request("POST", f"/jobs/{job_id}/cancel")

    def health(self) -> Dict[str, Any]:
        """GET /healthz; returns the decoded health payload."""
        return self.request("GET", "/healthz")[1]

    def metrics(self) -> str:
        """GET /metrics; returns the Prometheus exposition text."""
        return str(self.request("GET", "/metrics")[1])

    def drain(self) -> Tuple[int, Dict[str, Any]]:
        """POST /admin/drain; returns ``(status, acknowledgement)``."""
        return self.request("POST", "/admin/drain")

    def wait(
        self, job_id: str, timeout: float = 30.0, poll: float = 0.02
    ) -> Dict[str, Any]:
        """Poll a job until it reaches a terminal state.

        Returns:
            The final status dict.

        Raises:
            TimeoutError: The job stayed live past ``timeout`` seconds.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, payload = self.status(job_id)
            if status == 200 and payload.get("state") not in (
                "queued", "running"
            ):
                return payload
            time.sleep(poll)
        raise TimeoutError(f"job {job_id} did not finish in {timeout}s")


# ----------------------------------------------------------------------
# Smoke gate.
# ----------------------------------------------------------------------


def _check(
    checks: List[Dict[str, Any]], name: str, ok: bool, detail: str = ""
) -> bool:
    checks.append({"name": name, "ok": bool(ok), "detail": detail})
    return bool(ok)


#: The smoke's ``simulate`` job: small enough to run in a fraction of a
#: second, real enough to write a point result into the artifact cache.
SMOKE_SIMULATE: Dict[str, Any] = {
    "name": "compress", "policy": "profile", "scale": 0.05,
    "overrides": {"num_thread_units": 2},
}


def run_serve_smoke(
    state_dir: Union[str, Path],
    cache_dir: Optional[Union[str, Path]] = None,
) -> Dict[str, Any]:
    """Exercise one daemon end to end; the ``serve --smoke`` CI gate.

    Args:
        state_dir: Fresh directory for the journal/endpoint.
        cache_dir: Artifact-cache directory (defaults next to state).

    Returns:
        ``{"ok", "checks": [{name, ok, detail}, ...], ...}``.
    """
    state_dir = Path(state_dir)
    cache_dir = Path(cache_dir or state_dir / "cache")
    checks: List[Dict[str, Any]] = []
    daemon = ServeDaemon(ServeConfig(
        workers=2,
        state_dir=state_dir,
        cache_dir=str(cache_dir),
        telemetry_dir=str(state_dir / "telemetry"),
        timeout=20.0,
        retries=2,
        backoff=0.01,
        fsync=False,
    ))
    daemon.start()
    client = ServeClient(*daemon.address)
    try:
        # 1. Plain execution.
        status, body = client.submit("sleep", {"duration": 0.01, "tag": "a"})
        _check(checks, "submit_accepted", status == 202, f"status={status}")
        done = client.wait(body["id"])
        _check(checks, "job_done", done["state"] == "done",
               f"state={done['state']}")
        status, result = client.result(body["id"])
        _check(checks, "result_served",
               status == 200 and result["result"]["slept"] == 0.01,
               f"status={status}")

        # 2. Identical resubmission coalesces.
        status, dup = client.submit("sleep", {"duration": 0.01, "tag": "a"})
        _check(checks, "dedup",
               status == 200 and dup["outcome"] == "dedup"
               and dup["id"] == body["id"],
               f"status={status} outcome={dup.get('outcome')}")

        # 3. Transient failures retry until healed.
        heal = state_dir / "heal.count"
        heal.write_text("1")
        status, body = client.submit(
            "sleep",
            {"duration": 0.01, "fail_file": str(heal), "tag": "heal"},
        )
        done = client.wait(body["id"])
        _check(checks, "transient_retried",
               done["state"] == "done" and done["attempts"] >= 2,
               f"state={done['state']} attempts={done['attempts']}")

        # 4. Poison quarantines and never re-runs.
        status, body = client.submit(
            "sleep", {"duration": 0.0, "fail": "poison"}
        )
        done = client.wait(body["id"])
        _check(checks, "poison_quarantined",
               done["state"] == "quarantined"
               and done["error_type"] == "InvariantViolation"
               and done["attempts"] == 1,
               f"state={done['state']} attempts={done['attempts']}")
        status, again = client.submit(
            "sleep", {"duration": 0.0, "fail": "poison"}
        )
        _check(checks, "poison_not_rerun",
               status == 200 and again["outcome"] == "dedup",
               f"status={status} outcome={again.get('outcome')}")

        # 5. Cancel a running job.
        status, body = client.submit(
            "sleep", {"duration": 10.0, "tag": "cancel-me"}, "high"
        )
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if client.status(body["id"])[1].get("state") == "running":
                break
            time.sleep(0.02)
        status, _ = client.cancel(body["id"])
        done = client.wait(body["id"], timeout=10.0)
        _check(checks, "cancel_running",
               done["state"] == "cancelled", f"state={done['state']}")

        # 6. A real simulation runs and lands in the artifact cache.
        status, body = client.submit("simulate", SMOKE_SIMULATE)
        cold = client.wait(body["id"]) if status == 202 else body

        # 7. Health and metrics.
        health = client.health()
        _check(checks, "healthz", health["ok"] is True, "")
        text = client.metrics()
        _check(checks, "metrics",
               "repro_serve_jobs_submitted_total" in text
               and "repro_serve_job_seconds" in text
               and "repro_serve_worker_starts_total" in text, "")

        # 8. Job processes run attempts back to back.
        starts = daemon.metrics.worker_starts.value()
        attempts = sum(
            job.attempts for job in daemon.queue.list_jobs()
            if not job.cached
        )
        _check(checks, "job_process_reused", 0 < starts < attempts,
               f"starts={starts} attempts={attempts}")
        job_processes = daemon.pool.job_processes()
    finally:
        clean = daemon.drain(timeout=15.0)
    _check(checks, "drain_clean", clean, "")
    unreaped = [p.pid for p in job_processes if p.exitcode is None]
    _check(checks, "drain_reaps_job_processes",
           bool(job_processes) and not unreaped,
           f"{len(job_processes)} job process(es), unreaped {unreaped}")
    audit = daemon.audit()
    _check(checks, "exactly_once",
           audit["lost"] == 0 and audit["duplicate_finishes"] == 0,
           f"lost={audit['lost']} dup={audit['duplicate_finishes']}")

    # 9. A restarted daemon recovers the full table from the journal.
    reborn = ServeDaemon(ServeConfig(
        state_dir=state_dir, cache_dir=str(cache_dir), fsync=False
    ))
    recovered = reborn.audit()
    _check(checks, "recovery",
           recovered["accepted"] == audit["accepted"]
           and recovered["lost"] == 0
           and recovered["duplicate_finishes"] == 0,
           f"accepted={recovered['accepted']}/{audit['accepted']}")
    reborn.journal.close()

    # 10. A fresh daemon on the same cache answers from it, never running.
    hot_daemon = ServeDaemon(ServeConfig(
        workers=1, state_dir=state_dir / "hot", cache_dir=str(cache_dir),
        fsync=False,
    ))
    hot_daemon.start()
    try:
        status, hot = ServeClient(*hot_daemon.address).submit(
            "simulate", SMOKE_SIMULATE
        )
    finally:
        hot_daemon.drain(timeout=15.0)
    _check(checks, "hot_cache_served",
           cold.get("state") == "done" and cold.get("cached") is False
           and status == 200 and hot.get("outcome") == "cached"
           and hot.get("cached") is True,
           f"cold state={cold.get('state')} cached={cold.get('cached')}; "
           f"hot status={status} outcome={hot.get('outcome')}")

    return {
        "ok": all(check["ok"] for check in checks),
        "checks": checks,
        "jobs": audit["accepted"],
    }
