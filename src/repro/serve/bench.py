"""Serve-daemon load generator, smoke gate and chaos benchmark.

Three entry points, all CI-sized:

- :class:`ServeClient` — a tiny stdlib HTTP/JSON client for the serve
  API (used by the benchmark, the smoke gate and the tests);
- :func:`run_serve_smoke` — the ``repro serve --smoke`` gate: one
  in-process daemon exercised end to end (execute, dedup, retry-until-
  healed, poison quarantine, cancel, drain) plus a restart proving the
  journal recovers the full job table with zero duplicate finishes;
- :func:`run_serve_bench` — the ``BENCH_serve.json`` source: p50/p99
  job latency under concurrent clients against a cold artifact cache,
  the same submissions against a *fresh daemon on a warm cache* (every
  answer must come from the cache without re-simulation), and a chaos
  leg that ``kill -9``-s a real daemon subprocess mid-queue, restarts
  it, and asserts every accepted job completed **exactly once** (zero
  lost, zero duplicate finishes).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.serve.server import ServeConfig, ServeDaemon

__all__ = [
    "ServeClient",
    "run_serve_smoke",
    "run_serve_bench",
    "write_serve_report",
]


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


def _percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (0.0 on empty input)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[rank]


def _latency_stats(samples: List[float]) -> Dict[str, Any]:
    return {
        "count": len(samples),
        "p50_ms": round(_percentile(samples, 0.50) * 1000, 3),
        "p99_ms": round(_percentile(samples, 0.99) * 1000, 3),
        "max_ms": round(max(samples) * 1000, 3) if samples else 0.0,
    }


# ----------------------------------------------------------------------
# Smoke gate.
# ----------------------------------------------------------------------


def _check(
    checks: List[Dict[str, Any]], name: str, ok: bool, detail: str = ""
) -> bool:
    checks.append({"name": name, "ok": bool(ok), "detail": detail})
    return bool(ok)


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

        # 6. Health and metrics.
        health = client.health()
        _check(checks, "healthz", health["ok"] is True, "")
        text = client.metrics()
        _check(checks, "metrics",
               "repro_serve_jobs_submitted_total" in text
               and "repro_serve_job_seconds" in text, "")
    finally:
        clean = daemon.drain(timeout=15.0)
    _check(checks, "drain_clean", clean, "")
    audit = daemon.audit()
    _check(checks, "exactly_once",
           audit["lost"] == 0 and audit["duplicate_finishes"] == 0,
           f"lost={audit['lost']} dup={audit['duplicate_finishes']}")

    # 7. A restarted daemon recovers the full table from the journal.
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

    return {
        "ok": all(check["ok"] for check in checks),
        "checks": checks,
        "jobs": audit["accepted"],
    }


# ----------------------------------------------------------------------
# Benchmark (BENCH_serve.json).
# ----------------------------------------------------------------------

#: Simulation grid of the cold/hot legs: small enough for CI, real
#: enough to exercise the artifact-cache path end to end.
BENCH_GRID = tuple(
    {"name": workload, "policy": "profile", "scale": 0.05,
     "overrides": {"num_thread_units": tus}}
    for workload in ("compress", "ijpeg")
    for tus in (2, 4)
)


def _client_burst(
    client: ServeClient,
    submissions: List[Tuple[str, Dict[str, Any]]],
    clients: int,
) -> Tuple[List[Dict[str, Any]], List[float]]:
    """Submit ``submissions`` from ``clients`` threads; wait for all.

    Returns:
        ``(final statuses, per-request submit latencies in seconds)``.
    """
    import threading

    lock = threading.Lock()
    accepted: List[str] = []
    submit_latency: List[float] = []
    chunks: List[List[Tuple[str, Dict[str, Any]]]] = [
        submissions[i::clients] for i in range(clients)
    ]

    def body(chunk: List[Tuple[str, Dict[str, Any]]]) -> None:
        for runner, params in chunk:
            start = time.perf_counter()
            status, payload = client.submit(runner, params)
            elapsed = time.perf_counter() - start
            with lock:
                submit_latency.append(elapsed)
                if status in (200, 202):
                    accepted.append(payload["id"])

    threads = [
        threading.Thread(target=body, args=(chunk,), daemon=True)
        for chunk in chunks if chunk
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    finals = [client.wait(job_id, timeout=120.0) for job_id in accepted]
    return finals, submit_latency


def _completion_latencies(finals: List[Dict[str, Any]]) -> List[float]:
    return [
        max(0.0, float(f["finished_at"]) - float(f["submitted_at"]))
        for f in finals
        if f.get("finished_at") and f.get("submitted_at")
    ]


def _bench_cold_hot(
    workdir: Path, clients: int, progress: Any
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run the cold-cache and warm-cache legs; returns both records."""
    cache_dir = workdir / "cache"
    submissions = [("simulate", dict(params)) for params in BENCH_GRID]

    if progress:
        progress(f"serve-bench: cold leg ({len(submissions)} jobs, "
                 f"{clients} clients)")
    daemon = ServeDaemon(ServeConfig(
        workers=2, state_dir=workdir / "cold",
        cache_dir=str(cache_dir), fsync=False, timeout=120.0,
    ))
    daemon.start()
    start = time.perf_counter()
    finals, submit_lat = _client_burst(
        ServeClient(*daemon.address), submissions, clients
    )
    cold_seconds = time.perf_counter() - start
    daemon.drain(timeout=30.0)
    cold_audit = daemon.audit()
    cold = {
        "seconds": round(cold_seconds, 3),
        "jobs": len(finals),
        "done": sum(1 for f in finals if f["state"] == "done"),
        "cached": sum(1 for f in finals if f["cached"]),
        "submit": _latency_stats(submit_lat),
        "completion": _latency_stats(_completion_latencies(finals)),
        "audit": cold_audit,
    }

    if progress:
        progress("serve-bench: cache-hot leg (fresh daemon, warm cache)")
    daemon = ServeDaemon(ServeConfig(
        workers=2, state_dir=workdir / "hot",
        cache_dir=str(cache_dir), fsync=False, timeout=120.0,
    ))
    daemon.start()
    start = time.perf_counter()
    finals, submit_lat = _client_burst(
        ServeClient(*daemon.address), submissions, clients
    )
    hot_seconds = time.perf_counter() - start
    daemon.drain(timeout=30.0)
    hot = {
        "seconds": round(hot_seconds, 3),
        "jobs": len(finals),
        "done": sum(1 for f in finals if f["state"] == "done"),
        "cached": sum(1 for f in finals if f["cached"]),
        "submit": _latency_stats(submit_lat),
        "completion": _latency_stats(_completion_latencies(finals)),
        "all_cached": bool(finals)
        and all(f["cached"] for f in finals),
    }
    return cold, hot


def _wait_endpoint(
    state_dir: Path, proc: "subprocess.Popen[bytes]", timeout: float = 20.0
) -> Dict[str, Any]:
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


def _spawn_daemon(state_dir: Path, workers: int = 2,
                  ) -> "subprocess.Popen[bytes]":
    """Start ``python -m repro serve`` on an ephemeral port."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--state-dir", str(state_dir),
            "--port", "0", "--workers", str(workers),
            "--backoff", "0.01",
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=env,
    )


def _bench_chaos(
    workdir: Path, chaos_jobs: int, progress: Any
) -> Dict[str, Any]:
    """kill -9 a live daemon mid-queue, restart, assert exactly-once."""
    state_dir = workdir / "chaos"
    if progress:
        progress(f"serve-bench: chaos leg ({chaos_jobs} jobs, kill -9)")
    proc = _spawn_daemon(state_dir)
    endpoint = _wait_endpoint(state_dir, proc)
    client = ServeClient(endpoint["host"], int(endpoint["port"]))
    priorities = ("high", "normal", "normal", "low")
    ids: List[str] = []
    for index in range(chaos_jobs):
        status, payload = client.submit(
            "sleep",
            {"duration": 0.25, "tag": f"chaos-{index}"},
            priorities[index % len(priorities)],
        )
        if status in (200, 202):
            ids.append(payload["id"])
    # Let some jobs finish and some be mid-flight, then pull the plug.
    time.sleep(0.6)
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait(timeout=10.0)

    proc = _spawn_daemon(state_dir)
    endpoint = _wait_endpoint(state_dir, proc)
    client = ServeClient(endpoint["host"], int(endpoint["port"]))
    finals = [client.wait(job_id, timeout=60.0) for job_id in ids]
    health = client.health()
    client.drain()
    proc.wait(timeout=30.0)

    states: Dict[str, int] = {}
    for final in finals:
        states[final["state"]] = states.get(final["state"], 0) + 1
    lost = sum(
        1 for final in finals
        if final["state"] in ("queued", "running")
    )
    return {
        "jobs_submitted": len(ids),
        "states": states,
        "lost": lost,
        "requeued_after_kill": health["recovery"]["requeued"],
        "duplicate_finishes": health["recovery"]["duplicate_finishes"],
        "exactly_once": (
            lost == 0
            and health["recovery"]["duplicate_finishes"] == 0
            and states.get("done", 0) == len(ids)
        ),
    }


def run_serve_bench(
    workdir: Union[str, Path],
    clients: int = 4,
    chaos_jobs: int = 12,
    skip_chaos: bool = False,
    progress: Any = None,
) -> Dict[str, Any]:
    """Benchmark the serve daemon; the ``BENCH_serve.json`` source.

    Args:
        workdir: Scratch directory for state dirs and the shared cache.
        clients: Concurrent submitting clients of the cold/hot legs.
        chaos_jobs: Jobs in flight when the chaos leg kills the daemon.
        skip_chaos: Skip the subprocess kill/restart leg.
        progress: Optional ``callable(str)`` for per-leg progress.

    Returns:
        The report dict; ``report["ok"]`` gates CI (hot leg fully
        cache-served and the chaos leg exactly-once).
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    cold, hot = _bench_cold_hot(workdir, clients, progress)
    report: Dict[str, Any] = {
        "schema": "repro-serve-bench/1",
        "clients": clients,
        "grid_points": len(BENCH_GRID),
        "cold": cold,
        "hot": hot,
        "hot_speedup": round(
            cold["seconds"] / max(hot["seconds"], 1e-9), 2
        ),
    }
    ok = (
        cold["audit"]["lost"] == 0
        and cold["done"] == cold["jobs"]
        and hot["all_cached"]
    )
    if not skip_chaos:
        chaos = _bench_chaos(workdir, chaos_jobs, progress)
        report["chaos"] = chaos
        ok = ok and chaos["exactly_once"]
    report["ok"] = ok
    return report


def write_serve_report(
    report: Dict[str, Any], path: Union[str, Path] = "BENCH_serve.json"
) -> Path:
    """Write a serve-bench report as pretty JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return path
