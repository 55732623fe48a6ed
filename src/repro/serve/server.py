"""The ``repro serve`` daemon: HTTP/JSON API over the resilient queue.

Pure stdlib (``http.server``): a :class:`ServeDaemon` wires the
write-ahead :class:`~repro.serve.journal.JobJournal`, the admission-
controlled :class:`~repro.serve.queue.JobQueue`, the supervised
:class:`~repro.serve.pool.WorkerPool`, the shared artifact cache and
the live metrics registry into one long-running process.

Endpoints
---------

- ``POST /jobs`` — submit ``{"runner", "params", "priority"}``; 202 on
  accept, 200 on dedup/cache-hit, 400 on a bad request, 429 when
  admission control refuses, 503 while draining.
- ``GET /jobs`` — list job status (``?state=`` filters).
- ``GET /jobs/<id>`` — one job's status.
- ``GET /jobs/<id>/result`` — the result payload (409 until done).
- ``POST /jobs/<id>/cancel`` (or ``DELETE /jobs/<id>``) — cancel.
- ``GET /healthz`` — liveness + queue counters.
- ``GET /metrics`` — live Prometheus exposition from
  :mod:`repro.obs.registry`.
- ``POST /admin/drain`` — begin a graceful drain (also wired to
  ``SIGTERM``/``SIGINT``): stop admitting, finish what is running,
  compact the journal, exit.

On startup the daemon replays the journal: jobs that were queued or
running when the previous process was killed are re-queued and run
exactly once more; finished jobs keep their results.  The bound port
is advertised in ``<state-dir>/endpoint.json`` so clients (and the
chaos benchmark) can find a daemon started with ``--port 0``.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.experiments.engine import CACHED_RUNNERS
from repro.serve.jobs import Job, cache_key_fields
from repro.serve.metrics import ServeMetrics
from repro.serve.journal import JobJournal
from repro.serve.pool import WorkerPool
from repro.serve.queue import AdmissionError, JobQueue, RecoveryReport

__all__ = ["ServeConfig", "ServeDaemon"]


@dataclass
class ServeConfig:
    """Configuration of one serve daemon instance.

    Attributes:
        host: Bind address.
        port: Bind port (0 = ephemeral; see ``endpoint.json``).
        workers: Worker pool size.
        max_queued: Admission bound on queued jobs.
        shed_ratio: Queue-pressure threshold shedding low priority.
        retries: Per-job transient-retry budget.
        timeout: Per-attempt wall-clock limit in seconds.
        backoff: Retry backoff base in seconds.
        jitter: Deterministic jitter fraction of the backoff.
        state_dir: Journal + endpoint directory (created on demand).
        cache_dir: Artifact-cache directory (None disables caching).
        telemetry_dir: Per-job provenance manifest directory.
        drain_timeout: Seconds a graceful drain waits for running jobs.
        fsync: Whether journal appends fsync (the durability behind
            exactly-once; tests may disable for speed).
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    max_queued: int = 64
    shed_ratio: float = 0.8
    retries: int = 2
    timeout: Optional[float] = 120.0
    backoff: float = 0.05
    jitter: float = 0.5
    state_dir: Union[str, Path] = ".repro-serve"
    cache_dir: Optional[str] = None
    telemetry_dir: Optional[str] = None
    drain_timeout: float = 30.0
    fsync: bool = True


@dataclass
class _DrainState:
    """Internal drain bookkeeping."""

    requested: bool = False
    done: bool = False
    clean: bool = True
    event: threading.Event = field(default_factory=threading.Event)


class ServeDaemon:
    """Long-running simulation service (queue + pool + HTTP API)."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.state_dir = Path(config.state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.metrics = ServeMetrics()
        self.journal = JobJournal(
            self.state_dir / "journal.jsonl", fsync=config.fsync
        )
        self._cache: Optional[Any] = None
        if config.cache_dir:
            from repro.cache import ArtifactCache

            self._cache = ArtifactCache(config.cache_dir)
        self.queue = JobQueue(
            self.journal,
            max_queued=config.max_queued,
            shed_ratio=config.shed_ratio,
            cache_probe=self._cache_probe if self._cache else None,
            metrics=self.metrics,
        )
        self.recovery: RecoveryReport = self.queue.recover()
        self.pool = WorkerPool(
            self.queue,
            workers=config.workers,
            cache_dir=config.cache_dir,
            timeout=config.timeout,
            retries=config.retries,
            backoff=config.backoff,
            jitter=config.jitter,
            telemetry_dir=config.telemetry_dir,
        )
        self.started_at = time.time()
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None
        self._drain = _DrainState()

    # ------------------------------------------------------------------
    # Cache probe (instant answers for known config digests).
    # ------------------------------------------------------------------

    def _cache_probe(self, job: Job) -> Any:
        cache = self._cache
        if cache is None or job.runner not in CACHED_RUNNERS:
            return JobQueue.miss_sentinel()
        from repro.cache.store import _MISSING

        key = cache.key("point", **cache_key_fields(job))
        value = cache.lookup("point", key)

        if value is _MISSING:
            return JobQueue.miss_sentinel()
        return value

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """Return the bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._httpd is None:
            raise RuntimeError("daemon not started")
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def endpoint_path(self) -> Path:
        """Path of the advertised ``endpoint.json`` in the state dir."""
        return self.state_dir / "endpoint.json"

    def start(self) -> None:
        """Bind the server, start the pool, advertise the endpoint."""
        self.pool.start()
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), handler
        )
        self._httpd.daemon_threads = True
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="serve-http",
            daemon=True,
        )
        self._http_thread.start()
        host, port = self.address
        tmp = self.endpoint_path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(
            {"host": host, "port": port, "pid": os.getpid()}
        ))
        os.replace(tmp, self.endpoint_path)

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to a graceful drain (main thread only)."""

        def _handle(signum: int, frame: Any) -> None:
            self.request_drain()

        signal.signal(signal.SIGTERM, _handle)
        signal.signal(signal.SIGINT, _handle)

    def request_drain(self) -> None:
        """Begin a graceful drain asynchronously (idempotent)."""
        if self._drain.requested:
            return
        self._drain.requested = True
        thread = threading.Thread(
            target=self._drain_body, name="serve-drain", daemon=True
        )
        thread.start()

    def _drain_body(self) -> None:
        self._drain.clean = self.drain(self.config.drain_timeout)
        self._drain.done = True
        self._drain.event.set()

    def drain(self, timeout: float = 30.0) -> bool:
        """Drain synchronously: stop admitting, finish, compact, stop.

        Args:
            timeout: Seconds to wait for queued/running jobs.

        Returns:
            True when every accepted job reached a terminal state
            before shutdown.
        """
        self._drain.requested = True
        self.queue.drain()
        clean = self.pool.join_idle(timeout=timeout)
        self.pool.stop(wait=True, timeout=5.0)
        self.queue.rotate()
        self.journal.close()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        return clean

    def stop(self) -> None:
        """Hard stop (tests): no drain, just tear the server down."""
        self.pool.stop(wait=False)
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        self.journal.close()

    def wait_drained(self, timeout: Optional[float] = None) -> bool:
        """Block until a requested drain completes.

        Returns:
            True when the drain finished cleanly within ``timeout``.
        """
        self._drain.event.wait(timeout)
        return self._drain.done and self._drain.clean

    @property
    def draining(self) -> bool:
        """Whether a drain has been requested."""
        return self._drain.requested

    # ------------------------------------------------------------------
    # Request bodies (shared by the HTTP handler and in-process users).
    # ------------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """Return the ``/healthz`` payload."""
        return {
            "ok": True,
            "draining": self.draining,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "workers": self.pool.workers,
            "queue_depth": self.queue.depth(),
            "jobs": self.queue.counts(),
            "recovery": {
                "requeued": self.recovery.requeued,
                "duplicate_finishes": self.recovery.duplicate_finishes,
                "dropped_tail": self.recovery.dropped_tail,
                "quarantined": [
                    str(p) for p in self.recovery.quarantined
                ],
            },
        }

    def submit(self, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        """Handle a ``POST /jobs`` body; returns (HTTP status, payload)."""
        runner = body.get("runner")
        params = body.get("params", {})
        priority = body.get("priority", "normal")
        if not isinstance(runner, str) or not isinstance(params, dict):
            return 400, {
                "error": "body must carry a 'runner' string and "
                "optional 'params' object"
            }
        try:
            job, outcome = self.queue.submit(
                runner, params, str(priority)
            )
        except AdmissionError as exc:
            status = 503 if exc.reason == "draining" else 429
            return status, {"error": str(exc), "reason": exc.reason}
        except (KeyError, ValueError) as exc:
            return 400, {"error": str(exc)}
        status = 202 if outcome == "accepted" else 200
        return status, {
            "id": job.id,
            "state": job.state.value,
            "outcome": outcome,
            "cached": job.cached,
        }

    # ------------------------------------------------------------------
    # Exactly-once audit (smoke gate + chaos benchmark).
    # ------------------------------------------------------------------

    def audit(self) -> Dict[str, Any]:
        """Audit the job table for lost or duplicated work.

        Returns:
            ``{"accepted", "terminal", "lost", "duplicate_finishes"}``
            where lost = accepted jobs not in a terminal state (after a
            drain this must be 0) and duplicate_finishes comes from the
            recovery replay (one finish per job per journal stream).
        """
        jobs = self.queue.list_jobs()
        accepted = len(jobs)
        terminal = sum(1 for job in jobs if job.state.terminal)
        return {
            "accepted": accepted,
            "terminal": terminal,
            "lost": accepted - terminal,
            "duplicate_finishes": self.recovery.duplicate_finishes,
        }


# ----------------------------------------------------------------------
# HTTP plumbing.
# ----------------------------------------------------------------------


def _make_handler(daemon: ServeDaemon) -> type:
    """Build the request-handler class bound to ``daemon``."""

    class Handler(BaseHTTPRequestHandler):
        """Routes the serve API onto the daemon (one instance/request)."""

        server_version = "repro-serve/1.0"
        protocol_version = "HTTP/1.1"

        # Silence the default stderr access log.
        def log_message(self, format: str, *args: Any) -> None:
            del format, args

        def _send_json(
            self, status: int, payload: Dict[str, Any]
        ) -> None:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _send_text(self, status: int, text: str,
                       content_type: str) -> None:
            body = text.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _read_body(self) -> Optional[Dict[str, Any]]:
            try:
                length = int(self.headers.get("Content-Length", "0"))
                raw = self.rfile.read(length) if length else b"{}"
                data = json.loads(raw.decode("utf-8") or "{}")
            except (ValueError, UnicodeDecodeError):
                return None
            return data if isinstance(data, dict) else None

        def _parts(self) -> List[str]:
            path = self.path.split("?", 1)[0]
            return [part for part in path.split("/") if part]

        def _query(self) -> Dict[str, str]:
            if "?" not in self.path:
                return {}
            query: Dict[str, str] = {}
            for item in self.path.split("?", 1)[1].split("&"):
                if "=" in item:
                    key, value = item.split("=", 1)
                    query[key] = value
            return query

        # -------------------------------------------------- GET
        def do_GET(self) -> None:
            parts = self._parts()
            if parts == ["healthz"]:
                self._send_json(200, daemon.health())
            elif parts == ["metrics"]:
                self._send_text(
                    200, daemon.metrics.to_prometheus(),
                    "text/plain; version=0.0.4",
                )
            elif parts == ["jobs"]:
                state = self._query().get("state")
                jobs = daemon.queue.list_jobs(state)
                self._send_json(
                    200,
                    {"jobs": [job.status_dict() for job in jobs]},
                )
            elif len(parts) == 2 and parts[0] == "jobs":
                job = daemon.queue.get(parts[1])
                if job is None:
                    self._send_json(404, {"error": "unknown job"})
                else:
                    self._send_json(200, job.status_dict())
            elif (
                len(parts) == 3
                and parts[0] == "jobs"
                and parts[2] == "result"
            ):
                job = daemon.queue.get(parts[1])
                if job is None:
                    self._send_json(404, {"error": "unknown job"})
                elif job.state.value != "done":
                    self._send_json(
                        409,
                        {"error": "job is not done",
                         "state": job.state.value},
                    )
                else:
                    self._send_json(
                        200,
                        {"id": job.id, "result": job.result,
                         "cached": job.cached,
                         "seconds": job.seconds},
                    )
            else:
                self._send_json(404, {"error": "unknown route"})

        # -------------------------------------------------- POST
        def do_POST(self) -> None:
            parts = self._parts()
            if parts == ["jobs"]:
                body = self._read_body()
                if body is None:
                    self._send_json(
                        400, {"error": "request body must be a JSON "
                              "object"}
                    )
                    return
                status, payload = daemon.submit(body)
                self._send_json(status, payload)
            elif (
                len(parts) == 3
                and parts[0] == "jobs"
                and parts[2] == "cancel"
            ):
                self._cancel(parts[1])
            elif parts == ["admin", "drain"]:
                daemon.request_drain()
                self._send_json(202, {"draining": True})
            else:
                self._send_json(404, {"error": "unknown route"})

        # -------------------------------------------------- DELETE
        def do_DELETE(self) -> None:
            parts = self._parts()
            if len(parts) == 2 and parts[0] == "jobs":
                self._cancel(parts[1])
            else:
                self._send_json(404, {"error": "unknown route"})

        def _cancel(self, job_id: str) -> None:
            verdict = daemon.queue.cancel(job_id)
            if verdict == "unknown":
                self._send_json(404, {"error": "unknown job"})
            elif verdict == "terminal":
                job = daemon.queue.get(job_id)
                state = job.state.value if job else "unknown"
                self._send_json(
                    409,
                    {"error": "job already finished", "state": state},
                )
            else:
                self._send_json(202, {"id": job_id, "cancel": verdict})

    return Handler
