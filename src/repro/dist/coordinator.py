"""Sweep coordinator and the ``remote`` backend's worker fleet.

The coordinator is the durable side of the distributed protocol: it
owns the work-stealing scheduler, the shared artifact cache, and the
sweep's results.  Each connected worker gets one handler thread that
answers its frames (``steal`` → ``task``/``idle``/``shutdown``,
``cache_pull`` → ``cache_blob``, ``cache_push`` → ``cache_ok``) and
commits ``result`` frames exactly once through the scheduler's
completion ledger.  A monitor thread watches heartbeats and per-task
deadlines; a worker that goes silent — or whose socket drops, which is
what ``kill -9`` looks like from here — has its leased tasks requeued
at the front of the global deque, and any late duplicate result from a
wrongly-buried worker is counted and dropped.

:class:`RemoteBackend` packages the coordinator for the engine: it
spawns a local fleet of ``repro worker`` subprocesses against an
ephemeral port, waits for the sweep to drain, and reports fleet-level
telemetry (per-worker dispatch counters, task-latency histogram,
cache-channel traffic) through a
:class:`~repro.obs.registry.MetricsRegistry`.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cache import ArtifactCache
from repro.dist.backend import Backend, EmitFn, ExecutionPlan
from repro.dist.protocol import (
    ConnectionClosed,
    FrameChannel,
    ProtocolError,
    blob_digest,
)
from repro.dist.scheduler import CostModel, WorkStealingScheduler
from repro.errors import ExecutionError
from repro.obs.registry import MetricsRegistry

__all__ = ["Coordinator", "RemoteBackend"]

#: Seconds a worker is told to sleep when nothing is stealable yet.
IDLE_DELAY = 0.05


class _WorkerState:
    """Book-keeping of one connected worker."""

    def __init__(self, channel: FrameChannel, pid: Optional[int]) -> None:
        self.channel = channel
        self.pid = pid
        self.last_seen = time.monotonic()
        self.dead = False


class Coordinator:
    """Socket server dispatching one sweep to a worker fleet.

    Args:
        scheduler: The sweep's work-stealing scheduler (tasks seeded).
        cache: Shared artifact cache answering pull/push frames.
        emit: The engine's result callback; called exactly once per
            task, serialised under an internal lock.
        host: Bind address (loopback by default).
        port: Bind port (0 picks an ephemeral one; see :attr:`port`).
        timeout: Per-attempt wall-clock limit forwarded to workers.
        retries: Retry budget forwarded to workers.
        backoff: Backoff base forwarded to workers.
        heartbeat_timeout: Seconds of beacon silence after which a
            *busy* worker is declared dead and its leases requeued.
        grace: Extra seconds on top of the worst-case attempt budget
            before a blown per-task deadline buries the worker.
        registry: Metrics registry for fleet telemetry (a private one
            is created when omitted).
    """

    def __init__(
        self,
        scheduler: WorkStealingScheduler,
        cache: ArtifactCache,
        emit: EmitFn,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: Optional[float] = None,
        retries: int = 2,
        backoff: float = 0.05,
        heartbeat_timeout: float = 10.0,
        grace: float = 30.0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.scheduler = scheduler
        self.cache = cache
        self._emit = emit
        self._emit_lock = threading.Lock()
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.heartbeat_timeout = heartbeat_timeout
        self.deadline: Optional[float] = (
            timeout * (retries + 1) + grace if timeout else None
        )
        self.registry = registry or MetricsRegistry()
        self._lock = threading.Lock()
        self._workers: Dict[str, _WorkerState] = {}
        self._lease_started: Dict[str, float] = {}
        self._threads: List[threading.Thread] = []
        self._listener: Optional[socket.socket] = None
        self._stopping = threading.Event()

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind, listen, and start the accept and monitor threads.

        Returns:
            The bound ``(host, port)`` workers should connect to.
        """
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(64)
        listener.settimeout(0.2)
        self._listener = listener
        self.port = listener.getsockname()[1]
        for target in (self._accept_loop, self._monitor_loop):
            thread = threading.Thread(target=target, daemon=True)
            thread.start()
            self._threads.append(thread)
        return self.host, self.port

    def stop(self) -> None:
        """Close the listener and every worker socket; join the threads."""
        self._stopping.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - double close
                pass
        with self._lock:
            states = list(self._workers.values())
        for state in states:
            state.channel.close()
        for thread in self._threads:
            thread.join(timeout=2.0)

    def wait(
        self,
        abort: Optional[Any] = None,
        poll: float = 0.05,
        drain: float = 2.0,
    ) -> None:
        """Block until every task completed, then let workers drain.

        Args:
            abort: Optional zero-argument callable run every poll; it
                should raise to abort the wait (e.g. when the whole
                fleet died with work outstanding).
            poll: Seconds between completion checks.
            drain: Seconds to wait after completion for workers to pick
                up their ``shutdown`` reply and say ``goodbye``.
        """
        while not self.scheduler.done():
            if abort is not None:
                abort()
            time.sleep(poll)
        deadline = time.monotonic() + drain
        while self.live_workers() and time.monotonic() < deadline:
            time.sleep(poll)

    def live_workers(self) -> int:
        """Return how many registered workers are currently alive."""
        with self._lock:
            return sum(1 for s in self._workers.values() if not s.dead)

    # ------------------------------------------------------------------
    # Accept / monitor threads.
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        """Accept connections, one handler thread per worker."""
        assert self._listener is not None
        while not self._stopping.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            conn.settimeout(600.0)
            thread = threading.Thread(
                target=self._handle, args=(conn,), daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def _monitor_loop(self) -> None:
        """Bury workers whose heartbeats stopped or deadlines blew."""
        while not self._stopping.wait(0.2):
            now = time.monotonic()
            with self._lock:
                suspects = [
                    (wid, state)
                    for wid, state in self._workers.items()
                    if not state.dead
                ]
            for wid, state in suspects:
                silent = now - state.last_seen > self.heartbeat_timeout
                blown = False
                if self.deadline is not None:
                    for key in self.scheduler.leases_of(wid):
                        started = self._lease_started.get(key, now)
                        if now - started > self.deadline:
                            blown = True
                            break
                if silent or blown:
                    self._bury(
                        wid, "heartbeat silence" if silent else "deadline"
                    )

    def _bury(self, wid: str, reason: str) -> None:
        """Declare ``wid`` dead once: requeue leases, drop the socket.

        Args:
            wid: The worker id.
            reason: Human-readable cause (for telemetry labels).
        """
        with self._lock:
            state = self._workers.get(wid)
            if state is None or state.dead:
                return
            state.dead = True
        lost = self.scheduler.requeue_worker(wid)
        for key in lost:
            self._lease_started.pop(key, None)
        if lost:
            self.registry.counter(
                "repro_dist_requeues_total",
                "Tasks requeued from dead workers",
            ).inc(len(lost), worker=wid, reason=reason)
        self.registry.gauge(
            "repro_dist_workers", "Live workers in the fleet"
        ).set(self.live_workers())
        state.channel.close()

    # ------------------------------------------------------------------
    # Per-connection handler.
    # ------------------------------------------------------------------

    def _handle(self, conn: socket.socket) -> None:
        """Serve one worker connection until EOF or shutdown."""
        channel = FrameChannel(conn)
        wid: Optional[str] = None
        try:
            while not self._stopping.is_set():
                header, blob = channel.recv()
                kind = header.get("kind")
                if kind == "hello":
                    wid = str(header.get("worker"))
                    self._on_hello(wid, channel, header)
                elif kind == "heartbeat":
                    self._touch(str(header.get("worker")))
                elif kind == "steal":
                    wid = str(header.get("worker"))
                    self._touch(wid)
                    self._on_steal(wid, channel, header)
                elif kind == "result":
                    wid = str(header.get("worker"))
                    self._touch(wid)
                    self._on_result(wid, header)
                elif kind == "cache_pull":
                    self._on_cache_pull(channel, header)
                elif kind == "cache_push":
                    self._on_cache_push(channel, header, blob)
                elif kind == "goodbye":
                    return
                else:
                    raise ProtocolError(f"unexpected frame kind {kind!r}")
        except (ConnectionClosed, ProtocolError, OSError):
            pass
        finally:
            channel.close()
            if wid is not None:
                self._bury(wid, "connection lost")

    def _touch(self, wid: str) -> None:
        """Record liveness for ``wid`` (any frame counts as a beacon)."""
        with self._lock:
            state = self._workers.get(wid)
            if state is not None:
                state.last_seen = time.monotonic()

    def _on_hello(
        self, wid: str, channel: FrameChannel, header: Dict[str, Any]
    ) -> None:
        """Register a newly connected worker."""
        with self._lock:
            self._workers[wid] = _WorkerState(channel, header.get("pid"))
        self.scheduler.register(wid)
        self.registry.gauge(
            "repro_dist_workers", "Live workers in the fleet"
        ).set(self.live_workers())

    def _on_steal(
        self, wid: str, channel: FrameChannel, header: Dict[str, Any]
    ) -> None:
        """Answer a steal request with task, idle, or shutdown."""
        seq = header.get("seq")
        if self.scheduler.done():
            channel.send({"kind": "shutdown", "seq": seq})
            return
        task = self.scheduler.next_task(wid)
        if task is None:
            channel.send({"kind": "idle", "delay": IDLE_DELAY, "seq": seq})
            return
        self._lease_started[task.key] = time.monotonic()
        channel.send(
            {
                "kind": "task",
                "key": task.key,
                "runner": task.runner,
                "params": task.params,
                "timeout": self.timeout,
                "retries": self.retries,
                "backoff": self.backoff,
                "seq": seq,
            }
        )

    def _on_result(self, wid: str, header: Dict[str, Any]) -> None:
        """Commit a result exactly once; count duplicates."""
        key = str(header.get("key"))
        outcome = dict(header.get("outcome") or {})
        if not self.scheduler.complete(wid, key):
            self.registry.counter(
                "repro_dist_duplicate_results_total",
                "Late results from workers already declared dead",
            ).inc(worker=wid)
            return
        self._lease_started.pop(key, None)
        self.registry.counter(
            "repro_dist_tasks_total", "Tasks completed per worker"
        ).inc(worker=wid)
        seconds = outcome.get("seconds")
        if isinstance(seconds, (int, float)):
            self.registry.histogram(
                "repro_dist_task_seconds", "Per-task wall-clock seconds"
            ).observe(float(seconds), worker=wid)
        with self._emit_lock:
            self._emit(key, outcome, dict(header.get("delta") or {}), wid)

    def _on_cache_pull(
        self, channel: FrameChannel, header: Dict[str, Any]
    ) -> None:
        """Serve one shared-cache blob (or a miss) to a worker."""
        kind = str(header.get("cache_kind"))
        key = str(header.get("cache_key"))
        seq = header.get("seq")
        try:
            blob = self.cache.read_blob(kind, key)
        except KeyError:
            blob = None
        if blob is None:
            self.registry.counter(
                "repro_dist_cache_probe_misses_total",
                "Shared-cache pulls that missed",
            ).inc()
            channel.send({"kind": "cache_blob", "hit": False, "seq": seq})
            return
        self.registry.counter(
            "repro_dist_cache_pulls_total", "Shared-cache blobs served"
        ).inc()
        self.registry.counter(
            "repro_dist_cache_bytes_pulled_total",
            "Shared-cache bytes served to workers",
        ).inc(len(blob))
        channel.send(
            {
                "kind": "cache_blob",
                "hit": True,
                "digest": blob_digest(blob),
                "seq": seq,
            },
            blob,
        )

    def _on_cache_push(
        self,
        channel: FrameChannel,
        header: Dict[str, Any],
        blob: Optional[bytes],
    ) -> None:
        """Accept one worker-built blob after verifying its digest."""
        kind = str(header.get("cache_kind"))
        key = str(header.get("cache_key"))
        seq = header.get("seq")
        ok = blob is not None and blob_digest(blob) == header.get("digest")
        if ok and blob is not None:
            try:
                self.cache.write_blob(kind, key, blob)
            except (KeyError, OSError):
                ok = False
        if ok and blob is not None:
            self.registry.counter(
                "repro_dist_cache_pushes_total",
                "Worker-built blobs accepted into the shared cache",
            ).inc()
            self.registry.counter(
                "repro_dist_cache_bytes_pushed_total",
                "Shared-cache bytes received from workers",
            ).inc(len(blob))
        else:
            self.registry.counter(
                "repro_dist_cache_rejects_total",
                "Pushed blobs rejected (digest mismatch or bad kind)",
            ).inc()
        channel.send({"kind": "cache_ok", "ok": ok, "seq": seq})

    # ------------------------------------------------------------------
    # Telemetry.
    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Return the fleet summary: scheduler counters + cache traffic.

        Returns:
            A JSON-able dict combining :meth:`WorkStealingScheduler.snapshot`
            with the coordinator-side cache/requeue counters.
        """
        snap = self.scheduler.snapshot()
        counters: Dict[str, float] = {}
        for short, name in (
            ("pulls", "repro_dist_cache_pulls_total"),
            ("pushes", "repro_dist_cache_pushes_total"),
            ("probe_misses", "repro_dist_cache_probe_misses_total"),
            ("rejects", "repro_dist_cache_rejects_total"),
            ("duplicate_results", "repro_dist_duplicate_results_total"),
        ):
            total = 0.0
            if name in self.registry:
                for _labels, value in self.registry.counter(name).samples():
                    total += value
            counters[short] = total
        snap["cache"] = counters
        snap["workers"] = sorted(self._workers)
        return snap


class RemoteBackend(Backend):
    """The ``remote`` backend: coordinator + spawned local worker fleet.

    Args:
        workers: Fleet size override (None uses the plan's ``workers``).
        heartbeat: Worker beacon interval in seconds.
        heartbeat_timeout: Silence after which a busy worker is buried.
        grace: Extra seconds on the per-task deadline.
        spawn: Spawn ``repro worker`` subprocesses (True) or only
            listen for externally started workers (False).
    """

    name = "remote"

    def __init__(
        self,
        workers: Optional[int] = None,
        heartbeat: float = 2.0,
        heartbeat_timeout: float = 10.0,
        grace: float = 30.0,
        spawn: bool = True,
    ) -> None:
        self.workers = workers
        self.heartbeat = heartbeat
        self.heartbeat_timeout = heartbeat_timeout
        self.grace = grace
        self.spawn = spawn
        self.registry = MetricsRegistry()
        #: Worker subprocesses of the active run (chaos tests kill one).
        self.processes: List[subprocess.Popen] = []
        self._fleet: Dict[str, Any] = {}

    def fleet_summary(self) -> Dict[str, Any]:
        """Return the last run's fleet counters (see Coordinator.summary)."""
        return dict(self._fleet)

    def execute(
        self,
        points: Sequence[Any],
        plan: ExecutionPlan,
        emit: EmitFn,
    ) -> None:
        """Run the points on a socket worker fleet via ``emit``.

        Raises:
            ExecutionError: When every spawned worker died with tasks
                still outstanding (the sweep cannot finish).
        """
        if not points:
            return
        fleet_size = max(int(self.workers or plan.workers), 1)
        self.registry = MetricsRegistry()
        scheduler = WorkStealingScheduler(
            points, cost=CostModel.from_manifests(plan.telemetry_dir)
        )
        tmp: Optional[tempfile.TemporaryDirectory] = None
        if plan.cache is not None:
            shared = plan.cache
        elif plan.cache_dir:
            shared = ArtifactCache(plan.cache_dir)
        else:
            tmp = tempfile.TemporaryDirectory(prefix="repro-dist-cache-")
            shared = ArtifactCache(tmp.name)
        coordinator = Coordinator(
            scheduler,
            shared,
            emit,
            timeout=plan.timeout,
            retries=plan.retries,
            backoff=plan.backoff,
            heartbeat_timeout=self.heartbeat_timeout,
            grace=self.grace,
            registry=self.registry,
        )
        host, port = coordinator.start()
        self.processes = []
        try:
            if self.spawn:
                self.processes = [
                    self._spawn_worker(host, port, f"w{index}")
                    for index in range(fleet_size)
                ]
            coordinator.wait(
                abort=lambda: self._check_fleet(coordinator)
            )
        finally:
            coordinator.stop()
            self._reap()
            self._fleet = coordinator.summary()
            if tmp is not None:
                tmp.cleanup()

    def _spawn_worker(
        self, host: str, port: int, wid: str
    ) -> subprocess.Popen:
        """Start one ``repro worker`` subprocess against ``host:port``.

        Args:
            host: Coordinator bind address.
            port: Coordinator bind port.
            wid: The worker's stable id.

        Returns:
            The started process handle.
        """
        import repro

        src = str(os.path.dirname(os.path.dirname(repro.__file__)))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src + os.pathsep + existing if existing else src
        )
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "worker",
                "--connect",
                f"{host}:{port}",
                "--id",
                wid,
                "--heartbeat",
                str(self.heartbeat),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def _check_fleet(self, coordinator: Coordinator) -> None:
        """Abort the wait when the whole spawned fleet is gone.

        Args:
            coordinator: The active coordinator.

        Raises:
            ExecutionError: Every spawned worker exited, none is
                connected, and tasks are still outstanding.
        """
        if not self.spawn or not self.processes:
            return
        all_exited = all(p.poll() is not None for p in self.processes)
        if (
            all_exited
            and coordinator.live_workers() == 0
            and not coordinator.scheduler.done()
        ):
            raise ExecutionError(
                "worker fleet died with "
                f"{coordinator.scheduler.outstanding()} tasks outstanding"
            )

    def _reap(self) -> None:
        """Terminate and collect any still-running worker subprocesses."""
        for proc in self.processes:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.processes:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
                proc.wait(timeout=5.0)
