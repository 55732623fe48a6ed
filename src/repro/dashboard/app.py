"""The dashboard HTTP app, the snapshot writer, and the CI smoke.

:class:`DashboardApp` is a stdlib :mod:`http.server` application in
the same shape as the serve daemon's API server: a handler class bound
to the app by closure, JSON endpoints per view, quiet access log,
ephemeral-port friendly.  It is read-only — every route is a GET and
nothing mutates the underlying :class:`~repro.dashboard.data.
DashboardData` — so it is safe to point at live telemetry directories
while sweeps are writing manifests into them.

Routes
------

- ``GET /`` — the single-page UI (:func:`repro.dashboard.page.
  render_page` in live mode);
- ``GET /api/trace`` — the schema-checked Chrome-trace JSON;
- ``GET /api/events?kind=&thread=&limit=`` — the filtered event
  stream plus kind counts and the replay cross-check;
- ``GET /api/manifests`` — manifest browser payload over the
  discovered telemetry directories;
- ``GET /api/metrics`` — local registry snapshot with histogram
  quantiles, or the polled serve-daemon exposition in attach mode;
- ``GET /healthz`` — liveness.

:func:`write_snapshot` renders the same page with every payload
embedded, producing a static bundle that works from ``file://`` with
no server.  :func:`run_smoke` is the in-process end-to-end check the
CI dashboard step runs: ephemeral server, every endpoint hit, trace
schema validated, ``--attach`` exercised against a real serve daemon,
snapshot bundle validated.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import urllib.error
import urllib.parse
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.dashboard.data import DashboardData
from repro.dashboard.page import render_page
from repro.obs.timeline import validate_chrome_trace

__all__ = ["DashboardApp", "run_smoke", "write_snapshot"]


class DashboardApp:
    """Read-only HTTP server over one :class:`DashboardData`.

    Args:
        data: The assembled data sources behind every endpoint.
        host: Bind address.
        port: Bind port (0 = ephemeral; read :attr:`address` after
            :meth:`start`).
    """

    def __init__(
        self,
        data: DashboardData,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.data = data
        self.host = host
        self.port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """Return the bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._httpd is None:
            raise RuntimeError("dashboard not started")
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> None:
        """Bind the server and serve from a background thread."""
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer((self.host, self.port), handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="dashboard-http",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        """Shut the server down (idempotent)."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None

    # ------------------------------------------------------------------
    # Response bodies (shared by the HTTP handler and tests).
    # ------------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """Return the ``/healthz`` payload."""
        return {
            "ok": True,
            "views": ["timeline", "events", "manifests", "metrics"],
            "events": len(self.data.events),
            "telemetry_dirs": len(self.data.telemetry),
            "attached": self.data.attach_url is not None,
        }


def _make_handler(app: DashboardApp) -> type:
    """Build the request-handler class bound to ``app``."""

    class Handler(BaseHTTPRequestHandler):
        """Routes the dashboard API onto the app (one per request)."""

        server_version = "repro-dashboard/1.0"
        protocol_version = "HTTP/1.1"

        # Silence the default stderr access log.
        def log_message(self, format: str, *args: Any) -> None:
            del format, args

        def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _send_html(self, text: str) -> None:
            body = text.encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "text/html; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _query(self) -> Dict[str, str]:
            if "?" not in self.path:
                return {}
            query: Dict[str, str] = {}
            for item in self.path.split("?", 1)[1].split("&"):
                if "=" in item:
                    key, value = item.split("=", 1)
                    query[key] = urllib.parse.unquote_plus(value)
            return query

        def do_GET(self) -> None:
            path = self.path.split("?", 1)[0]
            if path in ("/", "/index.html"):
                self._send_html(render_page(None))
            elif path == "/healthz":
                self._send_json(200, app.health())
            elif path == "/api/trace":
                self._send_json(200, app.data.trace_payload())
            elif path == "/api/events":
                query = self._query()
                thread: Optional[int] = None
                limit = 2000
                try:
                    if query.get("thread"):
                        thread = int(query["thread"])
                    if query.get("limit"):
                        limit = int(query["limit"])
                except ValueError:
                    self._send_json(
                        400, {"error": "thread/limit must be integers"}
                    )
                    return
                self._send_json(200, app.data.events_payload(
                    kind=query.get("kind") or None,
                    thread=thread,
                    limit=limit,
                ))
            elif path == "/api/manifests":
                self._send_json(200, app.data.manifests_payload())
            elif path == "/api/metrics":
                self._send_json(200, app.data.metrics_payload())
            else:
                self._send_json(404, {"error": "unknown route"})

    return Handler


def write_snapshot(
    data: DashboardData, directory: Union[str, Path]
) -> List[Path]:
    """Write the static dashboard bundle under ``directory``.

    The bundle is ``index.html`` with every view's payload embedded
    (works from ``file://`` with no server) plus each payload as a
    standalone JSON file (``trace.json``, ``events.json``,
    ``manifests.json``, ``metrics.json``) so other tooling — Perfetto
    for the trace, ``jq`` for the rest — can consume them directly.

    Args:
        data: The assembled data sources.
        directory: Bundle directory (created on demand).

    Returns:
        The written paths, ``index.html`` first.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    bootstrap = data.bootstrap()
    written: List[Path] = []
    index = directory / "index.html"
    index.write_text(render_page(bootstrap))
    written.append(index)
    for name in ("trace", "events", "manifests", "metrics"):
        path = directory / f"{name}.json"
        path.write_text(
            json.dumps(bootstrap[name], indent=2, sort_keys=True) + "\n"
        )
        written.append(path)
    return written


def _get(url: str, timeout: float = 10.0) -> Tuple[int, Any]:
    """GET ``url``; return ``(status, parsed-or-text body)``."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            status = resp.status
            body = resp.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        status = exc.code
        body = exc.read().decode("utf-8")
    try:
        return status, json.loads(body)
    except ValueError:
        return status, body


def run_smoke(
    workload: str = "compress",
    scale: float = 0.05,
    max_steps: Optional[int] = 20000,
) -> Dict[str, Any]:
    """Run the end-to-end dashboard smoke (the CI dashboard step).

    One traced simulation feeds a live server on an ephemeral port;
    every endpoint is hit over real HTTP, the served trace is checked
    with :func:`~repro.obs.timeline.validate_chrome_trace`, the
    ``--attach`` path is exercised against a real ``repro serve``
    daemon's ``/metrics``, and a ``--snapshot`` bundle is written and
    re-validated.  Everything runs in-process against temp dirs.

    Args:
        workload: Workload the backing simulation runs.
        scale: Workload scale (kept tiny — this is a smoke).
        max_steps: Simulation step bound.

    Returns:
        ``{"ok": bool, "checks": [{"name", "ok", "detail"}, ...]}``.
    """
    checks: List[Dict[str, Any]] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    with tempfile.TemporaryDirectory(prefix="repro-dash-") as tmp:
        telemetry = Path(tmp) / "tele"
        from repro.obs.manifest import RunManifest

        RunManifest(
            name="smoke/point", config={"workload": workload}
        ).write(telemetry)
        data = DashboardData.collect(
            workload=workload,
            scale=scale,
            max_steps=max_steps,
            telemetry=[str(telemetry)],
        )
        app = DashboardApp(data, port=0)
        app.start()
        try:
            status, page = _get(app.url + "/")
            check("index", status == 200 and "repro dashboard" in page,
                  f"HTTP {status}")
            status, health = _get(app.url + "/healthz")
            check("healthz", status == 200 and health.get("ok") is True,
                  f"HTTP {status}")
            status, trace = _get(app.url + "/api/trace")
            problems = (
                validate_chrome_trace(trace)
                if isinstance(trace, dict) else ["not a JSON object"]
            )
            check("trace", status == 200 and not problems,
                  "; ".join(problems) or f"HTTP {status}")
            status, events = _get(app.url + "/api/events?kind=thread")
            ok = (
                status == 200
                and events.get("filtered", 0) > 0
                and all(
                    e["kind"].startswith("thread")
                    for e in events["events"]
                )
            )
            check("events", ok, f"HTTP {status}, "
                  f"{events.get('filtered')} filtered")
            status, bad = _get(app.url + "/api/events?thread=x")
            check("events-bad-query", status == 400, f"HTTP {status}")
            status, manifests = _get(app.url + "/api/manifests")
            ok = status == 200 and any(
                "smoke_point.manifest" in entry["manifests"]
                for entry in manifests.get("dirs", [])
            )
            check("manifests", ok, f"HTTP {status}")
            status, metrics = _get(app.url + "/api/metrics")
            check(
                "metrics-local",
                status == 200 and metrics.get("source") == "local"
                and len(metrics.get("quantiles", [])) > 0,
                f"HTTP {status}",
            )
            status, payload = _get(app.url + "/api/nope")
            check("unknown-route-404", status == 404, f"HTTP {status}")
            del bad, payload
        finally:
            app.stop()

        # --attach leg: a real serve daemon's /metrics feeds the panel.
        from repro.serve.server import ServeConfig, ServeDaemon

        daemon = ServeDaemon(ServeConfig(
            state_dir=os.path.join(tmp, "serve"),
            fsync=False,
            workers=1,
        ))
        daemon.start()
        try:
            attached = DashboardData(
                data.trace,
                events=data.events,
                attach_url=f"http://{daemon.address[0]}:"
                           f"{daemon.address[1]}",
                meta=data.meta,
            )
            attach_app = DashboardApp(attached, port=0)
            attach_app.start()
            try:
                status, metrics = _get(attach_app.url + "/api/metrics")
                ok = (
                    status == 200
                    and metrics.get("source") == "attached"
                    and len(metrics.get("samples", [])) > 0
                )
                check(
                    "metrics-attached", ok,
                    f"HTTP {status}, "
                    f"{len(metrics.get('samples', []))} samples",
                )
            finally:
                attach_app.stop()
        finally:
            daemon.stop()

        # --snapshot leg: static bundle, embedded trace re-validated.
        snap_dir = Path(tmp) / "snap"
        written = write_snapshot(data, snap_dir)
        index_ok = (
            written[0].name == "index.html"
            and "repro dashboard" in written[0].read_text()
        )
        check("snapshot-index", index_ok, str(written[0]))
        snap_trace = json.loads((snap_dir / "trace.json").read_text())
        problems = validate_chrome_trace(snap_trace)
        check("snapshot-trace-valid", not problems,
              "; ".join(problems))

    return {"ok": all(c["ok"] for c in checks), "checks": checks}
