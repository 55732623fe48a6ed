"""Dashboard tests: data payloads, HTTP endpoints, snapshot, attach."""

import json
import urllib.error
import urllib.request

import pytest

from repro.cmt import ProcessorConfig
from repro.dashboard import (
    DashboardApp,
    DashboardData,
    parse_prometheus,
    render_page,
    resolve_attach,
    write_snapshot,
)
from repro.dashboard.data import histogram_quantiles
from repro.obs import RunManifest, traced_run, validate_chrome_trace
from repro.spawning import select_profile_pairs


@pytest.fixture(scope="module")
def dash_source(small_traces):
    """One traced run, as DashboardData.collect's startup simulation."""
    trace = small_traces["compress"]
    config = ProcessorConfig(
        num_thread_units=8, value_predictor="stride",
        collect_timeline=True,
    )
    run = traced_run(
        trace, select_profile_pairs(trace), config,
        workload="compress", policy="profile", scale=0.2,
    )
    return run.chrome_trace(), run.events, run.metrics()


def make_data(dash_source, tmp_path, **overrides):
    trace, events, registry = dash_source
    RunManifest(
        name="fig8/compress", config={"workload": "compress"},
        seconds=1.5, extra={"note": "point"},
    ).write(tmp_path / "tele")
    (tmp_path / "tele" / "figure8.txt").write_text("art\n")
    kwargs = dict(
        events=events,
        telemetry=[tmp_path / "tele"],
        registry=registry,
        meta={"workload": "compress"},
    )
    kwargs.update(overrides)
    return DashboardData(trace, **kwargs)


def get(url, timeout=10.0):
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, resp.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


class TestPrometheusParsing:
    def test_samples_and_labels(self):
        text = (
            "# HELP repro_jobs_total jobs\n"
            "# TYPE repro_jobs_total counter\n"
            'repro_jobs_total{state="done"} 4\n'
            "repro_up 1\n"
            "garbage line without value\n"
        )
        samples = parse_prometheus(text)
        assert samples == [
            {"name": "repro_jobs_total", "labels": {"state": "done"},
             "value": 4.0},
            {"name": "repro_up", "labels": {}, "value": 1.0},
        ]

    def test_unescapes_label_values(self):
        samples = parse_prometheus(
            'x{path="a\\"b\\\\c"} 2.5\n'
        )
        assert samples[0]["labels"]["path"] == 'a"b\\c'
        assert samples[0]["value"] == 2.5


class TestHistogramQuantiles:
    def test_tiles_per_series(self, dash_source):
        _, _, registry = dash_source
        tiles = histogram_quantiles(registry)
        sizes = [
            t for t in tiles
            if t["name"] == "repro_sim_thread_size_insts"
        ]
        assert len(sizes) == 1
        tile = sizes[0]
        assert tile["labels"]["workload"] == "compress"
        assert tile["count"] > 0
        assert 0 <= tile["p50"] <= tile["p90"] <= tile["p99"]


class TestResolveAttach:
    def test_url_passthrough(self):
        assert resolve_attach("http://10.0.0.1:8642/") == (
            "http://10.0.0.1:8642"
        )

    def test_state_dir_and_endpoint_file(self, tmp_path):
        endpoint = tmp_path / "endpoint.json"
        endpoint.write_text(json.dumps(
            {"host": "127.0.0.1", "port": 8642, "pid": 1}
        ))
        assert resolve_attach(tmp_path) == "http://127.0.0.1:8642"
        assert resolve_attach(endpoint) == "http://127.0.0.1:8642"

    def test_host_port(self):
        assert resolve_attach("localhost:9000") == "http://localhost:9000"

    def test_garbage_raises(self, tmp_path):
        with pytest.raises(ValueError, match="neither"):
            resolve_attach(tmp_path / "nope")
        (tmp_path / "endpoint.json").write_text("not json")
        with pytest.raises(ValueError, match="bad endpoint file"):
            resolve_attach(tmp_path)


class TestPayloads:
    def test_trace_is_schema_valid(self, dash_source, tmp_path):
        data = make_data(dash_source, tmp_path)
        assert validate_chrome_trace(data.trace) == []

    def test_events_kind_prefix_and_thread_filter(
        self, dash_source, tmp_path
    ):
        data = make_data(dash_source, tmp_path)
        payload = data.events_payload(kind="thread")
        assert payload["filtered"] > 0
        assert all(
            e["kind"].startswith("thread") for e in payload["events"]
        )
        # Counts and the replay cross-check cover the whole stream.
        assert payload["total"] == len(data.events)
        assert sum(payload["counts"].values()) == payload["total"]
        assert payload["replay"]["threads_committed"] > 0
        one = data.events_payload(thread=0)
        assert all(e["thread"] == 0 for e in one["events"])
        capped = data.events_payload(limit=5)
        assert len(capped["events"]) == 5
        assert capped["filtered"] == capped["total"]

    def test_manifests_payload_lists_dirs_and_files(
        self, dash_source, tmp_path
    ):
        data = make_data(dash_source, tmp_path)
        payload = data.manifests_payload()
        assert len(payload["dirs"]) == 1
        entry = payload["dirs"][0]
        manifest = entry["manifests"]["fig8_compress.manifest"]
        assert manifest["seconds"] == 1.5
        assert [f["name"] for f in entry["files"]] == ["figure8.txt"]

    def test_metrics_payload_local(self, dash_source, tmp_path):
        data = make_data(dash_source, tmp_path)
        payload = data.metrics_payload()
        assert payload["source"] == "local"
        assert "repro_sim_cycles_total" in (
            payload["snapshot"]["metrics"]
        )
        assert payload["quantiles"]

    def test_metrics_payload_attach_unreachable(
        self, dash_source, tmp_path
    ):
        data = make_data(
            dash_source, tmp_path,
            attach_url="http://127.0.0.1:9",  # discard port: refused
        )
        payload = data.metrics_payload()
        assert payload["source"] == "attached"
        assert "error" in payload

    def test_collect_from_trace_file(self, dash_source, tmp_path):
        trace, events, _ = dash_source
        trace_path = tmp_path / "t.json"
        trace_path.write_text(json.dumps(trace))
        events_path = tmp_path / "e.jsonl"
        events_path.write_text(
            "\n".join(json.dumps(e.to_dict()) for e in events)
        )
        data = DashboardData.collect(
            trace_path=str(trace_path),
            events_path=str(events_path),
            telemetry=[str(tmp_path)],
        )
        assert validate_chrome_trace(data.trace) == []
        assert len(data.events) == len(events)
        assert data.meta["workload"] == "compress"

    def test_collect_bad_trace_file_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ValueError, match="cannot load trace"):
            DashboardData.collect(trace_path=str(bad))


class TestHttpEndpoints:
    @pytest.fixture()
    def app(self, dash_source, tmp_path):
        app = DashboardApp(make_data(dash_source, tmp_path), port=0)
        app.start()
        yield app
        app.stop()

    def test_index_serves_live_page(self, app):
        status, body = get(app.url + "/")
        assert status == 200
        assert "repro dashboard" in body
        assert "BOOTSTRAP = null" in body  # live mode fetches the API

    def test_healthz(self, app):
        status, body = get(app.url + "/healthz")
        health = json.loads(body)
        assert status == 200 and health["ok"] is True
        assert health["attached"] is False

    def test_trace_endpoint_is_schema_valid(self, app):
        status, body = get(app.url + "/api/trace")
        assert status == 200
        assert validate_chrome_trace(json.loads(body)) == []

    def test_events_endpoint_filters(self, app):
        status, body = get(
            app.url + "/api/events?kind=predict&limit=10"
        )
        payload = json.loads(body)
        assert status == 200
        assert len(payload["events"]) <= 10
        assert all(
            e["kind"].startswith("predict") for e in payload["events"]
        )

    def test_events_bad_query_is_400(self, app):
        status, body = get(app.url + "/api/events?thread=abc")
        assert status == 400
        assert "integers" in json.loads(body)["error"]

    def test_manifests_and_metrics_endpoints(self, app):
        status, body = get(app.url + "/api/manifests")
        assert status == 200
        assert json.loads(body)["dirs"]
        status, body = get(app.url + "/api/metrics")
        assert status == 200
        assert json.loads(body)["source"] == "local"

    def test_unknown_route_is_404(self, app):
        for path in ("/api/nope", "/etc/passwd", "/api/trace/x"):
            status, body = get(app.url + path)
            assert status == 404
            assert json.loads(body) == {"error": "unknown route"}


class TestSnapshot:
    def test_bundle_files_and_embedded_trace(
        self, dash_source, tmp_path
    ):
        data = make_data(dash_source, tmp_path)
        written = write_snapshot(data, tmp_path / "snap")
        assert [p.name for p in written] == [
            "index.html", "trace.json", "events.json",
            "manifests.json", "metrics.json",
        ]
        html = written[0].read_text()
        assert "__BOOTSTRAP__" not in html
        assert '"meta"' in html  # bootstrap object embedded
        trace = json.loads(written[1].read_text())
        assert validate_chrome_trace(trace) == []

    def test_render_page_escapes_script_close(self):
        html = render_page({"meta": {"x": "</script><b>"}})
        assert "</script><b>" not in html
        assert "<\\/script>" in html


class TestAttach:
    def test_metrics_panel_polls_serve_daemon(
        self, dash_source, tmp_path
    ):
        from repro.serve.server import ServeConfig, ServeDaemon

        daemon = ServeDaemon(ServeConfig(
            state_dir=tmp_path / "state", fsync=False, workers=1,
        ))
        daemon.start()
        try:
            data = make_data(
                dash_source, tmp_path,
                attach_url=resolve_attach(daemon.state_dir),
            )
            payload = data.metrics_payload()
            assert payload["source"] == "attached"
            names = {s["name"] for s in payload["samples"]}
            assert any(n.startswith("repro_serve") for n in names)
        finally:
            daemon.stop()
