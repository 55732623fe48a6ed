"""CLI smoke and behaviour tests."""

import pytest

from repro.cli import main, make_parser
from repro.dist.backend import backend_names
from repro.experiments.framework import policy_names
from repro.predictors import VALUE_PREDICTORS


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args([])

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["trace", "quake"])


class TestCommands:
    def test_workloads_lists_suite(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("go", "compress", "vortex"):
            assert name in out

    def test_trace_stats(self, capsys):
        assert main(["trace", "compress", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "dynamic length" in out
        assert "loop heads" in out

    def test_disasm_is_assembly(self, capsys):
        assert main(["disasm", "compress", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "halt" in out and "load" in out

    def test_pairs_and_save(self, capsys, tmp_path):
        path = tmp_path / "pairs.json"
        assert main([
            "pairs", "compress", "--scale", "0.1", "--save", str(path)
        ]) == 0
        out = capsys.readouterr().out
        assert "spawning points" in out
        assert path.exists()

    def test_simulate_reports_speedup(self, capsys):
        assert main(["simulate", "compress", "--scale", "0.1", "--tus", "4"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "cycles" in out

    def test_simulate_from_saved_pairs(self, capsys, tmp_path):
        path = tmp_path / "pairs.json"
        main(["pairs", "compress", "--scale", "0.1", "--save", str(path)])
        capsys.readouterr()
        assert main([
            "simulate", "compress", "--scale", "0.1", "--load", str(path)
        ]) == 0
        assert "speedup" in capsys.readouterr().out

    def test_simulate_heuristics_policy(self, capsys):
        assert main([
            "simulate", "compress", "--scale", "0.1",
            "--policy", "heuristics", "--vp", "stride",
        ]) == 0
        assert "speedup" in capsys.readouterr().out

    def test_timeline_renders_gantt(self, capsys):
        assert main([
            "timeline", "compress", "--scale", "0.1", "--tus", "4",
            "--width", "40",
        ]) == 0
        out = capsys.readouterr().out
        assert "TU00" in out and "=" in out

    def test_lint_clean_workload_exits_zero(self, capsys):
        assert main(["lint", "compress", "--scale", "0.1"]) == 0
        assert "diagnostics" in capsys.readouterr().out

    def test_lint_strict_mode_accepted(self, capsys):
        assert main(["lint", "ijpeg", "--scale", "0.1", "--strict"]) == 0

    def test_lint_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "dangling-target" in out and "dead-store" in out

    def test_lint_without_workload_is_usage_error(self, capsys):
        assert main(["lint"]) == 2

    def test_lint_unknown_ignore_rule_is_usage_error(self, capsys):
        assert main(["lint", "compress", "--ignore", "no-such-rule"]) == 2

    def test_validate_pairs_profile_policy(self, capsys):
        assert main(["validate-pairs", "compress", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "pairs checked" in out
        assert "0 rejected" in out

    def test_validate_pairs_rejects_corrupt_table(self, capsys, tmp_path):
        import json

        path = tmp_path / "pairs.json"
        main(["pairs", "compress", "--scale", "0.1", "--save", str(path)])
        capsys.readouterr()
        table = json.loads(path.read_text())
        table["pairs"][0]["cqip_pc"] = 10_000_000  # corrupt one entry
        path.write_text(json.dumps(table))
        assert main([
            "validate-pairs", "compress", "--scale", "0.1",
            "--load", str(path),
        ]) == 1
        assert "rejected" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["trace", "compress", "--out", "t.json"],
        ["metrics", "dump", "compress"],
        ["simulate", "compress"],
        ["timeline", "compress"],
        ["sanitize", "--smoke"],
        ["faults", "--smoke"],
        ["dashboard", "compress", "--snapshot", "snap"],
    ])
    def test_zero_thread_units_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--scale", "0.1", "--tus", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--tus: expected a positive integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command",
                             ["simulate", "validate-pairs", "analyze-deps"])
    @pytest.mark.parametrize("content", [None, "{nope", "[]", '{"version": 1}'])
    def test_unreadable_pair_table_is_usage_error(
        self, capsys, tmp_path, command, content
    ):
        path = tmp_path / "pairs.json"
        if content is not None:
            path.write_text(content)
        assert main([command, "compress", "--scale", "0.1",
                     "--load", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"{command}: cannot load pair table")

    def test_figure_unknown_name(self, capsys):
        assert main(["exp", "--fig", "figure99"]) == 2

    def test_figure_runs_tiny_scale(self, capsys):
        assert main(["exp", "--fig", "2", "--jobs", "1", "--scale", "0.1"]) == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_profile_renders_phases_and_hotspots(self, capsys):
        assert main(["profile", "compress", "--scale", "0.1",
                     "--top", "5"]) == 0
        out = capsys.readouterr().out
        for phase in ("trace_build", "pair_selection", "prime", "simulate",
                      "commit_check"):
            assert phase in out
        assert "column_build" not in out
        assert "top functions by cumulative time" in out
        assert "commit check" in out

    def test_profile_json_payload(self, capsys):
        import json

        assert main(["profile", "compress", "--scale", "0.1", "--json",
                     "--no-cprofile"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 4
        assert payload["ok"] is True
        assert payload["sim_core"] == "event"  # the default core
        assert set(payload["phases"]) == {
            "trace_build", "pair_selection", "prime", "simulate",
            "commit_check",
        }
        assert payload["hotspots"] == []  # --no-cprofile
        assert all(payload["commit_check"].values())
        assert payload["insts_per_sec"] > 0
        assert payload["wakeup_heap"]["events_processed"] > 0

    def test_profile_legacy_core(self, capsys):
        import json

        assert main(["profile", "compress", "--scale", "0.1", "--json",
                     "--no-cprofile", "--core", "legacy",
                     "--vp", "perfect"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sim_core"] == "legacy"
        assert payload["ok"] is True
        assert payload["wakeup_heap"] is None  # ticking core: no heap
        assert payload["stall_reasons"] == {}

    def test_cache_clear_rejects_unknown_kind(self, capsys, tmp_path):
        for kind in ("colums", "columns"):
            with pytest.raises(SystemExit) as info:
                main(["cache", "clear", "--kind", kind,
                      "--cache-dir", str(tmp_path / "cache")])
            assert info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_profile_rejects_removed_core(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["profile", "compress", "--core", "columnar"])
        assert info.value.code == 2

    def test_profile_event_core(self, capsys):
        import json

        assert main(["profile", "compress", "--scale", "0.1", "--json",
                     "--no-cprofile", "--core", "event"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sim_core"] == "event"
        assert payload["ok"] is True
        heap = payload["wakeup_heap"]
        assert heap["events_processed"] > 0
        assert heap["cycles_skipped"] >= 0
        assert set(heap["wakeups"]) == {
            "advance", "waiter", "park_poll", "sleeper",
        }
        assert payload["stall_reasons"]


class TestObservability:
    """trace export / metrics dump+diff / telemetry wiring."""

    def test_trace_without_workload_is_usage_error(self, capsys):
        assert main(["trace"]) == 2

    def test_trace_out_writes_valid_chrome_trace(self, capsys, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        out = tmp_path / "trace.json"
        assert main(["trace", "compress", "--scale", "0.1",
                     "--tus", "4", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "schema OK" in stdout
        chrome = json.loads(out.read_text())
        assert validate_chrome_trace(chrome) == []
        assert chrome["otherData"]["workload"] == "compress"

    def test_trace_smoke_writes_default_artifacts(
        self, capsys, tmp_path, monkeypatch
    ):
        import json

        monkeypatch.chdir(tmp_path)
        assert main(["trace", "--smoke", "--scale", "0.1"]) == 0
        assert (tmp_path / "trace.json").exists()
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["schema_version"] == 1
        assert "repro_sim_cycles_total" in metrics["metrics"]

    def test_trace_telemetry_writes_discoverable_dir(
        self, capsys, tmp_path
    ):
        from repro.obs import find_telemetry, read_manifests

        tele = tmp_path / "runs" / "t"
        assert main(["trace", "compress", "--scale", "0.1",
                     "--tus", "4", "--telemetry", str(tele)]) == 0
        assert "wrote telemetry" in capsys.readouterr().out
        assert (tele / "trace.json").exists()
        assert (tele / "events.jsonl").exists()
        manifest = read_manifests(tele)["trace_compress.manifest"]
        assert manifest["config"]["workload"] == "compress"
        assert manifest["extra"]["cycles"] > 0
        assert find_telemetry(tmp_path) == [tele]

    def test_metrics_dump_telemetry(self, capsys, tmp_path):
        from repro.obs import find_telemetry, read_manifests

        tele = tmp_path / "tele"
        assert main(["metrics", "dump", "compress", "--scale", "0.1",
                     "--tus", "4", "--format", "json",
                     "--telemetry", str(tele)]) == 0
        assert (tele / "metrics.json").exists()
        manifest = read_manifests(tele)["metrics_compress.manifest"]
        assert manifest["extra"]["format"] == "json"
        assert find_telemetry(tmp_path) == [tele]

    def test_dashboard_snapshot_bundle(self, capsys, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        snap = tmp_path / "snap"
        assert main(["dashboard", "compress", "--scale", "0.1",
                     "--tus", "4", "--telemetry", str(tmp_path),
                     "--snapshot", str(snap)]) == 0
        assert "wrote snapshot bundle" in capsys.readouterr().out
        trace = json.loads((snap / "trace.json").read_text())
        assert validate_chrome_trace(trace) == []
        assert "repro dashboard" in (snap / "index.html").read_text()

    def test_dashboard_bad_attach_is_usage_error(self, capsys, tmp_path):
        assert main(["dashboard", "--attach", str(tmp_path / "nope"),
                     "--snapshot", str(tmp_path / "s")]) == 2
        assert "dashboard:" in capsys.readouterr().err

    def test_metrics_dump_prometheus(self, capsys):
        assert main(["metrics", "dump", "compress", "--scale", "0.1",
                     "--tus", "4"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_sim_cycles_total counter" in out
        assert 'workload="compress"' in out

    def test_metrics_diff_exit_codes(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["metrics", "dump", "compress", "--scale", "0.1",
                     "--tus", "4", "--format", "json",
                     "--out", str(a)]) == 0
        assert main(["metrics", "dump", "compress", "--scale", "0.1",
                     "--tus", "4", "--vp", "perfect", "--format", "json",
                     "--out", str(b)]) == 0
        capsys.readouterr()
        assert main(["metrics", "diff", str(a), str(a)]) == 0
        assert "0 sample(s) changed" in capsys.readouterr().out
        assert main(["metrics", "diff", str(a), str(b)]) == 1
        assert "->" in capsys.readouterr().out

    def test_exp_telemetry_writes_manifests(self, capsys, tmp_path):
        from repro.experiments import framework
        from repro.obs import read_manifests

        tele = tmp_path / "tele"
        framework.clear_memos()
        try:
            assert main(["exp", "--fig", "figure3", "--scale", "0.1",
                         "--jobs", "1", "--telemetry", str(tele),
                         "--cache-dir", str(tmp_path / "cache")]) == 0
        finally:
            framework.clear_memos()
        manifests = read_manifests(tele)
        assert "sweep.manifest" in manifests
        points = [m for stem, m in manifests.items()
                  if stem != "sweep.manifest"]
        assert points and all(m["ok"] for m in points)

    def test_trace_metrics_and_dashboard_share_one_traced_run(
        self, capsys, tmp_path
    ):
        import json

        from repro.dashboard import DashboardData

        point = ["compress", "--scale", "0.1", "--tus", "4", "--vp", "stride"]
        out, snap = tmp_path / "trace.json", tmp_path / "trace-metrics.json"
        dump = tmp_path / "dump.json"
        assert main(["trace", *point, "--out", str(out),
                     "--metrics", str(snap)]) == 0
        assert main(["metrics", "dump", *point, "--format", "json",
                     "--out", str(dump)]) == 0
        data = DashboardData.collect(
            workload="compress", scale=0.1, thread_units=4,
            value_predictor="stride", telemetry=[str(tmp_path)],
        )
        assert json.loads(out.read_text()) == json.loads(
            json.dumps(data.trace)
        )
        collected = data.registry.snapshot().to_dict()
        assert json.loads(snap.read_text()) == collected
        assert json.loads(dump.read_text()) == collected


class TestSharedFlags:
    """Every command reads a shared flag's choices from one place."""

    @staticmethod
    def _options(option):
        import argparse

        found = []
        parsers = [("repro", make_parser())]
        while parsers:
            name, parser = parsers.pop()
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    parsers.extend(
                        (f"{name} {sub}", p)
                        for sub, p in action.choices.items()
                    )
                elif option in action.option_strings:
                    found.append((name, tuple(action.choices)))
        return found

    @pytest.mark.parametrize("option, names, count", [
        ("--vp", VALUE_PREDICTORS, 6),
        ("--backend", backend_names(), 2),
        ("--policy", tuple(policy_names()), 10),
    ])
    def test_choices_come_from_one_source(self, option, names, count):
        found = self._options(option)
        assert len(found) == count
        for command, choices in found:
            assert choices == names, command

    def test_config_accepts_exactly_the_value_predictors(self):
        from repro.cmt import ProcessorConfig
        from repro.predictors import make_value_predictor

        for name in VALUE_PREDICTORS:
            assert ProcessorConfig(value_predictor=name).value_predictor == name
            assert make_value_predictor(name).name == name
        for name in ("oracle", "Stride", ""):
            with pytest.raises(ValueError):
                ProcessorConfig(value_predictor=name)
            with pytest.raises(ValueError):
                make_value_predictor(name)
