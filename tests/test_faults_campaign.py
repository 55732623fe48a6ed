"""Fault-campaign tests: gates, resume, crash survival, CLI wiring."""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.faults.campaign import (
    CampaignSpec,
    run_campaign,
    run_key,
    workload_seed,
)

#: Two-workload spec small enough for unit tests.
SPEC = CampaignSpec(
    workloads=("compress", "ijpeg"),
    rates=(0.0, 0.05),
    seed=2002,
    scale=0.2,
    timeout=60.0,
    retries=1,
    backoff=0.0,
)


class TestSeeding:
    def test_run_key_stable(self):
        assert run_key("compress", 0.05) == "compress@0.05"
        assert run_key("compress", 0.0) == "compress@0"

    def test_workload_seed_deterministic_and_distinct(self):
        assert workload_seed(2002, "compress") == workload_seed(2002, "compress")
        assert workload_seed(2002, "compress") != workload_seed(2002, "ijpeg")
        assert workload_seed(2002, "compress") != workload_seed(2003, "compress")


class TestCampaign:
    def test_gates_pass_and_counters_fire(self):
        result = run_campaign(SPEC)
        assert result.ok, result.failures()
        # zero-rate runs match the faultless reference exactly
        for workload in SPEC.workloads:
            value = result.outcomes[run_key(workload, 0.0)].value
            assert value["cycles"] == result.reference[workload]["faultless_cycles"]
        # faulty runs injected something somewhere
        total = sum(
            result.outcomes[run_key(w, 0.05)].value["faults_injected"]
            for w in SPEC.workloads
        )
        assert total > 0

    def test_same_seed_reproducible(self):
        a, b = run_campaign(SPEC), run_campaign(SPEC)
        for key in a.outcomes:
            assert a.outcomes[key].value == b.outcomes[key].value

    def test_injected_crash_survived_via_retry(self):
        crash_key = run_key("compress", 0.05)
        result = run_campaign(SPEC, crash_keys=(crash_key,))
        assert result.ok, result.failures()
        assert result.outcomes[crash_key].attempts == 2

    @pytest.mark.parametrize("backend", [None, "serial", "process"])
    def test_crash_budget_is_scoped_to_one_campaign(self, backend):
        spec = CampaignSpec(
            workloads=("compress",), rates=(0.05,), scale=0.2,
            retries=1, backoff=0.0,
        )
        crash_key = run_key("compress", 0.05)
        for _ in range(2):  # the second campaign must crash anew
            result = run_campaign(
                spec, crash_keys=(crash_key,), backend=backend
            )
            assert result.ok, result.failures()
            assert result.outcomes[crash_key].attempts == 2

    def test_parallel_outcomes_equal_serial(self):
        serial = run_campaign(SPEC)
        parallel = run_campaign(SPEC, jobs=2)
        assert list(parallel.outcomes) == list(serial.outcomes)
        for key, outcome in serial.outcomes.items():
            assert parallel.outcomes[key].value == outcome.value

    def test_crash_beyond_retry_budget_fails_gate(self):
        spec = CampaignSpec(
            workloads=("compress",), rates=(0.0,), scale=0.2,
            retries=0, backoff=0.0,
        )
        result = run_campaign(spec, crash_keys=(run_key("compress", 0.0),))
        assert not result.ok
        assert any("injected worker crash" in p for p in result.failures())

    def test_resume_from_checkpoint(self, tmp_path):
        first = run_campaign(SPEC, cache_dir=str(tmp_path))
        assert first.resumed == 0

        # drop one run's artifact; a re-run must redo exactly that one
        dropped = first.outcomes[run_key("ijpeg", 0.05)].value
        artifacts = list((tmp_path / "point").iterdir())
        runs = len(SPEC.workloads) * len(SPEC.rates)
        # one artifact per run plus one reference point per workload
        assert len(artifacts) == runs + len(SPEC.workloads)
        for path in artifacts:
            if json.loads(path.read_text()) == dropped:
                path.unlink()
        second = run_campaign(SPEC, cache_dir=str(tmp_path))
        assert second.ok
        assert second.resumed == runs - 1
        for key in first.outcomes:
            assert second.outcomes[key].value == first.outcomes[key].value

    def test_checkpoint_of_another_seed_reruns(self, tmp_path):
        # Run keys carry no seed, but point artifacts are keyed on it: a
        # cache filled under one seed must not answer for another.
        spec = CampaignSpec(
            workloads=("compress",), rates=(0.05,), seed=1, scale=0.2,
            retries=1, backoff=0.0,
        )
        reseeded = dataclasses.replace(spec, seed=99)
        run_campaign(spec, cache_dir=str(tmp_path))
        second = run_campaign(reseeded, cache_dir=str(tmp_path))
        assert second.resumed == 0
        fresh = run_campaign(reseeded)
        key = run_key("compress", 0.05)
        assert second.outcomes[key].value == fresh.outcomes[key].value
        third = run_campaign(reseeded, cache_dir=str(tmp_path))
        assert third.resumed == 1

    def test_crash_key_shares_the_point_artifact(self, tmp_path):
        # An injected crash changes attempts, not the payload: the run
        # is stored once, and a plain campaign resumes it.
        spec = CampaignSpec(
            workloads=("compress",), rates=(0.0, 0.05), scale=0.1,
            retries=1, backoff=0.0,
        )
        crash_key = run_key("compress", 0.05)
        crashed = run_campaign(
            spec, crash_keys=(crash_key,), cache_dir=str(tmp_path)
        )
        assert crashed.outcomes[crash_key].attempts == 2
        plain = run_campaign(spec, cache_dir=str(tmp_path))
        assert plain.ok, plain.failures()
        assert plain.resumed == len(spec.rates)
        # one artifact per run plus the workload's reference point
        assert len(list((tmp_path / "point").iterdir())) == len(spec.rates) + 1

    def test_resumed_campaign_recomputes_no_reference(
        self, tmp_path, monkeypatch
    ):
        import functools

        from repro.experiments import framework
        from repro.faults import campaign

        spec = CampaignSpec.smoke()
        first = run_campaign(spec, cache_dir=str(tmp_path))
        framework.clear_memos()
        calls = []

        def counting(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapper

        # Every module attribute through which a campaign can build a
        # trace or run a simulation.
        for module in (framework, campaign):
            for attr in ("load_trace", "simulate"):
                if hasattr(module, attr):
                    monkeypatch.setattr(
                        module, attr, counting(getattr(module, attr))
                    )
        try:
            resumed = run_campaign(spec, cache_dir=str(tmp_path))
        finally:
            framework.clear_memos()
        assert calls == []
        assert resumed.ok, resumed.failures()
        assert resumed.resumed == len(spec.workloads) * len(spec.rates)
        assert resumed.reference == first.reference

    def test_render_mentions_gates(self):
        result = run_campaign(SPEC)
        text = result.render()
        assert "all gates passed" in text
        assert "compress" in text and "ijpeg" in text
        assert "rate 0.05" in text


class TestFaultsCli:
    ARGS = ["faults", "--workloads", "compress", "ijpeg",
            "--rates", "0.05", "--scale", "0.2"]

    def test_exit_zero_and_table(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "all gates passed" in out
        assert "rate 0" in out and "rate 0.05" in out

    def test_report_file(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        assert main(self.ARGS + ["--report", str(report)]) == 0
        data = json.loads(report.read_text())
        assert data["failures"] == []
        assert "compress@0.05" in data["outcomes"]

    def test_checkpoint_and_crash_survival(self, capsys, tmp_path):
        cache = ["--cache-dir", str(tmp_path)]
        assert main(self.ARGS + cache + [
            "--inject-crash", "compress@0.05",
        ]) == 0
        # the second invocation, without the crash, resumes every run
        # from the cache
        capsys.readouterr()
        assert main(self.ARGS + cache) == 0
        assert "resumed 4 runs from the cache" in capsys.readouterr().out

    def test_bad_rates_usage_error(self, capsys):
        assert main(["faults", "--rates", "fast"]) == 2


class TestStructuredErrorExit:
    def test_workload_error_exits_3(self, capsys):
        code = main(["trace", "compress", "--scale", "0.1", "--max-steps", "5"])
        assert code == 3
        err = capsys.readouterr().err
        assert "repro: error:" in err
        assert "did not halt" in err

    def test_cycle_budget_exit_3(self, capsys):
        code = main([
            "simulate", "compress", "--scale", "0.1", "--cycle-budget", "10"
        ])
        assert code == 3
        assert "cycle budget exceeded" in capsys.readouterr().err

    def test_simulate_with_faults_flag(self, capsys):
        assert main([
            "simulate", "ijpeg", "--scale", "0.2",
            "--fault-rate", "0.05", "--fault-seed", "7",
        ]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out
