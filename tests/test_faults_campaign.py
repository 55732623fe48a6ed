"""Fault-campaign tests: gates, resume, crash survival, CLI wiring."""

import json

import pytest

from repro.cli import main
from repro.experiments import SweepCheckpoint
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
        path = tmp_path / "campaign.json"
        first = run_campaign(SPEC, checkpoint=SweepCheckpoint(path))
        assert first.resumed == 0

        # drop one run; a re-run must redo exactly that one
        ckpt = SweepCheckpoint(path)
        ckpt.discard(run_key("ijpeg", 0.05))
        second = run_campaign(SPEC, checkpoint=ckpt)
        assert second.ok
        assert second.resumed == len(SPEC.workloads) * len(SPEC.rates) - 1
        for key in first.outcomes:
            assert second.outcomes[key].value == first.outcomes[key].value

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
        ckpt = tmp_path / "ckpt.json"
        assert main(self.ARGS + [
            "--checkpoint", str(ckpt),
            "--inject-crash", "compress@0.05",
        ]) == 0
        assert ckpt.exists()
        # second invocation resumes every run from the checkpoint
        capsys.readouterr()
        assert main(self.ARGS + ["--checkpoint", str(ckpt)]) == 0
        assert "resumed 4 runs from checkpoint" in capsys.readouterr().out

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
