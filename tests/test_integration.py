"""End-to-end integration: profile -> select -> simulate -> compare."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cmt import ProcessorConfig, simulate, single_thread_cycles
from repro.exec import run_program
from repro.profiling import ControlFlowGraph, prune_cfg
from repro.profiling.reaching import EmpiricalReachingProfile
from repro.spawning import heuristic_pairs, select_profile_pairs
from repro.workloads import build_workload


class TestFullPipeline:
    def test_trace_to_speedup(self):
        trace = run_program(build_workload("ijpeg", 0.25))
        pairs = select_profile_pairs(trace)
        assert len(pairs) > 0
        base = single_thread_cycles(trace, ProcessorConfig())
        stats = simulate(trace, pairs, ProcessorConfig())
        assert base / stats.cycles > 1.5
        assert stats.instructions == len(trace)

    def test_profile_artifacts_consistent(self):
        trace = run_program(build_workload("vortex", 0.2))
        cfg = ControlFlowGraph.from_trace(trace)
        pruned = prune_cfg(cfg, 0.99)
        profile = EmpiricalReachingProfile(cfg)
        pairs = select_profile_pairs(trace)
        by_pc = cfg.by_pc
        for pair in pairs.all_pairs():
            if pair.kind.value != "profile":
                continue
            s = by_pc[pair.sp_pc]
            d = by_pc[pair.cqip_pc]
            assert s in pruned.kept and d in pruned.kept
            assert profile.prob[s][d] == pytest.approx(
                pair.reach_probability
            )

    def test_policies_comparable_on_same_trace(self):
        trace = run_program(build_workload("go", 0.2))
        config = ProcessorConfig()
        profile_stats = simulate(trace, select_profile_pairs(trace), config)
        heur_stats = simulate(trace, heuristic_pairs(trace), config)
        # both must complete the same work
        assert profile_stats.instructions == heur_stats.instructions
        # and on go (branchy, irregular) the profile policy should win,
        # which is the paper's headline claim
        assert profile_stats.cycles <= heur_stats.cycles * 1.05

    def test_value_prediction_sandwich(self):
        """perfect <= stride-driven <= no-prediction cycles."""
        trace = run_program(build_workload("m88ksim", 0.25))
        pairs = select_profile_pairs(trace)
        cycles = {
            vp: simulate(
                trace, pairs, ProcessorConfig(value_predictor=vp)
            ).cycles
            for vp in ("perfect", "stride", "none")
        }
        assert cycles["perfect"] <= cycles["stride"] * 1.02
        assert cycles["stride"] <= cycles["none"] * 1.10


class TestRunPathsWithoutNumpy:
    def test_cli_serve_selection_and_simulation_import_no_numpy(self):
        # numpy is a dev dependency: only the Markov ablation needs it.
        # A fresh interpreter, so no other test's import counts.
        script = (
            "import sys\n"
            "import repro.cli\n"
            "import repro.serve.server\n"
            "from repro.experiments import framework\n"
            "from repro.workloads import load_trace\n"
            "trace = load_trace('compress', 0.05)\n"
            "for policy in ('profile', 'heuristics'):\n"
            "    assert len(framework.policy_builder(policy)(trace))\n"
            "framework.simulate_point(\n"
            "    'compress', 'profile', 0.05, {'value_predictor': 'stride'})\n"
            "print('numpy' in sys.modules)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        run = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=env, timeout=120, check=True,
        )
        assert run.stdout.strip() == "False"
