"""Ablation benches for the design choices DESIGN.md calls out.

These sweeps are not paper figures; they quantify the modelling decisions
this reproduction had to make (spawn ordering enforcement, CFG coverage,
spawn/commit costs, branch-predictor organisation).
"""

from repro.cmt import ProcessorConfig, simulate, single_thread_cycles
from repro.metrics import harmonic_mean
from repro.spawning import ProfilePolicyConfig, select_profile_pairs
from repro.workloads import load_trace

from conftest import BENCH_SCALE

BENCHES = ("go", "compress", "ijpeg", "vortex")


def _suite_hmean(config, policy=None):
    speedups = []
    for name in BENCHES:
        trace = load_trace(name, BENCH_SCALE)
        pairs = select_profile_pairs(trace, policy)
        base = single_thread_cycles(trace, config)
        stats = simulate(trace, pairs, config)
        speedups.append(base / stats.cycles)
    return harmonic_mean(speedups)


def test_ablation_spawn_order_check(benchmark):
    """exact vs counter vs none ordering enforcement."""

    def sweep():
        return {
            mode: _suite_hmean(ProcessorConfig(spawn_order_check=mode))
            for mode in ("exact", "counter", "tail", "none")
        }

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for mode, value in result.items():
        print(f"  order_check={mode:8s} hmean speed-up {value:.2f}")
    # the oracle check can only help relative to ghost spawns
    assert result["exact"] >= result["none"] * 0.9


def test_ablation_cfg_coverage(benchmark):
    """The paper's 90% coverage vs the 99% this reproduction defaults to."""

    def sweep():
        out = {}
        for coverage in (0.9, 0.95, 0.99):
            policy = ProfilePolicyConfig(coverage=coverage)
            out[coverage] = _suite_hmean(ProcessorConfig(), policy)
        return out

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for coverage, value in result.items():
        print(f"  coverage={coverage:.2f} hmean speed-up {value:.2f}")
    assert result[0.99] > 0


def test_ablation_spawn_and_commit_costs(benchmark):
    """Zero-cost forks (paper potential study) vs charged forks."""

    def sweep():
        return {
            label: _suite_hmean(
                ProcessorConfig(spawn_cost=sc, commit_latency=cl)
            )
            for label, sc, cl in (
                ("free", 0, 0),
                ("cheap", 1, 1),
                ("costly", 4, 4),
            )
        }

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for label, value in result.items():
        print(f"  {label:7s} hmean speed-up {value:.2f}")
    assert result["free"] >= result["costly"] * 0.95


def test_ablation_branch_predictor(benchmark):
    """gshare (paper) vs bimodal under thread-fragmented streams."""

    def sweep():
        return {
            bp: _suite_hmean(ProcessorConfig(branch_predictor=bp))
            for bp in ("gshare", "bimodal")
        }

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for bp, value in result.items():
        print(f"  {bp:8s} hmean speed-up {value:.2f}")
    assert all(v > 0 for v in result.values())


def test_ablation_reaching_estimator(benchmark):
    """Empirical trace-scan vs the paper's Markov matrices for selection."""

    def sweep():
        out = {}
        for method in ("empirical", "markov"):
            policy = ProfilePolicyConfig(method=method)
            out[method] = _suite_hmean(ProcessorConfig(), policy)
        return out

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for method, value in result.items():
        print(f"  method={method:10s} hmean speed-up {value:.2f}")
    # the two estimators agree on which pairs matter, so performance
    # should land in the same band
    ratio = result["markov"] / result["empirical"]
    assert 0.5 < ratio < 2.0


def test_ablation_keep_loop_heads(benchmark):
    """Protecting loop-head blocks from the coverage cut."""

    def sweep():
        out = {}
        for flag in (False, True):
            policy = ProfilePolicyConfig(keep_loop_heads=flag)
            out[flag] = _suite_hmean(ProcessorConfig(), policy)
        return out

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for flag, value in result.items():
        print(f"  keep_loop_heads={flag!s:5s} hmean speed-up {value:.2f}")
    assert all(v > 0 for v in result.values())


def test_ablation_removal_footnotes(benchmark):
    """The paper's footnote variants of the removal policy: reviving
    removed pairs after a period, and treating 'a few co-active threads'
    as alone.  The paper reports both give very small changes."""

    def sweep():
        configs = {
            "plain_removal": ProcessorConfig(removal_cycles=50),
            "revival_500": ProcessorConfig(
                removal_cycles=50, removal_revival_cycles=500
            ),
            "coactive_3": ProcessorConfig(
                removal_cycles=50, removal_coactive_threshold=3
            ),
        }
        return {label: _suite_hmean(cfg) for label, cfg in configs.items()}

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for label, value in result.items():
        print(f"  {label:14s} hmean speed-up {value:.2f}")
    # the paper observed only small deltas from either variant
    base = result["plain_removal"]
    assert abs(result["revival_500"] - base) / base < 0.5


def test_ablation_memory_oracle(benchmark):
    """Quantifies the paper's choice to never predict memory values."""

    def sweep():
        return {
            label: _suite_hmean(ProcessorConfig(perfect_memory=flag))
            for label, flag in (("svc_forwarding", False), ("oracle", True))
        }

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for label, value in result.items():
        print(f"  {label:15s} hmean speed-up {value:.2f}")
    assert result["oracle"] >= result["svc_forwarding"] * 0.8
