"""Simulator-core benchmark — the BENCH_simcore.json source.

Measures the event-driven core against the legacy dict-based core:
cold vs warm columnar-trace builds through the artifact cache, the
equal-stats grid (every workload × pair scheme × value predictor, plus
one deterministic fault-injected point, must be bit-identical across
both cores), and a cold paper-grid sweep (jobs=1, warm traces and
pairs) timed under each core.  The CLI
equivalent, which CI runs and archives, is::

    python -m repro bench --skip-parallel

Run directly with ``pytest benchmarks/bench_simcore.py``.  The ≥4×
event-core speed-up gate applies at this module's scale (the committed
``BENCH_simcore.json`` scale); ``--smoke`` CLI runs only enforce the
correctness and cache gates.
"""

from repro.experiments.bench import (
    SIMCORE_SPEEDUP_TARGET,
    run_simcore_bench,
    write_simcore_report,
)

#: The committed-report scale: the full paper grid, large enough that
#: the hot loop, not fixed setup costs, dominates the sweep timing
#: (the speed-up gate is only meaningful at full scale).
SIMCORE_SCALE = 1.0


def test_simcore_bench_gates(tmp_path):
    report = run_simcore_bench(
        scale=SIMCORE_SCALE,
        cache_dir=tmp_path / "cache",
        enforce_speedup=True,
    )

    # Correctness: the cores agree on every grid point (including the
    # fault-injected leg) and on every sweep series.
    assert report["cores"] == ["legacy", "event"]
    assert report["equal_results"], report["equal_stats"]["mismatches"]
    eq = report["equal_stats"]
    assert eq["fault_injected_points"] >= 1
    assert eq["points"] == (
        len(report["workloads"])
        * len(report["policies"])
        * len(report["predictors"])
        + eq["fault_injected_points"]
    )

    # Cache: a warm columnar build is served entirely from the cache.
    cache = report["columns_cache"]
    assert cache["cold"]["puts"] > 0
    assert cache["warm"]["misses"] == 0
    assert cache["warm_hit_rate"] == 1.0

    # Throughput: the event core clears the speed-up target cold.
    sweep = report["sweep"]
    assert set(sweep["speedups"]) == {"event"}
    assert sweep["speedup"] >= SIMCORE_SPEEDUP_TARGET, sweep
    assert sweep["event"]["insts_per_sec"] > sweep["legacy"]["insts_per_sec"]
    assert report["ok"]

    out = write_simcore_report(report, tmp_path / "BENCH_simcore.json")
    assert out.is_file() and out.stat().st_size > 0
