"""Benchmark-harness configuration.

Each module regenerates one figure of the paper.  ``BENCH_SCALE`` shrinks
the workloads so the full harness completes in minutes; run
``python scripts/generate_experiments.py`` for the full-scale sweep that
produces EXPERIMENTS.md.

``bench_simcore.py`` is the odd one out: it regenerates no figure but
gates the event simulator core against the legacy oracle at full scale
(equal stats, at least 4x faster); CI runs it on its own.  The repo's
performance benchmark is ``perfbench/`` (see docs/benchmarks.md).

Reduced scale perturbs per-benchmark results in a paper-faithful way:
loops whose trip counts shrink below ~20 fall under the profile policy's
0.95 reaching-probability threshold (e.g. ijpeg's block loop at 0.3x has
p = 9/10 per iteration), so the profile policy legitimately rejects their
iteration pairs while the structural heuristics still spawn them.  Bench
assertions therefore check scale-robust shapes; magnitude claims live in
EXPERIMENTS.md.
"""

BENCH_SCALE = 0.3


def run_figure(benchmark, figure_fn):
    """Benchmark one figure driver and print its rendered series."""
    result = benchmark.pedantic(
        figure_fn, args=(BENCH_SCALE,), rounds=1, iterations=1
    )
    print()
    print(result.render())
    return result
