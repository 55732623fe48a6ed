#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md by running every figure driver.

Usage: python scripts/generate_experiments.py [scale]
"""

from __future__ import annotations

import sys
import time

from repro.experiments.figures import ALL_FIGURES
from repro.experiments.report import render_checklist, run_shape_checks

HEADER = """# EXPERIMENTS — paper vs. reproduction

Every figure of the paper's evaluation (there are no numbered tables),
regenerated by `python scripts/generate_experiments.py` (also exposed as
one pytest-benchmark module per figure under `benchmarks/`), plus two
extension experiments (the [15]-style heuristic breakdown and a
profile-input-sensitivity study).

Absolute speed-ups are **not** expected to match: the workloads are
synthetic SpecInt95 analogues ~10^3x shorter than the originals (see
DESIGN.md §2), which shrinks threads and makes cold-start and live-in
crossing effects proportionally larger.  The comparison points are the
*shapes*: which policies win, which benchmarks are fragile, where the
crossovers fall.  The checklist below is computed from the regenerated
figures at generation time (see `repro/experiments/report.py`):

"""

STATIC_SECTIONS = """## Running the sweeps: parallelism, caching, resume

Every figure above can be reproduced through the parallel engine
(`repro exp`), which fans the figure's (workload x policy x config)
grid across worker processes and memoizes every derived artifact in a
content-addressed on-disk cache.  Copy-paste recipes:

```bash
# Full Figure 8 sweep on 4 workers, artifacts cached under .repro-cache:
python -m repro exp --fig 8 --jobs 4 --cache-dir .repro-cache

# The serial reference path (bit-identical output, same cache):
python -m repro exp --fig 8 --jobs 1 --cache-dir .repro-cache

# A long sweep you might have to kill: give it a checkpoint file.
# Re-running the same command resumes — completed points are skipped.
python -m repro exp --fig 12 --jobs 4 --cache-dir .repro-cache \\
    --checkpoint fig12.ckpt.json --verbose

# Pre-derive traces and pair tables, inspect, or empty the cache:
python -m repro cache warm --cache-dir .repro-cache
python -m repro cache stats --cache-dir .repro-cache
python -m repro cache clear --cache-dir .repro-cache --kind trace

# Measure it (writes BENCH_parallel.json: jobs=1 vs jobs=N wall-clock,
# cold vs warm cache, hit rates, and an equal-results check):
python -m repro bench --fig 8 --jobs 4
python -m repro bench --smoke --jobs 2      # the CI configuration

# Fault campaigns accept the same knobs:
python -m repro faults --smoke --jobs 4 --cache-dir .repro-cache
```

Guarantees worth knowing:

- `--jobs 1` and `--jobs N` produce **identical** figures.  `--jobs 1`
  runs every point in the calling process (the `serial` backend);
  parallel results seed the same figure drivers.  `repro bench` asserts
  this equality on every run.
- Cache keys hash the schema version, a digest of the artifact-producing
  source packages, and every configuration knob — editing the simulator
  invalidates exactly the artifacts it produced, automatically.
- Cache writes are atomic, so any number of workers (or concurrent
  sweeps) can share one `--cache-dir`.
- `--checkpoint` stores one JSON record per completed point; resuming
  replays recorded outcomes and only runs what is missing.  The
  checkpoint is orthogonal to the cache (results vs artifacts).

## Fault-injection methodology (extension)

Beyond the paper's figures, `repro faults` sweeps seeded hardware-fault
rates over the suite and reports the *degradation curve* — speed-up as a
function of fault rate (DESIGN.md §7 describes the models and the
graceful-degradation policy).  The campaign is fully deterministic: each
workload's fault seed is derived from the campaign seed
(`blake2b(seed:workload)`), so a report reproduces bit-for-bit.

```
$ python -m repro faults --smoke          # the CI configuration
Fault-injection campaign (seed 2002, scale 0.25, 16 TUs, policy profile)
  workload     rate 0  rate 0.05
        go       3.98       3.85
   m88ksim       2.19       2.16
       gcc       2.43       2.29
  compress       4.13       4.02
        li       1.93       1.15
     ijpeg       2.06       2.07
      perl       5.26       3.16
    vortex       4.56       5.80
totals: 849 faults injected, 16 threads degraded, 455 spawns retried, 0 spawns dropped, 15620 cycles lost
all gates passed
```

Three gates make the sweep CI-able (non-zero exit on violation):

1. **zero-rate identity** — the rate-0 run must be cycle-for-cycle equal
   to the pre-fault simulator (fault plumbing is free when inert);
2. **stream preservation** — every faulty run must commit exactly the
   sequential instruction stream (degradation changes timing, never
   results);
3. **completion** — every run finishes inside its wall-clock timeout and
   retry budget (the runner survives injected worker crashes;
   `--inject-crash workload@rate` demonstrates this end to end).

Reading the curve: spawn drops and forwarding delays mostly *slow*
spawning (li, perl lose the most — their speed-up rests on long spawn
chains), while an occasional run speeds up (vortex above): delaying or
dropping one spawn can steer the pair runtime toward a luckier schedule.
At these trace lengths a single 150-cycle blackout is a visible fraction
of the run, so per-workload noise is expected; the totals row and the
gates, not individual cells, are the regression signal.

"""

FOOTER_NOTES = """
## Reading notes

- `(paper: X)` annotations quote the number the paper states for the same
  aggregate, where it states one.
- The stride/FCM degradation is larger than the paper's ~30%: our threads
  are ~10x smaller, so a mispredicted live-in (typically produced at the
  very end of the parent, e.g. a bottom-of-loop induction update)
  serialises a larger fraction of each thread.  The hit *ratios* match.
- Figure 2's absolute counts scale with static program size (~100x
  smaller here); the per-benchmark ordering is the reproduced shape.
"""


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    results = {}
    sections = []
    for name, fn in ALL_FIGURES.items():
        start = time.time()
        results[name] = fn(scale)
        sys.stderr.write(f"{name} done in {time.time() - start:.1f}s\n")
        sections.append("```\n" + results[name].render() + "\n```\n")
    checklist = render_checklist(run_shape_checks(results))
    with open("EXPERIMENTS.md", "w") as fh:
        fh.write(HEADER)
        fh.write(checklist)
        fh.write("\n\n")
        fh.write("\n".join(sections))
        fh.write("\n")
        fh.write(STATIC_SECTIONS)
        fh.write(FOOTER_NOTES)
    sys.stderr.write("wrote EXPERIMENTS.md\n")


if __name__ == "__main__":
    main()
