#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md by running every figure driver.

Usage: python scripts/generate_experiments.py [scale] [--check]

With ``--check`` the file is regenerated in memory and compared with
the committed EXPERIMENTS.md: any difference is printed as a unified
diff and the script exits 1 (0 when they are equal).
"""

from __future__ import annotations

import argparse
import difflib
import sys
import time
from pathlib import Path

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

# Pre-derive traces and pair tables, inspect, or empty the cache:
python -m repro cache warm --cache-dir .repro-cache
python -m repro cache stats --cache-dir .repro-cache
python -m repro cache clear --cache-dir .repro-cache --kind trace

# Time it: the repo benchmark runs a cold Figure 8 sweep and a warm
# Figure 9a sweep end to end (see docs/benchmarks.md):
python3 perfbench/run.py --workload fig8_cold

# Fault campaigns accept the same knobs:
python -m repro faults --smoke --jobs 4 --cache-dir .repro-cache
```

Guarantees worth knowing:

- `--jobs 1` and `--jobs N` produce **identical** figures.  `--jobs 1`
  runs every point in the calling process (the `serial` backend); either
  way the figure driver reads the recorded point payloads of the runs
  its figure declares in `figures.RUNS`.
  `tests/test_engine.py::TestEquivalence` asserts this equality, cold
  and warm.
- Cache keys hash the schema version, a digest of the artifact-producing
  source packages, and every configuration knob — editing the simulator
  invalidates exactly the artifacts it produced, automatically.
- Cache writes are atomic, so any number of workers (or concurrent
  sweeps) can share one `--cache-dir`.  An artifact that does not
  decode (torn by a crash) counts as a miss and is rebuilt.
- A killed sweep resumes from the cache: re-running the same command
  serves every completed point from its stored payload (`--verbose`
  marks it `resumed`) and runs only what is missing.

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


#: The file this script writes, at the root of the checkout.
EXPERIMENTS = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"


def render(scale: float) -> str:
    """Run every figure driver at ``scale`` and return the file's text."""
    results = {}
    sections = []
    for name, fn in ALL_FIGURES.items():
        start = time.time()
        results[name] = fn(scale)
        sys.stderr.write(f"{name} done in {time.time() - start:.1f}s\n")
        sections.append("```\n" + results[name].render() + "\n```\n")
    checklist = render_checklist(run_shape_checks(results))
    return "".join(
        [
            HEADER,
            checklist,
            "\n\n",
            "\n".join(sections),
            "\n",
            STATIC_SECTIONS,
            FOOTER_NOTES,
        ]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "scale", nargs="?", type=float, default=1.0,
        help="workload scale of every figure (default 1.0)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare with EXPERIMENTS.md instead of writing it; "
        "exit 1 on any difference",
    )
    args = parser.parse_args(argv)
    text = render(args.scale)
    if args.check:
        committed = EXPERIMENTS.read_text() if EXPERIMENTS.exists() else ""
        if committed == text:
            sys.stderr.write("EXPERIMENTS.md is up to date\n")
            return 0
        sys.stdout.writelines(
            difflib.unified_diff(
                committed.splitlines(keepends=True),
                text.splitlines(keepends=True),
                "EXPERIMENTS.md (committed)",
                "EXPERIMENTS.md (regenerated)",
            )
        )
        sys.stderr.write("EXPERIMENTS.md is stale: regenerate it\n")
        return 1
    EXPERIMENTS.write_text(text)
    sys.stderr.write("wrote EXPERIMENTS.md\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
