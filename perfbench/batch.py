"""Batch workloads: one figure sweep per fresh interpreter.

The parent side (:func:`run_batch`) launches this file as a child
interpreter once per *unit* until the run's seconds are used up.  A unit
is one whole figure sweep through ``run_figure`` on the serial
``ParallelEngine``: set-up (imports plus the unit's cache directory),
then the timed sweep.  The child prints one JSON line; the parent
checks every output against the recorded expected values and reduces
the units to metrics.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import common

#: workload -> (figure driver, cache kinds pre-seeded from the warm base).
WORKLOADS = {
    "fig8_cold": ("figure8", ()),
    "fig9a_warm": ("figure9a", ("trace", "columns", "pairs")),
}

#: Longest a single unit may take before the run counts it as failed.
UNIT_TIMEOUT_S = 150.0


def link_tree(src: Path, dst: Path, kinds: Optional[tuple] = None) -> None:
    """Hard-link the artifact files of ``src`` into a new cache ``dst``.

    The artifact cache replaces files atomically and never writes into
    one in place, so linked files are safe to share between caches.
    """
    dst.mkdir(parents=True)
    for kind_dir in sorted(src.iterdir()):
        if not kind_dir.is_dir() or (kinds is not None and kind_dir.name not in kinds):
            continue
        (dst / kind_dir.name).mkdir()
        for entry in kind_dir.iterdir():
            os.link(entry, dst / kind_dir.name / entry.name)


# ----------------------------------------------------------------------
# Child side.
# ----------------------------------------------------------------------


def _timed_figure(figure: str, engine: Any) -> Dict[str, Any]:
    """Run one figure, stamping the start, each point's completion and the end."""
    from repro.experiments.engine import run_figure

    done: List[List[Any]] = []

    def progress(key: str, outcome: Any, resumed: bool) -> None:
        done.append([key, time.perf_counter(), outcome.ok, outcome.value])

    start = time.perf_counter()
    result = run_figure(figure, common.SCALE, engine, progress=progress)
    end = time.perf_counter()
    return {
        "start": start,
        "end": end,
        "done": done,
        "series": result.series,
        "summary": result.summary,
    }


def _on_clocks(leg: Dict[str, Any], clock: Any) -> Dict[str, Any]:
    """Report one figure leg in raw and nominal seconds from its start."""
    start, nominal_start = leg["start"], clock(leg["start"])
    return {
        "wall": leg["end"] - start,
        "wall_nominal": clock(leg["end"]) - nominal_start,
        "points": [
            [key, stamp - start, clock(stamp) - nominal_start, ok, value]
            for key, stamp, ok, value in leg["done"]
        ],
        "series": leg["series"],
        "summary": leg["summary"],
    }


def child_main(cfg: Dict[str, Any], probe: common.SpeedProbe, started: float) -> Dict[str, Any]:
    """One unit: set up, run the timed sweep, report.

    ``started`` is the ``perf_counter`` reading when the interpreter
    reached this file; the probe has been sampling since.
    """
    from repro.experiments import framework
    from repro.experiments.engine import ParallelEngine

    figure, kinds = cfg["figure"], tuple(cfg["kinds"])
    cache_dir = Path(cfg["cache_dir"])
    if kinds:
        link_tree(Path(cfg["base_dir"]), cache_dir, kinds)
    else:
        cache_dir.mkdir(parents=True)
    tracer = None
    if cfg["traced"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    ready, ready_perf = time.time(), time.perf_counter()

    engine = ParallelEngine(jobs=1, cache_dir=cache_dir)
    if tracer is not None:
        tracer.enabled = True
        root = tracer.begin("experiments.figure")
    sweep = _timed_figure(figure, engine)
    if tracer is not None:
        tracer.end(root)
        tracer.enabled = False

    with framework.use_cache(engine.cache):
        insts = {
            name: len(framework.trace_for(name, common.SCALE))
            for name in framework.suite(common.SCALE)
        }
    probe.stop()
    clock = probe.nominal_clock()
    layers = None
    if tracer is not None:
        nominal_spans = [span.remapped(clock) for span in tracer.spans]
        layers = spans.layer_report(nominal_spans, 0)
        Path(cfg["spans_out"]).write_text(
            json.dumps([span.to_dict() for span in tracer.spans])
        )
    return {
        "ready": ready,
        "speed": probe.speed(probe.samples),
        "setup_nominal": clock(ready_perf) - clock(started),
        "setup_unprobed": ready_perf - started,
        "sweep": _on_clocks(sweep, clock),
        "insts": insts,
        "layers": layers,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# ----------------------------------------------------------------------
# Parent side.
# ----------------------------------------------------------------------


def grid_insts(points: List[List[Any]], insts: Dict[str, int]) -> int:
    """Fixed numerator of ``sim_kips``: trace length summed over the grid.

    It counts each grid point once, whatever the number of ``simulate``
    calls the sweep needed, so removing redundant work raises the rate.
    """
    return sum(insts[key.split("|")[1]] for key, *_ in points)


def check_unit(
    out: Dict[str, Any], expected: Dict[str, Any], checker: common.Checker, tag: str
) -> None:
    """Compare one unit's outputs with the recorded expected values."""
    sweep = out["sweep"]
    keys = [key for key, *_ in sweep["points"]]
    checker.check(
        sorted(keys) == sorted(expected["points"]),
        f"{tag}: grid keys differ from the recorded grid",
    )
    for key, _, _, ok, value in sweep["points"]:
        checker.check(
            ok and value == expected["points"].get(key),
            f"{tag}: point {key} differs from the recorded payload",
        )
    checker.check(
        sweep["series"] == expected["series"]
        and sweep["summary"] == expected["summary"],
        f"{tag}: figure series differ from the recorded figure",
    )
    checker.check(
        out["insts"] == expected["insts"],
        f"{tag}: trace lengths differ from the recorded ones",
    )


def launch_unit(cfg: Dict[str, Any]) -> Dict[str, Any]:
    """Run one unit in a fresh interpreter; returns its report plus set-up."""
    launched = time.time()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), json.dumps(cfg)],
        env=common.child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=UNIT_TIMEOUT_S,
        cwd=str(common.ROOT),
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"unit exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - launched
    # The interpreter's start-up, before the probe ran, at the unit's speed.
    before_probe = out["setup_s"] - out["setup_unprobed"]
    out["setup_nominal"] += before_probe * out["speed"]
    return out


def run_batch(
    workload: str,
    seconds: float,
    trace: bool,
    run_dir: Path,
    base_dir: Optional[Path],
    checker: common.Checker,
) -> List[Dict[str, Any]]:
    """Run units until ``seconds`` have passed; return the unit reports.

    With ``trace`` the units alternate untraced and traced (at least one
    of each), so the tracing overhead is measured within the run.
    """
    figure, kinds = WORKLOADS[workload]
    expected = common.load_expected(figure)
    units: List[Dict[str, Any]] = []
    deadline = time.time() + seconds
    while len(units) < (2 if trace else 1) or time.time() < deadline:
        index = len(units)
        traced = trace and index % 2 == 1
        cfg = {
            "figure": figure,
            "kinds": kinds,
            "cache_dir": str(run_dir / f"unit{index}"),
            "base_dir": str(base_dir) if base_dir else None,
            "traced": traced,
            "spans_out": str(common.WORK / f"spans-{workload}.json") if traced else None,
        }
        try:
            out = launch_unit(cfg)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            checker.check(False, f"unit {index}: {exc}")
            break
        finally:
            shutil.rmtree(run_dir / f"unit{index}", ignore_errors=True)
        out["traced"] = traced
        check_unit(out, expected, checker, f"unit {index}")
        units.append(out)
    return units


def e2e_metrics(units: List[Dict[str, Any]], nominal: bool = True) -> Dict[str, float]:
    """End-to-end metrics of untraced units: medians over the units.

    ``nominal`` selects times at nominal host speed (the reported
    values) or the raw wall times (printed beside them for reference).
    """
    col = 2 if nominal else 1
    wall = "wall_nominal" if nominal else "wall"
    rows = []
    for out in units:
        sweep = out["sweep"]
        done = [point[col] for point in sweep["points"]]
        rows.append({
            "sim_kips": grid_insts(sweep["points"], out["insts"]) / sweep[wall] / 1000.0,
            # A sweep's points are the whole population, all due at its start.
            "job_p50_ms": common.percentile(done, 50) * 1000.0,
            "job_p90_ms": common.percentile(done, 90) * 1000.0,
            "peak_rss_mb": out["rss_mb"],
            "setup_s": out["setup_nominal" if nominal else "setup_s"],
        })
    return {name: common.median([row[name] for row in rows]) for name in rows[0]}


#: Per-layer counts that must repeat exactly between traced units.
EXACT_COUNTS = (
    "workloads.traces",
    "workloads.kinsts",
    "exec.columns_built",
    "spawning.selections",
    "spawning.pairs",
    "cmt.sims",
    "cmt.kinsts",
    "cmt.cycles",
    "cache.misses",
    "cache.puts",
    "experiments.points",
)


def layer_metrics(
    units: List[Dict[str, Any]], checker: common.Checker
) -> Dict[str, float]:
    """Per-layer values of a traced run: medians over its traced units."""
    traced = [out for out in units if out["traced"]]
    plain = [out for out in units if not out["traced"]]
    layers = [out["layers"] for out in traced]
    first = layers[0]
    for other in layers[1:]:
        for name in EXACT_COUNTS:
            checker.check(
                other[name] == first[name],
                f"layer count {name} differs between traced units",
            )
    values = {
        name: common.median([layer[name] for layer in layers])
        for name in first
        if name not in ("other_s", "root_s")
    }
    values["trace.other_pct"] = common.median(
        [100.0 * layer["other_s"] / layer["root_s"] for layer in layers]
    )
    traced_wall = common.median([out["sweep"]["wall_nominal"] for out in traced])
    plain_wall = common.median([out["sweep"]["wall_nominal"] for out in plain])
    values["trace.overhead_pct"] = 100.0 * (traced_wall / plain_wall - 1.0)
    return values


if __name__ == "__main__":
    _started = time.perf_counter()
    _probe = common.SpeedProbe(time.perf_counter)
    _probe.start()
    try:
        print(json.dumps(child_main(json.loads(sys.argv[1]), _probe, _started)))
    finally:
        _probe.stop()
