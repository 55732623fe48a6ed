"""Benchmark entry point: one workload, one run, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig8_cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --record      # re-record the expected outputs

Workloads: ``fig8_cold`` and ``fig9a_warm`` (figure sweeps, see
``batch.py``) and ``serve_mix`` (the HTTP daemon, see ``serve_mix.py``).
With ``--trace 0`` the result carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics, named with their units in
``BENCHMARK.json`` (``metric_map.json`` says what each one means and
which end-to-end metric it should move).  The last line
of standard output is the result; the line before it is the run's
provenance.  The exit code is 0 only when every output was correct.

Built artifacts (the warm base caches, one per program version) and the
working space of each run live under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, Tuple

import common

WORKLOADS = ("fig8_cold", "fig9a_warm", "serve_mix")


def declared_metrics(kind: str) -> Dict[str, str]:
    """``name -> unit`` of the ``end_to_end`` or ``per_layer`` metrics
    that BENCHMARK.json declares."""
    bench = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in bench[kind]}


def run_child(args: list) -> None:
    """Run one Python child in the checkout; raise on failure.

    Building in a child keeps this process small: its size is a floor
    under the peak RSS the kernel reports for every later child.
    """
    proc = subprocess.run(
        [sys.executable, *args],
        env=common.child_env(),
        cwd=str(common.ROOT),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} failed: {proc.stderr[-2000:]}")


def base_cache(name: str) -> Path:
    """A warm base cache of this program version, built once per checkout.

    ``warm`` holds every trace, column set and pair set at the figure
    scale (``repro cache warm``).  ``serve`` holds the same at the serve
    scale plus the points and baselines of one ``ParallelEngine`` sweep
    over :func:`serve_mix.prior_configs`, whose points the mix repeats.
    """
    from repro.cache import generator_version

    scale = common.SERVE_SCALE if name == "serve" else common.SCALE
    top = common.WORK / "base" / f"{name}-{generator_version()}-scale{scale}"
    if (top / "READY").exists():
        return top / "cache"
    tmp = top.parent / f"tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        cache = str(tmp / "cache")
        run_child(["-m", "repro", "cache", "warm", "--cache-dir", cache, "--scale", str(scale)])
        if name == "serve":
            run_child([str(Path(__file__).with_name("serve_mix.py")), cache])
        (tmp / "READY").write_text("")
        try:
            os.rename(tmp, top)
        except OSError:
            if not (top / "READY").exists():
                raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return top / "cache"


def run_workload(
    workload: str, seed: int, seconds: int, trace: bool, checker: common.Checker
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Run one workload; returns the reported metrics and the raw ones.

    The raw values are the end-to-end times before the host-speed
    correction (empty for a traced run).
    """
    import batch
    import serve_mix

    run_dir = common.WORK / "runs" / f"{workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if workload == "serve_mix":
            obs = serve_mix.run_serve(seed, seconds, run_dir, base_cache("serve"), checker)
            if trace:
                return serve_mix.layer_metrics(obs), {}
            return serve_mix.e2e_metrics(obs), serve_mix.e2e_metrics(obs, nominal=False)
        base = base_cache("warm") if batch.WORKLOADS[workload][1] else None
        units = batch.run_batch(workload, seconds, trace, run_dir, base, checker)
        if trace:
            return batch.layer_metrics(units, checker), {}
        plain = [unit for unit in units if not unit["traced"]]
        return batch.e2e_metrics(plain), batch.e2e_metrics(plain, nominal=False)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def record() -> int:
    """Record the expected outputs of every workload at this commit."""
    import batch
    import serve_mix
    from repro.experiments.engine import ParallelEngine, Point

    run_dir = common.WORK / "runs" / f"record-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        for figure, _ in batch.WORKLOADS.values():
            out = batch.launch_unit({
                "figure": figure,
                "kinds": (),
                "cache_dir": str(run_dir / figure),
                "base_dir": None,
                "traced": False,
            })
            shutil.rmtree(run_dir / figure, ignore_errors=True)
            sweep = out["sweep"]
            common.write_expected(figure, {
                "scale": common.SCALE,
                "insts": out["insts"],
                "points": {key: value for key, _, _, _, value in sweep["points"]},
                "series": sweep["series"],
                "summary": sweep["summary"],
            })
            print(f"recorded {figure}: {len(sweep['points'])} points", file=sys.stderr)
        from repro.workloads import load_trace, workload_names

        insts = {name: len(load_trace(name, common.SERVE_SCALE)) for name in workload_names()}
        configs = serve_mix.all_configs()
        points = [
            Point(key=serve_mix.config_key(params), runner="simulate", params=params)
            for params in configs
        ]
        outcomes = ParallelEngine(jobs=2, cache_dir=run_dir / "serve").run(points)
        bad = [key for key, outcome in outcomes.items() if not outcome.ok]
        if bad:
            raise RuntimeError(f"serve configs failed while recording: {bad[:3]}")
        common.write_expected("serve", {
            "scale": common.SERVE_SCALE,
            "insts": insts,
            "payloads": {key: outcome.value for key, outcome in outcomes.items()},
        })
        print(f"recorded serve: {len(configs)} configs", file=sys.stderr)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    """Parse arguments, run one workload, print provenance and the result."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record the expected outputs and exit")
    args = parser.parse_args(argv)
    if not common.program_present():
        print(f"perfbench: no program to run: {common.SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")

    trace = bool(args.trace)
    checker = common.Checker()
    started = time.time()
    try:
        values, raw = run_workload(args.workload, args.seed, args.seconds, trace, checker)
    except Exception:
        checker.check(False, traceback.format_exc())
        values, raw = {}, {}
    declared = declared_metrics("per_layer" if trace else "end_to_end")
    metrics = {
        name: common.metric(values.get(name, 0.0), unit)
        for name, unit in declared.items()
    }
    if not trace and any(name not in values for name in declared):
        checker.check(False, "end-to-end metrics missing")
    for failure in checker.failures:
        print(f"perfbench: FAILED: {failure}", file=sys.stderr)
    stamp = common.provenance(args.workload, args.seed, args.seconds, trace)
    stamp["run_s"] = time.time() - started
    print(json.dumps({"provenance": stamp, "raw": raw}))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": max(checker.attempted, 1),
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
