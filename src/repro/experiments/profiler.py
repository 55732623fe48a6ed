"""Profiling harness for the simulator hot path (``repro profile``).

Times the four phases of one experiment point — trace build (execution
and columns, one pass), pair selection, value-predictor priming,
simulation — plus a commit-invariant check, and (optionally) runs the
simulation under :mod:`cProfile` to report the top functions by
cumulative time.  The JSON view (``--json``) lets a script attribute a
regression to a phase.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.cmt import ProcessorConfig, priming_sequence
from repro.cmt.stats import SimulationStats
from repro.workloads import load_trace

#: Phase keys, in execution order (render order too).
PHASES = ("trace_build", "pair_selection", "prime", "simulate", "commit_check")

#: Version of the ``repro profile --json`` report shape.  Bump on any
#: breaking change to :meth:`ProfileReport.to_dict`; consumers (external
#: tooling reading CI artifacts) key their parsing on it.  Version 2
#: added the ``wakeup_heap`` section and the ``stall_reasons`` histogram
#: (event core only; ``None``/empty for the legacy core).  Version 3
#: dropped the ``column_build`` phase: the executor builds the columns
#: inside ``trace_build``.  Version 4 added the ``prime`` phase (deriving
#: the value-predictor training sequence); ``simulate`` now covers its
#: replay plus the run.
PROFILE_SCHEMA_VERSION = 4


@dataclass
class ProfileReport:
    """Timings and hotspots of one profiled experiment point."""

    workload: str
    scale: float
    policy: str
    value_predictor: str
    sim_core: str
    #: phase name -> wall-clock seconds.
    phases: Dict[str, float] = field(default_factory=dict)
    #: Simulated instructions per wall-clock second of the simulate phase.
    insts_per_sec: float = 0.0
    #: Commit-invariant check results (all must be True).
    commit_check: Dict[str, bool] = field(default_factory=dict)
    #: Key counters of the simulated run.
    stats: Dict[str, Any] = field(default_factory=dict)
    #: Top functions by cumulative time (empty without ``with_profile``).
    hotspots: List[Dict[str, Any]] = field(default_factory=list)
    #: Event-core clock/wakeup accounting (``cycles_skipped``, clock
    #: jumps, heap wakeup breakdown, sleeping-poller counters); ``None``
    #: for the legacy core, which has no wakeup heap.
    wakeup_heap: Optional[Dict[str, Any]] = None
    #: Per-stall-reason histogram of the simulated run (event core
    #: only; empty for the legacy core).
    stall_reasons: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every commit invariant held."""
        return all(self.commit_check.values())

    def to_dict(self) -> Dict[str, Any]:
        """JSON view of the report.

        Returns:
            A JSON-serialisable dict (what the ``--json`` flag of
            ``repro profile`` prints).
        """
        return {
            "schema_version": PROFILE_SCHEMA_VERSION,
            "workload": self.workload,
            "scale": self.scale,
            "policy": self.policy,
            "value_predictor": self.value_predictor,
            "sim_core": self.sim_core,
            "phases": self.phases,
            "insts_per_sec": self.insts_per_sec,
            "commit_check": self.commit_check,
            "stats": self.stats,
            "hotspots": self.hotspots,
            "wakeup_heap": self.wakeup_heap,
            "stall_reasons": self.stall_reasons,
            "ok": self.ok,
        }

    def render(self) -> str:
        """Format the report for a terminal.

        Returns:
            The multi-line human-readable report (the default
            ``repro profile`` output).
        """
        lines = [
            f"{self.workload} (scale {self.scale}, {self.policy} pairs, "
            f"vp={self.value_predictor}, core={self.sim_core})"
        ]
        total = sum(self.phases.values())
        for phase in PHASES:
            if phase not in self.phases:
                continue
            seconds = self.phases[phase]
            share = seconds / total if total else 0.0
            lines.append(f"  {phase:15s} {seconds:8.4f}s  {share:6.1%}")
        lines.append(f"  {'total':15s} {total:8.4f}s")
        lines.append(
            f"simulated {self.stats.get('instructions', 0)} instructions "
            f"in {self.stats.get('cycles', 0)} cycles "
            f"({self.insts_per_sec:,.0f} insts/sec)"
        )
        checks = ", ".join(
            f"{name}={'ok' if passed else 'FAILED'}"
            for name, passed in self.commit_check.items()
        )
        lines.append(f"commit check: {checks}")
        heap = self.wakeup_heap
        if heap is not None:
            lines.append(
                f"wakeup heap: {heap['events_processed']} events "
                f"(+{heap['inline_advances']} inline), "
                f"{heap['cycles_skipped']} cycles skipped over "
                f"{heap['clock_jumps']} jumps (max {heap['max_jump']})"
            )
            wakeups = ", ".join(
                f"{name}={count}"
                for name, count in sorted(heap["wakeups"].items())
            )
            lines.append(
                f"  wakeups: {wakeups}; {heap['poller_sleeps']} poller "
                f"sleeps replayed {heap['replayed_polls']} polls"
            )
        if self.stall_reasons:
            stalls = ", ".join(
                f"{name}={count}"
                for name, count in sorted(self.stall_reasons.items())
            )
            lines.append(f"stall reasons: {stalls}")
        if self.hotspots:
            lines.append("top functions by cumulative time:")
            lines.append(
                f"  {'ncalls':>10s} {'tottime':>9s} {'cumtime':>9s}  function"
            )
            for entry in self.hotspots:
                lines.append(
                    f"  {entry['ncalls']:>10s} {entry['tottime']:9.4f} "
                    f"{entry['cumtime']:9.4f}  {entry['function']}"
                )
        return "\n".join(lines)


def _commit_check(trace, stats: SimulationStats) -> Dict[str, bool]:
    """Structural invariants every committed simulation must satisfy."""
    return {
        "all_instructions_committed": stats.instructions == len(trace),
        "thread_sizes_sum": sum(stats.thread_sizes) == stats.instructions,
        "threads_counted": stats.threads_committed == len(stats.thread_sizes),
    }


def _top_functions(profile: cProfile.Profile, top: int) -> List[Dict[str, Any]]:
    """Extract the ``top`` entries by cumulative time from a profile."""
    stats = pstats.Stats(profile)
    stats.sort_stats("cumulative")
    entries: List[Dict[str, Any]] = []
    for func in stats.fcn_list[:top]:  # type: ignore[attr-defined]
        cc, nc, tt, ct, _ = stats.stats[func]  # type: ignore[attr-defined]
        filename, lineno, name = func
        if filename.startswith("~"):
            where = name
        else:
            short = filename.rsplit("/", 1)[-1]
            where = f"{short}:{lineno}({name})"
        ncalls = str(nc) if nc == cc else f"{nc}/{cc}"
        entries.append(
            {
                "function": where,
                "ncalls": ncalls,
                "tottime": round(tt, 4),
                "cumtime": round(ct, 4),
            }
        )
    return entries


def profile_run(
    workload: str,
    scale: float = 0.3,
    policy: str = "profile",
    value_predictor: str = "stride",
    sim_core: str = "event",
    top: int = 15,
    with_profile: bool = True,
    config: Optional[ProcessorConfig] = None,
) -> ProfileReport:
    """Profile one experiment point phase by phase.

    On the event core, the ``prime`` phase derives the value-predictor
    training sequence (:func:`~repro.cmt.processor.priming_sequence`)
    and the simulation replays it, so ``simulate`` and
    ``insts_per_sec`` cover the replay plus the run.  The legacy core's
    oracle primes inside the simulation, so its ``prime`` phase reads
    0.0; so does a run that primes no table predictor.

    Args:
        workload: Workload name.
        scale: Workload size multiplier.
        policy: Spawning policy (see
            :func:`repro.experiments.framework.policy_names`).
        value_predictor: Live-in value predictor of the simulated run.
        sim_core: ``event`` or ``legacy``.
        top: How many functions to keep in the hotspot list.
        with_profile: Run the simulate phase under :mod:`cProfile`
            (skipping it removes the profiler's overhead from the phase
            timings).
        config: Base processor configuration (None = defaults).

    Returns:
        The point's :class:`ProfileReport`.
    """
    from repro.experiments import framework

    report = ProfileReport(
        workload=workload,
        scale=scale,
        policy=policy,
        value_predictor=value_predictor,
        sim_core=sim_core,
    )

    start = time.perf_counter()
    trace = load_trace(workload, scale)
    report.phases["trace_build"] = round(time.perf_counter() - start, 4)

    builder = framework._POLICIES[policy]
    start = time.perf_counter()
    pairs = builder(trace)
    report.phases["pair_selection"] = round(time.perf_counter() - start, 4)

    run_config = (config or framework.EXPERIMENT_CONFIG).with_(
        value_predictor=value_predictor, sim_core=sim_core
    )
    from repro.cmt.processor import ClusteredProcessor

    training = None
    start = time.perf_counter()
    if run_config.primes_predictor and sim_core == "event":
        training = priming_sequence(trace, pairs, run_config)
    report.phases["prime"] = round(time.perf_counter() - start, 4)

    profiler = cProfile.Profile() if with_profile else None
    start = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    proc = ClusteredProcessor(trace, pairs, run_config, training=training)
    stats = proc.run()
    if profiler is not None:
        profiler.disable()
    seconds = time.perf_counter() - start
    report.phases["simulate"] = round(seconds, 4)
    report.insts_per_sec = round(stats.instructions / seconds) if seconds else 0.0

    start = time.perf_counter()
    report.commit_check = _commit_check(trace, stats)
    report.phases["commit_check"] = round(time.perf_counter() - start, 4)

    report.stats = stats.summary()
    metrics = proc.event_metrics
    if metrics is not None:
        report.wakeup_heap = {
            key: metrics[key]
            for key in (
                "events_processed",
                "inline_advances",
                "cycles_skipped",
                "clock_jumps",
                "max_jump",
                "wakeups",
                "poller_sleeps",
                "replayed_polls",
            )
        }
        report.stall_reasons = dict(metrics["stalls"])
    if profiler is not None:
        report.hotspots = _top_functions(profiler, top)
    return report
