"""Fault-injection campaigns: sweep fault rates, report degradation.

A campaign runs every requested workload at every fault rate through the
hardened experiment runner (per-run wall-clock timeout, bounded retry,
checkpoint/resume) and reports speed-up versus fault rate — the
"degradation curve" of each workload.  Two built-in gates make the
campaign CI-friendly, like ``repro lint``:

- the zero-rate run must be cycle-for-cycle identical to the faultless
  simulator (fault plumbing must not perturb a healthy machine);
- every faulty run must still commit exactly the sequential instruction
  stream (graceful degradation changes timing, never results).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.cmt import simulate
from repro.experiments.framework import (
    EXPERIMENT_CONFIG,
    ResilientOutcome,
    SweepCheckpoint,
    baseline_cycles,
    pair_set_for,
)
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultPlan
from repro.workloads import load_trace, workload_names


def run_key(workload: str, rate: float) -> str:
    """Return the stable checkpoint key of one (workload, rate) run."""
    return f"{workload}@{rate:g}"


def workload_seed(seed: int, workload: str) -> int:
    """Return the per-workload fault seed derived from the campaign seed."""
    digest = hashlib.blake2b(
        f"{seed}:{workload}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class CampaignSpec:
    """Parameters of one fault-injection campaign."""

    workloads: Tuple[str, ...]
    rates: Tuple[float, ...]
    seed: int = 2002
    scale: float = 1.0
    policy: str = "profile"
    thread_units: int = 16
    #: Per-run wall-clock limit in seconds (None = unbounded).
    timeout: Optional[float] = 120.0
    retries: int = 2
    backoff: float = 0.05
    #: In-simulator cycle budget for faulty runs, as a multiple of the
    #: workload's faultless cycle count (runaway guard).
    cycle_budget_factor: int = 50

    @classmethod
    def smoke(cls, seed: int = 2002) -> "CampaignSpec":
        """Return a small fixed-seed campaign spec for CI (all-model)."""
        return cls(
            workloads=tuple(workload_names()),
            rates=(0.0, 0.05),
            seed=seed,
            scale=0.25,
            timeout=60.0,
            retries=1,
        )


@dataclass
class CampaignResult:
    """Everything a campaign learned, renderable and JSON-serialisable."""

    spec: CampaignSpec
    #: workload -> {"sequential_cycles", "faultless_cycles"}.
    reference: Dict[str, Dict[str, int]] = field(default_factory=dict)
    outcomes: Dict[str, ResilientOutcome] = field(default_factory=dict)
    resumed: int = 0

    # ------------------------------------------------------------------
    # Gates.
    # ------------------------------------------------------------------

    def failures(self) -> List[str]:
        """Return the human-readable gate failures (empty = passed)."""
        problems: List[str] = []
        for workload in self.spec.workloads:
            for rate in self.spec.rates:
                key = run_key(workload, rate)
                outcome = self.outcomes.get(key)
                if outcome is None:
                    problems.append(f"{key}: missing run")
                    continue
                if not outcome.ok:
                    problems.append(
                        f"{key}: failed after {outcome.attempts} attempts "
                        f"({outcome.error_type}: {outcome.error})"
                    )
                    continue
                value = outcome.value or {}
                if not value.get("stream_ok", False):
                    problems.append(
                        f"{key}: committed stream diverged from the "
                        "sequential trace"
                    )
                if rate == 0.0:
                    faultless = self.reference[workload]["faultless_cycles"]
                    if value.get("cycles") != faultless:
                        problems.append(
                            f"{key}: zero-fault run took "
                            f"{value.get('cycles')} cycles, faultless "
                            f"simulator took {faultless}"
                        )
        return problems

    @property
    def ok(self) -> bool:
        """Whether every campaign gate passed."""
        return not self.failures()

    # ------------------------------------------------------------------
    # Reporting.
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Return the JSON report (spec, references, outcomes, gates)."""
        return {
            "spec": {
                "workloads": list(self.spec.workloads),
                "rates": list(self.spec.rates),
                "seed": self.spec.seed,
                "scale": self.spec.scale,
                "policy": self.spec.policy,
                "thread_units": self.spec.thread_units,
            },
            "reference": self.reference,
            "outcomes": {
                key: outcome.to_dict()
                for key, outcome in self.outcomes.items()
            },
            "resumed": self.resumed,
            "failures": self.failures(),
        }

    def render(self) -> str:
        """Return the ASCII degradation report (speed-up per rate)."""
        rates = list(self.spec.rates)
        lines = [
            "Fault-injection campaign "
            f"(seed {self.spec.seed}, scale {self.spec.scale}, "
            f"{self.spec.thread_units} TUs, policy {self.spec.policy})"
        ]
        header = f"{'workload':>10} " + " ".join(
            f"{f'rate {rate:g}':>10}" for rate in rates
        )
        lines.append(header)
        totals = {
            "faults_injected": 0,
            "threads_degraded": 0,
            "spawns_retried": 0,
            "spawns_dropped": 0,
            "fault_cycles_lost": 0,
        }
        for workload in self.spec.workloads:
            cells = []
            for rate in rates:
                outcome = self.outcomes.get(run_key(workload, rate))
                if outcome is None or not outcome.ok:
                    cells.append(f"{'FAIL':>10}")
                    continue
                value = outcome.value or {}
                cells.append(f"{value.get('speedup', 0.0):>10.2f}")
                for counter in totals:
                    totals[counter] += int(value.get(counter, 0))
            lines.append(f"{workload:>10} " + " ".join(cells))
        lines.append(
            f"totals: {totals['faults_injected']} faults injected, "
            f"{totals['threads_degraded']} threads degraded, "
            f"{totals['spawns_retried']} spawns retried, "
            f"{totals['spawns_dropped']} spawns dropped, "
            f"{totals['fault_cycles_lost']} cycles lost"
        )
        if self.resumed:
            lines.append(f"resumed {self.resumed} runs from checkpoint")
        failures = self.failures()
        if failures:
            lines.append("FAILURES:")
            lines.extend(f"  {problem}" for problem in failures)
        else:
            lines.append("all gates passed")
        return "\n".join(lines)


def _run_payload(spec: CampaignSpec, workload: str, rate: float,
                 sequential: int, faultless: int) -> Dict[str, Any]:
    """One campaign run: simulate under the rate's fault plan."""
    trace = load_trace(workload, spec.scale)
    pairs = pair_set_for(workload, spec.policy, spec.scale)
    config = EXPERIMENT_CONFIG.with_(
        num_thread_units=spec.thread_units,
        cycle_budget=max(faultless, 1) * spec.cycle_budget_factor,
    )
    plan = FaultPlan.uniform(rate, seed=workload_seed(spec.seed, workload))
    stats = simulate(trace, pairs, config, FaultInjector(plan))
    return {
        "cycles": stats.cycles,
        "speedup": round(sequential / stats.cycles, 4) if stats.cycles else 0.0,
        "stream_ok": sum(stats.thread_sizes) == len(trace),
        "faults_injected": stats.faults_injected,
        "tu_blackouts": stats.tu_blackouts,
        "threads_degraded": stats.threads_degraded,
        "spawns_retried": stats.spawns_retried,
        "spawns_dropped": stats.spawns_dropped,
        "liveins_corrupted": stats.liveins_corrupted,
        "forward_delays": stats.forward_delays,
        "fault_cycles_lost": stats.fault_cycles_lost,
    }


#: Crash keys whose injected crash already fired in this process; the
#: retry of a crashed attempt runs in the same process and proceeds.
#: :func:`run_campaign` clears it, so every campaign crashes anew on every
#: backend (pool and fleet workers start from the cleared state).
_CRASHED: Set[str] = set()


def run_point(
    spec_fields: Dict[str, Any],
    workload: str,
    rate: float,
    sequential: int,
    faultless: int,
    crash_key: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one campaign point from its pickle-safe engine params.

    Args:
        spec_fields: The campaign spec fields a point needs (seed,
            scale, policy, thread units, cycle-budget factor).
        workload: Workload name.
        rate: Fault rate of the run.
        sequential: Single-threaded reference cycles of the workload.
        faultless: Faultless multi-threaded reference cycles.
        crash_key: When set, the point's first attempt in this campaign
            raises an injected crash (resilience testing).

    Returns:
        The run's JSON payload (see :func:`_run_payload`).
    """
    if crash_key is not None and crash_key not in _CRASHED:
        _CRASHED.add(crash_key)
        raise RuntimeError(f"injected worker crash in {crash_key}")
    spec = CampaignSpec(
        workloads=(workload,),
        rates=(rate,),
        seed=int(spec_fields["seed"]),
        scale=float(spec_fields["scale"]),
        policy=str(spec_fields["policy"]),
        thread_units=int(spec_fields["thread_units"]),
        cycle_budget_factor=int(spec_fields["cycle_budget_factor"]),
    )
    return _run_payload(spec, workload, rate, sequential, faultless)


def _campaign_points(
    spec: CampaignSpec,
    reference: Dict[str, Dict[str, int]],
    crash_keys: Tuple[str, ...],
):
    """Pickle-safe engine points covering the campaign's sweep grid."""
    from repro.experiments.engine import Point

    spec_fields = {
        "seed": spec.seed,
        "scale": spec.scale,
        "policy": spec.policy,
        "thread_units": spec.thread_units,
        "cycle_budget_factor": spec.cycle_budget_factor,
    }
    points = []
    for workload in spec.workloads:
        for rate in spec.rates:
            key = run_key(workload, rate)
            points.append(
                Point(
                    key=key,
                    runner="campaign",
                    params={
                        "spec_fields": spec_fields,
                        "workload": workload,
                        "rate": rate,
                        "sequential": reference[workload]["sequential_cycles"],
                        "faultless": reference[workload]["faultless_cycles"],
                        "crash_key": key if key in crash_keys else None,
                    },
                )
            )
    return points


def run_campaign(
    spec: CampaignSpec,
    checkpoint: Optional[SweepCheckpoint] = None,
    crash_keys: Tuple[str, ...] = (),
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    telemetry_dir: Optional[str] = None,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
) -> CampaignResult:
    """Execute a campaign, resuming completed runs from ``checkpoint``.

    Args:
        spec: The campaign's sweep parameters.
        checkpoint: Optional resume store; completed run keys are
            loaded instead of re-run.
        crash_keys: Run keys whose *first* attempt raises an injected
            crash — a deterministic way to exercise (and test) the
            retry path end to end.
        progress: Optional one-line-per-run status callback.
        jobs: Worker processes of the
            :class:`~repro.experiments.engine.ParallelEngine` the runs
            go through; 1 (the default) runs them in this process.
        cache_dir: Optional artifact-cache directory shared by the
            reference computation and every worker.
        telemetry_dir: When set, write one provenance manifest per run
            (config digest, derived fault seed, attempts, wall time)
            plus a campaign rollup into this directory.
        backend: Executor backend name forwarded to the engine
            (``serial``/``process``/``remote``); None selects by
            ``jobs``.
        workers: Backend parallelism (default: ``jobs``).

    Returns:
        The populated :class:`CampaignResult` (gates not yet evaluated;
        call :meth:`CampaignResult.failures` / ``.ok``).
    """
    from repro.experiments import framework
    from repro.experiments.engine import ParallelEngine

    started = time.perf_counter()
    result = CampaignResult(spec=spec)
    engine = ParallelEngine(
        jobs=jobs,
        cache_dir=cache_dir,
        timeout=spec.timeout,
        retries=spec.retries,
        backoff=spec.backoff,
        backend=backend,
        workers=workers,
    )

    with framework.use_cache(engine.cache):
        for workload in spec.workloads:
            config = EXPERIMENT_CONFIG.with_(num_thread_units=spec.thread_units)
            trace = load_trace(workload, spec.scale)
            pairs = pair_set_for(workload, spec.policy, spec.scale)
            sequential = baseline_cycles(workload, config, spec.scale)
            faultless = simulate(trace, pairs, config).cycles
            result.reference[workload] = {
                "sequential_cycles": sequential,
                "faultless_cycles": faultless,
            }

    def note(key: str, outcome: ResilientOutcome, resumed: bool) -> None:
        if resumed:
            result.resumed += 1
        if progress is not None:
            status = "resumed" if resumed else (
                "ok" if outcome.ok else "FAILED"
            )
            retry = (
                f" ({outcome.attempts} attempts)"
                if not resumed and outcome.attempts > 1
                else ""
            )
            progress(f"{key}: {status}{retry}")

    _CRASHED.clear()
    points = _campaign_points(spec, result.reference, crash_keys)
    result.outcomes = engine.run(points, checkpoint=checkpoint, progress=note)
    if telemetry_dir is not None:
        _write_campaign_telemetry(
            telemetry_dir, spec, result, engine,
            time.perf_counter() - started,
        )
    return result


def _write_campaign_telemetry(
    telemetry_dir: str,
    spec: CampaignSpec,
    result: CampaignResult,
    engine,
    seconds: float,
) -> None:
    """Write one manifest per campaign run plus the campaign rollup."""
    from repro.obs.manifest import RunManifest, write_sweep_manifest

    spec_fields = {
        "seed": spec.seed,
        "scale": spec.scale,
        "policy": spec.policy,
        "thread_units": spec.thread_units,
        "cycle_budget_factor": spec.cycle_budget_factor,
    }
    for workload in spec.workloads:
        for rate in spec.rates:
            key = run_key(workload, rate)
            outcome = result.outcomes.get(key)
            if outcome is None:
                continue
            RunManifest(
                name=key,
                config={**spec_fields, "workload": workload, "rate": rate},
                seed=spec.seed,
                seconds=outcome.seconds,
                attempts=outcome.attempts,
                ok=outcome.ok,
                cache=engine._point_deltas.get(key, {}),
                fault_plan={
                    "rate": rate,
                    "seed": workload_seed(spec.seed, workload),
                },
            ).write(telemetry_dir)
    cache_totals = (
        engine.cache.stats.to_dict() if engine.cache is not None else {}
    )
    write_sweep_manifest(
        telemetry_dir,
        name="campaign",
        points=len(result.outcomes),
        config=spec_fields,
        seconds=seconds,
        cache=cache_totals,
        extra={
            "workloads": list(spec.workloads),
            "rates": list(spec.rates),
            "resumed": result.resumed,
            "failures": result.failures(),
        },
    )
