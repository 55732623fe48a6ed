"""Shared experiment infrastructure: cached runs and result rendering.

Every figure driver builds on four primitives, each one read through
the active artifact cache, so that sweeps over many configurations do
not repeat work:

- ``trace_for(name, scale)`` — the workload's dynamic trace;
- ``pair_set_for(name, policy, scale)`` — spawning pairs under a policy;
- ``priming_sequence_for(name, policy, scale, config)`` — the
  value-predictor training sequence of that pair set;
- ``baseline_cycles(name, config, scale)`` — the single-threaded run.

``simulate_point`` combines them into the payload of one figure point;
it is the parallel engine's ``simulate`` runner and what a figure driver
calls for a point the engine did not run.

Experiment-wide defaults live here too.  Two deliberate deviations from
the paper's raw parameters (documented in DESIGN.md/EXPERIMENTS.md):
the profile pass uses 99% CFG coverage and a 4096-instruction distance cap
because our synthetic traces lack SpecInt's cold-code tail, so the paper's
90%/unbounded settings would discard structurally important outer loops.
"""

from __future__ import annotations

import hashlib
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.cache import ArtifactCache
from repro.cmt import ProcessorConfig, priming_sequence, simulate
from repro.cmt.stats import SimulationStats
from repro.errors import SimulationTimeout, classify_failure
from repro.exec.trace import Trace
from repro.spawning import (
    HeuristicConfig,
    ProfilePolicyConfig,
    SpawnPairSet,
    heuristic_pairs,
    select_profile_pairs,
)
from repro.workloads import load_trace, workload_names

#: Baseline processor configuration for every experiment (Section 4.1).
EXPERIMENT_CONFIG = ProcessorConfig()

#: Profile-policy selection parameters used by the figures.
EXPERIMENT_PROFILE_CONFIG = ProfilePolicyConfig(
    coverage=0.99, max_distance=4096
)

#: Policy name -> pair-set builder.
_POLICIES: Dict[str, Callable[[Trace], SpawnPairSet]] = {
    "profile": lambda trace: select_profile_pairs(
        trace, EXPERIMENT_PROFILE_CONFIG
    ),
    "profile-independent": lambda trace: select_profile_pairs(
        trace,
        ProfilePolicyConfig(
            coverage=EXPERIMENT_PROFILE_CONFIG.coverage,
            max_distance=EXPERIMENT_PROFILE_CONFIG.max_distance,
            ordering="independent",
        ),
    ),
    "profile-predictable": lambda trace: select_profile_pairs(
        trace,
        ProfilePolicyConfig(
            coverage=EXPERIMENT_PROFILE_CONFIG.coverage,
            max_distance=EXPERIMENT_PROFILE_CONFIG.max_distance,
            ordering="predictable",
        ),
    ),
    "heuristics": lambda trace: heuristic_pairs(trace, HeuristicConfig()),
}


def policy_names() -> List[str]:
    """Return the names of the spawning policies the experiments sweep."""
    return list(_POLICIES)


# ----------------------------------------------------------------------
# Artifact cache plumbing.
#
# The primitives below read and build through the active
# :class:`~repro.cache.ArtifactCache`, the pipeline's one memo: its
# memory front serves repeated reads in this process, and a cache with a
# directory also shares artifacts across processes and runs.
# ``use_cache``/``set_cache`` install a cache; None selects the
# process-wide memory-only default.
# ----------------------------------------------------------------------

_DEFAULT_CACHE = ArtifactCache(None)
_active_cache = _DEFAULT_CACHE


def set_cache(cache: Optional[ArtifactCache]) -> ArtifactCache:
    """Install ``cache`` (None: the default) and return the previous one."""
    global _active_cache
    previous, _active_cache = _active_cache, cache or _DEFAULT_CACHE
    return previous


def get_cache() -> ArtifactCache:
    """Return the active artifact cache (never None)."""
    return _active_cache


@contextmanager
def use_cache(cache: Optional[ArtifactCache]) -> Iterator[ArtifactCache]:
    """Context manager installing ``cache`` for the duration of a block.

    Yields:
        The active cache, restoring the previous one on exit.
    """
    previous = set_cache(cache)
    try:
        yield _active_cache
    finally:
        set_cache(previous)


def clear_memos() -> None:
    """Empty the memory-only default cache; nothing on disk is touched."""
    _DEFAULT_CACHE.clear()


def trace_for(name: str, scale: float = 1.0, dataset: str = "train") -> Trace:
    """The workload's dynamic trace, via the active cache.

    Args:
        name: Workload name (see :func:`repro.workloads.workload_names`).
        scale: Workload size multiplier.
        dataset: Input dataset variant (``train``/``ref``).

    Returns:
        The cached (or freshly executed) :class:`~repro.exec.trace.Trace`;
        a trace loaded from disk carries its columnar view.
    """
    return _active_cache.get_or_create(
        "trace",
        lambda: load_trace(name, scale, dataset),
        workload=name,
        scale=scale,
        dataset=dataset,
    )


def _pair_key_fields(name: str, policy: str, scale: float) -> Dict[str, Any]:
    """Cache-key fields of a policy's pair set (and of what derives from it)."""
    return {
        "workload": name,
        "policy": policy,
        "scale": scale,
        "coverage": EXPERIMENT_PROFILE_CONFIG.coverage,
        "max_distance": EXPERIMENT_PROFILE_CONFIG.max_distance,
    }


def pair_set_for(
    name: str, policy: str = "profile", scale: float = 1.0
) -> SpawnPairSet:
    """A workload's spawning pairs under a policy, via the active cache.

    Args:
        name: Workload name.
        policy: One of :func:`policy_names`.
        scale: Workload size multiplier.

    Returns:
        The policy's :class:`~repro.spawning.SpawnPairSet`.
    """
    try:
        builder = _POLICIES[policy]
    except KeyError:
        raise KeyError(
            f"unknown policy {policy!r}; choose from {policy_names()}"
        ) from None
    return _active_cache.get_or_create(
        "pairs",
        lambda: builder(trace_for(name, scale)),
        **_pair_key_fields(name, policy, scale),
    )


def priming_sequence_for(
    name: str,
    policy: str = "profile",
    scale: float = 1.0,
    config: Optional[ProcessorConfig] = None,
) -> List[tuple]:
    """The value-predictor training sequence of a policy's pair set.

    Priming presets the predictor tables from the profiling run, so the
    sequence is profile output: the active cache stores it as a
    ``prime`` artifact, derived on first use and read by every later
    run and worker.  It depends only on the pair set and the priming
    parameters, so last, stride and fcm runs share one artifact.

    Args:
        name: Workload name.
        policy: One of :func:`policy_names`.
        scale: Workload size multiplier.
        config: Processor configuration whose ``prime_samples`` and
            ``livein_scan_cap`` apply (None = experiment default).

    Returns:
        The :func:`~repro.cmt.processor.priming_sequence` entries (the
        object memoized on the trace columns when derived here).
    """
    config = config or EXPERIMENT_CONFIG
    return _active_cache.get_or_create(
        "prime",
        lambda: priming_sequence(
            trace_for(name, scale), pair_set_for(name, policy, scale), config
        ),
        **_pair_key_fields(name, policy, scale),
        prime_samples=config.prime_samples,
        livein_scan_cap=config.livein_scan_cap,
    )


def baseline_cycles(
    name: str, config: Optional[ProcessorConfig] = None, scale: float = 1.0
) -> int:
    """Single-threaded cycles for a workload, via the active cache.

    Args:
        name: Workload name.
        config: Processor configuration; its ``single_threaded()``
            reduction keys the artifact, so configurations differing
            only in multi-thread policy knobs share one baseline run.
        scale: Workload size multiplier.

    Returns:
        Cycle count of the one-thread-unit execution.
    """
    single = (config or EXPERIMENT_CONFIG).single_threaded()
    return _active_cache.get_or_create(
        "baseline",
        lambda: simulate(trace_for(name, scale), SpawnPairSet([]), single).cycles,
        workload=name,
        scale=scale,
        config=asdict(single),
    )


def run_policy(
    name: str,
    policy: str = "profile",
    config: Optional[ProcessorConfig] = None,
    scale: float = 1.0,
) -> SimulationStats:
    """Simulate one workload under a policy and configuration.

    An event-core run that primes a table value predictor replays
    :func:`priming_sequence_for` (the cached ``prime`` artifact); the
    legacy core derives its own with its oracle.

    Args:
        name: Workload name.
        policy: One of :func:`policy_names`.
        config: Processor configuration (None = experiment default).
        scale: Workload size multiplier.

    Returns:
        The run's :class:`~repro.cmt.stats.SimulationStats`.
    """
    config = config or EXPERIMENT_CONFIG
    trace = trace_for(name, scale)
    pairs = pair_set_for(name, policy, scale)
    training = None
    if config.primes_predictor and config.sim_core == "event":
        training = priming_sequence_for(name, policy, scale, config)
    return simulate(trace, pairs, config, training=training)


def simulate_point(
    name: str, policy: str, scale: float, overrides: Dict[str, Any]
) -> Dict[str, Any]:
    """Simulate one (workload, policy, configuration) figure point.

    Args:
        name: Workload name.
        policy: One of :func:`policy_names`.
        scale: Workload size multiplier.
        overrides: :class:`~repro.cmt.ProcessorConfig` fields that differ
            from :data:`EXPERIMENT_CONFIG`.

    Returns:
        The JSON-able point payload: ``cycles``, ``baseline`` (the
        single-threaded cycles), ``speedup``, ``avg_active_threads``,
        ``avg_thread_size`` and ``value_hit_rate``.
    """
    config = EXPERIMENT_CONFIG.with_(**overrides)
    stats = run_policy(name, policy, config, scale)
    baseline = baseline_cycles(name, config, scale)
    return {
        "cycles": stats.cycles,
        "baseline": baseline,
        "speedup": baseline / stats.cycles if stats.cycles else 0.0,
        "avg_active_threads": stats.avg_active_threads,
        "avg_thread_size": stats.avg_thread_size,
        "value_hit_rate": stats.value_hit_rate,
    }


@dataclass
class FigureResult:
    """One reproduced figure: per-benchmark series plus summary rows.

    ``series`` maps a series label (bar group in the paper's plot) to a
    list of values aligned with ``benchmarks``; ``summary`` holds the
    aggregate the paper quotes (Hmean/Amean), and ``paper_reference`` the
    corresponding number from the paper when it states one.
    """

    figure: str
    title: str
    benchmarks: List[str]
    series: Dict[str, List[float]]
    summary: Dict[str, float] = field(default_factory=dict)
    paper_reference: Dict[str, float] = field(default_factory=dict)
    notes: str = ""

    def render(self, width: int = 9, precision: int = 2) -> str:
        """ASCII table matching the paper's bar-chart layout.

        Args:
            width: Minimum value-column width; columns whose series label
                (or any rendered value) is wider grow to fit, so long
                workload or series names never overflow their column.
            precision: Decimal places of every value cell.

        Returns:
            The table as a newline-joined string.
        """
        name_col = max(
            [len("benchmark")]
            + [len(b) for b in self.benchmarks]
            + [len(label) for label in self.summary]
        )
        col_widths = {
            label: max(
                [width, len(label)]
                + [
                    len(f"{v:.{precision}f}")
                    for v in self.series[label]
                ]
            )
            for label in self.series
        }
        lines = [f"{self.figure}: {self.title}"]
        header = f"{'benchmark':>{name_col}} " + " ".join(
            f"{label:>{col_widths[label]}}" for label in self.series
        )
        lines.append(header)
        for i, bench in enumerate(self.benchmarks):
            row = f"{bench:>{name_col}} " + " ".join(
                f"{values[i]:>{col_widths[label]}.{precision}f}"
                for label, values in self.series.items()
            )
            lines.append(row)
        value_col = next(iter(col_widths.values()), width)
        for label, value in self.summary.items():
            ref = self.paper_reference.get(label)
            suffix = f"   (paper: {ref})" if ref is not None else ""
            lines.append(
                f"{label:>{name_col}} {value:>{value_col}.{precision}f}{suffix}"
            )
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)


def suite(scale: float = 1.0) -> Sequence[str]:
    """Return the benchmark names in presentation (paper) order."""
    del scale
    return workload_names()


# ----------------------------------------------------------------------
# Hardened execution: the one attempt runner (wall-clock limits, retries,
# failure classification).
# ----------------------------------------------------------------------

#: Per-thread deadline of the attempt running under :func:`run_resilient`.
_ATTEMPT = threading.local()


def attempt_deadline() -> Optional[float]:
    """Return the running attempt's ``time.monotonic()`` deadline.

    :func:`run_resilient` publishes the deadline of every attempt it
    times.  ``SIGALRM`` enforces it only in the main thread; an attempt
    that runs elsewhere polls it instead (a
    :class:`~repro.dist.backend.JobProcess` is hard-killed on it).

    Returns:
        The deadline, or None outside a time-limited attempt.
    """
    return getattr(_ATTEMPT, "deadline", None)


@contextmanager
def _wall_clock_limit(seconds: Optional[float]):
    """Give the block a ``seconds`` deadline (see :func:`attempt_deadline`).

    In the main thread, on platforms with ``setitimer``, ``SIGALRM``
    raises :class:`SimulationTimeout` when it passes; elsewhere the
    deadline is only published (the in-simulator cycle budget is the
    portable backstop).
    """
    if seconds is None or seconds <= 0:
        yield
        return
    previous = attempt_deadline()
    _ATTEMPT.deadline = time.monotonic() + seconds
    alarm = (
        hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    if alarm:

        def _on_alarm(signum, frame):
            raise SimulationTimeout("wall-clock limit exceeded", seconds=seconds)

        handler = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        if alarm:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, handler)
        _ATTEMPT.deadline = previous


@dataclass
class ResilientOutcome:
    """Result of one hardened run: the payload or a structured failure."""

    ok: bool
    value: Any = None
    attempts: int = 0
    error: Optional[str] = None
    error_type: Optional[str] = None
    #: Wall-clock seconds spent across every attempt (telemetry; 0.0 when
    #: the encoded outcome carries no ``seconds``).
    seconds: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        """Return the JSON view of the outcome (see :meth:`from_dict`)."""
        return {
            "ok": self.ok,
            "value": self.value,
            "attempts": self.attempts,
            "error": self.error,
            "error_type": self.error_type,
            "seconds": self.seconds,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ResilientOutcome":
        """Return the outcome encoded by a :meth:`to_dict` dictionary."""
        return cls(
            ok=bool(data.get("ok")),
            value=data.get("value"),
            attempts=int(data.get("attempts", 0)),
            error=data.get("error"),
            error_type=data.get("error_type"),
            seconds=float(data.get("seconds", 0.0)),
        )


def backoff_delay(
    backoff: float,
    attempt: int,
    jitter: float = 0.0,
    jitter_key: str = "",
) -> float:
    """Exponential retry delay with deterministic, seeded jitter.

    Args:
        backoff: Base delay in seconds of the first retry.
        attempt: Zero-based index of the attempt that just failed.
        jitter: Jitter fraction in ``[0, 1]``: the delay is spread
            uniformly over ``base * [1 - jitter, 1 + jitter]``.  The
            default 0 reproduces the historical pure-exponential delay
            bit-identically.
        jitter_key: Stable identity of the retrying task (e.g. a job or
            point key); together with ``attempt`` it seeds the jitter,
            so concurrent retries of *different* tasks desynchronise
            while re-runs of the *same* task stay deterministic.

    Returns:
        The delay in seconds (0.0 when ``backoff`` is 0).
    """
    base = backoff * (2**attempt)
    if base <= 0 or jitter <= 0:
        return max(base, 0.0)
    digest = hashlib.blake2b(
        f"{jitter_key}:{attempt}".encode("utf-8"), digest_size=8
    ).digest()
    fraction = int.from_bytes(digest, "big") / float(1 << 64)
    return base * (1.0 + jitter * (2.0 * fraction - 1.0))


def run_resilient(
    task: Callable[[], Any],
    timeout: Optional[float] = None,
    retries: int = 2,
    backoff: float = 0.05,
    jitter: float = 0.0,
    jitter_key: str = "",
) -> ResilientOutcome:
    """Run ``task`` under the shared attempt policy; never raises.

    Sweeps, dist workers and the serve pool all run attempts through
    here.  Each attempt gets a ``timeout``-second wall-clock limit (see
    :func:`attempt_deadline`).  A failure classifies through
    :func:`~repro.errors.classify_failure`: a transient one is retried
    up to ``retries`` times with exponential backoff, while a poison,
    fatal or cancelled one ends the run at once, because re-running it
    would fail the same way.  ``KeyboardInterrupt``/``SystemExit``
    propagate.  ``jitter``/``jitter_key`` spread the backoff
    deterministically (see :func:`backoff_delay`) so a herd of
    concurrent retries does not resynchronise; the default
    ``jitter=0`` keeps the pure-exponential delays.

    Returns:
        A :class:`ResilientOutcome` with the task's value or the last
        failure's type and message.
    """
    started = time.perf_counter()
    attempt = 0
    while True:
        attempt += 1
        try:
            with _wall_clock_limit(timeout):
                value = task()
            return ResilientOutcome(
                ok=True,
                value=value,
                attempts=attempt,
                seconds=time.perf_counter() - started,
            )
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            if attempt > retries or classify_failure(exc) != "transient":
                return ResilientOutcome(
                    ok=False,
                    attempts=attempt,
                    error=str(exc),
                    error_type=type(exc).__name__,
                    seconds=time.perf_counter() - started,
                )
            if backoff > 0:
                time.sleep(
                    backoff_delay(backoff, attempt - 1, jitter, jitter_key)
                )
