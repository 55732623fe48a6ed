"""Shared experiment infrastructure: cached runs and result rendering.

Every figure driver builds on three cached primitives so that sweeps over
many configurations do not repeat work:

- ``trace_for(name, scale)`` — the workload's dynamic trace;
- ``pair_set_for(name, policy, scale)`` — spawning pairs under a policy;
- ``baseline_cycles(name, config, scale)`` — the single-threaded run.

Experiment-wide defaults live here too.  Two deliberate deviations from
the paper's raw parameters (documented in DESIGN.md/EXPERIMENTS.md):
the profile pass uses 99% CFG coverage and a 4096-instruction distance cap
because our synthetic traces lack SpecInt's cold-code tail, so the paper's
90%/unbounded settings would discard structurally important outer loops.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.cmt import ProcessorConfig, simulate
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
# The primitives below memoize twice: an in-process dict (always on, the
# behaviour the figure drivers have relied on from the start) and an
# optional on-disk :class:`~repro.cache.ArtifactCache` shared across
# processes and runs.  ``use_cache``/``set_cache`` install the disk
# cache; when none is installed everything behaves exactly as before.
# ----------------------------------------------------------------------

_active_cache = None  # Optional[ArtifactCache]


def set_cache(cache):
    """Install ``cache`` (an ``ArtifactCache`` or None) as the active
    on-disk artifact store; returns the previously active one."""
    global _active_cache
    previous, _active_cache = _active_cache, cache
    return previous


def get_cache():
    """Return the currently installed on-disk artifact cache (or None)."""
    return _active_cache


@contextmanager
def use_cache(cache):
    """Context manager installing ``cache`` for the duration of a block.

    Yields:
        The installed cache, restoring the previous one on exit.
    """
    previous = set_cache(cache)
    try:
        yield cache
    finally:
        set_cache(previous)


def _config_knobs(config: ProcessorConfig) -> Dict[str, Any]:
    """Cache-key fields of a processor configuration (all its knobs)."""
    from dataclasses import asdict

    return asdict(config)


def trace_for(name: str, scale: float = 1.0, dataset: str = "train") -> Trace:
    """The workload's dynamic trace, via the artifact cache when active.

    Args:
        name: Workload name (see :func:`repro.workloads.workload_names`).
        scale: Workload size multiplier.
        dataset: Input dataset variant (``train``/``ref``).

    Returns:
        The cached (or freshly executed) :class:`~repro.exec.trace.Trace`.
    """
    if _active_cache is None:
        return load_trace(name, scale, dataset)
    trace = _active_cache.get_or_create(
        "trace",
        lambda: load_trace(name, scale, dataset),
        workload=name,
        scale=scale,
        dataset=dataset,
    )
    if trace._columns is None:
        # Memoize the columnar view next to the trace: struct-of-arrays
        # columns are content-determined by the trace's key fields, and
        # rebuilding them is the dominant per-process warm-up cost of a
        # sweep, so they are cached as their own artifact kind.
        trace.attach_columns(
            _active_cache.get_or_create(
                "columns",
                lambda: trace.columns,
                workload=name,
                scale=scale,
                dataset=dataset,
            )
        )
    return trace


_pair_memo: Dict[Any, SpawnPairSet] = {}


def pair_set_for(name: str, policy: str = "profile", scale: float = 1.0) -> SpawnPairSet:
    """Cached spawning-pair selection for a workload under a policy.

    Args:
        name: Workload name.
        policy: One of :func:`policy_names`.
        scale: Workload size multiplier.

    Returns:
        The policy's :class:`~repro.spawning.SpawnPairSet` (memoized
        in-process and, when a cache is active, on disk).
    """
    try:
        builder = _POLICIES[policy]
    except KeyError:
        raise KeyError(
            f"unknown policy {policy!r}; choose from {policy_names()}"
        ) from None
    memo_key = (name, policy, scale)
    if memo_key not in _pair_memo:
        if _active_cache is None:
            _pair_memo[memo_key] = builder(trace_for(name, scale))
        else:
            _pair_memo[memo_key] = _active_cache.get_or_create(
                "pairs",
                lambda: builder(trace_for(name, scale)),
                workload=name,
                policy=policy,
                scale=scale,
                coverage=EXPERIMENT_PROFILE_CONFIG.coverage,
                max_distance=EXPERIMENT_PROFILE_CONFIG.max_distance,
            )
    return _pair_memo[memo_key]


_baseline_memo: Dict[Any, int] = {}


def _baseline_key(name: str, config: Optional[ProcessorConfig], scale: float):
    return (name, (config or EXPERIMENT_CONFIG).single_threaded(), scale)


def baseline_cycles(
    name: str, config: Optional[ProcessorConfig] = None, scale: float = 1.0
) -> int:
    """Cached single-threaded cycles for a workload.

    Args:
        name: Workload name.
        config: Processor configuration; its ``single_threaded()``
            reduction keys the memo, so configurations differing only in
            multi-thread policy knobs share one baseline run.
        scale: Workload size multiplier.

    Returns:
        Cycle count of the one-thread-unit execution.
    """
    memo_key = _baseline_key(name, config, scale)
    if memo_key not in _baseline_memo:
        single = memo_key[1]

        def compute() -> int:
            return simulate(trace_for(name, scale), SpawnPairSet([]), single).cycles

        if _active_cache is None:
            _baseline_memo[memo_key] = compute()
        else:
            _baseline_memo[memo_key] = _active_cache.get_or_create(
                "baseline",
                compute,
                workload=name,
                scale=scale,
                config=_config_knobs(single),
            )
    return _baseline_memo[memo_key]


def seed_baseline(
    name: str, config: Optional[ProcessorConfig], scale: float, cycles: int
) -> None:
    """Pre-populate the baseline memo (parallel engine result seeding).

    Args:
        name: Workload name.
        config: Configuration whose ``single_threaded()`` reduction keys
            the memo entry (None means the experiment default).
        scale: Workload size multiplier.
        cycles: The baseline cycle count to record.
    """
    _baseline_memo[_baseline_key(name, config, scale)] = cycles


def clear_memos() -> None:
    """Drop every in-process memo (pairs, baselines, runs, traces).

    The on-disk artifact cache is untouched; this only resets process
    state so benchmarks can measure cold/warm disk-cache behaviour.
    """
    _pair_memo.clear()
    _baseline_memo.clear()
    load_trace.cache_clear()
    from repro.experiments import figures

    figures.clear_run_memo()


def run_policy(
    name: str,
    policy: str = "profile",
    config: Optional[ProcessorConfig] = None,
    scale: float = 1.0,
) -> SimulationStats:
    """Simulate one workload under a policy and configuration.

    Args:
        name: Workload name.
        policy: One of :func:`policy_names`.
        config: Processor configuration (None = experiment default).
        scale: Workload size multiplier.

    Returns:
        The run's :class:`~repro.cmt.stats.SimulationStats`.
    """
    config = config or EXPERIMENT_CONFIG
    return simulate(
        trace_for(name, scale), pair_set_for(name, policy, scale), config
    )


def speedup(
    name: str,
    policy: str = "profile",
    config: Optional[ProcessorConfig] = None,
    scale: float = 1.0,
) -> float:
    """Speed-up over the single-threaded execution.

    Args:
        name: Workload name.
        policy: One of :func:`policy_names`.
        config: Processor configuration (None = experiment default).
        scale: Workload size multiplier.

    Returns:
        ``baseline_cycles / policy_cycles`` for the run.
    """
    config = config or EXPERIMENT_CONFIG
    stats = run_policy(name, policy, config, scale)
    return baseline_cycles(name, config, scale) / stats.cycles


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
# failure classification) and checkpoints.
# ----------------------------------------------------------------------

#: Per-thread deadline of the attempt running under :func:`run_resilient`.
_ATTEMPT = threading.local()


def attempt_deadline() -> Optional[float]:
    """Return the running attempt's ``time.monotonic()`` deadline.

    :func:`run_resilient` publishes the deadline of every attempt it
    times.  ``SIGALRM`` enforces it only in the main thread; an attempt
    that runs elsewhere polls it instead (the serve pool hard-kills its
    forked child on it).

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
    #: Wall-clock seconds spent across every attempt (telemetry; 0.0 in
    #: checkpoints written before the field existed).
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


class SweepCheckpoint:
    """JSON store of completed sweep runs, written atomically per record.

    A killed campaign restarts from the checkpoint: completed keys are
    skipped, half-finished runs simply re-run.  The file maps run key to
    a :class:`ResilientOutcome` dict.

    A corrupt or truncated checkpoint file (e.g. the machine died while
    an older non-atomic writer held it, or the disk lied) is never
    fatal: the bad file is quarantined to ``<path>.corrupt`` and the
    sweep restarts from an empty store, re-running everything instead
    of crashing.  ``quarantined`` holds the quarantine path when that
    happened.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._outcomes: Dict[str, Dict[str, Any]] = {}
        self.quarantined: Optional[Path] = None
        if self.path.exists():
            try:
                data = json.loads(self.path.read_text())
                if not isinstance(data, dict):
                    raise ValueError(
                        f"checkpoint root is {type(data).__name__}, "
                        "expected an object"
                    )
                self._outcomes = data
            except (json.JSONDecodeError, ValueError, UnicodeDecodeError):
                self.quarantined = self.path.with_suffix(
                    self.path.suffix + ".corrupt"
                )
                os.replace(self.path, self.quarantined)
                self._outcomes = {}

    def __contains__(self, key: str) -> bool:
        return key in self._outcomes

    def __len__(self) -> int:
        return len(self._outcomes)

    def get(self, key: str) -> Optional[ResilientOutcome]:
        """Return the recorded outcome for ``key`` (None if absent)."""
        data = self._outcomes.get(key)
        return None if data is None else ResilientOutcome.from_dict(data)

    def record(self, key: str, outcome: ResilientOutcome) -> None:
        """Record the outcome under ``key`` and flush the store atomically."""
        self._outcomes[key] = outcome.to_dict()
        self._flush()

    def discard(self, key: str) -> None:
        """Forget a recorded run (it will re-run on the next sweep)."""
        if self._outcomes.pop(key, None) is not None:
            self._flush()

    def _flush(self) -> None:
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(json.dumps(self._outcomes, indent=1, sort_keys=True))
        os.replace(tmp, self.path)
