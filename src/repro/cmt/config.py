"""Processor configuration (paper Section 4.1 defaults)."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.predictors.value import VALUE_PREDICTORS


@dataclass(frozen=True)
class ProcessorConfig:
    """Parameters of the Clustered Speculative Multithreaded Processor.

    Defaults follow the paper's experimental framework: 16 thread units,
    4-wide fetch stopping at taken branches, 4-wide issue, 64-entry reorder
    buffer, 10-bit gshare, 32KB 2-way L1 (3-cycle hit / 8-cycle miss),
    3-cycle inter-thread value forwarding, perfect value prediction and no
    thread-initialisation overhead (the realistic-assumption sections turn
    those two knobs).
    """

    num_thread_units: int = 16
    fetch_width: int = 4
    issue_width: int = 4
    rob_size: int = 64
    branch_history_bits: int = 10
    branch_predictor: str = "gshare"
    mispredict_penalty: int = 5

    l1_size_kb: int = 32
    l1_assoc: int = 2
    l1_block_words: int = 8
    l1_hit_latency: int = 3
    l1_miss_latency: int = 8

    forward_latency: int = 3
    #: Oracle for cross-thread memory dataflow (ablation only — the paper
    #: never predicts memory values, so every experiment leaves this off).
    perfect_memory: bool = False
    value_predictor: str = "perfect"
    #: Prime predictor tables from the profiling run before simulation.
    #: The spawning pairs come from a profile pass anyway, so the same pass
    #: can initialise the value tables.  At SpecInt trace lengths cold
    #: start is invisible; at our synthetic trace lengths an unprimed
    #: table's warm-up spans a large fraction of the run (see DESIGN.md).
    prime_value_predictor: bool = True
    #: Dynamic pair instances used to prime each pair's table entries.
    prime_samples: int = 48
    #: Record a ThreadRecord per committed thread in the stats (off by
    #: default — it costs memory on long runs).
    collect_timeline: bool = False
    value_predictor_kb: int = 16
    #: Extra cycles to recover when a predicted live-in turns out wrong
    #: (squash-and-replay of the consuming instructions).
    misprediction_recovery: int = 5
    #: Cycles charged to a spawned thread before it may fetch (Figure 11
    #: uses 8; the potential studies use 0).
    init_overhead: int = 0
    #: Cycles the spawn operation occupies the parent's front-end (the
    #: fork must be routed to a free unit before fetch resumes).  The
    #: paper's potential studies assume free spawns; kept as an ablation.
    spawn_cost: int = 0
    #: Cycles to retire one thread and release its unit (in-order commit
    #: requires validating live-ins and merging speculative state).  Zero
    #: in the paper's potential studies; kept as an ablation.
    commit_latency: int = 0
    #: How many thread instructions to scan for live-ins at spawn time.
    livein_scan_cap: int = 512

    # --- dynamic spawning-pair policies (Figures 5-7) ---
    #: Remove a pair once its thread has executed alone this many cycles.
    removal_cycles: Optional[int] = None
    #: Occurrences of the alone condition required before removal (Fig 5b).
    removal_occurrences: int = 1
    #: "Alone" means fewer than this many *other* unfinished threads; the
    #: paper's default monitors threads executing completely alone (1) and
    #: also evaluated "with just a few threads" (larger values).
    removal_coactive_threshold: int = 1
    #: Re-enable a removed pair after this many cycles (the paper's
    #: footnote: "considers again a removed thread after a certain period
    #: of time"; they observed very small improvements).
    removal_revival_cycles: Optional[int] = None
    #: Remove pairs whose committed threads ran fewer instructions (Fig 7b).
    min_thread_size: Optional[int] = None
    #: Try the next-best CQIP for an SP when the best cannot spawn (Fig 6).
    reassign: bool = False
    #: How the spawn logic enforces thread ordering:
    #: "counter" — (default) reject a candidate pair when its expected
    #:             distance exceeds the parent's expected remaining length
    #:             (both come from the pair table, so this is a handful of
    #:             comparators in hardware); misestimates still misspawn
    #:             and waste a unit until the parent's join verification;
    #: "exact"   — oracle ordering: reject any spawn whose CQIP does not
    #:             start the parent's immediate successor;
    #: "tail"    — only the most speculative thread may spawn;
    #: "none"    — misordered spawns always occupy a unit until squashed
    #:             (pure DMT-style ghosts).
    spawn_order_check: str = "counter"
    #: Tolerance multiplier for the counter check (1.0 = reject when the
    #: candidate is expected to outrun the parent's segment at all).
    order_check_slack: float = 1.0

    # --- watchdog & fault recovery ---
    #: Abort with SimulationTimeout once simulated time passes this cycle
    #: (None = unbounded).  Counters never perturb timing: a run that fits
    #: the budget is identical to one with no budget.
    cycle_budget: Optional[int] = None
    #: Abort with InvariantViolation after this many consecutive event-loop
    #: steps in which no instruction executed (livelock / forward-progress
    #: watchdog; None disables it).  The default is far above anything a
    #: healthy simulation produces.
    livelock_threshold: Optional[int] = 1_000_000
    #: Cycles to squash a fault-hit thread and restart it on another unit
    #: (used only when a FaultInjector is attached).
    fault_restart_penalty: int = 16

    # --- implementation selection (never changes results) ---
    #: Simulator core implementation: "event" (default — struct-of-
    #: arrays trace columns, ring-buffer issue booking and a batched
    #: event loop with a wakeup heap that jumps the clock over dead
    #: cycles) or "legacy" (the original object-graph core, kept as the
    #: bit-identical reference for the equal-stats gate and the
    #: full-scale speed-up gate).
    sim_core: str = "event"

    def __post_init__(self) -> None:
        if self.num_thread_units < 1:
            raise ValueError("need at least one thread unit")
        if self.fetch_width < 1 or self.issue_width < 1:
            raise ValueError("fetch/issue width must be positive")
        if self.rob_size < 1:
            raise ValueError("reorder buffer must hold at least one entry")
        if self.forward_latency < 0 or self.init_overhead < 0:
            raise ValueError("latencies cannot be negative")
        if self.spawn_order_check not in ("counter", "exact", "tail", "none"):
            raise ValueError(
                f"unknown spawn_order_check {self.spawn_order_check!r}"
            )
        if self.removal_occurrences < 1:
            raise ValueError("removal_occurrences must be >= 1")
        if self.removal_coactive_threshold < 1:
            raise ValueError("removal_coactive_threshold must be >= 1")
        if self.value_predictor not in VALUE_PREDICTORS:
            raise ValueError(
                f"unknown value predictor {self.value_predictor!r}"
            )
        if self.branch_predictor not in ("gshare", "bimodal"):
            raise ValueError(
                f"unknown branch predictor {self.branch_predictor!r}"
            )
        if self.cycle_budget is not None and self.cycle_budget < 1:
            raise ValueError("cycle_budget must be >= 1 when set")
        if self.livelock_threshold is not None and self.livelock_threshold < 1:
            raise ValueError("livelock_threshold must be >= 1 when set")
        if self.fault_restart_penalty < 0:
            raise ValueError("fault_restart_penalty cannot be negative")
        if self.sim_core not in ("event", "legacy"):
            raise ValueError(f"unknown sim_core {self.sim_core!r}")

    @property
    def primes_predictor(self) -> bool:
        """True when a table value predictor is primed before the run.

        Last, stride and fcm tables are preset from the profiling run
        when ``prime_value_predictor`` is on; perfect and none have no
        table to prime.
        """
        return self.prime_value_predictor and self.value_predictor not in (
            "perfect",
            "none",
        )

    def with_(self, **overrides) -> "ProcessorConfig":
        """Return a copy of the config with the given fields replaced."""
        return replace(self, **overrides)

    def single_threaded(self) -> "ProcessorConfig":
        """Return the matching one-thread-unit baseline configuration.

        Knobs that cannot affect a one-unit run without spawning pairs
        are reset to their defaults, so configurations that differ only
        in them share one baseline: the dynamic pair policies, and the
        value predictor (with one unit no thread is ever spawned, so no
        live-in is ever predicted).
        """
        return self.with_(
            num_thread_units=1,
            removal_cycles=None,
            min_thread_size=None,
            reassign=False,
            value_predictor=ProcessorConfig.value_predictor,
            value_predictor_kb=ProcessorConfig.value_predictor_kb,
            prime_value_predictor=ProcessorConfig.prime_value_predictor,
        )
