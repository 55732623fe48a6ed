"""Fault-model dataclasses and the :class:`FaultPlan` that groups them.

Every model carries a ``rate`` in [0, 1]; a plan whose rates are all zero
is inert — the injector never fires and the simulation is cycle-for-cycle
identical to running with no injector at all (tested).  Plans serialise
to/from JSON and round-trip exactly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict


def _check_rate(name: str, rate: float) -> None:
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"{name} rate must be in [0, 1], got {rate!r}")


@dataclass(frozen=True)
class TUBlackoutFault:
    """Transient thread-unit blackouts.

    Each thread unit's timeline is divided into ``slot_cycles``-cycle
    slots; with probability ``rate`` a slot starts a blackout window of
    ``duration`` cycles somewhere inside it.  Windows are pre-drawn from
    the plan seed over ``horizon`` cycles, so the schedule is a pure
    function of (seed, unit id).
    """

    rate: float = 0.0
    duration: int = 150
    slot_cycles: int = 1000
    horizon: int = 2_000_000

    def __post_init__(self) -> None:
        _check_rate("blackout", self.rate)
        if self.duration < 1 or self.slot_cycles < 1 or self.horizon < 1:
            raise ValueError("blackout duration/slot/horizon must be >= 1")


@dataclass(frozen=True)
class SpawnDropFault:
    """Spawn-request drops with bounded retry and exponential backoff.

    Each attempt of a spawn request is dropped with probability ``rate``;
    the requester retries up to ``max_retries`` times, waiting
    ``backoff * 2**attempt`` cycles before retry ``attempt``.  A request
    whose every attempt is dropped is abandoned.
    """

    rate: float = 0.0
    max_retries: int = 3
    backoff: int = 8

    def __post_init__(self) -> None:
        _check_rate("spawn-drop", self.rate)
        if self.max_retries < 0 or self.backoff < 0:
            raise ValueError("max_retries/backoff cannot be negative")


@dataclass(frozen=True)
class LiveinCorruptionFault:
    """Corruption of predicted live-in values.

    With probability ``rate`` a live-in the value predictor delivered as
    correct is corrupted in flight; the consuming thread detects the
    mismatch and takes the synchronise+recovery (miss) path.
    """

    rate: float = 0.0

    def __post_init__(self) -> None:
        _check_rate("live-in corruption", self.rate)


@dataclass(frozen=True)
class ForwardDelayFault:
    """Delays on inter-thread register forwarding.

    With probability ``rate`` a cross-thread register forward takes
    ``delay`` extra cycles on top of the configured forward latency.
    The draw is keyed per (consumer thread, register, producer), so
    repeated evaluations of the same forward see the same delay.
    """

    rate: float = 0.0
    delay: int = 16

    def __post_init__(self) -> None:
        _check_rate("forward-delay", self.rate)
        if self.delay < 0:
            raise ValueError("forward delay cannot be negative")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, reproducible collection of fault models."""

    seed: int = 0
    tu_blackout: TUBlackoutFault = field(default_factory=TUBlackoutFault)
    spawn_drop: SpawnDropFault = field(default_factory=SpawnDropFault)
    livein_corruption: LiveinCorruptionFault = field(
        default_factory=LiveinCorruptionFault
    )
    forward_delay: ForwardDelayFault = field(default_factory=ForwardDelayFault)

    @property
    def is_zero(self) -> bool:
        """True when no model can ever fire."""
        return (
            self.tu_blackout.rate == 0.0
            and self.spawn_drop.rate == 0.0
            and self.livein_corruption.rate == 0.0
            and self.forward_delay.rate == 0.0
        )

    @classmethod
    def uniform(cls, rate: float, seed: int = 0) -> "FaultPlan":
        """Return a plan with every model firing at the same ``rate``."""
        return cls(
            seed=seed,
            tu_blackout=TUBlackoutFault(rate=rate),
            spawn_drop=SpawnDropFault(rate=rate),
            livein_corruption=LiveinCorruptionFault(rate=rate),
            forward_delay=ForwardDelayFault(rate=rate),
        )

    def with_seed(self, seed: int) -> "FaultPlan":
        """Return a copy of the plan reseeded with ``seed``."""
        return replace(self, seed=seed)

    def to_dict(self) -> Dict[str, Any]:
        """Return the JSON view of the plan (see :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        """Return the plan encoded by a :meth:`to_dict` dictionary."""
        return cls(
            seed=int(data.get("seed", 0)),
            tu_blackout=TUBlackoutFault(**data.get("tu_blackout", {})),
            spawn_drop=SpawnDropFault(**data.get("spawn_drop", {})),
            livein_corruption=LiveinCorruptionFault(
                **data.get("livein_corruption", {})
            ),
            forward_delay=ForwardDelayFault(**data.get("forward_delay", {})),
        )
