"""Deterministic fault decisions for one simulation.

Two sources of randomness, both pure functions of the plan seed:

- blackout windows are pre-drawn per thread unit with ``random.Random``
  seeded by (plan seed, unit id);
- per-event decisions (spawn drops, live-in corruption, forward delays)
  are keyed hashes of (plan seed, event identity), so they do not depend
  on how many or in what order other events were drawn.  Re-evaluating
  the same event always yields the same answer.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Tuple

from repro.faults.models import FaultPlan
from repro.obs.events import EV_FORWARD_DELAY, NULL_TRACER


def _keyed_u01(seed: int, tag: str, keys: tuple) -> float:
    """Uniform [0, 1) draw keyed by (seed, tag, keys); stable across runs."""
    payload = repr((seed, tag, keys)).encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64


class FaultInjector:
    """Turns a :class:`FaultPlan` into per-event decisions.

    One injector serves one simulation: it owns per-run caches and fault
    counters (read back by the processor into ``SimulationStats``).
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        # Hot-path guards: the processor checks these before hashing.
        self.blackout_rate = plan.tu_blackout.rate
        self.spawn_drop_rate = plan.spawn_drop.rate
        self.corrupt_rate = plan.livein_corruption.rate
        self.forward_rate = plan.forward_delay.rate
        #: Unique forwarding delays that fired (an event may be evaluated
        #: several times; the cache keeps the count and the delay stable).
        self.forward_delay_events = 0
        self._forward_cache: Dict[Tuple[int, int, int], int] = {}
        #: Structured-event sink (the processor installs its tracer).
        self.tracer = NULL_TRACER
        #: Lazily drawn blackout schedules, one entry per queried unit.
        self._windows: Dict[int, List[Tuple[int, int]]] = {}

    # ------------------------------------------------------------------
    # Thread-unit blackouts.
    # ------------------------------------------------------------------

    def _draw_windows(self, tu_id: int) -> List[Tuple[int, int]]:
        model = self.plan.tu_blackout
        if model.rate == 0.0:
            return []
        rng = random.Random(f"{self.plan.seed}:blackout:{tu_id}")
        windows: List[Tuple[int, int]] = []
        for slot_start in range(0, model.horizon, model.slot_cycles):
            if rng.random() < model.rate:
                start = slot_start + rng.randrange(model.slot_cycles)
                end = start + model.duration
                if windows and start <= windows[-1][1]:
                    windows[-1] = (windows[-1][0], max(windows[-1][1], end))
                else:
                    windows.append((start, end))
        return windows

    def blackout_windows(self, tu_id: int) -> List[Tuple[int, int]]:
        """Return the unit's full (start, end) blackout schedule, sorted."""
        if tu_id not in self._windows:
            self._windows[tu_id] = self._draw_windows(tu_id)
        return list(self._windows[tu_id])

    # ------------------------------------------------------------------
    # Per-event keyed decisions.
    # ------------------------------------------------------------------

    def spawn_dropped(
        self, sp_pc: int, parent_seq: int, pos: int, attempt: int
    ) -> bool:
        """Return True when this attempt of the spawn request is dropped."""
        if self.spawn_drop_rate == 0.0:
            return False
        draw = _keyed_u01(
            self.plan.seed, "spawn", (sp_pc, parent_seq, pos, attempt)
        )
        return draw < self.spawn_drop_rate

    def corrupt_livein(self, thread_seq: int, reg: int) -> bool:
        """Return True when live-in ``reg`` of thread ``thread_seq`` is corrupted."""
        if self.corrupt_rate == 0.0:
            return False
        draw = _keyed_u01(self.plan.seed, "livein", (thread_seq, reg))
        return draw < self.corrupt_rate

    def forward_delay(self, thread_seq: int, reg: int, producer: int) -> int:
        """Return extra cycles delaying the forward of ``reg`` to ``thread_seq``."""
        if self.forward_rate == 0.0:
            return 0
        key = (thread_seq, reg, producer)
        cached = self._forward_cache.get(key)
        if cached is not None:
            return cached
        draw = _keyed_u01(self.plan.seed, "forward", key)
        delay = self.plan.forward_delay.delay if draw < self.forward_rate else 0
        self._forward_cache[key] = delay
        if delay:
            self.forward_delay_events += 1
            # Cycle -1: the keyed decision has no simulated cycle in
            # scope (the consumer applies the delay on its own clock).
            if self.tracer.enabled:
                self.tracer.emit(
                    EV_FORWARD_DELAY,
                    -1,
                    thread=thread_seq,
                    reg=reg,
                    producer=producer,
                    delay=delay,
                )
        return delay
