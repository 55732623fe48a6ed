"""Value predictors for speculative-thread live-in registers.

Prediction happens at spawn time: for each live-in register the predictor
sees ``base`` — the architectural value the register holds in the spawning
thread at the spawning point (hardware reads it from the parent's register
file) — and must produce the value the register will hold at the CQIP.
This is the *increment predictor* organisation of the paper's own value-
prediction study [14]: recurrences such as induction variables advance by
a fixed stride per spawned instance, and anchoring the prediction to the
parent's current value makes it immune to the training lag and cross-chain
interleaving that plague plain last-value tables in an SpMT pipeline.

Tables are sized in KB as in the paper (16KB default) and indexed by
hashing the SP pc, the CQIP pc and the register number (Section 4.3.1).
"""

from __future__ import annotations

from typing import List, Optional

#: Every value-predictor name: the oracle bound, the paper's two
#: realistic tables, the copy baseline and no prediction.  The CLI's
#: ``--vp`` choices and :class:`~repro.cmt.ProcessorConfig` read it.
VALUE_PREDICTORS = ("perfect", "stride", "fcm", "last", "none")


def _hash_index(sp_pc: int, cqip_pc: int, reg: int, mask: int) -> int:
    """Combine the three identifiers into a table index."""
    h = sp_pc * 0x9E3779B1 ^ cqip_pc * 0x85EBCA77 ^ reg * 0xC2B2AE3D
    h ^= h >> 13
    return h & mask


class ValuePredictor:
    """Base class keeping the hit/miss accounting used for Figure 9a."""

    name = "base"

    def __init__(self) -> None:
        self.predictions = 0
        self.hits = 0

    def predict(
        self, sp_pc: int, cqip_pc: int, reg: int, base, lookahead: int = 1
    ) -> Optional[int]:
        """Predicted live-in value given the parent's value ``base``.

        ``lookahead`` counts in-flight instances of the pair for table
        predictors that extrapolate from the last *committed* value.
        Returns None when the predictor has no information yet.
        """
        raise NotImplementedError

    def train(self, sp_pc: int, cqip_pc: int, reg: int, base, actual) -> None:
        """Feed back the validated (spawn-time base, live-in value) pair."""
        raise NotImplementedError

    def record(self, correct: bool) -> None:
        """Account one live-in prediction outcome."""
        self.predictions += 1
        if correct:
            self.hits += 1

    @property
    def hit_rate(self) -> float:
        return self.hits / self.predictions if self.predictions else 0.0


class PerfectPredictor(ValuePredictor):
    """Oracle: every live-in is available at spawn (paper's upper bound)."""

    name = "perfect"

    def predict(
        self, sp_pc: int, cqip_pc: int, reg: int, base, lookahead: int = 1
    ) -> Optional[int]:
        return None  # the simulator special-cases perfection

    def train(self, sp_pc: int, cqip_pc: int, reg: int, base, actual) -> None:
        pass


class NeverPredictor(ValuePredictor):
    """No prediction: consumers always synchronise with producers."""

    name = "none"

    def predict(
        self, sp_pc: int, cqip_pc: int, reg: int, base, lookahead: int = 1
    ) -> Optional[int]:
        return None

    def train(self, sp_pc: int, cqip_pc: int, reg: int, base, actual) -> None:
        pass


class LastValuePredictor(ValuePredictor):
    """Copy predictor: the live-in equals the parent's value at spawn.

    This is exactly the Dynamic Multithreaded Processor's scheme the paper
    describes ("register values of the spawned thread are predicted to be
    the same as those of the spawning thread at spawn time").
    """

    name = "last"

    def predict(
        self, sp_pc: int, cqip_pc: int, reg: int, base, lookahead: int = 1
    ) -> Optional[int]:
        return base

    def train(self, sp_pc: int, cqip_pc: int, reg: int, base, actual) -> None:
        pass


class StridePredictor(ValuePredictor):
    """Increment/stride predictor [6][19] adapted to SpMT per [14].

    Each (pair, register) slot holds the stride between the parent's value
    at the spawning point and the live-in observed at the CQIP; prediction
    is ``base + stride``.  The stride only updates when two consecutive
    observations agree (two-delta rule).
    """

    name = "stride"

    def __init__(self, size_kb: int = 16, entry_bytes: int = 8):
        super().__init__()
        entries = max(1, size_kb * 1024 // entry_bytes)
        self.mask = (1 << (entries.bit_length() - 1)) - 1
        n = self.mask + 1
        self.strides: List[Optional[int]] = [None] * n
        self.last_delta: List[Optional[int]] = [None] * n

    def predict(
        self, sp_pc: int, cqip_pc: int, reg: int, base, lookahead: int = 1
    ) -> Optional[int]:
        index = _hash_index(sp_pc, cqip_pc, reg, self.mask)
        stride = self.strides[index]
        if stride is None or not isinstance(base, int):
            return None
        return base + stride

    def train(self, sp_pc: int, cqip_pc: int, reg: int, base, actual) -> None:
        index = _hash_index(sp_pc, cqip_pc, reg, self.mask)
        if not (isinstance(base, int) and isinstance(actual, int)):
            self.strides[index] = None
            self.last_delta[index] = None
            return
        delta = actual - base
        if delta == self.last_delta[index]:
            self.strides[index] = delta
        self.last_delta[index] = delta


class FCMPredictor(ValuePredictor):
    """Order-2 finite-context-method predictor [20].

    Level 1 maps the (pair, reg) slot to a compressed history of the last
    two observed live-ins; level 2 maps that history to the predicted next
    value.  The 16KB budget is split evenly between the two tables.  FCM
    cannot extrapolate an unseen future history, so the SpMT training lag
    degrades it relative to stride — matching the paper's observation that
    stride works best on this architecture.
    """

    name = "fcm"

    def __init__(self, size_kb: int = 16, entry_bytes: int = 8):
        super().__init__()
        entries = max(2, size_kb * 1024 // entry_bytes)
        l1 = entries // 2
        l2 = entries - l1
        self.l1_mask = (1 << (l1.bit_length() - 1)) - 1
        self.l2_mask = (1 << (l2.bit_length() - 1)) - 1
        self.histories: List[int] = [0] * (self.l1_mask + 1)
        self.values: List[Optional[int]] = [None] * (self.l2_mask + 1)

    @staticmethod
    def _fold(value) -> int:
        if isinstance(value, int):
            return value & 0xFFFF
        return hash(value) & 0xFFFF

    def _l2_index(self, history: int) -> int:
        h = history * 0x9E3779B1
        h ^= h >> 11
        return h & self.l2_mask

    def predict(
        self, sp_pc: int, cqip_pc: int, reg: int, base, lookahead: int = 1
    ) -> Optional[int]:
        slot = _hash_index(sp_pc, cqip_pc, reg, self.l1_mask)
        return self.values[self._l2_index(self.histories[slot])]

    def train(self, sp_pc: int, cqip_pc: int, reg: int, base, actual) -> None:
        slot = _hash_index(sp_pc, cqip_pc, reg, self.l1_mask)
        history = self.histories[slot]
        self.values[self._l2_index(history)] = actual
        self.histories[slot] = ((history << 16) | self._fold(actual)) & 0xFFFFFFFF


def make_value_predictor(name: str, size_kb: int = 16) -> ValuePredictor:
    """Build the predictor ``name``, one of :data:`VALUE_PREDICTORS`."""
    if name not in VALUE_PREDICTORS:
        raise ValueError(
            f"unknown value predictor {name!r}; "
            f"choose from {sorted(VALUE_PREDICTORS)}"
        )
    if name == "stride":
        return StridePredictor(size_kb)
    if name == "fcm":
        return FCMPredictor(size_kb)
    return {
        "perfect": PerfectPredictor,
        "none": NeverPredictor,
        "last": LastValuePredictor,
    }[name]()
