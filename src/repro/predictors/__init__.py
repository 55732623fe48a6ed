"""Branch and value predictors.

Value predictors supply speculative-thread live-in register values at spawn
time (paper Section 4.3.1): tables are 16KB, indexed by hashing the SP pc,
the CQIP pc and the architectural register number.  The stride [6][19] and
context-based FCM [20] predictors from the paper are provided, plus perfect
and always-miss bounds and a last-value baseline.

The branch predictor is the per-thread-unit 10-bit gshare of Section 4.1;
its tables deliberately persist across the threads that run on a unit.
"""

from repro.predictors.branch import GsharePredictor
from repro.predictors.value import (
    VALUE_PREDICTORS,
    FCMPredictor,
    LastValuePredictor,
    NeverPredictor,
    PerfectPredictor,
    StridePredictor,
    ValuePredictor,
    make_value_predictor,
)

__all__ = [
    "GsharePredictor",
    "VALUE_PREDICTORS",
    "ValuePredictor",
    "PerfectPredictor",
    "NeverPredictor",
    "LastValuePredictor",
    "StridePredictor",
    "FCMPredictor",
    "make_value_predictor",
]
