"""Clustered Speculative Multithreaded Processor simulator."""

from repro.cmt.config import ProcessorConfig
from repro.cmt.processor import (
    ClusteredProcessor,
    priming_sequence,
    simulate,
    single_thread_cycles,
)
from repro.cmt.spawn_runtime import SpawnRuntime
from repro.cmt.stats import SimulationStats
from repro.cmt.thread_unit import ThreadUnit

__all__ = [
    "ProcessorConfig",
    "ClusteredProcessor",
    "priming_sequence",
    "simulate",
    "single_thread_cycles",
    "SimulationStats",
    "SpawnRuntime",
    "ThreadUnit",
]
