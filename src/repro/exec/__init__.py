"""Functional execution of programs into dynamic instruction traces.

A :class:`Trace` is its program plus its
:class:`~repro.exec.columns.TraceColumns`: flat typed columns and the
read, write and pc position indexes, all written by
:meth:`Machine.run` in its one execution loop.  :class:`DynInst` records
are a view derived from them on demand.
"""

from repro.errors import ExecutionError, WorkloadError
from repro.exec.machine import DEFAULT_MAX_STEPS, Machine, run_program
from repro.exec.trace import DynInst, Trace

__all__ = [
    "Machine",
    "run_program",
    "DEFAULT_MAX_STEPS",
    "ExecutionError",
    "WorkloadError",
    "DynInst",
    "Trace",
]
