"""Workload registry: build programs and execute them into traces by name.

``load_trace`` executes a workload on every call.  The memoized path is
``repro.experiments.framework.trace_for``: it reads traces through the
content-addressed :class:`~repro.cache.ArtifactCache`, keyed by
(workload, scale, dataset) plus the generating code's digest, so sweeps
and parallel workers share one functional execution per workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.exec import Trace, run_program
from repro.isa.program import Program
from repro.workloads.compress_wl import build_compress
from repro.workloads.gcc_wl import build_gcc
from repro.workloads.go_wl import build_go
from repro.workloads.ijpeg_wl import build_ijpeg
from repro.workloads.li_wl import build_li
from repro.workloads.m88ksim_wl import build_m88ksim
from repro.workloads.perl_wl import build_perl
from repro.workloads.vortex_wl import build_vortex


@dataclass(frozen=True)
class WorkloadSpec:
    """A named workload and the builder that generates its program.

    Builders take ``(scale, dataset)``: scale multiplies trip counts,
    dataset reshuffles the input data without changing the program text.
    """

    name: str
    builder: Callable[..., Program]
    description: str


#: The SpecInt95-analogue suite, in the paper's presentation order.
SPECINT95: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec("go", build_go, "branchy board evaluation"),
        WorkloadSpec("m88ksim", build_m88ksim, "CPU-simulator dispatch loop"),
        WorkloadSpec("gcc", build_gcc, "multi-phase pass pipeline over IR"),
        WorkloadSpec("compress", build_compress, "serial hash-chained loop"),
        WorkloadSpec("li", build_li, "recursive list interpreter"),
        WorkloadSpec("ijpeg", build_ijpeg, "regular block/FP kernels"),
        WorkloadSpec("perl", build_perl, "bytecode interpreter"),
        WorkloadSpec("vortex", build_vortex, "object-database transactions"),
    )
}


def workload_names() -> List[str]:
    """Return the suite members in canonical (paper) order."""
    return list(SPECINT95.keys())


def build_workload(
    name: str, scale: float = 1.0, dataset: str = "train"
) -> Program:
    """Build the named workload's program.

    Args:
        name: Workload name (see :func:`workload_names`).
        scale: Trip-count multiplier (1.0 = the default size).
        dataset: Input variant (``train``/``ref``) — reshuffles data,
            never changes the program text.

    Returns:
        The assembled :class:`~repro.isa.program.Program`.
    """
    try:
        spec = SPECINT95[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; choose from {workload_names()}"
        ) from None
    return spec.builder(scale, dataset)


def load_trace(
    name: str,
    scale: float = 1.0,
    dataset: str = "train",
    max_steps: Optional[int] = None,
) -> Trace:
    """Build and execute the named workload; return its dynamic trace.

    Each call executes the workload afresh; read a trace through
    :func:`repro.experiments.framework.trace_for` to share one execution.
    ``max_steps`` bounds the functional execution; a workload that does
    not halt within it raises :class:`~repro.errors.WorkloadError`.

    Args:
        name: Workload name (see :func:`workload_names`).
        scale: Trip-count multiplier.
        dataset: Input variant (``train``/``ref``).
        max_steps: Functional-execution step budget (None = unbounded).

    Returns:
        The executed :class:`~repro.exec.Trace`.
    """
    return run_program(build_workload(name, scale, dataset), max_steps=max_steps)


#: There is no trace memo to drop; kept for callers that copy it.
load_trace.cache_clear = lambda: None  # type: ignore[attr-defined]
