"""Shared helpers of the benchmark: checkout paths, statistics, provenance.

Nothing here imports ``repro`` at module load, so the entry point can
report a missing program cleanly instead of failing on an import.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import platform
import signal
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Root of the checkout (the directory holding ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: The program's sources inside the checkout.
SRC = ROOT / "src"
#: Everything the benchmark writes lives under this directory.
WORK = ROOT / ".perfbench"
#: Recorded expected outputs (committed with the benchmark).
EXPECTED = Path(__file__).resolve().parent / "expected"

#: Workload size multiplier of the figure sweeps.
SCALE = 0.25
#: Workload size multiplier of the serve jobs: small jobs, so a run holds
#: many latency samples and the daemon stays well below saturation.
SERVE_SCALE = 0.05

#: A percentile is reported only when this many samples lie beyond it.
TAIL_BEYOND = 10


def program_present() -> bool:
    """Whether the checkout holds the program the benchmark drives."""
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> Dict[str, str]:
    """Environment for interpreters that import the program from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ----------------------------------------------------------------------
# Statistics.
# ----------------------------------------------------------------------


def percentile(samples: Sequence[float], q: float) -> float:
    """Return the linearly interpolated ``q``-th percentile (0..100).

    The inclusive definition: the 0th percentile is the smallest sample
    and the 100th the largest.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    xs = sorted(samples)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_allowed(count: int, q: float) -> bool:
    """Whether at least :data:`TAIL_BEYOND` of ``count`` samples lie beyond ``q``."""
    return count * (100.0 - q) / 100.0 >= TAIL_BEYOND


def tail_percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile, or None when too few samples lie beyond it."""
    if not tail_allowed(len(samples), q):
        return None
    return percentile(samples, q)


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    return float(statistics.median(values))


# ----------------------------------------------------------------------
# Host-speed probe.
# ----------------------------------------------------------------------

#: Duration of :func:`reference_work` on the host at nominal speed: one
#: vCPU of a 2.1 GHz Xeon guest, uncontended.
REF_NOMINAL_S = 0.0015
#: Seconds between two probe samples.
PROBE_INTERVAL_S = 0.04


def reference_work() -> int:
    """A fixed interpreter-bound computation (dict, list and int work)."""
    table: Dict[int, int] = {}
    ring = [0] * 64
    acc = 0
    for i in range(5000):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i
        ring[i & 63] += key
        acc ^= (key << 3) + ring[(i + 7) & 63]
    return acc


class SpeedProbe:
    """Samples the host's speed around timed work.

    The speed of a shared host drifts by tens of percent over seconds
    and minutes, on each vCPU separately, so two runs of the same code
    minutes apart can differ by more than a change under test.  The
    probe times :func:`reference_work`, which does not touch the
    program, close in time to the timed work: a batch unit interleaves
    it with its own work by a timer signal (:meth:`start`), the serve
    load generator calls :meth:`sample` in the gaps of its schedule.
    :meth:`nominal_clock` and :meth:`speed_near` turn measured times
    into the times they would have been at nominal host speed.

    Args:
        clock: Clock that times each reference run: wall time for a
            process alone on its CPU, thread CPU time for one that shares
            the CPUs with other processes (waiting for a CPU is not
            slowness of the host).
        stamp: Clock of the sample times (the clock that
            :meth:`nominal_clock` maps).
        spread_cpus: Take successive samples on each CPU in turn (for
            work that runs on all of them, as the serve daemon's does).
    """

    def __init__(
        self,
        clock: Callable[[], float],
        stamp: Callable[[], float] = time.perf_counter,
        spread_cpus: bool = False,
    ) -> None:
        self.clock = clock
        self.stamp = stamp
        self._cpus = sorted(os.sched_getaffinity(0)) if spread_cpus else []
        #: ``(stamp at the sample, reference seconds, sample seconds)``.
        self.samples: List[Tuple[float, float, float]] = []
        self._previous: Any = None
        self._busy = False

    def start(self) -> None:
        """Sample after every :data:`PROBE_INTERVAL_S` of this process's
        CPU time, from a timer signal, until :meth:`stop`."""
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        """Remove the timer and restore the previous handler."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        if self._previous is not None:
            signal.signal(signal.SIGPROF, self._previous)
            self._previous = None

    def _tick(self, signum: int, frame: Any) -> None:
        if not self._busy:  # a tick landing inside sample() is dropped
            self.sample()

    def sample(self) -> None:
        """Run and record one reference sample now."""
        self._busy = True
        try:
            entered = self.stamp()
            if self._cpus:
                os.sched_setaffinity(0, {self._cpus[len(self.samples) % len(self._cpus)]})
            begin = self.clock()
            reference_work()
            took = self.clock() - begin
            if self._cpus:
                os.sched_setaffinity(0, self._cpus)
            self.samples.append((entered, took, self.stamp() - entered))
        finally:
            self._busy = False

    def drop_during(self, busy: Sequence[Tuple[float, float]]) -> None:
        """Forget every sample that overlaps one of the ``(start, end)``
        intervals (stamp clock), so that the work the intervals time
        does not slow the samples that correct it."""
        self.samples = [
            s for s in self.samples
            if not any(start < s[0] + s[2] and s[0] < end for start, end in busy)
        ]

    def window(self, start: float, end: float) -> List[Tuple[float, float, float]]:
        """Samples taken in ``[start, end)``."""
        return [s for s in self.samples if start <= s[0] < end]

    def nominal_clock(self) -> Callable[[float], float]:
        """Map stamp-clock readings onto a clock that runs at nominal speed.

        The nominal clock stands still while a sample runs and otherwise
        advances at the speed the latest sample measured (the first
        sample's speed before it), so the difference of two mapped
        readings is the interval at nominal host speed without the
        probe's own time.
        """
        starts = [s[0] for s in self.samples]
        ends = [s[0] + s[2] for s in self.samples]
        rates = [REF_NOMINAL_S / s[1] for s in self.samples]
        at_end = []  # nominal reading at the end of each sample
        reading = 0.0
        for index, start in enumerate(starts):
            if index:
                reading += (start - ends[index - 1]) * rates[index - 1]
            at_end.append(reading)

        def clock(t: float) -> float:
            index = bisect.bisect_right(starts, t) - 1
            if index < 0:
                return (t - starts[0]) * rates[0] if starts else t
            return at_end[index] + max(0.0, t - ends[index]) * rates[index]

        return clock

    def speed_near(self, start: float, end: float) -> float:
        """Mean speed of the samples in ``[start, end)``, widened on both
        sides until it holds at least four samples (or all of them)."""
        pad = 0.0
        while True:
            inside = self.window(start - pad, end + pad)
            if len(inside) >= min(4, len(self.samples)):
                return self.speed(inside) if inside else 1.0
            pad = max(2 * pad, PROBE_INTERVAL_S)

    @staticmethod
    def speed(samples: Sequence[Tuple[float, float, float]]) -> float:
        """Mean sampled speed relative to nominal (below 1: a slow host)."""
        return statistics.fmean(REF_NOMINAL_S / s[1] for s in samples)


# ----------------------------------------------------------------------
# Provenance.
# ----------------------------------------------------------------------


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git.

    A checkout that is not a git repository reports ``unknown``.
    """
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        packed = git / "packed-refs"
        for line in packed.read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> Dict[str, Any]:
    """Provenance stamp of one result (the BENCH_*.json fields plus run knobs)."""
    from repro.cache import generator_version

    return {
        "generator_version": generator_version(),
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count() or 1,
        "scale": SERVE_SCALE if workload == "serve_mix" else SCALE,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workload": workload,
    }


# ----------------------------------------------------------------------
# Expected outputs.
# ----------------------------------------------------------------------


def expected_path(name: str) -> Path:
    """Path of one recorded expected-output file."""
    return EXPECTED / f"{name}.json"


def load_expected(name: str) -> Dict[str, Any]:
    """Load one recorded expected-output file."""
    return json.loads(expected_path(name).read_text())


def write_expected(name: str, payload: Dict[str, Any]) -> Path:
    """Write one expected-output file (canonical, diff-friendly JSON)."""
    path = expected_path(name)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


class Checker:
    """Counts operations and failures; a failure is any mismatch or error."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        """Record one operation; ``what`` describes it when it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        """Number of failed operations."""
        return len(self.failures)


def metric(value: float, unit: str) -> Dict[str, Any]:
    """One metric entry of the result line."""
    return {"value": value, "unit": unit}
