"""Cache versioning: artifacts are invalidated when generator code changes.

Every cache key embeds two version components:

- :data:`SCHEMA_VERSION` — bumped by hand when the on-disk layout or the
  serialised form of an artifact kind changes incompatibly;
- :func:`generator_version` — a blake2b digest over the source text of
  every package that can influence a derived artifact (ISA, functional
  executor, workload generators, profiler, spawning policies, timing
  simulator, predictors, memory model, fault models, and the experiment
  code that builds pair sets and point payloads).  Editing any of those
  files changes the digest, so stale artifacts simply miss and are
  rebuilt — no manual cache flush is ever required after a code change.
"""

from __future__ import annotations

import functools
import hashlib
from pathlib import Path

#: Bump when the serialised artifact formats change incompatibly.
#: Version 3 stores a trace as ``(program, TraceColumns)``: flat columns
#: plus the read, write and pc indexes, with no per-field instruction
#: lists.  Older entries simply miss, and no decoder for them is kept.
SCHEMA_VERSION = 3

#: Sub-packages of ``repro`` whose source feeds the generator digest.
VERSIONED_PACKAGES = (
    "isa",
    "exec",
    "workloads",
    "profiling",
    "spawning",
    "cmt",
    "predictors",
    "mem",
    "faults",
    "experiments",
)


@functools.lru_cache(maxsize=1)
def generator_version() -> str:
    """Digest of all artifact-producing source code.

    Returns:
        A 16-hex-character blake2b digest, stable for a given checkout
        and different whenever any versioned package's source changes.
    """
    root = Path(__file__).resolve().parent.parent  # src/repro
    digest = hashlib.blake2b(digest_size=8)
    for package in VERSIONED_PACKAGES:
        package_dir = root / package
        if not package_dir.is_dir():
            continue
        for path in sorted(package_dir.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode("utf-8"))
            digest.update(path.read_bytes())
    return digest.hexdigest()
