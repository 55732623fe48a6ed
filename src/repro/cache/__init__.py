"""Content-addressed artifact cache for experiment sweeps.

Sweeps over (workload x policy x configuration) re-derive the same
expensive inputs — sequential traces, spawning-pair selections,
value-predictor priming sequences, baseline cycle counts — on every run.
This package stores them once, keyed by a blake2b digest of every knob
that can change the artifact plus a digest of the generator source
itself (so code edits invalidate automatically).  See
:mod:`repro.cache.store` for the store and :mod:`repro.cache.version`
for the invalidation scheme.
"""

from repro.cache.store import (
    ARTIFACT_KINDS,
    ArtifactCache,
    CacheStats,
    canonical_key_fields,
)
from repro.cache.version import SCHEMA_VERSION, generator_version

__all__ = [
    "ARTIFACT_KINDS",
    "ArtifactCache",
    "CacheStats",
    "canonical_key_fields",
    "SCHEMA_VERSION",
    "generator_version",
]
