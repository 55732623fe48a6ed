"""Content-addressed artifact cache: an in-process LRU front over disk.

The cache memoizes the expensive derived inputs of an experiment sweep —
sequential traces, spawning-pair selections, value-predictor priming
sequences, baseline cycle counts, and whole simulation points — so that
repeated sweeps (and parallel workers attacking the same sweep) never
re-derive an artifact.  Its memory front, an LRU of decoded artifacts,
is the pipeline's only in-process memo; a cache built without a
directory is that front alone.

Keys are blake2b digests of a canonical JSON encoding of
``(schema version, generator version, artifact kind, key fields)``; the
key fields carry every knob that can influence the artifact (workload
name, scale, dataset, policy parameters, processor-configuration
overrides).  Changing any knob — or any generator source file, via
:func:`~repro.cache.version.generator_version` — produces a different
key, so invalidation is automatic and stale entries are merely unused.

A trace artifact is the pickled program plus its
:class:`~repro.exec.columns.TraceColumns` — typed arrays, tuples of
small ints and the CSR position indexes — so decoding one runs no
per-instruction Python pass and rebuilds no index.

Writes are atomic (temp file + ``os.replace``) so concurrent workers can
share one cache directory; a duplicate write of the same key is
byte-identical by construction (serialisation is canonical), so the race
is benign.  An artifact that does not decode (a file torn by a crash or a
full disk, or trace columns that disagree in length or carry a broken
index) is a miss: the rebuild overwrites it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pickle
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Tuple, Union

__all__ = ["ARTIFACT_KINDS", "ArtifactCache", "CacheStats", "canonical_key_fields"]

#: Sentinel distinguishing "not cached" from a cached ``None``.
_MISSING = object()

#: Capacity of every cache's memory front.  Running all 17 figure
#: drivers serially at one scale derives 304 artifacts; none of the 48
#: that the LRU order evicts is read again.
MEMORY_ENTRIES = 256

#: Pickle protocol pinned for byte-stable artifacts across interpreter
#: minor versions that share the protocol.
_PICKLE_PROTOCOL = 4

#: What a codec raises on a truncated or corrupt artifact (JSON and
#: UTF-8 errors are ``ValueError``s).
_UNDECODABLE = (EOFError, ValueError, pickle.UnpicklingError)


def _canonical(value: Any) -> Any:
    """Reduce ``value`` to deterministically JSON-encodable primitives."""
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def canonical_key_fields(fields: Dict[str, Any]) -> str:
    """Return the canonical JSON encoding of key fields (sorted, compact)."""
    return json.dumps(_canonical(fields), sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Codecs: one (extension, dumps, loads) per artifact kind.
# ----------------------------------------------------------------------


def _trace_dumps(trace: Any) -> bytes:
    # One artifact per trace: the program and its TraceColumns — typed
    # arrays and tuples of small ints, indexes included, so nothing is
    # rebuilt after loading.  The columns' memos (live-in windows,
    # priming sequences) depend on access history and are left out.
    return pickle.dumps((trace.program, trace.columns), protocol=_PICKLE_PROTOCOL)


def _trace_loads(blob: bytes) -> Any:
    from repro.exec.trace import Trace

    # The program's instructions are the only GC-tracked objects a flat
    # trace decodes to, and none forms a reference cycle, so the cyclic
    # collector is paused while they are built (as ``Machine.run`` does):
    # in a serve job process a collection would walk the daemon's
    # inherited heap.  The caller's state is restored.  Trace() checks
    # the columns against each other and the program and raises
    # ValueError on a mismatch, so a corrupt blob is a miss.
    collecting = gc.isenabled()
    gc.disable()
    try:
        program, columns = pickle.loads(blob)
    finally:
        if collecting:
            gc.enable()
    return Trace(program, columns)


def _pairs_dumps(pairs: Any) -> bytes:
    from repro.spawning import pair_set_to_dict

    return json.dumps(
        pair_set_to_dict(pairs), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def _pairs_loads(blob: bytes) -> Any:
    from repro.spawning import pair_set_from_dict

    return pair_set_from_dict(json.loads(blob.decode("utf-8")))


def _json_dumps(value: Any) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _json_loads(blob: bytes) -> Any:
    return json.loads(blob.decode("utf-8"))


def _prime_loads(blob: bytes) -> Any:
    # A priming sequence is a JSON array of ``[sp_pc, cqip_pc, reg, base,
    # actual]`` entries; decode them back to the tuples it was built of.
    return [tuple(entry) for entry in _json_loads(blob)]


#: kind -> (file extension, dumps, loads).
_CODECS: Dict[str, Tuple[str, Callable[[Any], bytes], Callable[[bytes], Any]]] = {
    "trace": ("pkl", _trace_dumps, _trace_loads),
    "pairs": ("json", _pairs_dumps, _pairs_loads),
    "prime": ("json", _json_dumps, _prime_loads),
    "baseline": ("json", _json_dumps, _json_loads),
    "point": ("json", _json_dumps, _json_loads),
}

#: Every artifact kind the cache stores, in codec-table order.
ARTIFACT_KINDS = tuple(_CODECS)


def _check_kind(kind: str) -> None:
    """Raise ``KeyError`` unless ``kind`` is an artifact kind."""
    if kind not in _CODECS:
        raise KeyError(
            f"unknown artifact kind {kind!r}; choose from {list(_CODECS)}"
        )


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`ArtifactCache` instance."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    puts: int = 0

    @property
    def hits(self) -> int:
        """Total lookups served from memory or disk."""
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        """Total lookups (hits plus misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """Return the flat JSON-friendly counters (for bench reports)."""
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "puts": self.puts,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass
class _DiskKind:
    """Aggregate on-disk footprint of one artifact kind."""

    entries: int = 0
    bytes: int = 0


class ArtifactCache:
    """Content-addressed artifact store: an LRU memory front over disk.

    Args:
        root: Cache directory (created on demand).  Artifacts live in one
            subdirectory per kind, named ``<digest>.<ext>``.  None makes
            a memory-only cache: the front of :data:`MEMORY_ENTRIES`
            decoded artifacts, with no file behind it.

    The public surface is :meth:`get_or_create` — look up an artifact by
    its key fields and build-and-store it on a miss — plus the
    introspection helpers backing ``repro cache {stats,clear,warm}``.
    """

    def __init__(self, root: Optional[Union[str, Path]]) -> None:
        self.root = None if root is None else Path(root)
        self._memory: "OrderedDict[Tuple[str, str], Any]" = OrderedDict()
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Keys and paths.
    # ------------------------------------------------------------------

    def key(self, kind: str, **fields: Any) -> str:
        """Return the content digest of (schema, generator, kind, fields)."""
        from repro.cache.version import SCHEMA_VERSION, generator_version

        _check_kind(kind)
        payload = canonical_key_fields(
            {
                "schema": SCHEMA_VERSION,
                "generator": generator_version(),
                "kind": kind,
                "fields": fields,
            }
        )
        return hashlib.blake2b(
            payload.encode("utf-8"), digest_size=16
        ).hexdigest()

    def path(self, kind: str, key: str) -> Path:
        """Return the on-disk location of the artifact ``(kind, key)``.

        Raises:
            ValueError: the cache is memory-only.
        """
        if self.root is None:
            raise ValueError("a memory-only artifact cache has no files")
        ext = _CODECS[kind][0]
        return self.root / kind / f"{key}.{ext}"

    # ------------------------------------------------------------------
    # Lookup / store.
    # ------------------------------------------------------------------

    def lookup(self, kind: str, key: str) -> Any:
        """Return ``(kind, key)`` or the ``_MISSING`` sentinel; no build.

        An on-disk artifact that does not decode counts as missing, so
        :meth:`get_or_create` rebuilds it and :meth:`store` overwrites it.
        """
        memo_key = (kind, key)
        if memo_key in self._memory:
            self._memory.move_to_end(memo_key)
            self.stats.memory_hits += 1
            return self._memory[memo_key]
        if self.root is None:
            return _MISSING
        path = self.path(kind, key)
        if path.exists():
            try:
                value = _CODECS[kind][2](path.read_bytes())
            except _UNDECODABLE:
                return _MISSING
            self.stats.disk_hits += 1
            self.remember(kind, key, value)
            return value
        return _MISSING

    def store(self, kind: str, key: str, value: Any) -> Optional[Path]:
        """Store ``value`` under ``(kind, key)`` in the front and on disk.

        The disk write is atomic; a memory-only cache has none.

        Returns:
            The artifact's on-disk path (None for a memory-only cache).
        """
        path = None
        if self.root is not None:
            path = self.write_blob(kind, key, _CODECS[kind][1](value))
        self.stats.puts += 1
        self.remember(kind, key, value)
        return path

    def remember(self, kind: str, key: str, value: Any) -> None:
        """Put ``value`` in the LRU memory front only: no file, no ``puts``."""
        memo_key = (kind, key)
        self._memory[memo_key] = value
        self._memory.move_to_end(memo_key)
        if len(self._memory) > MEMORY_ENTRIES:
            self._memory.popitem(last=False)

    def read_blob(self, kind: str, key: str) -> Optional[bytes]:
        """Return the raw on-disk bytes of ``(kind, key)``, or None.

        Used by the network cache layer, which ships artifacts between
        hosts verbatim — the bytes are canonical by construction, so a
        transferred blob is byte-identical to a locally built one.
        Bypasses the LRU front and the hit/miss counters.

        Args:
            kind: Artifact kind (a codec name).
            key: Content digest (see :meth:`key`).

        Returns:
            The serialised artifact bytes, or None when absent.
        """
        path = self.path(kind, key)
        try:
            return path.read_bytes()
        except OSError:
            return None

    def write_blob(self, kind: str, key: str, blob: bytes) -> Path:
        """Write serialised artifact bytes under ``(kind, key)``; atomic.

        :meth:`store` writes through here.  A blob written directly (the
        network layer's pulls) touches neither the LRU front nor the
        ``puts`` counter: it only becomes a *hit* when :meth:`lookup`
        later decodes it.

        Args:
            kind: Artifact kind (a codec name).
            key: Content digest the bytes were stored under remotely.
            blob: The serialised artifact bytes.

        Returns:
            The artifact's on-disk path.
        """
        _check_kind(kind)
        path = self.path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
        tmp.write_bytes(blob)
        os.replace(tmp, path)
        return path

    def get_or_create(
        self, kind: str, build: Callable[[], Any], **fields: Any
    ) -> Any:
        """Return the cached artifact for ``fields``, building on a miss.

        Args:
            kind: Artifact kind (``trace``, ``pairs``, ``prime``,
                ``baseline`` or ``point``).
            build: Zero-argument callable producing the artifact.
            **fields: Every knob that influences the artifact's content.

        Returns:
            The cached (or freshly built and stored) artifact.
        """
        key = self.key(kind, **fields)
        value = self.lookup(kind, key)
        if value is not _MISSING:
            return value
        self.stats.misses += 1
        value = build()
        self.store(kind, key, value)
        return value

    # ------------------------------------------------------------------
    # Introspection / maintenance (the ``repro cache`` CLI).
    # ------------------------------------------------------------------

    def _kind_dirs(self, kinds: Iterable[str]) -> Iterator[Tuple[str, Path]]:
        """Yield ``(kind, directory)`` of each of ``kinds`` that has one."""
        if self.root is None:
            return
        for kind in kinds:
            kind_dir = self.root / kind
            if kind_dir.is_dir():
                yield kind, kind_dir

    def disk_summary(self) -> Dict[str, _DiskKind]:
        """Return per-kind entry counts and byte totals currently on disk."""
        summary: Dict[str, _DiskKind] = {}
        for kind, kind_dir in self._kind_dirs(_CODECS):
            agg = _DiskKind()
            for entry in kind_dir.iterdir():
                if entry.is_file() and ".tmp" not in entry.name:
                    agg.entries += 1
                    agg.bytes += entry.stat().st_size
            if agg.entries:
                summary[kind] = agg
        return summary

    def clear(self, kind: Optional[str] = None) -> int:
        """Delete cached files (one kind, or all) and empty the front.

        Returns the number of files deleted.

        Raises:
            KeyError: ``kind`` is not an artifact kind.
        """
        if kind is None:
            kinds = list(_CODECS)
        else:
            _check_kind(kind)
            kinds = [kind]
        removed = 0
        for _, kind_dir in self._kind_dirs(kinds):
            for entry in kind_dir.iterdir():
                if entry.is_file():
                    entry.unlink()
                    removed += 1
        self._memory.clear()
        return removed
