"""Network-shared artifact cache: probe/pull/push blobs over a channel.

A remote worker starts with a cold (often throwaway) local cache
directory, but the coordinator sits on the sweep's warm shared cache.
:class:`NetworkCache` keeps the local :class:`~repro.cache.ArtifactCache`
as a read/write front and, on a local miss, *pulls* the blob from the
coordinator over the worker's frame channel — verifying the announced
blake2b digest before trusting a byte — and on a local build *pushes*
the fresh blob back so sibling workers (and the next sweep) hit.

This is safe precisely because the cache is content-addressed and its
serialisations canonical: a blob either matches its digest and is
byte-identical to what a local build would have produced, or it is
rejected and rebuilt locally.  Any protocol failure degrades the cache
to local-only — the sweep slows down but never fails because of the
cache channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Union

from repro.cache import ArtifactCache
from repro.cache.store import _MISSING
from repro.dist.protocol import FrameChannel, ProtocolError, blob_digest

__all__ = ["NetCacheStats", "NetworkCache"]


@dataclass
class NetCacheStats:
    """Counters of one worker's cache-channel traffic.

    Attributes:
        pulls: Blobs fetched from the coordinator's shared cache.
        pushes: Freshly built blobs uploaded to the shared cache.
        probe_misses: Pulls the coordinator answered with "not cached".
        rejected: Pulled blobs discarded for a digest mismatch.
        bytes_pulled: Total payload bytes received.
        bytes_pushed: Total payload bytes sent.
    """

    pulls: int = 0
    pushes: int = 0
    probe_misses: int = 0
    rejected: int = 0
    bytes_pulled: int = 0
    bytes_pushed: int = 0

    def to_dict(self) -> Dict[str, int]:
        """Return the flat JSON-friendly counters."""
        return {
            "pulls": self.pulls,
            "pushes": self.pushes,
            "probe_misses": self.probe_misses,
            "rejected": self.rejected,
            "bytes_pulled": self.bytes_pulled,
            "bytes_pushed": self.bytes_pushed,
        }


class NetworkCache(ArtifactCache):
    """An artifact cache whose misses fall through to the coordinator.

    Drop-in for :class:`~repro.cache.ArtifactCache` (the framework's
    ``set_cache`` and the engine's ``execute_point`` both accept it):
    lookups hit the local memory/disk front first; a local miss probes
    the coordinator with a ``cache_pull`` frame and, on a verified hit,
    lands the blob in the local store (the subsequent decode counts as
    a normal ``disk_hit``).  A full miss builds locally, stores, and
    pushes the canonical bytes back with a ``cache_push`` frame.

    Args:
        root: Local cache directory (the fast front).
        channel: The worker's frame channel to the coordinator.
    """

    def __init__(self, root: Union[str, Path], channel: FrameChannel) -> None:
        super().__init__(root)
        self._channel = channel
        self._net_ok = True
        self.net_stats = NetCacheStats()

    def get_or_create(
        self, kind: str, build: Callable[[], Any], **fields: Any
    ) -> Any:
        """Return the artifact, trying local → network → build.

        Args:
            kind: Artifact kind (a codec name).
            build: Zero-argument callable producing the artifact.
            **fields: Every knob that influences the artifact's content.

        Returns:
            The cached, pulled, or freshly built artifact.
        """
        key = self.key(kind, **fields)
        value = self.lookup(kind, key)
        if value is not _MISSING:
            return value
        if self._pull(kind, key):
            value = self.lookup(kind, key)
            if value is not _MISSING:
                return value
        self.stats.misses += 1
        value = build()
        self.store(kind, key, value)
        self._push(kind, key)
        return value

    # ------------------------------------------------------------------
    # Channel traffic (both degrade to local-only on protocol failure).
    # ------------------------------------------------------------------

    def _pull(self, kind: str, key: str) -> bool:
        """Fetch ``(kind, key)`` from the coordinator into the local store.

        Args:
            kind: Artifact kind.
            key: Content digest.

        Returns:
            True when a digest-verified blob landed locally.
        """
        if not self._net_ok:
            return False
        try:
            reply, blob = self._channel.request(
                {"kind": "cache_pull", "cache_kind": kind, "cache_key": key}
            )
        except (ProtocolError, OSError):
            self._net_ok = False
            return False
        if not reply.get("hit") or blob is None:
            self.net_stats.probe_misses += 1
            return False
        if blob_digest(blob) != reply.get("digest"):
            self.net_stats.rejected += 1
            return False
        self.net_stats.pulls += 1
        self.net_stats.bytes_pulled += len(blob)
        self.write_blob(kind, key, blob)
        return True

    def _push(self, kind: str, key: str) -> None:
        """Upload the just-stored blob of ``(kind, key)`` to the coordinator.

        Args:
            kind: Artifact kind.
            key: Content digest.
        """
        if not self._net_ok:
            return
        try:
            blob = self.path(kind, key).read_bytes()
            self._channel.request(
                {
                    "kind": "cache_push",
                    "cache_kind": kind,
                    "cache_key": key,
                    "digest": blob_digest(blob),
                },
                blob,
            )
            self.net_stats.pushes += 1
            self.net_stats.bytes_pushed += len(blob)
        except (ProtocolError, OSError):
            self._net_ok = False
