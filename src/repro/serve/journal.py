"""Crash-safe write-ahead journal for the serve daemon's job queue.

The journal is an append-only JSONL file (one JSON object per line)
paired with an atomically-replaced snapshot file.  Every queue state
transition is appended — and fsynced — *before* the in-memory state
changes take effect externally, so a ``kill -9`` at any instant loses
at most the record being written.  Recovery loads the snapshot, replays
the WAL on top of it, and tolerates exactly the failure modes a hard
kill can produce:

- a **truncated tail** (the process died mid-append): the partial final
  record is dropped and counted, nothing else is lost;
- a **corrupt record mid-file** (disk corruption, an editor, a bug):
  the original file is quarantined to ``<path>.corrupt`` for forensics
  and replay keeps the valid prefix;
- a **corrupt snapshot**: quarantined the same way, recovery restarts
  from the WAL alone.

``rotate`` compacts the pair: it atomically writes a new snapshot of
the folded state and truncates the WAL, bounding recovery time and
making "one finish record per job per journal stream" a crisp
exactly-once invariant.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, TextIO, Union

__all__ = ["JobJournal", "JournalRecovery"]


@dataclass
class JournalRecovery:
    """What :meth:`JobJournal.replay` found on disk.

    Attributes:
        snapshot: The last rotated snapshot (empty dict when none).
        records: WAL records appended since that snapshot, in order.
        dropped_tail: 1 when a partial final record was discarded (the
            signature of a ``kill -9`` mid-append), else 0.
        quarantined: Paths of corrupt files moved aside (snapshot and/or
            WAL), empty in the happy path.
    """

    snapshot: Dict[str, Any] = field(default_factory=dict)
    records: List[Dict[str, Any]] = field(default_factory=list)
    dropped_tail: int = 0
    quarantined: List[Path] = field(default_factory=list)


class JobJournal:
    """Append-only JSONL WAL plus an atomically-rotated snapshot.

    Args:
        path: The WAL file (``journal.jsonl``); the snapshot lives next
            to it as ``<path>.snapshot.json``.  Parent directories are
            created on demand.
        fsync: Whether appends fsync before returning (the durability
            the daemon's exactly-once guarantee rests on; tests may
            disable it for speed).
    """

    def __init__(self, path: Union[str, Path], fsync: bool = True) -> None:
        self.path = Path(path)
        self.snapshot_path = self.path.with_suffix(
            self.path.suffix + ".snapshot.json"
        )
        self.fsync = fsync
        self._handle: Optional[TextIO] = None

    # ------------------------------------------------------------------
    # Appending.
    # ------------------------------------------------------------------

    def append(self, record: Dict[str, Any]) -> None:
        """Append one record durably (write + flush + fsync).

        Args:
            record: A JSON-serialisable mapping; one line is written.
        """
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        self._handle.write(line + "\n")
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Close the append handle (reopened lazily by the next append)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # ------------------------------------------------------------------
    # Recovery.
    # ------------------------------------------------------------------

    def replay(self) -> JournalRecovery:
        """Load the snapshot and replay the WAL, hardened against damage.

        Returns:
            A :class:`JournalRecovery` with the snapshot, the ordered
            WAL records, and what (if anything) had to be dropped or
            quarantined.
        """
        recovery = JournalRecovery()
        recovery.snapshot = self._load_snapshot(recovery)
        if not self.path.exists():
            return recovery
        raw = self.path.read_bytes()
        text = raw.decode("utf-8", errors="replace")
        lines = text.split("\n")
        trailing_complete = text.endswith("\n")
        if trailing_complete:
            lines = lines[:-1]
        for index, line in enumerate(lines):
            if line == "":
                continue
            last = index == len(lines) - 1
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("record is not an object")
            except (json.JSONDecodeError, ValueError):
                if last and not trailing_complete:
                    # kill -9 mid-append: drop the partial tail record.
                    recovery.dropped_tail = 1
                else:
                    # Mid-file corruption: keep the valid prefix, park
                    # the original for forensics.
                    recovery.quarantined.append(
                        self._quarantine(self.path, copy=True)
                    )
                break
            recovery.records.append(record)
        return recovery

    def _load_snapshot(self, recovery: JournalRecovery) -> Dict[str, Any]:
        if not self.snapshot_path.exists():
            return {}
        try:
            data = json.loads(self.snapshot_path.read_text())
            if not isinstance(data, dict):
                raise ValueError("snapshot root is not an object")
            return data
        except (json.JSONDecodeError, ValueError, UnicodeDecodeError):
            recovery.quarantined.append(
                self._quarantine(self.snapshot_path, copy=False)
            )
            return {}

    def _quarantine(self, path: Path, copy: bool) -> Path:
        target = path.with_suffix(path.suffix + ".corrupt")
        if copy:
            shutil.copy2(path, target)
        else:
            os.replace(path, target)
        return target

    # ------------------------------------------------------------------
    # Rotation.
    # ------------------------------------------------------------------

    def rotate(self, snapshot: Dict[str, Any]) -> None:
        """Atomically persist ``snapshot`` and truncate the WAL.

        The snapshot is written with temp-file + ``os.replace`` (the
        repository's atomic-write idiom) *before* the WAL is truncated,
        so a crash between the two steps merely replays records that
        the snapshot already folded in — replay is idempotent on the
        job table.

        Args:
            snapshot: The folded state to persist (JSON-serialisable).
        """
        self.close()
        self.snapshot_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.snapshot_path.with_suffix(
            self.snapshot_path.suffix + f".tmp{os.getpid()}"
        )
        tmp.write_text(
            json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
        )
        with open(tmp, "r+", encoding="utf-8") as handle:
            if self.fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, self.snapshot_path)
        wal_tmp = self.path.with_suffix(
            self.path.suffix + f".tmp{os.getpid()}"
        )
        wal_tmp.write_text("")
        os.replace(wal_tmp, self.path)
