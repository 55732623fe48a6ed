"""Spawning-pair table serialization.

A profile-based scheme computes its pair table offline and ships it to the
processor (in the paper's setting, as marks in the binary or a hardware
table image).  These helpers persist a :class:`SpawnPairSet` as JSON so a
profile pass and a simulation can run in different processes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.spawning.pairs import PairKind, SpawnPair, SpawnPairSet

_FORMAT_VERSION = 1


def pair_set_to_dict(pairs: SpawnPairSet) -> dict:
    """Return the JSON-serialisable representation of a pair set."""
    return {
        "version": _FORMAT_VERSION,
        "candidates_evaluated": pairs.candidates_evaluated,
        "pairs": [
            {
                "sp_pc": p.sp_pc,
                "cqip_pc": p.cqip_pc,
                "kind": p.kind.value,
                "reach_probability": p.reach_probability,
                "expected_distance": p.expected_distance,
                "score": p.score,
            }
            for p in pairs.all_pairs()
        ],
    }


def pair_set_from_dict(data: dict) -> SpawnPairSet:
    """Return the pair set encoded by :func:`pair_set_to_dict`.

    Raises:
        ValueError: when ``data`` is not a pair table of this format (a
            pair that parses but names bad pcs is accepted; the
            validator reports it).
    """
    if not isinstance(data, dict):
        raise ValueError(
            f"pair table is a JSON {type(data).__name__}, not an object"
        )
    version = data.get("version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported pair-table version: {version!r}")
    try:
        pairs = [
            SpawnPair(
                sp_pc=entry["sp_pc"],
                cqip_pc=entry["cqip_pc"],
                kind=PairKind(entry["kind"]),
                reach_probability=entry["reach_probability"],
                expected_distance=entry["expected_distance"],
                score=entry["score"],
            )
            for entry in data["pairs"]
        ]
        return SpawnPairSet(
            pairs, candidates_evaluated=data.get("candidates_evaluated", 0)
        )
    except KeyError as exc:
        raise ValueError(f"pair table lacks the key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed pair table: {exc}") from None


def save_pair_set(pairs: SpawnPairSet, path: Union[str, Path]) -> None:
    """Write a pair table to ``path`` as JSON."""
    Path(path).write_text(json.dumps(pair_set_to_dict(pairs), indent=2))


def load_pair_set(path: Union[str, Path]) -> SpawnPairSet:
    """Read back a pair table written by :func:`save_pair_set`.

    Returns:
        The deserialised :class:`SpawnPairSet`.
    """
    return pair_set_from_dict(json.loads(Path(path).read_text()))
