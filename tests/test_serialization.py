"""Pair-table JSON serialization round-trips."""

import pytest

from repro.spawning import (
    PairKind,
    SpawnPair,
    SpawnPairSet,
    load_pair_set,
    pair_set_from_dict,
    pair_set_to_dict,
    save_pair_set,
    select_profile_pairs,
)


def _sample_set():
    return SpawnPairSet(
        [
            SpawnPair(10, 20, PairKind.PROFILE, 0.97, 64.0, 64.0),
            SpawnPair(10, 30, PairKind.PROFILE, 0.99, 40.0, 40.0),
            SpawnPair(55, 56, PairKind.RETURN_POINT, 0.4, 35.0, 35.0),
        ],
        candidates_evaluated=7,
    )


class TestRoundTrip:
    def test_dict_round_trip_preserves_everything(self):
        original = _sample_set()
        restored = pair_set_from_dict(pair_set_to_dict(original))
        assert {p.key() for p in restored.all_pairs()} == {
            p.key() for p in original.all_pairs()
        }
        assert restored.candidates_evaluated == 7
        assert restored.primary(10).cqip_pc == original.primary(10).cqip_pc
        for sp in original.spawning_points():
            for a, b in zip(original.alternatives(sp), restored.alternatives(sp)):
                assert a.kind == b.kind
                assert a.reach_probability == b.reach_probability
                assert a.expected_distance == b.expected_distance

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "pairs.json"
        save_pair_set(_sample_set(), path)
        restored = load_pair_set(path)
        assert len(restored.all_pairs()) == 3

    def test_real_profile_round_trips(self, small_traces, tmp_path):
        pairs = select_profile_pairs(small_traces["vortex"])
        path = tmp_path / "vortex.json"
        save_pair_set(pairs, path)
        restored = load_pair_set(path)
        assert {p.key() for p in restored.all_pairs()} == {
            p.key() for p in pairs.all_pairs()
        }

    def test_version_checked(self):
        data = pair_set_to_dict(_sample_set())
        data["version"] = 99
        with pytest.raises(ValueError):
            pair_set_from_dict(data)

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda data: [data],  # top level is not an object
            lambda data: {"version": 1},  # no pairs
            lambda data: {**data, "pairs": 7},  # pairs not a list
            lambda data: {**data, "pairs": [{"sp_pc": 1}]},  # missing keys
            lambda data: {**data, "pairs": ["x"]},  # entry not an object
            lambda data: {**data, "pairs": [
                {**data["pairs"][0], "kind": "bogus"}
            ]},
        ],
        ids=["list", "no-pairs", "pairs-int", "short-entry", "str-entry",
             "bad-kind"],
    )
    def test_malformed_table_raises_value_error(self, mangle):
        with pytest.raises(ValueError):
            pair_set_from_dict(mangle(pair_set_to_dict(_sample_set())))
