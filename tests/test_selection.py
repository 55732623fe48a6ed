"""Profile-based spawning-pair selection tests (the paper's Section 3.1)."""

import pytest

from repro.spawning import (
    PairKind,
    ProfilePolicyConfig,
    SpawnPair,
    SpawnPairSet,
    select_profile_pairs,
)

CFG = ProfilePolicyConfig()


class TestThresholds:
    def test_probability_threshold_respected(self, small_traces):
        pairs = select_profile_pairs(small_traces["vortex"], CFG)
        for pair in pairs.all_pairs():
            if pair.kind is PairKind.PROFILE:
                assert pair.reach_probability >= CFG.min_probability

    def test_distance_window_respected(self, small_traces):
        pairs = select_profile_pairs(small_traces["vortex"], CFG)
        for pair in pairs.all_pairs():
            if pair.kind is PairKind.PROFILE:
                assert (
                    CFG.min_distance
                    <= pair.expected_distance
                    <= CFG.max_distance
                )

    def test_stricter_probability_selects_fewer(self, small_traces):
        loose = select_profile_pairs(
            small_traces["m88ksim"],
            ProfilePolicyConfig(min_probability=0.5, include_return_points=False),
        )
        strict = select_profile_pairs(
            small_traces["m88ksim"],
            ProfilePolicyConfig(min_probability=0.999, include_return_points=False),
        )
        assert strict.candidates_evaluated <= loose.candidates_evaluated

    def test_unknown_ordering_rejected(self, small_traces):
        with pytest.raises(ValueError):
            select_profile_pairs(
                small_traces["compress"],
                ProfilePolicyConfig(ordering="vibes"),
            )


class TestReturnPoints:
    def test_return_point_pairs_added_for_multi_caller_subroutine(self):
        """A subroutine called from several sites dilutes each call's
        reaching probability, which is exactly the case the paper adds
        return-point pairs for."""
        from repro.exec import run_program
        from repro.isa import ProgramBuilder

        b = ProgramBuilder()
        i = b.reg("i")
        with b.for_range(i, 0, 30):
            b.call("work")
            b.nop()
            b.call("work")
            b.nop()
            b.call("work")
        b.halt()
        with b.function("work"):
            x = b.reg("x")
            for _ in range(40):
                b.addi(x, x, 1)
        trace = run_program(b.build())
        pairs = select_profile_pairs(trace, CFG)
        kinds = {p.kind for p in pairs.all_pairs()}
        assert PairKind.RETURN_POINT in kinds

    def test_return_points_can_be_disabled(self, small_traces):
        cfg = ProfilePolicyConfig(include_return_points=False)
        pairs = select_profile_pairs(small_traces["vortex"], cfg)
        assert all(
            p.kind is not PairKind.RETURN_POINT for p in pairs.all_pairs()
        )

    def test_return_point_is_static_successor_of_call(self, small_traces):
        pairs = select_profile_pairs(small_traces["vortex"], CFG)
        call_sites = set(small_traces["vortex"].program.call_sites())
        for pair in pairs.all_pairs():
            if pair.kind is PairKind.RETURN_POINT:
                assert pair.sp_pc in call_sites
                assert pair.cqip_pc == pair.sp_pc + 1


class TestOrderingCriteria:
    def test_distance_ordering_sorts_by_distance(self, small_traces):
        pairs = select_profile_pairs(small_traces["m88ksim"], CFG)
        for sp in pairs.spawning_points():
            alts = [
                p for p in pairs.alternatives(sp) if p.kind is PairKind.PROFILE
            ]
            scores = [p.score for p in alts]
            assert scores == sorted(scores, reverse=True)

    @pytest.mark.parametrize("ordering", ["independent", "predictable"])
    def test_alternative_orderings_produce_pairs(self, small_traces, ordering):
        cfg = ProfilePolicyConfig(ordering=ordering)
        pairs = select_profile_pairs(small_traces["compress"], cfg)
        assert len(pairs) > 0


class TestDedupe:
    def test_dedupe_reduces_spawning_points(self, small_traces):
        with_dedupe = select_profile_pairs(small_traces["compress"], CFG)
        cfg_off = ProfilePolicyConfig(dedupe_mutual_sps=False)
        without = select_profile_pairs(small_traces["compress"], cfg_off)
        assert len(with_dedupe) <= len(without)


class TestSpawnPairSet:
    def _mk(self, sp, cqip, score):
        return SpawnPair(
            sp_pc=sp,
            cqip_pc=cqip,
            kind=PairKind.PROFILE,
            reach_probability=1.0,
            expected_distance=score,
            score=score,
        )

    def test_alternatives_ordered_by_score(self):
        pairs = SpawnPairSet([self._mk(1, 2, 10), self._mk(1, 3, 50)])
        assert [p.cqip_pc for p in pairs.alternatives(1)] == [3, 2]
        assert pairs.primary(1).cqip_pc == 3

    def test_primary_of_unknown_sp_is_none(self):
        assert SpawnPairSet([]).primary(7) is None

    def test_iteration_yields_primaries(self):
        pairs = SpawnPairSet([self._mk(1, 2, 10), self._mk(3, 4, 5)])
        assert len(list(pairs)) == 2
