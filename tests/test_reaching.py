"""Reaching-probability estimators: analytical vs empirical vs hand math."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import run_program
from repro.isa import ProgramBuilder, assemble
from repro.profiling import BasicBlock, ControlFlowGraph, prune_cfg
from repro.profiling.reaching import (
    EmpiricalReachingProfile,
    MarkovReachingProfile,
    build_reaching_profile,
)


@pytest.fixture(scope="module")
def counted_loop():
    """10-iteration loop: reaching probabilities known in closed form."""
    trace = run_program(
        assemble("li r1 10\nloop: addi r2 r2 3\naddi r1 r1 -1\nbnez r1 loop\nhalt")
    )
    return trace, ControlFlowGraph.from_trace(trace)


class TestEmpirical:
    def test_loop_head_self_probability(self, counted_loop):
        trace, cfg = counted_loop
        profile = EmpiricalReachingProfile(cfg)
        head = cfg.block_of_pc(1)
        # from 10 header executions, 9 reach the header again
        assert profile.prob[head][head] == pytest.approx(0.9)
        assert profile.dist[head][head] == pytest.approx(3.0)

    def test_probabilities_bounded(self, small_traces):
        for trace in small_traces.values():
            cfg = ControlFlowGraph.from_trace(trace)
            profile = EmpiricalReachingProfile(cfg, max_lookahead=512)
            prob = np.array(profile.prob)
            assert np.all(prob >= 0.0)
            assert np.all(prob <= 1.0 + 1e-9)

    def test_distance_at_least_source_block_size(self, small_traces):
        cfg = ControlFlowGraph.from_trace(small_traces["compress"])
        profile = EmpiricalReachingProfile(cfg, max_lookahead=512)
        for s in range(len(cfg)):
            for d in range(len(cfg)):
                if profile.prob[s][d] > 0:
                    assert profile.dist[s][d] >= cfg.blocks[s].size

    def test_lookahead_caps_detection(self, counted_loop):
        trace, cfg = counted_loop
        profile = EmpiricalReachingProfile(cfg, max_lookahead=2)
        head = cfg.block_of_pc(1)
        assert profile.prob[head][head] == 0.0


class TestMarkov:
    def test_matches_hand_math_on_counted_loop(self, counted_loop):
        trace, cfg = counted_loop
        profile = MarkovReachingProfile(prune_cfg(cfg, coverage=1.0))
        head = cfg.block_of_pc(1)
        # the pruned chain sees the loop as Markovian with p(back)=0.9
        assert profile.prob[head][head] == pytest.approx(0.9, abs=1e-6)
        assert profile.dist[head][head] == pytest.approx(3.0, abs=1e-6)

    def test_agrees_with_empirical_on_markovian_trace(self, counted_loop):
        trace, cfg = counted_loop
        markov = MarkovReachingProfile(prune_cfg(cfg, coverage=1.0))
        empirical = EmpiricalReachingProfile(cfg)
        for s in range(len(cfg)):
            for d in range(len(cfg)):
                if empirical.prob[s][d] > 0.2:
                    assert markov.prob[s][d] == pytest.approx(
                        empirical.prob[s][d], abs=0.05
                    )

    def test_loose_agreement_on_real_workload(self, small_traces):
        cfg = ControlFlowGraph.from_trace(small_traces["vortex"])
        pruned = prune_cfg(cfg)
        markov = MarkovReachingProfile(pruned)
        empirical = EmpiricalReachingProfile(cfg)
        kept = sorted(pruned.kept)
        diffs = [
            abs(markov.prob[s][d] - empirical.prob[s][d])
            for s in kept
            for d in kept
            if empirical.prob[s][d] > 0.9
        ]
        assert diffs and float(np.mean(diffs)) < 0.25

    def test_probabilities_bounded(self, small_traces):
        cfg = ControlFlowGraph.from_trace(small_traces["m88ksim"])
        profile = MarkovReachingProfile(prune_cfg(cfg))
        prob = np.array(profile.prob)
        assert np.all(prob >= -1e-9)
        assert np.all(prob <= 1.0 + 1e-6)

    def test_without_numpy_names_the_method(self, counted_loop, monkeypatch):
        trace, cfg = counted_loop
        monkeypatch.setitem(sys.modules, "numpy", None)  # import fails
        with pytest.raises(ImportError, match='method="markov" needs numpy'):
            MarkovReachingProfile(prune_cfg(cfg, coverage=1.0))
        # The default estimator needs no numpy.
        assert EmpiricalReachingProfile(cfg).prob


class TestFactory:
    def test_build_by_name(self, counted_loop):
        trace, cfg = counted_loop
        assert isinstance(
            build_reaching_profile(cfg, "empirical"), EmpiricalReachingProfile
        )
        assert isinstance(
            build_reaching_profile(cfg, "markov"), MarkovReachingProfile
        )
        with pytest.raises(ValueError):
            build_reaching_profile(cfg, "tarot")


class TestPropertyRandomLoops:
    @given(
        trips=st.integers(min_value=2, max_value=30),
        body=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=20, deadline=None)
    def test_self_pair_statistics_on_random_counted_loops(self, trips, body):
        b = ProgramBuilder()
        i = b.reg("i")
        with b.for_range(i, 0, trips):
            for _ in range(body):
                b.nop()
        b.halt()
        trace = run_program(b.build())
        cfg = ControlFlowGraph.from_trace(trace)
        profile = EmpiricalReachingProfile(cfg)
        head_pc = min(cfg.by_pc.keys() & trace.program.loop_heads())
        head = cfg.block_of_pc(head_pc)
        assert profile.prob[head][head] == pytest.approx(
            (trips - 1) / trips, abs=1e-9
        )
        assert profile.dist[head][head] == pytest.approx(body + 2, abs=1e-9)


def _brute_force_reaching(cfg, max_lookahead):
    """Reference estimator: a direct scan of every walk, one numpy scalar
    update per observed pair, with no reuse between walks."""
    n = len(cfg)
    counts = np.zeros((n, n), dtype=np.int64)
    dist_sum = np.zeros((n, n), dtype=np.float64)
    occurrences = np.zeros(n, dtype=np.int64)
    sequence = cfg.sequence
    for k, (s, pos_s) in enumerate(sequence):
        occurrences[s] += 1
        seen = {}
        for blk, pos in sequence[k + 1:]:
            if pos >= pos_s + max_lookahead:
                break
            if blk == s:
                seen.setdefault(s, pos - pos_s)
                break
            seen.setdefault(blk, pos - pos_s)
        for blk, distance in seen.items():
            counts[s, blk] += 1
            dist_sum[s, blk] += distance
    with np.errstate(invalid="ignore", divide="ignore"):
        prob = counts / np.maximum(occurrences[:, None], 1)
        dist = np.where(counts > 0, dist_sum / np.maximum(counts, 1), np.nan)
    prob[occurrences == 0, :] = 0.0
    return prob, dist


class TestPropertyRandomSequences:
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=9), min_size=1,
                       max_size=8),
        walk=st.lists(st.integers(min_value=0, max_value=7), min_size=1,
                      max_size=150),
        max_lookahead=st.integers(min_value=1, max_value=80),
    )
    @settings(max_examples=150, deadline=None)
    def test_empirical_matches_brute_force(self, sizes, walk, max_lookahead):
        # Blocks that never occur in the walk must read zero, as must
        # pairs beyond the lookahead; every value must be bit-identical.
        n = len(sizes)
        walk = [blk % n for blk in walk]
        sequence = []
        position = 0
        for blk in walk:
            sequence.append((blk, position))
            position += sizes[blk]
        blocks = [
            BasicBlock(bid=bid, start_pc=10 * bid, size=size,
                       count=walk.count(bid))
            for bid, size in enumerate(sizes)
        ]
        edges = {}
        for edge in zip(walk, walk[1:]):
            edges[edge] = edges.get(edge, 0) + 1
        cfg = ControlFlowGraph(blocks, edges, sequence, position)
        profile = EmpiricalReachingProfile(cfg, max_lookahead=max_lookahead)
        prob, dist = _brute_force_reaching(cfg, max_lookahead)
        assert len(profile.prob) == len(profile.dist) == n
        for s in range(n):
            assert profile.prob[s].tobytes() == prob[s].tobytes()
            assert profile.dist[s].tobytes() == dist[s].tobytes()
