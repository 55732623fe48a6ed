"""Closed-form validation of the Markov reaching/distance mathematics.

Hand-computable chains verify the absorbing-chain first-passage
probabilities and the taboo-Green's-function distance formula the
:class:`MarkovReachingProfile` implements.
"""

import pytest

from repro.exec import run_program
from repro.isa import assemble
from repro.profiling import ControlFlowGraph, prune_cfg
from repro.profiling.reaching import MarkovReachingProfile


def _profile(text):
    trace = run_program(assemble(text))
    cfg = ControlFlowGraph.from_trace(trace)
    return cfg, MarkovReachingProfile(prune_cfg(cfg, coverage=1.0))


class TestLinearChain:
    """A -> B -> C straight line: everything is certain."""

    def test_probabilities_and_distances(self):
        # three blocks separated by jumps (single execution)
        cfg, profile = _profile(
            "li r1 1\njump b\nb: li r2 2\njump c\nc: li r3 3\nhalt"
        )
        a = cfg.block_of_pc(0)
        b = cfg.block_of_pc(2)
        c = cfg.block_of_pc(4)
        assert profile.prob[a][b] == pytest.approx(1.0)
        assert profile.prob[a][c] == pytest.approx(1.0)
        assert profile.prob[c][a] == pytest.approx(0.0)
        # distance = instructions from block start to block start
        assert profile.dist[a][b] == pytest.approx(2.0)
        assert profile.dist[a][c] == pytest.approx(4.0)


class TestGeometricLoop:
    """A loop taken with probability p: reach-self = p, and the expected
    distance of the continuation point mixes the geometric dwell time."""

    def test_loop_body_statistics(self):
        # 8 iterations: p(back) = 7/8 per header visit
        cfg, profile = _profile(
            "li r1 8\nloop: addi r2 r2 1\naddi r1 r1 -1\nbnez r1 loop\nhalt"
        )
        head = cfg.block_of_pc(1)
        exit_block = cfg.block_of_pc(4)
        p = 7 / 8
        assert profile.prob[head][head] == pytest.approx(p, abs=1e-9)
        # The paper's constraint: the source may appear only as the FIRST
        # element of a sequence, so walks that re-enter the header die.
        # Reaching the exit therefore requires leaving immediately (1/8) —
        # this is exactly why loop-continuation CQIPs score poorly under
        # the profile policy.
        assert profile.prob[head][exit_block] == pytest.approx(
            1 - p, abs=1e-9
        )
        # dist(head -> head) = body size = 3
        assert profile.dist[head][head] == pytest.approx(3.0, abs=1e-9)
        # conditioned on not re-entering the header: one body pass
        assert profile.dist[head][exit_block] == pytest.approx(3.0, abs=1e-6)


class TestBranchDiamond:
    """A 50/50 diamond: distances average the two arm lengths."""

    def test_diamond_distance_mixes_arms(self):
        # arm1: 1 extra instruction; arm2: 3 extra instructions
        text = (
            "li r3 4\n"
            "loop: andi r1 r3 1\n"
            "beqz r1 even\n"
            "addi r2 r2 1\n"
            "jump join\n"
            "even: addi r2 r2 1\naddi r2 r2 1\naddi r2 r2 1\n"
            "join: addi r3 r3 -1\n"
            "bnez r3 loop\n"
            "halt"
        )
        cfg, profile = _profile(text)
        head = cfg.block_of_pc(1)
        join = cfg.block_of_pc(8)
        assert profile.prob[head][join] == pytest.approx(1.0, abs=1e-9)
        # head block = (andi, beqz) = 2 instrs; taken arm = 3 instrs of
        # `even`, fall-through arm = (addi, jump) = 2 instrs; both arms
        # observed twice -> expected 2 + (3 + 2)/2 = 4.5
        assert profile.dist[head][join] == pytest.approx(4.5, abs=1e-6)
