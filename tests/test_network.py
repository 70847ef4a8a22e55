import re

import numpy as np
import pytest
from oracles import per_agent_round as oracle
from oracles.network_checks import validate_double_stochasticity, validate_joint_connectivity

from banditpd.network import GraphSchedule, backbone_edges, build_mixing, generate_round_graph


def chain(lo, hi):
    return {(i, i + 1) for i in range(lo, hi)}


class TestBackbone:
    def test_round_one_covers_first_block(self):
        # n=100: block size 25, round 1 links agents 1..26.
        assert backbone_edges(100, 1) == chain(1, 26)

    def test_blocks_rotate_with_period_four(self):
        n = 100
        assert backbone_edges(n, 2) == chain(26, 51)
        assert backbone_edges(n, 3) == chain(51, 76)
        # The last block is the truncated remainder: chain indices 76..99.
        assert backbone_edges(n, 4) == chain(76, 100)
        assert backbone_edges(n, 5) == backbone_edges(n, 1)

    def test_small_network_blocks_clip(self):
        # n=5: block size 2; the last block would start past n-1.
        assert backbone_edges(5, 1) == {(1, 2), (2, 3)}
        assert backbone_edges(5, 2) == {(3, 4), (4, 5)}
        assert backbone_edges(5, 3) == set()
        assert backbone_edges(5, 4) == set()

    def test_single_agent_has_no_edges(self):
        assert backbone_edges(1, 1) == set()


class TestRoundGraph:
    def test_backbone_only_when_edge_prob_zero(self):
        sched = GraphSchedule(n=10, edge_prob=0.0, backbone=True, seed=1)
        assert generate_round_graph(sched, 1) == backbone_edges(10, 1)

    def test_deterministic_per_round(self):
        sched = GraphSchedule(n=12, edge_prob=0.4, backbone=True, seed=5)
        assert generate_round_graph(sched, 7) == generate_round_graph(sched, 7)

    def test_seed_changes_edges(self):
        a = GraphSchedule(n=12, edge_prob=0.4, backbone=False, seed=5)
        b = GraphSchedule(n=12, edge_prob=0.4, backbone=False, seed=6)
        rounds = [generate_round_graph(a, t) != generate_round_graph(b, t)
                  for t in range(1, 20)]
        assert any(rounds)

    def test_full_probability_gives_complete_graph(self):
        sched = GraphSchedule(n=6, edge_prob=1.0, backbone=False, seed=0)
        edges = generate_round_graph(sched, 3)
        assert len(edges) == 15

    def test_edges_are_ordered_pairs(self):
        sched = GraphSchedule(n=8, edge_prob=0.5, backbone=True, seed=2)
        for i, j in generate_round_graph(sched, 9):
            assert 1 <= i < j <= 8

    def test_validation(self):
        with pytest.raises(ValueError):
            GraphSchedule(n=0, edge_prob=0.2, backbone=True, seed=1)
        with pytest.raises(ValueError):
            GraphSchedule(n=4, edge_prob=1.2, backbone=True, seed=1)


class TestMixing:
    def test_frozen_single_edge(self):
        # n=4 with the single edge (1,2): off-diagonal weight 1/4, diagonals
        # keep the remainder; isolated agents self-loop with weight 1.
        W = build_mixing({(1, 2)}, 4)
        assert W[0, 1] == 0.25
        assert W[1, 0] == 0.25
        assert W[0, 0] == 0.75
        assert W[2, 2] == 1.0

    def test_floor_weight(self):
        # every positive weight of the uniform rule is at least 1/n
        sched = GraphSchedule(n=9, edge_prob=0.35, backbone=True, seed=3)
        for t in range(1, 50):
            W = build_mixing(generate_round_graph(sched, t), 9)
            assert W[W > 0.0].min() >= 1.0 / 9 - 1e-12

    def test_doubly_stochastic_fuzz(self):
        sched = GraphSchedule(n=9, edge_prob=0.35, backbone=True, seed=3)
        for t in range(1, 400):
            W = build_mixing(generate_round_graph(sched, t), 9)
            assert validate_double_stochasticity(W, tol=1e-12), f"round {t}"

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            build_mixing({(0, 1)}, 4)
        with pytest.raises(ValueError):
            build_mixing({(2, 2)}, 4)

    def test_validate_catches_row_sum(self):
        W = np.array([[0.5, 0.4], [0.5, 0.5]])
        assert not validate_double_stochasticity(W, tol=1e-12)
        with pytest.raises(ValueError):
            validate_double_stochasticity(np.ones((2, 3)), tol=1e-12)

    def test_consensus_contraction(self):
        # Mixing over a jointly-connected sequence collapses disagreement.
        n = 20
        sched = GraphSchedule(n=n, edge_prob=0.3, backbone=True, seed=8)
        rng = np.random.default_rng(0)
        Z = rng.uniform(-1, 1, size=(n, 3))
        for t in range(1, 2000):
            W = build_mixing(generate_round_graph(sched, t), n)
            Z = W @ Z
        spread = Z.max(axis=0) - Z.min(axis=0)
        assert np.all(spread < 1e-6)
        # Double stochasticity preserves the average exactly up to float error.
        assert np.allclose(Z.mean(axis=0), Z[0], atol=1e-6)


class TestJointConnectivity:
    def test_backbone_window_four_connects(self):
        sched = GraphSchedule(n=100, edge_prob=0.0, backbone=True, seed=0)
        graphs = [generate_round_graph(sched, t) for t in range(1, 101)]
        assert validate_joint_connectivity(graphs, B=4, n=100)

    def test_backbone_window_three_fails(self):
        sched = GraphSchedule(n=100, edge_prob=0.0, backbone=True, seed=0)
        graphs = [generate_round_graph(sched, t) for t in range(1, 101)]
        assert not validate_joint_connectivity(graphs, B=3, n=100)

    def test_isolated_vertex_detected(self):
        # Vertex 3 never appears in any edge.
        graphs = [{(1, 2)}, {(1, 2)}]
        assert not validate_joint_connectivity(graphs, B=2, n=3)

    def test_window_longer_than_history_rejected(self):
        with pytest.raises(ValueError):
            validate_joint_connectivity([{(1, 2)}], B=2, n=2)

    def test_single_agent_trivially_connected(self):
        assert validate_joint_connectivity([set(), set()], B=1, n=1)


class TestAgainstPairLoops:
    """Graph generation and mixing match the earlier pair-by-pair loops."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 31])
    @pytest.mark.parametrize("edge_prob", [0.0, 0.3, 1.0])
    def test_same_edges_and_weights(self, n, edge_prob):
        sched = GraphSchedule(n=n, edge_prob=edge_prob, backbone=n % 2 == 1, seed=n)
        for t in range(1, 13):
            edges = generate_round_graph(sched, t)
            assert edges == oracle.generate_round_graph(sched, t)
            assert np.array_equal(build_mixing(edges, n), oracle.build_mixing(edges, n))

    @pytest.mark.parametrize("edges", [{(1, 2), (0, 3)}, {(1, 2), (3, 3), (2, 5)}, {(2, 1), (1, 5)}])
    def test_same_bad_edge_error(self, edges):
        with pytest.raises(ValueError) as old:
            oracle.build_mixing(edges, 4)
        with pytest.raises(ValueError, match=f"^{re.escape(str(old.value))}$"):
            build_mixing(edges, 4)
