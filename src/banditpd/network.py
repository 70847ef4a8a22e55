"""Time-varying communication graphs and doubly stochastic mixing matrices.

Each round's undirected graph is random Bernoulli edges (seeded per round)
plus a deterministic backbone that cycles chain segments so every window of
four consecutive rounds contains the whole chain. Mixing weights follow the
uniform rule: 1/n per edge, diagonal absorbing the remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oracle import PURPOSE_EDGES, StreamFactory


@dataclass(frozen=True)
class GraphSchedule:
    """Generator parameters for the per-round edge sets.

    Agents are labeled 1..n. edge_prob is the Bernoulli probability for each
    unordered pair; with backbone=True the cyclic chain-quarter edges are
    added on top.
    """

    n: int
    edge_prob: float
    backbone: bool
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not (0.0 <= self.edge_prob <= 1.0):
            raise ValueError("edge_prob must be in [0, 1]")


def backbone_edges(n: int, t: int) -> set[tuple[int, int]]:
    """Chain edges (i, i+1) for i in the active quarter-block at round t.

    The chain-edge indices 1..n-1 are split into four blocks of size
    ceil(n/4) (last block truncated); block k is active when t = k mod 4.
    """
    if n < 2:
        return set()
    size = math.ceil(n / 4)
    k = (t - 1) % 4
    lo = k * size + 1
    hi = min((k + 1) * size, n - 1)
    return {(i, i + 1) for i in range(lo, hi + 1)}


def generate_round_graph(schedule: GraphSchedule, t: int) -> set[tuple[int, int]]:
    """Edge set at round t: Bernoulli(edge_prob) per pair plus backbone edges."""
    if t < 1:
        raise ValueError("t must be >= 1")
    n = schedule.n
    edges: set[tuple[int, int]] = set()
    if schedule.edge_prob > 0.0 and n > 1:
        rng = StreamFactory(schedule.seed).stream(t, PURPOSE_EDGES)
        draws = rng.uniform(size=n * (n - 1) // 2)  # one per pair i < j, row by row
        i, j = np.triu_indices(n, 1)
        hit = draws < schedule.edge_prob
        edges = set(zip((i[hit] + 1).tolist(), (j[hit] + 1).tolist()))
    if schedule.backbone:
        edges |= backbone_edges(n, t)
    return edges


def build_mixing(edges: set[tuple[int, int]], n: int) -> np.ndarray:
    """Uniform-weight mixing matrix: 1/n per edge, diagonal 1 - row sum.

    For a simple graph the diagonal is at least 1/n, so every positive entry
    is at least 1/n and the symmetric construction is doubly stochastic.
    """
    W = np.zeros((n, n))
    i, j = np.array(list(edges), dtype=np.int64).reshape(-1, 2).T
    bad = (i < 1) | (i > n) | (j < 1) | (j > n) | (i == j)
    if bad.any():
        k = np.argmax(bad)
        raise ValueError(f"edge ({i[k]}, {j[k]}) is not an unordered pair of distinct agents in 1..{n}")
    W[i - 1, j - 1] = W[j - 1, i - 1] = 1.0 / n
    np.fill_diagonal(W, 1.0 - W.sum(axis=1))
    return W
