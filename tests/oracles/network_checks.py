"""Reference checks of the network's two promises, for tests only: every
mixing matrix is doubly stochastic, and every window of B consecutive rounds
jointly connects the agents (criterion 06 and tests/test_network.py). The
package builds graphs and weights that meet both by construction and never
calls these.
"""

from __future__ import annotations

import numpy as np


def validate_double_stochasticity(W: np.ndarray, tol: float) -> bool:
    """True iff rows and columns sum to 1 within tol and entries >= -tol."""
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError("W must be square")
    return bool(
        np.all(np.abs(W.sum(axis=1) - 1.0) <= tol)
        and np.all(np.abs(W.sum(axis=0) - 1.0) <= tol)
        and np.all(W >= -tol)
    )


class _UnionFind:
    """Classic disjoint-set forest with path compression and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:  # compress
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


def _window_connected(n: int, window: list[set[tuple[int, int]]]) -> bool:
    uf = _UnionFind(n)
    for edges in window:
        for i, j in edges:
            uf.union(i - 1, j - 1)
    root = uf.find(0)
    return all(uf.find(v) == root for v in range(1, n))


def validate_joint_connectivity(graphs: list[set[tuple[int, int]]], B: int, n: int) -> bool:
    """True iff every union of B consecutive edge sets connects all n agents."""
    if B <= 0:
        raise ValueError("B must be positive")
    if len(graphs) < B:
        raise ValueError(f"need at least B={B} edge sets, got {len(graphs)}")
    return all(_window_connected(n, graphs[s : s + B]) for s in range(len(graphs) - B + 1))
