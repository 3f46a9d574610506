"""Communication graphs and consensus weight matrices.

Consensus steps mix neighbor values through a symmetric doubly-stochastic
matrix supported on the graph; its mixing rate is governed by the second
largest eigenvalue magnitude, which must be strictly below one (guaranteed
here by connectivity plus Metropolis weights).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import TopologyError

ERDOS_RENYI_MAX_RETRIES = 1000


@dataclass(frozen=True)
class CommGraph:
    """Undirected simple graph on agents 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise TopologyError("graph needs at least one node")
        canon = set()
        for u, v in self.edges:
            if u == v:
                raise TopologyError(f"self-loop at node {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise TopologyError(f"edge ({u}, {v}) out of range")
            canon.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(canon))
        adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted({v for (a, v) in _directed(self.edges) if a == u}))
            for u in range(self.n)
        )
        object.__setattr__(self, "_adj", adj)

    @staticmethod
    def complete(n: int) -> "CommGraph":
        return CommGraph(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))

    @staticmethod
    def path(n: int) -> "CommGraph":
        return CommGraph(n, frozenset((i, i + 1) for i in range(n - 1)))

    @staticmethod
    def cycle(n: int) -> "CommGraph":
        if n < 3:
            raise TopologyError("cycle needs at least 3 nodes")
        return CommGraph(n, frozenset((i, (i + 1) % n) for i in range(n)))

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._adj[i]

    def degree(self, i: int) -> int:
        return len(self._adj[i])

    def is_connected(self) -> bool:
        seen = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v in self.neighbors(u):
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return len(seen) == self.n


def _directed(edges: Iterable[tuple[int, int]]):
    for u, v in edges:
        yield u, v
        yield v, u


def metropolis_weights(g: CommGraph) -> np.ndarray:
    """Symmetric doubly-stochastic consensus weights supported on the graph.

    w_ij = 1 / (1 + max(deg_i, deg_j)) on edges, diagonal absorbs the rest.
    On a complete graph this reduces to the uniform matrix with every entry
    1/n.  Requires connectivity so that the mixing rate is below one.
    """
    if not g.is_connected():
        raise TopologyError("consensus weights need a connected graph")
    w = np.zeros((g.n, g.n), dtype=np.float64)
    for u, v in g.edges:
        w[u, v] = w[v, u] = 1.0 / (1.0 + max(g.degree(u), g.degree(v)))
    for u in range(g.n):
        w[u, u] = 1.0 - w[u].sum()
    return w


def spectral_gap(w: np.ndarray) -> float:
    """Second largest eigenvalue magnitude of a symmetric stochastic matrix."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.allclose(w, w.T, atol=1e-10):
        raise ValueError("expected a symmetric matrix")
    if w.shape[0] == 1:
        return 0.0
    eigs = np.sort(np.linalg.eigvalsh(w))
    return float(max(abs(eigs[-2]), abs(eigs[0])))


def diameter(g: CommGraph) -> int:
    """Longest shortest path, by BFS from every node."""
    if not g.is_connected():
        raise TopologyError("diameter of a disconnected graph is infinite")
    best = 0
    for src in range(g.n):
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in g.neighbors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        best = max(best, max(dist.values()))
    return best


def erdos_renyi(
    n: int, avg_degree: float, rng: np.random.Generator, max_retries: int = ERDOS_RENYI_MAX_RETRIES
) -> CommGraph:
    """Connected G(n, p) sample with p = avg_degree / (n - 1); resamples until
    connected (bounded retries)."""
    if n < 2:
        raise TopologyError("need at least two nodes")
    p = avg_degree / (n - 1)
    if not (0.0 < p <= 1.0):
        raise TopologyError(f"average degree {avg_degree} infeasible for n={n}")
    for _ in range(max_retries):
        mask = rng.random((n, n)) < p
        edges = frozenset(
            (i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]
        )
        g = CommGraph(n, edges)
        if g.is_connected():
            return g
    raise TopologyError(
        f"no connected sample in {max_retries} tries (n={n}, avg_degree={avg_degree})"
    )


def graph_from_spec(spec: dict, n: int) -> CommGraph:
    """Build a graph from a config mapping.

    Kinds: ``complete``; ``erdos_renyi`` with ``avg_degree`` and ``seed``;
    ``explicit`` with an ``edges`` list.
    """
    kind = spec.get("kind")
    if kind == "complete":
        return CommGraph.complete(n)
    if kind == "erdos_renyi":
        seed = spec.get("seed", 0)
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x6E6574)))
        return erdos_renyi(n, float(spec.get("avg_degree", 4)), rng)
    if kind == "explicit":
        edges = frozenset((int(u), int(v)) for u, v in spec["edges"])
        g = CommGraph(n, edges)
        if not g.is_connected():
            raise TopologyError("explicit graph is disconnected")
        return g
    raise TopologyError(f"unknown graph kind {kind!r}")
