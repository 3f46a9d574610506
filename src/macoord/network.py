"""Communication graphs and consensus weight matrices.

Consensus steps mix neighbor values through a symmetric doubly-stochastic
matrix supported on the graph; its mixing rate is governed by the second
largest eigenvalue magnitude, which must be strictly below one (guaranteed
here by connectivity plus Metropolis weights).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TopologyError, check_fields, config_field, config_value

ERDOS_RENYI_MAX_RETRIES = 1000
UNREACHABLE = -1  # hop distance between nodes in different components


@dataclass(frozen=True)
class CommGraph:
    """Undirected simple graph on agents 0..n-1.  Any iterable of pairs is
    accepted as ``edges`` and stored as the sorted tuple of distinct (u, v),
    u < v."""

    n: int
    edges: tuple[tuple[int, int], ...]

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
        object.__setattr__(self, "edges", tuple(sorted(canon)))
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "_adj", tuple(tuple(sorted(a)) for a in adj))

    @staticmethod
    def complete(n: int) -> "CommGraph":
        return CommGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])

    @staticmethod
    def path(n: int) -> "CommGraph":
        return CommGraph(n, [(i, i + 1) for i in range(n - 1)])

    @staticmethod
    def cycle(n: int) -> "CommGraph":
        if n < 3:
            raise TopologyError("cycle needs at least 3 nodes")
        return CommGraph(n, [(i, (i + 1) % n) for i in range(n)])

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._adj[i]

    def degree(self, i: int) -> int:
        return len(self._adj[i])

    def is_connected(self) -> bool:
        return bool((hop_distances(self) != UNREACHABLE).all())


def hop_distances(g: CommGraph) -> np.ndarray:
    """``(n, n)`` int matrix of shortest-path hop counts, :data:`UNREACHABLE`
    between components; one breadth-first sweep from every node at once,
    each hop one boolean product with the adjacency."""
    adj = np.eye(g.n, dtype=bool)
    adj[tuple(np.array(g.edges, dtype=int).reshape(-1, 2).T)] = True
    adj |= adj.T
    dist = np.where(adj, 1, UNREACHABLE) - np.eye(g.n, dtype=int)
    reached = adj
    for hops in range(2, g.n):
        grown = reached @ adj
        if (grown == reached).all():
            break
        dist[grown & ~reached] = hops
        reached = grown
    return dist


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
    """Longest shortest path: the largest of :func:`hop_distances`."""
    dist = hop_distances(g)
    if (dist == UNREACHABLE).any():
        raise TopologyError("diameter of a disconnected graph is infinite")
    return int(dist.max())


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
        g = CommGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]])
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
        check_fields("graph", spec, ("kind",))
        return CommGraph.complete(n)
    if kind == "erdos_renyi":
        check_fields("graph", spec, ("kind", "avg_degree", "seed"))
        seed = config_field(spec, "seed", int, 0)
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0x6E6574)))
        return erdos_renyi(n, config_field(spec, "avg_degree", float, 4.0), rng)
    if kind == "explicit":
        check_fields("graph", spec, ("kind", "edges"))
        pairs = [(u, v) for u, v in spec["edges"]]
        g = CommGraph(n, [tuple(config_value("edges", x, int) for x in e) for e in pairs])
        if not g.is_connected():
            raise TopologyError("explicit graph is disconnected")
        return g
    raise TopologyError(f"unknown graph kind {kind!r}")
