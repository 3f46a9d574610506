"""Communication graphs and consensus weight matrices.

Consensus steps mix neighbor values through a symmetric doubly-stochastic
matrix supported on the graph; its mixing rate is governed by the second
largest eigenvalue magnitude, which must be strictly below one (guaranteed
here by connectivity plus Metropolis weights).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import REQUIRED, ConfigError, TopologyError, read_kind

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
                raise TopologyError(f"edges entry ({u}, {v}) is a self-loop")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise TopologyError(f"edges entry ({u}, {v}) names a node outside 0..{self.n - 1}")
            canon.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @staticmethod
    def complete(n: int) -> "CommGraph":
        return CommGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])

    @staticmethod
    def path(n: int) -> "CommGraph":
        return CommGraph(n, [(i, i + 1) for i in range(n - 1)])

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
    u, v = np.array(g.edges, dtype=int).reshape(-1, 2).T
    degree = np.bincount(np.concatenate((u, v)), minlength=g.n)
    w = np.zeros((g.n, g.n), dtype=np.float64)
    w[u, v] = w[v, u] = 1.0 / (1.0 + np.maximum(degree[u], degree[v]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
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


def erdos_renyi(n: int, avg_degree: float, rng: np.random.Generator) -> CommGraph:
    """Connected G(n, p) sample with p = avg_degree / (n - 1); resamples until
    connected (bounded retries)."""
    if n < 2:
        raise TopologyError("need at least two nodes")
    p = avg_degree / (n - 1)
    if not (0.0 < p <= 1.0):
        raise TopologyError(
            f"avg_degree {avg_degree} is infeasible for n={n}: avg_degree / (n - 1) "
            "must lie in (0, 1]"
        )
    for _ in range(ERDOS_RENYI_MAX_RETRIES):
        mask = rng.random((n, n)) < p
        g = CommGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]])
        if g.is_connected():
            return g
    raise TopologyError(
        f"no connected sample in {ERDOS_RENYI_MAX_RETRIES} tries (n={n}, avg_degree={avg_degree})"
    )


# Each graph kind's spec fields, name -> (JSON kind, default), read by errors.read_kind.
GRAPH_FIELDS = {
    "complete": {},
    "erdos_renyi": {"avg_degree": (float, 4.0), "seed": (int, 0)},
    "explicit": {"edges": (list[tuple[int, int]], REQUIRED)},
}


def graph_from_spec(spec: dict, n: int) -> CommGraph:
    """Build a graph on ``n`` agents from a config mapping (:data:`GRAPH_FIELDS`)."""
    kind, fields = read_kind("graph", spec, GRAPH_FIELDS)
    if kind == "erdos_renyi":
        seed = fields["seed"]
        if seed < 0:
            raise ConfigError(f"erdos_renyi seed must be a nonnegative integer, got {seed}")
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0x6E6574)))
        return erdos_renyi(n, fields["avg_degree"], rng)
    if kind == "explicit":
        g = CommGraph(n, fields["edges"])
        if not g.is_connected():
            raise TopologyError("explicit graph is disconnected")
        return g
    return CommGraph.complete(n)
