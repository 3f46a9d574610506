"""Graphs, Metropolis consensus weights, and spectral gaps."""

import itertools

import numpy as np
import pytest

from macoord.errors import ConfigError, TopologyError
from macoord.network import (
    UNREACHABLE,
    CommGraph,
    diameter,
    erdos_renyi,
    graph_from_spec,
    hop_distances,
    metropolis_weights,
    spectral_gap,
)


def _cycle(n):
    if n < 3:
        raise TopologyError("cycle needs at least 3 nodes")
    return CommGraph(n, [(i, (i + 1) % n) for i in range(n)])


def _neighbors(g, i):
    return tuple(sorted(v if u == i else u for u, v in g.edges if i in (u, v)))


def test_graph_construction_and_canonical_edges():
    g = CommGraph(3, frozenset({(2, 1), (0, 1)}))
    assert g.edges == ((0, 1), (1, 2))
    assert _neighbors(g, 1) == (0, 2)
    assert len(_neighbors(g, 1)) == 2
    assert g.is_connected()


def test_graph_rejects_bad_edges():
    with pytest.raises(TopologyError):
        CommGraph(2, frozenset({(0, 0)}))
    with pytest.raises(TopologyError):
        CommGraph(2, frozenset({(0, 5)}))
    with pytest.raises(TopologyError):
        CommGraph(0, frozenset())


def test_standard_topologies():
    assert len(CommGraph.complete(5).edges) == 10
    assert diameter(CommGraph.complete(5)) == 1
    assert diameter(CommGraph.path(6)) == 5
    assert diameter(_cycle(6)) == 3
    assert not CommGraph(3, frozenset({(0, 1)})).is_connected()
    with pytest.raises(TopologyError):
        _cycle(2)


def _star(n):
    return CommGraph(n, [(0, i) for i in range(1, n)])


@pytest.mark.parametrize(
    "g, expect",
    [
        (CommGraph.path(4), [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]]),
        (_cycle(5), [[min(abs(i - j), 5 - abs(i - j)) for j in range(5)] for i in range(5)]),
        (_star(4), [[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]]),
        (CommGraph.complete(4), 1 - np.eye(4, dtype=int)),
        (CommGraph(1, ()), [[0]]),
        (
            CommGraph(5, [(0, 1), (2, 3), (3, 4)]),
            [[0, 1, -1, -1, -1], [1, 0, -1, -1, -1], [-1, -1, 0, 1, 2],
             [-1, -1, 1, 0, 1], [-1, -1, 2, 1, 0]],
        ),
        (CommGraph(3, ()), np.where(np.eye(3, dtype=bool), 0, -1)),
    ],
    ids=["path", "cycle", "star", "complete", "single", "two-components", "edgeless"],
)
def test_hop_distances(g, expect):
    dist = hop_distances(g)
    assert UNREACHABLE == -1
    assert dist.dtype.kind == "i"
    np.testing.assert_array_equal(dist, expect)
    connected = (dist != UNREACHABLE).all()
    assert g.is_connected() == connected
    if connected:
        assert diameter(g) == dist.max()
    else:
        with pytest.raises(TopologyError):
            diameter(g)


def test_diameter_matches_pairwise_oracle():
    # independent oracle: shortest paths by brute-force path enumeration
    g = CommGraph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)}))

    def shortest(u, v):
        if u == v:
            return 0
        for length in range(1, 6):
            for mid in itertools.permutations(set(range(5)) - {u, v}, length - 1):
                walk = (u,) + mid + (v,)
                if all(
                    (min(a, b), max(a, b)) in g.edges
                    for a, b in zip(walk, walk[1:])
                ):
                    return length
        raise AssertionError("disconnected")

    expect = max(shortest(u, v) for u in range(5) for v in range(5))
    assert diameter(g) == expect


def test_metropolis_weights_structure():
    g = CommGraph.path(4)
    w = metropolis_weights(g)
    np.testing.assert_allclose(w, w.T, atol=0)
    np.testing.assert_allclose(w.sum(axis=1), np.ones(4), atol=1e-15)
    assert w.min() >= 0.0
    # non-edges carry no weight
    assert w[0, 2] == 0.0 and w[0, 3] == 0.0
    # edge (0,1): degrees 1 and 2 -> weight 1/3
    assert w[0, 1] == pytest.approx(1 / 3, abs=1e-15)


def _loop_metropolis_weights(g):
    """The per-edge loop the array form must equal bit for bit."""
    w = np.zeros((g.n, g.n))
    for u, v in g.edges:
        w[u, v] = w[v, u] = 1.0 / (1.0 + max(len(_neighbors(g, u)), len(_neighbors(g, v))))
    for u in range(g.n):
        w[u, u] = 1.0 - w[u].sum()
    return w


def test_metropolis_weights_equal_loop_reference():
    rng = np.random.default_rng(11)
    graphs = [CommGraph(1, ()), CommGraph.path(2), _star(7), _cycle(9), CommGraph.complete(20)]
    graphs += [erdos_renyi(n, 2.0, rng) for n in (3, 8, 20) for _ in range(3)]
    for g in graphs:
        assert metropolis_weights(g).tobytes() == _loop_metropolis_weights(g).tobytes()


def test_metropolis_on_complete_graph_is_uniform():
    w = metropolis_weights(CommGraph.complete(6))
    np.testing.assert_allclose(w, np.full((6, 6), 1 / 6), atol=1e-15)


def test_metropolis_requires_connectivity():
    with pytest.raises(TopologyError):
        metropolis_weights(CommGraph(4, frozenset({(0, 1), (2, 3)})))


def test_spectral_gap_known_values():
    # two nodes: W = [[1/2, 1/2], [1/2, 1/2]] has eigenvalues {1, 0}
    assert spectral_gap(metropolis_weights(CommGraph.path(2))) == pytest.approx(
        0.0, abs=1e-12
    )
    # 4-cycle: all degrees 2, W = (I + A + A^T/...)/3 has eigenvalues
    # {1, 1/3, 1/3, -1/3}, so the mixing rate is exactly 1/3
    assert spectral_gap(metropolis_weights(_cycle(4))) == pytest.approx(
        1 / 3, abs=1e-12
    )
    assert spectral_gap(np.array([[1.0]])) == 0.0


def test_spectral_gap_controls_consensus_contraction():
    rng = np.random.default_rng(6)
    g = erdos_renyi(8, 4.0, rng)
    w = metropolis_weights(g)
    tau = spectral_gap(w)
    assert tau < 1.0
    for _ in range(20):
        x = rng.normal(size=8)
        dev = x - x.mean()
        contracted = w @ x - x.mean()
        assert np.linalg.norm(contracted) <= tau * np.linalg.norm(dev) + 1e-12


def test_erdos_renyi_connected_and_seeded():
    rng = np.random.default_rng(0)
    g = erdos_renyi(10, 4.0, rng)
    assert g.is_connected()
    g2 = erdos_renyi(10, 4.0, np.random.default_rng(0))
    assert g2.edges == g.edges
    with pytest.raises(TopologyError):
        erdos_renyi(5, 10.0, rng)  # p > 1 infeasible
    with pytest.raises(TopologyError):
        erdos_renyi(1, 1.0, rng)


def test_graph_from_spec():
    assert graph_from_spec({"kind": "complete"}, 4) == CommGraph.complete(4)
    g = graph_from_spec({"kind": "erdos_renyi", "avg_degree": 3, "seed": 1}, 8)
    assert g.is_connected()
    # same spec, same graph
    assert graph_from_spec({"kind": "erdos_renyi", "avg_degree": 3, "seed": 1}, 8) == g
    ex = graph_from_spec({"kind": "explicit", "edges": [(0, 1), (1, 2)]}, 3)
    assert ex.edges == ((0, 1), (1, 2))
    with pytest.raises(TopologyError):
        graph_from_spec({"kind": "explicit", "edges": [(0, 1)]}, 3)
    with pytest.raises(ConfigError):
        graph_from_spec({"kind": "smoke-signals"}, 3)

