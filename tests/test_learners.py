"""Decentralized learners, linear-maximizer oracles, and baselines.

Consensus arithmetic and inner-loop lag structure are pinned against exact
hand derivations; convergence claims use tiny instances where the optimum is
enumerable.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import macoord.learners as learners_module
from macoord.envs import (
    FacilityObjective,
    ModularFunction,
    TrackingGainObjective,
    coverage_instance,
    synthetic_setfn,
)
from macoord.errors import ConfigError, TopologyError
from macoord.extension import (
    PolicyProfile,
    exact_extension,
    exact_gradient,
    sample_slots,
)
from macoord.geometry import project_blocks
from macoord.ground import Partition, local_marginal_block
from macoord.harness import make_learner
from macoord.learners import (
    GreedyLearner,
    PolicyConsensusLearner,
    RandomLearner,
    _RANDOM_TAG,
    _play,
    agent_stream,
)
from macoord.network import CommGraph, erdos_renyi, metropolis_weights
from macoord.oracle import brute_force_opt, estimate_ratios


def _blocks(profile):
    """Views of the agents' blocks of a profile's row."""
    return np.split(profile.row, profile.partition.offsets[1:-1])


def _cycle(n):
    return CommGraph(n, [(i, (i + 1) % n) for i in range(n)])


def _spl(partition, graph, horizon=100, seed=0, **fields):
    """An ma-spl learner built from its spec, as a run builds it."""
    return make_learner({"kind": "ma-spl", **fields}, partition, graph, horizon, seed)


def _mpl(partition, graph, horizon=10, seed=0, **fields):
    """An ma-mpl learner built from its spec, as a run builds it."""
    return make_learner({"kind": "ma-mpl", **fields}, partition, graph, horizon, seed)


# ---------------------------------------------------------------------------
# per-(round, agent) randomness
# ---------------------------------------------------------------------------


def test_agent_stream_determinism():
    a = agent_stream(7, 3, 1).random(4)
    b = agent_stream(7, 3, 1).random(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, agent_stream(7, 3, 2).random(4))
    assert not np.array_equal(a, agent_stream(7, 4, 1).random(4))
    assert not np.array_equal(a, agent_stream(8, 3, 1).random(4))


def test_agent_stream_is_numpys_tuple_seeded_stream():
    rng = np.random.default_rng(41)
    triples = [(int(s), int(t), int(a)) for s, t, a in rng.integers(0, 2**16, (150, 3))]
    triples += [(int(s), 0, int(a)) for s, a in rng.integers(0, 2**63, (30, 2), dtype=np.uint64)]
    triples += [(2**32 + i, i, _RANDOM_TAG) for i in range(10)]
    triples += [(s, t, a) for s in (0, 2**32 - 1, 2**32, 2**64 + 3) for t in (0, 1) for a in (0, 5)]
    triples += [(0, 0, 0), (7, 2**40, 1), (1, 1, _RANDOM_TAG)]
    assert len(set(triples)) >= 200
    for seed, t, agent in triples:
        expect = np.random.default_rng(np.random.SeedSequence((seed, t, agent))).random(3)
        np.testing.assert_array_equal(agent_stream(seed, t, agent).random(3), expect)
    with pytest.raises(ValueError):
        agent_stream(-1, 0, 0)


# ---------------------------------------------------------------------------
# online gradient-ascent linear maximizers: the (K, |V|) iterate matrix
# ---------------------------------------------------------------------------


def _maximizers(sizes, step, K=3):
    p = Partition(sizes)
    return _mpl(p, CommGraph.complete(p.n_agents), K=K, step_size=step)


def test_oga_oracle_initial_direction_is_uniform():
    learner = _maximizers((4, 2), 0.1)
    # every maximizer of every agent starts uniform on the agent's own block
    assert learner.iterates.shape == (3, 6)
    np.testing.assert_array_equal(learner.iterates, [[0.25] * 4 + [0.5] * 2] * 3)


def test_oga_oracle_validation():
    for step in (0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            _maximizers((3,), step)
    learner = _maximizers((3, 2), 0.1)
    for bad in (np.ones((3, 4)), np.ones((2, 5)), np.ones(5)):
        with pytest.raises(ValueError):
            learner.update(bad)


def test_oga_oracle_stays_on_face_under_nonnegative_rewards():
    rng = np.random.default_rng(0)
    learner = _maximizers((5, 1, 3), 0.3, K=4)
    p = learner.partition
    for _ in range(200):
        learner.update(rng.random((4, p.total)))
        it = learner.iterates
        assert it.min() >= -1e-12
        np.testing.assert_allclose(p.pad(it).sum(axis=-1), 1.0, rtol=0, atol=1e-9)


def test_oga_oracle_converges_to_argmax_vertex():
    learner = _maximizers((3, 2), 0.2)
    reward = np.tile([0.1, 0.9, 0.3, 0.2, 0.6], (3, 1))
    for _ in range(100):
        learner.update(reward)
    np.testing.assert_allclose(learner.iterates, np.tile([0.0, 1.0, 0.0, 0.0, 1.0], (3, 1)), atol=1e-9)


def test_play_clamps_round_off_to_last_slot():
    p = Partition((2,))
    half = np.array([0.5, 0.5])
    assert _play(p, half, np.array([0.999999999999999])).tolist() == [1]
    assert _play(p, half, np.array([0.2])).tolist() == [0]
    assert _play(p, half, np.array([0.5])).tolist() == [1]  # half-open intervals
    # round-off leaves the normalized block's total below u: the last slot takes it
    q = Partition((2, 5))
    own = np.array([0.0, 0.0] + [0.3] * 5)  # agent 0 has no mass: uniform
    total = np.cumsum(own[2:] / own[2:].sum())[-1]
    assert total < 1.0
    assert _play(q, own, np.array([0.75, total])).tolist() == [1, 4]


def test_play_scales_each_block_to_sum_one():
    # [1, 3] plays as [0.25, 0.75]
    p, own = Partition((2,)), np.array([1.0, 3.0])
    assert [_play(p, own, np.array([x]))[0] for x in (0.2, 0.25, 0.3)] == [0, 1, 1]
    # vanishing mass falls back to uniform
    p = Partition((4,))
    assert [_play(p, np.zeros(4), np.array([x]))[0] for x in (0.1, 0.3, 0.6, 0.9)] == [0, 1, 2, 3]
    # blocks of a flat row scale separately, each with its own size
    p = Partition((2, 4, 1))
    own = np.array([1.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.2])
    assert _play(p, own, np.array([0.3, 0.6, 0.9])).tolist() == [1, 2, 0]


# ---------------------------------------------------------------------------
# consensus projected-ascent learner
# ---------------------------------------------------------------------------


def test_spl_constructor_validations():
    p = Partition((2, 2))
    g2 = CommGraph.path(2)
    with pytest.raises(ConfigError):
        _spl(p, CommGraph.path(3))  # agent-count mismatch
    with pytest.raises(ConfigError, match="batch must be at least 1"):
        _spl(p, g2, batch=0)
    with pytest.raises(TopologyError):  # Metropolis weights need a connected graph
        PolicyConsensusLearner(
            p, CommGraph(2, []), horizon=100, seed=0, scheme=None, eta0=1.0, batch=10,
            exact_gradient=False, step_size=None,
        )
    # the step must be finite and positive, whether given or derived from eta0,
    # and the refusal names the field that set it
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="^eta0 must"):
            _spl(p, g2, eta0=bad)
        with pytest.raises(ConfigError, match="^step_size must"):
            _spl(p, g2, step_size=bad)


def test_spl_initial_state_and_set_start():
    p = Partition((2, 3))
    learner = _spl(p, CommGraph.complete(2))
    blocks = _blocks(PolicyProfile(p, learner.policies[0]))
    np.testing.assert_allclose(blocks[0], [0.5, 0.5], atol=0)
    np.testing.assert_allclose(blocks[1], np.zeros(3), atol=0)
    assert learner.disagreement() > 0.0
    start = PolicyProfile.uniform(p)
    learner.set_start(start)
    assert learner.disagreement() == 0.0
    with pytest.raises(ConfigError):
        learner.set_start(PolicyProfile.uniform(Partition((2, 2))))


def test_spl_single_agent_exact_gradient_finds_modular_argmax():
    p = Partition((2,))
    f = ModularFunction(p, np.array([1.0, 2.0]))
    g = CommGraph.complete(1)
    learner = _spl(p, g, horizon=50, exact_gradient=True, step_size=0.3)
    for t in range(1, 51):
        learner.round(f, t)
    np.testing.assert_allclose(_blocks(learner.played_profile())[0], [0.0, 1.0], atol=1e-9)
    # an indicator policy plays its slot with certainty
    assert learner.round(f, 99).tolist() == [1]


def test_spl_one_round_consensus_arithmetic():
    # zero objective => zero gradient; the round reduces to pure averaging
    p = Partition((2, 2))
    g = CommGraph.path(2)
    f = ModularFunction(p, np.zeros(4))
    learner = _spl(p, g, exact_gradient=True, step_size=0.7)
    learner.policies = np.array([[0.2, 0.1, 0.6, 0.2], [0.4, 0.3, 0.0, 0.4]])
    learner.round(f, 1)
    # Metropolis on a 2-path averages the two copies of every block
    blocks = [_blocks(PolicyProfile(p, learner.policies[i])) for i in range(2)]
    np.testing.assert_allclose(blocks[0][0], [0.3, 0.2], atol=1e-12)
    np.testing.assert_allclose(blocks[0][1], [0.3, 0.3], atol=1e-12)
    np.testing.assert_allclose(blocks[1][0], [0.3, 0.2], atol=1e-12)
    np.testing.assert_allclose(blocks[1][1], [0.3, 0.3], atol=1e-12)
    assert learner.disagreement() == pytest.approx(0.0, abs=1e-12)

    # Metropolis on a 3-path: the ends keep 2/3, the middle keeps 1/3, and
    # every edge carries 1/3, so each copy mixes with its own weights
    p = Partition((2, 2, 2))
    g = CommGraph.path(3)
    w = metropolis_weights(g)
    np.testing.assert_allclose(np.diag(w), [2 / 3, 1 / 3, 2 / 3], atol=1e-15)
    f = ModularFunction(p, np.zeros(6))
    learner = _spl(p, g, exact_gradient=True, step_size=0.7)
    learner.policies = np.array(
        [
            [0.3, 0.0, 0.6, 0.0, 0.0, 0.3],
            [0.0, 0.6, 0.3, 0.3, 0.3, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.9, 0.0],
        ]
    )
    learner.round(f, 1)
    # row i of the result: agent i's block masses after the mixing
    expected_sums = [
        [0.4, 0.6, 0.3],  # 2/3 * (0.3, 0.6, 0.3) + 1/3 * (0.6, 0.6, 0.3)
        [0.3, 0.4, 0.5],  # 1/3 * each of the three rows
        [0.2, 0.2, 0.7],  # 1/3 * (0.6, 0.6, 0.3) + 2/3 * (0.0, 0.0, 0.9)
    ]
    for i in range(3):
        sums = [b.sum() for b in _blocks(PolicyProfile(p, learner.policies[i]))]
        np.testing.assert_allclose(sums, expected_sums[i], atol=1e-12)
    # the own blocks are feasible already, so the zero-gradient step keeps them
    np.testing.assert_allclose(
        np.concatenate(_blocks(learner.played_profile())),
        [0.2, 0.2, 0.3, 0.1, 0.7, 0.0],
        atol=1e-12,
    )


def test_spl_iterates_stay_feasible():
    rng = np.random.default_rng(2)
    f = synthetic_setfn("coverage-random", (2, 3, 2), rng)
    learner = _spl(f.partition, _cycle(3), batch=2)
    for t in range(1, 31):
        chosen = learner.round(f, t)
        assert chosen.shape == (3,)
        f.partition.check_choices(chosen[None])
    for i in range(3):
        PolicyProfile(f.partition, learner.policies[i])  # building the profile validates it


def test_spl_query_budget_accounting():
    p = Partition((2, 3))
    g = CommGraph.complete(2)
    rng = np.random.default_rng(3)
    f = synthetic_setfn("coverage-random", (2, 3), rng)
    # submodular scheme: one min-gain pass plus one pass per batch sample
    learner = _spl(p, g, batch=4)
    learner.round(f, 1)
    np.testing.assert_array_equal(learner.queries, [(1 + 4) * 2, (1 + 4) * 3])
    # weak-DR scheme has no min-gain bonus
    learner = _spl(p, g, scheme={"kind": "weak-dr", "alpha": 0.5}, batch=4)
    learner.round(f, 1)
    np.testing.assert_array_equal(learner.queries, [4 * 2, 4 * 3])
    # exact gradients count nothing
    learner = _spl(p, g, exact_gradient=True)
    learner.round(f, 1)
    np.testing.assert_array_equal(learner.queries, [0, 0])


def test_spl_improves_on_coverage_trap_instance():
    f = coverage_instance(3, 0.1, 1)
    g = CommGraph.complete(3)
    learner = _spl(f.partition, g, exact_gradient=True, step_size=0.25)
    for t in range(1, 201):
        learner.round(f, t)
    value = exact_extension(f, learner.played_profile())
    opt = brute_force_opt(f)[1]
    assert value >= 0.9 * opt


# ---------------------------------------------------------------------------
# meta conditional-gradient learner
# ---------------------------------------------------------------------------


def test_mpl_constructor_validations():
    p = Partition((2, 2))
    g = CommGraph.path(2)
    with pytest.raises(ConfigError):
        _mpl(p, CommGraph.path(3))
    with pytest.raises(ConfigError, match="^K, the inner steps per round, must be at least 3"):
        _mpl(p, g, K=2)
    with pytest.raises(ConfigError, match="^L, the samples per inner step, must be at least 1"):
        _mpl(p, g, L=0)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="^eta0 must"):
            _mpl(p, g, eta0=bad)
        with pytest.raises(ConfigError, match="^step_size must"):
            _mpl(p, g, step_size=bad)


def test_mpl_path_lag_disagreement_is_exact():
    # On a 6-path, agent 0's copy of agent j's block lags dist-1 inner steps.
    # With uniform-initialized maximizers every direction sums to one, so the
    # final per-agent gap is sum_j (dist-1)+ / (n K) = 10 / (6 K) exactly.
    f = coverage_instance(6, 0.1, 1)
    k_steps = 15
    learner = _mpl(f.partition, CommGraph.path(6), K=k_steps, L=1)
    learner.round(f, 1)
    assert learner.disagreement() == pytest.approx(10.0 / (6 * k_steps), abs=1e-12)
    # lag gaps only shrink as the inner loop proceeds, and end nonnegative
    for step_vals in learner.inner_disagreement():
        for v in step_vals:
            assert -1e-12 <= v <= 5.0 / k_steps + 1e-12


def test_mpl_query_budget_accounting():
    rng = np.random.default_rng(4)
    f = synthetic_setfn("coverage-random", (2, 3), rng)
    k_steps, batch = 4, 3
    learner = _mpl(f.partition, CommGraph.path(2), K=k_steps, L=batch)
    learner.round(f, 1)
    np.testing.assert_array_equal(
        learner.queries, [k_steps * batch * 2, k_steps * batch * 3]
    )


def test_mpl_oracles_learn_across_rounds():
    rng = np.random.default_rng(5)
    f = synthetic_setfn("coverage-random", (2, 2), rng)
    learner = _mpl(f.partition, CommGraph.complete(2), horizon=20, K=3, L=2, step_size=0.5)
    learner.round(f, 1)
    assert not np.allclose(learner.iterates, 0.5)
    # played selections stay feasible and policies sum to at most one
    chosen = learner.round(f, 2)
    assert (chosen >= 0).all() and chosen.shape == (2,)
    for i in range(2):
        PolicyProfile(f.partition, learner.estimates[i])  # building the profile validates it


def test_mpl_estimates_reset_each_round():
    f = coverage_instance(3, 0.1, 1)
    learner = _mpl(f.partition, CommGraph.complete(3), K=3, L=1)
    learner.round(f, 1)
    first = _blocks(PolicyProfile(f.partition, learner.estimates[0]))
    learner.round(f, 2)
    # the build-from-zero loop caps every block's mass at one per round
    for i in range(3):
        for j in range(3):
            assert _blocks(PolicyProfile(f.partition, learner.estimates[i]))[j].sum() <= 1.0 + 1e-9
    assert all(b.sum() <= 1.0 + 1e-9 for b in first)


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def test_random_baseline_uniform_and_total():
    p = Partition((4, 2))
    f = ModularFunction(p, np.ones(6))
    learner = RandomLearner(p, seed=0)
    counts = np.zeros(4)
    for t in range(1, 4001):
        s = learner.round(f, t)
        assert (s >= 0).all() and s.shape == (2,)  # never abstains
        counts[s[0]] += 1
    expect, sigma = 1000.0, np.sqrt(4000 * 0.25 * 0.75)
    assert np.all(np.abs(counts - expect) < 4 * sigma)


def test_sequential_greedy_escapes_coverage_trap():
    f = coverage_instance(3, 0.1, 1)
    s = GreedyLearner(f.partition).round(f, 1)
    assert s.tolist() == [1, 1, 1]
    assert f.value(f.partition.members(s[None]))[0] == pytest.approx(4.0, abs=1e-12)


def test_sequential_greedy_tie_breaks_to_lowest_slot():
    p = Partition((3, 2))
    f = ModularFunction(p, np.array([2.0, 2.0, 2.0, 1.0, 1.0]))
    assert GreedyLearner(p).round(f, 1).tolist() == [0, 0]


def test_sequential_greedy_curvature_guarantee():
    # greedy is a (1 + curvature)-approximation for monotone submodular f
    rng = np.random.default_rng(6)
    for _ in range(20):
        f = synthetic_setfn("coverage-random", (2, 2, 2), rng)
        greedy = GreedyLearner(f.partition).round(f, 1)
        greedy_val = f.value(f.partition.members(greedy[None]))[0]
        opt = brute_force_opt(f)[1]
        c = estimate_ratios(f).curvature
        assert greedy_val >= opt / (1.0 + c) - 1e-9


def test_learner_wrappers():
    p = Partition((3, 3))
    f = ModularFunction(p, np.arange(6, dtype=float))
    rand = RandomLearner(p, seed=1)
    s1, s2 = rand.round(f, 1), rand.round(f, 1)
    np.testing.assert_array_equal(s1, s2)  # same round, same seed, same draw
    assert rand.disagreement() == 0.0
    greedy = GreedyLearner(p)
    assert greedy.round(f, 1).tolist() == [2, 2]  # each agent's heaviest slot
    assert greedy.disagreement() == 0.0
    assert greedy.queries.tolist() == [3, 3]


# ---------------------------------------------------------------------------
# loop-free rounds against their loop references
# ---------------------------------------------------------------------------
#
# The references are the learners' rounds as Python loops: K inner steps of
# the coordinate-wise max over every closed neighborhood, and one profile,
# draw, rounding and one-agent oracle call per agent, from its own stream.
# The closed-form delay line, the stacked rounding and the one oracle call
# for all agents must reproduce them bit for bit, on a synthetic coverage,
# a facility and a tracking objective: selections, state, queries and
# disagreement.


def _reference_inner_disagreement(partition, estimates):
    mass = np.add.reduceat(estimates, partition.offsets[:-1], axis=1)
    return ((np.diag(mass) - mass).sum(axis=1) / partition.n_agents).tolist()


def _reference_mpl_round(learner, graph, f, t):
    p, k_steps = learner.partition, learner.K
    n = p.n_agents
    own = (np.repeat(np.arange(n), p.sizes), np.arange(p.total))
    hoods = [[j for j in range(n) if j == i or tuple(sorted((i, j))) in graph.edges]
             for i in range(n)]
    learner.queries[:] = 0
    estimates = np.zeros((n, p.total))
    steps = np.empty((k_steps, n, p.total))
    inner = []
    for k in range(k_steps):
        y = estimates.copy()
        y[own] += learner.iterates[k] / k_steps
        estimates = np.stack([y[hood].max(axis=0) for hood in hoods])
        steps[k] = estimates
        inner.append(_reference_inner_disagreement(p, estimates))
    learner.estimates = estimates
    streams = [agent_stream(learner.seed, t, i) for i in range(n)]
    chosen = _play(p, estimates[own], np.array([s.random() for s in streams]))
    rewards = np.empty_like(learner.iterates)
    for i, (lo, hi) in enumerate(zip(p.offsets[:-1], p.offsets[1:])):
        batch = learner.L
        slots = sample_slots(PolicyProfile(p, steps[:, i]), [streams[i]], batch)[0]
        gains = local_marginal_block(f, i, slots, learner.queries)
        rewards[:, lo:hi] = gains.reshape(k_steps, batch, hi - lo).mean(axis=1)
    learner.update(rewards)
    return chosen, inner, max(inner[-1])


def _reference_spl_round(learner, f, t):
    p, scheme = learner.partition, learner.scheme
    n = p.n_agents
    own = (np.repeat(np.arange(n), p.sizes), np.arange(p.total))
    learner.queries[:] = 0
    streams = [agent_stream(learner.seed, t, i) for i in range(n)]
    chosen = _play(p, learner.policies[own], np.array([s.random() for s in streams]))
    grads = []
    for i, (lo, hi) in enumerate(zip(p.offsets[:-1], p.offsets[1:])):
        profile = PolicyProfile(p, learner.policies[i])
        slots = sample_slots(profile, [streams[i]], learner.batch, scheme)[0]
        values = scheme.weight_integral * local_marginal_block(f, i, slots, learner.queries)
        if scheme.adds_min_gain:
            values = values + math.exp(-1.0) * f.min_gains[lo:hi]
            learner.queries[i] += hi - lo
        grads.append(values.mean(axis=0))
    mixed = learner.weights @ learner.policies
    mixed[own] = project_blocks(p, mixed[own] + learner.step_size * np.concatenate(grads))
    learner.policies = mixed
    return chosen


GRAPH_KINDS = ("path", "cycle", "star", "complete", "erdos-renyi", "split")


@st.composite
def _rounds_cases(draw, kind):
    n = draw(st.integers(3 if kind in ("cycle", "split") else 1, 6))
    if kind == "path":
        g = CommGraph.path(n)
    elif kind == "cycle":
        g = _cycle(n)
    elif kind == "star":
        g = CommGraph(n, [(0, i) for i in range(1, n)])
    elif kind == "complete":
        g = CommGraph.complete(n)
    elif kind == "erdos-renyi":
        n = max(n, 2)
        g = erdos_renyi(n, min(1.5, n - 1), np.random.default_rng(draw(st.integers(0, 99))))
    else:  # two components, built directly: blocks across the cut stay zero
        cut = draw(st.integers(1, n - 1))
        g = CommGraph(n, [(i, i + 1) for i in range(n - 1) if i + 1 != cut])
    # unequal blocks, within the synthetic objectives' 12 actions
    sizes = draw(st.lists(st.integers(1, min(4, 12 // n)), min_size=n, max_size=n))
    if n > 1 and len(set(sizes)) == 1:
        sizes[-1] = 1 if sizes[0] > 1 else 2
    return dict(
        graph=g,
        sizes=tuple(sizes),
        k_steps=draw(st.integers(3, 8)),
        batch=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**16)),
        scheme=draw(st.sampled_from([{"kind": "submodular"}, {"kind": "weak-dr", "alpha": 0.4}])),
        objective=draw(st.sampled_from(ROUND_OBJECTIVES)),
    )


ROUND_OBJECTIVES = ("coverage-random", "facility", "tracking")


def _round_objective(kind, sizes, seed):
    rng = np.random.default_rng(seed)
    if kind == "coverage-random":
        return synthetic_setfn(kind, sizes, rng)
    p = Partition(sizes)
    sites, targets = rng.normal(0, 5, (p.total, 2)), rng.normal(0, 5, (3, 2))
    cls = FacilityObjective if kind == "facility" else TrackingGainObjective
    return cls(p, sites, targets)


@pytest.mark.parametrize("kind", GRAPH_KINDS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_loop_free_rounds_equal_loop_references(kind, data):
    case = data.draw(_rounds_cases(kind))
    g, sizes = case["graph"], case["sizes"]
    p = Partition(sizes)
    f = _round_objective(case["objective"], sizes, case["seed"])
    mpl = [
        _mpl(p, g, seed=case["seed"], K=case["k_steps"], L=case["batch"], step_size=0.3)
        for _ in range(2)
    ]
    # Metropolis weights need a connected graph: the split graph runs MPL alone
    spl = [] if kind == "split" else [
        _spl(p, g, horizon=10, seed=case["seed"], scheme=case["scheme"], batch=case["batch"],
             step_size=0.3)
        for _ in range(2)
    ]
    for t in (1, 2, 3):
        got = mpl[0].round(f, t)
        expect, inner, worst = _reference_mpl_round(mpl[1], g, f, t)
        np.testing.assert_array_equal(got, expect)
        for name in ("iterates", "estimates"):
            a, b = getattr(mpl[0], name), getattr(mpl[1], name)
            assert a.tobytes() == b.tobytes(), name
        assert mpl[0].inner_disagreement().tolist() == inner
        assert len(inner) == case["k_steps"]
        assert mpl[0].disagreement() == worst
        np.testing.assert_array_equal(mpl[0].queries, mpl[1].queries)

        if spl:
            np.testing.assert_array_equal(spl[0].round(f, t), _reference_spl_round(spl[1], f, t))
            assert spl[0].policies.tobytes() == spl[1].policies.tobytes()
            assert spl[0].disagreement() == spl[1].disagreement()
            np.testing.assert_array_equal(spl[0].queries, spl[1].queries)


# ---------------------------------------------------------------------------
# rows are validated where they enter, not every round
# ---------------------------------------------------------------------------


def test_rounds_build_no_profile_and_hand_on_read_only_rows(monkeypatch):
    p, g = Partition((2, 3, 2)), CommGraph.path(3)
    f = synthetic_setfn("coverage-random", p.sizes, np.random.default_rng(4))
    learners = {
        "ma-spl sampled": _spl(p, g, batch=2),
        "ma-spl exact": _spl(p, g, exact_gradient=True),
        "ma-mpl": _mpl(p, g, K=3, L=2),
    }
    built, handed = [], []
    validate = PolicyProfile.__post_init__

    def counted(profile):
        built.append(profile)
        validate(profile)

    monkeypatch.setattr(PolicyProfile, "__post_init__", counted)
    for name in ("sample_slots", "exact_gradient"):
        consumer = getattr(learners_module, name)

        def spy(*args, _consumer=consumer):
            handed.extend(a.row for a in args if isinstance(a, PolicyProfile))
            return _consumer(*args)

        monkeypatch.setattr(learners_module, name, spy)
    for label, learner in learners.items():
        built.clear()
        handed.clear()
        for t in (1, 2):
            learner.round(f, t)
        assert built == [], label
        assert len(handed) == 2, label
        for row in handed:
            assert not row.flags.writeable, label
            with pytest.raises(ValueError):
                row[(0,) * row.ndim] = 0.0


@pytest.mark.parametrize(
    "bad, message",
    [
        ([np.nan, 0.5, 0.0, 0.0], "policy has non-finite entries"),
        ([-0.1, 0.5, 0.0, 0.0], "policy has negative mass -0.1"),
        ([0.7, 0.7, 0.0, 0.0], "a policy block carries total mass 1.4 > 1"),
    ],
)
def test_rows_from_outside_are_refused_where_they_enter(bad, message):
    p = Partition((2, 2))
    f = synthetic_setfn("coverage-random", p.sizes, np.random.default_rng(3))
    learner = _spl(p, CommGraph.path(2))
    rngs = [agent_stream(0, 1, i) for i in range(2)]
    for enter in (
        lambda row: PolicyProfile(p, row),
        lambda row: learner.set_start(PolicyProfile(p, row)),
        lambda row: sample_slots(PolicyProfile(p, np.stack([row, row])), rngs, 2),
        lambda row: exact_gradient(f, PolicyProfile(p, row)),
    ):
        with pytest.raises(ValueError, match=message):
            enter(np.array(bad))
