"""Decentralized learners, linear-maximizer oracles, and baselines.

Consensus arithmetic and inner-loop lag structure are pinned against exact
hand derivations; convergence claims use tiny instances where the optimum is
enumerable.
"""

import numpy as np
import pytest

from macoord.envs import (
    ModularFunction,
    coverage_instance,
    synthetic_setfn,
)
from macoord.errors import ConfigError
from macoord.extension import PolicyProfile, SurrogateScheme, exact_extension
from macoord.ground import ActionId, FeasibleSet, Partition
from macoord.learners import (
    GreedyLearner,
    MetaConditionalGradientLearner,
    OnlineGradientAscentOracle,
    PolicyConsensusLearner,
    RandomLearner,
    agent_stream,
    random_baseline_round,
    sequential_greedy_round,
)
from macoord.network import CommGraph, metropolis_weights
from macoord.oracle import brute_force_opt, estimate_ratios


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


# ---------------------------------------------------------------------------
# online gradient-ascent linear maximizer
# ---------------------------------------------------------------------------


def test_oga_oracle_initial_direction_is_uniform():
    o = OnlineGradientAscentOracle(4, 0.1)
    np.testing.assert_allclose(o.direction(), np.full(4, 0.25), atol=0)
    # mutating the returned direction must not corrupt the iterate
    o.direction()[:] = 99.0
    np.testing.assert_allclose(o.direction(), np.full(4, 0.25), atol=0)


def test_oga_oracle_validation():
    with pytest.raises(ConfigError):
        OnlineGradientAscentOracle(0, 0.1)
    for step in (0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            OnlineGradientAscentOracle(3, step)
    o = OnlineGradientAscentOracle(3, 0.1)
    with pytest.raises(ValueError):
        o.update(np.ones(2))


def test_oga_oracle_stays_on_face_under_nonnegative_rewards():
    rng = np.random.default_rng(0)
    o = OnlineGradientAscentOracle(5, 0.3)
    for _ in range(200):
        o.update(rng.random(5))
        it = o.iterate
        assert it.min() >= -1e-12
        assert it.sum() == pytest.approx(1.0, abs=1e-9)


def test_oga_oracle_converges_to_argmax_vertex():
    o = OnlineGradientAscentOracle(3, 0.2)
    reward = np.array([0.1, 0.9, 0.3])
    for _ in range(100):
        o.update(reward)
    np.testing.assert_allclose(o.direction(), [0.0, 1.0, 0.0], atol=1e-9)


# ---------------------------------------------------------------------------
# consensus projected-ascent learner
# ---------------------------------------------------------------------------


def _spl(partition, graph, scheme=None, **kw):
    scheme = scheme or SurrogateScheme.submodular()
    return PolicyConsensusLearner(
        partition, graph, metropolis_weights(graph), scheme, horizon=100, seed=0, **kw
    )


def test_spl_constructor_validations():
    p = Partition((2, 2))
    g2 = CommGraph.path(2)
    with pytest.raises(ConfigError):
        _spl(p, CommGraph.path(3))  # agent-count mismatch
    with pytest.raises(ConfigError):
        _spl(p, g2, batch=0)
    # the step must be finite and positive, whether given or derived from eta0
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            _spl(p, g2, eta0=bad)
        with pytest.raises(ConfigError):
            _spl(p, g2, step_size=bad)
    w = metropolis_weights(g2)
    bad_sym = w.copy()
    bad_sym[0, 1] += 0.2
    with pytest.raises(ConfigError):
        PolicyConsensusLearner(p, g2, bad_sym, SurrogateScheme.submodular(), 10, 0)
    bad_rows = w * 0.9
    with pytest.raises(ConfigError):
        PolicyConsensusLearner(p, g2, bad_rows, SurrogateScheme.submodular(), 10, 0)
    # weight on a non-edge of a 3-path
    g3 = CommGraph.path(3)
    w3 = metropolis_weights(g3)
    w3[0, 2] += 0.1
    w3[2, 0] += 0.1
    w3[0, 0] -= 0.1
    w3[2, 2] -= 0.1
    with pytest.raises(ConfigError):
        PolicyConsensusLearner(
            Partition((2, 2, 2)), g3, w3, SurrogateScheme.submodular(), 10, 0
        )


def test_spl_initial_state_and_set_start():
    p = Partition((2, 3))
    learner = _spl(p, CommGraph.complete(2))
    np.testing.assert_allclose(learner.local_profile(0).blocks[0], [0.5, 0.5], atol=0)
    np.testing.assert_allclose(learner.local_profile(0).blocks[1], np.zeros(3), atol=0)
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
    learner = PolicyConsensusLearner(
        p,
        g,
        metropolis_weights(g),
        SurrogateScheme.submodular(),
        horizon=50,
        seed=0,
        exact_gradient=True,
        step_size=0.3,
    )
    for t in range(1, 51):
        learner.round(f, t)
    np.testing.assert_allclose(learner.played_profile().blocks[0], [0.0, 1.0], atol=1e-9)
    # an indicator policy plays its slot with certainty
    assert learner.round(f, 99) == FeasibleSet((1,))


def test_spl_one_round_consensus_arithmetic():
    # zero objective => zero gradient; the round reduces to pure averaging
    p = Partition((2, 2))
    g = CommGraph.path(2)
    f = ModularFunction(p, np.zeros(4))
    learner = _spl(p, g, exact_gradient=True, step_size=0.7)
    learner.policies = np.array([[0.2, 0.1, 0.6, 0.2], [0.4, 0.3, 0.0, 0.4]])
    learner.round(f, 1)
    # Metropolis on a 2-path averages the two copies of every block
    blocks = [learner.local_profile(i).blocks for i in range(2)]
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
        sums = [b.sum() for b in learner.local_profile(i).blocks]
        np.testing.assert_allclose(sums, expected_sums[i], atol=1e-12)
    # the own blocks are feasible already, so the zero-gradient step keeps them
    np.testing.assert_allclose(
        np.concatenate(learner.played_profile().blocks),
        [0.2, 0.2, 0.3, 0.1, 0.7, 0.0],
        atol=1e-12,
    )


def test_spl_iterates_stay_feasible():
    rng = np.random.default_rng(2)
    f = synthetic_setfn("coverage-random", (2, 3, 2), rng)
    learner = _spl(f.partition, CommGraph.cycle(3), batch=2)
    for t in range(1, 31):
        chosen = learner.round(f, t)
        assert chosen.size() <= 3
    for i in range(3):
        learner.local_profile(i).validate()


def test_spl_query_budget_accounting():
    p = Partition((2, 3))
    g = CommGraph.complete(2)
    rng = np.random.default_rng(3)
    f = synthetic_setfn("coverage-random", (2, 3), rng)
    # submodular scheme: one min-gain pass plus one pass per batch sample
    learner = _spl(p, g, batch=4)
    learner.round(f, 1)
    np.testing.assert_array_equal(learner.budget.per_agent(), [(1 + 4) * 2, (1 + 4) * 3])
    # weak-DR scheme has no min-gain bonus
    learner = _spl(p, g, scheme=SurrogateScheme.weak_dr(0.5), batch=4)
    learner.round(f, 1)
    np.testing.assert_array_equal(learner.budget.per_agent(), [4 * 2, 4 * 3])
    # exact gradients charge nothing
    learner = _spl(p, g, exact_gradient=True)
    learner.round(f, 1)
    np.testing.assert_array_equal(learner.budget.per_agent(), [0, 0])


def test_spl_improves_on_coverage_trap_instance():
    f = coverage_instance(3, 0.1, 1)
    g = CommGraph.complete(3)
    learner = _spl(f.partition, g, exact_gradient=True, step_size=0.25)
    for t in range(1, 201):
        learner.round(f, t)
    value = exact_extension(f, learner.played_profile())
    opt = brute_force_opt(f, f.partition)[1]
    assert value >= 0.9 * opt


# ---------------------------------------------------------------------------
# meta conditional-gradient learner
# ---------------------------------------------------------------------------


def test_mpl_constructor_validations():
    p = Partition((2, 2))
    g = CommGraph.path(2)
    with pytest.raises(ConfigError):
        MetaConditionalGradientLearner(p, CommGraph.path(3), 10, 0)
    with pytest.raises(ConfigError):
        MetaConditionalGradientLearner(p, g, 10, 0, inner_steps=2)
    with pytest.raises(ConfigError):
        MetaConditionalGradientLearner(p, g, 10, 0, sample_batch=0)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            MetaConditionalGradientLearner(p, g, 10, 0, eta0=bad)
        with pytest.raises(ConfigError):
            MetaConditionalGradientLearner(p, g, 10, 0, step_size=bad)


def test_mpl_path_lag_disagreement_is_exact():
    # On a 6-path, agent 0's copy of agent j's block lags dist-1 inner steps.
    # With uniform-initialized maximizers every direction sums to one, so the
    # final per-agent gap is sum_j (dist-1)+ / (n K) = 10 / (6 K) exactly.
    f = coverage_instance(6, 0.1, 1)
    k_steps = 15
    learner = MetaConditionalGradientLearner(
        f.partition, CommGraph.path(6), horizon=10, seed=0,
        inner_steps=k_steps, sample_batch=1,
    )
    learner.round(f, 1, record_inner=True)
    assert learner.disagreement() == pytest.approx(10.0 / (6 * k_steps), abs=1e-12)
    # lag gaps only shrink as the inner loop proceeds, and end nonnegative
    for step_vals in learner.last_inner_disagreement:
        for v in step_vals:
            assert -1e-12 <= v <= 5.0 / k_steps + 1e-12


def test_mpl_query_budget_accounting():
    rng = np.random.default_rng(4)
    f = synthetic_setfn("coverage-random", (2, 3), rng)
    k_steps, batch = 4, 3
    learner = MetaConditionalGradientLearner(
        f.partition, CommGraph.path(2), horizon=10, seed=0,
        inner_steps=k_steps, sample_batch=batch,
    )
    learner.round(f, 1)
    np.testing.assert_array_equal(
        learner.budget.per_agent(), [k_steps * batch * 2, k_steps * batch * 3]
    )


def test_mpl_oracles_learn_across_rounds():
    rng = np.random.default_rng(5)
    f = synthetic_setfn("coverage-random", (2, 2), rng)
    learner = MetaConditionalGradientLearner(
        f.partition, CommGraph.complete(2), horizon=20, seed=0,
        inner_steps=3, sample_batch=2, step_size=0.5,
    )
    learner.round(f, 1)
    moved = any(
        not np.allclose(learner.oracles[i][k].iterate, 0.5)
        for i in range(2)
        for k in range(3)
    )
    assert moved
    # played selections stay feasible and policies sum to at most one
    chosen = learner.round(f, 2)
    assert chosen.size() == 2
    for i in range(2):
        learner.local_profile(i).validate()


def test_mpl_estimates_reset_each_round():
    f = coverage_instance(3, 0.1, 1)
    learner = MetaConditionalGradientLearner(
        f.partition, CommGraph.complete(3), horizon=10, seed=0,
        inner_steps=3, sample_batch=1,
    )
    learner.round(f, 1)
    first = learner.local_profile(0).blocks
    learner.round(f, 2)
    # the build-from-zero loop caps every block's mass at one per round
    for i in range(3):
        for j in range(3):
            assert learner.local_profile(i).blocks[j].sum() <= 1.0 + 1e-9
    assert all(b.sum() <= 1.0 + 1e-9 for b in first)


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def test_random_baseline_uniform_and_total():
    p = Partition((4, 2))
    counts = np.zeros(4)
    for t in range(1, 4001):
        s = random_baseline_round(p, agent_stream(0, t, 99))
        assert s.size() == 2  # never abstains
        counts[s.choice[0]] += 1
    expect, sigma = 1000.0, np.sqrt(4000 * 0.25 * 0.75)
    assert np.all(np.abs(counts - expect) < 4 * sigma)


def test_sequential_greedy_escapes_coverage_trap():
    f = coverage_instance(3, 0.1, 1)
    s = sequential_greedy_round(f, f.partition)
    assert s == FeasibleSet((1, 1, 1))
    assert f.value(s.actions()) == pytest.approx(4.0, abs=1e-12)


def test_sequential_greedy_tie_breaks_to_lowest_slot():
    p = Partition((3, 2))
    f = ModularFunction(p, np.array([2.0, 2.0, 2.0, 1.0, 1.0]))
    assert sequential_greedy_round(f, p) == FeasibleSet((0, 0))


def test_sequential_greedy_curvature_guarantee():
    # greedy is a (1 + curvature)-approximation for monotone submodular f
    rng = np.random.default_rng(6)
    for _ in range(20):
        f = synthetic_setfn("coverage-random", (2, 2, 2), rng)
        greedy_val = f.value(sequential_greedy_round(f, f.partition).actions())
        opt = brute_force_opt(f, f.partition)[1]
        c = estimate_ratios(f).curvature
        assert greedy_val >= opt / (1.0 + c) - 1e-9


def test_learner_wrappers():
    p = Partition((3, 3))
    f = ModularFunction(p, np.arange(6, dtype=float))
    rand = RandomLearner(p, seed=1)
    s1, s2 = rand.round(f, 1), rand.round(f, 1)
    assert s1 == s2  # same round, same seed, same draw
    assert rand.disagreement() == 0.0
    greedy = GreedyLearner(p)
    assert greedy.round(f, 1) == sequential_greedy_round(f, p)
    assert greedy.disagreement() == 0.0
    assert greedy.budget.per_agent().tolist() == [3, 3]
