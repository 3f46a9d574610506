"""Decentralized learners, linear-maximizer oracles, and baselines.

Consensus arithmetic and inner-loop lag structure are pinned against exact
hand derivations; convergence claims use tiny instances where the optimum is
enumerable.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macoord.envs import (
    FacilityObjective,
    ModularFunction,
    TrackingGainObjective,
    coverage_instance,
    synthetic_setfn,
)
from macoord.errors import ConfigError
from macoord.extension import (
    PolicyProfile,
    SurrogateScheme,
    estimate_gradient,
    estimate_surrogate_gradient,
    exact_extension,
)
from macoord.geometry import normalize_policy, project_blocks
from macoord.ground import Partition, min_gain_vector
from macoord.learners import (
    GreedyLearner,
    MetaConditionalGradientLearner,
    PolicyConsensusLearner,
    RandomLearner,
    _play,
    agent_stream,
    random_baseline_round,
    sequential_greedy_round,
)
from macoord.network import CommGraph, erdos_renyi, metropolis_weights
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
# online gradient-ascent linear maximizers: the (K, |V|) iterate matrix
# ---------------------------------------------------------------------------


def _maximizers(sizes, step, inner_steps=3):
    p = Partition(sizes)
    return MetaConditionalGradientLearner(
        p, CommGraph.complete(p.n_agents), horizon=10, seed=0,
        inner_steps=inner_steps, step_size=step,
    )


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
    learner = _maximizers((5, 1, 3), 0.3, inner_steps=4)
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
    total = np.cumsum(normalize_policy(q, own)[2:])[-1]
    assert total < 1.0
    assert _play(q, own, np.array([0.75, total])).tolist() == [1, 4]


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
        assert chosen.shape == (3,)
        f.partition.check_choices(chosen[None])
    for i in range(3):
        learner.local_profile(i)  # building the profile validates it


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
    assert not np.allclose(learner.iterates, 0.5)
    # played selections stay feasible and policies sum to at most one
    chosen = learner.round(f, 2)
    assert (chosen >= 0).all() and chosen.shape == (2,)
    for i in range(2):
        learner.local_profile(i)  # building the profile validates it


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
        assert (s >= 0).all() and s.shape == (2,)  # never abstains
        counts[s[0]] += 1
    expect, sigma = 1000.0, np.sqrt(4000 * 0.25 * 0.75)
    assert np.all(np.abs(counts - expect) < 4 * sigma)


def test_sequential_greedy_escapes_coverage_trap():
    f = coverage_instance(3, 0.1, 1)
    s = sequential_greedy_round(f, f.partition)
    assert s.tolist() == [1, 1, 1]
    assert f.value(f.partition.members(s[None]))[0] == pytest.approx(4.0, abs=1e-12)


def test_sequential_greedy_tie_breaks_to_lowest_slot():
    p = Partition((3, 2))
    f = ModularFunction(p, np.array([2.0, 2.0, 2.0, 1.0, 1.0]))
    assert sequential_greedy_round(f, p).tolist() == [0, 0]


def test_sequential_greedy_curvature_guarantee():
    # greedy is a (1 + curvature)-approximation for monotone submodular f
    rng = np.random.default_rng(6)
    for _ in range(20):
        f = synthetic_setfn("coverage-random", (2, 2, 2), rng)
        greedy = sequential_greedy_round(f, f.partition)
        greedy_val = f.value(f.partition.members(greedy[None]))[0]
        opt = brute_force_opt(f, f.partition)[1]
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
    np.testing.assert_array_equal(greedy.round(f, 1), sequential_greedy_round(f, p))
    assert greedy.disagreement() == 0.0
    assert greedy.budget.per_agent().tolist() == [3, 3]


# ---------------------------------------------------------------------------
# loop-free rounds against their loop references
# ---------------------------------------------------------------------------
#
# The references are the learners' rounds as Python loops: K inner steps of
# the coordinate-wise max over every closed neighborhood, and one profile,
# draw, rounding and oracle call per agent through the one-agent estimators.
# The closed-form delay line, the stacked rounding and the one oracle call
# for all agents must reproduce them bit for bit, on a synthetic coverage,
# a facility and a tracking objective: selections, state, charges and
# disagreement.


def _reference_inner_disagreement(partition, estimates):
    mass = np.add.reduceat(estimates, partition.offsets[:-1], axis=1)
    return ((np.diag(mass) - mass).sum(axis=1) / partition.n_agents).tolist()


def _reference_mpl_round(learner, f, t, record_inner):
    p, k_steps = learner.partition, learner.inner_steps
    n = p.n_agents
    own = (np.repeat(np.arange(n), p.sizes), np.arange(p.total))
    hoods = [list(learner.graph.neighbors(i) + (i,)) for i in range(n)]
    learner.budget.reset()
    estimates = np.zeros((n, p.total))
    steps = np.empty((k_steps, n, p.total))
    inner = []
    for k in range(k_steps):
        y = estimates.copy()
        y[own] += learner.iterates[k] / k_steps
        estimates = np.stack([y[hood].max(axis=0) for hood in hoods])
        steps[k] = estimates
        if record_inner:
            inner.append(_reference_inner_disagreement(p, estimates))
    learner.estimates, learner.last_inner_disagreement = estimates, inner
    streams = [agent_stream(learner.seed, t, i) for i in range(n)]
    chosen = _play(p, estimates[own], np.array([s.random() for s in streams]))
    rewards = np.empty_like(learner.iterates)
    for i, (lo, hi) in enumerate(zip(p.offsets[:-1], p.offsets[1:])):
        rewards[:, lo:hi] = estimate_gradient(
            f, PolicyProfile(p, steps[:, i]), i, streams[i], learner.budget,
            samples=learner.sample_batch,
        )
    learner.update(rewards)
    return chosen, max(_reference_inner_disagreement(p, estimates))


def _reference_spl_round(learner, f, t):
    p, scheme = learner.partition, learner.scheme
    n = p.n_agents
    own = (np.repeat(np.arange(n), p.sizes), np.arange(p.total))
    learner.budget.reset()
    streams = [agent_stream(learner.seed, t, i) for i in range(n)]
    chosen = _play(p, learner.policies[own], np.array([s.random() for s in streams]))
    grads = []
    for i in range(n):
        min_gain = min_gain_vector(f, i, learner.budget) if scheme.adds_min_gain else None
        grads.append(estimate_surrogate_gradient(
            f, PolicyProfile(p, learner.policies[i]), i, scheme, streams[i], learner.budget,
            min_gain, samples=learner.batch,
        ))
    mixed = learner.weights @ learner.policies
    mixed[own] = project_blocks(p, mixed[own] + learner.step_size * np.concatenate(grads))
    learner.policies = mixed
    return chosen


def _metropolis_any(g):
    """Metropolis weights without the connectivity check: per component."""
    w = np.zeros((g.n, g.n))
    for u, v in g.edges:
        w[u, v] = w[v, u] = 1.0 / (1.0 + max(g.degree(u), g.degree(v)))
    return w + np.diag(1.0 - w.sum(axis=1))


GRAPH_KINDS = ("path", "cycle", "star", "complete", "erdos-renyi", "split")


@st.composite
def _rounds_cases(draw, kind):
    n = draw(st.integers(3 if kind in ("cycle", "split") else 1, 6))
    if kind == "path":
        g = CommGraph.path(n)
    elif kind == "cycle":
        g = CommGraph.cycle(n)
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
        scheme=draw(st.sampled_from(
            [SurrogateScheme.submodular(), SurrogateScheme.weak_dr(0.4)]
        )),
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
        MetaConditionalGradientLearner(
            p, g, horizon=10, seed=case["seed"], inner_steps=case["k_steps"],
            sample_batch=case["batch"], step_size=0.3,
        )
        for _ in range(2)
    ]
    spl = [
        PolicyConsensusLearner(
            p, g, _metropolis_any(g), case["scheme"], horizon=10, seed=case["seed"],
            batch=case["batch"], step_size=0.3,
        )
        for _ in range(2)
    ]
    for t in (1, 2, 3):
        record = t != 2
        got = mpl[0].round(f, t, record_inner=record)
        expect, worst = _reference_mpl_round(mpl[1], f, t, record)
        np.testing.assert_array_equal(got, expect)
        for name in ("iterates", "estimates"):
            a, b = getattr(mpl[0], name), getattr(mpl[1], name)
            assert a.tobytes() == b.tobytes(), name
        assert mpl[0].last_inner_disagreement == mpl[1].last_inner_disagreement
        assert len(mpl[0].last_inner_disagreement) == (case["k_steps"] if record else 0)
        assert mpl[0].disagreement() == worst
        np.testing.assert_array_equal(mpl[0].budget.per_agent(), mpl[1].budget.per_agent())

        np.testing.assert_array_equal(spl[0].round(f, t), _reference_spl_round(spl[1], f, t))
        assert spl[0].policies.tobytes() == spl[1].policies.tobytes()
        assert spl[0].disagreement() == spl[1].disagreement()
        np.testing.assert_array_equal(spl[0].budget.per_agent(), spl[1].budget.per_agent())
