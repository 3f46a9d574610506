"""Partition addressing, feasible selections, and the marginal-oracle layer."""

import numpy as np
import pytest

from macoord.envs import (
    ModularFunction,
    SqrtModularFunction,
    StaticEnvironment,
    WeightedCoverage,
)
from macoord.errors import InvalidActionError
from macoord.ground import (
    ActionId,
    FeasibleSet,
    MarginalBudget,
    Partition,
    as_action_set,
    local_marginal_block,
    min_gain_vector,
)
from macoord.extension import SurrogateScheme
from macoord.learners import PolicyConsensusLearner
from macoord.network import CommGraph, metropolis_weights


def test_partition_validation():
    with pytest.raises(InvalidActionError):
        Partition(())
    with pytest.raises(InvalidActionError):
        Partition((2, 0, 1))
    p = Partition((2, 1, 3))
    assert p.n_agents == 3
    assert p.total == 6


def test_flat_index_roundtrip():
    p = Partition((2, 1, 3))
    seen = []
    for a in p.all_actions():
        idx = p.flat_index(a)
        assert p.from_flat(idx) == a
        seen.append(idx)
    # agent-major, slot-minor enumeration covers 0..total-1 in order
    assert seen == list(range(p.total))
    with pytest.raises(InvalidActionError):
        p.flat_index(ActionId(0, 2))
    with pytest.raises(InvalidActionError):
        p.from_flat(6)


def test_agent_actions():
    p = Partition((2, 3))
    assert p.agent_actions(1) == (ActionId(1, 0), ActionId(1, 1), ActionId(1, 2))
    with pytest.raises(InvalidActionError):
        p.agent_actions(2)


def test_feasible_set_basics():
    p = Partition((2, 2, 2))
    s = FeasibleSet((1, None, 0))
    assert s.actions() == (ActionId(0, 1), ActionId(2, 0))
    assert s.size() == 2
    assert s.as_set() == frozenset({ActionId(0, 1), ActionId(2, 0)})
    assert FeasibleSet.empty(3).size() == 0
    rebuilt = FeasibleSet.from_actions(p, s.actions())
    assert rebuilt == s


def test_feasible_set_rejects_double_selection():
    p = Partition((2, 2))
    with pytest.raises(InvalidActionError):
        FeasibleSet.from_actions(p, [ActionId(0, 0), ActionId(0, 1)])


def test_as_action_set_accepts_both_forms():
    s = FeasibleSet((None, 1))
    assert as_action_set(s) == frozenset({ActionId(1, 1)})
    assert as_action_set([ActionId(1, 1)]) == frozenset({ActionId(1, 1)})


def test_default_marginal_is_value_difference():
    p = Partition((2, 2))
    f = SqrtModularFunction(p, np.array([1.0, 4.0, 9.0, 16.0]))
    a = ActionId(1, 0)
    ctx = [ActionId(0, 1)]
    expect = f.value([ActionId(0, 1), a]) - f.value(ctx)
    assert f.marginal(a, ctx) == pytest.approx(expect, abs=1e-15)
    # re-adding a selected action gains nothing
    assert f.marginal(a, [a]) == 0.0


def test_default_agent_marginals_matches_slot_loop():
    p = Partition((3, 2))
    f = SqrtModularFunction(p, np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    ctx = [ActionId(1, 1)]
    block = f.agent_marginals(0, np.array([[-1, 1]]))[0]
    for m in range(3):
        assert block[m] == pytest.approx(f.marginal(ActionId(0, m), ctx), abs=1e-15)


def test_budget_accounting():
    b = MarginalBudget(3)
    b.charge(0)
    b.charge(2, 5)
    assert b.per_agent().tolist() == [1, 0, 5]
    assert b.total() == 6
    b.reset()
    assert b.total() == 0
    with pytest.raises(ValueError):
        b.charge(1, -1)


def test_local_marginal_block_charges_per_slot():
    p = Partition((2, 3))
    f = ModularFunction(p, np.arange(1.0, 6.0))
    budget = MarginalBudget(2)
    gains = local_marginal_block(f, 1, np.array([[-1, -1]]), budget)
    assert gains.tolist() == [[3.0, 4.0, 5.0]]
    assert budget.per_agent().tolist() == [0, 3]
    # every row is charged one query per slot, also a row that sets the
    # agent's own column (ignored: the full own weights come back)
    gains = local_marginal_block(f, 0, np.array([[1, 0], [-1, 2], [0, -1]]), budget)
    assert gains.tolist() == [[1.0, 2.0]] * 3
    assert budget.per_agent().tolist() == [6, 3]


@pytest.mark.parametrize(
    "choices",
    [
        np.array([0, 1]),  # one row, but 1-d
        np.zeros((1, 3), dtype=np.int64),  # a column too many
        np.zeros((1, 2), dtype=np.float64),  # not integer
        np.zeros((1, 2), dtype=bool),  # not integer
        [[0, 1]],  # not an array
        np.array([[2, 0]]),  # agent 0 has 2 slots: flat index 2 is agent 1's slot 0
        np.array([[-2, 0]]),  # below idle: flat index -2 wraps to agent 1's slot 1
        np.array([[0, 0], [0, 3]]),  # second row past agent 1's last slot
    ],
    ids=["1d", "shape", "float", "bool", "list", "slot-past-k", "below-idle", "own-past-k"],
)
def test_local_marginal_block_rejects_bad_slot_matrix_before_charge(choices):
    p = Partition((2, 3))
    f = ModularFunction(p, np.arange(1.0, 6.0))
    budget = MarginalBudget(2)
    with pytest.raises(InvalidActionError):
        local_marginal_block(f, 1, choices, budget)
    assert budget.total() == 0


def test_min_gain_vector():
    p = Partition((2, 2))
    f = ModularFunction(p, np.array([0.5, 1.25, 0.75, 2.0]))
    # modular: the gain against everything else is just the weight
    assert min_gain_vector(f, 0).tolist() == [0.5, 1.25]

    # coverage with one shared element: the shared covers gain nothing
    masks = np.array(
        [
            [True, False],
            [True, True],
            [True, False],
            [False, False],
        ]
    )
    g = WeightedCoverage(p, masks, np.array([1.0, 3.0]))
    budget = MarginalBudget(2)
    assert min_gain_vector(g, 0, budget).tolist() == [0.0, 3.0]
    assert budget.per_agent().tolist() == [2, 0]


class _CountingCoverage(WeightedCoverage):
    """Weighted coverage that counts its value queries."""

    value_calls = 0

    def value(self, actions):
        self.value_calls += 1
        return super().value(actions)


def test_min_gain_vector_computed_once_per_objective():
    rng = np.random.default_rng(4)
    p = Partition((2, 3, 2))
    f = _CountingCoverage(p, rng.random((p.total, 6)) < 0.4, rng.uniform(0.1, 1.0, 6))
    everything = frozenset(p.all_actions())
    reference = [f.marginal(a, everything - {a}) for a in p.all_actions()]
    f.value_calls = 0
    env = StaticEnvironment(f, horizon=3)
    graph = CommGraph.complete(p.n_agents)
    learner = PolicyConsensusLearner(
        p, graph, metropolis_weights(graph), SurrogateScheme.submodular(),
        horizon=3, seed=0, batch=2,
    )
    budget = MarginalBudget(p.n_agents)
    for t in range(1, 4):
        g = env.begin_round(t)
        budget.reset()
        got = [min_gain_vector(g, i, budget) for i in range(p.n_agents)]
        assert np.concatenate(got).tolist() == reference
        # every agent pays for its own slots on every call
        assert budget.per_agent().tolist() == list(p.sizes)
        learner.round(g, t)
        assert learner.budget.per_agent().tolist() == [3 * k for k in p.sizes]
    # one generic pass (two value queries per action) over three rounds
    assert f.value_calls == 2 * p.total
