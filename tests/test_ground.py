"""Partition addressing, feasible selections, and the marginal-oracle layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macoord.envs import (
    ModularFunction,
    SqrtModularFunction,
    StaticEnvironment,
    WeightedCoverage,
)
from macoord.errors import InvalidActionError
from macoord.ground import (
    Partition,
    SetFunction,
    local_marginal_block,
    local_marginal_rows,
)
from macoord.harness import make_learner
from macoord.network import CommGraph


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
    assert p.offsets == (0, 2, 3, 6)
    # slot m of agent i sets flat index offsets[i] + m: agent-major,
    # slot-minor, covering 0..total-1 in order, and the offsets map it back
    seen = []
    for i, k in enumerate(p.sizes):
        for m in range(k):
            choices = np.full((1, p.n_agents), -1)
            choices[0, i] = m
            idx = int(np.flatnonzero(p.members(choices)[0])[0])
            agent = int(np.searchsorted(p.offsets, idx, side="right")) - 1
            assert (agent, idx - p.offsets[agent]) == (i, m)
            seen.append(idx)
    assert seen == list(range(p.total))
    rows = p.members(np.array([[1, -1, 2], [-1, -1, -1], [0, 0, 0]]))
    assert rows.dtype == bool
    assert rows.astype(int).tolist() == [
        [0, 1, 0, 0, 0, 1],
        [0, 0, 0, 0, 0, 0],
        [1, 0, 1, 1, 0, 0],
    ]
    assert p.members(np.zeros((0, 3), dtype=np.int64)).shape == (0, 6)
    with pytest.raises(InvalidActionError):
        p.members(np.array([[2, -1, 0]]))  # agent 0 has two slots
    with pytest.raises(InvalidActionError):
        p.members(np.array([[0, 0]]))  # a column short


def test_agent_actions():
    p = Partition((2, 3))
    # agent 1's actions are the flat range offsets[1] .. offsets[2] - 1
    assert list(range(p.offsets[1], p.offsets[2])) == [2, 3, 4]
    p.check_agent(1)
    with pytest.raises(InvalidActionError):
        p.check_agent(2)


def test_feasible_set_basics():
    # a selection is an (n,) slot row, -1 for an idle agent
    p = Partition((2, 2, 2))
    row = p.members(np.array([[1, -1, 0]]))[0]
    assert np.flatnonzero(row).tolist() == [1, 4]
    assert row.sum() == 2
    assert not p.members(np.full((1, 3), -1)).any()


@st.composite
def _partitions_and_slot_rows(draw):
    p = Partition(tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))))
    rows = draw(
        st.lists(
            st.tuples(*(st.integers(-1, k - 1) for k in p.sizes)), min_size=0, max_size=8
        )
    )
    return p, np.array(rows, dtype=np.int64).reshape(len(rows), p.n_agents)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_partitions_and_slot_rows(), st.data())
def test_slot_rows_round_trip_through_members(case, data):
    p, choices = case
    members = p.members(choices)
    assert members.shape == (len(choices), p.total)
    # back from the membership rows: each agent's set bit, or idle
    back = np.full(choices.shape, -1)
    for l, row in enumerate(members):
        for idx in np.flatnonzero(row):
            agent = int(np.searchsorted(p.offsets, idx, side="right")) - 1
            assert back[l, agent] == -1  # at most one action per agent
            back[l, agent] = idx - p.offsets[agent]
    np.testing.assert_array_equal(back, choices)
    # any entry outside [-1, k_j) is refused, wherever it sits
    if len(choices):
        l = data.draw(st.integers(0, len(choices) - 1))
        j = data.draw(st.integers(0, p.n_agents - 1))
        bad = choices.copy()
        bad[l, j] = data.draw(
            st.one_of(st.integers(-(2**40), -2), st.integers(p.sizes[j], 2**40))
        )
        with pytest.raises(InvalidActionError):
            p.check_choices(bad)
        with pytest.raises(InvalidActionError):
            p.members(bad)


def test_outcomes_enumerate_slot_rows_in_c_order():
    p = Partition((2, 1))
    rows = p.outcomes(np.arange(6))
    assert rows.tolist() == [[-1, -1], [-1, 0], [0, -1], [0, 0], [1, -1], [1, 0]]
    assert p.outcomes(np.array([5, 0])).tolist() == [[1, 0], [-1, -1]]


def test_pad_and_unpad_blocks():
    p = Partition((2, 1, 3))
    rows = np.arange(12.0).reshape(2, 6) + 1
    padded = p.pad(rows)
    assert padded.shape == (2, 3, 3)
    assert padded[0].tolist() == [[1, 2, 0], [3, 0, 0], [4, 5, 6]]
    np.testing.assert_array_equal(p.unpad(padded), rows)
    np.testing.assert_array_equal(p.unpad(p.pad(rows[0])), rows[0])
    # equal blocks need no padding
    q = Partition((2, 2))
    assert q.pad(np.arange(4.0)).tolist() == [[0, 1], [2, 3]]


def test_default_marginal_is_value_difference():
    p = Partition((2, 2))
    f = SqrtModularFunction(p, np.array([1.0, 4.0, 9.0, 16.0]))
    # context {(0, 1)}, and the same context plus each of agent 1's slots
    rows = np.array([[0, 1, 0, 0], [0, 1, 1, 0], [0, 1, 0, 1]], dtype=bool)
    values = f.value(rows)
    gains = SetFunction.agent_marginals(f, 1, np.array([[1, -1]]))[0]
    assert gains == pytest.approx(values[1:] - values[0], abs=1e-15)
    # the agent's own column is ignored: a chosen own slot is not context
    assert SetFunction.agent_marginals(f, 1, np.array([[1, 0]])).tolist() == [gains.tolist()]


def test_default_agent_marginals_matches_slot_loop():
    p = Partition((3, 2))
    f = SqrtModularFunction(p, np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    base = np.array([[False, False, False, False, True]])  # context {(1, 1)}
    block = f.agent_marginals(0, np.array([[-1, 1]]))[0]
    for m in range(3):
        with_m = base.copy()
        with_m[0, m] = True
        expect = f.value(with_m)[0] - f.value(base)[0]
        assert block[m] == pytest.approx(expect, abs=1e-15)


def test_budget_accounting():
    # the oracle adds L * k_i into the caller's (n,) count row, agent i's entry
    p = Partition((2, 3, 1))
    f = ModularFunction(p, np.arange(1.0, 7.0))
    queries = np.zeros(3, dtype=np.int64)
    local_marginal_block(f, 0, np.full((1, 3), -1), queries)
    local_marginal_block(f, 1, np.full((2, 3), -1), queries)
    assert queries.tolist() == [2, 6, 0]
    local_marginal_rows(f, np.full((3, 4, 3), -1), queries)
    assert queries.tolist() == [2 + 8, 6 + 12, 4]
    # None counts nothing, and the gains are the same
    block = local_marginal_block(f, 1, np.full((2, 3), -1))
    assert block.tolist() == [[3.0, 4.0, 5.0]] * 2
    assert local_marginal_rows(f, np.full((3, 1, 3), -1)).tolist() == [list(np.arange(1.0, 7.0))]
    assert queries.tolist() == [10, 18, 4]


def test_context_index_marks_idle_and_own_entries_minus_one():
    p = Partition((2, 3, 1))  # agent starts 0, 2, 5
    choices = np.array([[1, -1, 0], [0, 2, -1]])
    # per agent: the agent's own column and every idle entry are -1
    assert p.context_index(choices, 0).tolist() == [[-1, -1, 5], [-1, 4, -1]]
    assert p.context_index(choices, 1).tolist() == [[1, -1, 5], [0, -1, -1]]
    assert p.context_index(choices, 2).tolist() == [[1, -1, -1], [0, 4, -1]]
    # tensor mode: block i drops its column i, as agent i's call does
    slots = np.stack([choices, choices[::-1], choices])
    idx = p.context_index(slots)
    assert idx.shape == slots.shape
    for i, block in enumerate(slots):
        np.testing.assert_array_equal(idx[i], p.context_index(block, i))
    assert idx[1].tolist() == [[0, -1, -1], [1, -1, 5]]


def test_local_marginal_block_charges_per_slot():
    p = Partition((2, 3))
    f = ModularFunction(p, np.arange(1.0, 6.0))
    queries = np.zeros(2, dtype=np.int64)
    gains = local_marginal_block(f, 1, np.array([[-1, -1]]), queries)
    assert gains.tolist() == [[3.0, 4.0, 5.0]]
    assert queries.tolist() == [0, 3]
    # every row counts one query per slot, also a row that sets the
    # agent's own column (ignored: the full own weights come back)
    gains = local_marginal_block(f, 0, np.array([[1, 0], [-1, 2], [0, -1]]), queries)
    assert gains.tolist() == [[1.0, 2.0]] * 3
    assert queries.tolist() == [6, 3]


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
    queries = np.zeros(2, dtype=np.int64)
    with pytest.raises(InvalidActionError):
        local_marginal_block(f, 1, choices, queries)
    assert queries.tolist() == [0, 0]


def test_local_marginal_rows_charges_every_agent():
    p = Partition((2, 3))
    f = ModularFunction(p, np.arange(1.0, 6.0))
    queries = np.zeros(2, dtype=np.int64)
    slots = np.array([[[1, 0], [-1, 2], [0, -1]], [[-1, -1], [1, 0], [0, 2]]])
    gains = local_marginal_rows(f, slots, queries)
    # column block i answers block i's rows: modular gains are the weights
    assert gains.tolist() == [[1.0, 2.0, 3.0, 4.0, 5.0]] * 3
    assert queries.tolist() == [3 * 2, 3 * 3]


@pytest.mark.parametrize(
    "slots",
    [
        np.zeros((1, 2), dtype=np.int64),  # a slot matrix, not a tensor
        np.zeros((2, 1, 2, 1), dtype=np.int64),  # rank 4
        np.zeros((3, 1, 2), dtype=np.int64),  # a block too many
        np.zeros((2, 1, 3), dtype=np.int64),  # a column too many
        np.zeros((2, 1, 2), dtype=np.float64),  # not integer
        [[[0, 0]], [[0, 0]]],  # not an array
        np.array([[[0, 0]], [[0, 3]]]),  # past agent 1's last slot
        np.array([[[0, 0]], [[-2, 0]]]),  # below idle
    ],
    ids=["matrix", "rank-4", "blocks", "columns", "float", "list", "slot-past-k", "below-idle"],
)
def test_local_marginal_rows_rejects_bad_slot_tensor_before_charge(slots):
    p = Partition((2, 3))
    f = ModularFunction(p, np.arange(1.0, 6.0))
    queries = np.zeros(2, dtype=np.int64)
    with pytest.raises(InvalidActionError):
        local_marginal_rows(f, slots, queries)
    assert queries.tolist() == [0, 0]


def test_min_gain_vector():
    p = Partition((2, 2))
    f = ModularFunction(p, np.array([0.5, 1.25, 0.75, 2.0]))
    # modular: the gain against everything else is just the weight
    assert f.min_gains[:2].tolist() == [0.5, 1.25]

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
    assert g.min_gains[:2].tolist() == [0.0, 3.0]


class _CountingCoverage(WeightedCoverage):
    """Weighted coverage that counts its value calls and the rows they carry."""

    value_calls = 0
    value_rows = 0

    def value(self, members):
        self.value_calls += 1
        self.value_rows += len(members)
        return super().value(members)


def test_min_gain_vector_computed_once_per_objective():
    rng = np.random.default_rng(4)
    p = Partition((2, 3, 2))
    f = _CountingCoverage(p, rng.random((p.total, 6)) < 0.4, rng.uniform(0.1, 1.0, 6))
    full = f.value(np.ones((1, p.total), dtype=bool))[0]
    reference = (full - f.value(~np.eye(p.total, dtype=bool))).tolist()
    f.value_calls = f.value_rows = 0
    env = StaticEnvironment(f)
    graph = CommGraph.complete(p.n_agents)
    learner = make_learner({"kind": "ma-spl", "batch": 2}, p, graph, horizon=3, seed=0)
    for t in range(1, 4):
        g = env.begin_round()
        assert g.min_gains.tolist() == reference
        learner.round(g, t)
        # two samples plus the bonus: three queries per slot and round
        assert learner.queries.tolist() == [3 * k for k in p.sizes]
    # one generic pass (one value call: V and every V - {v}) over three rounds
    assert f.value_calls == 1
    assert f.value_rows == p.total + 1
