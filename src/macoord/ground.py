"""Partitioned ground sets and the marginal-gain oracle interface.

The ground set V is a disjoint union of per-agent action sets V_1, ..., V_n;
agent i owns ``sizes[i]`` actions addressed as ``ActionId(agent=i, slot=m)``.
A feasible selection picks at most one action per agent.  Objectives are
monotone normalized set functions exposed to learners only through marginal
gains on their own actions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import InvalidActionError, ScaleError

EXACT_ENUMERATION_LIMIT = 1_000_000


@dataclass(frozen=True, order=True)
class ActionId:
    """Identifier of a single action: slot ``slot`` of agent ``agent``."""

    agent: int
    slot: int


@dataclass(frozen=True)
class Partition:
    """Per-agent action-set sizes.  Action sets of distinct agents are disjoint."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        sizes = tuple(int(k) for k in self.sizes)
        if len(sizes) == 0:
            raise InvalidActionError("partition needs at least one agent")
        if any(k < 1 for k in sizes):
            raise InvalidActionError(f"every agent needs at least one action, got {sizes}")
        object.__setattr__(self, "sizes", sizes)
        offsets = (0,) + tuple(itertools.accumulate(sizes))
        object.__setattr__(self, "_offsets", offsets)

    @property
    def n_agents(self) -> int:
        return len(self.sizes)

    @property
    def total(self) -> int:
        """Total number of actions |V|."""
        return self._offsets[-1]

    @property
    def offsets(self) -> tuple[int, ...]:
        """Flat index of each agent's first action, followed by |V|."""
        return self._offsets

    @property
    def outcome_shape(self) -> tuple[int, ...]:
        """Joint outcomes per agent: idle, then each of its slots."""
        return tuple(k + 1 for k in self.sizes)

    def check_enumerable(self) -> None:
        """Refuse joint outcome spaces beyond :data:`EXACT_ENUMERATION_LIMIT`."""
        if math.prod(self.outcome_shape) > EXACT_ENUMERATION_LIMIT:
            raise ScaleError(
                f"joint outcome space exceeds {EXACT_ENUMERATION_LIMIT}; "
                "use the Monte-Carlo estimators instead"
            )

    def check_agent(self, agent: int) -> None:
        if not (0 <= agent < self.n_agents):
            raise InvalidActionError(f"agent {agent} out of range")

    def check_choices(self, choices: np.ndarray) -> None:
        """Reject anything but an ``(L, n)`` int matrix with column j in [-1, k_j)."""
        if not (
            isinstance(choices, np.ndarray)
            and choices.ndim == 2
            and choices.shape[1] == self.n_agents
            and np.issubdtype(choices.dtype, np.integer)
        ):
            raise InvalidActionError(f"expected an int slot matrix of shape (L, {self.n_agents})")
        if choices.size and ((choices < -1).any() or (choices >= self.sizes).any()):
            raise InvalidActionError(f"slot matrix entry outside [-1, k) for sizes {self.sizes}")

    def context_index(self, choices: np.ndarray, agent: int) -> tuple[np.ndarray, np.ndarray]:
        """Flat action index of every slot-matrix entry, and whether it is in
        the row's context (chosen, and not in ``agent``'s own column).  An
        absent entry's index is a valid placeholder, 0."""
        present = choices >= 0
        present[:, agent] = False
        return np.where(present, choices + self._offsets[:-1], 0), present

    def validate(self, a: ActionId) -> None:
        if not (0 <= a.agent < self.n_agents) or not (0 <= a.slot < self.sizes[a.agent]):
            raise InvalidActionError(f"{a} outside partition with sizes {self.sizes}")

    def flat_index(self, a: ActionId) -> int:
        """Position of ``a`` in the flat enumeration (agent-major, slot-minor)."""
        self.validate(a)
        return self._offsets[a.agent] + a.slot

    def from_flat(self, idx: int) -> ActionId:
        """Inverse of :meth:`flat_index`."""
        if not (0 <= idx < self.total):
            raise InvalidActionError(f"flat index {idx} out of range [0, {self.total})")
        agent = int(np.searchsorted(self._offsets, idx, side="right")) - 1
        return ActionId(agent, idx - self._offsets[agent])

    def agent_actions(self, agent: int) -> tuple[ActionId, ...]:
        self.check_agent(agent)
        return tuple(ActionId(agent, m) for m in range(self.sizes[agent]))

    def all_actions(self) -> Iterator[ActionId]:
        for i, k in enumerate(self.sizes):
            for m in range(k):
                yield ActionId(i, m)


@dataclass(frozen=True)
class FeasibleSet:
    """At most one chosen slot per agent; ``None`` marks an agent that sits out."""

    choice: tuple[Optional[int], ...]

    @staticmethod
    def empty(n_agents: int) -> "FeasibleSet":
        return FeasibleSet((None,) * n_agents)

    @staticmethod
    def from_actions(partition: Partition, actions: Iterable[ActionId]) -> "FeasibleSet":
        choice: list[Optional[int]] = [None] * partition.n_agents
        for a in actions:
            partition.validate(a)
            if choice[a.agent] is not None:
                raise InvalidActionError(f"agent {a.agent} selected twice")
            choice[a.agent] = a.slot
        return FeasibleSet(tuple(choice))

    def actions(self) -> tuple[ActionId, ...]:
        return tuple(ActionId(i, m) for i, m in enumerate(self.choice) if m is not None)

    def as_set(self) -> frozenset[ActionId]:
        return frozenset(self.actions())

    def size(self) -> int:
        return sum(1 for m in self.choice if m is not None)


def as_action_set(context: "FeasibleSet | Iterable[ActionId]") -> frozenset[ActionId]:
    """Canonicalize a context (FeasibleSet or iterable of actions) to a frozenset."""
    if isinstance(context, FeasibleSet):
        return context.as_set()
    return frozenset(context)


def slot_row_actions(choice: Sequence[int], skip: Optional[int] = None) -> frozenset[ActionId]:
    """Actions chosen by one slot-matrix row (-1 is idle), leaving out agent ``skip``."""
    return frozenset(ActionId(j, s) for j, s in enumerate(choice) if s >= 0 and j != skip)


class SetFunction:
    """Monotone normalized objective over a partitioned ground set.

    Subclasses set ``partition``, implement :meth:`value`, and must not
    change after their constructor.  The marginal oracle is
    :meth:`agent_marginals`: it takes an ``(L, n)`` int slot matrix, one
    context per row, where entry ``[l, j]`` is agent j's chosen slot or -1
    for idle, and the querying agent's own column is ignored.  It returns
    the ``(L, k_agent)`` gains of every one of the agent's actions against
    every row.  Callers go through :func:`local_marginal_block`, which
    validates the matrix and charges the queries.  The generic
    :meth:`agent_marginals` (two value queries per slot per row) and
    :meth:`compute_min_gains` are the tested references; objectives
    override them with vectorized versions where it pays off.  The exact
    (enumeration-scale) layer reads :attr:`outcome_values` instead.
    """

    partition: Partition
    _min_gains: Optional[np.ndarray] = None
    _outcome_values: Optional[np.ndarray] = None

    def value(self, actions: Iterable[ActionId]) -> float:
        raise NotImplementedError

    def marginal(self, a: ActionId, context: Iterable[ActionId]) -> float:
        """Gain of adding ``a`` to ``context``; zero if ``a`` already present."""
        ctx = as_action_set(context)
        if a in ctx:
            return 0.0
        return self.value(ctx | {a}) - self.value(ctx)

    def agent_marginals(self, agent: int, choices: np.ndarray) -> np.ndarray:
        """Gains of every action of ``agent`` against every slot-matrix row."""
        out = np.empty((len(choices), self.partition.sizes[agent]), dtype=np.float64)
        for row, choice in zip(out, np.asarray(choices).tolist()):
            ctx = slot_row_actions(choice, skip=agent)
            for m in range(row.size):
                row[m] = self.marginal(ActionId(agent, m), ctx)
        return out

    @property
    def min_gains(self) -> np.ndarray:
        """Read-only flat vector of f(v | V - {v}) over all |V| actions.

        It depends on f alone (not on any policy), so it is computed on first
        use and kept for the life of the objective.
        """
        if self._min_gains is None:
            gains = np.array(self.compute_min_gains(), dtype=np.float64)
            gains.flags.writeable = False
            self._min_gains = gains
        return self._min_gains

    @property
    def outcome_values(self) -> np.ndarray:
        """Read-only tensor T of f over every joint outcome, of shape
        ``partition.outcome_shape``.

        Index 0 on agent i's axis is idle and index m + 1 its slot m, so the
        rows of a slot matrix read ``T[tuple((choices + 1).T)]``, and C order
        runs through the selections in ``oracle.feasible_sets`` order.  Like
        :attr:`min_gains` it is computed on first use, one value query per
        outcome, and the size guard runs before any query.
        """
        if self._outcome_values is None:
            self.partition.check_enumerable()
            rows = itertools.product(*(range(-1, k) for k in self.partition.sizes))
            values = np.array(
                [self.value(slot_row_actions(row)) for row in rows], dtype=np.float64
            ).reshape(self.partition.outcome_shape)
            values.flags.writeable = False
            self._outcome_values = values
        return self._outcome_values

    def compute_min_gains(self) -> np.ndarray:
        """Reference path for :attr:`min_gains`: two value queries per action."""
        everything = frozenset(self.partition.all_actions())
        return np.array(
            [self.marginal(a, everything - {a}) for a in self.partition.all_actions()],
            dtype=np.float64,
        )


class MarginalBudget:
    """Per-agent counter of marginal-oracle queries; reset at round boundaries."""

    def __init__(self, n_agents: int):
        self._counts = np.zeros(n_agents, dtype=np.int64)

    def charge(self, agent: int, count: int = 1) -> None:
        if count < 0:
            raise ValueError("cannot uncharge a query budget")
        self._counts[agent] += count

    def per_agent(self) -> np.ndarray:
        return self._counts.copy()

    def total(self) -> int:
        return int(self._counts.sum())

    def reset(self) -> None:
        self._counts[:] = 0


def local_marginal_block(
    f: SetFunction,
    agent: int,
    choices: np.ndarray,
    budget: Optional[MarginalBudget] = None,
) -> np.ndarray:
    """Gains of all of ``agent``'s actions against every row of an ``(L, n)``
    slot matrix (see :class:`SetFunction`), as an ``(L, k_agent)`` array.

    The matrix is checked before anything is charged: an entry outside
    [-1, k_j) would address another agent's action.  Charges one query per
    slot per row.
    """
    f.partition.check_agent(agent)
    f.partition.check_choices(choices)
    if budget is not None:
        budget.charge(agent, len(choices) * f.partition.sizes[agent])
    return f.agent_marginals(agent, choices)


def min_gain_vector(
    f: SetFunction, agent: int, budget: Optional[MarginalBudget] = None
) -> np.ndarray:
    """Smallest-context-complement gains f(v | V - {v}) for agent's actions.

    Returns the agent's read-only slice of ``f.min_gains``, which is computed
    once per objective.  Every call still charges the agent one query per
    slot, since each agent learns its own gains through its own oracle.
    """
    f.partition.check_agent(agent)
    if budget is not None:
        budget.charge(agent, f.partition.sizes[agent])
    lo, hi = f.partition.offsets[agent], f.partition.offsets[agent + 1]
    return f.min_gains[lo:hi]
