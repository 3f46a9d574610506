"""Partitioned ground sets and the marginal-gain oracle interface.

The ground set V is a disjoint union of per-agent action sets V_1, ..., V_n;
agent i owns ``sizes[i]`` actions, and slot m of agent i has flat index
``offsets[i] + m`` (agent-major, slot-minor).  Sets are handled in two array
forms only:

* a slot matrix, ``(L, n)`` ints, one selection per row with entry ``[l, i]``
  agent i's chosen slot or -1 for idle -- at most one action per agent, the
  form of a round's selection (one ``(n,)`` row), samples, contexts and the
  outcome tensor;
* membership rows, ``(L, |V|)`` bools, one arbitrary subset of V per row in
  flat order -- the form :meth:`SetFunction.value` evaluates, since the
  structure ratios need subsets holding several actions of one agent.
  :meth:`Partition.members` converts the first form to the second.

Policies use the same flat order: one float row of length |V| (see
``extension.PolicyProfile``); :meth:`Partition.pad` lays the agents' blocks
out as a zero-padded ``(n, k_max)`` matrix for per-block vector operations.

Objectives are monotone normalized set functions exposed to learners only
through marginal gains on their own actions.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidActionError, ScaleError, quote

EXACT_ENUMERATION_LIMIT = 1_000_000
# Most actions of an oracle-scale instance: ratio estimation enumerates all
# 3^|V| subset pairs S of T, and the synthetic objectives exist for it.
ORACLE_MAX_ACTIONS = 12
OUTCOME_BLOCK = 1 << 14  # joint outcomes per value() call while building T


@dataclass(frozen=True)
class Partition:
    """Per-agent action-set sizes.  Action sets of distinct agents are disjoint."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        sizes = tuple(int(k) for k in self.sizes)
        if len(sizes) == 0:
            raise InvalidActionError(f"sizes {quote(sizes)}: partition needs at least one agent")
        if any(k < 1 for k in sizes):
            raise InvalidActionError(f"sizes {quote(sizes)}: every agent needs at least one action")
        object.__setattr__(self, "sizes", sizes)
        offsets = (0,) + tuple(itertools.accumulate(sizes))
        object.__setattr__(self, "_offsets", offsets)
        # array forms for the per-call checks and conversions
        object.__setattr__(self, "_sizes", np.array(sizes))
        object.__setattr__(self, "_starts", np.array(offsets[:-1]))
        # read-only owning agent of every flat index
        object.__setattr__(self, "owners", np.repeat(np.arange(len(sizes)), sizes))
        self.owners.flags.writeable = False
        # the padded block layout: flat positions of the real entries in the
        # (n, k_max) matrix, None when every block has k_max entries
        real = np.arange(max(sizes)) < np.array(sizes)[:, None]
        object.__setattr__(self, "_pad_index", None if real.all() else np.flatnonzero(real))

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

    def check_enumerable(self, need: str) -> None:
        """Refuse joint outcome spaces beyond :data:`EXACT_ENUMERATION_LIMIT`,
        naming ``need``, what needs them enumerated."""
        count = math.prod(self.outcome_shape)
        if count > EXACT_ENUMERATION_LIMIT:
            raise ScaleError(
                f"{need} needs every joint outcome enumerated: {count:,} of them, "
                f"past the limit of {EXACT_ENUMERATION_LIMIT:,}"
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
            and choices.dtype.kind in "iu"  # signed or unsigned integer
        ):
            raise InvalidActionError(f"expected an int slot matrix of shape (L, {self.n_agents})")
        if choices.size and ((choices < -1) | (choices >= self._sizes)).any():
            raise InvalidActionError(f"slot matrix entry outside [-1, k) for sizes {self.sizes}")

    @functools.cached_property
    def _own_columns(self) -> np.ndarray:  # row i marks column i; n^2 entries, so built on use
        return np.eye(self.n_agents, dtype=bool)

    def context_index(self, choices: np.ndarray, agent=None) -> np.ndarray:
        """Flat action index of every slot-matrix entry in its row's context,
        and -1, as in the slot matrix itself, for an idle entry and for
        ``agent``'s own column (with no agent, block i's column i of a slot
        tensor).  An objective reads index -1 as its zero row."""
        own = self._own_columns[slice(None) if agent is None else agent]
        return np.where((choices < 0) | own[..., None, :], -1, choices + self._starts)

    def members(self, choices: np.ndarray) -> np.ndarray:
        """``(L, |V|)`` bool membership rows of an ``(L, n)`` slot matrix: row l
        sets the flat index of every chosen entry of ``choices[l]``."""
        self.check_choices(choices)
        present = choices >= 0
        out = np.zeros((len(choices), self.total), dtype=bool)
        out[np.nonzero(present)[0], (choices + self._starts)[present]] = True
        return out

    def outcomes(self, index: np.ndarray) -> np.ndarray:
        """Slot rows of the joint outcomes at flat C-order positions ``index``
        of :attr:`outcome_shape`: position 0 is all idle, and the last
        agent's slot runs fastest."""
        return np.stack(np.unravel_index(index, self.outcome_shape), axis=1) - 1

    def pad(self, rows: np.ndarray, fill: float = 0.0) -> np.ndarray:
        """``(..., |V|)`` rows as ``(..., n, k_max)`` blocks, each agent's
        block padded with ``fill`` past its own k_j entries."""
        blocks = rows.shape[:-1] + (self.n_agents, max(self.sizes))
        if self._pad_index is None:
            return rows.reshape(blocks)
        out = np.full(rows.shape[:-1] + (math.prod(blocks[-2:]),), fill)
        out[..., self._pad_index] = rows
        return out.reshape(blocks)

    def unpad(self, blocks: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`pad`: the ``(..., |V|)`` rows of padded blocks."""
        rows = blocks.reshape(blocks.shape[:-2] + (-1,))
        return rows if self._pad_index is None else rows[..., self._pad_index]


class SetFunction:
    """Monotone normalized objective over a partitioned ground set.

    Subclasses set ``partition``, implement :meth:`value`, and must not
    change after their constructor.  ``value`` takes an ``(L, |V|)`` bool
    membership matrix, row l one subset of V in flat order (any subset: rows
    may hold several actions of one agent, or none), and returns the
    ``(L,)`` float64 values, one vectorized pass for all rows.  Its
    intermediates should stay linear in L times the larger of |V| and the
    objective's own width (targets, universe), since :attr:`outcome_values`
    asks for up to :data:`EXACT_ENUMERATION_LIMIT` rows at once.

    Subclasses also answer both oracle methods in closed form.  The marginal
    oracle is :meth:`agent_marginals`: it takes an ``(L, n)`` int slot matrix,
    one context per row, where the querying agent's own column is ignored, and
    returns the ``(L, k_agent)`` gains of every one of the agent's actions
    against every row; :meth:`marginal_rows` answers all agents' rows at once
    (one call each, unless an objective batches them in one bit-equal pass).
    Callers go through :func:`local_marginal_block` and
    :func:`local_marginal_rows`, which validate the slots and add the queries
    into the caller's count row.  :meth:`compute_min_gains` builds
    :attr:`min_gains`.  Their value-difference references live in
    ``tests/reference.py``.  The exact layer reads :attr:`outcome_values`.
    """

    partition: Partition

    def value(self, members: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def agent_marginals(self, agent: int, choices: np.ndarray) -> np.ndarray:
        """``(L, k_agent)`` gains of ``agent``'s actions against the rows."""
        raise NotImplementedError

    def marginal_rows(self, slots: np.ndarray) -> np.ndarray:
        """Column block i of the ``(L, |V|)`` result: agent i's gains against
        the rows of ``slots[i]``, one :meth:`agent_marginals` call each."""
        return np.concatenate([self.agent_marginals(i, s) for i, s in enumerate(slots)], axis=1)

    @functools.cached_property
    def min_gains(self) -> np.ndarray:
        """Read-only flat vector of f(v | V - {v}) over all |V| actions.

        It depends on f alone (not on any policy), so it is computed on first
        use and kept for the life of the objective.
        """
        gains = np.array(self.compute_min_gains(), dtype=np.float64)
        gains.flags.writeable = False
        return gains

    @functools.cached_property
    def outcome_values(self) -> np.ndarray:
        """Read-only tensor T of f over every joint outcome, of shape
        ``partition.outcome_shape``.

        Index 0 on agent i's axis is idle and index m + 1 its slot m, so the
        rows of a slot matrix read ``T[tuple((choices + 1).T)]``, and C order
        runs through the selections in ``oracle.feasible_sets`` order.  Like
        :attr:`min_gains` it is computed on first use, in :meth:`value` calls
        of :data:`OUTCOME_BLOCK` outcomes, and the size guard runs before it.
        """
        partition = self.partition
        partition.check_enumerable("outcome_values")
        values = np.empty(math.prod(partition.outcome_shape))
        for lo in range(0, values.size, OUTCOME_BLOCK):
            hi = min(lo + OUTCOME_BLOCK, values.size)
            rows = partition.members(partition.outcomes(np.arange(lo, hi)))
            values[lo:hi] = self.value(rows)
        values = values.reshape(partition.outcome_shape)
        values.flags.writeable = False
        return values

    @functools.cached_property
    def slot_gains(self) -> tuple[np.ndarray, ...]:
        """Read-only table per agent i, built on first use: :attr:`outcome_values`
        with axis i moved last, each slot's entry minus the idle one."""
        tables = [np.moveaxis(self.outcome_values, i, -1) for i in range(self.partition.n_agents)]
        gains = tuple(t[..., 1:] - t[..., :1] for t in tables)
        for table in gains:
            table.flags.writeable = False
        return gains

    def compute_min_gains(self) -> np.ndarray:
        """f(v | V - {v}) for every action v, the vector :attr:`min_gains` keeps."""
        raise NotImplementedError


def local_marginal_block(
    f: SetFunction,
    agent: int,
    choices: np.ndarray,
    queries: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Gains of all of ``agent``'s actions against every row of an ``(L, n)``
    slot matrix (see :class:`SetFunction`), as an ``(L, k_agent)`` array.

    The matrix is checked before anything is counted: an entry outside
    [-1, k_j) would address another agent's action.  One query per slot per
    row is added to ``queries[agent]``, the caller's ``(n,)`` int count row;
    None counts nothing.
    """
    f.partition.check_agent(agent)
    f.partition.check_choices(choices)
    if queries is not None:
        queries[agent] += len(choices) * f.partition.sizes[agent]
    return f.agent_marginals(agent, choices)


def local_marginal_rows(
    f: SetFunction, slots: np.ndarray, queries: Optional[np.ndarray] = None
) -> np.ndarray:
    """Every agent's :func:`local_marginal_block` in one call: column block
    i of the ``(L, |V|)`` result answers block i of an ``(n, L, n)`` slot
    tensor.  The tensor is checked once, before L * k_i is added to
    ``queries[i]`` for every agent i."""
    p = f.partition
    n = p.n_agents
    if not (isinstance(slots, np.ndarray) and slots.ndim == 3 and slots.shape[::2] == (n, n)):
        raise InvalidActionError(f"expected an int slot tensor of shape ({n}, L, {n})")
    p.check_choices(slots.reshape(-1, n))
    if queries is not None:
        queries += slots.shape[1] * p._sizes
    return f.marginal_rows(slots)
