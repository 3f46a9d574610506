"""Decentralized learners over the policy relaxation, plus baselines.

Both coordination learners hold one ``(n, |V|)`` matrix: row i is agent i's
estimate of the whole joint policy, with columns in the partition's flat
order, so agent j's block is the column range of its actions.  Agents talk
only to graph neighbors once per round (or once per inner step) and query
the objective only through marginal gains of their own actions.  Every
learner returns a round's selection as an ``(n,)`` int slot row, -1 for an
idle agent.

* :class:`PolicyConsensusLearner` — single projected-ascent step per round on
  a reweighted stochastic gradient, after mixing the rows through the
  graph's Metropolis weights, ``W @ X``.
* :class:`MetaConditionalGradientLearner` — per-round K-step conditional
  gradient whose ascent directions come from K persistent online linear
  maximizers, held as one ``(K, |V|)`` iterate matrix; each row spreads by
  max-consensus, a delay line: a block reaches an agent one inner step
  late per hop beyond the first.

Both learners round every agent's own-stream draws in one call, then make
one marginal-oracle call for all agents (``extension.sampled_gradients``).
Every learner counts its round's marginal queries in ``queries``, an
``(n,)`` int64 row that it zeroes when the round starts and that the oracle
adds into.  A sampled learner whose per-round draws would pass
``errors.TABLE_LIMIT`` entries is refused when it is built.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import ConfigError, check_sizes
from .extension import (
    PolicyProfile,
    SurrogateScheme,
    exact_gradient,
    sample_slots,
    sampled_gradients,
)
from .geometry import project_blocks
from .ground import Partition, SetFunction, local_marginal_block
from .network import UNREACHABLE, CommGraph, hop_distances, metropolis_weights

_RANDOM_TAG = 0x72616E64
NORMALIZE_FLOOR = 1e-12  # a played block with no more mass than this plays uniformly


def agent_stream(seed: int, t: int, agent: int) -> np.random.Generator:
    """Independent per-(round, agent) generator; order-insensitive across agents.

    The stream of ``default_rng(SeedSequence((seed, t, agent)))``, seeded from
    the uint32 words numpy splits that tuple into (each int little-endian, 0
    as one zero word), which skips its per-element coercion.
    """
    words = []
    for x in (int(seed), int(t), int(agent)):
        if x < 0:
            raise ValueError(f"expected non-negative integers, got {(seed, t, agent)}")
        words.append(x & 0xFFFFFFFF)
        while x := x >> 32:
            words.append(x & 0xFFFFFFFF)
    entropy = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    return np.random.Generator(np.random.PCG64(entropy))


def _step_size(eta0: float, horizon: int, step_size: Optional[float]) -> tuple[float, str]:
    """The ascent step, ``step_size`` or else eta0 / sqrt(horizon), and the
    field that set it, which a refusal names."""
    if step_size is not None:
        if not 0.0 < step_size < math.inf:
            raise ConfigError(f"step_size must be finite and positive, got {step_size}")
        return step_size, "step_size"
    step = eta0 / math.sqrt(horizon)
    if not 0.0 < step < math.inf:
        raise ConfigError(
            f"eta0 must give a finite positive step eta0/sqrt(horizon), got eta0 {eta0}, "
            f"step {step}"
        )
    return step, "eta0"


def _ascend(learner, rows: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Project ``rows + step * grad``, for the learner's step, onto every
    block of its partition's capped simplex.  A step that overflows leaves a
    row non-finite, which the projection refuses; that refusal is reported
    as a config error on the field that set the step."""
    step = learner.step_size
    with np.errstate(over="ignore"):
        ascent = rows + step * grad
    try:
        return project_blocks(learner.partition, ascent)
    except ValueError as exc:
        raise ConfigError(
            f"{learner.step_field} gives the step {step:g}, which times gradients of "
            f"magnitude up to {np.abs(grad).max():g} is not finite"
        ) from exc


def _play(partition: Partition, own: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Each agent samples its own block, scaled to sum one, at its uniform
    ``u[i]``: the number of the block's cumulative sums at or below it, over
    half-open intervals.  A block with about zero mass plays uniformly.  All
    blocks go zero-padded (:meth:`Partition.pad`) through one pass; a count
    past a block's own slots, from the padding or from round-off that leaves
    the block's total below its uniform, gives the block's last slot."""
    blocks = partition.pad(own)
    totals = blocks.sum(axis=-1, keepdims=True)
    empty = totals <= NORMALIZE_FLOOR
    sizes = np.array(partition.sizes)
    scaled = np.where(empty, 1.0 / sizes[:, None], blocks / np.where(empty, 1.0, totals))
    counts = (np.cumsum(scaled, axis=-1) <= u[:, None]).sum(axis=-1)
    return np.minimum(counts, sizes - 1)


class PolicyConsensusLearner:
    """Consensus-plus-projected-ascent coordination (one gradient step/round).

    Takes the run's ``partition``, ``graph`` (its Metropolis weights,
    :func:`network.metropolis_weights`, are the consensus matrix),
    ``horizon`` and master ``seed`` (the per-(round, agent) streams derive
    from it), then the ``ma-spl`` fields of ``harness.LEARNER_FIELDS``,
    which holds their defaults; ``harness.make_learner`` builds one from a
    spec.

    scheme : Optional[SurrogateScheme]
        Gradient reweighting, None for plain F; the submodular scheme also
        adds the min-gain bonus, which the objective computes once; each
        agent counts its slots once per round and reuses its slice across
        the batch.
    eta0, step_size : float, Optional[float]
        The ascent step, ``step_size`` or else eta0 / sqrt(horizon).
    batch : int
        Single-sample estimates averaged per round and agent.
    exact_gradient : bool
        Replace the Monte-Carlo estimates with the quadrature-exact gradient,
        every agent's block at its own view in one call (only possible at
        enumeration scale; no marginal queries counted).
    """

    def __init__(
        self,
        partition: Partition,
        graph: CommGraph,
        *,
        horizon: int,
        seed: int,
        scheme: Optional[SurrogateScheme],
        eta0: float,
        batch: int,
        exact_gradient: bool,
        step_size: Optional[float],
    ):
        if graph.n != partition.n_agents:
            raise ConfigError("graph and partition disagree on the number of agents")
        if batch < 1:
            raise ConfigError(f"batch must be at least 1, got {batch}")
        if not exact_gradient:
            check_sizes("ma-spl", {"agents": partition.n_agents, "batch": batch,
                                   "|V|": partition.total}, "a round's z-scaled views")
        self.partition = partition
        self.weights = metropolis_weights(graph)
        self.scheme = scheme
        self.seed = int(seed)
        self.batch = int(batch)
        self.exact_gradient = bool(exact_gradient)
        self.step_size, self.step_field = _step_size(eta0, horizon, step_size)
        self._own = (partition.owners, np.arange(partition.total))  # row i at agent i's columns
        # each agent starts uniform on its own block and empty elsewhere
        self.policies = np.zeros((partition.n_agents, partition.total))
        self.policies[self._own] = PolicyProfile.uniform(partition).row
        self.queries = np.zeros(partition.n_agents, dtype=np.int64)

    def set_start(self, profile: PolicyProfile) -> None:
        """Reset every agent's estimates to a common profile (diagnostics)."""
        if profile.partition != self.partition or profile.row.ndim != 1:
            raise ConfigError("profile does not match the partition")
        self.policies = np.tile(profile.row, (self.partition.n_agents, 1))

    def played_profile(self) -> PolicyProfile:
        """Own blocks only — the joint policy actually being sampled from."""
        return PolicyProfile(self.partition, self.policies[self._own])

    def round(self, f: SetFunction, t: int) -> np.ndarray:
        self.queries[:] = 0
        n = self.partition.n_agents
        streams = [agent_stream(self.seed, t, i) for i in range(n)]
        u = np.array([stream.random() for stream in streams])
        chosen = _play(self.partition, self.policies[self._own], u)

        # local reweighted gradients at each agent's current view: one exact
        # contraction of all views, or every agent's z-scaled views rounded at
        # once and one oracle call for all
        views = PolicyProfile._of_own_rows(self.partition, self.policies)
        if self.exact_gradient:
            grad = exact_gradient(f, views, self.scheme)
        else:
            slots = sample_slots(views, streams, self.batch, self.scheme)
            grad = sampled_gradients(f, slots, self.batch, self.queries, self.scheme)[0]

        # consensus averaging of every copy; ascent step on the own blocks
        mixed = self.weights @ self.policies
        mixed[self._own] = _ascend(self, mixed[self._own], grad)
        self.policies = mixed
        return chosen

    def disagreement(self) -> float:
        """Total L2 spread of the agents' estimates around their mean."""
        spread = self.policies - self.policies.mean(axis=0)
        per_block = np.add.reduceat(spread * spread, self.partition.offsets[:-1], axis=1)
        return float(np.sqrt(per_block).sum())


class MetaConditionalGradientLearner:
    """Per-round K-step conditional gradient with max-consensus estimates.

    Every round rebuilds the joint policy from zero in K inner steps: each
    agent adds one K-th of a direction proposed by its k-th online linear
    maximizer to its own block, then keeps the coordinate-wise max over its
    closed neighborhood.  Estimates of any block only ever grow within a
    round, so the max is the freshest copy, and it is one hop fresher than
    the neighbors' own: agent i's copy of block j after step k is block j's
    running sum ``C_j[k - max(hop(i, j) - 1, 0)]``, with ``C = cumsum(iterates
    / K)`` from a zero row, and zero for a block i cannot reach.  Each round
    is that delay line, one cumulative sum and one gather through a lag
    table built from the graph's hop distances.  After playing, each
    inner-step estimate is scored by an L-sample mean of marginal gains (all
    agents' n K L draws rounded at once, one oracle call for all) and fed
    back to the matching maximizer.

    The maximizers are online gradient ascent on the capped simplex: row k of
    ``iterates`` holds every agent's k-th iterate on its own block, starts
    uniform (hence on the sum-one face), is the k-th direction, and moves by
    a projected gradient step on each observed linear reward (:meth:`update`).

    Takes the run's ``partition``, ``graph``, ``horizon`` and ``seed``, then
    the ``ma-mpl`` fields of ``harness.LEARNER_FIELDS``: ``K``, ``L``, and
    ``eta0`` and ``step_size`` as for :class:`PolicyConsensusLearner`.
    """

    def __init__(
        self,
        partition: Partition,
        graph: CommGraph,
        *,
        horizon: int,
        seed: int,
        K: int,
        L: int,
        eta0: float,
        step_size: Optional[float],
    ):
        if graph.n != partition.n_agents:
            raise ConfigError("graph and partition disagree on the number of agents")
        if K < 3:
            raise ConfigError(f"K, the inner steps per round, must be at least 3, got {K}")
        if L < 1:
            raise ConfigError(f"L, the samples per inner step, must be at least 1, got {L}")
        check_sizes("ma-mpl", {"agents": partition.n_agents, "K": K, "L": L,
                               "|V|": partition.total}, "a round's sampler comparison table")
        self.partition = partition
        self.seed = int(seed)
        self.K = int(K)
        self.L = int(L)
        self.step_size, self.step_field = _step_size(eta0, horizon, step_size)
        n = partition.n_agents
        self.iterates = np.tile(PolicyProfile.uniform(partition).row, (self.K, 1))
        self.queries = np.zeros(n, dtype=np.int64)
        self._own = (partition.owners, np.arange(partition.total))  # row i at agent i's columns
        # (K, n, |V|) flat index into the (K + 1, |V|) running sums: row
        # k + 1 - lag, lag = max(hop - 1, 0), clipped at the zero row 0
        hops = np.repeat(hop_distances(graph), partition.sizes, axis=1)
        rows = np.arange(1, self.K + 1)[:, None, None] - np.maximum(hops - 1, 0)
        rows = np.where(hops == UNREACHABLE, 0, np.maximum(rows, 0))
        self._lag = rows * partition.total + np.arange(partition.total)
        self._steps = np.zeros((self.K, n, partition.total))
        self.estimates = self._steps[-1]

    def update(self, rewards: np.ndarray) -> None:
        """Move every maximizer by a projected gradient step on its linear
        reward, a ``(K, |V|)`` matrix laid out like ``iterates``, in one
        projection.  Nonnegative rewards keep every block on the sum-one
        face, since the projection of a superunit nonnegative point lands
        there."""
        rewards = np.asarray(rewards, dtype=np.float64)
        if rewards.shape != self.iterates.shape:
            raise ValueError("reward dimension mismatch")
        self.iterates = _ascend(self, self.iterates, rewards)

    def _gaps(self, estimates: np.ndarray) -> np.ndarray:
        """Per-agent (1/n) <1, own-blocks - estimates> of ``(..., n, |V|)``
        estimates; see the path-graph bound.

        Own and estimated block masses come from one reduction, so each gap
        is exactly nonnegative: an estimate never exceeds the own block.
        """
        mass = np.add.reduceat(estimates, self.partition.offsets[:-1], axis=-1)
        own = np.diagonal(mass, axis1=-2, axis2=-1)[..., None, :]
        return (own - mass).sum(axis=-1) / self.partition.n_agents

    def round(self, f: SetFunction, t: int) -> np.ndarray:
        self.queries[:] = 0
        n, total = self.partition.n_agents, self.partition.total
        running = np.cumsum(np.concatenate((np.zeros((1, total)), self.iterates / self.K)), axis=0)
        steps = running.take(self._lag)  # (K, n, |V|): every agent after every inner step
        self._steps, self.estimates = steps, steps[-1]

        streams = [agent_stream(self.seed, t, i) for i in range(n)]
        u = np.array([stream.random() for stream in streams])
        chosen = _play(self.partition, self.estimates[self._own], u)

        # score every agent's K inner estimates: one rounding of all n K L
        # draws, one oracle call for all, then teach every maximizer at once
        views = PolicyProfile._of_own_rows(self.partition, steps.swapaxes(0, 1).reshape(-1, total))
        slots = sample_slots(views, streams, self.L)
        self.update(sampled_gradients(f, slots, self.L, self.queries))
        return chosen

    def inner_disagreement(self) -> np.ndarray:
        """``(K, n)`` per-agent estimate gaps after every inner step of the
        last round."""
        return self._gaps(self._steps)

    def disagreement(self) -> float:
        """Worst per-agent estimate gap at the final inner step of the round."""
        return float(self._gaps(self.estimates).max())


class RandomLearner:
    """Every agent plays a uniformly random own action; ``queries`` stays zero."""

    def __init__(self, partition: Partition, seed: int):
        self.partition = partition
        self.seed = int(seed)
        self.queries = np.zeros(partition.n_agents, dtype=np.int64)

    def round(self, f: SetFunction, t: int) -> np.ndarray:
        rng = agent_stream(self.seed, t, _RANDOM_TAG)
        return np.array([int(rng.integers(k)) for k in self.partition.sizes])

    def disagreement(self) -> float:
        return 0.0


class GreedyLearner:
    """Agents in index order each take their best action given predecessors;
    ties break to the lowest slot (argmax returns the first maximizer)."""

    def __init__(self, partition: Partition):
        self.queries = np.zeros(partition.n_agents, dtype=np.int64)

    def round(self, f: SetFunction, t: int) -> np.ndarray:
        self.queries[:] = 0
        chosen = np.full((1, f.partition.n_agents), -1, dtype=np.int64)
        for i in range(chosen.shape[1]):
            chosen[0, i] = np.argmax(local_marginal_block(f, i, chosen, self.queries)[0])
        return chosen[0]

    def disagreement(self) -> float:
        return 0.0
