"""Decentralized learners over the policy relaxation, plus baselines.

Both coordination learners hold one ``(n, |V|)`` matrix: row i is agent i's
estimate of the whole joint policy, with columns in the partition's flat
order, so agent j's block is the column range of its actions.  Agents talk
only to graph neighbors once per round (or once per inner step) and query
the objective only through marginal gains of their own actions.

* :class:`PolicyConsensusLearner` — single projected-ascent step per round on
  a reweighted stochastic gradient, after mixing the rows through the
  consensus matrix, ``W @ X`` (W must be symmetric doubly stochastic and
  supported on the graph).
* :class:`MetaConditionalGradientLearner` — per-round K-step conditional
  gradient whose ascent directions come from K persistent online linear
  maximizers; each row spreads by max-consensus, the coordinate-wise max
  over the agent's closed neighborhood.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import ConfigError
from .extension import (
    PolicyProfile,
    SurrogateScheme,
    estimate_gradient,
    estimate_surrogate_gradient,
    exact_surrogate_gradient_block,
    sample_distribution_slot,
)
from .geometry import normalize_policy, project_capped_simplex
from .ground import (
    FeasibleSet,
    MarginalBudget,
    Partition,
    SetFunction,
    local_marginal_block,
    min_gain_vector,
)
from .network import CommGraph

_RANDOM_TAG = 0x72616E64


def agent_stream(seed: int, t: int, agent: int) -> np.random.Generator:
    """Independent per-(round, agent) generator; order-insensitive across agents."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(t), int(agent))))


def _closed_neighborhoods(graph: CommGraph) -> list[list[int]]:
    return [list(graph.neighbors(i) + (i,)) for i in range(graph.n)]


def _check_consensus_matrix(w: np.ndarray, graph: CommGraph, atol: float = 1e-9) -> None:
    n = graph.n
    if w.shape != (n, n):
        raise ConfigError("consensus matrix has wrong shape")
    if not np.allclose(w, w.T, atol=atol):
        raise ConfigError("consensus matrix must be symmetric")
    if not np.allclose(w.sum(axis=1), 1.0, atol=atol) or w.min() < -atol:
        raise ConfigError("consensus matrix must be doubly stochastic")
    allowed = np.zeros((n, n), dtype=bool)
    for i, hood in enumerate(_closed_neighborhoods(graph)):
        allowed[i, hood] = True
    if np.abs(w[~allowed]).max(initial=0.0) > atol:
        raise ConfigError("consensus matrix puts weight between non-neighbors")


def _step_size(eta0: float, horizon: int, step_size: Optional[float]) -> float:
    step = float(step_size) if step_size is not None else eta0 / math.sqrt(horizon)
    if not 0.0 < step < math.inf:
        raise ConfigError(f"step size must be finite and positive, got {step}")
    return step


def _blocks(partition: Partition, row: np.ndarray) -> tuple[np.ndarray, ...]:
    """Cut one flat estimate row into per-agent policy blocks."""
    return tuple(np.split(row, partition.offsets[1:-1]))


class OnlineGradientAscentOracle:
    """Online linear maximizer over one capped simplex.

    Holds an iterate (initialized uniform, hence on the sum-one face), returns
    it as the next direction, and moves it by a projected gradient step on
    each observed linear reward.  Nonnegative rewards keep the iterate on the
    face, since the projection of a superunit nonnegative point lands there.
    """

    def __init__(self, dim: int, step: float):
        if dim < 1 or not 0.0 < step < math.inf:
            raise ConfigError("oracle needs dim >= 1 and a finite positive step")
        self.step = float(step)
        self.iterate = np.full(dim, 1.0 / dim)

    def direction(self) -> np.ndarray:
        return self.iterate.copy()

    def update(self, reward: np.ndarray) -> None:
        reward = np.asarray(reward, dtype=np.float64)
        if reward.shape != self.iterate.shape:
            raise ValueError("reward dimension mismatch")
        self.iterate = project_capped_simplex(self.iterate + self.step * reward)


class PolicyConsensusLearner:
    """Consensus-plus-projected-ascent coordination (one gradient step/round).

    Parameters
    ----------
    partition : Partition
        Per-agent action-set sizes.
    graph : CommGraph
        Communication topology; must match ``weights``.
    weights : ndarray
        Symmetric doubly-stochastic consensus matrix supported on the graph.
    scheme : SurrogateScheme
        Gradient reweighting; the submodular scheme also adds the min-gain
        bonus, which the objective computes once; each agent is charged its
        slots once per round and reuses its slice across the batch.
    horizon : int
        Used for the default step size eta0 / sqrt(horizon).
    seed : int
        Master seed; per-(round, agent) streams are derived from it.
    batch : int
        Single-sample estimates averaged per round and agent.
    exact_gradient : bool
        Replace the Monte-Carlo estimate with the quadrature-exact block
        (only possible at enumeration scale; no marginal queries charged).
    """

    kind = "ma-spl"

    def __init__(
        self,
        partition: Partition,
        graph: CommGraph,
        weights: np.ndarray,
        scheme: SurrogateScheme,
        horizon: int,
        seed: int,
        eta0: float = 1.0,
        batch: int = 10,
        exact_gradient: bool = False,
        step_size: Optional[float] = None,
    ):
        if graph.n != partition.n_agents:
            raise ConfigError("graph and partition disagree on the number of agents")
        weights = np.asarray(weights, dtype=np.float64)
        _check_consensus_matrix(weights, graph)
        if batch < 1:
            raise ConfigError("batch must be >= 1")
        self.partition = partition
        self.graph = graph
        self.weights = weights
        self.scheme = scheme
        self.seed = int(seed)
        self.batch = int(batch)
        self.exact_gradient = bool(exact_gradient)
        self.step_size = _step_size(eta0, horizon, step_size)
        self._ranges = list(zip(partition.offsets[:-1], partition.offsets[1:]))
        # each agent starts uniform on its own block and empty elsewhere
        self.policies = np.zeros((partition.n_agents, partition.total))
        for i, (lo, hi) in enumerate(self._ranges):
            self.policies[i, lo:hi] = 1.0 / (hi - lo)
        self.budget = MarginalBudget(partition.n_agents)

    def set_start(self, profile: PolicyProfile) -> None:
        """Reset every agent's estimates to a common profile (diagnostics)."""
        if profile.sizes != self.partition.sizes:
            raise ConfigError("profile does not match the partition")
        row = np.concatenate(profile.blocks)
        self.policies = np.tile(row, (self.partition.n_agents, 1))

    def local_profile(self, agent: int) -> PolicyProfile:
        return PolicyProfile(_blocks(self.partition, self.policies[agent]))

    def played_profile(self) -> PolicyProfile:
        """Own blocks only — the joint policy actually being sampled from."""
        return PolicyProfile(
            tuple(self.policies[i, lo:hi] for i, (lo, hi) in enumerate(self._ranges))
        )

    def round(self, f: SetFunction, t: int) -> FeasibleSet:
        self.budget.reset()
        n = self.partition.n_agents
        streams = [agent_stream(self.seed, t, i) for i in range(n)]

        # play: each agent samples from its own normalized block
        chosen = []
        for i, (lo, hi) in enumerate(self._ranges):
            p = normalize_policy(self.policies[i, lo:hi])
            chosen.append(sample_distribution_slot(p, streams[i].random()))

        # local reweighted-gradient estimates at each agent's current view
        grads = []
        for i in range(n):
            profile = self.local_profile(i)
            if self.exact_gradient:
                grads.append(
                    exact_surrogate_gradient_block(f, profile, self.scheme, i)
                )
                continue
            min_gain = (
                min_gain_vector(f, i, self.budget) if self.scheme.adds_min_gain else None
            )
            grads.append(
                estimate_surrogate_gradient(
                    f, profile, i, self.scheme, streams[i], self.budget, min_gain,
                    samples=self.batch,
                )
            )

        # consensus averaging of every copy; ascent step on the own block
        mixed = self.weights @ self.policies
        for i, (lo, hi) in enumerate(self._ranges):
            mixed[i, lo:hi] = project_capped_simplex(
                mixed[i, lo:hi] + self.step_size * grads[i]
            )
        self.policies = mixed
        return FeasibleSet(tuple(chosen))

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
    closed neighborhood (estimates of any block only ever grow within a
    round, so the max is the freshest copy).  After playing, each inner-step
    estimate is scored by an L-sample mean of marginal gains and fed back to
    the matching maximizer.
    """

    kind = "ma-mpl"

    def __init__(
        self,
        partition: Partition,
        graph: CommGraph,
        horizon: int,
        seed: int,
        inner_steps: int = 15,
        sample_batch: int = 10,
        eta0: float = 1.0,
        step_size: Optional[float] = None,
    ):
        if graph.n != partition.n_agents:
            raise ConfigError("graph and partition disagree on the number of agents")
        if inner_steps < 3:
            raise ConfigError("need at least 3 inner steps per round")
        if sample_batch < 1:
            raise ConfigError("sample batch must be >= 1")
        self.partition = partition
        self.graph = graph
        self.seed = int(seed)
        self.inner_steps = int(inner_steps)
        self.sample_batch = int(sample_batch)
        step = _step_size(eta0, horizon, step_size)
        n = partition.n_agents
        self.oracles = [
            [OnlineGradientAscentOracle(partition.sizes[i], step) for _ in range(inner_steps)]
            for i in range(n)
        ]
        self.budget = MarginalBudget(n)
        self._ranges = list(zip(partition.offsets[:-1], partition.offsets[1:]))
        self._hoods = _closed_neighborhoods(graph)
        self.estimates = np.zeros((n, partition.total))
        self.last_inner_disagreement: list[list[float]] = []

    def local_profile(self, agent: int) -> PolicyProfile:
        return PolicyProfile(_blocks(self.partition, self.estimates[agent]))

    def _inner_disagreement(self) -> list[float]:
        """Per-agent (1/n) <1, own-blocks - estimates>; see the path-graph bound.

        Own and estimated block masses come from one reduction, so each gap
        is exactly nonnegative: an estimate never exceeds the own block.
        """
        mass = np.add.reduceat(self.estimates, self.partition.offsets[:-1], axis=1)
        return ((np.diag(mass) - mass).sum(axis=1) / self.partition.n_agents).tolist()

    def round(
        self, f: SetFunction, t: int, record_inner: bool = False
    ) -> FeasibleSet:
        self.budget.reset()
        n = self.partition.n_agents
        self.estimates = np.zeros((n, self.partition.total))
        self.last_inner_disagreement = []
        steps: list[np.ndarray] = []

        for k in range(self.inner_steps):
            y = self.estimates.copy()
            for i, (lo, hi) in enumerate(self._ranges):
                y[i, lo:hi] += self.oracles[i][k].direction() / self.inner_steps
            self.estimates = np.stack([y[hood].max(axis=0) for hood in self._hoods])
            steps.append(self.estimates)
            if record_inner:
                self.last_inner_disagreement.append(self._inner_disagreement())

        streams = [agent_stream(self.seed, t, i) for i in range(n)]
        chosen = []
        for i, (lo, hi) in enumerate(self._ranges):
            p = normalize_policy(self.estimates[i, lo:hi])
            chosen.append(sample_distribution_slot(p, streams[i].random()))

        # score every inner estimate and teach the matching oracle
        for i in range(n):
            for k, estimates in enumerate(steps):
                profile = PolicyProfile(_blocks(self.partition, estimates[i]))
                self.oracles[i][k].update(
                    estimate_gradient(
                        f, profile, i, streams[i], self.budget, samples=self.sample_batch
                    )
                )
        return FeasibleSet(tuple(chosen))

    def disagreement(self) -> float:
        """Worst per-agent estimate gap at the final inner step of the round."""
        return max(self._inner_disagreement())


def random_baseline_round(
    partition: Partition, rng: np.random.Generator
) -> FeasibleSet:
    """Every agent plays a uniformly random own action."""
    return FeasibleSet(
        tuple(int(rng.integers(k)) for k in partition.sizes)
    )


def sequential_greedy_round(
    f: SetFunction,
    partition: Partition,
    budget: Optional[MarginalBudget] = None,
) -> FeasibleSet:
    """Agents in index order each take their best action given predecessors.

    Ties break to the lowest slot (argmax returns the first maximizer).
    """
    chosen = np.full((1, partition.n_agents), -1, dtype=np.int64)
    for i in range(partition.n_agents):
        chosen[0, i] = np.argmax(local_marginal_block(f, i, chosen, budget)[0])
    return FeasibleSet(tuple(chosen[0].tolist()))


class RandomLearner:
    kind = "random"

    def __init__(self, partition: Partition, seed: int):
        self.partition = partition
        self.seed = int(seed)
        self.budget = MarginalBudget(partition.n_agents)

    def round(self, f: SetFunction, t: int) -> FeasibleSet:
        self.budget.reset()
        return random_baseline_round(
            self.partition, agent_stream(self.seed, t, _RANDOM_TAG)
        )

    def disagreement(self) -> float:
        return 0.0


class GreedyLearner:
    kind = "greedy"

    def __init__(self, partition: Partition, seed: int = 0):
        self.partition = partition
        self.budget = MarginalBudget(partition.n_agents)

    def round(self, f: SetFunction, t: int) -> FeasibleSet:
        self.budget.reset()
        return sequential_greedy_round(f, self.partition, self.budget)

    def disagreement(self) -> float:
        return 0.0
