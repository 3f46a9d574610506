"""Policy-space relaxation of a partitioned set objective.

A policy profile assigns each agent a sub-distribution over its own actions
(coordinates are nonnegative and sum to at most one; leftover mass means
"play nothing").  The relaxed objective is the expectation of the set
objective when every agent samples independently from its block:

    F(pi) = E[ f({sampled actions}) ].

F is multilinear: linear in each block, so partial derivatives are
expectations of marginal gains against the other agents' samples.  On top of
F this module provides reweighted ("surrogate") gradients

    int_0^1 w(z) grad F(z * pi) dz,      w(z) = exp(rate * (z - 1)),

whose stationary points carry better worst-case guarantees, plus the
Monte-Carlo estimators the learners consume.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .ground import (
    ActionId,
    MarginalBudget,
    Partition,
    SetFunction,
    local_marginal_block,
    min_gain_vector,
)

QUADRATURE_NODES = 64


@dataclass(frozen=True)
class PolicyProfile:
    """One sub-distribution block per agent, all float64 and read-only."""

    blocks: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        blocks = []
        for b in self.blocks:
            arr = np.asarray(b, dtype=np.float64).copy()
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError("each policy block must be a nonempty 1-d vector")
            arr.flags.writeable = False
            blocks.append(arr)
        object.__setattr__(self, "blocks", tuple(blocks))

    @staticmethod
    def zeros(partition: Partition) -> "PolicyProfile":
        return PolicyProfile(tuple(np.zeros(k) for k in partition.sizes))

    @staticmethod
    def uniform(partition: Partition) -> "PolicyProfile":
        """Uniform distribution on each agent's own actions (no idle mass)."""
        return PolicyProfile(tuple(np.full(k, 1.0 / k) for k in partition.sizes))

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(b.size for b in self.blocks)

    @property
    def n_agents(self) -> int:
        return len(self.blocks)

    def validate(self, atol: float = 1e-9) -> None:
        for i, b in enumerate(self.blocks):
            if not np.all(np.isfinite(b)):
                raise ValueError(f"block {i} has non-finite entries")
            if b.min(initial=0.0) < -atol:
                raise ValueError(f"block {i} has negative mass {b.min()}")
            if b.sum() > 1.0 + atol:
                raise ValueError(f"block {i} carries total mass {b.sum()} > 1")

    def scaled(self, z: float) -> "PolicyProfile":
        if not (0.0 <= z <= 1.0):
            raise ValueError(f"scale {z} outside [0, 1]")
        return PolicyProfile(tuple(z * b for b in self.blocks))

    def with_block(self, agent: int, block: np.ndarray) -> "PolicyProfile":
        new = list(self.blocks)
        new[agent] = np.asarray(block, dtype=np.float64)
        return PolicyProfile(tuple(new))

    def flat(self) -> np.ndarray:
        return np.concatenate(self.blocks)


@dataclass(frozen=True)
class SurrogateScheme:
    """Reweighting scheme for surrogate gradients.

    kind:
      * ``"submodular"``   -- rate 1; pairs with a per-coordinate bonus of
        e^{-1} times the min-gain vector (gain against everything else).
      * ``"weak-dr"``      -- rate ``alpha`` in (0, 1], the lower DR ratio.
      * ``"weak-sub"``     -- rate ``beta * (1 - gamma) + gamma**2`` built from
        the two-sided submodularity ratios ``gamma`` in (0, 1], ``beta`` >= 1.
    """

    kind: str
    alpha: Optional[float] = None
    gamma: Optional[float] = None
    beta: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind == "submodular":
            pass
        elif self.kind == "weak-dr":
            if self.alpha is None or not (0.0 < self.alpha <= 1.0):
                raise ValueError(f"weak-dr scheme needs alpha in (0, 1], got {self.alpha}")
        elif self.kind == "weak-sub":
            if self.gamma is None or not (0.0 < self.gamma <= 1.0):
                raise ValueError(f"weak-sub scheme needs gamma in (0, 1], got {self.gamma}")
            if self.beta is None or self.beta < 1.0:
                raise ValueError(f"weak-sub scheme needs beta >= 1, got {self.beta}")
        else:
            raise ValueError(f"unknown surrogate scheme kind {self.kind!r}")

    @staticmethod
    def submodular() -> "SurrogateScheme":
        return SurrogateScheme("submodular")

    @staticmethod
    def weak_dr(alpha: float) -> "SurrogateScheme":
        return SurrogateScheme("weak-dr", alpha=alpha)

    @staticmethod
    def weak_sub(gamma: float, beta: float) -> "SurrogateScheme":
        return SurrogateScheme("weak-sub", gamma=gamma, beta=beta)

    @property
    def rate(self) -> float:
        """Exponent c in the weight w(z) = exp(c * (z - 1))."""
        if self.kind == "submodular":
            return 1.0
        if self.kind == "weak-dr":
            return float(self.alpha)
        return float(self.beta * (1.0 - self.gamma) + self.gamma**2)

    @property
    def adds_min_gain(self) -> bool:
        return self.kind == "submodular"

    def weight(self, z):
        """w(z) at a scalar or at every entry of an array of nodes."""
        return np.exp(self.rate * (z - 1.0))

    @property
    def weight_integral(self) -> float:
        """int_0^1 w(z) dz = (1 - e^{-rate}) / rate."""
        c = self.rate
        return (1.0 - math.exp(-c)) / c


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def sample_choices(
    profile: PolicyProfile, u: np.ndarray, scale: Optional[np.ndarray] = None
) -> np.ndarray:
    """Round a profile: map ``(L, n)`` uniforms to an ``(L, n)`` slot matrix.

    Entry ``[l, j]`` is agent j's slot under half-open cumulative intervals
    of its block, or -1 (idle) when ``u[l, j]`` falls in the leftover mass.
    Row l samples from the blocks scaled by ``scale[l]`` if given.  All
    agents go through one cumulative sum over the blocks zero-padded to the
    longest; the padded columns are left out of the count.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2 or u.shape[1] != profile.n_agents:
        raise ValueError(f"expected uniforms of shape (L, {profile.n_agents}), got {u.shape}")
    sizes = np.array(profile.sizes)
    real = np.arange(sizes.max()) < sizes[:, None]  # (n, k_max)
    padded = np.zeros(real.shape)
    padded[real] = profile.flat()
    if scale is not None:
        padded = np.multiply.outer(scale, padded)  # (L, n, k_max)
    hits = np.cumsum(padded, axis=-1) <= u[..., None]
    idx = np.count_nonzero(hits & real, axis=-1)
    return np.where(idx < sizes, idx, -1)


def sample_distribution_slot(weights: np.ndarray, u: float) -> int:
    """Slot of a full distribution holding u; round-off past the end is the last slot."""
    return min(int(np.count_nonzero(np.cumsum(weights) <= u)), weights.size - 1)


def sample_z(scheme: SurrogateScheme, u: float) -> float:
    """Map a uniform u to z in [0, 1] with density proportional to w(z).

    Inverse transform of the normalized CDF: z = ln(1 + u (e^c - 1)) / c.
    """
    c = scheme.rate
    return math.log1p(u * math.expm1(c)) / c


# ---------------------------------------------------------------------------
# exact operations: contractions of the outcome-value tensor
# ---------------------------------------------------------------------------


@functools.cache
def _gauss_legendre_01(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [0, 1], computed once per count."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    zs, ws = 0.5 * (x + 1.0), 0.5 * w
    zs.flags.writeable = ws.flags.writeable = False
    return zs, ws


_UNSCALED = np.ones(1)  # the single node z = 1: the profile itself


def _expectation(table: np.ndarray, blocks: Sequence[np.ndarray], zs: np.ndarray) -> np.ndarray:
    """Contract the leading axes of ``table``, one per block in order, with
    the outcome probabilities (idle, then the slots) of ``z * block``.

    Returns ``(len(zs), *trailing axes)``: row q is the expectation of
    ``table`` when agent j rounds ``zs[q] * blocks[j]``.  Negative round-off
    mass within :meth:`PolicyProfile.validate`'s tolerance counts as zero.
    The first step holds ``len(zs)`` times ``table.size / table.shape[0]``
    entries, the largest intermediate.
    """
    out = table.reshape(1, -1)
    for block in blocks:
        scaled = np.multiply.outer(zs, block)
        idle = 1.0 - scaled.sum(axis=1, keepdims=True)
        w = np.maximum(np.concatenate((idle, scaled), axis=1), 0.0)  # (len(zs), k + 1)
        out = np.matmul(w[:, None, :], out.reshape(len(out), w.shape[1], -1))[:, 0]
    out = np.broadcast_to(out, (len(zs), out.shape[1]))
    return out.reshape((len(zs),) + table.shape[len(blocks) :])


def _checked_blocks(f: SetFunction, profile: PolicyProfile) -> tuple[np.ndarray, ...]:
    profile.validate()
    if profile.sizes != f.partition.sizes:
        raise ValueError(f"profile sizes {profile.sizes} differ from {f.partition.sizes}")
    return profile.blocks


def _gains_at_nodes(
    f: SetFunction, profile: PolicyProfile, agent: int, zs: np.ndarray
) -> np.ndarray:
    """``(len(zs), k_agent)`` exact partials of F at every ``z * profile``.

    dF/dpi_{agent,m} = E[ f(v_{agent,m} | others' samples) ]: the outcome
    tensor at the agent's slots minus at its idle entry, contracted with
    every other agent's outcome probabilities.
    """
    blocks = _checked_blocks(f, profile)
    f.partition.check_agent(agent)
    table = np.moveaxis(f.outcome_values, agent, -1)
    gains = table[..., 1:] - table[..., :1]
    return _expectation(gains, blocks[:agent] + blocks[agent + 1 :], zs)


def exact_extension(f: SetFunction, profile: PolicyProfile) -> float:
    """F(pi): :attr:`SetFunction.outcome_values` contracted with every
    agent's outcome probabilities (1 - sum pi_i, pi_i).  The tensor is
    guarded by :meth:`Partition.check_enumerable` on prod_i (size_i + 1).
    """
    return float(_expectation(f.outcome_values, _checked_blocks(f, profile), _UNSCALED)[0])


def exact_gradient_block(f: SetFunction, profile: PolicyProfile, agent: int) -> np.ndarray:
    """Exact partial derivatives of F for one agent's block."""
    return _gains_at_nodes(f, profile, agent, _UNSCALED)[0]


def exact_partial(f: SetFunction, profile: PolicyProfile, a: ActionId) -> float:
    """Exact partial derivative of F along one coordinate."""
    f.partition.validate(a)
    return float(exact_gradient_block(f, profile, a.agent)[a.slot])


def exact_gradient(f: SetFunction, profile: PolicyProfile) -> list[np.ndarray]:
    """Exact full gradient of F, one block per agent."""
    return [exact_gradient_block(f, profile, i) for i in range(profile.n_agents)]


def exact_surrogate_gradient_block(
    f: SetFunction,
    profile: PolicyProfile,
    scheme: SurrogateScheme,
    agent: int,
    nodes: int = QUADRATURE_NODES,
) -> np.ndarray:
    """Quadrature evaluation of one agent's block of the reweighted gradient.

    Gauss-Legendre on [0, 1], every node in one contraction; the integrand
    is smooth (a polynomial in z of degree < |V| times an exponential
    weight), so 64 nodes are far beyond the accuracy needed at desk scale.
    For the submodular scheme the min-gain bonus e^{-1} f(v | V - {v}) is
    added to every coordinate.
    """
    zs, ws = _gauss_legendre_01(nodes)
    grad = (ws * scheme.weight(zs)) @ _gains_at_nodes(f, profile, agent, zs)
    if scheme.adds_min_gain:
        grad += math.exp(-1.0) * min_gain_vector(f, agent)
    return grad


def exact_surrogate_gradient(
    f: SetFunction,
    profile: PolicyProfile,
    scheme: SurrogateScheme,
    nodes: int = QUADRATURE_NODES,
) -> list[np.ndarray]:
    """Full reweighted gradient, one block per agent (see the block variant)."""
    return [
        exact_surrogate_gradient_block(f, profile, scheme, i, nodes)
        for i in range(profile.n_agents)
    ]


def exact_surrogate_value(
    f: SetFunction,
    profile: PolicyProfile,
    scheme: SurrogateScheme,
    nodes: int = QUADRATURE_NODES,
) -> float:
    """Quadrature evaluation of the surrogate potential.

    The potential whose gradient is ``exact_surrogate_gradient`` is

        F^s(pi) = int_0^1 (w(z) / z) F(z * pi) dz   (+ linear min-gain bonus),

    which is well defined since F(z * pi) vanishes linearly at z = 0 for a
    normalized objective.  Gauss-Legendre nodes avoid the endpoint.
    """
    zs, ws = _gauss_legendre_01(nodes)
    values = _expectation(f.outcome_values, _checked_blocks(f, profile), zs)
    total = float((ws * scheme.weight(zs) / zs) @ values)
    if scheme.adds_min_gain:
        total += math.exp(-1.0) * float(np.dot(f.min_gains, profile.flat()))
    return total


# ---------------------------------------------------------------------------
# Monte-Carlo estimators (means over a batch of joint samples)
# ---------------------------------------------------------------------------


def _sampled_gains(
    f: SetFunction,
    profile: PolicyProfile,
    agent: int,
    rng: np.random.Generator,
    samples: int,
    budget: Optional[MarginalBudget],
    scheme: Optional[SurrogateScheme] = None,
) -> np.ndarray:
    """Agent's marginal gains against ``samples`` sampled contexts, one row each.

    Row l of ``rng.random((samples, n))`` rounds the profile; with a scheme,
    row l of ``rng.random((samples, n + 1))`` draws z from its column 0 and
    rounds the z-scaled profile with the rest.  The whole ``(samples, n)``
    slot matrix goes to one :func:`local_marginal_block` call, which ignores
    the agent's own (drawn) column and charges one query per slot per row.
    """
    f.partition.check_agent(agent)
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    if scheme is None:
        u, z = rng.random((samples, profile.n_agents)), None
    else:
        u = rng.random((samples, profile.n_agents + 1))
        z = np.array([sample_z(scheme, x) for x in u[:, 0].tolist()])
        u = u[:, 1:]
    return local_marginal_block(f, agent, sample_choices(profile, u, z), budget)


def estimate_gradient(
    f: SetFunction,
    profile: PolicyProfile,
    agent: int,
    rng: np.random.Generator,
    budget: Optional[MarginalBudget] = None,
    samples: int = 1,
) -> np.ndarray:
    """Unbiased estimate of agent's gradient block of F: the mean of its own
    marginal gains against ``samples`` independent roundings of the others."""
    return _sampled_gains(f, profile, agent, rng, samples, budget).mean(axis=0)


def estimate_surrogate_gradient(
    f: SetFunction,
    profile: PolicyProfile,
    agent: int,
    scheme: SurrogateScheme,
    rng: np.random.Generator,
    budget: Optional[MarginalBudget] = None,
    min_gain: Optional[np.ndarray] = None,
    samples: int = 1,
) -> np.ndarray:
    """Unbiased estimate of the reweighted gradient block, a mean over samples.

    Each sample draws z from the normalized weight density, rounds the
    z-scaled profile, and rescales the observed gains by int_0^1 w.  With the
    submodular scheme the (policy-independent) min-gain bonus is added; pass
    ``min_gain`` if the agent already paid for it, otherwise it is read once
    through :func:`min_gain_vector`, which charges one query per slot.
    """
    gains = _sampled_gains(f, profile, agent, rng, samples, budget, scheme)
    values = scheme.weight_integral * gains
    if scheme.adds_min_gain:
        if min_gain is None:
            min_gain = min_gain_vector(f, agent, budget)
        values = values + math.exp(-1.0) * min_gain
    return values.mean(axis=0)
