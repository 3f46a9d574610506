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
    MarginalBudget,
    Partition,
    SetFunction,
    local_marginal_block,
    local_marginal_rows,
    min_gain_vector,
)

QUADRATURE_NODES = 64
PROFILE_ATOL = 1e-9  # round-off a profile's masses may carry past [0, 1]


@dataclass(frozen=True)
class PolicyProfile:
    """A joint policy as one flat float64 row on ``partition.offsets``.

    Agent j's sub-distribution is ``row[offsets[j]:offsets[j + 1]]``.
    ``row`` may instead be an ``(m, |V|)`` stack of m such rows, which
    :func:`sample_choices` and the Monte-Carlo estimators take at once; the
    exact layer takes a single row, and its gradients also one row per agent.
    The row is copied, made read-only and validated once, here: finite, no
    entry below ``-PROFILE_ATOL`` and no block carrying more than
    ``1 + PROFILE_ATOL``.
    """

    partition: Partition
    row: np.ndarray

    def __post_init__(self) -> None:
        row = np.array(self.row, dtype=np.float64)
        if row.ndim not in (1, 2) or row.shape[-1] != self.partition.total or not len(row):
            raise ValueError(
                f"expected a row or a nonempty stack of rows of length "
                f"{self.partition.total}, got shape {row.shape}"
            )
        if not np.isfinite(row).all():
            raise ValueError("policy has non-finite entries")
        if row.min() < -PROFILE_ATOL:
            raise ValueError(f"policy has negative mass {row.min()}")
        mass = self.partition.pad(row).sum(axis=-1)
        if (mass > 1.0 + PROFILE_ATOL).any():
            raise ValueError(f"a policy block carries total mass {mass.max()} > 1")
        row.flags.writeable = False
        object.__setattr__(self, "row", row)

    @staticmethod
    def zeros(partition: Partition) -> "PolicyProfile":
        return PolicyProfile(partition, np.zeros(partition.total))

    @staticmethod
    def uniform(partition: Partition) -> "PolicyProfile":
        """Uniform distribution on each agent's own actions (no idle mass)."""
        return PolicyProfile(partition, np.repeat(1.0 / np.array(partition.sizes), partition.sizes))

    @property
    def sizes(self) -> tuple[int, ...]:
        return self.partition.sizes

    @property
    def n_agents(self) -> int:
        return self.partition.n_agents

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """Read-only views of the agents' blocks (columns of a stack)."""
        return tuple(np.split(self.row, self.partition.offsets[1:-1], axis=-1))


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


def sample_rows(partition: Partition, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Round policy rows: map ``(L, n)`` uniforms to an ``(L, n)`` slot matrix.

    Entry ``[l, j]`` is agent j's slot under half-open cumulative intervals
    of its block, or -1 (idle) when ``u[l, j]`` falls in the leftover mass.
    ``rows`` is one flat row or an ``(m, |V|)`` stack; with a stack, the
    rows of ``u`` fall into m equal consecutive groups and group r rounds
    row r.  All agents go through one cumulative sum over the blocks padded
    to the longest (:meth:`Partition.pad`) with +inf, which no uniform
    reaches, so only a block's own entries are counted.
    """
    u = np.asarray(u, dtype=np.float64)
    n = partition.n_agents
    m = 1 if rows.ndim == 1 else len(rows)
    if u.ndim != 2 or u.shape[1] != n or len(u) % m:
        raise ValueError(f"expected uniforms of shape ({m} * L, {n}), got {u.shape}")
    cumulative = np.cumsum(partition.pad(rows, np.inf), axis=-1).reshape(m, 1, n, -1)
    idx = np.count_nonzero(cumulative <= u.reshape(m, -1, n, 1), axis=-1).reshape(u.shape)
    return np.where(idx < partition.sizes, idx, -1)


def sample_choices(profile: PolicyProfile, u: np.ndarray) -> np.ndarray:
    """Round a profile's row, or each row of its stack: :func:`sample_rows`."""
    return sample_rows(profile.partition, profile.row, u)


def sample_z(scheme: SurrogateScheme, u: np.ndarray) -> np.ndarray:
    """Map uniforms u to z in [0, 1] with density proportional to w(z).

    Inverse transform of the normalized CDF: z = ln(1 + u (e^c - 1)) / c.
    """
    c = scheme.rate
    return np.log1p(u * math.expm1(c)) / c


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


def _outcome_weights(partition: Partition, rows: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """``(len(zs), *rows.shape[:-1], n, k_max + 1)`` outcome probabilities
    (idle, then the slots) of every block of ``z * rows``, in one pass over
    the padded blocks.  Negative round-off mass counts as zero."""
    scaled = np.multiply.outer(zs, partition.pad(rows))
    idle = 1.0 - scaled.sum(axis=-1, keepdims=True)
    return np.maximum(np.concatenate((idle, scaled), axis=-1), 0.0)


def _expectation(table: np.ndarray, w: np.ndarray, agents: Sequence[int]) -> np.ndarray:
    """Contract the leading axes of ``table``, one per agent in ``agents`` in
    order, with its outcome probabilities in ``w`` (``(nodes, n, k_max + 1)``),
    to ``(nodes, *trailing axes)``: row q is the expectation at node q.  The
    first step holds ``nodes`` times ``table.size / table.shape[0]`` entries,
    the largest intermediate."""
    out = table.reshape(1, -1)
    for axis, j in enumerate(agents):
        wj = w[:, j, : table.shape[axis]]
        out = np.matmul(wj[:, None, :], out.reshape(len(out), wj.shape[1], -1))[:, 0]
    out = np.broadcast_to(out, (len(w), out.shape[1]))
    return out.reshape((len(w),) + table.shape[len(agents) :])


def _row(f: SetFunction, profile: PolicyProfile, stack: bool = False) -> np.ndarray:
    """The profile's single row; with ``stack`` also one row per agent."""
    if profile.partition != f.partition:
        raise ValueError(f"profile sizes {profile.sizes} differ from {f.partition.sizes}")
    if profile.row.ndim != 1 and not (stack and len(profile.row) == profile.n_agents):
        raise ValueError(f"need one policy row, or n rows for a gradient; got {profile.row.shape}")
    return profile.row


def _gradient(f: SetFunction, profile: PolicyProfile, zs: np.ndarray, ws=None) -> np.ndarray:
    """Flat gradient, block i at agent i's view (the row, or row i of a
    stack): agent i's :attr:`SetFunction.slot_gains` against the other
    blocks' outcome probabilities at every node, summed against ``ws``."""
    p, n = f.partition, f.partition.n_agents
    w = _outcome_weights(p, np.broadcast_to(_row(f, profile, stack=True), (n, p.total)), zs)
    grad = np.empty(p.total)
    for i, gains in enumerate(f.slot_gains):
        g = _expectation(gains, w[:, i], [j for j in range(n) if j != i])
        grad[p.offsets[i] : p.offsets[i + 1]] = g[0] if ws is None else ws @ g
    return grad


def _block(f: SetFunction, profile: PolicyProfile, agent: int) -> slice:
    """The agent's flat columns, after checking that the profile is one row."""
    _row(f, profile)
    f.partition.check_agent(agent)
    return slice(f.partition.offsets[agent], f.partition.offsets[agent + 1])


def exact_extension(f: SetFunction, profile: PolicyProfile) -> float:
    """F(pi): :attr:`SetFunction.outcome_values` contracted with every
    agent's outcome probabilities (1 - sum pi_i, pi_i).  The tensor is
    guarded by :meth:`Partition.check_enumerable` on prod_i (size_i + 1).
    """
    w = _outcome_weights(f.partition, _row(f, profile), _UNSCALED)
    return float(_expectation(f.outcome_values, w, range(f.partition.n_agents))[0])


def exact_gradient(f: SetFunction, profile: PolicyProfile) -> np.ndarray:
    """Exact gradient of F as a flat row, every agent's block in one call.
    ``profile`` is one row, or an ``(n, |V|)`` stack of the agents' views,
    block i taken at row i."""
    return _gradient(f, profile, _UNSCALED)


def exact_gradient_block(f: SetFunction, profile: PolicyProfile, agent: int) -> np.ndarray:
    """Exact partial derivatives of F for one agent's block of a single row."""
    return exact_gradient(f, profile)[_block(f, profile, agent)]


def exact_surrogate_gradient(
    f: SetFunction,
    profile: PolicyProfile,
    scheme: SurrogateScheme,
    nodes: int = QUADRATURE_NODES,
) -> np.ndarray:
    """Quadrature evaluation of the reweighted gradient as a flat row, on a
    row or a stack of views as in :func:`exact_gradient`.

    Gauss-Legendre on [0, 1], every node in one contraction; the integrand
    is smooth (a polynomial in z of degree < |V| times an exponential
    weight), so 64 nodes are far beyond the accuracy needed at desk scale.
    For the submodular scheme the min-gain bonus e^{-1} f(v | V - {v}) is
    added to every coordinate.
    """
    zs, ws = _gauss_legendre_01(nodes)
    grad = _gradient(f, profile, zs, ws * scheme.weight(zs))
    if scheme.adds_min_gain:
        grad += math.exp(-1.0) * f.min_gains
    return grad


def exact_surrogate_gradient_block(
    f: SetFunction,
    profile: PolicyProfile,
    scheme: SurrogateScheme,
    agent: int,
    nodes: int = QUADRATURE_NODES,
) -> np.ndarray:
    """One agent's block of :func:`exact_surrogate_gradient` on a single row."""
    return exact_surrogate_gradient(f, profile, scheme, nodes)[_block(f, profile, agent)]


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
    w = _outcome_weights(f.partition, _row(f, profile), zs)
    values = _expectation(f.outcome_values, w, range(f.partition.n_agents))
    total = float((ws * scheme.weight(zs) / zs) @ values)
    if scheme.adds_min_gain:
        total += math.exp(-1.0) * float(np.dot(f.min_gains, profile.row))
    return total


# ---------------------------------------------------------------------------
# Monte-Carlo estimators (means over a batch of joint samples)
# ---------------------------------------------------------------------------


def sample_slots(
    profile: PolicyProfile,
    rngs: Sequence[np.random.Generator],
    samples: int,
    scheme: Optional[SurrogateScheme] = None,
) -> np.ndarray:
    """Round ``samples`` contexts per profile row for every generator, as one
    ``(len(rngs), m * samples, n)`` slot tensor from one :func:`sample_rows`.

    The profile's rows split into ``len(rngs)`` equal consecutive groups of
    m, and generator g draws for group g alone: row l of ``g.random((m *
    samples, n))`` rounds the group's row ``l // samples``.  With a scheme,
    row l of ``g.random((m * samples, n + 1))`` draws z from its column 0
    (all draws in one :func:`sample_z` call) and rounds that row
    scaled by z with the rest.
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    n = profile.n_agents
    rows = profile.row.reshape(-1, profile.partition.total)
    if len(rows) % len(rngs):
        raise ValueError(f"{len(rows)} profile rows do not split among {len(rngs)} generators")
    draws = len(rows) // len(rngs) * samples
    width = n if scheme is None else n + 1
    u = np.stack([rng.random((draws, width)) for rng in rngs])
    if scheme is not None:
        z = sample_z(scheme, u[..., 0].ravel())
        rows, u = np.repeat(rows, samples, axis=0) * z[:, None], u[..., 1:]
    slots = sample_rows(profile.partition, rows, u.reshape(-1, n))
    return slots.reshape(len(rngs), draws, n)


def _means(
    gains: np.ndarray, samples: int, scheme: Optional[SurrogateScheme], min_gain
) -> np.ndarray:
    """Means of ``(m * samples, width)`` gains over each ``samples``
    consecutive rows, rescaled and given the min-gain bonus as the scheme asks."""
    values = gains.reshape(-1, samples, gains.shape[1])
    if scheme is not None:
        values = scheme.weight_integral * values
        if scheme.adds_min_gain:
            values = values + math.exp(-1.0) * min_gain
    return values.mean(axis=1)


def sampled_gradients(
    f: SetFunction,
    slots: np.ndarray,
    samples: int,
    budget: Optional[MarginalBudget] = None,
    scheme: Optional[SurrogateScheme] = None,
) -> np.ndarray:
    """Score an ``(n, m * samples, n)`` slot tensor, block i agent i's draws,
    from one :func:`local_marginal_rows` call: ``(m, |V|)`` flat rows of each
    agent's mean gains over each ``samples`` consecutive rows of its block.
    With a scheme every gain is rescaled by int_0^1 w; the submodular scheme
    adds e^{-1} ``f.min_gains``, charging every agent one query per slot."""
    gains = local_marginal_rows(f, slots, budget)
    min_gain = None
    if scheme is not None and scheme.adds_min_gain:
        min_gain = f.min_gains
        if budget is not None:
            budget.charge(slice(None), f.partition.sizes)
    return _means(gains, samples, scheme, min_gain)


def _estimate(
    f: SetFunction,
    profile: PolicyProfile,
    agent: int,
    rng: np.random.Generator,
    samples: int,
    budget: Optional[MarginalBudget],
    scheme: Optional[SurrogateScheme] = None,
    min_gain: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One agent's :func:`sampled_gradients` block from one generator, one
    oracle call: ``(k,)`` for a row, ``(m, k)`` for a stack."""
    f.partition.check_agent(agent)
    slots = sample_slots(profile, [rng], samples, scheme)[0]
    gains = local_marginal_block(f, agent, slots, budget)
    if scheme is not None and scheme.adds_min_gain and min_gain is None:
        min_gain = min_gain_vector(f, agent, budget)
    means = _means(gains, samples, scheme, min_gain)
    return means if profile.row.ndim == 2 else means[0]


def estimate_gradient(
    f: SetFunction,
    profile: PolicyProfile,
    agent: int,
    rng: np.random.Generator,
    budget: Optional[MarginalBudget] = None,
    samples: int = 1,
) -> np.ndarray:
    """Unbiased estimate of agent's gradient block of F: the mean of its own
    marginal gains against ``samples`` independent roundings of the others.
    A stacked profile gives one estimate per row, ``(m, k_agent)``, from one
    draw and one oracle call."""
    return _estimate(f, profile, agent, rng, samples, budget)


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
    """Unbiased estimate of the reweighted gradient block, a mean over samples
    (per row of a stacked profile, as in :func:`estimate_gradient`).

    Each sample draws z from the normalized weight density, rounds the
    z-scaled profile, and rescales the observed gains by int_0^1 w; pass
    ``min_gain`` if the agent already paid for its bonus, else
    :func:`min_gain_vector` reads it and charges one query per slot.
    """
    return _estimate(f, profile, agent, rng, samples, budget, scheme, min_gain)
