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
Monte-Carlo estimators the learners consume.  With n agents each partial
derivative of F(z * pi) is a polynomial in z of degree below n, so the
exact surrogate gradient needs only n quadrature nodes: the Gauss-Legendre
nodes on [0, 1], weighted to reproduce the 64-node Gauss-Legendre integral
of w times any such polynomial.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError
from .ground import Partition, SetFunction, local_marginal_rows

QUADRATURE_NODES = 64
PROFILE_ATOL = 1e-9  # round-off a profile's masses may carry past [0, 1]
# Largest weight rate: sample_z takes expm1(rate), which overflows a float
# beyond ln of the largest one.
MAX_RATE = math.log(sys.float_info.max)


@dataclass(frozen=True)
class PolicyProfile:
    """A joint policy as one flat float64 row on ``partition.offsets``.

    Agent j's sub-distribution is ``row[offsets[j]:offsets[j + 1]]``.
    ``row`` may instead be an ``(m, |V|)`` stack of m such rows, which
    :func:`sample_rows` and the Monte-Carlo estimators take at once; the
    exact layer takes a single row, and its gradients also one row per agent.
    The row is copied, made read-only and validated once, here, where it
    enters: finite, no entry below ``-PROFILE_ATOL`` and no block carrying
    more than ``1 + PROFILE_ATOL``.  The learners wrap the rows they project
    themselves through :meth:`_of_own_rows` instead, unchecked.
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

    @classmethod
    def _of_own_rows(cls, partition: Partition, rows: np.ndarray) -> "PolicyProfile":
        """A profile on a read-only view of rows a learner built itself,
        projected onto every block's capped simplex, so neither copied nor
        validated again.  Rows from anywhere else go through the constructor."""
        view = rows.view()
        view.flags.writeable = False
        profile = object.__new__(cls)
        object.__setattr__(profile, "partition", partition)
        object.__setattr__(profile, "row", view)
        return profile

    @staticmethod
    def uniform(partition: Partition) -> "PolicyProfile":
        """Uniform distribution on each agent's own actions (no idle mass)."""
        return PolicyProfile(partition, np.repeat(1.0 / np.array(partition.sizes), partition.sizes))


@dataclass(frozen=True)
class SurrogateScheme:
    """Reweighting of surrogate gradients by w(z) = exp(rate * (z - 1)),
    0 < rate <= :data:`MAX_RATE`.  Built for the structure it suits:

      * :meth:`submodular` -- rate 1, plus a per-coordinate bonus of e^{-1}
        times the min-gain vector (gain against everything else);
      * :meth:`weak_dr` -- rate ``alpha`` in (0, 1], the lower DR ratio;
      * :meth:`weak_sub` -- rate ``beta * (1 - gamma) + gamma**2`` built from
        the two-sided submodularity ratios ``gamma`` in (0, 1] and a finite
        ``beta`` >= 1.

    A builder refuses a ratio out of its range with a ConfigError naming it.
    Wherever a scheme is taken, ``None`` selects the plain extension F.
    """

    rate: float
    adds_min_gain: bool

    def __post_init__(self) -> None:
        if not 0.0 < self.rate <= MAX_RATE:
            raise ValueError(f"surrogate rate must lie in (0, {MAX_RATE:g}], got {self.rate}")

    @staticmethod
    def submodular() -> "SurrogateScheme":
        return SurrogateScheme(1.0, True)

    @staticmethod
    def weak_dr(alpha: float) -> "SurrogateScheme":
        if alpha is None or not (0.0 < alpha <= 1.0):
            raise ConfigError(f"weak-dr scheme needs alpha in (0, 1], got {alpha}")
        return SurrogateScheme(float(alpha), False)

    @staticmethod
    def weak_sub(gamma: float, beta: float) -> "SurrogateScheme":
        if gamma is None or not (0.0 < gamma <= 1.0):
            raise ConfigError(f"weak-sub scheme needs gamma in (0, 1], got {gamma}")
        if beta is None or not 1.0 <= beta < math.inf:
            raise ConfigError(f"weak-sub scheme needs a finite beta >= 1, got {beta}")
        rate = float(beta * (1.0 - gamma) + gamma**2)
        if rate > MAX_RATE:
            raise ConfigError(f"weak-sub rate {rate:g} of gamma, beta exceeds {MAX_RATE:g}")
        return SurrogateScheme(rate, False)

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

    The count runs slot-major: the k_max cumulative planes, each laid out
    ``(n, m)``, are compared with the uniforms laid out ``(L / m, n, m)``,
    so the innermost loop runs over all n m blocks, and the planes are
    summed in the smallest unsigned type that holds k_max.  Counting, not a
    search, keeps the meaning on the non-monotone cumulative rows that
    :data:`PROFILE_ATOL` admits.
    """
    u = np.asarray(u, dtype=np.float64)
    n = partition.n_agents
    m = 1 if rows.ndim == 1 else len(rows)
    if u.ndim != 2 or u.shape[1] != n or len(u) % m:
        raise ValueError(f"expected uniforms of shape ({m} * L, {n}), got {u.shape}")
    k_max = max(partition.sizes)
    cumulative = np.cumsum(partition.pad(rows, np.inf), axis=-1).reshape(m, n, k_max)
    planes = np.ascontiguousarray(cumulative.transpose(2, 1, 0))[:, None]  # (k_max, 1, n, m)
    draws = np.ascontiguousarray(u.reshape(m, -1, n).transpose(1, 2, 0))  # (L / m, n, m)
    counts = np.add.reduce(planes <= draws, axis=0, dtype=np.min_scalar_type(k_max))
    idx = counts.transpose(2, 0, 1).astype(np.int64, order="C").reshape(u.shape)
    return np.where(idx < partition.sizes, idx, -1)


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


@functools.lru_cache(maxsize=64)
def _surrogate_rule(n: int, rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes z_q and weights nu_q of the n-node rule for
    int_0^1 exp(rate (z - 1)) p(z) dz, exact for every p of degree below n.

    The z_q are the n Gauss-Legendre nodes on [0, 1] and nu_q is the
    :data:`QUADRATURE_NODES`-node Gauss-Legendre sum of w times the Lagrange
    basis polynomial l_q, so the rule reproduces that sum on such p up to
    round-off.  Computed once per (n, rate).
    """
    zs, _ = _gauss_legendre_01(n)
    zr, wr = _gauss_legendre_01(QUADRATURE_NODES)
    basis = np.empty((len(zr), n))  # [r, q] = l_q(z_r)
    for q in range(n):
        others = np.delete(zs, q)
        basis[:, q] = np.prod((zr[:, None] - others) / (zs[q] - others), axis=1)
    ws = (wr * np.exp(rate * (zr - 1.0))) @ basis
    ws.flags.writeable = False
    return zs, ws


@functools.cache
def _others(n: int) -> tuple[tuple[int, ...], ...]:
    """Per agent i, the other agents in order."""
    return tuple(tuple(j for j in range(n) if j != i) for i in range(n))


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
    to ``(1 or nodes, trailing size)``: row q is the expectation at node q,
    one row standing for every node when ``agents`` is empty.  The first
    step holds ``nodes`` times ``table.size / table.shape[0]`` entries, the
    largest intermediate."""
    out = table.reshape(1, -1)
    for axis, j in enumerate(agents):
        wj = w[:, j, : table.shape[axis]]
        out = np.matmul(wj[:, None, :], out.reshape(len(out), wj.shape[1], -1))[:, 0]
    return out


def _row(f: SetFunction, profile: PolicyProfile, stack: bool = False) -> np.ndarray:
    """The profile's single row; with ``stack`` also one row per agent."""
    if profile.partition != f.partition:
        raise ValueError(f"profile sizes {profile.partition.sizes} differ from {f.partition.sizes}")
    if profile.row.ndim != 1 and not (stack and len(profile.row) == f.partition.n_agents):
        raise ValueError(f"need one policy row, or n rows for a gradient; got {profile.row.shape}")
    return profile.row


def _gradient(f: SetFunction, profile: PolicyProfile, zs: np.ndarray, ws=None) -> np.ndarray:
    """Flat gradient, block i at agent i's view (the row, or row i of a
    stack): agent i's :attr:`SetFunction.slot_gains` against the other
    blocks' outcome probabilities at every node, summed against ``ws``."""
    p, rows = f.partition, _row(f, profile, stack=True)
    w = _outcome_weights(p, rows, zs)
    grad = np.empty(p.total)
    for i, (gains, others) in enumerate(zip(f.slot_gains, _others(p.n_agents))):
        g = _expectation(gains, w[:, i] if rows.ndim == 2 else w, others)
        grad[p.offsets[i] : p.offsets[i + 1]] = g[0] if ws is None else ws @ g
    return grad


def exact_extension(f: SetFunction, profile: PolicyProfile) -> float:
    """F(pi): :attr:`SetFunction.outcome_values` contracted with every
    agent's outcome probabilities (1 - sum pi_i, pi_i).  The tensor is
    guarded by :meth:`Partition.check_enumerable` on prod_i (size_i + 1).
    """
    w = _outcome_weights(f.partition, _row(f, profile), _UNSCALED)
    return float(_expectation(f.outcome_values, w, range(f.partition.n_agents))[0, 0])


def exact_gradient(
    f: SetFunction, profile: PolicyProfile, scheme: Optional[SurrogateScheme] = None
) -> np.ndarray:
    """Exact gradient of F as a flat row, every agent's block in one call;
    with a scheme the reweighted gradient int_0^1 w(z) grad F(z pi) dz.
    ``profile`` is one row, or an ``(n, |V|)`` stack of the agents' views,
    block i taken at row i.

    F is multilinear, so each partial derivative at z pi is a polynomial in z
    of degree below n, the number of agents.  The n-node rule of
    :func:`_surrogate_rule` integrates w times such a polynomial exactly, all
    n nodes in one contraction, and so equals the 64-node Gauss-Legendre sum
    up to round-off.  For the submodular scheme the min-gain bonus
    e^{-1} f(v | V - {v}) is added to every coordinate.
    """
    if scheme is None:
        return _gradient(f, profile, _UNSCALED)
    zs, ws = _surrogate_rule(f.partition.n_agents, scheme.rate)
    grad = _gradient(f, profile, zs, ws)
    if scheme.adds_min_gain:
        grad += math.exp(-1.0) * f.min_gains
    return grad


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
    n = profile.partition.n_agents
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


def sampled_gradients(
    f: SetFunction,
    slots: np.ndarray,
    samples: int,
    queries: Optional[np.ndarray] = None,
    scheme: Optional[SurrogateScheme] = None,
) -> np.ndarray:
    """Score an ``(n, m * samples, n)`` slot tensor, block i agent i's draws,
    from one :func:`local_marginal_rows` call, which adds into ``queries``:
    ``(m, |V|)`` flat rows of each agent's mean gains over each ``samples``
    consecutive rows of its block.  With a scheme every gain is rescaled by
    int_0^1 w; the submodular scheme adds e^{-1} ``f.min_gains``, one more
    query per slot of every agent."""
    gains = local_marginal_rows(f, slots, queries)
    values = gains.reshape(-1, samples, gains.shape[1])
    if scheme is not None:
        values = scheme.weight_integral * values
        if scheme.adds_min_gain:
            values = values + math.exp(-1.0) * f.min_gains
            if queries is not None:
                queries += f.partition.sizes
    return values.mean(axis=1)
