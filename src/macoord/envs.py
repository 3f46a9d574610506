"""Benchmark objectives and simulated worlds.

One class, :class:`MovingTargetEnvironment`, runs the moving-target worlds:
agents move by one row of a read-only table of heading x speed moves per
tick, targets move by their own kinds, and the environment kind (the
``MOVING_KINDS`` table) picks the reward and the default target kinds:

* facility-style proximity coverage: every target pays the inverse distance
  to the closest selected agent position (floored), a monotone submodular
  reward;
* tracking-information gain: every selected position takes a bearing
  measurement of every target, whose linearized information falls off as
  1 / range^2, and every target pays the share of its prior covariance trace
  that the measurements remove.  The reward is monotone and weakly
  DR-submodular with some ratio alpha > 0; it is close to modular far from
  the targets and not submodular at close range.

A world with a size below 1, or whose per-round objective table (agents x
moves, or x slots, x targets entries) would pass ``errors.TABLE_LIMIT``, is
refused before any allocation; so is a coverage instance whose mask table
would.

Static instances used by the oracle suite live here too: weighted coverage
(including a tight two-slot family with a bad interior fixed point), modular,
random-coverage, and square-root-of-modular objectives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, ScaleError, check_sizes, read_kind
from .ground import Partition, SetFunction

DT = 0.02  # seconds per tick (25 s split into 1250 ticks at full scale)
DISTANCE_FLOOR = 1e-3
SPAWN_RADIUS = 20.0  # agents and targets start uniform on a disk of this radius
# Largest magnitude of a world size: a speed, a radius or a drift rate.  An
# agent moves at most horizon * DT * speed from its spawn disk, so for any
# horizon below 1e25 ticks every distance stays below 1e76; every distance
# power the objectives take (up to r^4 in the tracking gain) and every orbit
# phase then stays finite.  It also caps the coverage instance's ``epsilon``:
# a gain is then at most 1e50 times the number of agents, and any batch of
# gains sums to a finite float, so every batch mean stays finite.
WORLD_LIMIT = 1e50
ADVERSARIAL_TRIGGER_RADIUS = 20.0
EVADE_SPEED = 15.0
EVADE_CANDIDATE_HEADINGS = 16
SYNTHETIC_MAX_ACTIONS = 12
VALUE_BLOCK = 1 << 20  # floats per masked block of FacilityObjective.value

DEFAULT_HEADINGS = 8
FACILITY_SPEEDS = (5.0, 10.0, 15.0)
EKF_SPEEDS = (2.0, 7.0, 12.0)
EKF_PROCESS_SCALE = 0.02
EKF_NOISE_VAR = 0.01
TARGET_KINDS = ("random", "polyline", "adversarial", "brownian")


# ---------------------------------------------------------------------------
# static set functions
# ---------------------------------------------------------------------------


class _ActionWeights(SetFunction):
    """An objective of one nonnegative weight per action."""

    def __init__(self, partition: Partition, weights: np.ndarray):
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (partition.total,):
            raise ValueError("need one weight per action")
        if weights.min(initial=0.0) < 0:
            raise ValueError("weights must be nonnegative")
        self.partition = partition
        self.weights = weights


class ModularFunction(_ActionWeights):
    """f(S) = sum of per-action weights; the additive baseline case."""

    def value(self, members: np.ndarray) -> np.ndarray:
        return members @ self.weights

    def agent_marginals(self, agent: int, choices: np.ndarray) -> np.ndarray:
        lo, hi = self.partition.offsets[agent], self.partition.offsets[agent + 1]
        return np.tile(self.weights[lo:hi], (len(choices), 1))


class SqrtModularFunction(_ActionWeights):
    """f(S) = sqrt(sum of weights): concave-of-modular, monotone submodular."""

    def value(self, members: np.ndarray) -> np.ndarray:
        return np.sqrt(members @ self.weights)


class WeightedCoverage(SetFunction):
    """f(S) = total weight of universe elements covered by the selected sets."""

    def __init__(self, partition: Partition, masks: np.ndarray, weights: np.ndarray):
        masks = np.asarray(masks, dtype=bool)
        weights = np.asarray(weights, dtype=np.float64)
        if masks.ndim != 2 or masks.shape[0] != partition.total:
            raise ValueError("need one universe mask per action")
        if weights.shape != (masks.shape[1],):
            raise ValueError("need one weight per universe element")
        if weights.min(initial=0.0) < 0:
            raise ValueError("element weights must be nonnegative")
        self.partition = partition
        # the masks and a zero row -1, which absent context entries read
        self._masks = np.vstack((masks, np.zeros(masks.shape[1], dtype=bool)))
        self.masks = self._masks[:-1]
        self.element_weights = weights

    def value(self, members: np.ndarray) -> np.ndarray:
        covered = members @ self.masks  # boolean matmul: OR of the masks, (L, universe)
        return np.where(covered, self.element_weights, 0.0).sum(axis=1)

    def agent_marginals(self, agent: int, choices: np.ndarray) -> np.ndarray:
        covered = self._masks[self.partition.context_index(choices, agent)].any(axis=1)
        lo, hi = self.partition.offsets[agent], self.partition.offsets[agent + 1]
        fresh = self.masks[lo:hi] & ~covered[:, None, :]
        return fresh @ self.element_weights


def coverage_instance(n: int, epsilon: float, k: int) -> WeightedCoverage:
    """Two-slot coverage family with a poor interior fixed point.

    Each of the n agents holds two covering sets.  Slot 0 of the last agent
    covers all n-1 unit-weight elements x_0..x_{n-2}; slot 1 of agent i < n-1
    covers x_i alone; slot 0 of agent i < n-1 covers a private element of tiny
    weight ``epsilon``; slot 1 of the last agent covers n-k private unit
    elements.  Selecting every slot-0 set yields value (1 + epsilon)(n - 1)
    and is a fixed point of naive relaxed ascent, while the slot-1 selection
    achieves 2n - k - 1.
    """
    if n < 2:
        raise ConfigError("coverage instance needs n >= 2 agents")
    if not (1 <= k <= n - 1):
        raise ConfigError(f"coverage instance needs 1 <= k <= n-1, got k={k}")
    n_x, n_y, n_eps = n - 1, n - k, n - 1
    if not 0 < epsilon <= WORLD_LIMIT:
        raise ConfigError(f"epsilon must be positive and at most {WORLD_LIMIT:g}, got {epsilon}")
    universe = n_x + n_y + n_eps
    check_sizes("coverage", {"2 * agents": 2 * n, "(3 * agents - k - 2)": universe},
                "its set-by-element mask table")
    x0, y0, e0 = 0, n_x, n_x + n_y
    weights = np.concatenate(
        [np.ones(n_x), np.ones(n_y), np.full(n_eps, float(epsilon))]
    )
    partition = Partition((2,) * n)
    masks = np.zeros((partition.total, universe), dtype=bool)
    for i in range(n - 1):  # agent i's slot m has flat index 2i + m
        masks[2 * i, e0 + i] = True
        masks[2 * i + 1, x0 + i] = True
    masks[2 * (n - 1), x0 : x0 + n_x] = True
    masks[2 * (n - 1) + 1, y0 : y0 + n_y] = True
    return WeightedCoverage(partition, masks, weights)


def synthetic_setfn(
    kind: str, sizes: Sequence[int], rng: np.random.Generator
) -> SetFunction:
    """Small random objective of a named kind for oracle-scale testing.

    Kinds: ``modular``, ``coverage-random`` (random incidence weighted
    coverage), ``concave-of-modular`` (square root of a random modular sum).
    """
    partition = Partition(tuple(sizes))
    if partition.total > SYNTHETIC_MAX_ACTIONS:
        raise ScaleError(
            f"synthetic sizes {partition.sizes} hold {partition.total} actions; synthetic "
            f"objectives are capped at {SYNTHETIC_MAX_ACTIONS} actions"
        )
    if kind == "modular":
        return ModularFunction(partition, rng.uniform(0.1, 1.0, partition.total))
    if kind == "concave-of-modular":
        return SqrtModularFunction(partition, rng.uniform(0.1, 1.0, partition.total))
    if kind == "coverage-random":
        universe = partition.total + 4
        masks = rng.random((partition.total, universe)) < 0.35
        # every action covers at least one element so singletons are informative
        for row in range(partition.total):
            masks[row, int(rng.integers(universe))] = True
        weights = rng.uniform(0.1, 1.0, universe)
        return WeightedCoverage(partition, masks, weights)
    raise ConfigError(f"unknown synthetic objective kind {kind!r}")


# ---------------------------------------------------------------------------
# moving-target worlds
# ---------------------------------------------------------------------------


@dataclass
class Target:
    kind: str  # "random" | "polyline" | "adversarial" | "brownian"
    pos: np.ndarray
    velocity: Optional[np.ndarray] = None  # units per second
    segment_count: int = 1  # polyline: number of straight legs over the horizon
    evade_ticks: int = 0
    evade_velocity: Optional[np.ndarray] = None


def motion_moves(headings: int, speeds: Sequence[float]) -> np.ndarray:
    """Read-only (headings * len(speeds), 2) table of per-tick displacements:
    headings 2pi/headings .. 2pi crossed with the speeds, slot = heading_index
    * len(speeds) + speed_index."""
    angles = 2.0 * math.pi * np.arange(1, headings + 1) / headings
    rates = np.array(list(speeds), dtype=np.float64)
    if not np.all(np.abs(rates) <= WORLD_LIMIT):
        raise ConfigError(
            f"speeds must be finite and at most {WORLD_LIMIT:g} in magnitude, got {list(speeds)}"
        )
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    moves = (dirs[:, None, :] * rates[None, :, None] * DT).reshape(-1, 2)
    moves.flags.writeable = False
    return moves


def _random_walk_velocity(rng: np.random.Generator) -> np.ndarray:
    """Heading uniform on [0, 2pi), speed uniform on [5, 10] units/s."""
    theta = rng.uniform(0.0, 2.0 * math.pi)
    speed = rng.uniform(5.0, 10.0)
    return speed * np.array([math.cos(theta), math.sin(theta)])


def _evade_direction(pos: np.ndarray, agents: np.ndarray) -> np.ndarray:
    """Unit heading (from a fixed 16-way grid) maximizing the average distance
    of the position one second ahead to all agents; lowest index wins ties."""
    best, best_score = None, -math.inf
    for h in range(EVADE_CANDIDATE_HEADINGS):
        theta = 2.0 * math.pi * h / EVADE_CANDIDATE_HEADINGS
        d = np.array([math.cos(theta), math.sin(theta)])
        landing = pos + EVADE_SPEED * d
        score = float(np.linalg.norm(agents - landing, axis=1).mean())
        if score > best_score + 1e-12:
            best, best_score = d, score
    return best


def step_targets(
    targets: list[Target], agents: np.ndarray, tick: int, horizon: int, rng: np.random.Generator
) -> None:
    """Advance every target from tick ``tick`` of a ``horizon``-tick run to the next.

    * random: fresh heading/speed each tick;
    * polyline: fresh heading/speed only at its segment breakpoints, straight
      otherwise;
    * adversarial: while any agent is within 20 units, flees at 15 units/s
      along the best of 16 headings, held for one second of ticks; otherwise
      moves like a random target;
    * brownian: position increment 0.02 * N(0, I).
    """
    for t in targets:
        if t.kind == "random":
            t.velocity = _random_walk_velocity(rng)
            t.pos = t.pos + t.velocity * DT
        elif t.kind == "polyline":
            segment = max(1, horizon // max(1, t.segment_count))
            if tick % segment == 0 or t.velocity is None:
                t.velocity = _random_walk_velocity(rng)
            t.pos = t.pos + t.velocity * DT
        elif t.kind == "adversarial":
            if t.evade_ticks > 0:
                t.pos = t.pos + t.evade_velocity * DT
                t.evade_ticks -= 1
            else:
                nearest = float(np.linalg.norm(agents - t.pos, axis=1).min())
                if nearest <= ADVERSARIAL_TRIGGER_RADIUS:
                    t.evade_velocity = EVADE_SPEED * _evade_direction(t.pos, agents)
                    t.evade_ticks = max(1, round(1.0 / DT)) - 1
                    t.pos = t.pos + t.evade_velocity * DT
                else:
                    t.velocity = _random_walk_velocity(rng)
                    t.pos = t.pos + t.velocity * DT
        elif t.kind == "brownian":
            t.pos = t.pos + EKF_PROCESS_SCALE * rng.standard_normal(2)
        else:
            raise ConfigError(f"unknown target kind {t.kind!r}")


class FacilityObjective(SetFunction):
    """Inverse-distance proximity coverage of targets by selected positions.

    f(S) = sum_j max_{a in S} 1 / max(||pos_a - target_j||, DISTANCE_FLOOR),
    with the empty max equal to zero.  Monotone submodular (a weighted max-coverage).
    """

    def __init__(
        self,
        partition: Partition,
        candidate_positions: np.ndarray,
        target_positions: np.ndarray,
    ):
        self.partition = partition
        dx = candidate_positions[:, None, 0] - target_positions[None, :, 0]
        dy = candidate_positions[:, None, 1] - target_positions[None, :, 1]
        self._rewards = np.zeros((len(dx) + 1, dx.shape[1]))  # a zero row -1 for absent entries
        dists = np.sqrt(dx * dx + dy * dy)
        self.reward = np.divide(1.0, np.maximum(dists, DISTANCE_FLOOR), out=self._rewards[:-1])

    def value(self, members: np.ndarray) -> np.ndarray:
        # rewards are positive, so a non-member's zero is the empty max; the
        # rows go in blocks that keep the masked rewards under VALUE_BLOCK
        out = np.empty(len(members))
        step = max(1, VALUE_BLOCK // self.reward.size)
        for lo in range(0, len(members), step):
            masked = np.where(members[lo : lo + step, :, None], self.reward, 0.0)
            out[lo : lo + step] = masked.max(axis=1).sum(axis=1)
        return out

    def agent_marginals(self, agent: int, choices: np.ndarray) -> np.ndarray:
        # rewards are positive, so an absent entry's zero row is the empty max
        best = self._rewards[self.partition.context_index(choices, agent)].max(axis=1)
        lo, hi = self.partition.offsets[agent], self.partition.offsets[agent + 1]
        return np.maximum(self.reward[lo:hi] - best[:, None, :], 0.0).sum(axis=2)

    def marginal_rows(self, slots: np.ndarray) -> np.ndarray:
        """Every agent's :meth:`agent_marginals` in one pass, to the bit."""
        idx = self.partition.context_index(slots).transpose(2, 0, 1)
        best = self._rewards[idx].max(axis=0)  # (n, L, targets)
        mine = best.swapaxes(0, 1).take(self.partition.owners, axis=1)  # (L, |V|, targets)
        return np.maximum(np.subtract(self.reward, mine, out=mine), 0.0, out=mine).sum(axis=2)

    def compute_min_gains(self) -> np.ndarray:
        """Closed form: removing v lowers target j only if v is its unique
        best action, and then by the lead over the runner-up (the empty max,
        zero, when v is the only action).  Ties give zero."""
        r = self.reward
        best = r.argmax(axis=0)
        top = r[best, np.arange(r.shape[1])]
        second = np.partition(r, -2, axis=0)[-2] if r.shape[0] > 1 else 0.0
        return np.bincount(best, weights=top - second, minlength=r.shape[0])


class TrackingGainObjective(SetFunction):
    """Information-gain reward for jointly localizing diffusing targets.

    Each selected position takes one bearing measurement of every target.
    With z pointing from the target to the position, z_perp = (-z_y, z_x)
    and r = max(||z||, DISTANCE_FLOOR), the linearized measurement is
    H = z_perp^T / r^2, so the position adds the rank-one information term
    H^T H / sigma^2 = z_perp z_perp^T / (sigma^2 r^4), which falls off with
    range.  The prior about every target is the process covariance P = q^2 I.
    The reward is the fraction of prior variance removed,
    (tr P - tr P_post) / tr P, summed over targets, so each target is worth
    less than one.  Monotone and weakly DR-submodular.  Far from the targets
    every bearing adds little next to the prior and the gain is close to
    modular; at close range a bearing can be worth more once a slightly
    turned one has been taken, so the gain is not submodular.

    Marginals use Sherman-Morrison: with B the prior plus the context's
    information, adding u u^T lowers tr(B^-1) by u^T B^-2 u / (1 + u^T B^-1 u).
    Every temporary stays at (L, k) or (L, targets, 4) size for L rows: larger
    stacks cost more in fresh pages than in arithmetic.
    """

    def __init__(
        self,
        partition: Partition,
        candidate_positions: np.ndarray,
        target_positions: np.ndarray,
    ):
        self.partition = partition
        p = EKF_PROCESS_SCALE**2
        self.prior_info = np.eye(2) / p  # I_j = P^{-1}, identical for all targets
        self.prior_trace = 2.0 * p
        # z from target to position, as (targets, actions); z_perp = (-dy, dx)
        dx = candidate_positions[:, 0] - target_positions[:, 0, None]
        dy = candidate_positions[:, 1] - target_positions[:, 1, None]
        scale = EKF_NOISE_VAR * np.maximum(np.sqrt(dx * dx + dy * dy), DISTANCE_FLOOR) ** 4
        # (xx, xy, yy, 1) as (4, targets, actions), plus an all-zero action -1 for absent entries
        self.comps = np.zeros((4, len(dx), dx.shape[1] + 1))
        self.comps[:3, :, :-1] = np.stack([dy * dy, -dy * dx, dx * dx]) / scale
        self.comps[3, :, :-1] = 1.0

    def value(self, members: np.ndarray) -> np.ndarray:
        n_targets = self.comps.shape[1]
        # every action's 2x2 information (xx, xy, xy, yy) per target, as one matrix
        terms = np.ascontiguousarray(self.comps[[0, 1, 1, 2], :, :-1].transpose(2, 1, 0))
        m = (members @ terms.reshape(len(terms), -1)).reshape(-1, n_targets, 2, 2) + self.prior_info
        det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
        posterior = ((m[..., 0, 0] + m[..., 1, 1]) / det).sum(axis=1)
        return n_targets - posterior / self.prior_trace

    def agent_marginals(self, agent: int, choices: np.ndarray) -> np.ndarray:
        lo, hi = self.partition.offsets[agent], self.partition.offsets[agent + 1]
        idx = self.partition.context_index(choices, agent)
        ctx = np.zeros((3, self.comps.shape[1], len(choices)))  # (3, targets, L)
        for col in range(idx.shape[1]):
            if col != agent:
                ctx += self.comps[:3].take(idx[:, col], axis=2)
        a, b, d = ctx + self.prior_info[[0, 0, 1], [0, 1, 1]][:, None, None]  # B
        bb, m2b = b * b, -2.0 * b
        det = a * d - bb  # (targets, L)
        # the gain is u^T A^2 u / det / (det + u^T A u) with A = adj(B) = det B^-1:
        # (xx, 2xy, yy) rows of A^2 / det and (A, det) rows dot own (xx, xy, yy, 1)
        num = np.stack([d * d + bb, m2b * (a + d), a * a + bb], axis=-1) / det[..., None]
        den = np.stack([d, m2b, a, det], axis=-1)
        out = np.zeros((len(choices), hi - lo))
        for t in range(len(num)):
            own = self.comps[:, t, lo:hi]  # (4, k)
            out += (num[t] @ own[:3]) / (den[t] @ own)
        return out / self.prior_trace


# ---------------------------------------------------------------------------
# environments (round-by-round drivers)
# ---------------------------------------------------------------------------


def _spawn_disk(rng: np.random.Generator, count: int) -> np.ndarray:
    r = SPAWN_RADIUS * np.sqrt(rng.random(count))
    theta = rng.uniform(0.0, 2.0 * math.pi, count)
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)


def _build_targets(mix: dict[str, int], rng: np.random.Generator) -> list[Target]:
    positions_needed = sum(mix.values())
    spots = _spawn_disk(rng, positions_needed)
    targets = []
    idx = 0
    for kind in TARGET_KINDS:
        for _ in range(mix.get(kind, 0)):
            t = Target(kind=kind, pos=spots[idx].copy())
            if kind == "polyline":
                t.segment_count = int(rng.choice([1, 2, 4]))
            targets.append(t)
            idx += 1
    return targets


def _default_mix(n_targets: int, kinds: Sequence[str]) -> dict[str, int]:
    mix = {k: 0 for k in kinds}
    for j in range(n_targets):
        mix[kinds[j % len(kinds)]] += 1
    return mix


class MovingTargetEnvironment:
    """A moving-target world: agents and targets on the plane, advanced tick
    by tick.  Each agent's actions are the rows of the read-only ``moves``
    table; each round's objective is the kind's reward of every landing point
    against the targets' current positions."""

    def __init__(
        self,
        kind: str,
        seed: int,
        horizon: int,
        agents: int,
        targets: int,
        speeds: Sequence[float],
        headings: int,
        target_mix: Optional[dict[str, int]],
        record_world: bool,
    ):
        check_sizes(kind, {"agents": agents, "headings": headings, "len(speeds)": len(speeds),
                           "targets": targets}, "a round's objective table")
        self.objective, default_kinds = MOVING_KINDS[kind]
        self.moves = motion_moves(headings, speeds)
        self._rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x656E76)))
        mix = _default_mix(targets, default_kinds) if target_mix is None else target_mix
        unknown = sorted(set(mix) - set(TARGET_KINDS))
        if unknown:
            raise ConfigError(f"unknown target kinds {unknown}; known: {list(TARGET_KINDS)}")
        if any(c < 0 for c in mix.values()):
            raise ConfigError(f"target_mix counts must be nonnegative integers, got {mix}")
        if sum(mix.values()) != targets:
            raise ConfigError("target_mix must sum to the number of targets")
        self.targets = _build_targets(mix, self._rng)
        self.agents = _spawn_disk(self._rng, agents)
        self.horizon = int(horizon)
        self.tick = 0
        self.partition = Partition((len(self.moves),) * agents)
        self.record_world = record_world
        self._trace: list[tuple] = []
        if self.record_world:
            self._record()

    def landing_points(self) -> np.ndarray:
        """(total_actions, 2): where each action lands from the current poses."""
        return (self.agents[:, None, :] + self.moves[None, :, :]).reshape(-1, 2)

    def begin_round(self) -> SetFunction:
        targets = np.stack([t.pos for t in self.targets])
        return self.objective(self.partition, self.landing_points(), targets)

    def finish_round(self, chosen: np.ndarray) -> None:
        """Move every agent by its chosen slot (idle, -1, stays), then the targets."""
        moving = chosen >= 0
        self.agents[moving] += self.moves[chosen[moving]]
        step_targets(self.targets, self.agents, self.tick, self.horizon, self._rng)
        self.tick += 1
        if self.record_world:
            self._record()

    def _record(self) -> None:
        for i, pos in enumerate(self.agents):
            self._trace.append((self.tick, f"agent:{i}", float(pos[0]), float(pos[1]), "agent"))
        for j, tgt in enumerate(self.targets):
            self._trace.append(
                (self.tick, f"target:{j}", float(tgt.pos[0]), float(tgt.pos[1]), tgt.kind)
            )

    def trajectory_rows(self) -> list[tuple]:
        return list(self._trace)


class StaticEnvironment:
    """Wraps a fixed set function as a (trivially stationary) environment."""

    def __init__(self, f: SetFunction):
        self.f = f
        self.partition = f.partition

    def begin_round(self) -> SetFunction:
        return self.f

    def finish_round(self, chosen: np.ndarray) -> None:
        pass


class OrbitingTargetsEnvironment:
    """Deterministic slowly-drifting instance at oracle scale.

    Candidate positions are 2n fixed sites on a circle (two per agent);
    targets orbit a strictly inner circle at a slow constant angular rate,
    so the best pair of sites drifts smoothly over the horizon while the
    site-target distance stays bounded away from zero.  The reward is the
    same inverse-distance coverage as the facility world.
    """

    def __init__(
        self,
        seed: int,
        horizon: int,
        agents: int,
        slots: int,
        targets: int,
        drift_cycles: float,
        radius: float,
        target_radius: Optional[float],
    ):
        self.horizon = horizon
        self.cycles = drift_cycles
        self.radius = radius
        self.target_radius = 0.625 * radius if target_radius is None else target_radius
        limited = ("drift_cycles", "radius", "target_radius")
        for name, x in zip(limited, (drift_cycles, radius, self.target_radius)):
            if not abs(x) <= WORLD_LIMIT:
                raise ConfigError(
                    f"orbiting-targets {name} must be finite and at most {WORLD_LIMIT:g} "
                    f"in magnitude, got {x}"
                )
        check_sizes("orbiting-targets", {"agents": agents, "slots": slots, "targets": targets},
                    "a round's objective table")
        self.partition = Partition((slots,) * agents)
        total = self.partition.total
        angles = 2.0 * math.pi * np.arange(total) / total
        self.sites = self.radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x6F726269)))
        self.phases = rng.uniform(0.0, 2.0 * math.pi, targets)
        self.tick = 0

    def _target_positions(self) -> np.ndarray:
        angle = self.phases + 2.0 * math.pi * self.cycles * self.tick / self.horizon
        return self.target_radius * np.stack([np.cos(angle), np.sin(angle)], axis=1)

    def begin_round(self) -> SetFunction:
        return FacilityObjective(self.partition, self.sites, self._target_positions())

    def finish_round(self, chosen: np.ndarray) -> None:
        self.tick += 1


# Each moving-target kind's reward and the target kinds its default mix cycles through.
MOVING_KINDS = {
    "facility": (FacilityObjective, ("random", "polyline", "adversarial")),
    "tracking-gain": (TrackingGainObjective, ("brownian",)),
    "ekf": (TrackingGainObjective, ("brownian",)),  # the tracking-gain world under its filter's name
}
# Each environment kind's spec fields, name -> (JSON kind, default), read by
# errors.read_kind.  The run's horizon is no spec field: the harness passes it.
_TRACKING_FIELDS = {
    "agents": (int, 6),
    "targets": (int, 8),
    "speeds": (list[float], EKF_SPEEDS),
    "headings": (int, DEFAULT_HEADINGS),
    "target_mix": (dict[str, int], None),
    "record_world": (bool, False),
}
ENVIRONMENT_FIELDS = {
    "facility": {**_TRACKING_FIELDS, "speeds": (list[float], FACILITY_SPEEDS)},
    "tracking-gain": _TRACKING_FIELDS,
    "ekf": _TRACKING_FIELDS,
    "orbiting-targets": {
        "agents": (int, 3),
        "slots": (int, 2),
        "targets": (int, 2),
        "drift_cycles": (float, 1.0),
        "radius": (float, 4.0),
        "target_radius": (float, None),  # 0.625 radius
    },
    "coverage": {"agents": (int, 3), "epsilon": (float, 0.1), "k": (int, 1)},
    "synthetic": {"objective": (str, "coverage-random"), "sizes": (list[int], (2, 2, 2))},
}


def make_environment(spec: dict, seed: int, horizon: int):
    """Environment factory keyed on ``spec["kind"]``, for a run of ``horizon`` rounds."""
    if "horizon" in spec:
        raise ConfigError("unknown environment field 'horizon'; the top-level horizon sets it")
    kind, fields = read_kind("environment", spec, ENVIRONMENT_FIELDS)
    if kind == "coverage":
        return StaticEnvironment(coverage_instance(fields["agents"], fields["epsilon"], fields["k"]))
    if kind == "synthetic":
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x73796E74)))
        return StaticEnvironment(synthetic_setfn(fields["objective"], fields["sizes"], rng))
    if kind == "orbiting-targets":
        return OrbitingTargetsEnvironment(seed, horizon, **fields)
    return MovingTargetEnvironment(kind, seed, horizon, **fields)
