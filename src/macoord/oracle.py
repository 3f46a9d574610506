"""Brute-force reference computations at enumeration scale.

Everything here is allowed to call ``value`` on whole sets and to enumerate
subsets; nothing here is available to the learners, which see only their own
marginal gains.  This module backs the ``verify`` CLI subcommand and the test
suite: best feasible selections, set-function structure ratios, stationarity
certificates, and approximation-floor audits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .errors import DataError, ScaleError
from .extension import (
    PolicyProfile,
    SurrogateScheme,
    exact_extension,
    exact_gradient,
    exact_surrogate_gradient,
)
from .geometry import project_capped_simplex
from .ground import ActionId, FeasibleSet, Partition, SetFunction

RATIO_MAX_ACTIONS = 12
STATIONARITY_TOL = 1e-6
ASCENT_STEP = 0.1
ASCENT_MOVE_TOL = 1e-10
ASCENT_MAX_ITERS = 100_000

OBJECTIVES = ("extension", "surrogate", "surrogate+min-gain")


def feasible_sets(partition: Partition) -> Iterator[FeasibleSet]:
    """All selections with at most one action per agent, lexicographic order
    (None before slot 0 before slot 1, agents nested left to right)."""
    partition.check_enumerable()
    for choice in itertools.product(*([None, *range(k)] for k in partition.sizes)):
        yield FeasibleSet(choice)


def brute_force_opt(f: SetFunction, partition: Partition) -> tuple[FeasibleSet, float]:
    """Best feasible selection: the argmax of ``f.outcome_values``.

    ``partition`` must be f's own.  Ties go to the first maximum in C order,
    which is the order of :func:`feasible_sets`.
    """
    if partition != f.partition:
        raise ValueError(f"partition {partition.sizes} is not the objective's {f.partition.sizes}")
    values = f.outcome_values
    best = np.unravel_index(int(np.argmax(values)), values.shape)
    choice = tuple(None if s == 0 else int(s) - 1 for s in best)
    return FeasibleSet(choice), float(values[best])


# ---------------------------------------------------------------------------
# structure ratios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatioReport:
    """Brute-force structure constants of a set function.

    curvature        1 - min f(v|S)/f({v}); 0 is modular, 1 fully curved.
    dr_ratio         largest alpha with f(v|S) >= alpha f(v|T) for S subset T.
    lower_ratio      largest gamma with sum_{v in T-S} f(v|S) >= gamma (f(T)-f(S)).
    upper_ratio      smallest beta with sum_{v in T-S} f(v|T-v) <= beta (f(T)-f(S)).
    """

    curvature: float
    dr_ratio: float
    lower_ratio: float
    upper_ratio: float


def _subset_values(f: SetFunction, actions: list[ActionId]) -> np.ndarray:
    values = np.empty(1 << len(actions), dtype=np.float64)
    for mask in range(values.size):
        members = [actions[b] for b in range(len(actions)) if mask >> b & 1]
        values[mask] = f.value(members)
    return values


def estimate_ratios(f: SetFunction, zero_tol: float = 1e-12) -> RatioReport:
    """Exact structure ratios by enumeration over all subset pairs.

    Quotients whose denominator is (numerically) zero are skipped: they are
    exactly the pairs where the defining constraint binds vacuously.
    Exponential in the number of actions; guarded at 12.
    """
    actions = list(f.partition.all_actions())
    kappa = len(actions)
    if kappa > RATIO_MAX_ACTIONS:
        raise ScaleError(f"ratio estimation is capped at {RATIO_MAX_ACTIONS} actions")
    values = _subset_values(f, actions)
    full = (1 << kappa) - 1

    singleton = np.array([values[1 << b] - values[0] for b in range(kappa)])
    curvature = 0.0
    dr_ratio = 1.0
    # curvature and DR ratio range over marginals of one element v:
    #   curvature pairs (S, v not in S) against the singleton value;
    #   dr pairs (S subset T, v not in T), where it suffices to compare each
    #   marginal against the extremes over supersets/subsets of the chain.
    marg_min = np.full(kappa, math.inf)  # min over S of f(v|S)
    for v in range(kappa):
        bit = 1 << v
        rest = full & ~bit
        sub = rest
        while True:
            m = values[sub | bit] - values[sub]
            if m < marg_min[v]:
                marg_min[v] = m
            if sub == 0:
                break
            sub = (sub - 1) & rest
    for v in range(kappa):
        if singleton[v] > zero_tol:
            curvature = max(curvature, 1.0 - marg_min[v] / singleton[v])
    # dr ratio needs ordered pairs S subset T; the binding quotient is
    # min_S f(v|S) / max_T f(v|T) only when the min sits below the max on a
    # chain, so enumerate pairs directly (kappa 3^(kappa-1) pairs).
    for v in range(kappa):
        bit = 1 << v
        rest = full & ~bit
        t = rest
        while True:
            ft = values[t | bit] - values[t]
            if ft > zero_tol:
                sub = t
                while True:
                    ratio = (values[sub | bit] - values[sub]) / ft
                    if ratio < dr_ratio:
                        dr_ratio = ratio
                    if sub == 0:
                        break
                    sub = (sub - 1) & t
            if t == 0:
                break
            t = (t - 1) & rest

    lower_ratio = 1.0
    upper_ratio = 1.0
    t = full
    while True:
        if t:
            sub = (t - 1) & t  # proper subsets of t only
            while True:
                gap = values[t] - values[sub]
                if gap > zero_tol:
                    fresh = t & ~sub
                    below = 0.0
                    above = 0.0
                    b = fresh
                    while b:
                        bit = b & -b
                        below += values[sub | bit] - values[sub]
                        above += values[t] - values[t & ~bit]
                        b &= b - 1
                    lower_ratio = min(lower_ratio, below / gap)
                    upper_ratio = max(upper_ratio, above / gap)
                if sub == 0:
                    break
                sub = (sub - 1) & t
        if t == 0:
            break
        t -= 1
    return RatioReport(
        curvature=float(curvature),
        dr_ratio=float(dr_ratio),
        lower_ratio=float(lower_ratio),
        upper_ratio=float(upper_ratio),
    )


# ---------------------------------------------------------------------------
# stationarity and approximation audits
# ---------------------------------------------------------------------------


def _objective_gradient(
    f: SetFunction,
    profile: PolicyProfile,
    objective: str,
    scheme: Optional[SurrogateScheme],
) -> list[np.ndarray]:
    if objective == "extension":
        return exact_gradient(f, profile)
    if objective in ("surrogate", "surrogate+min-gain"):
        if scheme is None:
            scheme = (
                SurrogateScheme.submodular()
                if objective == "surrogate+min-gain"
                else SurrogateScheme.weak_dr(1.0)
            )
        if objective == "surrogate+min-gain" and not scheme.adds_min_gain:
            raise ValueError("min-gain variant needs the submodular scheme")
        if objective == "surrogate" and scheme.adds_min_gain:
            raise ValueError("plain surrogate must not carry the min-gain bonus")
        return exact_surrogate_gradient(f, profile, scheme)
    raise ValueError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")


@dataclass(frozen=True)
class StationarityReport:
    objective: str
    improvement: float  # max_{y feasible} <y - pi, grad>
    stationary: bool
    tolerance: float
    gradient: tuple[np.ndarray, ...] = field(repr=False)


def check_stationarity(
    f: SetFunction,
    profile: PolicyProfile,
    objective: str = "extension",
    scheme: Optional[SurrogateScheme] = None,
    tol: float = STATIONARITY_TOL,
) -> StationarityReport:
    """Certify max_{y in product of capped simplexes} <y - pi, grad> <= tol.

    The maximum separates per block: the best y places unit mass on the
    largest strictly positive coordinate (or no mass at all), so the
    improvement is sum_i [max(0, max_m grad_im) - <pi_i, grad_i>].
    """
    grad = _objective_gradient(f, profile, objective, scheme)
    improvement = 0.0
    for g, b in zip(grad, profile.blocks):
        improvement += max(0.0, float(g.max())) - float(np.dot(g, b))
    return StationarityReport(
        objective=objective,
        improvement=float(improvement),
        stationary=improvement <= tol,
        tolerance=tol,
        gradient=tuple(grad),
    )


def stationary_point_floor(
    objective: str,
    curvature: Optional[float] = None,
    dr_ratio: Optional[float] = None,
    lower_ratio: Optional[float] = None,
    upper_ratio: Optional[float] = None,
) -> float:
    """Worst-case F(pi)/OPT guaranteed at a stationary point of the objective.

    For the plain extension with a DR ratio, two floor variants are in
    circulation (alpha^2/(1+alpha^2) and alpha^2/(1+alpha)); we audit against
    the weaker alpha^2/(1+alpha), which is the one the detailed derivation
    actually supports.  See also :func:`floor_variants`.
    """
    if objective == "extension":
        if curvature is not None:
            return 1.0 / (1.0 + curvature)
        if dr_ratio is not None:
            return dr_ratio**2 / (1.0 + dr_ratio)
        if lower_ratio is not None and upper_ratio is not None:
            g, b = lower_ratio, upper_ratio
            return g**2 / (b + b * (1.0 - g) + g**2)
    if objective == "surrogate+min-gain":
        if curvature is None:
            raise ValueError("min-gain floor needs the curvature")
        return 1.0 - curvature / math.e
    if objective == "surrogate":
        if dr_ratio is not None:
            return 1.0 - math.exp(-dr_ratio)
        if lower_ratio is not None and upper_ratio is not None:
            g, b = lower_ratio, upper_ratio
            phi = b * (1.0 - g) + g**2
            return g**2 * (1.0 - math.exp(-phi)) / phi
    raise ValueError(f"no floor for objective {objective!r} with given ratios")


def floor_variants(dr_ratio: float) -> dict[str, float]:
    """Both published stationary-point floors for the DR-ratio case.

    The headline statement reads alpha^2/(1+alpha^2); the proof supplies
    alpha^2/(1+alpha) (weaker on (0,1)).  Audits use the proof-backed value;
    this helper exposes both so reports can flag the discrepancy.
    """
    return {
        "stated": dr_ratio**2 / (1.0 + dr_ratio**2),
        "proof": dr_ratio**2 / (1.0 + dr_ratio),
    }


@dataclass(frozen=True)
class AuditReport:
    extension_value: float
    opt_value: float
    opt_set: FeasibleSet
    ratio: float
    floor: float
    clears: bool


def approx_ratio_audit(
    f: SetFunction, profile: PolicyProfile, floor: float, slack: float = 0.0
) -> AuditReport:
    """Compare F(pi) / OPT against a theoretical floor (OPT by brute force)."""
    value = exact_extension(f, profile)
    opt_set, opt = brute_force_opt(f, f.partition)
    if opt <= 0:
        raise DataError("audit needs a strictly positive optimum")
    ratio = value / opt
    return AuditReport(
        extension_value=float(value),
        opt_value=float(opt),
        opt_set=opt_set,
        ratio=float(ratio),
        floor=float(floor),
        clears=ratio >= floor - slack,
    )


def projected_ascent(
    f: SetFunction,
    partition: Partition,
    objective: str = "extension",
    scheme: Optional[SurrogateScheme] = None,
    start: Optional[PolicyProfile] = None,
    step: float = ASCENT_STEP,
    move_tol: float = ASCENT_MOVE_TOL,
    max_iters: int = ASCENT_MAX_ITERS,
) -> PolicyProfile:
    """Run exact projected gradient ascent to (numerical) convergence.

    Centralized reference dynamics: full exact gradient, simultaneous
    projected step on every block, fixed step size; stops when the iterate
    moves less than ``move_tol`` in L2 or after ``max_iters`` steps.
    """
    profile = start if start is not None else PolicyProfile(
        tuple(np.full(k, 0.5 / k) for k in partition.sizes)
    )
    for _ in range(max_iters):
        grad = _objective_gradient(f, profile, objective, scheme)
        new_blocks = tuple(
            project_capped_simplex(b + step * g)
            for b, g in zip(profile.blocks, grad)
        )
        move = math.sqrt(
            sum(
                float(np.sum((nb - b) ** 2))
                for nb, b in zip(new_blocks, profile.blocks)
            )
        )
        profile = PolicyProfile(new_blocks)
        if move < move_tol:
            break
    return profile
