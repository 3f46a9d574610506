"""Brute-force reference computations at enumeration scale.

Everything here is allowed to call ``value`` on whole sets and to enumerate
subsets; nothing here is available to the learners, which see only their own
marginal gains.  This module backs the ``verify`` CLI subcommand and the test
suite with plain numbers, which each caller holds to its own bound: best
feasible selections, structure ratios, stationarity gaps, approximation
ratios F(pi)/OPT and their floors, and exact projected ascent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError, ScaleError
from .extension import PolicyProfile, SurrogateScheme, exact_extension, exact_gradient
from .geometry import project_blocks
from .ground import Partition, SetFunction

RATIO_MAX_ACTIONS = 12
RATIO_ZERO_TOL = 1e-12  # a ratio's denominator at or below this counts as zero
ASCENT_STEP = 0.1
ASCENT_MOVE_TOL = 1e-10
ASCENT_MAX_ITERS = 100_000


def feasible_sets(partition: Partition) -> np.ndarray:
    """Slot rows of all selections with at most one action per agent, in
    lexicographic order (idle before slot 0 before slot 1, agents nested
    left to right): the C order of the outcome tensor."""
    partition.check_enumerable()
    return partition.outcomes(np.arange(math.prod(partition.outcome_shape)))


def brute_force_opt(f: SetFunction) -> tuple[np.ndarray, float]:
    """Best feasible selection as a slot row: the argmax of ``f.outcome_values``.

    Ties go to the first maximum in C order, which is the order of
    :func:`feasible_sets`.
    """
    values = f.outcome_values
    best = int(np.argmax(values))
    return f.partition.outcomes(np.array([best]))[0], float(values.flat[best])


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


def estimate_ratios(f: SetFunction) -> RatioReport:
    """Exact structure ratios by enumeration over all subset pairs.

    Quotients whose denominator is at most :data:`RATIO_ZERO_TOL` are
    skipped: they are exactly the pairs where the defining constraint binds
    vacuously.
    Exponential in the number of actions; guarded at 12.  Every S subset T
    pair is one base-3 code (digit 0: v outside T, 1: in T - S, 2: in S), and
    the sums over T - S add their terms lowest element first.
    """
    kappa = f.partition.total
    if kappa > RATIO_MAX_ACTIONS:
        raise ScaleError(f"ratio estimation is capped at {RATIO_MAX_ACTIONS} actions")
    bits = 1 << np.arange(kappa)
    subsets = np.arange(1 << kappa)[:, None]
    values = f.value((subsets & bits) != 0)  # f at every subset, indexed by its bitmask
    gain = values[subsets | bits] - values[subsets]  # f(v|S) at [S, v]
    marg_min = np.where(subsets & bits, np.inf, gain).min(axis=0)  # min over S of f(v|S)
    singleton = gain[0]
    curved = singleton > RATIO_ZERO_TOL
    curvature = np.max(1.0 - marg_min[curved] / singleton[curved], initial=0.0)

    codes = np.arange(3**kappa)
    t = np.zeros_like(codes)
    s = np.zeros_like(codes)
    for bit in bits.tolist():
        codes, digit = np.divmod(codes, 3)
        t |= np.where(digit > 0, bit, 0)
        s |= np.where(digit == 2, bit, 0)
    dr_ratio = 1.0
    below = np.zeros(t.size)  # sum_{v in T-S} f(v|S)
    above = np.zeros(t.size)  # sum_{v in T-S} f(v|T-v)
    for v, bit in enumerate(bits.tolist()):
        at_s, at_t = gain[s, v], gain[t, v]
        binds = (t & bit == 0) & (at_t > RATIO_ZERO_TOL)
        dr_ratio = min(dr_ratio, np.min(at_s[binds] / at_t[binds], initial=1.0))
        fresh = (t & ~s & bit) != 0
        below += np.where(fresh, at_s, 0.0)
        above += np.where(fresh, gain[t ^ bit, v], 0.0)
    gap = values[t] - values[s]
    proper = (s != t) & (gap > RATIO_ZERO_TOL)
    lower_ratio = np.min(below[proper] / gap[proper], initial=1.0)
    upper_ratio = np.max(above[proper] / gap[proper], initial=1.0)
    return RatioReport(
        curvature=float(curvature),
        dr_ratio=float(dr_ratio),
        lower_ratio=float(lower_ratio),
        upper_ratio=float(upper_ratio),
    )


# ---------------------------------------------------------------------------
# stationarity and approximation audits
# ---------------------------------------------------------------------------


def stationarity_gap(
    f: SetFunction, profile: PolicyProfile, scheme: Optional[SurrogateScheme] = None
) -> float:
    """max_{y in product of capped simplexes} <y - pi, grad> for the gradient
    of F, or of the scheme's surrogate: zero exactly at a stationary point.

    The maximum separates per block: the best y places unit mass on the
    largest strictly positive coordinate (or no mass at all), so the gap is
    sum_i max(0, max_m grad_im) - <pi, grad>.
    """
    grad = exact_gradient(f, profile, scheme)
    best = np.maximum(profile.partition.pad(grad).max(axis=-1), 0.0)  # padding is 0 too
    return float(best.sum() - np.dot(grad, profile.row))


def stationary_point_floor(
    scheme: Optional[SurrogateScheme],
    curvature: Optional[float] = None,
    dr_ratio: Optional[float] = None,
    lower_ratio: Optional[float] = None,
    upper_ratio: Optional[float] = None,
) -> float:
    """Worst-case F(pi)/OPT guaranteed at a stationary point of F (``scheme``
    None), of the min-gain surrogate (1 - c/e), or of any other surrogate.

    For the plain extension with a DR ratio, two floor variants are in
    circulation (alpha^2/(1+alpha^2) and alpha^2/(1+alpha)); we audit against
    the weaker alpha^2/(1+alpha), which is the one the detailed derivation
    actually supports.
    """
    if scheme is None:
        if curvature is not None:
            return 1.0 / (1.0 + curvature)
        if dr_ratio is not None:
            return dr_ratio**2 / (1.0 + dr_ratio)
        if lower_ratio is not None and upper_ratio is not None:
            g, b = lower_ratio, upper_ratio
            return g**2 / (b + b * (1.0 - g) + g**2)
    elif scheme.adds_min_gain:
        if curvature is None:
            raise ValueError("min-gain floor needs the curvature")
        return 1.0 - curvature / math.e
    else:
        if dr_ratio is not None:
            return 1.0 - math.exp(-dr_ratio)
        if lower_ratio is not None and upper_ratio is not None:
            g, b = lower_ratio, upper_ratio
            phi = b * (1.0 - g) + g**2
            return g**2 * (1.0 - math.exp(-phi)) / phi
    raise ValueError(f"no floor for scheme {scheme} with given ratios")


def approx_ratio(f: SetFunction, profile: PolicyProfile) -> float:
    """F(pi) / OPT, with OPT by brute force; refuses an OPT that is not
    strictly positive."""
    value = exact_extension(f, profile)
    opt = brute_force_opt(f)[1]
    if opt <= 0:
        raise DataError("audit needs a strictly positive optimum")
    return float(value / opt)


def projected_ascent(
    f: SetFunction,
    scheme: Optional[SurrogateScheme] = None,
    start: Optional[PolicyProfile] = None,
    step: float = ASCENT_STEP,
    max_iters: int = ASCENT_MAX_ITERS,
) -> PolicyProfile:
    """Run exact projected gradient ascent to (numerical) convergence.

    Centralized reference dynamics: full exact gradient of F, or of the
    scheme's surrogate, simultaneous
    projected step on every block, fixed step size; stops when the iterate
    moves less than :data:`ASCENT_MOVE_TOL` in L2 or after ``max_iters`` steps.
    """
    partition = f.partition
    profile = start if start is not None else PolicyProfile(
        partition, np.repeat(0.5 / np.array(partition.sizes), partition.sizes)
    )
    for _ in range(max_iters):
        grad = exact_gradient(f, profile, scheme)
        row = project_blocks(partition, profile.row + step * grad)
        move = float(np.linalg.norm(row - profile.row))
        profile = PolicyProfile(partition, row)
        if move < ASCENT_MOVE_TOL:
            break
    return profile
