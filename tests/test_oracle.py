"""Brute-force reference tooling: enumeration, structure ratios, audits.

The ratio code is itself an oracle for other tests, so it gets its own
independent re-implementation here (direct value-query loops with no shared
helpers) on instances small enough to enumerate twice.
"""

import itertools
import math

import numpy as np
import pytest

import macoord.ground as ground
from macoord.envs import (
    FacilityObjective,
    ModularFunction,
    SqrtModularFunction,
    TrackingGainObjective,
    WeightedCoverage,
    coverage_instance,
    synthetic_setfn,
)
from macoord.errors import DataError, ScaleError
from macoord.extension import (
    PolicyProfile,
    SurrogateScheme,
    exact_extension,
    exact_gradient,
    sample_choices,
)
from macoord.ground import Partition
from macoord.oracle import (
    RatioReport,
    approx_ratio_audit,
    brute_force_opt,
    check_stationarity,
    estimate_ratios,
    feasible_sets,
    projected_ascent,
    stationary_point_floor,
)
from macoord.verification import NONSUB_TRACKING


def _value(f, row):
    """f at one selection, given as a slot row (-1 idle)."""
    return float(f.value(f.partition.members(np.array([row])))[0])


def _indicator(p, row):
    """The deterministic profile of one selection: its membership row."""
    return PolicyProfile(p, p.members(np.array([row]))[0])


def _blocks(profile):
    """Views of the agents' blocks of a profile's row."""
    return np.split(profile.row, profile.partition.offsets[1:-1])


def _mask_value(f, mask):
    """f at the subset of V whose flat indices are the set bits of ``mask``."""
    row = (mask >> np.arange(f.partition.total) & 1).astype(bool)
    return float(f.value(row[None])[0])


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_feasible_sets_count_and_order():
    p = Partition((2, 2, 2))
    sets = feasible_sets(p)
    assert sets.shape == (27, 3)  # (k_i + 1) choices per agent
    assert sets[0].tolist() == [-1, -1, -1]
    assert sets[1].tolist() == [-1, -1, 0]
    assert sets[2].tolist() == [-1, -1, 1]
    assert sets[3].tolist() == [-1, 0, -1]
    assert sets[-1].tolist() == [1, 1, 1]
    assert len({tuple(s) for s in sets.tolist()}) == 27


def test_feasible_sets_scale_guard():
    with pytest.raises(ScaleError):
        list(feasible_sets(Partition((9,) * 7)))


def test_brute_force_opt_matches_itertools_oracle():
    rng = np.random.default_rng(0)
    for _ in range(5):
        f = synthetic_setfn("coverage-random", (2, 3), rng)
        best = max(
            (
                _value(f, choice)
                for choice in itertools.product(
                    (-1, 0, 1), (-1, 0, 1, 2)
                )
            ),
        )
        opt_set, opt = brute_force_opt(f)
        assert opt == pytest.approx(best, abs=1e-12)
        assert _value(f, opt_set) == opt


def test_brute_force_opt_tie_breaks_lexicographically():
    p = Partition((2, 2))
    f = ModularFunction(p, np.zeros(4))
    opt_set, opt = brute_force_opt(f)
    assert opt == 0.0
    assert opt_set.tolist() == [-1, -1]


def test_brute_force_opt_ties_away_from_empty_set():
    p = Partition((2, 2))
    opt_set, opt = brute_force_opt(ModularFunction(p, np.array([1.0, 1.0, 0.5, 0.5])))
    assert (opt_set.tolist(), opt) == ([0, 0], 1.5)
    # against the first strict improvement in enumeration order, on
    # 0/1 weights, where many selections tie
    rng = np.random.default_rng(12)
    for _ in range(30):
        sizes = tuple(int(k) for k in rng.integers(1, 4, size=int(rng.integers(1, 4))))
        part = Partition(sizes)
        f = ModularFunction(part, rng.integers(0, 2, part.total).astype(float))
        best_set, best = None, -math.inf
        for s in feasible_sets(part):
            v = _value(f, s)
            if v > best:
                best_set, best = s, v
        got_set, got = brute_force_opt(f)
        assert (got_set.tolist(), got) == (best_set.tolist(), best)


# ---------------------------------------------------------------------------
# structure ratios
# ---------------------------------------------------------------------------


def _dr_ratio_oracle(f, tol=1e-12):
    """Largest alpha with f(v|S) >= alpha f(v|T) for all S subset T, v not in T,
    by direct value queries over every submask pair."""
    n = f.partition.total
    best = 1.0
    for t_mask in range(1 << n):
        ft = _mask_value(f, t_mask)
        for v in range(n):
            if t_mask >> v & 1:
                continue
            gain_t = _mask_value(f, t_mask | 1 << v) - ft
            if gain_t <= tol:
                continue
            s_mask = t_mask
            while True:
                gain_s = _mask_value(f, s_mask | 1 << v) - _mask_value(f, s_mask)
                best = min(best, gain_s / gain_t)
                if s_mask == 0:
                    break
                s_mask = (s_mask - 1) & t_mask
    return best


def _loop_ratios(f, zero_tol=1e-12):
    """The bit-loop form of ``estimate_ratios``: Python loops over submasks,
    the reference its array form must match float for float."""
    kappa = f.partition.total
    masks = np.arange(1 << kappa)[:, None] >> np.arange(kappa) & 1
    values = f.value(masks.astype(bool))
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


@pytest.mark.parametrize("kind", ["modular", "coverage-random", "concave-of-modular"])
def test_estimate_ratios_equals_loop_reference(kind):
    # every float equal, not close: test_09 reads exact 0s and 1s off them
    rng = np.random.default_rng(len(kind))
    for sizes in [(1, 2), (2, 2, 1), (3, 2, 2), (3, 3, 3)] * 2:
        f = synthetic_setfn(kind, sizes, rng)
        assert estimate_ratios(f) == _loop_ratios(f)
    if kind == "coverage-random":  # the size cap, once: the loop takes seconds
        f = synthetic_setfn(kind, (4, 4, 4), rng)
        assert estimate_ratios(f) == _loop_ratios(f)


def test_estimate_ratios_equals_loop_reference_on_trap_and_tracking():
    for f in (coverage_instance(3, 0.1, 1), NONSUB_TRACKING):
        assert estimate_ratios(f) == _loop_ratios(f)


def test_ratios_of_modular_function_are_exact():
    # dyadic weights make every arithmetic step exact in binary floats
    p = Partition((2, 2))
    f = ModularFunction(p, np.array([0.5, 1.25, 0.75, 2.0]))
    r = estimate_ratios(f)
    assert r.curvature == 0.0
    assert r.dr_ratio == 1.0
    assert r.lower_ratio == 1.0
    assert r.upper_ratio == 1.0


def test_ratios_of_coverage_trap():
    # slot-0 actions overlap pairwise, so some action gains nothing against
    # the rest: curvature is exactly one; coverage stays DR-submodular
    r = estimate_ratios(coverage_instance(3, 0.1, 1))
    assert r.curvature == 1.0
    assert r.dr_ratio == pytest.approx(1.0, abs=1e-12)


def test_random_coverage_is_submodular():
    rng = np.random.default_rng(1)
    for _ in range(5):
        f = synthetic_setfn("coverage-random", (2, 2, 2), rng)
        r = estimate_ratios(f)
        assert r.dr_ratio == pytest.approx(1.0, abs=1e-9)
        assert 0.0 <= r.curvature <= 1.0


def test_sqrt_modular_dr_ratio_matches_independent_oracle():
    rng = np.random.default_rng(2)
    for _ in range(5):
        p = Partition((2, 1))
        f = SqrtModularFunction(p, rng.uniform(0.5, 4.0, 3))
        r = estimate_ratios(f)
        assert r.dr_ratio == pytest.approx(_dr_ratio_oracle(f), rel=1e-12)
        # concave-of-modular is submodular but strictly curved
        assert r.dr_ratio == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < r.curvature < 1.0
        # general invariants: the one-sided ratios bracket one
        assert r.lower_ratio <= 1.0 + 1e-12
        assert r.upper_ratio >= 1.0 - 1e-12
        assert r.lower_ratio >= r.dr_ratio - 1e-12


def test_non_submodular_dr_ratio_matches_independent_oracle():
    # complementing close-range bearings push the DR ratio strictly inside (0, 1)
    from macoord.envs import TrackingGainObjective

    f = TrackingGainObjective(
        Partition((2, 1)),
        np.array([[0.0, -0.08], [-0.01, -0.03], [0.0, 0.05]]),
        np.array([[0.0, 0.0]]),
    )
    r = estimate_ratios(f)
    assert r.dr_ratio == pytest.approx(_dr_ratio_oracle(f), rel=1e-10)
    assert 0.0 < r.dr_ratio < 1.0


def test_estimate_ratios_scale_guard():
    p = Partition((7, 6))
    f = ModularFunction(p, np.ones(13))
    with pytest.raises(ScaleError):
        estimate_ratios(f)


# ---------------------------------------------------------------------------
# stationarity
# ---------------------------------------------------------------------------


def test_check_stationarity_hand_values():
    p = Partition((2,))
    f = ModularFunction(p, np.array([1.0, 2.0]))
    # at the argmax vertex nothing improves
    at_top = check_stationarity(f, _indicator(p, [1]))
    assert at_top.stationary
    assert at_top.improvement == pytest.approx(0.0, abs=1e-12)
    # at uniform, moving half the mass to slot 1 gains exactly 0.5
    mid = PolicyProfile(p, np.array([0.5, 0.5]))
    rep = check_stationarity(f, mid)
    assert not rep.stationary
    assert rep.improvement == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(rep.gradient, [1.0, 2.0], atol=1e-12)


def test_check_stationarity_certifies_the_schemes_gradient():
    # None certifies F; a scheme certifies its surrogate, min-gain bonus included
    f = coverage_instance(3, 0.1, 1)
    trap = _indicator(f.partition, [0, 0, 0])
    for scheme in (None, SurrogateScheme.weak_dr(0.5), SurrogateScheme.submodular()):
        rep = check_stationarity(f, trap, scheme)
        assert rep.gradient.tobytes() == exact_gradient(f, trap, scheme).tobytes()
    assert check_stationarity(f, trap, tol=1e-9).stationary
    assert not check_stationarity(f, trap, SurrogateScheme.submodular(), tol=1e-9).stationary


# ---------------------------------------------------------------------------
# guarantee floors
# ---------------------------------------------------------------------------


def test_stationary_point_floor_table():
    assert stationary_point_floor(None, curvature=1.0) == pytest.approx(0.5)
    assert stationary_point_floor(None, curvature=0.0) == pytest.approx(1.0)
    a = 0.6
    assert stationary_point_floor(None, dr_ratio=a) == pytest.approx(
        a**2 / (1 + a)
    )
    g, b = 0.7, 1.3
    assert stationary_point_floor(
        None, lower_ratio=g, upper_ratio=b
    ) == pytest.approx(g**2 / (b + b * (1 - g) + g**2))
    assert stationary_point_floor(
        SurrogateScheme.submodular(), curvature=1.0
    ) == pytest.approx(1.0 - 1.0 / math.e)
    assert stationary_point_floor(SurrogateScheme.weak_dr(a), dr_ratio=a) == pytest.approx(
        1.0 - math.exp(-a)
    )
    phi = b * (1 - g) + g**2
    assert stationary_point_floor(
        SurrogateScheme.weak_sub(g, b), lower_ratio=g, upper_ratio=b
    ) == pytest.approx(g**2 * (1 - math.exp(-phi)) / phi)


def test_stationary_point_floor_missing_args_raise():
    with pytest.raises(ValueError):
        stationary_point_floor(None)
    with pytest.raises(ValueError):
        stationary_point_floor(SurrogateScheme.submodular())
    # a surrogate without the min-gain bonus has no floor from the curvature alone
    with pytest.raises(ValueError):
        stationary_point_floor(SurrogateScheme.weak_dr(0.5), curvature=0.5)


# ---------------------------------------------------------------------------
# audits and reference ascent
# ---------------------------------------------------------------------------


def test_approx_ratio_audit_on_coverage_trap():
    f = coverage_instance(3, 0.1, 1)
    trap = _indicator(f.partition, [0, 0, 0])
    floor = stationary_point_floor(None, curvature=1.0)
    rep = approx_ratio_audit(f, trap, floor)
    assert rep.opt_value == pytest.approx(4.0, abs=1e-12)
    assert rep.ratio == pytest.approx(2.2 / 4.0, abs=1e-12)
    assert rep.clears  # 0.55 >= 1/(1+c) = 0.5
    assert not approx_ratio_audit(f, trap, 0.56).clears
    assert approx_ratio_audit(f, trap, 0.56, slack=0.02).clears


def test_approx_ratio_audit_needs_positive_opt():
    p = Partition((2,))
    f = ModularFunction(p, np.zeros(2))
    with pytest.raises(DataError):
        approx_ratio_audit(f, PolicyProfile.uniform(p), 0.5)


def test_projected_ascent_on_modular_reaches_argmax():
    p = Partition((3,))
    f = ModularFunction(p, np.array([1.0, 3.0, 2.0]))
    prof = projected_ascent(f)
    np.testing.assert_allclose(_blocks(prof)[0], [0.0, 1.0, 0.0], atol=1e-8)


def test_projected_ascent_respects_start_and_iteration_cap():
    p = Partition((2,))
    f = ModularFunction(p, np.array([0.0, 1.0]))
    start = _indicator(p, [0])
    frozen = projected_ascent(f, start=start, max_iters=0)
    np.testing.assert_allclose(_blocks(frozen)[0], _blocks(start)[0], atol=0)


def test_projected_ascent_stays_at_trap_vertex():
    # the all-slot-0 vertex of the trap instance is a stationary point of the
    # plain extension: ascent launched exactly there must not move
    f = coverage_instance(3, 0.1, 1)
    trap = _indicator(f.partition, [0, 0, 0])
    assert check_stationarity(f, trap, tol=1e-9).stationary
    stuck = projected_ascent(f, start=trap, max_iters=200)
    for b, tb in zip(_blocks(stuck), _blocks(trap)):
        np.testing.assert_allclose(b, tb, atol=1e-9)


# ---------------------------------------------------------------------------
# outcome-value tensor
# ---------------------------------------------------------------------------


def test_outcome_values_match_direct_queries():
    rng = np.random.default_rng(4)
    f = synthetic_setfn("coverage-random", (2, 3), rng)
    table = f.outcome_values
    assert table.shape == (3, 4)
    assert not table.flags.writeable
    assert f.outcome_values is table  # computed once per objective
    for s, value in zip(feasible_sets(f.partition), table.ravel()):
        assert value == _value(f, s)


@pytest.mark.parametrize("kind", ["modular", "coverage", "facility", "tracking", "sqrt"])
def test_outcome_values_in_blocks_equal_one_shot_value(kind, monkeypatch):
    rng = np.random.default_rng(21)
    p = Partition((3, 2, 4))  # 60 joint outcomes
    if kind == "modular":
        f = ModularFunction(p, rng.random(p.total))
    elif kind == "sqrt":
        f = SqrtModularFunction(p, rng.random(p.total))
    elif kind == "coverage":
        f = WeightedCoverage(p, rng.random((p.total, 7)) < 0.4, rng.random(7))
    elif kind == "facility":
        f = FacilityObjective(p, rng.uniform(-5, 5, (p.total, 2)), rng.uniform(-5, 5, (3, 2)))
    else:
        f = TrackingGainObjective(p, rng.uniform(-5, 5, (p.total, 2)), rng.uniform(-5, 5, (3, 2)))
    one_shot = f.value(p.members(feasible_sets(p)))
    monkeypatch.setattr(ground, "OUTCOME_BLOCK", 7)  # nine blocks, the last one short
    np.testing.assert_array_equal(f.outcome_values.ravel(), one_shot)


class _CountingModular(ModularFunction):
    def __init__(self, partition):
        super().__init__(partition, np.ones(partition.total))
        self.queries = 0

    def value(self, members):
        self.queries += 1
        return super().value(members)


def test_outcome_values_scale_guard():
    f = _CountingModular(Partition((9,) * 7))  # 10^7 joint outcomes
    with pytest.raises(ScaleError):
        f.outcome_values
    with pytest.raises(ScaleError):
        exact_extension(f, PolicyProfile.uniform(f.partition))
    assert f.queries == 0


def test_slot_rows_index_outcome_values():
    rng = np.random.default_rng(9)
    f = synthetic_setfn("coverage-random", (2, 3), rng)
    choices = np.array([[1, 2], [-1, 0], [0, -1], [-1, -1]])
    got = f.outcome_values[tuple((choices + 1).T)]
    for row, value in zip(choices.tolist(), got):
        assert value == f.value(f.partition.members(np.array([row])))[0]


def test_outcome_values_at_indicator_draws_are_constant():
    p = Partition((2, 3))
    f = ModularFunction(p, np.array([1.0, 2.0, 4.0, 8.0, 16.0]))
    prof = _indicator(p, [1, 2])
    choices = sample_choices(prof, np.random.default_rng(5).random((64, 2)))
    assert np.all(f.outcome_values[tuple((choices + 1).T)] == 2.0 + 16.0)


def test_outcome_values_at_draws_reproduce_extension():
    p = Partition((2,))
    prof = PolicyProfile(p, np.array([0.3, 0.4]))  # leftover 0.3 idles
    f = ModularFunction(p, np.array([1.0, 2.0]))
    trials = 20_000
    choices = sample_choices(prof, np.random.default_rng(6).random((trials, 1)))
    draws = f.outcome_values[tuple((choices + 1).T)]
    for value, prob in ((0.0, 0.3), (1.0, 0.3), (2.0, 0.4)):
        hit = (draws == value).mean()
        assert abs(hit - prob) < 4 * math.sqrt(prob * (1 - prob) / trials)
    # a value-weighted average reproduces the exact multilinear extension
    assert draws.mean() == pytest.approx(exact_extension(f, prof), abs=0.02)
