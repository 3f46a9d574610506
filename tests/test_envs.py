"""Benchmark objectives and simulated worlds.

Objective formulas are pinned against hand values and dense linear-algebra
oracles; target motion is checked kind by kind against its advertised
behavior.
"""

import itertools
import math
from decimal import Context, Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from macoord.envs import (
    ADVERSARIAL_TRIGGER_RADIUS,
    DEFAULT_HEADINGS,
    DISTANCE_FLOOR,
    DT,
    EKF_NOISE_VAR,
    EKF_PROCESS_SCALE,
    EKF_SPEEDS,
    EVADE_CANDIDATE_HEADINGS,
    EVADE_SPEED,
    FACILITY_SPEEDS,
    FacilityObjective,
    ModularFunction,
    MovingTargetEnvironment,
    OrbitingTargetsEnvironment,
    SqrtModularFunction,
    StaticEnvironment,
    Target,
    TrackingGainObjective,
    WeightedCoverage,
    coverage_instance,
    make_environment,
    motion_moves,
    step_targets,
    synthetic_setfn,
)
from macoord import envs
from macoord.errors import ConfigError, ScaleError
from macoord.ground import (
    Partition,
    local_marginal_block,
    local_marginal_rows,
)
from macoord.harness import resolve_preset
from macoord.oracle import brute_force_opt, estimate_ratios
import reference


def _value(f, *actions):
    """f at one set of (agent, slot) pairs through one membership row; a
    ``None`` slot (an idle agent) is skipped."""
    row = np.zeros((1, f.partition.total), dtype=bool)
    for agent, slot in actions:
        if slot is not None:
            row[0, f.partition.offsets[agent] + slot] = True
    return float(f.value(row)[0])


def _full_value(f):
    return float(f.value(np.ones((1, f.partition.total), dtype=bool))[0])


def _tracking_info(sites, targets, noise_var=EKF_NOISE_VAR):
    """``(sites, targets, 2, 2)`` bearing information of every site about
    every target, from the model in TrackingGainObjective's docstring:
    z_perp z_perp^T / (sigma^2 r^4) with z from target to site, z_perp =
    (-z_y, z_x) and r = max(||z||, DISTANCE_FLOOR)."""
    z = sites[:, None, :] - targets[None, :, :]
    r = np.maximum(np.sqrt((z * z).sum(axis=2)), DISTANCE_FLOOR)
    z_perp = np.stack([-z[..., 1], z[..., 0]], axis=-1)
    return z_perp[..., :, None] * z_perp[..., None, :] / (noise_var * r[..., None, None] ** 4)


# ---------------------------------------------------------------------------
# static objectives
# ---------------------------------------------------------------------------


def test_modular_function():
    p = Partition((2, 2))
    f = ModularFunction(p, np.array([1.0, 2.0, 3.0, 4.0]))
    assert _value(f, (0, 1), (1, 0)) == 5.0
    assert _value(f) == 0.0
    assert f.agent_marginals(1, np.array([[0, -1]]))[0, 1] == 4.0
    with pytest.raises(ValueError):
        ModularFunction(p, np.array([1.0, -2.0, 3.0, 4.0]))
    with pytest.raises(ValueError):
        ModularFunction(p, np.ones(3))


def test_sqrt_modular_function():
    p = Partition((2, 1))
    f = SqrtModularFunction(p, np.array([9.0, 16.0, 0.0]))
    assert _value(f, (0, 0), (0, 1)) == 5.0
    assert _value(f, (1, 0)) == 0.0


def test_weighted_coverage_value_and_marginals():
    p = Partition((2, 1))
    masks = np.array([[True, False, False], [True, True, False], [False, False, True]])
    w = np.array([1.0, 2.0, 4.0])
    f = WeightedCoverage(p, masks, w)
    assert _value(f, (0, 0)) == 1.0
    assert _value(f, (0, 1), (1, 0)) == 7.0
    # vectorized marginals agree with the two-query definition; the agent's
    # own column of the slot row is ignored
    block = f.agent_marginals(0, np.array([[1, 0]]))[0]
    for m in range(2):
        expect = _value(f, (1, 0), (0, m)) - _value(f, (1, 0))
        assert block[m] == pytest.approx(expect, abs=1e-15)


def test_coverage_instance_values():
    n, eps, k = 3, 0.1, 1
    f = coverage_instance(n, eps, k)
    assert f.partition.sizes == (2,) * n
    zero_value, one_value = f.value(f.partition.members(np.array([[0] * n, [1] * n])))
    assert zero_value == pytest.approx((1 + eps) * (n - 1), abs=1e-12)
    assert one_value == pytest.approx(2 * n - k - 1, abs=1e-12)
    opt_set, opt = brute_force_opt(f)
    assert opt == pytest.approx(2 * n - k - 1, abs=1e-12)
    assert opt_set.tolist() == [1] * n


def test_coverage_instance_min_gains_are_exact():
    # the weight only v covers: 0.1 for a slot-0 private element, 2.0 for the
    # last agent's two y elements; a value difference is off in the last bits
    f = coverage_instance(3, 0.1, 1)
    assert f.min_gains.tolist() == [0.1, 0.0, 0.1, 0.0, 0.0, 2.0]


def test_sqrt_modular_gains_survive_a_large_context():
    # sqrt(1e16 + 1) - sqrt(1e16) is about 5e-9, which a value difference
    # loses entirely: both values round to 1e8
    f = SqrtModularFunction(Partition((1, 1)), np.array([1e16, 1.0]))
    exact = Decimal(10**16 + 1).sqrt(Context(prec=50)) - Decimal(10**8)
    gain = f.agent_marginals(1, np.array([[0, -1]]))[0, 0]
    assert gain == pytest.approx(float(exact), rel=1e-12)
    assert f.min_gains[1] == pytest.approx(float(exact), rel=1e-12)
    assert reference.agent_marginals(f, 1, np.array([[0, -1]]))[0, 0] == 0.0


def test_coverage_instance_parameter_guards():
    with pytest.raises(ConfigError):
        coverage_instance(1, 0.1, 1)
    with pytest.raises(ConfigError):
        coverage_instance(3, 0.1, 3)  # k must leave slot-1 of the last agent something
    with pytest.raises(ConfigError):
        coverage_instance(3, 0.0, 1)
    f = coverage_instance(4, 0.25, 2)
    assert brute_force_opt(f)[1] == pytest.approx(2 * 4 - 2 - 1, abs=1e-12)


def test_synthetic_setfn_kinds_and_guards():
    rng = np.random.default_rng(1)
    for kind in ("modular", "coverage-random", "concave-of-modular"):
        f = synthetic_setfn(kind, (2, 2), rng)
        assert _value(f) == 0.0
        assert _full_value(f) > 0.0
    with pytest.raises(ScaleError):
        synthetic_setfn("modular", (7, 7), rng)
    with pytest.raises(ConfigError):
        synthetic_setfn("perlin", (2, 2), rng)


# ---------------------------------------------------------------------------
# motion model
# ---------------------------------------------------------------------------


def _world(agents, horizon, speeds=(5.0,)):
    """A one-target facility world of four headings, its agents placed at ``agents``."""
    spec = {"kind": "facility", "agents": len(agents), "targets": 1, "headings": 4,
            "speeds": list(speeds)}
    env = make_environment(spec, 0, horizon)
    env.agents[:] = agents
    return env


def test_motion_grid_layout():
    moves = motion_moves(4, (5.0, 10.0))
    assert len(moves) == 8
    for h in range(4):
        theta = 2.0 * math.pi * (h + 1) / 4
        for s, speed in enumerate((5.0, 10.0)):
            expect = speed * DT * np.array([math.cos(theta), math.sin(theta)])
            np.testing.assert_allclose(moves[h * 2 + s], expect, atol=1e-12)
    # the world refuses an empty table before it builds one, naming the field
    for field, value in (("headings", 0), ("speeds", [])):
        spec = {"kind": "facility", "agents": 1, "targets": 1, field: value}
        with pytest.raises(ConfigError, match=rf"facility \S*{field}\S* must be at least 1"):
            make_environment(spec, 0, 3)


def test_motion_grid_table_is_read_only():
    # the table is built once and shared by every round's moves
    world = _world(np.zeros((2, 2)), 3, speeds=(5.0, 10.0))
    moves = world.moves
    before = moves.copy()
    with pytest.raises(ValueError):
        moves[0, 0] = 1.0
    world.finish_round(np.array([1, 0]))
    world.landing_points()[:] = 0.0
    assert world.moves is moves
    np.testing.assert_array_equal(world.moves, before)


def test_tracking_world_moves():
    world = _world(np.zeros((2, 2)), 10)
    assert world.partition.sizes == (4, 4)
    cand = world.landing_points()
    assert cand.shape == (8, 2)
    np.testing.assert_allclose(cand[:4], world.moves, atol=1e-12)
    world.finish_round(np.array([0, -1]))
    np.testing.assert_allclose(world.agents[0], world.moves[0], atol=1e-12)
    np.testing.assert_allclose(world.agents[1], [0.0, 0.0], atol=0)


def test_random_target_step_length():
    rng = np.random.default_rng(3)
    targets = [Target("random", np.zeros(2))]
    prev = targets[0].pos.copy()
    for tick in range(200):
        step_targets(targets, np.zeros((1, 2)), tick, 100, rng)
        step = np.linalg.norm(targets[0].pos - prev)
        assert 5.0 * DT - 1e-12 <= step <= 10.0 * DT + 1e-12
        prev = targets[0].pos.copy()


def test_polyline_single_segment_keeps_heading():
    rng = np.random.default_rng(4)
    t = Target("polyline", np.zeros(2), segment_count=1)
    step_targets([t], np.zeros((1, 2)), 0, 50, rng)
    v0 = t.velocity.copy()
    for tick in range(1, 49):
        step_targets([t], np.zeros((1, 2)), tick, 50, rng)
        np.testing.assert_allclose(t.velocity, v0, atol=0)


def test_polyline_two_segments_turns_once():
    rng = np.random.default_rng(5)
    t = Target("polyline", np.zeros(2), segment_count=2)
    velocities = []
    for tick in range(40):
        step_targets([t], np.zeros((1, 2)), tick, 40, rng)
        velocities.append(t.velocity.copy())
    distinct = {tuple(v) for v in velocities}
    assert len(distinct) == 2
    # the turn happens exactly at the segment boundary
    assert all(tuple(v) == tuple(velocities[0]) for v in velocities[:20])
    assert all(tuple(v) == tuple(velocities[20]) for v in velocities[20:])


def test_adversarial_target_evades_nearby_agents():
    rng = np.random.default_rng(6)
    agents = np.array([[1.0, 0.0]])  # well within the trigger radius
    t = Target("adversarial", np.zeros(2))
    step_targets([t], agents, 0, 200, rng)
    step1 = t.pos.copy()
    # flees at exactly the evade speed
    assert np.linalg.norm(step1) == pytest.approx(EVADE_SPEED * DT, abs=1e-12)
    # the chosen heading maximizes the mean distance one second ahead
    best = max(
        range(EVADE_CANDIDATE_HEADINGS),
        key=lambda h: np.linalg.norm(
            agents
            - (
                np.zeros(2)
                + EVADE_SPEED
                * np.array(
                    [
                        math.cos(2 * math.pi * h / EVADE_CANDIDATE_HEADINGS),
                        math.sin(2 * math.pi * h / EVADE_CANDIDATE_HEADINGS),
                    ]
                )
            ),
            axis=1,
        ).mean(),
    )
    theta = 2 * math.pi * best / EVADE_CANDIDATE_HEADINGS
    np.testing.assert_allclose(
        step1 / np.linalg.norm(step1), [math.cos(theta), math.sin(theta)], atol=1e-9
    )
    # the evade heading is held for one second of ticks
    hold = max(1, round(1.0 / DT)) - 1
    for tick in range(1, hold + 1):
        before = t.pos.copy()
        step_targets([t], agents, tick, 200, rng)
        np.testing.assert_allclose(t.pos - before, step1, atol=1e-12)
    assert t.evade_ticks == 0


def test_adversarial_target_wanders_when_agents_far():
    rng = np.random.default_rng(7)
    agents = np.array([[ADVERSARIAL_TRIGGER_RADIUS + 30.0, 0.0]])
    t = Target("adversarial", np.zeros(2))
    for tick in range(20):
        prev = t.pos.copy()
        step_targets([t], agents, tick, 100, rng)
        step = np.linalg.norm(t.pos - prev)
        assert 5.0 * DT - 1e-12 <= step <= 10.0 * DT + 1e-12


def test_brownian_target_statistics():
    rng = np.random.default_rng(8)
    t = Target("brownian", np.zeros(2))
    steps = []
    for tick in range(4000):
        prev = t.pos.copy()
        step_targets([t], np.zeros((1, 2)), tick, 10, rng)
        steps.append(t.pos - prev)
    steps = np.array(steps)
    assert abs(steps.mean()) < 4.0 * EKF_PROCESS_SCALE / math.sqrt(steps.size)
    assert steps.std() == pytest.approx(EKF_PROCESS_SCALE, rel=0.05)


def test_unknown_target_kind_raises():
    with pytest.raises(ConfigError):
        step_targets([Target("ghost", np.zeros(2))], np.zeros((1, 2)), 0, 10,
                     np.random.default_rng(0))


# ---------------------------------------------------------------------------
# facility objective
# ---------------------------------------------------------------------------


def test_facility_inverse_distance_examples():
    p = Partition((2,))
    cands = np.array([[2.0, 0.0], [0.0, 4.0]])
    targets = np.array([[0.0, 0.0]])
    f = FacilityObjective(p, cands, targets)
    # one action at distance 2 pays 1/2
    assert _value(f, (0, 0)) == pytest.approx(0.5, abs=1e-15)
    # the max picks the nearer of distances 2 and 4
    assert _value(f, (0, 0), (0, 1)) == pytest.approx(0.5, abs=1e-15)
    assert _value(f) == 0.0


def test_facility_distance_floor():
    p = Partition((1,))
    f = FacilityObjective(p, np.zeros((1, 2)), np.zeros((1, 2)))
    assert _value(f, (0, 0)) == pytest.approx(1.0 / DISTANCE_FLOOR, abs=1e-9)


def test_facility_two_targets_sum():
    p = Partition((2,))
    cands = np.array([[1.0, 0.0], [4.0, 0.0]])
    targets = np.array([[0.0, 0.0], [5.0, 0.0]])
    f = FacilityObjective(p, cands, targets)
    # target 0 served at distance 1, target 1 at distance 1 via the other site
    assert _full_value(f) == pytest.approx(2.0, abs=1e-12)


def test_facility_marginals_match_value_differences():
    rng = np.random.default_rng(12)
    p = Partition((3, 3))
    f = FacilityObjective(p, rng.normal(0, 5, (6, 2)), rng.normal(0, 5, (4, 2)))
    block = f.agent_marginals(0, np.array([[-1, 2]]))[0]
    for m in range(3):
        expect = _value(f, (1, 2), (0, m)) - _value(f, (1, 2))
        assert block[m] == pytest.approx(expect, abs=1e-12)


def test_facility_is_monotone_submodular():
    rng = np.random.default_rng(13)
    p = Partition((2, 2, 2))
    f = FacilityObjective(p, rng.normal(0, 5, (6, 2)), rng.normal(0, 5, (2, 2)))
    # f at every subset of V, indexed by its bitmask over the flat order
    values = f.value((np.arange(64)[:, None] >> np.arange(6) & 1).astype(bool))
    # enumerate all (S subset T, v not in T): diminishing returns must hold
    for t_mask in range(64):
        for v in range(6):
            if t_mask >> v & 1:
                continue
            gain_t = values[t_mask | 1 << v] - values[t_mask]
            assert gain_t >= -1e-12  # monotone
            s_mask = (t_mask - 1) & t_mask if t_mask else 0
            while True:
                assert values[s_mask | 1 << v] - values[s_mask] >= gain_t - 1e-12
                if s_mask == 0:
                    break
                s_mask = (s_mask - 1) & t_mask


def _assert_min_gains_match_reference(f):
    """Closed form against the value-difference reference (``tests/reference.py``).

    Each reference entry is a difference of two values of size f(V), so the
    tolerance is relative to f(V) as well as to the entry.
    """
    scale = _full_value(f)
    np.testing.assert_allclose(f.min_gains, reference.min_gains(f), rtol=1e-12,
                               atol=1e-12 * scale)


@pytest.mark.parametrize(
    "preset, seeds",
    [("facility-desk", range(4)), ("facility-full", range(2))],
    ids=["facility-desk", "facility-full"],
)
def test_facility_min_gains_match_generic_path(preset, seeds):
    spec = resolve_preset(preset)["environment"]
    for seed in seeds:
        env = make_environment(spec, seed, 10)
        rng = np.random.default_rng(seed)
        for t in range(1, 4):
            f = env.begin_round()
            _assert_min_gains_match_reference(f)
            moves = np.array([int(rng.integers(k)) for k in f.partition.sizes])
            env.finish_round(moves)


def test_orbiting_min_gains_match_generic_path():
    for config in ({}, {"agents": 4, "slots": 3, "targets": 5}):
        env = make_environment(dict(config, kind="orbiting-targets"), 3, 40)
        for t in range(1, 41):
            _assert_min_gains_match_reference(env.begin_round())
            env.finish_round(np.full(env.partition.n_agents, -1))


def test_facility_min_gains_ties_and_single_action():
    # two actions on one spot tie for every target: neither gains anything
    p = Partition((2, 1))
    sites = np.array([[1.0, 0.0], [1.0, 0.0], [-3.0, 0.0]])
    f = FacilityObjective(p, sites, np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert f.min_gains.tolist() == [0.0, 0.0, 0.0]
    # a lone action is compared with the empty max, zero
    g = FacilityObjective(Partition((1,)), np.zeros((1, 2)), np.array([[3.0, 4.0]]))
    assert g.min_gains.tolist() == [0.2]
    # computed once, read-only
    assert g.min_gains is g.min_gains
    with pytest.raises(ValueError):
        g.min_gains[0] = 1.0


# near-duplicate coordinates give exact ties and distances under the floor
_COORD = st.one_of(
    st.sampled_from([0.0, DISTANCE_FLOOR / 2, 1.0, -2.5]),
    st.floats(-6.0, 6.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def _facility_instances(draw):
    def points(n):
        return np.array(draw(st.lists(st.tuples(_COORD, _COORD), min_size=n, max_size=n)))

    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    return tuple(sizes), points(sum(sizes)), points(draw(st.integers(1, 4)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_facility_instances())
@example(((1,), np.zeros((1, 2)), np.array([[0.0, DISTANCE_FLOOR / 2], [1.0, 1.0]])))
@example(((2, 1), np.zeros((3, 2)), np.array([[1.0, 0.0]])))
def test_facility_min_gains_property(instance):
    sizes, sites, targets = instance
    f = FacilityObjective(Partition(sizes), sites, targets)
    _assert_min_gains_match_reference(f)
    assert f.min_gains.min() >= 0.0


# ---------------------------------------------------------------------------
# batched marginals against the value-difference reference
# ---------------------------------------------------------------------------


def _marginal_objective(kind, sizes, rng):
    """An objective of the kind, and for the tracking gain its sites'
    information (:func:`_tracking_info`), else None."""
    partition = Partition(sizes)
    if kind == "coverage":
        n = len(sizes) + 1
        return coverage_instance(n, float(rng.uniform(0.01, 1.0)), int(rng.integers(1, n))), None
    if kind == "facility":
        sites, targets = rng.normal(0, 5, (partition.total, 2)), rng.normal(0, 5, (3, 2))
        return FacilityObjective(partition, sites, targets), None
    if kind == "tracking":
        sites, targets = rng.normal(0, 5, (partition.total, 2)), rng.normal(0, 5, (3, 2))
        return TrackingGainObjective(partition, sites, targets), _tracking_info(sites, targets)
    return synthetic_setfn(kind, sizes, rng), None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(
        ["modular", "coverage-random", "concave-of-modular", "coverage", "facility", "tracking"]
    ),
    sizes=st.lists(st.integers(1, 3), min_size=1, max_size=4).map(tuple),
    rows=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="tracking", sizes=(2, 2), rows=1, seed=0)
@example(kind="facility", sizes=(3,), rows=1, seed=1)
def test_batched_marginals_match_reference(kind, sizes, rows, seed):
    """Every objective's closed-form agent_marginals and min gains against
    the value-difference references (``tests/reference.py``).  The first of
    several rows is all idle, and the agent's own column is always set (and
    ignored).  A gain is a difference of two values of size f(V), so the
    tolerance is relative to f(V) as well as to the entry."""
    rng = np.random.default_rng(seed)
    f, _ = _marginal_objective(kind, sizes, rng)
    p = f.partition
    agent = int(rng.integers(p.n_agents))
    choices = rng.integers(-1, p.sizes, size=(rows, p.n_agents))
    if rows > 1:
        choices[0] = -1
    choices[:, agent] = rng.integers(p.sizes[agent], size=rows)
    got = f.agent_marginals(agent, choices)
    assert got.shape == (rows, p.sizes[agent])
    scale = _full_value(f)
    expected = reference.agent_marginals(f, agent, choices)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * scale)
    _assert_min_gains_match_reference(f)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(
        ["modular", "coverage-random", "concave-of-modular", "coverage", "facility", "tracking"]
    ),
    sizes=st.lists(st.integers(1, 3), min_size=1, max_size=4).map(tuple),
    rows=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="facility", sizes=(3, 1, 2), rows=9, seed=2)
@example(kind="tracking", sizes=(3, 1, 2), rows=9, seed=2)
@example(kind="tracking", sizes=(2, 3), rows=0, seed=3)
def test_marginal_rows_match_per_agent_calls(kind, sizes, rows, seed):
    """One local_marginal_rows call against n local_marginal_block calls,
    one per block of the slot tensor: the same gains in flat policy order
    (the facility and tracking passes to the bit, as a C-contiguous array)
    and the same queries added into each count row."""
    if len(sizes) > 1 and len(set(sizes)) == 1:  # unequal blocks
        sizes = sizes[:-1] + (1 if sizes[0] > 1 else 2,)
    rng = np.random.default_rng(seed)
    f, _ = _marginal_objective(kind, sizes, rng)
    p = f.partition
    slots = rng.integers(-1, p.sizes, size=(p.n_agents, rows, p.n_agents))
    one, each = np.zeros((2, p.n_agents), dtype=np.int64)
    got = local_marginal_rows(f, slots, one)
    blocks = [local_marginal_block(f, i, slots[i], each) for i in range(p.n_agents)]
    expect = np.concatenate(blocks, axis=1)
    assert got.shape == (rows, p.total)
    np.testing.assert_array_equal(one, each)
    np.testing.assert_array_equal(one, rows * np.array(p.sizes))
    if kind in ("facility", "tracking"):
        assert got.flags.c_contiguous
        assert got.tobytes() == expect.tobytes()
    else:
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12 * _full_value(f))


@pytest.mark.parametrize("block", [1, 50])
def test_tracking_gains_do_not_depend_on_the_blocks(monkeypatch, block):
    """The tracking oracle runs in blocks of rows and agents of about
    GAIN_BLOCK floats.  Down to blocks of two rows of one agent, on unequal
    agents one of which has a single action, both oracle calls give the
    bits they give in one block."""
    rng = np.random.default_rng(21)
    f, _ = _marginal_objective("tracking", (3, 1, 2), rng)
    slots = rng.integers(-1, f.partition.sizes, size=(3, 7, 3))
    expect = np.concatenate([f.agent_marginals(i, s) for i, s in enumerate(slots)], axis=1)
    monkeypatch.setattr(envs, "GAIN_BLOCK", block)
    each = np.concatenate([f.agent_marginals(i, s) for i, s in enumerate(slots)], axis=1)
    assert f.marginal_rows(slots).tobytes() == each.tobytes() == expect.tobytes()


@pytest.mark.parametrize("rows", [150, 15])
def test_tracking_full_marginal_rows_at_paper_scale(rows):
    """tracking-full seed 0's first-round objective (20 agents of 24 moves,
    30 targets) against a fixed-seed slot tensor of ma-mpl's shape at L=10
    and at L=1: the one pass equals the per-agent calls to the bit, and a few
    rows match the value-difference reference at the property's tolerance."""
    spec = resolve_preset("tracking-full")["environment"]
    f = make_environment(spec, 0, 1250).begin_round()
    p = f.partition
    rng = np.random.default_rng(rows)
    slots = rng.integers(-1, p.sizes, size=(p.n_agents, rows, p.n_agents))
    got = f.marginal_rows(slots)
    expect = np.concatenate([f.agent_marginals(i, s) for i, s in enumerate(slots)], axis=1)
    assert got.tobytes() == expect.tobytes()
    scale = _full_value(f)
    for agent in (0, 7, 19):
        lo, hi = p.offsets[agent], p.offsets[agent + 1]
        np.testing.assert_allclose(got[:3, lo:hi], reference.agent_marginals(f, agent, slots[agent, :3]),
                                   rtol=1e-12, atol=1e-12 * scale)


# ---------------------------------------------------------------------------
# batched value against the per-set formulas
# ---------------------------------------------------------------------------


def _reference_value(f, actions, info=None):
    """f at one set, given as flat action indices, by its class's formula
    applied to that set alone (for the tracking gain, a loop over the set's
    ``info`` terms)."""
    if isinstance(f, ModularFunction):
        return float(f.weights[actions].sum())
    if isinstance(f, SqrtModularFunction):
        return math.sqrt(f.weights[actions].sum())
    if isinstance(f, WeightedCoverage):
        return float(f.element_weights[f.masks[actions].any(axis=0)].sum())
    if isinstance(f, FacilityObjective):
        return float(f.reward[actions].max(axis=0, initial=0.0).sum())
    n_targets = info.shape[1]
    total = np.broadcast_to(f.prior_info, (n_targets, 2, 2)).copy()
    for a in actions:
        total += info[a]
    return n_targets - np.trace(np.linalg.inv(total), axis1=1, axis2=2).sum() / f.prior_trace


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(
        ["modular", "concave-of-modular", "coverage-random", "coverage", "facility", "tracking"]
    ),
    sizes=st.lists(st.integers(1, 3), min_size=1, max_size=4).map(tuple),
    rows=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="tracking", sizes=(3, 1), rows=0, seed=0)
@example(kind="facility", sizes=(1,), rows=2, seed=1)
def test_batched_value_matches_per_set_formulas(kind, sizes, rows, seed):
    """One value call over many membership rows against the per-set formula
    row by row: the empty set, V, every action of the largest agent (several
    actions of one agent once it has two), and random subsets.  The tracking
    gain is n_targets minus a posterior share of similar size, so its error
    scale is n_targets; every other value is at most f(V)."""
    rng = np.random.default_rng(seed)
    f, info = _marginal_objective(kind, sizes, rng)
    p = f.partition
    crowded = np.zeros(p.total, dtype=bool)
    big = int(np.argmax(p.sizes))
    crowded[p.offsets[big] : p.offsets[big + 1]] = True
    members = np.vstack(
        [
            np.zeros(p.total, dtype=bool),
            np.ones(p.total, dtype=bool),
            crowded,
            rng.random((rows, p.total)) < rng.uniform(0.1, 0.9),
        ]
    )
    got = f.value(members)
    assert got.dtype == np.float64 and got.shape == (len(members),)
    reference = [_reference_value(f, np.flatnonzero(row), info) for row in members]
    scale = info.shape[1] if kind == "tracking" else reference[1]
    np.testing.assert_allclose(got, reference, rtol=1e-12, atol=1e-12 * scale)
    # the outcome tensor, built in one value call, against a per-outcome loop
    per_outcome = [
        _reference_value(
            f, np.array([p.offsets[j] + s for j, s in enumerate(row) if s >= 0], int), info
        )
        for row in itertools.product(*(range(-1, k) for k in p.sizes))
    ]
    np.testing.assert_allclose(
        f.outcome_values.ravel(), per_outcome, rtol=1e-12, atol=1e-12 * scale
    )


# ---------------------------------------------------------------------------
# tracking-gain objective
# ---------------------------------------------------------------------------


def _gain_oracle(zs):
    """Dense linear-algebra reference for the information-gain reward.

    Each offset z (target to sensor) yields one bearing theta = atan2(z_y, z_x)
    of the sensor seen from the target.  Moving the target by d moves z by -d,
    so the Jacobian of theta with respect to the target position is
    H = (z_y, -z_x) / |z|^2.  The gain is the share of the prior variance
    trace that the measurements remove.
    """
    prior_cov = EKF_PROCESS_SCALE**2 * np.eye(2)
    total = np.linalg.inv(prior_cov)
    for z in zs:
        z = np.asarray(z, dtype=float)
        r2 = max(math.hypot(z[0], z[1]), DISTANCE_FLOOR) ** 2
        h = np.array([[z[1] / r2, -z[0] / r2]])
        total = total + h.T @ h / EKF_NOISE_VAR
    return 1.0 - np.trace(np.linalg.inv(total)) / np.trace(prior_cov)


def test_tracking_gain_empty_is_zero():
    p = Partition((2,))
    f = TrackingGainObjective(p, np.ones((2, 2)), np.zeros((3, 2)))
    assert _value(f) == 0.0


def test_tracking_gain_single_measurement_matches_dense_oracle():
    # one target at the origin, one candidate landing at (1, 0): z = (1, 0)
    p = Partition((1,))
    f = TrackingGainObjective(p, np.array([[1.0, 0.0]]), np.zeros((1, 2)))
    assert _value(f, (0, 0)) == pytest.approx(
        _gain_oracle([np.array([1.0, 0.0])]), abs=1e-10
    )


def test_tracking_gain_value_matches_dense_oracle_on_sets():
    rng = np.random.default_rng(14)
    p = Partition((2, 2))
    cands = rng.normal(0, 5, (4, 2))
    targets = rng.normal(0, 5, (2, 2))
    f = TrackingGainObjective(p, cands, targets)
    for choice in ((0, 0), (1, None), (0, 1)):
        sites = [cands[p.offsets[i] + m] for i, m in enumerate(choice) if m is not None]
        expect = sum(_gain_oracle([site - targets[j] for site in sites]) for j in range(2))
        assert _value(f, *enumerate(choice)) == pytest.approx(expect, abs=1e-10)


def test_tracking_gain_monotone_on_random_pairs():
    rng = np.random.default_rng(15)
    p = Partition((3, 3))
    f = TrackingGainObjective(p, rng.normal(0, 10, (6, 2)), rng.normal(0, 10, (2, 2)))
    contexts = np.empty((10_000, 6), dtype=bool)
    added = contexts.copy()
    for r in range(10_000):
        contexts[r] = rng.integers(0, 2, 6).astype(bool)
        added[r] = contexts[r]
        added[r, int(rng.integers(6))] = True  # the gain is zero if already in
    assert (f.value(added) - f.value(contexts)).min() >= -1e-12


def test_tracking_gain_marginals_match_value_differences():
    rng = np.random.default_rng(16)
    p = Partition((2, 2))
    f = TrackingGainObjective(p, rng.normal(0, 5, (4, 2)), rng.normal(0, 5, (3, 2)))
    block = f.agent_marginals(0, np.array([[-1, 0]]))[0]
    for m in range(2):
        expect = _value(f, (1, 0), (0, m)) - _value(f, (1, 0))
        assert block[m] == pytest.approx(expect, rel=1e-10, abs=1e-14)
    # an action already in the context gains nothing; in a slot row the
    # agent's own column is ignored, so it cannot be in the context
    assert _value(f, (1, 0), (1, 0)) - _value(f, (1, 0)) == 0.0
    own_set = f.agent_marginals(1, np.array([[-1, 0], [-1, 1]]))
    assert own_set.tolist() == f.agent_marginals(1, np.array([[-1, -1]] * 2)).tolist()


@st.composite
def _tracking_cases(draw):
    """A tracking instance (sizes, sites, targets), an agent and a slot
    matrix whose rows include every degenerate shape: sites on or under the
    floor from a target, sites on one line through a target (collinear
    bearings), all-idle rows and a one-agent partition.  The agent's own
    column is always set."""
    def points(n):
        return np.array(draw(st.lists(st.tuples(_COORD, _COORD), min_size=n, max_size=n)))

    sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    targets = points(draw(st.integers(1, 3)))
    sites = points(sum(sizes))
    if draw(st.booleans()):  # collinear: every site on the vertical through target 0
        sites[:, 0] = targets[0, 0]
    agent = draw(st.integers(0, len(sizes) - 1))
    row = st.tuples(*(st.integers(-1, k - 1) for k in sizes))
    choices = np.array(draw(st.lists(row, min_size=1, max_size=5)))
    if draw(st.booleans()):
        choices[0] = -1
    choices[:, agent] = draw(st.integers(0, sizes[agent] - 1))
    return sizes, sites, targets, agent, choices


class _ExactTrackingValue:
    """The tracking gain's value in exact rational arithmetic on the float64
    information terms of :func:`_tracking_info`.  Through it, the references
    of ``tests/reference.py`` are exact: in float64 a difference of two values of
    size f(V) loses up to about 2e-12 f(V) when sites sit under the distance
    floor, far more than the closed form's own error."""

    def __init__(self, f, info):
        self.partition = f.partition
        self.prior = Fraction(f.prior_info[0, 0])
        self.prior_trace = Fraction(f.prior_trace)
        self.terms = [[(Fraction(m[0, 0]), Fraction(m[0, 1]), Fraction(m[1, 1])) for m in action]
                      for action in info]

    def value(self, members):
        out = []
        for row in members:
            acts = np.flatnonzero(row)
            total = Fraction(0)
            for t in range(len(self.terms[0])):
                a, b, d = self.prior, Fraction(0), self.prior
                for v in acts:
                    xx, xy, yy = self.terms[v][t]
                    a, b, d = a + xx, b + xy, d + yy
                total += 1 - (a + d) / (a * d - b * b) / self.prior_trace
            out.append(total)
        return np.array(out, dtype=object)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_tracking_cases())
@example(  # a site exactly on the target, one under the floor, an all-idle row
    (
        (2, 1),
        np.array([[0.0, 0.0], [DISTANCE_FLOOR / 2, 0.0], [1.0, -2.5]]),
        np.zeros((1, 2)),
        0,
        np.array([[1, -1], [0, 0], [1, 0]]),
    )
)
@example(  # a one-agent partition: every context is empty
    ((3,), np.eye(3, 2), np.ones((2, 2)), 0, np.array([[2]]))
)
@example(  # one action whose term, about 1e-100, vanishes next to the prior
    ((1,), np.array([[0.0, 1e-57]]), np.zeros((1, 2)), 0, np.array([[0]]))
)
@example(  # collinear bearings at close range on both sides of the target
    (
        (1, 1, 2),
        np.array([[0.0, 0.01], [0.0, -0.02], [0.0, 0.03], [0.01, 0.0]]),
        np.zeros((1, 2)),
        2,
        np.array([[0, 0, 1], [-1, 0, 0], [-1, -1, 1]]),
    )
)
@example(  # three sites on one spot under the floor: each min gain's u lies
    # along the others' large axis, where the expanded numerator lost 2e-7
    (
        (1, 1, 1, 1),
        np.array([[0.0, 4.25], [5e-4, 5e-4], [5e-4, 5e-4], [5e-4, 5e-4]]),
        np.zeros((1, 2)),
        0,
        np.array([[0, 0, 0, 0]]),
    )
)
def test_tracking_gain_marginals_property(case):
    """The Sherman-Morrison marginals are nonnegative, and they and the
    closed-form min gains match the value-difference references (two value
    queries per slot per row, and per action), taken exactly."""
    sizes, sites, targets, agent, choices = case
    f = TrackingGainObjective(Partition(sizes), sites, targets)
    got = f.agent_marginals(agent, choices)
    exact = _ExactTrackingValue(f, _tracking_info(sites, targets))
    expected = reference.agent_marginals(exact, agent, choices)
    assert got.shape == (len(choices), f.partition.sizes[agent])
    assert got.min() >= 0.0
    scale = _full_value(f)
    np.testing.assert_allclose(got, expected.astype(float), rtol=1e-12, atol=1e-12 * scale)
    expected = reference.min_gains(exact)
    np.testing.assert_allclose(f.min_gains, expected.astype(float), rtol=1e-12, atol=1e-12 * scale)


def test_tracking_gain_single_bearing_falls_off_with_range():
    # the same bearing taken farther away pins the target less
    p = Partition((3,))
    direction = np.array([0.6, -0.8])
    cands = np.array([1.0, 5.0, 20.0])[:, None] * direction
    f = TrackingGainObjective(p, cands, np.zeros((1, 2)))
    gains = [_value(f, (0, m)) for m in range(3)]
    assert gains[0] > gains[1] > gains[2] > 0.0


def test_tracking_gain_is_weakly_dr_but_not_submodular():
    # close-range bearings nearly along one line through the target: after a
    # parallel bearing a third adds almost nothing, but once a slightly turned
    # bearing has coupled the two axes it is worth more again, so the gain is
    # not submodular, but it stays within a positive weak-DR ratio
    p = Partition((2, 1))
    cands = np.array([[0.0, -0.08], [-0.01, -0.03], [0.0, 0.05]])
    targets = np.array([[0.0, 0.0]])
    f = TrackingGainObjective(p, cands, targets)
    ratios = estimate_ratios(f)
    assert 0.0 < ratios.dr_ratio <= 1.0
    assert ratios.dr_ratio < 0.5


# ---------------------------------------------------------------------------
# environments
# ---------------------------------------------------------------------------


def test_facility_environment_defaults():
    env = make_environment({"kind": "facility", "agents": 6, "targets": 8}, 0, 300)
    assert isinstance(env, MovingTargetEnvironment)
    assert env.objective is FacilityObjective
    assert env.partition.sizes == (DEFAULT_HEADINGS * len(FACILITY_SPEEDS),) * 6
    kinds = [t.kind for t in env.targets]
    assert kinds.count("random") == 3
    assert kinds.count("polyline") == 3
    assert kinds.count("adversarial") == 2
    # every position spawns inside the 20-unit disk
    assert np.linalg.norm(env.agents, axis=1).max() <= 20.0
    assert np.linalg.norm([t.pos for t in env.targets], axis=1).max() <= 20.0


def test_tracking_environment_defaults():
    env = make_environment({"kind": "tracking-gain", "agents": 4, "targets": 5}, 0, 300)
    assert env.partition.sizes == (DEFAULT_HEADINGS * len(EKF_SPEEDS),) * 4
    assert all(t.kind == "brownian" for t in env.targets)
    f = env.begin_round()
    assert isinstance(f, TrackingGainObjective)


def test_environment_world_is_seeded():
    spec = {"kind": "facility", "agents": 3, "targets": 4}
    a = make_environment(spec, 5, 20)
    b = make_environment(spec, 5, 20)
    c = make_environment(spec, 6, 20)
    np.testing.assert_array_equal(a.agents, b.agents)
    assert not np.array_equal(a.agents, c.agents)
    chosen = np.array([0, 1, 2])
    a.finish_round(chosen)
    b.finish_round(chosen)
    np.testing.assert_array_equal([t.pos for t in a.targets], [t.pos for t in b.targets])


def test_environment_target_mix_must_sum():
    with pytest.raises(ConfigError):
        make_environment(
            {
                "kind": "facility",
                "agents": 2,
                "targets": 3,
                "target_mix": {"random": 1},
            },
            0,
            300,
        )


def test_environment_world_trace():
    env = make_environment(
        {
            "kind": "facility",
            "agents": 2,
            "targets": 3,
            "record_world": True,
        },
        0,
        4,
    )
    for t in range(1, 5):
        env.begin_round()
        env.finish_round(np.array([0, 0]))
    rows = env.trajectory_rows()
    assert len(rows) == (2 + 3) * 5  # initial snapshot plus one per tick
    tick, entity, x, y, kind = rows[0]
    assert tick == 0 and entity == "agent:0" and kind == "agent"
    assert any(r[1] == "target:2" for r in rows)


def test_static_environment_passthrough():
    f = coverage_instance(3, 0.1, 1)
    env = make_environment({"kind": "coverage", "agents": 3, "epsilon": 0.1, "k": 1}, 0, 1)
    assert isinstance(env, StaticEnvironment)
    rows = f.partition.members(np.array([[1, 1, 1]]))
    assert env.begin_round().value(rows) == f.value(rows)


def test_orbiting_environment_geometry():
    env = make_environment(
        {"kind": "orbiting-targets", "agents": 3, "slots": 2, "targets": 2}, 1, 8
    )
    assert isinstance(env, OrbitingTargetsEnvironment)
    assert env.partition.sizes == (2, 2, 2)
    assert np.linalg.norm(env.sites, axis=1) == pytest.approx(4.0, abs=1e-12)
    f0 = env.begin_round()
    env.finish_round(np.array([0, 0, 0]))
    f1 = env.begin_round()
    # targets moved, so the reward table changed but stayed bounded
    assert not np.array_equal(f0.reward, f1.reward)
    # deterministic in the seed
    env2 = make_environment(
        {"kind": "orbiting-targets", "agents": 3, "slots": 2, "targets": 2}, 1, 8
    )
    np.testing.assert_array_equal(env2.begin_round().reward, f0.reward)


def test_make_environment_unknown_kind():
    with pytest.raises(ConfigError):
        make_environment({"kind": "lunar"}, 0, 1)
