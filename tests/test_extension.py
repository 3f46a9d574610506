"""Policy extension: exact enumeration, quadrature, and Monte-Carlo estimators.

Every exact routine is checked against an independent second route (finite
differences, dense z-grids, closed forms, or sampling) rather than against
itself.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macoord.envs import (
    FacilityObjective,
    ModularFunction,
    WeightedCoverage,
    coverage_instance,
    synthetic_setfn,
)
from macoord.errors import InvalidActionError, ScaleError
from macoord.extension import (
    MAX_RATE,
    PolicyProfile,
    SurrogateScheme,
    exact_extension,
    exact_gradient,
    sample_rows,
    sample_slots,
    sampled_gradients,
    _surrogate_rule,
)
from macoord.ground import Partition, local_marginal_block
from macoord.oracle import feasible_sets
from macoord.verification import z_sampler_cdf


def selection_value(f, row):
    """f at one selection, given as a slot row (-1 idle)."""
    return float(f.value(f.partition.members(np.array([row])))[0])


def profile_of(blocks):
    """A profile from per-agent blocks, on the partition of their sizes."""
    return PolicyProfile(Partition(tuple(len(b) for b in blocks)), np.concatenate(blocks))


def indicator(p, row):
    """The deterministic profile of one selection: its membership row."""
    return PolicyProfile(p, p.members(np.array([row]))[0])


def columns(p, agent):
    """The agent's block of a flat row."""
    return slice(p.offsets[agent], p.offsets[agent + 1])


def split_blocks(profile):
    """Views of the agents' blocks of a profile's row (columns of a stack)."""
    return tuple(np.split(profile.row, profile.partition.offsets[1:-1], axis=-1))


def weight(scheme, z):
    """The scheme's w(z) at a scalar or at every entry of an array of nodes."""
    return np.exp(scheme.rate * (z - 1.0))


def estimate(f, prof, agent, rng, samples=1, scheme=None, queries=None):
    """The agent's block of the learners' sampled gradients when every agent
    scores the same draws from ``rng``: ``(k,)`` for a row, ``(m, k)`` for a
    stack of m rows."""
    slots = np.repeat(sample_slots(prof, [rng], samples, scheme), prof.partition.n_agents, axis=0)
    block = sampled_gradients(f, slots, samples, queries, scheme)[:, columns(f.partition, agent)]
    return block if prof.row.ndim == 2 else block[0]


def random_profile(sizes, rng, lo=0.05, hi=0.95):
    blocks = []
    for k in sizes:
        b = rng.uniform(lo, hi, k)
        b = b / b.sum() * rng.uniform(0.3, 0.95)
        blocks.append(b)
    return profile_of(blocks)


# ---------------------------------------------------------------------------
# profiles and schemes
# ---------------------------------------------------------------------------


def test_profile_construction_and_immutability():
    p = Partition((2, 3))
    prof = PolicyProfile.uniform(p)
    assert prof.partition.sizes == (2, 3)
    assert prof.partition.n_agents == 2
    np.testing.assert_allclose(split_blocks(prof)[1], np.full(3, 1 / 3))
    with pytest.raises(ValueError):
        split_blocks(prof)[0][0] = 0.9  # blocks are read-only
    with pytest.raises(ValueError):
        prof.row[0] = 0.9
    # the row is copied on construction: later writes to the source do not leak
    source = np.array([0.2, 0.6, 0.1, 0.1, 0.1])
    copied = PolicyProfile(p, source)
    source[0] = 0.0
    assert copied.row[0] == 0.2


def test_profile_validate():
    # built profiles are validated once, at construction
    p = Partition((2,))
    PolicyProfile(p, np.array([0.5, 0.5]))
    PolicyProfile(p, np.array([0.5, 0.5 + 5e-10]))  # round-off within tolerance
    for bad in ([-0.1, 0.5], [0.7, 0.7], [np.inf, 0.0], [np.nan, 0.0], [[0.5, 0.5], [0.7, 0.7]]):
        with pytest.raises(ValueError):
            PolicyProfile(p, np.array(bad))
    for shape in ((3,), (2, 3), (1, 1, 2), (), (0, 2)):
        with pytest.raises(ValueError):
            PolicyProfile(p, np.zeros(shape))


def test_profile_blocks_are_views_on_the_row():
    p = Partition((2, 1))
    prof = PolicyProfile(p, np.array([0.2, 0.6, 1.0]))
    assert [b.tolist() for b in split_blocks(prof)] == [[0.2, 0.6], [1.0]]
    assert all(np.shares_memory(b, prof.row) for b in split_blocks(prof))
    # a stack of m rows has (m, k_j) blocks, one column range per agent
    stack = PolicyProfile(p, np.array([[0.2, 0.6, 1.0], [0.0, 0.5, 0.25]]))
    assert [b.shape for b in split_blocks(stack)] == [(2, 2), (2, 1)]
    assert split_blocks(stack)[1][:, 0].tolist() == [1.0, 0.25]


def test_scheme_rates_and_validation():
    assert SurrogateScheme.submodular().rate == 1.0
    assert SurrogateScheme.weak_dr(0.3).rate == 0.3
    ws = SurrogateScheme.weak_sub(gamma=0.8, beta=1.5)
    assert ws.rate == pytest.approx(1.5 * 0.2 + 0.64, abs=1e-15)
    assert SurrogateScheme.submodular().adds_min_gain
    assert not SurrogateScheme.weak_dr(1.0).adds_min_gain
    for bad in (0.0, -0.2, 1.2, None):
        with pytest.raises(ValueError):
            SurrogateScheme.weak_dr(bad)
    with pytest.raises(ValueError):
        SurrogateScheme.weak_sub(gamma=0.5, beta=0.9)
    # a scheme's rate lies in (0, MAX_RATE], however it was built
    for rate in (0.0, -1.0, math.nan, 2 * MAX_RATE):
        with pytest.raises(ValueError):
            SurrogateScheme(rate, False)


def test_weight_integral_matches_dense_sum():
    for scheme in (
        SurrogateScheme.submodular(),
        SurrogateScheme.weak_dr(0.37),
        SurrogateScheme.weak_sub(gamma=0.6, beta=2.0),
    ):
        z = np.linspace(0.0, 1.0, 100_001)
        w = np.exp(scheme.rate * (z - 1.0))
        riemann = np.trapezoid(w, z)
        assert scheme.weight_integral == pytest.approx(riemann, rel=1e-9)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def reference_slot(block, u):
    """Per-draw scalar sampler: half-open cumulative intervals, -1 for idle."""
    idx = int(np.searchsorted(np.cumsum(block), u, side="right"))
    return idx if idx < block.size else -1


def reference_z(scheme, rng):
    c = scheme.rate
    return math.log1p(rng.random() * math.expm1(c)) / c


def reference_gains(f, prof, agent, rng, z=1.0):
    """One sample: a uniform per agent in agent order, the own draw ignored."""
    u = rng.random(prof.partition.n_agents)
    row = [reference_slot(z * b, u[j]) for j, b in enumerate(split_blocks(prof))]
    row[agent] = -1
    return f.agent_marginals(agent, np.array([row]))[0]


def reference_surrogate_sample(f, prof, agent, scheme, rng):
    z = reference_z(scheme, rng)
    values = scheme.weight_integral * reference_gains(f, prof, agent, rng, z)
    if scheme.adds_min_gain:
        values = values + math.exp(-1.0) * f.min_gains[columns(f.partition, agent)]
    return values


def test_sample_choices_match_scalar_reference():
    rng = np.random.default_rng(17)
    for _ in range(40):
        sizes = tuple(int(k) for k in rng.integers(1, 5, size=int(rng.integers(1, 5))))
        blocks = []
        for k in sizes:
            kind = int(rng.integers(4))
            if kind == 0:
                b = np.zeros(k)  # zero mass: always idle
            elif kind == 1:
                b = rng.random(k)
                b /= b.sum()  # full mass (up to round-off)
            elif kind == 2:
                b = np.zeros(k)
                b[rng.integers(k)] = 1.0
            else:
                b = rng.random(k) * rng.random() / k
            blocks.append(b)
        prof = profile_of(blocks)
        u = rng.random((25, len(sizes)))
        # uniforms on the interval boundaries themselves
        u[0] = 0.0
        u[1] = [np.cumsum(b)[0] for b in split_blocks(prof)]
        scale = rng.random(25)
        scale[:3] = (0.0, 1.0, 0.5)
        # a stack of 25 scaled rows: uniform row l rounds scaled row l
        stack = PolicyProfile(prof.partition, np.multiply.outer(scale, prof.row))
        for z, profile in ((None, prof), (scale, stack)):
            got = sample_rows(profile.partition, profile.row, u)
            assert got.shape == u.shape and got.dtype == np.int64
            for l in range(u.shape[0]):
                for j, b in enumerate(split_blocks(prof)):
                    block = b if z is None else float(z[l]) * b
                    assert got[l, j] == reference_slot(block, u[l, j])


def reference_sample_rows(prof, u):
    """Per-agent loop: one cumulative search of each block in turn; row l of
    a stack rounds the l-th group of len(u) / m uniform rows."""
    rows = prof.row.reshape(-1, prof.partition.total)
    per_row = len(u) // len(rows)
    choices = np.empty(u.shape, dtype=np.int64)
    for j, (lo, hi) in enumerate(zip(prof.partition.offsets[:-1], prof.partition.offsets[1:])):
        block = np.repeat(rows[:, lo:hi], per_row, axis=0)
        idx = np.count_nonzero(np.cumsum(block, axis=-1) <= u[:, j, None], axis=-1)
        choices[:, j] = np.where(idx < hi - lo, idx, -1)
    return choices


BLOCK_KINDS = ("zero", "full", "indicator", "partial", "overfull", "negative")


def make_block(kind, k, rng):
    if kind == "zero":
        return np.zeros(k)  # always idle
    if kind in ("full", "overfull"):
        b = rng.random(k) + 1e-3
        b /= b.sum()  # no idle mass (up to round-off)
        # overfull: idle mass -5e-10, within validate's tolerance
        return b * (1.0 + 5e-10) if kind == "overfull" else b
    if kind == "indicator":
        b = np.zeros(k)
        b[rng.integers(k)] = 1.0
        return b
    b = rng.random(k) * rng.random() / k
    if kind == "negative":
        b[-1] = -5e-10  # round-off below zero, within validate's tolerance
    return b


def on_boundaries(rows, partition, rng, at=None):
    """A uniform row on one cumulative value of every block of each row:
    entry ``at`` of each block, or a random one (clipped to the block)."""
    out = []
    for row in rows:
        cums = np.split(row, partition.offsets[1:-1])
        out.append([np.cumsum(b)[min(rng.integers(b.size) if at is None else at, b.size - 1)]
                    for b in cums])
    return np.array(out)


@st.composite
def profiles_and_uniforms(draw):
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    kinds = draw(st.lists(st.sampled_from(BLOCK_KINDS), min_size=len(sizes), max_size=len(sizes)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prof = profile_of([make_block(kind, k, rng) for kind, k in zip(kinds, sizes)])
    u = rng.random((draw(st.integers(0, 30)), len(sizes)))
    if len(u) >= 2:
        u[0] = 0.0  # uniforms on the interval boundaries themselves
        u[1] = [np.cumsum(b)[rng.integers(b.size)] for b in split_blocks(prof)]
    scale = rng.random(len(u))
    scale[: min(3, len(u))] = (0.0, 1.0, 0.5)[: min(3, len(u))]
    # stacks: one scaled row per uniform row, and two rows for halves of u
    stacks = [PolicyProfile(prof.partition, np.multiply.outer(scale, prof.row))] if len(u) else []
    if len(u) % 2 == 0:
        stacks.append(PolicyProfile(prof.partition, np.stack([prof.row, 0.5 * prof.row])))
    cases = [(profile, u) for profile in [prof, *stacks]]

    # ma-mpl's layout: m >= 2 rows of the same block kinds, each rounded by
    # s >= 2 consecutive uniform rows, the first of them on a cumulative value
    m, s = draw(st.integers(2, 4)), draw(st.integers(2, 5))
    rows = np.stack([
        profile_of([make_block(kind, k, rng) for kind, k in zip(kinds, sizes)]).row
        for _ in range(m)
    ])
    u_stack = rng.random((m * s, len(sizes)))
    u_stack[::s] = on_boundaries(rows, prof.partition, rng)
    cases.append((PolicyProfile(prof.partition, rows), u_stack))

    # unequal sizes with one block of at least 256 actions, whose counts
    # pass what a uint8 holds; one uniform row sits on its 256th or a later
    # cumulative value, and every block is also rounded in an m-row stack
    wide, at = draw(st.integers(256, 300)), draw(st.integers(255, 299))
    blocks = [make_block(kind, k, rng) for kind, k in zip(kinds, sizes)]
    wide_block = make_block(draw(st.sampled_from(BLOCK_KINDS)), wide, rng)
    blocks.insert(draw(st.integers(0, len(sizes))), wide_block)
    wide_prof = profile_of(blocks)
    u_wide = rng.random((m * s, len(blocks)))
    u_wide[0] = on_boundaries([wide_prof.row], wide_prof.partition, rng, at)[0]
    u_wide[1] = 1.0 - 1e-12
    cases.append((wide_prof, u_wide))
    wide_stack = np.multiply.outer(rng.random(m), wide_prof.row)
    cases.append((PolicyProfile(wide_prof.partition, wide_stack), u_wide))
    return cases


@settings(max_examples=200, deadline=None, derandomize=True)
@given(profiles_and_uniforms())
def test_sample_choices_equal_per_agent_loop(cases):
    for profile, u in cases:
        got = sample_rows(profile.partition, profile.row, u)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, reference_sample_rows(profile, u))


def test_sample_choices_on_indicator_is_deterministic():
    p = Partition((2, 3, 2))
    prof = indicator(p, [1, -1, 0])
    choices = sample_rows(prof.partition, prof.row, np.random.default_rng(0).random((20, 3)))
    assert (choices == [1, -1, 0]).all()


def test_sample_choices_frequencies():
    prof = PolicyProfile(Partition((2,)), np.array([0.3, 0.5]))  # leftover 0.2 idles
    n = 20_000
    slots = sample_rows(prof.partition, prof.row, np.random.default_rng(42).random((n, 1)))[:, 0]
    for key, p_true in ((0, 0.3), (1, 0.5), (-1, 0.2)):
        band = 4.0 * math.sqrt(p_true * (1 - p_true) / n)
        assert abs(np.mean(slots == key) - p_true) < band


def test_sample_choices_shape_guard():
    p = Partition((2, 2))
    prof = PolicyProfile.uniform(p)
    for bad in (np.zeros((4, 3)), np.zeros(2)):
        with pytest.raises(ValueError):
            sample_rows(prof.partition, prof.row, bad)
    # a stack of 3 rows needs a multiple of 3 uniform rows
    stack = PolicyProfile(p, np.tile(prof.row, (3, 1)))
    assert sample_rows(stack.partition, stack.row, np.zeros((6, 2))).shape == (6, 2)
    with pytest.raises(ValueError):
        sample_rows(stack.partition, stack.row, np.zeros((4, 2)))


def test_estimators_exclude_own_agent():
    p = Partition((2, 2, 2))
    weights = np.arange(1.0, 7.0)
    f = ModularFunction(p, weights)
    # the agent's own block always samples slot 1; gains must ignore it
    prof = PolicyProfile(p, np.array([0.5, 0.5, 0.0, 1.0, 0.2, 0.3]))
    rng = np.random.default_rng(3)
    np.testing.assert_array_equal(estimate(f, prof, 1, rng, samples=50), [3.0, 4.0])
    scheme = SurrogateScheme.weak_dr(0.5)
    np.testing.assert_allclose(
        estimate(f, prof, 1, rng, samples=50, scheme=scheme),
        scheme.weight_integral * np.array([3.0, 4.0]),
        rtol=1e-12,
    )


def test_sample_z_cdf():
    result = z_sampler_cdf()
    assert result.passed, result.detail


# ---------------------------------------------------------------------------
# exact extension and gradients
# ---------------------------------------------------------------------------


def test_extension_at_indicator_equals_set_value():
    rng = np.random.default_rng(9)
    f = synthetic_setfn("coverage-random", (2, 2, 2), rng)
    for sel in ([0, 1, -1], [-1, -1, -1]):
        prof = indicator(f.partition, sel)
        assert exact_extension(f, prof) == pytest.approx(selection_value(f, sel), abs=1e-12)


def test_extension_of_modular_is_linear():
    p = Partition((2, 2))
    w = np.array([0.5, 1.25, 0.75, 2.0])
    f = ModularFunction(p, w)
    rng = np.random.default_rng(17)
    prof = random_profile(p.sizes, rng)
    assert exact_extension(f, prof) == pytest.approx(
        float(np.dot(w, prof.row)), abs=1e-12
    )


def test_multilinearity_in_each_coordinate():
    rng = np.random.default_rng(21)
    f = synthetic_setfn("coverage-random", (2, 2), rng)
    base = random_profile(f.partition.sizes, rng, hi=0.4)
    vals = []
    for s in (0.0, 0.1, 0.2):
        row = base.row.copy()
        row[1] += s  # agent 0, slot 1
        vals.append(exact_extension(f, PolicyProfile(f.partition, row)))
    # linear in one coordinate: equal successive differences
    assert (vals[1] - vals[0]) == pytest.approx(vals[2] - vals[1], abs=1e-12)


def test_exact_gradient_matches_finite_differences():
    rng = np.random.default_rng(33)
    f = synthetic_setfn("coverage-random", (2, 1, 2), rng)
    h = 1e-5
    for _ in range(10):
        prof = random_profile(f.partition.sizes, rng, lo=0.1, hi=0.5)
        grad = exact_gradient(f, prof)
        for idx in range(f.partition.total):
            step = np.zeros(f.partition.total)
            step[idx] = h
            fd = (
                exact_extension(f, PolicyProfile(f.partition, prof.row + step))
                - exact_extension(f, PolicyProfile(f.partition, prof.row - step))
            ) / (2 * h)
            assert grad[idx] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_gradient_of_monotone_objective_is_nonnegative():
    rng = np.random.default_rng(8)
    for kind in ("modular", "coverage-random", "concave-of-modular"):
        f = synthetic_setfn(kind, (2, 2), rng)
        prof = random_profile(f.partition.sizes, rng)
        assert exact_gradient(f, prof).min() >= -1e-12


def test_enumeration_guard():
    p = Partition((9,) * 7)  # 10^7 joint outcomes
    f = ModularFunction(p, np.ones(p.total))
    with pytest.raises(ScaleError):
        exact_extension(f, PolicyProfile.uniform(p))


# ---------------------------------------------------------------------------
# surrogate gradients (quadrature vs dense z-grid, potential vs FD)
# ---------------------------------------------------------------------------


def dense_surrogate_gradient(f, prof, scheme, agent, steps=2000):
    """Trapezoid z-integration oracle, independent of the quadrature path."""
    block = columns(prof.partition, agent)
    zs = np.linspace(0.0, 1.0, steps + 1)
    vals = np.stack(
        [
            weight(scheme, float(z))
            * exact_gradient(f, PolicyProfile(prof.partition, z * prof.row))[block]
            for z in zs
        ]
    )
    out = np.trapezoid(vals, zs, axis=0)
    if scheme.adds_min_gain:
        out = out + math.exp(-1.0) * f.min_gains[block]
    return out


@pytest.mark.parametrize(
    "scheme",
    [
        SurrogateScheme.submodular(),
        SurrogateScheme.weak_dr(0.4),
        SurrogateScheme.weak_sub(gamma=0.7, beta=1.3),
    ],
    ids=["submodular", "weak-dr", "weak-sub"],
)
def test_surrogate_gradient_quadrature_vs_dense_grid(scheme):
    rng = np.random.default_rng(13)
    f = synthetic_setfn("coverage-random", (2, 2), rng)
    prof = random_profile(f.partition.sizes, rng)
    for agent in range(2):
        quad = exact_gradient(f, prof, scheme)[columns(f.partition, agent)]
        dense = dense_surrogate_gradient(f, prof, scheme, agent)
        np.testing.assert_allclose(quad, dense, rtol=1e-7, atol=1e-9)


def gauss_legendre_01(nodes=64):
    x, w = np.polynomial.legendre.leggauss(nodes)
    return 0.5 * (x + 1.0), 0.5 * w


def exact_surrogate_value(f, profile, scheme, nodes=64):
    """Quadrature evaluation of the surrogate potential, whose gradient
    :func:`exact_gradient` with a scheme must be:

        F^s(pi) = int_0^1 (w(z) / z) F(z * pi) dz   (+ linear min-gain bonus),

    which is well defined since F(z * pi) vanishes linearly at z = 0 for a
    normalized objective.  Gauss-Legendre nodes avoid the endpoint.
    """
    zs, ws = gauss_legendre_01(nodes)
    values = [exact_extension(f, PolicyProfile(profile.partition, z * profile.row)) for z in zs]
    total = float((ws * weight(scheme, zs) / zs) @ values)
    if scheme.adds_min_gain:
        total += math.exp(-1.0) * float(np.dot(f.min_gains, profile.row))
    return total


def test_surrogate_value_gradient_consistency():
    # the reweighted gradient must be the gradient of the surrogate potential
    rng = np.random.default_rng(29)
    f = synthetic_setfn("coverage-random", (2, 2), rng)
    scheme = SurrogateScheme.submodular()
    prof = random_profile(f.partition.sizes, rng, lo=0.1, hi=0.4)
    grad = exact_gradient(f, prof, scheme)
    h = 1e-5
    for idx in range(f.partition.total):
        step = np.zeros(f.partition.total)
        step[idx] = h
        fd = (
            exact_surrogate_value(f, PolicyProfile(f.partition, prof.row + step), scheme)
            - exact_surrogate_value(f, PolicyProfile(f.partition, prof.row - step), scheme)
        ) / (2 * h)
        assert grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)


# ---------------------------------------------------------------------------
# the contraction against an enumeration reference
# ---------------------------------------------------------------------------


def enumerated_values(f):
    return {tuple(s): selection_value(f, s) for s in feasible_sets(f.partition).tolist()}


def outcome_prob(blocks, choice, skip=None):
    """Probability of one joint outcome; zero for negative round-off mass."""
    prob = 1.0
    for j, (b, slot) in enumerate(zip(blocks, choice)):
        if j != skip:
            prob *= max(1.0 - float(b.sum()), 0.0) if slot < 0 else max(float(b[slot]), 0.0)
    return prob


def enumerated_extension(values, blocks):
    return sum(outcome_prob(blocks, c) * v for c, v in values.items())


def enumerated_gradient(values, blocks, agent):
    grad = np.zeros(blocks[agent].size)
    for c, v in values.items():
        if c[agent] < 0:
            prob = outcome_prob(blocks, c, skip=agent)
            for m in range(grad.size):
                grad[m] += prob * (values[c[:agent] + (m,) + c[agent + 1 :]] - v)
    return grad


def enumerated_surrogate_gradient(f, values, blocks, scheme, agent):
    grad = np.zeros(blocks[agent].size)
    for z, wq in zip(*gauss_legendre_01()):
        scaled = [z * b for b in blocks]
        grad += wq * math.exp(scheme.rate * (z - 1.0)) * enumerated_gradient(values, scaled, agent)
    if scheme.adds_min_gain:
        grad += math.exp(-1.0) * f.min_gains[columns(f.partition, agent)]
    return grad


def enumerated_surrogate_value(f, values, blocks, scheme):
    total = 0.0
    for z, wq in zip(*gauss_legendre_01()):
        scaled = [z * b for b in blocks]
        total += wq * math.exp(scheme.rate * (z - 1.0)) / z * enumerated_extension(values, scaled)
    if scheme.adds_min_gain:
        for i, b in enumerate(blocks):
            total += math.exp(-1.0) * float(np.dot(f.min_gains[columns(f.partition, i)], b))
    return total


SCHEMES = (
    SurrogateScheme.submodular(),
    SurrogateScheme.weak_dr(0.4),
    SurrogateScheme.weak_sub(gamma=0.7, beta=1.3),
)


@st.composite
def exact_cases(draw):
    kind = draw(
        st.sampled_from(
            ("modular", "coverage-random", "concave-of-modular", "coverage-instance", "facility")
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "coverage-instance":
        n = draw(st.integers(2, 4))
        f = coverage_instance(n, draw(st.floats(0.01, 1.0)), draw(st.integers(1, n - 1)))
    else:
        sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
        if kind == "facility":
            p = Partition(sizes)
            f = FacilityObjective(p, rng.uniform(-5, 5, (p.total, 2)), rng.uniform(-5, 5, (2, 2)))
        else:
            f = synthetic_setfn(kind, sizes, rng)
    n = f.partition.n_agents
    kinds = draw(st.lists(st.sampled_from(BLOCK_KINDS), min_size=n, max_size=n))
    blocks = tuple(make_block(kind, k, rng) for kind, k in zip(kinds, f.partition.sizes))
    prof = PolicyProfile(f.partition, np.concatenate(blocks))
    return f, prof, draw(st.integers(0, n - 1)), draw(st.sampled_from(SCHEMES))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(exact_cases())
def test_contraction_matches_enumeration(case):
    """Every exact quantity agrees with explicit enumeration to 1e-12,
    relative to the objective's largest value."""
    f, prof, agent, scheme = case
    values = enumerated_values(f)
    scale = max(max(abs(v) for v in values.values()), 1e-300)

    def close(got, expect):
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12 * scale)

    close(exact_extension(f, prof), enumerated_extension(values, split_blocks(prof)))
    block = columns(f.partition, agent)
    close(exact_gradient(f, prof)[block], enumerated_gradient(values, split_blocks(prof), agent))
    close(
        exact_gradient(f, prof, scheme)[block],
        enumerated_surrogate_gradient(f, values, split_blocks(prof), scheme, agent),
    )
    close(
        exact_surrogate_value(f, prof, scheme),
        enumerated_surrogate_value(f, values, split_blocks(prof), scheme),
    )


def test_exact_layer_rejects_mismatched_profiles():
    f = synthetic_setfn("coverage-random", (2, 2), np.random.default_rng(3))
    scheme = SurrogateScheme.submodular()
    wrong = PolicyProfile.uniform(Partition((2, 3)))
    stacked = PolicyProfile(f.partition, np.full((2, 4), 0.25))
    with pytest.raises(ValueError):
        PolicyProfile(f.partition, np.array([0.7, 0.7, 0.0, 0.0]))  # never built
    # the gradients take an n-row stack of views; other heights are refused
    # in test_exact_gradients_refuse_stacks_of_other_heights
    for call in (
        lambda: exact_extension(f, wrong),
        lambda: exact_gradient(f, wrong),
        lambda: exact_gradient(f, wrong, scheme),
        lambda: exact_surrogate_value(f, wrong, scheme),
        lambda: exact_extension(f, stacked),
        lambda: exact_surrogate_value(f, stacked, scheme),
    ):
        with pytest.raises(ValueError):
            call()


def _per_agent_expectation(table, blocks, zs):
    """The per-agent contraction: the leading axes of ``table`` against each
    block's outcome probabilities at every node, weights built per block."""
    out = table.reshape(1, -1)
    for block in blocks:
        scaled = np.multiply.outer(zs, block)
        idle = 1.0 - scaled.sum(axis=1, keepdims=True)
        w = np.maximum(np.concatenate((idle, scaled), axis=1), 0.0)
        out = np.matmul(w[:, None, :], out.reshape(len(out), w.shape[1], -1))[:, 0]
    out = np.broadcast_to(out, (len(zs), out.shape[1]))
    return out.reshape((len(zs),) + table.shape[len(blocks) :])


def _loop_gradient(f, views, zs, node_weights=None):
    """The per-agent form of the exact gradients, the reference the batched
    contraction must match bit for bit: block i rebuilds agent i's slot-gain
    table and contracts it with the other blocks of view i, one call each."""
    grad = []
    for i, view in enumerate(views):
        blocks = np.split(view, f.partition.offsets[1:-1])
        table = np.moveaxis(f.outcome_values, i, -1)
        gains = table[..., 1:] - table[..., :1]
        g = _per_agent_expectation(gains, blocks[:i] + blocks[i + 1 :], zs)
        grad.append(g[0] if node_weights is None else node_weights @ g)
    return np.concatenate(grad)


# the weak-sub rate nearest MAX_RATE that gamma in (0, 1] and beta >= 1 reach
# here: w(z) = exp(rate (z - 1)) all but vanishes away from z = 1
STEEP = SurrogateScheme.weak_sub(gamma=1e-3, beta=MAX_RATE)


@st.composite
def view_cases(draw):
    n = draw(st.integers(1, 8))
    sizes = tuple(draw(st.lists(st.integers(1, 4 if n <= 4 else 2), min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = Partition(sizes)
    if draw(st.booleans()):
        f = WeightedCoverage(p, rng.random((p.total, 6)) < 0.4, rng.uniform(0.1, 1.0, 6))
    else:
        f = FacilityObjective(p, rng.uniform(-5, 5, (p.total, 2)), rng.uniform(-5, 5, (3, 2)))
    views = [
        np.concatenate([make_block(draw(st.sampled_from(BLOCK_KINDS)), k, rng) for k in sizes])
        for _ in sizes
    ]
    stacked = draw(st.booleans())
    return f, np.array(views) if stacked else views[0], draw(st.sampled_from(SCHEMES + (STEEP,)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(view_cases())
def test_exact_gradients_equal_per_agent_reference(case):
    """The batched contraction is the per-agent one bit for bit, at z = 1 and
    at the surrogate rule's own nodes and weights; the n-node rule agrees with
    the 64-node Gauss-Legendre sum to 1e-12 relative."""
    f, row, scheme = case
    n = f.partition.n_agents
    assert STEEP.rate > 0.998 * MAX_RATE
    prof = PolicyProfile(f.partition, row)
    views = np.broadcast_to(prof.row, (n, f.partition.total))
    assert exact_gradient(f, prof).tobytes() == _loop_gradient(f, views, np.ones(1)).tobytes()
    bonus = math.exp(-1.0) * f.min_gains if scheme.adds_min_gain else 0.0
    got = exact_gradient(f, prof, scheme)
    zs, ws = _surrogate_rule(n, scheme.rate)
    assert len(zs) == n
    assert got.tobytes() == (_loop_gradient(f, views, zs, ws) + bonus).tobytes()
    zs, ws = gauss_legendre_01(64)
    expect = _loop_gradient(f, views, zs, ws * weight(scheme, zs)) + bonus
    scale = max(np.abs(expect).max(), 1e-300)
    np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12 * scale)


def test_exact_gradients_refuse_stacks_of_other_heights():
    f = synthetic_setfn("coverage-random", (2, 1, 3), np.random.default_rng(5))
    for m in (2, 4):
        prof = PolicyProfile(f.partition, np.full((m, f.partition.total), 0.2))
        with pytest.raises(ValueError):
            exact_gradient(f, prof)
        with pytest.raises(ValueError):
            exact_gradient(f, prof, SurrogateScheme.submodular())


def test_slot_gain_tables_are_cached_read_only():
    f = synthetic_setfn("coverage-random", (2, 1, 3), np.random.default_rng(6))
    tables = f.slot_gains
    assert f.slot_gains is tables
    for i, gains in enumerate(tables):
        k = f.partition.sizes[i]
        assert gains.shape[-1] == k and not gains.flags.writeable
        with pytest.raises(ValueError):
            gains[...] = 0.0


# ---------------------------------------------------------------------------
# Monte-Carlo estimators
# ---------------------------------------------------------------------------


def test_estimate_gradient_is_unbiased():
    rng = np.random.default_rng(55)
    f = synthetic_setfn("coverage-random", (2, 2, 2), rng)
    prof = random_profile(f.partition.sizes, rng)
    agent = 1
    exact = exact_gradient(f, prof)[columns(f.partition, agent)]
    n = 4000
    draws = np.stack(
        [estimate(f, prof, agent, rng) for _ in range(n)]
    )
    mean = draws.mean(axis=0)
    sem = draws.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(mean - exact) <= 5.0 * sem + 1e-12)


def test_estimate_surrogate_gradient_is_unbiased():
    rng = np.random.default_rng(77)
    f = synthetic_setfn("coverage-random", (2, 2), rng)
    scheme = SurrogateScheme.submodular()
    prof = random_profile(f.partition.sizes, rng)
    agent = 0
    exact = exact_gradient(f, prof, scheme)[columns(f.partition, agent)]
    n = 6000
    draws = np.stack(
        [
            estimate(f, prof, agent, rng, scheme=scheme)
            for _ in range(n)
        ]
    )
    mean = draws.mean(axis=0)
    sem = draws.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(mean - exact) <= 5.0 * sem + 1e-12)


def test_estimators_match_scalar_reference():
    rng = np.random.default_rng(23)
    f = synthetic_setfn("coverage-random", (2, 3, 1, 2), rng)
    for trial in range(6):
        prof = random_profile(f.partition.sizes, rng)
        agent = trial % 4
        samples = (1, 2, 7)[trial % 3]
        seed = 1000 + trial
        ref_rng = np.random.default_rng(seed)
        expect = np.mean(
            [reference_gains(f, prof, agent, ref_rng) for _ in range(samples)], axis=0
        )
        got = estimate(f, prof, agent, np.random.default_rng(seed), samples)
        np.testing.assert_array_equal(got, expect)
        for scheme in (SurrogateScheme.submodular(), SurrogateScheme.weak_dr(0.3)):
            ref_rng = np.random.default_rng(seed)
            expect = np.mean(
                [
                    reference_surrogate_sample(f, prof, agent, scheme, ref_rng)
                    for _ in range(samples)
                ],
                axis=0,
            )
            got = estimate(f, prof, agent, np.random.default_rng(seed), samples, scheme)
            np.testing.assert_array_equal(got, expect)


def test_stacked_estimates_equal_row_by_row_draws():
    """m rows in one call: one (m * L, n) draw equals m successive (L, n)
    draws from the same generator, so every row's estimate and the queries
    are those of m single-row calls."""
    rng = np.random.default_rng(31)
    f = synthetic_setfn("coverage-random", (2, 3, 2), rng)
    rows = [random_profile(f.partition.sizes, rng) for _ in range(4)]
    stack = PolicyProfile(f.partition, np.stack([r.row for r in rows]))
    for scheme in (None, SurrogateScheme.submodular(), SurrogateScheme.weak_dr(0.3)):
        counts = np.zeros((2, 3), dtype=np.int64)
        got = estimate(f, stack, 1, np.random.default_rng(8), 5, scheme, counts[0])
        gen = np.random.default_rng(8)
        expect = np.stack([estimate(f, r, 1, gen, 5, scheme, counts[1]) for r in rows])
        assert got.shape == (4, 3)
        np.testing.assert_array_equal(got, expect)
        # the stacked call reads the min-gain bonus once, not once per row
        bonus = 3 * 3 if scheme is not None and scheme.adds_min_gain else 0
        counted = counts[:, 1]
        assert counted[0] == counted[1] - bonus == 4 * 5 * 3 + bonus / 3


@pytest.mark.parametrize("agent", [-1, 3])
def test_bad_agent_raises_before_any_charge(agent):
    rng = np.random.default_rng(8)
    f = synthetic_setfn("coverage-random", (2, 2, 2), rng)
    queries = np.zeros(3, dtype=np.int64)
    with pytest.raises(InvalidActionError):
        local_marginal_block(f, agent, np.full((1, 3), -1), queries)
    assert queries.tolist() == [0, 0, 0]


def test_estimators_need_a_sample():
    rng = np.random.default_rng(9)
    f = synthetic_setfn("coverage-random", (2, 2), rng)
    prof = random_profile(f.partition.sizes, rng)
    with pytest.raises(ValueError):
        sample_slots(prof, [rng], 0)
    with pytest.raises(ValueError):
        sample_slots(prof, [rng], 0, SurrogateScheme.weak_dr(1.0))


def test_lossless_rounding_small():
    rng = np.random.default_rng(101)
    f = synthetic_setfn("coverage-random", (2, 2), rng)
    prof = random_profile(f.partition.sizes, rng)
    exact = exact_extension(f, prof)
    n = 20_000
    choices = sample_rows(prof.partition, prof.row, rng.random((n, prof.partition.n_agents)))
    vals = f.value(f.partition.members(choices))
    sem = vals.std(ddof=1) / math.sqrt(n)
    assert abs(vals.mean() - exact) <= 4.0 * sem
