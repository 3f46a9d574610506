"""Capped-simplex projection against a dense grid oracle and a 1-d
reference, plus normalization and indicator profiles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from macoord.extension import PolicyProfile
from macoord.geometry import normalize_policy, project_capped_simplex
from macoord.ground import Partition


def _feasible(x, atol=1e-12):
    return x.min() >= -atol and x.sum() <= 1.0 + atol


def test_projection_known_points():
    # interior points are fixed points
    np.testing.assert_allclose(
        project_capped_simplex(np.array([0.2, 0.3])), [0.2, 0.3], atol=0
    )
    # negative mass is clipped, then the excess is shaved onto the face
    np.testing.assert_allclose(
        project_capped_simplex(np.array([1.5, -0.2])), [1.0, 0.0], atol=1e-15
    )
    np.testing.assert_allclose(
        project_capped_simplex(np.array([0.6, 0.6])), [0.5, 0.5], atol=1e-15
    )
    np.testing.assert_allclose(
        project_capped_simplex(np.array([-0.3, -4.0])), [0.0, 0.0], atol=0
    )


def test_projection_beats_dense_grid():
    # independent oracle: the projection must be at least as close as every
    # feasible point on a fine grid
    rng = np.random.default_rng(7)
    grid = np.linspace(0.0, 1.0, 41)
    candidates = np.array(
        [c for c in itertools.product(grid, grid, grid) if sum(c) <= 1.0 + 1e-12]
    )
    for _ in range(25):
        y = rng.uniform(-1.5, 1.5, 3)
        x = project_capped_simplex(y)
        assert _feasible(x)
        best_grid = np.min(np.linalg.norm(candidates - y, axis=1))
        assert np.linalg.norm(x - y) <= best_grid + 1e-9


def test_projection_idempotent_and_feasible():
    rng = np.random.default_rng(11)
    for _ in range(50):
        y = rng.normal(0.0, 2.0, int(rng.integers(1, 8)))
        x = project_capped_simplex(y)
        assert _feasible(x)
        np.testing.assert_allclose(project_capped_simplex(x), x, atol=1e-12)


@st.composite
def _point_and_directions(draw):
    """A finite point y and a few vectors in [-1, 1]^k of the same dimension."""
    k = draw(st.integers(1, 8))
    y = draw(arrays(np.float64, k, elements=st.floats(-10.0, 10.0)))
    directions = draw(
        st.lists(arrays(np.float64, k, elements=st.floats(-1.0, 1.0)), min_size=1, max_size=5)
    )
    return y, directions


def _to_feasible(v):
    """Clip to nonnegative and scale down to unit mass: a feasible point."""
    v = np.maximum(v, 0.0)
    return v / v.sum() if v.sum() > 1.0 else v


_PROJECTION_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


@_PROJECTION_SETTINGS
@given(_point_and_directions())
def test_projection_property_feasible_and_idempotent(case):
    y, _ = case
    x = project_capped_simplex(y)
    assert x.shape == y.shape
    assert _feasible(x)
    np.testing.assert_allclose(project_capped_simplex(x), x, rtol=0, atol=1e-12)


@_PROJECTION_SETTINGS
@given(_point_and_directions())
def test_projection_property_no_feasible_point_is_nearer(case):
    # feasible points both far away and in a small neighbourhood of the answer
    y, directions = case
    x = project_capped_simplex(y)
    gap = np.linalg.norm(x - y)
    for d in directions:
        for q in (_to_feasible(d), _to_feasible(x + 0.01 * d)):
            assert _feasible(q)
            assert gap <= np.linalg.norm(q - y) + 1e-9


def test_projection_rejects_bad_input():
    with pytest.raises(ValueError):
        project_capped_simplex(np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        project_capped_simplex(np.array([[0.5, np.inf], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        project_capped_simplex(np.float64(0.5))  # no row axis
    with pytest.raises(ValueError):
        project_capped_simplex(np.array([]))
    with pytest.raises(ValueError):
        project_capped_simplex(np.zeros((2, 0)))


def reference_projection(y):
    """One row at a time: sort and threshold on the row alone, unpadded."""
    s = np.sort(y)[::-1]
    theta = max((np.cumsum(s) - 1.0) / np.arange(1, y.size + 1))
    return np.maximum(y - max(theta, 0.0), 0.0)


_ENTRY = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, 0.25, 0.5, 1.0, -0.5]),  # ties
    st.floats(-1e6, 1e6),  # large entries
)


@st.composite
def _rows_of_blocks(draw):
    """A stack of flat rows over a partition with unequal blocks, k = 1
    included; some blocks are scaled into the simplex (sum one, or less)."""
    p = Partition(tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=5))))
    rows = draw(arrays(np.float64, (draw(st.integers(1, 3)), p.total), elements=_ENTRY))
    for row in rows:
        for lo, hi in zip(p.offsets[:-1], p.offsets[1:]):
            mass = np.abs(row[lo:hi]).sum()
            if mass and draw(st.booleans()):
                row[lo:hi] = np.abs(row[lo:hi]) / (mass + draw(st.sampled_from([0.0, 1.0])))
    return p, rows


@_PROJECTION_SETTINGS
@given(_rows_of_blocks())
def test_batched_projection_of_padded_blocks_equals_reference(case):
    p, rows = case
    ranges = list(zip(p.offsets[:-1], p.offsets[1:]))
    expect = np.stack(
        [np.concatenate([reference_projection(row[lo:hi]) for lo, hi in ranges]) for row in rows]
    )
    # the padded entries of every block project to exactly zero
    np.testing.assert_array_equal(project_capped_simplex(p.pad(rows)), p.pad(expect))


def test_normalize_policy():
    np.testing.assert_allclose(
        normalize_policy(Partition((2,)), np.array([1.0, 3.0])), [0.25, 0.75], atol=1e-15
    )
    # vanishing mass falls back to uniform
    np.testing.assert_allclose(
        normalize_policy(Partition((4,)), np.zeros(4)), [0.25, 0.25, 0.25, 0.25], atol=0
    )
    # blocks of a flat row normalize separately, each with its own size
    np.testing.assert_allclose(
        normalize_policy(Partition((2, 4, 1)), np.array([1.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.2])),
        [0.25, 0.75, 0.25, 0.25, 0.25, 0.25, 1.0],
        atol=1e-15,
    )


def _indicator(p, row):
    """The deterministic profile of one selection: its membership row."""
    return PolicyProfile(p, p.members(np.array([row]))[0])


def test_indicator_profile():
    p = Partition((2, 3))
    prof = _indicator(p, [1, -1])
    assert prof.blocks[0].tolist() == [0.0, 1.0]
    assert prof.blocks[1].tolist() == [0.0, 0.0, 0.0]
    # agent 0 idle, agent 1 on its last slot
    prof2 = _indicator(p, [-1, 2])
    assert prof2.blocks[1].tolist() == [0.0, 0.0, 1.0]
    with pytest.raises(ValueError):
        _indicator(p, [1, -1, 0])


def test_indicator_profile_is_valid_policy():
    p = Partition((2, 2, 2))
    prof = _indicator(p, [0, 1, -1])  # built, so validated
    assert isinstance(prof, PolicyProfile)
    assert prof.row.dtype == np.float64 and prof.row.tolist() == [1, 0, 0, 1, 0, 0]
