"""Capped-simplex geometry: projection, normalization, vertex profiles.

The feasible region of one agent's block is the capped simplex
``{x >= 0, sum(x) <= 1}``; a policy profile lives in the product of these.
"""

from __future__ import annotations

import numpy as np

from .extension import PolicyProfile
from .ground import FeasibleSet, Partition

NORMALIZE_FLOOR = 1e-12


def project_capped_simplex(y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum(x) <= 1}.

    Clips negatives first; if the clipped point still carries more than unit
    mass, the projection lies on the sum-one face and reduces to the standard
    sort-and-threshold simplex projection.  O(k log k).
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("expected a nonempty 1-d vector")
    if not np.all(np.isfinite(y)):
        raise ValueError("cannot project non-finite input")
    clipped = np.maximum(y, 0.0)
    if clipped.sum() <= 1.0:
        return clipped
    # Projection onto the face sum(x) = 1, x >= 0.
    s = np.sort(y)[::-1]
    csum = np.cumsum(s) - 1.0
    idx = np.arange(1, y.size + 1)
    rho = int(np.max(idx[s - csum / idx > 0.0]))
    theta = csum[rho - 1] / rho
    return np.maximum(y - theta, 0.0)


def normalize_policy(x: np.ndarray) -> np.ndarray:
    """Scale a nonnegative block to sum one; uniform fallback for ~zero mass."""
    x = np.asarray(x, dtype=np.float64)
    total = float(x.sum())
    if total <= NORMALIZE_FLOOR:
        return np.full(x.size, 1.0 / x.size)
    return x / total


def indicator_profile(selection: FeasibleSet, partition: Partition) -> PolicyProfile:
    """Deterministic profile putting mass 1 on each selected action."""
    if len(selection.choice) != partition.n_agents:
        raise ValueError("selection and partition disagree on the number of agents")
    blocks = []
    for i, slot in enumerate(selection.choice):
        b = np.zeros(partition.sizes[i])
        if slot is not None:
            if not (0 <= slot < partition.sizes[i]):
                raise ValueError(f"slot {slot} out of range for agent {i}")
            b[slot] = 1.0
        blocks.append(b)
    return PolicyProfile(tuple(blocks))
