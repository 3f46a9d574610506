"""Capped-simplex geometry: projection and normalization.

The feasible region of one agent's block is the capped simplex
``{x >= 0, sum(x) <= 1}``; a policy profile lives in the product of these.
"""

from __future__ import annotations

import numpy as np

from .ground import Partition

NORMALIZE_FLOOR = 1e-12


def project_capped_simplex(y: np.ndarray) -> np.ndarray:
    """Euclidean projection of every row (last axis) onto {x >= 0, sum(x) <= 1}.

    Sort and threshold: with s the row sorted in decreasing order, the
    simplex threshold is theta = max_j (s_1 + ... + s_j - 1) / j, and the
    answer is ``max(y - max(theta, 0), 0)``.  theta > 0 exactly when the
    clipped row carries more than unit mass, and the projection then lies on
    the sum-one face; otherwise the row is only clipped.  Zeros appended to
    a row neither raise theta nor decide its sign, and project to 0, so
    blocks of unequal sizes can be projected together zero-padded to a
    common length.  O(k log k) per row.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim == 0 or y.shape[-1] == 0:
        raise ValueError("expected rows with a nonempty last axis")
    if not np.isfinite(y).all():
        raise ValueError("cannot project non-finite input")
    s = np.sort(y, axis=-1)[..., ::-1]
    theta = ((np.cumsum(s, axis=-1) - 1.0) / np.arange(1, y.shape[-1] + 1)).max(
        axis=-1, keepdims=True
    )
    return np.maximum(y - np.maximum(theta, 0.0), 0.0)


def project_blocks(partition: Partition, rows: np.ndarray) -> np.ndarray:
    """Project every agent's block of ``(..., |V|)`` flat rows onto its
    capped simplex: all blocks zero-padded (:meth:`Partition.pad`) into one
    :func:`project_capped_simplex` call."""
    return partition.unpad(project_capped_simplex(partition.pad(rows)))


def normalize_policy(partition: Partition, row: np.ndarray) -> np.ndarray:
    """Scale every nonnegative block of a flat row to sum one; a block with
    about zero mass becomes uniform."""
    blocks = partition.pad(np.asarray(row, dtype=np.float64))
    totals = blocks.sum(axis=-1, keepdims=True)
    empty = totals <= NORMALIZE_FLOOR
    uniform = 1.0 / np.array(partition.sizes)[:, None]
    return partition.unpad(np.where(empty, uniform, blocks / np.where(empty, 1.0, totals)))
