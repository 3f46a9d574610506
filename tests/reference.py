"""The value-difference references of the two oracle methods.

Every objective in ``macoord.envs`` answers ``agent_marginals`` and
``compute_min_gains`` in closed form.  The functions here answer them from
``f.value`` alone, as the definition of a marginal gain reads, for any
object with a ``partition`` and a ``value`` method; ``tests/test_envs.py``
and ``tests/test_ground.py`` check every objective against them.  A
difference of two values of size f(V) loses up to about 1e-16 f(V) in
float64, so a check against them is relative to f(V) as well as to the
entry, or runs on an exact ``value`` (``fractions.Fraction`` entries).
"""

from __future__ import annotations

import numpy as np


def agent_marginals(f, agent: int, choices: np.ndarray) -> np.ndarray:
    """Gains of every action of ``agent`` against every row of an ``(L, n)``
    slot matrix, whose column ``agent`` is ignored: the value of each row
    with the agent idle, and of that row plus each one of its slots, all in
    one ``value`` call."""
    lo, hi = f.partition.offsets[agent], f.partition.offsets[agent + 1]
    base = np.array(choices)
    base[:, agent] = -1
    rows = f.partition.members(base)
    added = np.repeat(rows, hi - lo, axis=0)  # row l * k + m: row l plus slot m
    added[np.arange(len(added)), np.tile(np.arange(lo, hi), len(rows))] = True
    values = f.value(np.concatenate((rows, added)))
    return values[len(rows) :].reshape(len(rows), hi - lo) - values[: len(rows), None]


def min_gains(f) -> np.ndarray:
    """f(V) minus f(V - {v}) for every action v, in one ``value`` call."""
    total = f.partition.total
    values = f.value(np.vstack((np.ones(total, dtype=bool), ~np.eye(total, dtype=bool))))
    return values[0] - values[1:]
