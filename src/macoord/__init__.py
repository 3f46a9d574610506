"""Decentralized online coordination of action-partitioned set objectives.

Agents each own a disjoint slice of a ground set and jointly maximize a
sequence of monotone set functions, one feasible action per agent per round,
seeing only marginal gains of their own actions.  The package provides the
policy-space relaxation with exact and sampled gradients, two decentralized
no-regret learners, moving-target benchmark worlds, a brute-force oracle
suite, and an experiment harness with a CLI.
"""

__version__ = "0.1.0"
