"""Every refused invocation of the command line, and the rule each must meet.

A refusal exits 1 and prints one line to stderr: ``config error: `` and a
message that names the field at fault, or ``usage error: `` for a bad
invocation.  The line is at most :data:`MAX_LINE` characters long, however
large the value at fault.  It never runs on a coerced value, and never
prints a traceback or a warning.  :data:`REFUSALS` holds one entry per
refused document or argument list, in groups by what they refuse, and
:func:`check` holds the rule.  ``tests/test_refusals.py`` and
``tests/test_harness.py`` run every entry in process, one test per group; run
as a script, this module runs every entry through a command (default
``macoord``, the installed console script)::

    PYTHONWARNINGS=error python tests/refusals.py
    PYTHONWARNINGS=error PYTHONPATH=src python tests/refusals.py python -m macoord.cli

and exits 1 when any entry breaks the rule, naming it.  Adding a refusal is
adding one entry to a group.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

# a valid document; each entry changes one part of it
CLI_DOC = {
    "environment": {"kind": "synthetic", "objective": "coverage-random", "sizes": [2, 2]},
    "graph": {"kind": "complete"},
    "learner": {"kind": "ma-spl", "batch": 1},
    "horizon": 5,
    "seed": 0,
}
SPL, MPL = ("run-spl",), ("run-mpl",)
MAX_LINE = 300  # most characters of a refusal line, its prefix included
_TINY = CLI_DOC["environment"]
_FACILITY = {"kind": "facility", "agents": 2, "targets": 2}
_COVERAGE = {"kind": "coverage"}


class Refusal(NamedTuple):
    """One refused invocation: ``command`` and, unless ``config`` is None,
    ``--config`` with that document.  Without a config it is a usage error."""

    id: str
    command: tuple[str, ...]
    config: dict | list | None
    field: str | None  # the field the message names
    section: str | None = None  # set when ``field`` is unknown to this spec section
    line: str | None = None  # set when the whole message is pinned


def _weak_dr(alpha):
    return {"kind": "ma-spl", "scheme": {"kind": "weak-dr", "alpha": alpha}}


def _weak_sub(gamma, beta):
    return {"kind": "ma-spl", "scheme": {"kind": "weak-sub", "gamma": gamma, "beta": beta}}


def _doc(**over) -> dict:
    return dict(CLI_DOC, **over)


# numbers and flags that used to be read through int(), float() or bool() and run
COERCED = [
    Refusal("step-size-bool", SPL, _doc(learner={"kind": "ma-spl", "step_size": True}),
            "step_size"),
    Refusal("step-size-str", MPL, _doc(learner={"kind": "ma-mpl", "step_size": "0.1"}),
            "step_size"),
    Refusal("agents-fraction", SPL, _doc(environment=dict(_FACILITY, agents=2.7)), "agents"),
    Refusal("radius-str", SPL, _doc(environment={"kind": "orbiting-targets", "radius": "4"}),
            "radius"),
    Refusal("coverage-agents-float", SPL, _doc(environment={"kind": "coverage", "agents": 3.0}),
            "agents"),
    Refusal("record-world-int", SPL,
            _doc(environment={"kind": "tracking-gain", "agents": 2, "record_world": 1}),
            "record_world"),
    Refusal("sizes-fraction", SPL, _doc(environment=dict(_TINY, sizes=[2.7, 2])), "sizes"),
    Refusal("speeds-bool", SPL,
            _doc(environment={"kind": "facility", "agents": 2, "speeds": [True, 2]}), "speeds"),
    Refusal("avg-degree-str", SPL, _doc(graph={"kind": "erdos_renyi", "avg_degree": "4"}),
            "avg_degree"),
    Refusal("graph-seed-fraction", SPL, _doc(graph={"kind": "erdos_renyi", "seed": 1.5}), "seed"),
    Refusal("edge-float", SPL, _doc(graph={"kind": "explicit", "edges": [[0, 1.0]]}), "edges"),
]

# fields a section does not take, which used to be ignored for the default
UNKNOWN_FIELDS = [
    Refusal("environment", SPL, _doc(environment=dict(_FACILITY, agnets=6)), "agnets",
            "environment"),
    Refusal("coverage-agnets", SPL, _doc(environment={"kind": "coverage", "agnets": 3}),
            "agnets", "environment"),
    Refusal("learner", SPL, _doc(learner={"kind": "ma-spl", "bacth": 3}), "bacth", "learner"),
    Refusal("graph", SPL, _doc(graph={"kind": "complete", "extra": 1}), "extra", "graph"),
    Refusal("scheme", SPL,
            _doc(learner={"kind": "ma-spl", "scheme": {"kind": "submodular", "gama": 1}}),
            "gama", "scheme"),
    Refusal("mpl-learner", MPL, _doc(learner={"kind": "ma-mpl", "batch": 3}), "batch",
            "learner"),
    Refusal("synthetic", SPL, _doc(environment=dict(_TINY, agents=2)), "agents", "environment"),
    Refusal("orbit", SPL, _doc(environment={"kind": "orbiting-targets", "slot": 2}), "slot",
            "environment"),
    Refusal("erdos-renyi", SPL, _doc(graph={"kind": "erdos_renyi", "degree": 3}), "degree",
            "graph"),
    # the run's horizon sets the world's; this one used to be overwritten
    Refusal("environment-horizon", SPL,
            _doc(environment={"kind": "orbiting-targets", "horizon": 7}, horizon=3), "horizon",
            "environment"),
]

# a library check's refusal used to print "error:"; an edge that is no pair
# used to print the whole graph spec and "too many values to unpack"
SPEC_VALUES = [
    Refusal("disconnected-graph", SPL,
            _doc(environment={"kind": "coverage", "agents": 3},
                 graph={"kind": "explicit", "edges": [[0, 1]]}),
            "edges", line="edges leave the explicit graph disconnected"),
    Refusal("no-agents", SPL, _doc(environment={"kind": "synthetic", "sizes": []}), "sizes",
            line="sizes (): partition needs at least one agent"),
    Refusal("edge-three-ends", SPL, _doc(graph={"kind": "explicit", "edges": [[0, 1], [0, 1, 2]]}),
            "edges", line="edges must be an array of 2 items, got [0, 1, 2]"),
    Refusal("edge-one-end", SPL, _doc(graph={"kind": "explicit", "edges": [[0, 1], [1]]}),
            "edges", line="edges must be an array of 2 items, got [1]"),
    Refusal("edge-triple", SPL, _doc(graph={"kind": "explicit", "edges": [[0, 1, 2]]}), "edges"),
]

# JSON writes these as NaN and Infinity, which a config may hold
NON_FINITE = [
    Refusal("radius-nan", SPL, _doc(environment={"kind": "orbiting-targets", "radius": math.nan}),
            "radius"),
    Refusal("radius-inf", SPL, _doc(environment={"kind": "orbiting-targets", "radius": math.inf}),
            "radius"),
    Refusal("target-radius-inf", SPL,
            _doc(environment={"kind": "orbiting-targets", "target_radius": -math.inf}),
            "target_radius"),
    Refusal("cycles-nan", SPL,
            _doc(environment={"kind": "orbiting-targets", "drift_cycles": math.nan}),
            "drift_cycles"),
    Refusal("cycles-inf", SPL,
            _doc(environment={"kind": "orbiting-targets", "drift_cycles": math.inf}),
            "drift_cycles"),
    Refusal("epsilon-nan", SPL,
            _doc(environment={"kind": "coverage", "agents": 3, "epsilon": math.nan, "k": 1}),
            "epsilon"),
    Refusal("epsilon-inf", SPL,
            _doc(environment={"kind": "coverage", "agents": 3, "epsilon": math.inf, "k": 1}),
            "epsilon"),
]

# values a run cannot carry: each used to run on (a bool count, utility 0.0
# after an overflow) or end in a traceback from the projection
BREAKS_RUN = [
    Refusal("mix-bool", SPL,
            _doc(environment=dict(_FACILITY, target_mix={"random": True, "polyline": 1})),
            "target_mix"),
    Refusal("mix-empty", SPL, _doc(environment=dict(_FACILITY, target_mix={})), "target_mix"),
    # past errors.TABLE_LIMIT in targets alone, so that a check placed after the
    # first allocation these fields size would fail at once, not allocate
    Refusal("world-huge", SPL,
            _doc(environment=dict(_FACILITY, agents=1, headings=1, speeds=[5.0],
                                  targets=10**15, target_mix={"random": 10**15})),
            "targets"),
    Refusal("facility-targets-huge", SPL,
            _doc(environment={"kind": "facility", "agents": 6, "targets": 100_000}), "targets"),
    Refusal("orbit-huge", SPL, _doc(environment={"kind": "orbiting-targets", "targets": 10**15}),
            "targets"),
    Refusal("speeds-huge", SPL, _doc(environment=dict(_FACILITY, speeds=[1e308])), "speeds"),
    Refusal("cycles-huge", SPL,
            _doc(environment={"kind": "orbiting-targets", "drift_cycles": 1e308}),
            "drift_cycles"),
    Refusal("spl-step-huge", SPL,
            _doc(environment=_COVERAGE, learner={"kind": "ma-spl", "step_size": 1e308}),
            "step_size"),
    Refusal("mpl-step-huge", MPL,
            _doc(environment=_COVERAGE, learner={"kind": "ma-mpl", "step_size": 1e308}),
            "step_size"),
    Refusal("epsilon-huge", SPL, _doc(environment={"kind": "coverage", "epsilon": 1e308}),
            "epsilon"),
    Refusal("two-agent-epsilon-huge", SPL,
            _doc(environment={"kind": "coverage", "agents": 2, "epsilon": 1e308}), "epsilon"),
    Refusal("beta-nan", SPL, _doc(learner=_weak_sub(0.5, math.nan)), "beta"),
    Refusal("beta-inf-rate-nan", SPL, _doc(learner=_weak_sub(1.0, math.inf)), "beta"),
    Refusal("beta-huge-rate", SPL, _doc(learner=_weak_sub(0.5, 1e308)), "beta"),
    Refusal("alpha-zero", SPL, _doc(learner=_weak_dr(0)), "alpha"),
    Refusal("alpha-past-one", SPL, _doc(learner=_weak_dr(2)), "alpha",
            line="weak-dr scheme needs alpha in (0, 1], got 2.0"),
    Refusal("alpha-nan", SPL, _doc(learner=_weak_dr(math.nan)), "alpha"),
    Refusal("gamma-zero", SPL, _doc(learner=_weak_sub(0, 1.5)), "gamma"),
    Refusal("gamma-past-one", SPL, _doc(learner=_weak_sub(1.5, 1.5)), "gamma"),
    # sizes below 1: a world with no targets failed in its first round
    Refusal("orbit-empty", SPL, _doc(environment={"kind": "orbiting-targets", "targets": 0}),
            "targets"),
    Refusal("orbit-negative", SPL, _doc(environment={"kind": "orbiting-targets", "targets": -1}),
            "targets"),
    Refusal("orbit-no-agents", SPL, _doc(environment={"kind": "orbiting-targets", "agents": 0}),
            "agents"),
    Refusal("orbit-no-slots", SPL, _doc(environment={"kind": "orbiting-targets", "slots": 0}),
            "slots"),
    Refusal("mpl-K", MPL, _doc(environment=_COVERAGE, learner={"kind": "ma-mpl", "K": 2}), "K"),
    Refusal("mpl-L", MPL, _doc(environment=_COVERAGE, learner={"kind": "ma-mpl", "L": 0}), "L"),
    # the value written, not the step eta0 / sqrt(horizon) derived from it
    Refusal("spl-eta0", SPL, _doc(environment=_COVERAGE, learner={"kind": "ma-spl", "eta0": -1}),
            "eta0", line="eta0 must give a finite positive step, got -1.0"),
    # graph and synthetic-world refusals name their field
    Refusal("graph-seed", SPL,
            _doc(environment=_COVERAGE, graph={"kind": "erdos_renyi", "seed": -1}), "seed"),
    Refusal("graph-avg-degree", SPL,
            _doc(environment=_COVERAGE, graph={"kind": "erdos_renyi", "avg_degree": -1}),
            "avg_degree"),
    Refusal("graph-one-agent", SPL,
            _doc(environment={"kind": "orbiting-targets", "agents": 1},
                 graph={"kind": "erdos_renyi"}), "agents"),
    Refusal("oracle-regret-huge", SPL,
            _doc(environment={"kind": "facility", "agents": 6, "targets": 3}, oracle_regret=True),
            "oracle_regret", line="oracle_regret needs every joint outcome enumerated: "
                                  "244,140,625 of them, past the limit of 1,000,000"),
    Refusal("graph-edge-range", SPL,
            _doc(environment=_COVERAGE, graph={"kind": "explicit", "edges": [[0, 5]]}), "edges"),
    Refusal("sizes-zero", SPL, _doc(environment={"kind": "synthetic", "sizes": [0, 2]}), "sizes"),
    Refusal("sizes-past-cap", SPL, _doc(environment={"kind": "synthetic", "sizes": [7, 7]}),
            "sizes"),
    # sizes past the cap, checked before the partition sizes its tables: the
    # first overflowed an int64 and the second asked for 7.45 GiB
    Refusal("sizes-overflow", SPL, _doc(environment={"kind": "synthetic", "sizes": [10**30]}),
            "sizes"),
    Refusal("sizes-huge", SPL, _doc(environment={"kind": "synthetic", "sizes": [10**9]}),
            "sizes"),
    # huge values, quoted by their first characters and their length: each of
    # these lines used to echo the whole value, 10,000 to 30,000 characters
    Refusal("sizes-long", SPL, _doc(environment={"kind": "synthetic", "sizes": [1] * 10**4}),
            "sizes"),
    Refusal("objective-long", SPL, _doc(environment=dict(_TINY, objective="x" * 10**4)),
            "objective"),
    Refusal("horizon-long-array", SPL, _doc(horizon=[5] * 10**4), "horizon"),
    Refusal("kind-long", SPL, _doc(environment={"kind": "x" * 10**4}), "environment"),
    # per-round tables past errors.TABLE_LIMIT, refused before they are allocated
    Refusal("spl-batch-huge", SPL,
            _doc(environment=_COVERAGE, learner={"kind": "ma-spl", "batch": 10**9}), "batch"),
    Refusal("mpl-L-huge", MPL, _doc(environment=_COVERAGE, learner={"kind": "ma-mpl", "L": 10**9}),
            "L"),
    Refusal("coverage-huge", SPL, _doc(environment={"kind": "coverage", "agents": 10**6}),
            "agents"),
    # a huge finite step (eta0/sqrt(2) about 7e307) whose ascent stays finite
    # but whose projection's block sums overflow
    Refusal("spl-eta0-huge", SPL,
            _doc(environment=_COVERAGE, horizon=2, learner={"kind": "ma-spl", "eta0": 1e308}),
            "eta0"),
    Refusal("mpl-eta0-huge", MPL,
            _doc(environment=_COVERAGE, horizon=2, learner={"kind": "ma-mpl", "eta0": 1e308}),
            "eta0"),
    Refusal("spl-step-near-max", SPL,
            _doc(environment=_COVERAGE, learner={"kind": "ma-spl", "step_size": 7e307}),
            "step_size"),
    # the exact gradient past enumeration scale, refused when the learner is built
    Refusal("spl-exact-gradient-huge", SPL,
            _doc(environment={"kind": "facility"},
                 learner={"kind": "ma-spl", "exact_gradient": True}),
            "exact_gradient"),
    # a graph whose n x n matrices pass the size limit, refused before any is built
    Refusal("graph-huge", SPL,
            _doc(environment={"kind": "orbiting-targets", "agents": 10**5, "slots": 1,
                              "targets": 1}),
            "agents"),
]

# documents of the wrong shape or kind
MALFORMED = [
    Refusal("array", SPL, [CLI_DOC], "config"),
    Refusal("agents", SPL, _doc(environment={"kind": "facility", "agents": "x"}), "agents"),
    Refusal("avg_degree", SPL,
            _doc(environment=_FACILITY, graph={"kind": "erdos_renyi", "avg_degree": "x"}),
            "avg_degree"),
    Refusal("edges", SPL, _doc(environment=_FACILITY, graph={"kind": "explicit"}), "edges"),
    Refusal("target_mix", SPL, _doc(environment=dict(_FACILITY, target_mix=[1])), "target_mix"),
    Refusal("target_kind", SPL, _doc(environment=dict(_FACILITY, target_mix={"ghost": 2})),
            "target_mix"),
    Refusal("scheme_str", SPL, _doc(learner={"kind": "ma-spl", "scheme": "x"}), "scheme"),
    Refusal("out", SPL, _doc(out=5), "out"),
    Refusal("speeds_nan", SPL, _doc(environment=dict(_FACILITY, speeds=[math.nan])), "speeds"),
    Refusal("speeds_inf", SPL, _doc(environment=dict(_FACILITY, speeds=[math.inf])), "speeds"),
    Refusal("learner_str", SPL, _doc(learner="x"), "learner"),
    Refusal("learner_int", SPL, _doc(learner=5), "learner"),
    Refusal("learner_list", SPL, _doc(learner=[1]), "learner"),
    Refusal("oracle_regret_str", SPL, _doc(oracle_regret="no"), "oracle_regret"),
    Refusal("exact_gradient_str", SPL, _doc(learner={"kind": "ma-spl", "exact_gradient": "no"}),
            "exact_gradient"),
    Refusal("environment_pairs", SPL,
            _doc(environment=[["kind", "synthetic"], ["sizes", [2, 2]]]), "environment"),
    Refusal("graph_pairs", SPL, _doc(graph=[["kind", "complete"]]), "graph"),
    Refusal("horizon_str", SPL, _doc(horizon="5"), "horizon"),
    Refusal("horizon_fraction", SPL, _doc(horizon=2.7), "horizon"),
    Refusal("horizon_float", SPL, _doc(horizon=5.0), "horizon"),
    Refusal("horizon_bool", SPL, _doc(horizon=True), "horizon"),
    Refusal("seed_bool", SPL, _doc(seed=True), "seed"),
    Refusal("seed_str", SPL, _doc(seed="0"), "seed"),
    Refusal("seed_null", SPL, _doc(seed=None), "seed"),
    Refusal("rho_str", SPL, _doc(rho="0.5"), "rho"),
    Refusal("rho_bool", SPL, _doc(rho=False), "rho"),
    Refusal("batch_str", SPL, _doc(learner={"kind": "ma-spl", "batch": "5"}), "batch"),
    Refusal("batch_fraction", SPL, _doc(learner={"kind": "ma-spl", "batch": 2.5}), "batch"),
    Refusal("eta0_str", SPL, _doc(learner={"kind": "ma-spl", "eta0": "1"}), "eta0"),
    Refusal("alpha_str", SPL,
            _doc(learner={"kind": "ma-spl", "scheme": {"kind": "weak-dr", "alpha": "1"}}),
            "alpha"),
]

# bad invocations; exit 2 is kept for a failed battery, so these exit 1
USAGE = [
    Refusal("usage-unknown-flag", ("run-spl", "--bogus"), None, None),
    Refusal("usage-verify-seed", ("verify", "--seed", "0"), None, None),
    Refusal("usage-no-command", (), None, None),
    Refusal("usage-unknown-preset", ("run-spl", "--preset", "nope"), None, None),
    Refusal("usage-bench-no-seeds",
            ("bench", "--preset", "facility-desk", "--out", "b", "--seeds", "0"), None, None),
    Refusal("usage-bench-negative-seeds",
            ("bench", "--preset", "facility-desk", "--out", "b", "--seeds", "-2"), None, None),
]

REFUSALS = [*COERCED, *UNKNOWN_FIELDS, *SPEC_VALUES, *NON_FINITE, *BREAKS_RUN, *MALFORMED, *USAGE]


def argv(entry: Refusal, directory: Path) -> list[str]:
    """The entry's arguments, with its config written into ``directory``."""
    if entry.config is None:
        return list(entry.command)
    path = directory / f"{entry.id}.json"
    path.write_text(json.dumps(entry.config))
    return [*entry.command, "--config", str(path)]


def check(entry: Refusal, code, err: str) -> list[str]:
    """What breaks the rule, given the exit code and stderr; empty when the refusal holds."""
    prefix = "usage error: " if entry.config is None else "config error: "
    problems = []
    if code != 1:
        problems.append(f"exit {code}, not 1")
    if not err.startswith(prefix) or err.count("\n") != 1 or not err.endswith("\n"):
        problems.append(f"not one {prefix.strip()!r} line")
    # after the prefix, so that a field named "config" cannot match it
    message = err.removeprefix(prefix).removesuffix("\n")
    if entry.section is not None:
        if f"unknown {entry.section} field {entry.field!r}" not in message:
            problems.append(f"names no unknown {entry.section} field {entry.field!r}")
    elif entry.field is not None and not re.search(rf"(?<![\w']){entry.field}(?![\w'])", message):
        # the field itself, not only a quoted key of an echoed spec
        problems.append(f"does not name {entry.field}")
    if len(err) - 1 > MAX_LINE:  # the newline aside
        problems.append(f"is {len(err) - 1:,} characters long, past {MAX_LINE}")
    if entry.line is not None and message != entry.line:
        problems.append(f"is not {entry.line!r}")
    return problems


def run(prefix: list[str], entries: list[Refusal] = REFUSALS) -> int:
    """Run every entry as ``prefix`` plus its arguments; print each entry that
    breaks the rule, and return 1 if any does."""
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for entry in entries:
            done = subprocess.run([*prefix, *argv(entry, Path(tmp))], capture_output=True,
                                  text=True)
            problems = check(entry, done.returncode, done.stderr)
            if problems:
                failed += 1
                print(f"{entry.id}: {'; '.join(problems)}; stderr: {done.stderr!r}")
    print(f"{len(entries) - failed} of {len(entries)} refusals hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:] or ["macoord"]))
