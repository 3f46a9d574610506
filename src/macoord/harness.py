"""Experiment orchestration: configs, the round loop, regret, and export.

A run couples one environment, one communication graph, and one learner for a
fixed horizon.  Per round the harness asks the environment for the current
objective, lets the learner pick a feasible selection, logs the realized
utility (optionally against the brute-force per-round optimum), and then
advances the world.  With ``out`` set it writes every file of the run there:
``rounds.csv`` and ``rounds.json`` carry exactly the columns ``t, utility,
opt, cum_regret, disagreement, queries``; a recording world adds ``world.csv``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import REQUIRED, ConfigError, MacoordError, read_kind, read_section
from .extension import SurrogateScheme
from .ground import Partition
from .learners import (GreedyLearner, MetaConditionalGradientLearner, PolicyConsensusLearner,
                       RandomLearner)
from .network import CommGraph, graph_from_spec
from .envs import make_environment
from .oracle import brute_force_opt

# Each spec section's fields, name -> (JSON kind, default), read by
# errors.read_section: the top level, and the learner and its scheme per kind.
# A coordination learner takes its kind's fields, under these names and with
# no defaults of its own, as keyword arguments (make_learner).
CONFIG_FIELDS = {
    "environment": (dict, REQUIRED),
    "graph": (dict, {"kind": "complete"}),
    "learner": (dict, REQUIRED),
    "horizon": (int, REQUIRED),
    "seed": (int, 0),
    "oracle_regret": (bool, False),
    "rho": (float, 1.0),
    "out": (str, None),
}
LEARNER_FIELDS = {
    "ma-spl": {
        "scheme": (dict, None),  # submodular
        "eta0": (float, 1.0),
        "batch": (int, 10),
        "exact_gradient": (bool, False),
        "step_size": (float, None),  # eta0 / sqrt(horizon)
    },
    "ma-mpl": {"K": (int, 15), "L": (int, 10), "eta0": (float, 1.0), "step_size": (float, None)},
    "random": {},
    "greedy": {},
}
SCHEME_FIELDS = {
    "submodular": {},
    "weak-dr": {"alpha": (float, REQUIRED)},
    "weak-sub": {"gamma": (float, REQUIRED), "beta": (float, REQUIRED)},
}


@dataclass(frozen=True)
class RoundLog:
    t: int
    utility: float
    opt: Optional[float]
    cum_regret: Optional[float]
    disagreement: float
    queries: int


@dataclass
class RunConfig:
    """A run's top-level config (:data:`CONFIG_FIELDS`); the sections stay
    mappings until their readers build the run's parts."""

    environment: dict
    graph: dict
    learner: dict
    horizon: int
    seed: int
    oracle_regret: bool
    rho: float
    out: Optional[str]

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed}")
        read_kind("learner", self.learner, LEARNER_FIELDS)  # refused before the run starts
        if not (0.0 <= self.rho <= 1.0):
            raise ConfigError("rho must lie in [0, 1]")

    @staticmethod
    def from_dict(doc: dict) -> "RunConfig":
        return RunConfig(**read_section("config", doc, CONFIG_FIELDS))


def scheme_from_dict(doc: Optional[dict]) -> SurrogateScheme:
    """The surrogate scheme of a learner's ``scheme`` spec; none is submodular."""
    kind, fields = read_kind("scheme", doc or {"kind": "submodular"}, SCHEME_FIELDS)
    if kind == "weak-dr":
        return SurrogateScheme.weak_dr(fields["alpha"])
    if kind == "weak-sub":
        return SurrogateScheme.weak_sub(fields["gamma"], fields["beta"])
    return SurrogateScheme.submodular()


def make_learner(spec: dict, partition: Partition, graph: CommGraph, horizon: int, seed: int):
    """The learner of a learner spec, for a run of ``horizon`` rounds.  A
    coordination learner takes its :data:`LEARNER_FIELDS` as they are
    declared, with the ``scheme`` spec read into a surrogate scheme."""
    kind, fields = read_kind("learner", spec, LEARNER_FIELDS)
    if kind == "random":
        return RandomLearner(partition, seed)
    if kind == "greedy":
        return GreedyLearner(partition)
    if kind == "ma-spl":
        fields["scheme"] = scheme_from_dict(fields["scheme"])
    cls = PolicyConsensusLearner if kind == "ma-spl" else MetaConditionalGradientLearner
    return cls(partition, graph, horizon=horizon, seed=seed, **fields)


def run_experiment(cfg: RunConfig) -> list[RoundLog]:
    """Execute one full run; it and its files are deterministic in the config.
    Building it is the one place where a check's refusal, a MacoordError that
    names its field, becomes a ConfigError."""
    try:
        env = make_environment(cfg.environment, cfg.seed, cfg.horizon)
        partition = env.partition
        if cfg.oracle_regret:
            partition.check_enumerable("oracle_regret")
        graph = graph_from_spec(cfg.graph, partition.n_agents)
        learner = make_learner(cfg.learner, partition, graph, cfg.horizon, cfg.seed)
    except ConfigError:
        raise
    except MacoordError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.out:  # made before the rounds, so that a path that cannot be one is refused at once
        try:
            Path(cfg.out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"out cannot be made a directory: {exc.strerror}") from exc

    logs: list[RoundLog] = []
    cum_regret = 0.0
    for t in range(1, cfg.horizon + 1):
        f = env.begin_round()
        chosen = learner.round(f, t)
        utility = float(f.value(partition.members(chosen[None]))[0])
        opt: Optional[float] = None
        regret: Optional[float] = None
        if cfg.oracle_regret:
            _, opt = brute_force_opt(f)
            cum_regret += cfg.rho * opt - utility
            regret = cum_regret
        logs.append(
            RoundLog(
                t=t,
                utility=utility,
                opt=opt,
                cum_regret=regret,
                disagreement=float(learner.disagreement()),
                queries=int(learner.queries.sum()),
            )
        )
        env.finish_round(chosen)
    if cfg.out:
        out = Path(cfg.out)
        export_csv(logs, out / "rounds.csv")
        export_json(logs, out / "rounds.json")
        if getattr(env, "record_world", False):
            write_world_trace(env.trajectory_rows(), out / "world.csv")
    return logs


CSV_COLUMNS = tuple(field.name for field in fields(RoundLog))


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path: "Path | str", header: Sequence[str], rows) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def export_csv(logs: Sequence[RoundLog], path: "Path | str") -> Path:
    return _write_csv(path, CSV_COLUMNS,
                      ([_cell(getattr(log, c)) for c in CSV_COLUMNS] for log in logs))


def write_json(doc, path: "Path | str") -> Path:
    """``doc`` as JSON indented by two, newline-terminated: every JSON file written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def export_json(logs: Sequence[RoundLog], path: "Path | str") -> Path:
    return write_json([asdict(log) for log in logs], path)


def write_world_trace(rows: Sequence[tuple], path: "Path | str") -> Path:
    return _write_csv(path, ("tick", "entity", "x", "y", "kind"),
                      ((tick, entity, repr(x), repr(y), kind) for tick, entity, x, y, kind in rows))


# ---------------------------------------------------------------------------
# presets (desk-scale defaults; full-scale variants kept for completeness)
# ---------------------------------------------------------------------------

PRESETS: dict[str, dict] = {
    "facility-desk": {
        "environment": {"kind": "facility", "agents": 6, "targets": 8},
        "graph": {"kind": "complete"},
        "learner": {"kind": "ma-spl", "scheme": {"kind": "submodular"}},
        "horizon": 300,
        "seed": 0,
    },
    "tracking-desk": {
        "environment": {"kind": "tracking-gain", "agents": 6, "targets": 8},
        "graph": {"kind": "complete"},
        "learner": {"kind": "ma-spl", "scheme": {"kind": "weak-dr", "alpha": 1.0}},
        "horizon": 300,
        "seed": 0,
    },
    "facility-full": {
        "environment": {"kind": "facility", "agents": 20, "targets": 30},
        "graph": {"kind": "complete"},
        "learner": {"kind": "ma-spl", "scheme": {"kind": "submodular"}},
        "horizon": 1250,
        "seed": 0,
    },
    "tracking-full": {
        "environment": {"kind": "tracking-gain", "agents": 20, "targets": 30},
        "graph": {"kind": "complete"},
        "learner": {"kind": "ma-spl", "scheme": {"kind": "weak-dr", "alpha": 1.0}},
        "horizon": 1250,
        "seed": 0,
    },
    "coverage-escape": {
        "environment": {"kind": "coverage", "agents": 3, "epsilon": 0.1, "k": 1},
        "graph": {"kind": "complete"},
        "learner": {
            "kind": "ma-spl",
            "scheme": {"kind": "submodular"},
            "exact_gradient": True,
        },
        "horizon": 500,
        "seed": 0,
    },
    "orbit-regret": {
        "environment": {
            "kind": "orbiting-targets",
            "agents": 3,
            "slots": 2,
            "targets": 2,
            "drift_cycles": 4.0,
        },
        "graph": {"kind": "complete"},
        "learner": {
            "kind": "ma-spl",
            "scheme": {"kind": "submodular"},
            "eta0": 0.05,
            "batch": 8,
        },
        "horizon": 2000,
        "seed": 0,
        "oracle_regret": True,
        "rho": 1.0 - 1.0 / math.e,
    },
}

# learner matrices exercised by the `bench` subcommand, per preset
BENCH_MATRICES: dict[str, list[tuple[str, dict]]] = {
    "facility-desk": [
        ("ma-spl", {"kind": "ma-spl", "scheme": {"kind": "submodular"}}),
        ("greedy", {"kind": "greedy"}),
        ("random", {"kind": "random"}),
    ],
    "tracking-desk": [
        ("ma-spl-a0.1", {"kind": "ma-spl", "scheme": {"kind": "weak-dr", "alpha": 0.1}}),
        ("ma-spl-a1", {"kind": "ma-spl", "scheme": {"kind": "weak-dr", "alpha": 1.0}}),
        ("ma-mpl", {"kind": "ma-mpl"}),
        ("random", {"kind": "random"}),
    ],
}

def resolve_preset(name: str) -> dict:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return json.loads(json.dumps(PRESETS[name]))  # deep copy


def run_bench(
    preset: str, out_dir: "Path | str", seeds: Sequence[int] = (0, 1, 2, 3, 4)
) -> dict:
    """Run the preset's learner matrix over several seeds; write CSVs + summary.

    The summary reports, per learner, the per-seed mean utility (equal to the
    running-average utility at the final round) and its seed average.
    """
    if preset not in BENCH_MATRICES:
        raise ConfigError(
            f"preset {preset!r} has no bench matrix; available: {sorted(BENCH_MATRICES)}"
        )
    if not seeds:
        raise ConfigError("bench needs at least one seed")
    base = resolve_preset(preset)
    out_dir = Path(out_dir)
    summary: dict = {"preset": preset, "seeds": list(seeds), "learners": {}}
    for label, learner_doc in BENCH_MATRICES[preset]:
        per_seed = []
        for seed in seeds:
            cfg = RunConfig.from_dict({**base, "learner": learner_doc, "seed": int(seed)})
            logs = run_experiment(cfg)
            export_csv(logs, out_dir / label / f"seed{seed}.csv")
            per_seed.append(float(np.mean([log.utility for log in logs])))
        summary["learners"][label] = {
            "per_seed_mean_utility": per_seed,
            "mean_utility": float(np.mean(per_seed)),
        }
    write_json(summary, out_dir / "summary.json")
    return summary
