"""Experiment orchestration: configs, the round loop, regret, and export.

A run couples one environment, one communication graph, and one learner for a
fixed horizon.  Per round the harness asks the environment for the current
objective, lets the learner pick a feasible selection, logs the realized
utility (optionally against the brute-force per-round optimum), and then
advances the world.  CSV/JSON exports carry exactly the columns
``t, utility, opt, cum_regret, disagreement, queries``.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, MacoordError, ScaleError, check_fields, config_field
from .extension import SurrogateScheme
from .ground import Partition
from .learners import (
    GreedyLearner,
    MetaConditionalGradientLearner,
    PolicyConsensusLearner,
    RandomLearner,
)
from .network import CommGraph, graph_from_spec
from .envs import make_environment
from .oracle import brute_force_opt

LEARNER_KINDS = ("ma-spl", "ma-mpl", "random", "greedy")


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
    environment: dict
    graph: dict
    learner: dict
    horizon: int
    seed: int
    oracle_regret: bool = False
    rho: float = 1.0
    out: Optional[str] = None

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed}")
        if not isinstance(self.environment, dict) or "kind" not in self.environment:
            raise ConfigError("environment spec needs a 'kind'")
        if not isinstance(self.graph, dict) or "kind" not in self.graph:
            raise ConfigError("graph spec needs a 'kind'")
        kind = self.learner.get("kind") if isinstance(self.learner, dict) else None
        if kind not in LEARNER_KINDS:
            raise ConfigError(f"learner kind must be one of {LEARNER_KINDS}, got {kind!r}")
        if not (0.0 <= self.rho <= 1.0):
            raise ConfigError("rho must lie in [0, 1]")
        if self.out is not None and not isinstance(self.out, (str, os.PathLike)):
            raise ConfigError(f"out must be a directory path, got {self.out!r}")

    @staticmethod
    def from_dict(doc: dict) -> "RunConfig":
        check_fields(
            "config",
            doc,
            ("environment", "graph", "learner", "horizon", "seed", "oracle_regret", "rho", "out"),
        )
        try:
            return RunConfig(
                environment=config_field(doc, "environment", dict),
                graph=config_field(doc, "graph", dict, {"kind": "complete"}),
                learner=config_field(doc, "learner", dict),
                horizon=config_field(doc, "horizon", int),
                seed=config_field(doc, "seed", int, 0),
                oracle_regret=config_field(doc, "oracle_regret", bool, False),
                rho=config_field(doc, "rho", float, 1.0),
                out=doc.get("out"),
            )
        except KeyError as exc:
            raise ConfigError(f"missing config field: {exc.args[0]}") from exc


def scheme_from_dict(doc: Optional[dict]) -> SurrogateScheme:
    doc = doc or {"kind": "submodular"}
    if not isinstance(doc, dict):
        raise ConfigError(f"surrogate scheme must be an object with a 'kind', got {doc!r}")
    kind = doc.get("kind")
    try:
        if kind == "submodular":
            check_fields("scheme", doc, ("kind",))
            return SurrogateScheme.submodular()
        if kind == "weak-dr":
            check_fields("scheme", doc, ("kind", "alpha"))
            return SurrogateScheme.weak_dr(config_field(doc, "alpha", float))
        if kind == "weak-sub":
            check_fields("scheme", doc, ("kind", "gamma", "beta"))
            return SurrogateScheme.weak_sub(
                config_field(doc, "gamma", float), config_field(doc, "beta", float)
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad surrogate scheme {doc}: {exc}") from exc
    raise ConfigError(f"unknown surrogate scheme kind {kind!r}")


@contextmanager
def _spec_errors(what: str, spec: dict):
    """Report a bad value in a config mapping as a one-line ConfigError."""
    try:
        yield
    except MacoordError:
        raise
    except KeyError as exc:
        raise ConfigError(f"bad {what} spec {spec}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what} spec {spec}: {exc}") from exc


def make_learner(cfg: RunConfig, partition: Partition, graph: CommGraph):
    doc = cfg.learner
    kind = doc["kind"]
    with _spec_errors("learner", doc):
        if kind == "ma-spl":
            check_fields(
                "learner", doc, ("kind", "scheme", "eta0", "batch", "exact_gradient", "step_size")
            )
            return PolicyConsensusLearner(
                partition,
                graph,
                scheme_from_dict(doc.get("scheme")),
                horizon=cfg.horizon,
                seed=cfg.seed,
                eta0=config_field(doc, "eta0", float, 1.0),
                batch=config_field(doc, "batch", int, 10),
                exact_gradient=config_field(doc, "exact_gradient", bool, False),
                step_size=doc.get("step_size"),
            )
        if kind == "ma-mpl":
            check_fields("learner", doc, ("kind", "K", "L", "eta0", "step_size"))
            return MetaConditionalGradientLearner(
                partition,
                graph,
                horizon=cfg.horizon,
                seed=cfg.seed,
                inner_steps=config_field(doc, "K", int, 15),
                sample_batch=config_field(doc, "L", int, 10),
                eta0=config_field(doc, "eta0", float, 1.0),
                step_size=doc.get("step_size"),
            )
        check_fields("learner", doc, ("kind",))
        if kind == "random":
            return RandomLearner(partition, cfg.seed)
        if kind == "greedy":
            return GreedyLearner(partition)
    raise ConfigError(f"unknown learner kind {kind!r}")


def run_experiment(cfg: RunConfig) -> list[RoundLog]:
    """Execute one full run; deterministic in the config (incl. seed)."""
    env_spec = {**cfg.environment, "horizon": cfg.horizon}
    env_spec["kind"] = ENV_KIND_ALIASES.get(env_spec.get("kind"), env_spec.get("kind"))
    with _spec_errors("environment", env_spec):
        env = make_environment(env_spec, cfg.seed)
    partition = env.partition
    if cfg.oracle_regret:
        try:
            partition.check_enumerable()
        except ScaleError as exc:
            raise ConfigError(f"oracle regret requested beyond enumeration scale: {exc}") from exc
    with _spec_errors("graph", cfg.graph):
        graph = graph_from_spec(cfg.graph, partition.n_agents)
    learner = make_learner(cfg, partition, graph)

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
                queries=learner.budget.total(),
            )
        )
        env.finish_round(chosen)
    if getattr(env, "record_world", False) and cfg.out:
        write_world_trace(env.trajectory_rows(), Path(cfg.out) / "world.csv")
    return logs


CSV_COLUMNS = ("t", "utility", "opt", "cum_regret", "disagreement", "queries")


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def export_csv(logs: Sequence[RoundLog], path: "Path | str") -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for log in logs:
            writer.writerow([_cell(getattr(log, c)) for c in CSV_COLUMNS])
    return path


def export_json(logs: Sequence[RoundLog], path: "Path | str") -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump([asdict(log) for log in logs], fh, indent=2)
        fh.write("\n")
    return path


def write_world_trace(rows: Sequence[tuple], path: "Path | str") -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("tick", "entity", "x", "y", "kind"))
        for tick, entity, x, y, kind in rows:
            writer.writerow((tick, entity, repr(x), repr(y), kind))
    return path


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

ENV_KIND_ALIASES = {"ekf": "tracking-gain"}


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
            doc = json.loads(json.dumps(base))
            doc["learner"] = learner_doc
            doc["seed"] = int(seed)
            cfg = RunConfig.from_dict(doc)
            logs = run_experiment(cfg)
            export_csv(logs, out_dir / label / f"seed{seed}.csv")
            per_seed.append(float(np.mean([log.utility for log in logs])))
        summary["learners"][label] = {
            "per_seed_mean_utility": per_seed,
            "mean_utility": float(np.mean(per_seed)),
        }
    with (out_dir / "summary.json").open("w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return summary
