"""Experiment harness: configs, runs, exports, presets, bench, CLI.

Runs here are kept tiny (synthetic objectives, short horizons); the
full-scale benchmark claims live in the acceptance suite.
"""

import csv
import inspect
import json
import math
import re
import typing
import warnings

import numpy as np
import pytest

import macoord.cli as cli
from macoord.cli import main
from macoord.envs import ENVIRONMENT_FIELDS, make_environment
from macoord.errors import REQUIRED, ConfigError
from macoord.extension import SurrogateScheme
from macoord.ground import Partition
from macoord.harness import (
    BENCH_MATRICES,
    CONFIG_FIELDS,
    CSV_COLUMNS,
    LEARNER_FIELDS,
    PRESETS,
    SCHEME_FIELDS,
    RoundLog,
    RunConfig,
    export_csv,
    export_json,
    make_learner,
    resolve_preset,
    run_bench,
    run_experiment,
    scheme_from_dict,
    write_world_trace,
)
from macoord.network import GRAPH_FIELDS, CommGraph, graph_from_spec
from macoord.verification import CheckResult

TINY_ENV = {"kind": "synthetic", "objective": "coverage-random", "sizes": [2, 2]}


def tiny_config(**over):
    doc = {
        "environment": dict(TINY_ENV),
        "graph": {"kind": "complete"},
        "learner": {"kind": "random"},
        "horizon": 4,
        "seed": 0,
    }
    doc.update(over)
    return RunConfig.from_dict(doc)


# ---------------------------------------------------------------------------
# configuration objects
# ---------------------------------------------------------------------------


def test_run_config_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        RunConfig.from_dict(
            {
                "environment": TINY_ENV,
                "learner": {"kind": "random"},
                "horizon": 4,
                "verbosity": 3,
            }
        )


def test_run_config_requires_core_fields():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"learner": {"kind": "random"}, "horizon": 4})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"environment": TINY_ENV, "horizon": 4})
    with pytest.raises(ConfigError):
        tiny_config(horizon=0)
    with pytest.raises(ConfigError):
        tiny_config(learner={"kind": "simulated-annealing"})
    with pytest.raises(ConfigError):
        tiny_config(rho=1.5)


def test_run_config_defaults():
    cfg = RunConfig.from_dict(
        {"environment": TINY_ENV, "learner": {"kind": "random"}, "horizon": 4}
    )
    assert cfg.graph == {"kind": "complete"}
    assert cfg.seed == 0
    assert cfg.oracle_regret is False
    assert cfg.rho == 1.0


def test_run_config_number_types():
    # an int is a number, and numpy integers are integers; test_cli_config_errors_exit_one
    # has the values that are refused
    cfg = tiny_config(horizon=3, seed=np.int64(2), rho=1)
    assert (cfg.horizon, cfg.seed, cfg.rho) == (3, 2, 1.0)
    assert type(cfg.seed) is int and type(cfg.rho) is float


def test_scheme_from_dict():
    assert scheme_from_dict(None) == SurrogateScheme.submodular()
    assert scheme_from_dict({"kind": "weak-dr", "alpha": 0.3}) == SurrogateScheme(0.3, False)
    s = scheme_from_dict({"kind": "weak-sub", "gamma": 0.8, "beta": 1.2})
    assert s == SurrogateScheme(1.2 * (1 - 0.8) + 0.8**2, False)
    with pytest.raises(ConfigError):
        scheme_from_dict({"kind": "weak-dr"})  # missing alpha
    with pytest.raises(ConfigError):
        scheme_from_dict({"kind": "fourier"})


def test_make_learner_kinds():
    from macoord.learners import (
        GreedyLearner,
        MetaConditionalGradientLearner,
        PolicyConsensusLearner,
        RandomLearner,
    )

    env = make_environment(TINY_ENV, 0, 4)
    graph = graph_from_spec({"kind": "complete"}, 2)
    for kind, cls in (
        ("ma-spl", PolicyConsensusLearner),
        ("ma-mpl", MetaConditionalGradientLearner),
        ("random", RandomLearner),
        ("greedy", GreedyLearner),
    ):
        assert isinstance(make_learner({"kind": kind}, env.partition, graph, 4, 0), cls)
    with pytest.raises(ConfigError):
        make_learner({"kind": "ma-spl", "batch": "many"}, env.partition, graph, 4, 0)


def test_learner_settings_are_declared_once():
    # the learner classes keep no defaults of their own, so a spec that names
    # no field runs on the defaults LEARNER_FIELDS declares
    p, graph, horizon = Partition((2, 3)), CommGraph.complete(2), 16
    built = {kind: make_learner({"kind": kind}, p, graph, horizon, 0) for kind in LEARNER_FIELDS}
    for kind, learner in built.items():
        params = inspect.signature(type(learner)).parameters.values()
        defaults = [param.name for param in params if param.default is not param.empty]
        assert defaults == [], (kind, defaults)
    spl, mpl = built["ma-spl"], built["ma-mpl"]
    assert (spl.batch, spl.exact_gradient, spl.scheme) == (10, False, SurrogateScheme.submodular())
    assert (mpl.K, mpl.L) == (15, 10)
    assert spl.step_size == mpl.step_size == 1.0 / math.sqrt(horizon)


# ---------------------------------------------------------------------------
# running experiments
# ---------------------------------------------------------------------------


def test_run_experiment_single_round_known_value():
    # with one action per agent the random baseline has no choice to make
    cfg = tiny_config(
        environment={"kind": "synthetic", "objective": "modular", "sizes": [1, 1]},
        horizon=1,
    )
    logs = run_experiment(cfg)
    env = make_environment(cfg.environment, cfg.seed, 1)
    f = env.begin_round()
    expect = f.value(f.partition.members(np.array([[0, 0]])))[0]
    assert len(logs) == 1
    assert logs[0].t == 1
    assert logs[0].utility == pytest.approx(expect, abs=1e-12)
    assert logs[0].opt is None and logs[0].cum_regret is None


def test_run_experiment_is_deterministic():
    cfg = tiny_config(learner={"kind": "ma-spl", "batch": 2}, horizon=6)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a == b
    c = run_experiment(tiny_config(learner={"kind": "ma-spl", "batch": 2},
                                   horizon=6, seed=1))
    assert a != c


def test_run_experiment_oracle_regret_columns():
    cfg = tiny_config(oracle_regret=True, rho=0.5, horizon=3)
    logs = run_experiment(cfg)
    cum = 0.0
    for log in logs:
        assert log.opt is not None
        cum += 0.5 * log.opt - log.utility
        assert log.cum_regret == pytest.approx(cum, abs=1e-12)


def test_run_experiment_regret_needs_enumerable_scale():
    cfg = tiny_config(
        environment={"kind": "facility", "agents": 6, "targets": 3},
        oracle_regret=True,
    )
    with pytest.raises(ConfigError):
        run_experiment(cfg)


def test_ekf_alias_is_tracking_gain():
    base = dict(
        graph={"kind": "complete"},
        learner={"kind": "random"},
        horizon=3,
        seed=2,
    )
    a = run_experiment(
        RunConfig.from_dict(
            {"environment": {"kind": "ekf", "agents": 2, "targets": 2}, **base}
        )
    )
    b = run_experiment(
        RunConfig.from_dict(
            {
                "environment": {"kind": "tracking-gain", "agents": 2, "targets": 2},
                **base,
            }
        )
    )
    assert a == b


def test_run_experiment_writes_world_trace(tmp_path):
    cfg = RunConfig.from_dict(
        {
            "environment": {
                "kind": "facility",
                "agents": 2,
                "targets": 2,
                "record_world": True,
            },
            "learner": {"kind": "random"},
            "horizon": 3,
            "out": str(tmp_path),
        }
    )
    run_experiment(cfg)
    rows = list(csv.reader((tmp_path / "world.csv").open()))
    assert rows[0] == ["tick", "entity", "x", "y", "kind"]
    assert len(rows) == 1 + (2 + 2) * 4  # header + (agents+targets) x (T+1)
    assert rows[1][1] == "agent:0"


# ---------------------------------------------------------------------------
# persistence formats
# ---------------------------------------------------------------------------


def test_export_csv_format_and_roundtrip(tmp_path):
    logs = [
        RoundLog(t=1, utility=1 / 3, opt=None, cum_regret=None, disagreement=0.25,
                 queries=12),
        RoundLog(t=2, utility=2.5, opt=3.0, cum_regret=0.5, disagreement=0.0,
                 queries=12),
    ]
    path = export_csv(logs, tmp_path / "rounds.csv")
    rows = list(csv.reader(path.open()))
    assert rows[0] == list(CSV_COLUMNS)
    assert rows[1][2] == "" and rows[1][3] == ""  # absent oracle columns
    # float cells round-trip exactly through repr
    assert float(rows[1][1]) == 1 / 3
    assert rows[2] == ["2", "2.5", "3.0", "0.5", "0.0", "12"]


def test_export_json_roundtrip(tmp_path):
    logs = [
        RoundLog(t=1, utility=0.1, opt=0.2, cum_regret=0.1, disagreement=0.0,
                 queries=3),
        RoundLog(t=2, utility=0.3, opt=None, cum_regret=None, disagreement=1.5,
                 queries=3),
    ]
    path = export_json(logs, tmp_path / "rounds.json")
    with path.open() as fh:
        assert [RoundLog(**row) for row in json.load(fh)] == logs


def test_write_world_trace_format(tmp_path):
    rows = [(0, "agent:0", 0.1, -2.0, "agent"), (1, "target:0", 1 / 3, 0.0, "random")]
    path = write_world_trace(rows, tmp_path / "world.csv")
    got = list(csv.reader(path.open()))
    assert got[0] == ["tick", "entity", "x", "y", "kind"]
    assert float(got[2][2]) == 1 / 3


# ---------------------------------------------------------------------------
# presets and bench
# ---------------------------------------------------------------------------


def test_resolve_preset_returns_deep_copy():
    r = resolve_preset("facility-desk")
    r["environment"]["agents"] = 999
    assert PRESETS["facility-desk"]["environment"]["agents"] == 6
    with pytest.raises(ConfigError):
        resolve_preset("galaxy-scale")


def test_preset_documents_are_valid_configs():
    for name in PRESETS:
        cfg = RunConfig.from_dict(resolve_preset(name))
        assert cfg.horizon >= 1


def test_run_bench_tiny_matrix(tmp_path):
    PRESETS["tiny-test"] = {
        "environment": {"kind": "coverage", "agents": 2, "epsilon": 0.1, "k": 1},
        "graph": {"kind": "complete"},
        "learner": {"kind": "random"},
        "horizon": 5,
        "seed": 0,
    }
    BENCH_MATRICES["tiny-test"] = [
        ("random", {"kind": "random"}),
        ("greedy", {"kind": "greedy"}),
    ]
    try:
        summary = run_bench("tiny-test", tmp_path, seeds=(0, 1))
        assert (tmp_path / "random" / "seed0.csv").exists()
        assert (tmp_path / "greedy" / "seed1.csv").exists()
        saved = json.loads((tmp_path / "summary.json").read_text())
        assert saved == summary
        assert summary["seeds"] == [0, 1]
        stats = summary["learners"]
        assert len(stats["random"]["per_seed_mean_utility"]) == 2
        # the static instance never changes, so greedy dominates random
        assert stats["greedy"]["mean_utility"] >= stats["random"]["mean_utility"]
        rows = list(csv.reader((tmp_path / "greedy" / "seed0.csv").open()))
        assert len(rows) == 1 + 5
    finally:
        PRESETS.pop("tiny-test")
        BENCH_MATRICES.pop("tiny-test")
    with pytest.raises(ConfigError):
        run_bench("facility-full", tmp_path)  # no bench matrix for this preset


def test_run_bench_refuses_empty_seeds(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="at least one seed"):
            run_bench("facility-desk", tmp_path / "bench", seeds=())
    assert not (tmp_path / "bench").exists()


def test_tracking_desk_learners_leave_their_uniform_start():
    # the learners step by eta0 / sqrt(T), which is sized for gradients of
    # order one; a reward in units too small for it leaves the played
    # distributions at their uniform start, so the two ma-spl weightings of
    # the bench matrix replay identical draws round after round
    rounds = 20
    departure = {}
    for label, learner_doc in BENCH_MATRICES["tracking-desk"]:
        if not label.startswith("ma-spl"):
            continue
        doc = resolve_preset("tracking-desk")
        doc["learner"] = learner_doc
        cfg = RunConfig.from_dict(doc)
        env = make_environment(cfg.environment, cfg.seed, cfg.horizon)
        graph = graph_from_spec(cfg.graph, env.partition.n_agents)
        learner = make_learner(cfg.learner, env.partition, graph, cfg.horizon, cfg.seed)
        for t in range(1, rounds + 1):
            env.finish_round(learner.round(env.begin_round(), t))
        # largest relative move of a played probability away from 1/k
        p = env.partition
        blocks = p.pad(learner.played_profile().row)
        played = p.unpad(blocks / blocks.sum(axis=-1, keepdims=True))
        departure[label] = float(np.abs(played * np.repeat(p.sizes, p.sizes) - 1.0).max())
    assert set(departure) == {"ma-spl-a0.1", "ma-spl-a1"}
    assert min(departure.values()) > 2e-3, departure


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------


def _write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


CLI_DOC = {
    "environment": TINY_ENV,
    "graph": {"kind": "complete"},
    "learner": {"kind": "ma-spl", "batch": 1},
    "horizon": 5,
    "seed": 0,
}


def test_cli_run_spl_writes_outputs(tmp_path, capsys):
    cfg = _write_config(tmp_path, CLI_DOC)
    out = tmp_path / "out"
    rc = main(["run-spl", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert "ma-spl: T=5 mean utility" in capsys.readouterr().out
    rows = list(csv.reader((out / "rounds.csv").open()))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 6
    with (out / "rounds.json").open() as fh:
        assert len(json.load(fh)) == 5


def test_cli_forces_learner_kind(tmp_path, capsys):
    cfg = _write_config(tmp_path, CLI_DOC)  # says ma-spl
    rc = main(["run-mpl", "--config", str(cfg)])
    assert rc == 0
    assert capsys.readouterr().out.startswith("ma-mpl: T=5")


def test_cli_baseline_flag(tmp_path, capsys):
    cfg = _write_config(tmp_path, CLI_DOC)
    assert main(["run-baseline", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.startswith("random: T=5")
    assert main(["run-baseline", "--baseline", "greedy", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.startswith("greedy: T=5")


def test_cli_seed_override_changes_run(tmp_path):
    cfg = _write_config(tmp_path, {**CLI_DOC, "learner": {"kind": "random"}})
    out1, out2, out3 = (tmp_path / n for n in ("a", "b", "c"))
    main(["run-baseline", "--config", str(cfg), "--out", str(out1)])
    main(["run-baseline", "--config", str(cfg), "--out", str(out2)])
    main(["run-baseline", "--config", str(cfg), "--seed", "7", "--out", str(out3)])
    same = (out1 / "rounds.csv").read_bytes() == (out2 / "rounds.csv").read_bytes()
    diff = (out1 / "rounds.csv").read_bytes() != (out3 / "rounds.csv").read_bytes()
    assert same and diff


def test_cli_config_errors_exit_one(tmp_path, capsys):
    assert main(["run-spl"]) == 1  # neither --config nor --preset
    assert "config error" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run-spl", "--config", str(bad)]) == 1
    missing = tmp_path / "nope.json"
    assert main(["run-spl", "--config", str(missing)]) == 1
    assert main(["bench", "--preset", "galaxy-scale", "--out", str(tmp_path)]) == 1
    capsys.readouterr()
    facility = {"kind": "facility", "agents": 2, "targets": 2}
    malformed = {
        "array": [CLI_DOC],
        "agents": dict(CLI_DOC, environment={"kind": "facility", "agents": "x"}),
        "avg_degree": dict(
            CLI_DOC, environment=facility, graph={"kind": "erdos_renyi", "avg_degree": "x"}
        ),
        "edges": dict(CLI_DOC, environment=facility, graph={"kind": "explicit"}),
        "target_mix": dict(CLI_DOC, environment=dict(facility, target_mix=[1])),
        "target_kind": dict(CLI_DOC, environment=dict(facility, target_mix={"ghost": 2})),
        "scheme": dict(CLI_DOC, learner={"kind": "ma-spl", "scheme": "x"}),
        "out": dict(CLI_DOC, out=5),
        "speeds_nan": dict(CLI_DOC, environment=dict(facility, speeds=[float("nan")])),
        "speeds_inf": dict(CLI_DOC, environment=dict(facility, speeds=[1e400])),
        "learner_str": dict(CLI_DOC, learner="x"),
        "learner_int": dict(CLI_DOC, learner=5),
        "learner_list": dict(CLI_DOC, learner=[1]),
        "oracle_regret_str": dict(CLI_DOC, oracle_regret="no"),
        "exact_gradient_str": dict(CLI_DOC, learner={"kind": "ma-spl", "exact_gradient": "no"}),
        "environment_pairs": dict(CLI_DOC, environment=[["kind", "synthetic"], ["sizes", [2, 2]]]),
        "graph_pairs": dict(CLI_DOC, graph=[["kind", "complete"]]),
        "horizon_str": dict(CLI_DOC, horizon="5"),
        "horizon_fraction": dict(CLI_DOC, horizon=2.7),
        "horizon_float": dict(CLI_DOC, horizon=5.0),
        "horizon_bool": dict(CLI_DOC, horizon=True),
        "seed_bool": dict(CLI_DOC, seed=True),
        "seed_str": dict(CLI_DOC, seed="0"),
        "seed_null": dict(CLI_DOC, seed=None),
        "rho_str": dict(CLI_DOC, rho="0.5"),
        "rho_bool": dict(CLI_DOC, rho=False),
        "batch_str": dict(CLI_DOC, learner={"kind": "ma-spl", "batch": "5"}),
        "batch_fraction": dict(CLI_DOC, learner={"kind": "ma-spl", "batch": 2.5}),
        "eta0_str": dict(CLI_DOC, learner={"kind": "ma-spl", "eta0": "1"}),
        "alpha_str": dict(
            CLI_DOC, learner={"kind": "ma-spl", "scheme": {"kind": "weak-dr", "alpha": "1"}}
        ),
    }
    for name, doc in malformed.items():
        path = _write_config(tmp_path, doc, f"{name}.json")
        assert main(["run-spl", "--config", str(path)]) == 1, name
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, (name, err)


@pytest.mark.parametrize(
    "doc",
    [
        dict(CLI_DOC, learner={"kind": "ma-spl", "step_size": True}),
        dict(CLI_DOC, learner={"kind": "ma-mpl", "step_size": "0.1"}),
        dict(CLI_DOC, environment={"kind": "facility", "agents": 2.7, "targets": 2}),
        dict(CLI_DOC, environment={"kind": "orbiting-targets", "radius": "4"}),
        dict(CLI_DOC, environment={"kind": "coverage", "agents": 3.0}),
        dict(CLI_DOC, environment={"kind": "tracking-gain", "agents": 2, "record_world": 1}),
        dict(CLI_DOC, environment=dict(TINY_ENV, sizes=[2.7, 2])),
        dict(CLI_DOC, environment={"kind": "facility", "agents": 2, "speeds": [True, 2]}),
        dict(CLI_DOC, graph={"kind": "erdos_renyi", "avg_degree": "4"}),
        dict(CLI_DOC, graph={"kind": "erdos_renyi", "seed": 1.5}),
        dict(CLI_DOC, graph={"kind": "explicit", "edges": [[0, 1.0]]}),
    ],
    ids=["step-size-bool", "step-size-str", "agents-fraction", "radius-str",
         "coverage-agents-float", "record-world-int", "sizes-fraction", "speeds-bool",
         "avg-degree-str", "graph-seed-fraction", "edge-float"],
)
def test_cli_refuses_coerced_spec_numbers(tmp_path, capsys, doc):
    # each of these used to be read through int() / float() / bool() and run
    path = _write_config(tmp_path, doc)
    assert main(["run-spl" if doc["learner"]["kind"] == "ma-spl" else "run-mpl",
                 "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err


_FACILITY = {"kind": "facility", "agents": 2, "targets": 2}


def _weak_sub(gamma, beta):
    return {"kind": "ma-spl", "scheme": {"kind": "weak-sub", "gamma": gamma, "beta": beta}}


@pytest.mark.parametrize(
    "doc, field, section",
    [
        (dict(CLI_DOC, environment=dict(_FACILITY, agnets=6)), "agnets", "environment"),
        (dict(CLI_DOC, learner={"kind": "ma-spl", "bacth": 3}), "bacth", "learner"),
        (dict(CLI_DOC, graph={"kind": "complete", "extra": 1}), "extra", "graph"),
        (
            dict(CLI_DOC, learner={"kind": "ma-spl", "scheme": {"kind": "submodular", "gama": 1}}),
            "gama",
            "scheme",
        ),
        (dict(CLI_DOC, learner={"kind": "ma-mpl", "batch": 3}), "batch", "learner"),
        (dict(CLI_DOC, environment=dict(TINY_ENV, agents=2)), "agents", "environment"),
        (dict(CLI_DOC, environment={"kind": "orbiting-targets", "slot": 2}), "slot", "environment"),
        (dict(CLI_DOC, graph={"kind": "erdos_renyi", "degree": 3}), "degree", "graph"),
        # the run's horizon sets the world's; this one used to be overwritten
        (dict(CLI_DOC, environment={"kind": "orbiting-targets", "horizon": 7}, horizon=3),
         "horizon", "environment"),
    ],
    ids=["environment", "learner", "graph", "scheme", "mpl-learner", "synthetic", "orbit",
         "erdos-renyi", "environment-horizon"],
)
def test_cli_refuses_unknown_spec_fields(tmp_path, capsys, doc, field, section):
    # each of these used to be ignored, and the run took the default
    path = _write_config(tmp_path, doc)
    command = "run-mpl" if doc["learner"]["kind"] == "ma-mpl" else "run-spl"
    assert main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err
    assert f"unknown {section} field {field!r}" in err, err


@pytest.mark.parametrize(
    "doc, line",
    [
        (dict(CLI_DOC, environment={"kind": "coverage", "agents": 3},
              graph={"kind": "explicit", "edges": [[0, 1]]}), "explicit graph is disconnected"),
        (dict(CLI_DOC, environment={"kind": "synthetic", "sizes": []}),
         "partition needs at least one agent"),
        (dict(CLI_DOC, graph={"kind": "explicit", "edges": [[0, 1], [0, 1, 2]]}),
         "edges must be an array of 2 items, got [0, 1, 2]"),
        (dict(CLI_DOC, graph={"kind": "explicit", "edges": [[0, 1], [1]]}),
         "edges must be an array of 2 items, got [1]"),
    ],
    ids=["disconnected-graph", "no-agents", "edge-three-ends", "edge-one-end"],
)
def test_cli_reports_refused_spec_values_as_config_errors(tmp_path, capsys, doc, line):
    # a library check refuses the first two, and they used to be printed as
    # "error:"; an edge that is no pair used to print the whole graph spec
    # and "too many values to unpack"
    path = _write_config(tmp_path, doc)
    assert main(["run-spl", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"config error: {line}\n"


# a valid value of each field that has no default, for the specs below
_REQUIRED_VALUES = {"alpha": 1.0, "gamma": 1.0, "beta": 1.0, "edges": [[0, 1]]}
_LEARNER_COMMANDS = {"ma-spl": ["run-spl"], "ma-mpl": ["run-mpl"],
                     "random": ["run-baseline", "--baseline", "random"],
                     "greedy": ["run-baseline", "--baseline", "greedy"]}


def _wrong_values(kind) -> list:
    """Values of another JSON kind than ``kind``: for an array or an object,
    also one whose element is of another kind."""
    wrong = [5 if kind is str else "x"]
    if typing.get_origin(kind) is list:
        wrong.append(["x"])
    elif typing.get_origin(kind) is dict:
        wrong.append({"k": "x"})
    return wrong


def _declared_specs():
    """``(command, doc, field, value)``: every declared field of every spec
    section set to each value of :func:`_wrong_values` in a config that is
    valid otherwise, and an unknown field ``bogus`` in every section."""

    def cases(kind, fields):
        base = {key: _REQUIRED_VALUES[key] for key, (_, d) in fields.items() if d is REQUIRED}
        wrong = [(f, v) for f, (k, _) in fields.items() for v in _wrong_values(k)]
        for field, value in wrong + [("bogus", 1)]:
            yield field, value, {"kind": kind, **base, field: value}

    for field, value in [(f, v) for f, (k, _) in CONFIG_FIELDS.items() for v in _wrong_values(k)]:
        yield ["run-spl"], dict(CLI_DOC, **{field: value}), field, value
    yield ["run-spl"], dict(CLI_DOC, bogus=1), "bogus", 1
    for kind, fields in ENVIRONMENT_FIELDS.items():
        for field, value, spec in cases(kind, fields):
            yield ["run-spl"], dict(CLI_DOC, environment=spec), field, value
    for kind, fields in GRAPH_FIELDS.items():
        for field, value, spec in cases(kind, fields):
            yield ["run-spl"], dict(CLI_DOC, graph=spec), field, value
    for kind, fields in LEARNER_FIELDS.items():
        for field, value, spec in cases(kind, fields):
            yield _LEARNER_COMMANDS[kind], dict(CLI_DOC, learner=spec), field, value
    for kind, fields in SCHEME_FIELDS.items():
        for field, value, spec in cases(kind, fields):
            learner = {"kind": "ma-spl", "scheme": spec}
            yield ["run-spl"], dict(CLI_DOC, learner=learner), field, value


def test_cli_refuses_a_wrong_kind_in_every_declared_field(tmp_path, capsys):
    # driven by the declarations, so a field is covered once it is declared
    failures = []
    cases = list(_declared_specs())
    for command, doc, field, value in cases:
        code = main([*command, "--config", str(_write_config(tmp_path, doc))])
        err = capsys.readouterr().err
        want = "config error: " + ("unknown" if field == "bogus" else f"{field} must be")
        if code != 1 or err.count("\n") != 1 or not err.startswith(want) or field not in err:
            failures.append(f"{field}={value!r} in {doc}: exit {code}, {err!r}")
    assert cases and not failures, "\n".join(failures)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_every_preset_runs_under_every_run_command(tmp_path, preset):
    # a run command replaces a learner spec of another kind, whose fields it would refuse
    over = _write_config(tmp_path, {"horizon": 1})
    for command in (["run-spl"], ["run-mpl"], ["run-baseline", "--baseline", "greedy"]):
        assert main([*command, "--preset", preset, "--config", str(over)]) == 0, command


def test_negative_seed_is_refused_as_the_seed(tmp_path, capsys):
    with pytest.raises(ConfigError, match="seed must be a nonnegative integer, got -1"):
        tiny_config(seed=-1)
    assert main(["run-baseline", "--config", str(_write_config(tmp_path, CLI_DOC)),
                 "--seed", "-3"]) == 1
    assert capsys.readouterr().err == "config error: seed must be a nonnegative integer, got -3\n"


@pytest.mark.parametrize(
    "environment",
    [
        {"kind": "orbiting-targets", "radius": float("nan")},
        {"kind": "orbiting-targets", "radius": float("inf")},
        {"kind": "orbiting-targets", "target_radius": float("-inf")},
        {"kind": "orbiting-targets", "drift_cycles": float("nan")},
        {"kind": "orbiting-targets", "drift_cycles": float("inf")},
        {"kind": "coverage", "agents": 3, "epsilon": float("nan"), "k": 1},
        {"kind": "coverage", "agents": 3, "epsilon": float("inf"), "k": 1},
    ],
    ids=["radius-nan", "radius-inf", "target-radius-inf", "cycles-nan", "cycles-inf",
         "epsilon-nan", "epsilon-inf"],
)
def test_cli_rejects_non_finite_environment_values(tmp_path, capsys, environment):
    # json writes these as NaN / Infinity, which a config may hold
    path = _write_config(tmp_path, dict(CLI_DOC, environment=environment))
    assert main(["run-spl", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "doc, field",
    [
        (dict(CLI_DOC, environment=dict(_FACILITY, target_mix={"random": True, "polyline": 1})),
         "target_mix"),
        (dict(CLI_DOC, environment=dict(_FACILITY, target_mix={})), "target_mix"),
        # past MOVING_WORLD_LIMIT in targets alone, so that a check placed after the
        # first allocation these fields size would fail at once, not allocate
        (dict(CLI_DOC, environment=dict(_FACILITY, agents=1, headings=1, speeds=[5.0],
                                        targets=10**15, target_mix={"random": 10**15})),
         "targets"),
        (dict(CLI_DOC, environment={"kind": "orbiting-targets", "targets": 10**15}), "targets"),
        (dict(CLI_DOC, environment=dict(_FACILITY, speeds=[1e308])), "speeds"),
        (dict(CLI_DOC, environment={"kind": "orbiting-targets", "drift_cycles": 1e308}),
         "drift_cycles"),
        (dict(CLI_DOC, environment={"kind": "coverage"},
              learner={"kind": "ma-spl", "step_size": 1e308}), "step_size"),
        (dict(CLI_DOC, environment={"kind": "coverage"},
              learner={"kind": "ma-mpl", "step_size": 1e308}), "step_size"),
        (dict(CLI_DOC, environment={"kind": "coverage", "epsilon": 1e308}), "epsilon"),
        (dict(CLI_DOC, environment={"kind": "coverage", "agents": 2, "epsilon": 1e308}),
         "epsilon"),
        (dict(CLI_DOC, learner=_weak_sub(0.5, math.nan)), "beta"),
        (dict(CLI_DOC, learner=_weak_sub(1.0, math.inf)), "beta"),
        (dict(CLI_DOC, learner=_weak_sub(0.5, 1e308)), "beta"),
        # sizes below 1: a world with no targets failed in its first round
        (dict(CLI_DOC, environment={"kind": "orbiting-targets", "targets": 0}), "targets"),
        (dict(CLI_DOC, environment={"kind": "orbiting-targets", "targets": -1}), "targets"),
        (dict(CLI_DOC, environment={"kind": "orbiting-targets", "agents": 0}), "agents"),
        (dict(CLI_DOC, environment={"kind": "orbiting-targets", "slots": 0}), "slots"),
        (dict(CLI_DOC, environment={"kind": "coverage"}, learner={"kind": "ma-mpl", "K": 2}), "K"),
        (dict(CLI_DOC, environment={"kind": "coverage"}, learner={"kind": "ma-mpl", "L": 0}), "L"),
        (dict(CLI_DOC, environment={"kind": "coverage"}, learner={"kind": "ma-spl", "eta0": -1}),
         "eta0"),
        # graph and synthetic-world refusals name their field
        (dict(CLI_DOC, environment={"kind": "coverage"},
              graph={"kind": "erdos_renyi", "seed": -1}), "seed"),
        (dict(CLI_DOC, environment={"kind": "coverage"},
              graph={"kind": "erdos_renyi", "avg_degree": -1}), "avg_degree"),
        (dict(CLI_DOC, environment={"kind": "coverage"},
              graph={"kind": "explicit", "edges": [[0, 5]]}), "edges"),
        (dict(CLI_DOC, environment={"kind": "synthetic", "sizes": [0, 2]}), "sizes"),
        (dict(CLI_DOC, environment={"kind": "synthetic", "sizes": [7, 7]}), "sizes"),
        # per-round tables past errors.TABLE_LIMIT, refused before they are allocated
        (dict(CLI_DOC, environment={"kind": "coverage"},
              learner={"kind": "ma-spl", "batch": 10**9}), "batch"),
        (dict(CLI_DOC, environment={"kind": "coverage"}, learner={"kind": "ma-mpl", "L": 10**9}),
         "L"),
        (dict(CLI_DOC, environment={"kind": "coverage", "agents": 10**6}), "agents"),
    ],
    ids=["mix-bool", "mix-empty", "world-huge", "orbit-huge", "speeds-huge", "cycles-huge",
         "spl-step-huge", "mpl-step-huge", "epsilon-huge", "two-agent-epsilon-huge", "beta-nan", "beta-inf-rate-nan",
         "beta-huge-rate", "orbit-empty", "orbit-negative", "orbit-no-agents", "orbit-no-slots",
         "mpl-K", "mpl-L", "spl-eta0", "graph-seed", "graph-avg-degree", "graph-edge-range",
         "sizes-zero", "sizes-past-cap", "spl-batch-huge", "mpl-L-huge", "coverage-huge"],
)
def test_cli_refuses_values_that_break_the_run(tmp_path, capsys, doc, field):
    # each of these used to run on (a bool count, utility 0.0 after an
    # overflow) or end in a traceback from the projection
    path = _write_config(tmp_path, doc)
    command = "run-mpl" if doc["learner"]["kind"] == "ma-mpl" else "run-spl"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err
    # the line names the field, not only as a quoted key of an echoed spec
    assert re.search(rf"(?<![\w']){field}(?![\w'])", err), err


def test_cli_preset_with_config_override(tmp_path, capsys):
    over = _write_config(tmp_path, {"horizon": 3}, "over.json")
    rc = main(
        [
            "run-baseline",
            "--preset",
            "coverage-escape",
            "--config",
            str(over),
            "--seed",
            "1",
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out.startswith("random: T=3")


def test_cli_bench_tiny(tmp_path, capsys):
    PRESETS["tiny-test"] = {
        "environment": {"kind": "coverage", "agents": 2, "epsilon": 0.1, "k": 1},
        "graph": {"kind": "complete"},
        "learner": {"kind": "random"},
        "horizon": 4,
        "seed": 0,
    }
    BENCH_MATRICES["tiny-test"] = [("random", {"kind": "random"})]
    try:
        rc = main(["bench", "--preset", "tiny-test", "--out",
                   str(tmp_path / "bench"), "--seeds", "2"])
    finally:
        PRESETS.pop("tiny-test")
        BENCH_MATRICES.pop("tiny-test")
    assert rc == 0
    assert "random: mean utility" in capsys.readouterr().out
    assert (tmp_path / "bench" / "summary.json").exists()
    saved = json.loads((tmp_path / "bench" / "summary.json").read_text())
    assert saved["seeds"] == [0, 1]


@pytest.mark.parametrize(
    "argv",
    [
        ["run-spl", "--bogus"],
        ["verify", "--seed", "0"],
        [],
        ["run-spl", "--preset", "nope"],
        ["bench", "--preset", "facility-desk", "--out", "b", "--seeds", "0"],
        ["bench", "--preset", "facility-desk", "--out", "b", "--seeds", "-2"],
    ],
)
def test_cli_usage_errors_exit_one(argv, capsys):
    # exit 2 is kept for a failed battery, so a bad invocation is told apart
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1


def test_cli_help_exits_zero(capsys):
    for argv in (["--help"], ["run-spl", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
    assert "--preset" in capsys.readouterr().out


def test_cli_failed_battery_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_verification", lambda: [CheckResult("broken", False, "x")])
    assert main(["verify"]) == 2
    assert "broken  FAIL  x" in capsys.readouterr().out


def test_cli_verify_battery(tmp_path, capsys):
    rc = main(["verify", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 10 and "FAIL" not in out
    report = json.loads((tmp_path / "verify.json").read_text())
    assert [entry["name"] for entry in report] == [
        "lossless-rounding",
        "gradient-formula",
        "key-inequalities",
        "stationary-point-floors",
        "tightness-instance-escape",
        "inner-loop-lag-bound",
        "ratio-estimator-sanity",
        "consensus-weights",
        "z-sampler-cdf",
        "seeded-determinism",
    ]
    assert all(entry["passed"] for entry in report)
