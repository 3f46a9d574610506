"""Experiment harness: configs, runs, exports, presets, bench, CLI.

Runs here are kept tiny (synthetic objectives, short horizons); the
full-scale benchmark claims live in the acceptance suite.
"""

import csv
import inspect
import json
import math
import typing
import warnings

import numpy as np
import pytest

import macoord.cli as cli
from macoord.cli import main
from macoord.envs import ENVIRONMENT_FIELDS, make_environment
from macoord.errors import ConfigError
from macoord.extension import SurrogateScheme
from macoord.ground import Partition
from macoord.harness import (
    BENCH_MATRICES,
    CONFIG_FIELDS,
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
from refusals import (BREAKS_RUN, CLI_DOC, COERCED, NON_FINITE, SPEC_VALUES, UNKNOWN_FIELDS,
                      Refusal, check)
from test_refusals import assert_refused, cases

TINY_ENV = CLI_DOC["environment"]


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
    assert spl.step.size == mpl.step.size == 1.0 / math.sqrt(horizon)


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
    logs = run_experiment(cfg)
    rows = list(csv.reader((tmp_path / "world.csv").open()))
    assert rows[0] == ["tick", "entity", "x", "y", "kind"]
    assert len(rows) == 1 + (2 + 2) * 4  # header + (agents+targets) x (T+1)
    assert rows[1][1] == "agent:0"
    rows = list(csv.reader((tmp_path / "rounds.csv").open()))
    assert rows[0] == ["t", "utility", "opt", "cum_regret", "disagreement", "queries"]
    assert len(rows) == 1 + 3
    assert json.loads((tmp_path / "rounds.json").read_text()) == [vars(log) for log in logs]


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
    assert rows[0] == ["t", "utility", "opt", "cum_regret", "disagreement", "queries"]
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


def test_cli_run_spl_writes_outputs(tmp_path, capsys):
    cfg = _write_config(tmp_path, CLI_DOC)
    out = tmp_path / "out"
    assert main(["run-spl", "--config", str(cfg), "--out", str(out)]) == 0
    line = capsys.readouterr().out
    assert line.startswith("ma-spl: T=5 mean utility ") and line.endswith(f" -> {out}\n")
    # run_experiment writes the files; test_run_experiment_writes_world_trace reads their format
    assert len(list(csv.reader((out / "rounds.csv").open()))) == 1 + 5
    assert sorted(path.name for path in out.iterdir()) == ["rounds.csv", "rounds.json"]


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


# each group of tests/refusals.py, one case per entry, under the rule of refusals.check


@cases(COERCED)
def test_cli_refuses_coerced_spec_numbers(entry, tmp_path, capsys):
    assert_refused(entry, tmp_path, capsys)


@cases(UNKNOWN_FIELDS)
def test_cli_refuses_unknown_spec_fields(entry, tmp_path, capsys):
    assert_refused(entry, tmp_path, capsys)


@cases(SPEC_VALUES)
def test_cli_reports_refused_spec_values_as_config_errors(entry, tmp_path, capsys):
    assert_refused(entry, tmp_path, capsys)


@cases(NON_FINITE)
def test_cli_rejects_non_finite_environment_values(entry, tmp_path, capsys):
    assert_refused(entry, tmp_path, capsys)


@cases(BREAKS_RUN)
def test_cli_refuses_values_that_break_the_run(entry, tmp_path, capsys):
    assert_refused(entry, tmp_path, capsys)


# the document every declared field is put into, and each section kind's
# spec in it: its required values, and sizes that keep a run of any value small
_TINY_DOC = dict(CLI_DOC, horizon=2)
_TINY_MOVING = {"agents": 2, "targets": 1, "headings": 2}
_TINY_SPECS = {
    "facility": _TINY_MOVING,
    "tracking-gain": _TINY_MOVING,
    "ekf": _TINY_MOVING,
    "synthetic": {"sizes": [2, 2]},
    "erdos_renyi": {"avg_degree": 1.0},  # connected on CLI_DOC's two agents
    "explicit": {"edges": [[0, 1]]},
    "ma-spl": {"batch": 1},
    "ma-mpl": {"K": 3, "L": 1},
    "weak-dr": {"alpha": 0.5},
    "weak-sub": {"gamma": 0.5, "beta": 1.5},
}
_LEARNER_COMMANDS = {"ma-spl": ["run-spl"], "ma-mpl": ["run-mpl"],
                     "random": ["run-baseline", "--baseline", "random"],
                     "greedy": ["run-baseline", "--baseline", "greedy"]}


def _declared_sections():
    """``(command, fields, place)`` for the top level and for every kind of
    every spec section: ``fields`` maps each declared field to its JSON kind
    and its value in the tiny spec (else its default), and ``place(field,
    value)`` is :data:`_TINY_DOC` with that spec holding ``field: value``."""

    def section(command, kind, declared, put):
        tiny = _TINY_SPECS.get(kind, {})
        fields = {f: (k, tiny.get(f, default)) for f, (k, default) in declared.items()}
        return command, fields, lambda f, v: put({"kind": kind, **tiny, f: v})

    yield ["run-spl"], {f: (k, _TINY_DOC.get(f, d)) for f, (k, d) in CONFIG_FIELDS.items()}, \
        lambda f, v: dict(_TINY_DOC, **{f: v})
    for kind, declared in ENVIRONMENT_FIELDS.items():
        yield section(["run-spl"], kind, declared, lambda spec: dict(_TINY_DOC, environment=spec))
    for kind, declared in GRAPH_FIELDS.items():
        yield section(["run-spl"], kind, declared, lambda spec: dict(_TINY_DOC, graph=spec))
    for kind, declared in LEARNER_FIELDS.items():
        yield section(_LEARNER_COMMANDS[kind], kind, declared,
                      lambda spec: dict(_TINY_DOC, learner=spec))
    for kind, declared in SCHEME_FIELDS.items():
        yield section(["run-spl"], kind, declared, lambda spec: dict(
            _TINY_DOC, learner={**_TINY_SPECS["ma-spl"], "kind": "ma-spl", "scheme": spec}))


def _wrong_values(kind) -> list:
    """Values of another JSON kind than ``kind``: for an array or an object,
    also one whose element is of another kind."""
    wrong = [5 if kind is str else "x"]
    if typing.get_origin(kind) is list:
        wrong.append(["x"])
    elif typing.get_origin(kind) is dict:
        wrong.append({"k": "x"})
    return wrong


def test_cli_refuses_a_wrong_kind_in_every_declared_field(tmp_path, capsys):
    # driven by the declarations, so a field is covered once it is declared;
    # every section also gets an unknown field, bogus
    failures = []
    cases = [(command, place(field, value), field, value)
             for command, fields, place in _declared_sections()
             for field, value in [(f, v) for f, (k, _) in fields.items()
                                  for v in _wrong_values(k)] + [("bogus", 1)]]
    for command, doc, field, value in cases:
        code = main([*command, "--config", str(_write_config(tmp_path, doc))])
        err = capsys.readouterr().err
        want = "config error: " + ("unknown" if field == "bogus" else f"{field} must be")
        if code != 1 or err.count("\n") != 1 or not err.startswith(want) or field not in err:
            failures.append(f"{field}={value!r} in {doc}: exit {code}, {err!r}")
    assert cases and not failures, "\n".join(failures)


_HUGE = 10**4  # a huge array's or string's length: past the action cap and a file name's
_EXTREMES = {
    int: (0, -1, 2**63, 10**30),
    float: (0.0, -1.0, 1e308, -1e308, 1e-320, math.nan, math.inf, -math.inf),
    bool: (False, True),
    str: ("", "x" * _HUGE),
    dict: ({},),
}


def _extreme_values(field, kind, plain) -> list:
    """The extreme values of JSON kind ``kind`` for ``field``, whose plain
    value is ``plain``.  An array is also empty, huge (its plain first
    element ``_HUGE`` times) and each extreme element alone; an edge pair
    joins its plain first end to each extreme integer; a count object is
    also empty, and maps a target kind to each extreme integer."""
    origin = typing.get_origin(kind) or kind
    if field == "horizon":
        return [0, -1]  # a positive horizon runs that many rounds
    if origin is list:
        (item,) = typing.get_args(kind)
        first = plain[0]
        return [[], [first] * _HUGE, *([x] for x in _extreme_values(field, item, first))]
    if origin is tuple:
        return [[plain[0], x] for x in _EXTREMES[int]]
    if origin is dict and kind is not dict:
        return [{}, *({"random": x} for x in _EXTREMES[int])]
    return list(_EXTREMES[origin])


def _finite_cells(path) -> bool:
    with path.open() as fh:
        rows = list(csv.reader(fh))[1:]
    return bool(rows) and all(math.isfinite(float(cell)) for row in rows for cell in row if cell)


def test_every_declared_field_runs_or_refuses_extreme_values(tmp_path, capsys):
    # each extreme value of each declared field's kind, in a tiny run at
    # horizon 2: exit 0 with finite rounds.csv cells, or the refusal rule of
    # refusals.check, one config error line that names the field; never a
    # traceback or a warning
    failures, runs = [], 0
    for command, fields, place in _declared_sections():
        for field, (kind, plain) in fields.items():
            for value in _extreme_values(field, kind, plain):
                runs += 1
                out = tmp_path / f"run{runs}"
                doc = {"out": str(out), **place(field, value)}
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        code = main([*command, "--config", str(_write_config(tmp_path, doc))])
                    except Exception as exc:
                        code = f"{type(exc).__name__}: {str(exc)[:200]}"
                err = capsys.readouterr().err
                if code == 0:
                    wrote = doc["out"] == str(out)
                    problems = [err] if err else []
                    if wrote and not _finite_cells(out / "rounds.csv"):
                        problems.append("a non-finite rounds.csv cell")
                else:
                    problems = check(Refusal(field, command, doc, field), code, err)
                if problems:
                    failures.append(f"{command} {field}={str(value)[:40]}: {problems}, {err[:200]}")
    assert runs > 200 and not failures, "\n".join(failures)


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
        "byte-identical-reruns",
    ]
    assert all(entry["passed"] for entry in report)
