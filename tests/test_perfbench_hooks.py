"""The benchmark's hooks still resolve in the package.

perfbench measures the package from outside: its layer metrics name spans
after package functions and methods, and its round clock and tracer patch
methods by name on the classes of ``macoord.envs``.  A rename there would
silence a metric instead of failing, so these tests fail instead.  They
read ``perfbench/run.py`` and ``perfbench/layers.py`` without changing or
compiling files into them.
"""

import importlib
import inspect
import types
from pathlib import Path

from macoord.envs import make_environment
from macoord.harness import resolve_preset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# spans the benchmark still names but the package no longer has
DEAD_SPANS = {
    "extension.estimate_gradient",
    "extension.estimate_surrogate_gradient",
    "extension.exact_surrogate_gradient_block",
    "extension.sample_context",
    "ground.min_gain_vector",
    "network.exchange",
}


def _load(name: str) -> types.ModuleType:
    """Execute ``perfbench/<name>.py`` as a fresh module, writing no bytecode."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(name)
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_every_span_name_resolves():
    run, layers = _load("run"), _load("layers")
    method_spans = {
        *layers.ENV_METHODS.values(),
        *layers.OBJECTIVE_METHODS.values(),
        *layers.LEARNER_METHODS.values(),
        layers.PROFILE_SPAN,
    }
    names = {span for span, _, _ in run.SPAN_METRICS.values()} | set(run.ESTIMATE_SPANS)
    unresolved = set()
    for name in names - method_spans:
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"macoord.{module}"), attr, None)
        if not (module in layers.LAYER_MODULES and not attr.startswith("_")
                and inspect.isfunction(fn) and fn.__module__ == f"macoord.{module}"):
            unresolved.add(name)
    assert unresolved == DEAD_SPANS & names


def _defines(cls: type, methods) -> bool:
    return cls.__module__ == "macoord.envs" and all(m in vars(cls) for m in methods)


def test_every_workload_world_has_hooked_methods():
    run, layers = _load("run"), _load("layers")
    for name, workload in run.WORKLOADS.items():
        doc = resolve_preset(workload["preset"])
        env = make_environment(doc["environment"], 0, workload["horizon"])
        assert any(_defines(c, layers.ENV_METHODS) for c in type(env).__mro__), name
        f = env.begin_round()
        assert any(_defines(c, ["value"]) for c in type(f).__mro__), name
