"""Out-of-tree instrumentation of the macoord package.

Two hooks, both installed by replacing attributes from outside the package,
so nothing under ``src/`` knows it is being measured:

* :class:`RoundClock` wraps every environment class's ``begin_round`` and
  timestamps round boundaries.  It is the only hook of an untraced run.
* :class:`Tracer` wraps the public functions of every layer module, in every
  module that imported them by name, plus the per-class methods the layer
  metrics need.  Each call is a span; spans nest, and a span's self time is
  its duration minus the durations of its direct children.  Spans are
  aggregated in memory per span name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

# macoord modules whose public functions are layers, in call-graph order
LAYER_MODULES = ("harness", "learners", "network", "extension", "geometry", "ground", "envs", "oracle")
# every module that may hold a by-name reference to a layer function
PACKAGE_MODULES = LAYER_MODULES + ("verification", "cli")
# the client entry points; everything they call is what gets measured
NOT_LAYERS = {"harness.run_experiment", "harness.run_bench"}

# class-level method spans: method name -> span name
ENV_METHODS = {"begin_round": "envs.objective_build", "finish_round": "envs.finish_round"}
OBJECTIVE_METHODS = {"value": "envs.value", "agent_marginals": "envs.agent_marginals"}
LEARNER_METHODS = {"round": "learners.round", "disagreement": "learners.disagreement"}
PROFILE_SPAN = "extension.PolicyProfile"


def _modules() -> dict:
    return {name: importlib.import_module(f"macoord.{name}") for name in PACKAGE_MODULES}


def _classes(module):
    return [
        obj
        for obj in vars(module).values()
        if inspect.isclass(obj) and obj.__module__ == module.__name__
    ]


class RoundClock:
    """Records a ``time.monotonic()`` stamp at every round's ``begin_round``.

    Call :meth:`start` before each experiment.  ``on_first`` is called at the
    first round boundary.
    """

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.on_first = None

    def start(self) -> None:
        self.stamps = []

    def install(self) -> None:
        envs = importlib.import_module("macoord.envs")
        for cls in _classes(envs):
            if "begin_round" in vars(cls):
                cls.begin_round = self._wrap(vars(cls)["begin_round"])

    def _wrap(self, fn):
        clock = self

        @functools.wraps(fn)
        def begin_round(*args, **kwargs):
            clock.stamps.append(time.monotonic())
            if len(clock.stamps) == 1 and clock.on_first is not None:
                clock.on_first()
            return fn(*args, **kwargs)

        return begin_round


class Tracer:
    """Nested call spans aggregated per span name.

    ``totals[name] = [calls, total_s, child_s]``; ``top_s`` sums the
    durations of spans with no caller.  Call :meth:`reset` at the first round
    boundary so that set-up calls (building the environment and the learner)
    stay out of the round loop's numbers.
    """

    def __init__(self) -> None:
        self.totals: dict[str, list] = {}
        self.top_s = 0.0
        self._stack: list[list] = []  # child seconds of each open span

    def wrap(self, name: str, fn):
        tracer = self
        stack = self._stack
        totals = self.totals
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                row = totals.get(name)
                if row is None:
                    row = totals[name] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += dt
                row[2] += frame[0]
                if stack:
                    stack[-1][0] += dt
                else:
                    tracer.top_s += dt

        return traced

    def reset(self) -> None:
        """Drop what was recorded so far; spans still open are kept."""
        self.totals.clear()
        self.top_s = 0.0

    def install(self) -> None:
        """Wrap every layer function wherever it is bound, then the methods."""
        modules = _modules()
        for layer in LAYER_MODULES:
            module = modules[layer]
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or name in NOT_LAYERS
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    # a generator returns before its work is done
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                traced = self.wrap(name, fn)
                for holder in modules.values():
                    for bound, obj in list(vars(holder).items()):
                        if obj is fn:
                            setattr(holder, bound, traced)
        set_function = modules["ground"].SetFunction
        for cls in _classes(modules["envs"]):
            methods = dict(ENV_METHODS)
            if issubclass(cls, set_function):
                methods.update(OBJECTIVE_METHODS)
            self._wrap_methods(cls, methods)
        for cls in _classes(modules["learners"]):
            self._wrap_methods(cls, LEARNER_METHODS)
        profile = modules["extension"].PolicyProfile
        profile.__post_init__ = self.wrap(PROFILE_SPAN, profile.__post_init__)

    def _wrap_methods(self, cls, methods: dict) -> None:
        for method, span in methods.items():
            if method in vars(cls):
                setattr(cls, method, self.wrap(span, vars(cls)[method]))

    def spans(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds."""
        return {
            name: {"calls": calls, "total_s": total, "self_s": total - child}
            for name, (calls, total, child) in self.totals.items()
        }
