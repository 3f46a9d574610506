"""The README's library tour runs as written and prints what it claims."""

import contextlib
import functools
import importlib
import inspect
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs_and_prints_its_claims():
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour") :]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    printed = io.StringIO()
    namespace: dict = {}
    with contextlib.redirect_stdout(printed):
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["opt"] == 4.0  # "exhaustive optimum: 4.0"
    # "≈ 4.0, the optimal vertex": the extension where the ascent ends
    assert float(printed.getvalue()) == pytest.approx(4.0, abs=1e-6)


def test_config_format_names_every_declared_field():
    from macoord.envs import ENVIRONMENT_FIELDS
    from macoord.harness import CONFIG_FIELDS, LEARNER_FIELDS, SCHEME_FIELDS
    from macoord.network import GRAPH_FIELDS

    text = README.read_text(encoding="utf-8")
    section = text[text.index("### Config format") : text.index("### Output files")]
    kinded = (ENVIRONMENT_FIELDS, GRAPH_FIELDS, LEARNER_FIELDS, SCHEME_FIELDS)
    declared = {*CONFIG_FIELDS, *(f for kinds in kinded for d in kinds.values() for f in d)}
    declared |= {kind for kinds in kinded for kind in kinds}
    missing = sorted(name for name in declared if f"`{name}`" not in section)
    assert missing == []


# Backticked tour words that name no code of their row's module: math and
# numpy (`T[...]`, `max(...)`, `cumsum`), environment kinds, parameter names
# and constants, and instance fields set in a constructor.
TOUR_WORDS_NOT_CODE = {
    "T", "max", "cumsum", "facility", "ekf", "None", "samples", "scheme", "queries",
    "Partition.owners",
}


def _tour_name_resolves(module, name: str) -> bool:
    """``name`` is an attribute path from ``module``, or from the macoord
    module its first part names (``network.hop_distances``); a bare name may
    also be a method, property or dataclass field of a class the module holds."""
    parts = name.split(".")
    if len(parts) > 1 and not hasattr(module, parts[0]):
        module = importlib.import_module(f"macoord.{parts.pop(0)}")
    try:
        functools.reduce(getattr, parts, module)
        return True
    except AttributeError:
        pass
    classes = [c for c in vars(module).values() if inspect.isclass(c)]
    return len(parts) == 1 and any(
        hasattr(c, name) or name in getattr(c, "__dataclass_fields__", {}) for c in classes
    )


def test_library_tour_names_only_code_that_exists():
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour") :]
    rows = re.findall(r"^\| `(macoord\.\w+)` \| (.*) \|$", tour, re.M)
    assert len(rows) == 10
    missing = []
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        for word in re.findall(r"`([^`]+)`", contents):
            # a name, a call of one, or an index into one
            m = re.fullmatch(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\)|\[.*\])?", word)
            if m and m[1] not in TOUR_WORDS_NOT_CODE and not _tour_name_resolves(module, m[1]):
                missing.append(f"{module_name}: {word}")
    assert missing == []
