"""The README's library tour runs as written and prints what it claims."""

import contextlib
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
