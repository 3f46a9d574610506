"""Every refusal in ``tests/refusals.py`` holds, and CI runs the same table."""

import sys
import warnings
from pathlib import Path

import pytest

from macoord.cli import main
from refusals import CLI_DOC, MALFORMED, MPL, REFUSALS, SPL, USAGE, Refusal, argv, check, run

ROOT = Path(__file__).resolve().parents[1]


def cases(entries):
    """Parametrize a test over ``entries``, each under its id."""
    return pytest.mark.parametrize("entry", entries, ids=[entry.id for entry in entries])


def assert_refused(entry, tmp_path, capsys):
    """Run ``entry`` through ``main`` with warnings as errors, and apply :func:`check`."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(argv(entry, tmp_path))
        except SystemExit as exc:  # a usage error leaves through the parser
            code = exc.code
    problems = check(entry, code, capsys.readouterr().err)
    assert not problems, problems


# tests/test_harness.py runs the other groups, under the names they had there
@cases([*MALFORMED, *USAGE])
def test_refusal(entry, tmp_path, capsys):
    assert_refused(entry, tmp_path, capsys)


def test_refusal_table_is_what_ci_runs(monkeypatch, capsys):
    ids = [entry.id for entry in REFUSALS]
    assert len(set(ids)) == len(ids)
    assert all(entry.command in (SPL, MPL) for entry in REFUSALS if entry.config is not None)
    for command in {entry.command[0] for entry in REFUSALS if entry.command}:
        with pytest.raises(SystemExit) as exc:  # a command the parser knows, not a typo
            main([command, "--help"])
        assert exc.value.code == 0, command
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    assert "python tests/refusals.py" in workflow and "echo '{" not in workflow
    capsys.readouterr()
    # the script itself, through a console command, on one config and one usage case
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    prefix = [sys.executable, "-m", "macoord.cli"]
    pair = [REFUSALS[0], next(entry for entry in REFUSALS if entry.config is None)]
    assert run(prefix, pair) == 0
    assert run(prefix, [Refusal("valid", SPL, CLI_DOC, "horizon")]) == 1
    assert capsys.readouterr().out.splitlines()[-2].startswith("valid: exit 0, not 1")
