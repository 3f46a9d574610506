"""Every preset's seeded outputs match the committed ledger (``tests/ledger.py``)."""

import math

from ledger import KEY, ledger_rows, read_ledger

EXACT = ("t", "queries")
RELATIVE = ("utility", "opt", "cum_regret")  # to 1e-12 relative
ABSOLUTE = ("disagreement",)  # to 1e-12: summation order alone moves it near consensus
TOLERANCE = 1e-12


def _cell_matches(column: str, want: str, got: str) -> bool:
    if column in EXACT or not want or not got:
        return want == got
    a, b = float(want), float(got)
    if column in RELATIVE:
        return math.isclose(a, b, rel_tol=TOLERANCE, abs_tol=0.0)
    return abs(a - b) <= TOLERANCE


def ledger_differences(want: list[dict], got: list[dict]) -> list[str]:
    """One line per differing cell: the run, the round, the column and both values."""
    if [[r[k] for k in KEY + ("t",)] for r in want] != [[r[k] for k in KEY + ("t",)] for r in got]:
        return [f"the runs or rounds differ: {len(want)} ledger rows, {len(got)} recomputed"]
    lines = []
    for w, g in zip(want, got):
        for column in EXACT + RELATIVE + ABSOLUTE:
            if not _cell_matches(column, w[column], g[column]):
                run = " ".join(w[k] for k in KEY)
                lines.append(f"{run} t={w['t']} {column}: ledger {w[column]!r}, now {g[column]!r}")
    return lines


def test_difference_report_names_cells():
    want = [{"preset": "p", "learner": "l", "seed": "0", "t": "1", "utility": "1.0",
             "opt": "", "cum_regret": "", "disagreement": "0.5", "queries": "3"}]
    near = dict(want[0], utility=repr(1.0 + 1e-13), disagreement=repr(0.5 + 1e-13))
    assert ledger_differences(want, [near]) == []
    moved = dict(want[0], utility="1.1", queries="4", opt="2.0")
    assert ledger_differences(want, [moved]) == [
        "p l 0 t=1 queries: ledger '3', now '4'",
        "p l 0 t=1 utility: ledger '1.0', now '1.1'",
        "p l 0 t=1 opt: ledger '', now '2.0'",
    ]


def test_outputs_match_the_ledger():
    differences = ledger_differences(read_ledger(), ledger_rows())
    assert not differences, f"{len(differences)} cells moved; the first ten:\n" + "\n".join(
        differences[:10]
    )
