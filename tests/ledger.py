"""The output ledger: the ``rounds.csv`` rows of every preset under every learner.

Each preset runs under ``ma-spl``, ``ma-mpl``, greedy and random at seeds 0
and 1 for 20 rounds, through the command line as a user would run it (so the
``ma-spl`` and ``ma-mpl`` runs keep a preset's own learner spec of that
kind).  ``tests/test_ledger.py`` recomputes the rows and compares them with
the committed ``tests/ledger.csv``.  A change that moves an output
regenerates the file and lists the moved cells::

    PYTHONPATH=src python tests/ledger.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
import tempfile
from pathlib import Path

from macoord.cli import main
from macoord.harness import PRESETS

LEDGER = Path(__file__).resolve().parent / "ledger.csv"
COMMANDS = {
    "ma-spl": ["run-spl"],
    "ma-mpl": ["run-mpl"],
    "greedy": ["run-baseline", "--baseline", "greedy"],
    "random": ["run-baseline", "--baseline", "random"],
}
SEEDS = (0, 1)
HORIZON = 20
KEY = ("preset", "learner", "seed")


def ledger_rows() -> list[dict]:
    """Every run's ``rounds.csv`` rows as strings, keyed by preset, learner and seed."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        over = Path(tmp) / "horizon.json"
        over.write_text(json.dumps({"horizon": HORIZON}))
        for preset in sorted(PRESETS):
            for learner, command in COMMANDS.items():
                for seed in SEEDS:
                    out = Path(tmp) / f"{preset}-{learner}-{seed}"
                    argv = [*command, "--preset", preset, "--config", str(over),
                            "--seed", str(seed), "--out", str(out)]
                    with contextlib.redirect_stdout(io.StringIO()):
                        if main(argv) != 0:
                            raise RuntimeError(f"macoord {' '.join(argv)} failed")
                    with (out / "rounds.csv").open(newline="") as fh:
                        for row in csv.DictReader(fh):
                            rows.append({"preset": preset, "learner": learner,
                                         "seed": str(seed), **row})
    return rows


def read_ledger(path: Path = LEDGER) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def write_ledger(rows: list[dict], path: Path = LEDGER) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


if __name__ == "__main__":
    write_ledger(ledger_rows())
    print(f"wrote {LEDGER}", file=sys.stderr)
