"""Command-line entry point.

Subcommands
-----------
run-spl       one experiment with the consensus projected-ascent learner
run-mpl       one experiment with the meta conditional-gradient learner
run-baseline  one experiment with `--baseline random|greedy`
verify        run the verification battery; exit 2 on any failure
bench         run a preset's learner matrix over several seeds

Configs are single JSON documents; `--preset` supplies a named base config
and `--config`, `--seed`, `--out` override it.  A run subcommand sets the
learner kind and drops a learner spec that names another kind.  Every spec
section refuses a field its reader does not take.  Exit codes: 0 success,
1 usage or configuration error (one line), 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError, MacoordError, config_value
from .harness import (
    PRESETS,
    RunConfig,
    export_csv,
    export_json,
    resolve_preset,
    run_bench,
    run_experiment,
)
from .verification import run_verification, write_report


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):  # one line and exit 1; exit 2 means a failed battery
        self.exit(1, f"usage error: {self.prog}: {message}\n")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="JSON config file")
    p.add_argument("--preset", choices=sorted(PRESETS), help="named base config")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", type=Path, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="macoord",
        description="decentralized coordination experiments on set objectives",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_ in (
        ("run-spl", "consensus projected-ascent learner"),
        ("run-mpl", "meta conditional-gradient learner"),
        ("run-baseline", "random or sequential-greedy baseline"),
    ):
        p = sub.add_parser(name, help=help_)
        _add_run_flags(p)
        if name == "run-baseline":
            p.add_argument(
                "--baseline", choices=("random", "greedy"), default="random"
            )

    p = sub.add_parser("verify", help="run the verification battery")
    p.add_argument("--out", type=Path, help="where to write verify.json")

    p = sub.add_parser("bench", help="preset learner-matrix benchmark")
    p.add_argument("--preset", required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seeds", type=int, default=5, help="number of seeds, at least 1 (0..n-1)")
    return parser


def _load_run_config(args: argparse.Namespace, forced_kind: str | None) -> RunConfig:
    doc: dict = {}
    if args.preset:
        doc = resolve_preset(args.preset)
    if args.config:
        try:
            with args.config.open() as fh:
                overrides = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        doc.update(config_value("config", overrides, dict))
    if not doc:
        raise ConfigError("need --config and/or --preset")
    if forced_kind is not None:
        learner = config_value("learner", doc.get("learner", {}), dict)
        if learner.get("kind", forced_kind) != forced_kind:
            learner = {}  # settings of another learner kind
        doc["learner"] = {**learner, "kind": forced_kind}
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.out is not None:
        doc["out"] = str(args.out)
    return RunConfig.from_dict(doc)


def _run_single(args: argparse.Namespace, forced_kind: str | None) -> int:
    cfg = _load_run_config(args, forced_kind)
    logs = run_experiment(cfg)
    mean_utility = sum(log.utility for log in logs) / len(logs)
    line = f"{cfg.learner['kind']}: T={cfg.horizon} mean utility {mean_utility:.6g}"
    if cfg.oracle_regret:
        line += f", regret(rho={cfg.rho:.4g}) {logs[-1].cum_regret:.6g}"
    if cfg.out:
        out = Path(cfg.out)
        export_csv(logs, out / "rounds.csv")
        export_json(logs, out / "rounds.json")
        line += f" -> {out}"
    print(line)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bench" and args.seeds < 1:
        parser.error(f"argument --seeds: need at least one seed, got {args.seeds}")
    try:
        if args.command == "run-spl":
            return _run_single(args, "ma-spl")
        if args.command == "run-mpl":
            return _run_single(args, "ma-mpl")
        if args.command == "run-baseline":
            return _run_single(args, args.baseline)
        if args.command == "verify":
            results = run_verification()
            width = max(len(r.name) for r in results)
            for r in results:
                mark = "PASS" if r.passed else "FAIL"
                print(f"{r.name:<{width}}  {mark}  {r.detail}")
            if args.out:
                write_report(results, args.out / "verify.json")
            return 0 if all(r.passed for r in results) else 2
        if args.command == "bench":
            summary = run_bench(
                args.preset, args.out, seeds=tuple(range(args.seeds))
            )
            for label, stats in summary["learners"].items():
                print(f"{label}: mean utility {stats['mean_utility']:.6g}")
            return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except MacoordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
