"""Run ``run.py`` over several seeds per workload and summarize the spread.

    python3 perfbench/stability.py --seeds 0-9 [--trace 0|1] [--out FILE]

Runs every workload of ``BENCHMARK.json`` one after another, never
concurrently, each seed once, with ``run_seconds`` from ``BENCHMARK.json``.
For every metric it prints the median, the quartiles of
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, beside the metric's bound.

``--out FILE`` stores the summary, each run's values and its report-only
extras (rounds_per_s, round_ms_p50, queries_per_s, utility_vs_random) under
the key ``trace0`` or ``trace1`` of FILE, keeping the other key.  A traced
summary also gets each workload's layer shares: every ``s/round`` metric over
the traced loop time per round, as a median over the runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / statistics.median(values) if statistics.median(values) else None,
        "min": min(values),
        "max": max(values),
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(ROOT, ".perfbench", "results", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        return result, json.load(fh)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}

    summary, environment = {}, None
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in parse_seeds(args.seeds):
            result, full = run_once(workload, seed, bench["run_seconds"], args.trace)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed", file=sys.stderr)
            runs.append({
                "seed": seed,
                "correct": result["correct"],
                "metrics": {k: m["value"] for k, m in result["metrics"].items()},
                "extra": {k: v for k, (v, _) in full["extra"].items()},
            })
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v:.6g}" for k, v in {**runs[-1]["metrics"], **runs[-1]["extra"]}.items()
            ), flush=True)
        names = list(runs[0]["metrics"]) + list(runs[0]["extra"])
        stats = {}
        for name in names:
            values = [{**r["metrics"], **r["extra"]}[name] for r in runs]
            stats[name] = summarize(values)
            share = stats[name]["iqr_share"]
            bound = bounds.get(name)
            print(f"  {name:46s} median {stats[name]['median']:.6g}  "
                  f"IQR/median {share if share is None else f'{share:.4f}'}"
                  + (f"  bound {bound}  {'ok' if share is not None and share < bound / 3 else 'WIDE'}"
                     if bound is not None and args.trace == 0 else ""), flush=True)
        summary[workload] = {"stats": stats, "runs": runs}
        if args.trace:
            summary[workload]["layer_shares"] = {
                name: statistics.median(
                    r["metrics"][name] / r["metrics"]["trace.loop_s_per_round"] for r in runs
                )
                for name in names
                if units.get(name) == "s/round"
                and name != "trace.loop_s_per_round"
            }
        environment = environment or full["environment"]
    if args.out:
        doc = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                doc = json.load(fh)
        doc[f"trace{args.trace}"] = {
            "run_seconds": bench["run_seconds"],
            "seeds": parse_seeds(args.seeds),
            "environment": environment,
            "workloads": summary,
        }
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
