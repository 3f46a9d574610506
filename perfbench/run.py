"""macoord benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a closed loop: child processes one after another, each a
complete ``harness.run_experiment`` through the public API (one harness
client, each round starting when the previous one ends).  Child ``c`` runs
sub-seed ``DISTINCT_SEEDS * seed + c % DISTINCT_SEEDS``; the first
``MIN_CHILDREN`` children always run, and more start while the next one is
predicted to end within ``--seconds``.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see ``layers.py``).  Every round's output is
checked; the last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, with the
environment it ran in, also goes to ``.perfbench/results/``.

Tuning used seeds 0-9 only.  ``HOLDOUT_SEED`` was kept out of all tuning, so
that a later claim can be re-checked on an input nobody tuned against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")
STATE = os.path.join(ROOT, ".perfbench")

HOLDOUT_SEED = 104729
DISTINCT_SEEDS = 3  # sub-seeds per run; utility_vs_random pools exactly these
# Measuring children every run has: one rerun of a sub-seed, and a fixed count
# of set-up samples.  setup_s is their maximum.  Set-up takes ~0.2 s, so it
# straddles the host's speed modes (see END_TO_END) and single samples range
# over 0.13-0.25 s.  Their median followed the modes' share and moved 21%
# between two consecutive ten-seed sets; the maximum sits in the slow mode,
# like round_ms_p90, and a fixed count keeps it apart from the loop's speed.
MIN_CHILDREN = 4
CHILD_TIMEOUT_S = 60
WORLD_TICK_MS = 20.0  # envs.DT, the real-time reference for a round

# Horizons are cut from the presets' so that MIN_CHILDREN children fit the
# run and still give at least 110 rounds, leaving >= 10 beyond the p90.
# ``queries`` is the closed form of charged marginal queries per round.
WORKLOADS = {
    "facility-spl": dict(
        preset="facility-desk", learner=None, horizon=100,
        queries=6 * (10 * 24 + 24),  # n * (batch * k + min-gain k)
    ),
    "tracking-mpl": dict(
        preset="tracking-desk", learner={"kind": "ma-mpl"}, horizon=40,
        queries=6 * 15 * 10 * 24,  # n * K * L * k
    ),
    "orbit-regret": dict(
        preset="orbit-regret", learner=None, horizon=1000,
        queries=3 * (8 * 2 + 2),  # n * (batch * k + min-gain k)
    ),
    "coverage-escape": dict(
        preset="coverage-escape", learner=None, horizon=100,
        queries=0,  # the exact gradient enumerates; it charges nothing
    ),
}

# (metric, unit) in report order.  Speed is gated through the p90 round time
# alone.  This host's CPU speed is bimodal: regimes of 0.2-2 s in which rounds
# run 1.3-1.8x faster, whose share drifts from minute to minute.  A statistic
# that mixes the two modes (rounds_per_s, the median round) spread up to
# 0.25-0.39 IQR/median over ten seeds; the p90 stays in the slow mode (<= 0.12).
END_TO_END = (
    ("round_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# printed and stored under ``extra``, not gated; queries_per_s only when the
# workload charges queries
REPORTED = (
    ("rounds_per_s", "1/s"),
    ("round_ms_p50", "ms"),
    ("queries_per_s", "1/s"),
    ("utility_vs_random", "ratio"),
)

# per-layer metric -> (span, field, unit); fields are per traced round
SPAN_METRICS = {
    "ground.min_gain_vector.s": ("ground.min_gain_vector", "total_s", "s/round"),
    "ground.min_gain_vector.self_s": ("ground.min_gain_vector", "self_s", "s/round"),
    "ground.min_gain_vector.calls": ("ground.min_gain_vector", "calls", "calls/round"),
    "ground.local_marginal_block.s": ("ground.local_marginal_block", "total_s", "s/round"),
    "ground.local_marginal_block.calls": ("ground.local_marginal_block", "calls", "calls/round"),
    "envs.agent_marginals.self_s": ("envs.agent_marginals", "self_s", "s/round"),
    "envs.agent_marginals.calls": ("envs.agent_marginals", "calls", "calls/round"),
    "envs.value.self_s": ("envs.value", "self_s", "s/round"),
    "envs.value.calls": ("envs.value", "calls", "calls/round"),
    "envs.objective_build.s": ("envs.objective_build", "total_s", "s/round"),
    "envs.objective_build.calls": ("envs.objective_build", "calls", "calls/round"),
    "envs.finish_round.s": ("envs.finish_round", "total_s", "s/round"),
    "extension.sample_context.s": ("extension.sample_context", "total_s", "s/round"),
    "extension.sample_context.calls": ("extension.sample_context", "calls", "calls/round"),
    "extension.profiles_built": ("extension.PolicyProfile", "calls", "calls/round"),
    "extension.exact_surrogate_gradient_block.s": (
        "extension.exact_surrogate_gradient_block", "total_s", "s/round"),
    "extension.exact_surrogate_gradient_block.calls": (
        "extension.exact_surrogate_gradient_block", "calls", "calls/round"),
    "geometry.project_capped_simplex.s": ("geometry.project_capped_simplex", "total_s", "s/round"),
    "geometry.project_capped_simplex.calls": (
        "geometry.project_capped_simplex", "calls", "calls/round"),
    "network.exchange.s": ("network.exchange", "total_s", "s/round"),
    "network.exchange.calls": ("network.exchange", "calls", "calls/round"),
    "learners.round.self_s": ("learners.round", "self_s", "s/round"),
    "oracle.brute_force_opt.s": ("oracle.brute_force_opt", "total_s", "s/round"),
    "oracle.brute_force_opt.calls": ("oracle.brute_force_opt", "calls", "calls/round"),
}
ESTIMATE_SPANS = ("extension.estimate_gradient", "extension.estimate_surrogate_gradient")
DERIVED_LAYER = (
    ("ground.min_gain_per_objective", "calls/objective"),
    ("ground.queries_per_round", "queries/round"),
    ("extension.estimate.self_s", "s/round"),
    ("trace.loop_s_per_round", "s/round"),
    ("trace.coverage", "fraction"),
    ("trace.overhead_pct", "%"),
)


def child_env() -> dict:
    env = dict(os.environ)
    # tiny arrays: extra BLAS threads add scheduler noise, never speed
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    return env


def run_child(spec: dict) -> dict:
    spec = dict(spec, t0_ns=time.monotonic_ns())
    proc = subprocess.run(
        [sys.executable, CHILD, json.dumps(spec)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"benchmark child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_children(workload: str, seed: int, seconds: float, mode: str) -> list:
    """Closed loop of children; returns their results."""
    w = WORKLOADS[workload]
    scratch = os.path.join(STATE, "tmp")
    os.makedirs(scratch, exist_ok=True)
    base = dict(
        preset=w["preset"], learner=w["learner"], horizon=w["horizon"],
        queries=w["queries"], scratch=scratch,
    )
    # a traced child runs the experiment twice (untraced, then traced): one is enough
    min_children = MIN_CHILDREN if mode == "measure" else 1
    results = []
    start = time.monotonic()
    last = 0.0
    while len(results) < min_children or time.monotonic() - start + last <= seconds:
        t0 = time.monotonic()
        sub_seed = DISTINCT_SEEDS * seed + len(results) % DISTINCT_SEEDS
        results.append(run_child(dict(base, seed=sub_seed, mode=mode)))
        last = time.monotonic() - t0
    return results


def check_reruns(results: list) -> int:
    """Children that reran a sub-seed must reproduce its CSV byte for byte."""
    failed, first = 0, {}
    for r in results:
        if first.setdefault(r["seed"], r["csv_sha"]) != r["csv_sha"]:
            r["failures"].append(f"rerun of seed {r['seed']} is not byte-identical")
            failed += r["rounds"]
    return failed


def utility_vs_random(results: list) -> float:
    distinct = results[:DISTINCT_SEEDS]
    return sum(r["utility_sum"] for r in distinct) / sum(r["random_utility_sum"] for r in distinct)


def end_to_end(results: list) -> dict:
    """Every end-to-end value, gated or reported."""
    rounds_ms = [1000.0 * s for r in results for s in r["round_s"]]
    p = statistics.quantiles(rounds_ms, n=10, method="inclusive")
    n_rounds = sum(r["rounds"] for r in results)
    loop_s = sum(r["loop_s"] for r in results)
    queries = sum(r["queries"] for r in results)
    values = {
        "rounds_per_s": n_rounds / loop_s,
        "round_ms_p50": statistics.median(rounds_ms),
        "round_ms_p90": p[8],
        "setup_s": max(r["setup_s"] for r in results[:MIN_CHILDREN]),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in results) / 1024.0,
        "utility_vs_random": utility_vs_random(results),
    }
    if queries:
        values["queries_per_s"] = queries / loop_s
    return values


def per_layer(results: list) -> tuple[dict, dict, int]:
    """Per-layer metrics per traced round, the merged spans, the traced rounds."""
    spans: dict = {}
    for r in results:
        for name, row in r["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += row[k]
    rounds = sum(r["traced_rounds"] for r in results)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    out = {
        metric: spans.get(span, zero)[field] / rounds
        for metric, (span, field, _) in SPAN_METRICS.items()
    }
    traced_loop = sum(r["traced_loop_s"] for r in results)
    untraced_loop = sum(r["loop_s"] for r in results)
    untraced_rounds = sum(r["rounds"] for r in results)
    out["ground.min_gain_per_objective"] = (
        spans.get("ground.min_gain_vector", zero)["calls"]
        / spans["envs.objective_build"]["calls"]
    )
    out["ground.queries_per_round"] = sum(r["traced_queries"] for r in results) / rounds
    out["extension.estimate.self_s"] = sum(
        spans.get(s, zero)["self_s"] for s in ESTIMATE_SPANS
    ) / rounds
    out["trace.loop_s_per_round"] = traced_loop / rounds
    out["trace.coverage"] = sum(r["top_s"] for r in results) / traced_loop
    # untraced rounds/s over traced rounds/s, as a percentage above one
    out["trace.overhead_pct"] = 100.0 * (
        (traced_loop / rounds) / (untraced_loop / untraced_rounds) - 1.0
    )
    return out, spans, rounds


def report_spans(spans: dict, rounds: int, loop_s: float) -> None:
    print(f"# layer spans per traced round ({rounds} rounds), share of loop time")
    print(f"# {'span':44s} {'calls/round':>12s} {'total ms':>10s} {'self ms':>10s} {'self %':>7s}")
    for name, row in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        print(
            f"# {name:44s} {row['calls'] / rounds:12.2f} {1e3 * row['total_s'] / rounds:10.4f}"
            f" {1e3 * row['self_s'] / rounds:10.4f} {100 * row['self_s'] / loop_s:7.2f}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "macoord", "harness.py")):
        print(f"error: no macoord sources under {ROOT}/src", file=sys.stderr)
        return 2

    mode = "trace" if args.trace else "measure"
    try:
        results = run_children(args.workload, args.seed, args.seconds, mode)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    if mode == "measure":
        failed += check_reruns(results)
    for r in results:
        for message in r["failures"]:
            print(f"# check failed (seed {r['seed']}): {message}")

    env = dict(
        results[0]["environment"], git_sha=git_sha(),
        nproc=os.cpu_count(),
        holdout_seed=args.seed == HOLDOUT_SEED,
    )
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"children={len(results)} sub-seeds={sorted({r['seed'] for r in results})}")
    print("# environment " + json.dumps(env, sort_keys=True))

    if mode == "measure":
        values = end_to_end(results)
        n_rounds = sum(r["rounds"] for r in results)
        loop_s = sum(r["loop_s"] for r in results)
        print(f"# {n_rounds} rounds over {loop_s:.2f} s of round loop")
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
        extra = {k: (values[k], u) for k, u in REPORTED if k in values}
    else:
        values, spans, rounds = per_layer(results)
        extra = {}
        report_spans(spans, rounds, sum(r["traced_loop_s"] for r in results))
        units = {m: u for m, (_, _, u) in SPAN_METRICS.items()}
        units.update(DERIVED_LAYER)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    for name, m in metrics.items():
        tick = f"  (world tick {WORLD_TICK_MS:g} ms)" if name.startswith("round_ms") else ""
        print(f"# {name:44s} {m['value']!s:>24} {m['unit']}{tick}")
    for name, (v, unit) in extra.items():
        tick = f"  (world tick {WORLD_TICK_MS:g} ms)" if name.startswith("round_ms") else ""
        print(f"# {name:44s} {v!s:>24} {unit}{tick}  (reported, not gated)")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    path = os.path.join(
        STATE, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w") as fh:
        json.dump(dict(result, environment=env, extra=extra, children=results), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
