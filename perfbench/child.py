"""One benchmark process: a closed-loop macoord run through the public harness.

Invoked by ``run.py`` as ``python3 perfbench/child.py <spec-json>``; prints one
JSON object on stdout.  The spec names the preset, the learner override, the
horizon, the seed, the expected charged queries per round, the mode and
``t0_ns``, the parent's ``time.monotonic_ns()`` just before this process was
started, so that set-up time counts interpreter start and imports.

Modes:

* ``measure`` — run the learner, then the ``random`` learner on the same
  config, timing round boundaries; check every round.
* ``trace`` — run the learner untraced, then again with every layer
  wrapped (see ``layers.py``); report per-span aggregates of the second run.

Everything in the spec comes from ``run.py``; nothing here is a setting.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CSV_COLUMNS = ("t", "utility", "opt", "cum_regret", "disagreement", "queries")


def import_package():
    """Import macoord from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, SRC)
    import macoord.harness as harness

    origin = os.path.realpath(harness.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"macoord imported from {origin}, not from {SRC}")
    return harness


def make_config(harness, spec: dict, learner: dict | None, regret: bool | None = None):
    doc = harness.resolve_preset(spec["preset"])
    if learner is not None:
        doc["learner"] = learner
    if regret is not None:
        doc["oracle_regret"] = regret
    doc["horizon"] = spec["horizon"]
    doc["seed"] = spec["seed"]
    return harness.RunConfig.from_dict(doc)


def run_timed(harness, clock, cfg):
    """Run one experiment; return (logs, round durations in s, loop seconds)."""
    clock.start()
    logs = harness.run_experiment(cfg)
    end = time.monotonic()
    bounds = clock.stamps + [end]
    rounds = [b - a for a, b in zip(bounds, bounds[1:])]
    return logs, rounds, end - clock.stamps[0]


def check_logs(harness, logs, cfg, expected_queries: int, scratch: str) -> tuple[int, list, str]:
    """Return (failed rounds, failure messages, sha256 of the exported CSV).

    Per round: finite utility and disagreement, the closed-form query count,
    and with the oracle on a finite optimum no smaller than the utility.  Per
    run: the horizon's number of rounds and a CSV with exactly the six
    columns; a failed run-level check fails every round.
    """
    failed, messages = 0, []
    for log in logs:
        bad = []
        if not (math.isfinite(log.utility) and math.isfinite(log.disagreement)):
            bad.append("non-finite utility or disagreement")
        if log.queries != expected_queries:
            bad.append(f"queries {log.queries} != {expected_queries}")
        if cfg.oracle_regret and not (
            log.opt is not None
            and math.isfinite(log.opt)
            and log.opt >= log.utility - 1e-9 * max(1.0, abs(log.opt))
        ):
            bad.append(f"oracle optimum {log.opt} below utility {log.utility}")
        if bad:
            failed += 1
            messages.append(f"round {log.t}: " + "; ".join(bad))
    path = os.path.join(scratch, f"rounds-{os.getpid()}.csv")
    try:
        harness.export_csv(logs, path)
        with open(path, "rb") as fh:
            data = fh.read()
    finally:
        if os.path.exists(path):
            os.remove(path)
    header = data.split(b"\n", 1)[0].decode().strip().split(",")
    run_bad = []
    if tuple(header) != CSV_COLUMNS:
        run_bad.append(f"CSV header {header}")
    if len(logs) != cfg.horizon:
        run_bad.append(f"{len(logs)} rounds logged, horizon {cfg.horizon}")
    if run_bad:
        failed = len(logs)
        messages.extend(run_bad)
    return failed, messages[:5], hashlib.sha256(data).hexdigest()


def main(spec: dict) -> dict:
    harness = import_package()
    from layers import RoundClock

    clock = RoundClock()
    clock.install()
    cfg = make_config(harness, spec, spec["learner"])
    out: dict = {"seed": spec["seed"]}
    logs, rounds, loop_s = run_timed(harness, clock, cfg)
    out["setup_s"] = clock.stamps[0] - spec["t0_ns"] / 1e9
    failed, messages, sha = check_logs(harness, logs, cfg, spec["queries"], spec["scratch"])
    out.update(
        rounds=len(logs), round_s=rounds, loop_s=loop_s,
        utility_sum=sum(log.utility for log in logs),
        queries=sum(log.queries for log in logs),
        csv_sha=sha, attempted=len(logs), failed=failed, failures=messages,
    )

    if spec["mode"] == "measure":
        # the random baseline charges nothing and needs no oracle optimum
        rand_cfg = make_config(harness, spec, {"kind": "random"}, regret=False)
        rand_logs = harness.run_experiment(rand_cfg)
        r_failed, r_messages, _ = check_logs(harness, rand_logs, rand_cfg, 0, spec["scratch"])
        out["random_utility_sum"] = sum(log.utility for log in rand_logs)
        out["attempted"] += len(rand_logs)
        out["failed"] += r_failed
        out["failures"] += r_messages
    else:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
        clock.on_first = tracer.reset
        t_logs, _, t_loop_s = run_timed(harness, clock, cfg)
        # snapshot before the checks below call into the package again
        out.update(
            traced_rounds=len(t_logs), traced_loop_s=t_loop_s,
            traced_queries=sum(log.queries for log in t_logs),
            top_s=tracer.top_s, spans=tracer.spans(),
        )
        t_failed, t_messages, t_sha = check_logs(
            harness, t_logs, cfg, spec["queries"], spec["scratch"]
        )
        if t_sha != sha:
            t_failed = len(t_logs)
            t_messages.append("traced run's CSV differs from the untraced run's")
        out["attempted"] += len(t_logs)
        out["failed"] += t_failed
        out["failures"] += t_messages

    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["environment"] = {
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
