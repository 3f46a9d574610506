"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test prints exactly one ``ACCEPTANCE n <name>: PASS/FAIL`` line with the
measured quantities, then asserts.  Failures are left to fail loudly — the
printed detail carries the measured numbers for the report.
"""

import math
import time

import numpy as np
import pytest

from macoord.cli import main
from macoord.envs import (
    ModularFunction,
    SqrtModularFunction,
    TrackingGainObjective,
    coverage_instance,
    synthetic_setfn,
)
from macoord.extension import (
    PolicyProfile,
    SurrogateScheme,
    exact_extension,
    exact_gradient,
    exact_gradient_block,
    sample_choices,
)
from macoord.ground import Partition
from macoord.harness import (
    RunConfig,
    resolve_preset,
    run_bench,
    run_experiment,
)
from macoord.learners import MetaConditionalGradientLearner, PolicyConsensusLearner
from macoord.network import CommGraph, metropolis_weights
from macoord.oracle import (
    approx_ratio_audit,
    brute_force_opt,
    check_stationarity,
    estimate_ratios,
    feasible_sets,
    projected_ascent,
    stationary_point_floor,
)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} {name}: {status} — {detail}"
    print(line)
    assert ok, line


def _random_instance(rng):
    """Random monotone objective with n <= 3 agents and at most 2 own actions."""
    kind = rng.choice(["modular", "coverage-random", "concave-of-modular"])
    n = int(rng.integers(2, 4))
    sizes = tuple(int(rng.integers(1, 3)) for _ in range(n))
    return synthetic_setfn(str(kind), sizes, rng)


def _random_profile(sizes, rng):
    blocks = []
    for k in sizes:
        raw = rng.random(k)
        total = raw.sum()
        if total > 0:
            raw = raw * (rng.random() / total)  # total mass uniform in [0, 1)
        blocks.append(raw)
    return PolicyProfile(Partition(sizes), np.concatenate(blocks))


def _interior_profile(sizes, rng):
    return PolicyProfile(
        Partition(sizes), np.concatenate([rng.uniform(0.05, 0.45 / k, k) + 0.05 for k in sizes])
    )


NONSUB_TRACKING = TrackingGainObjective(
    Partition((2, 1)),
    np.array([[0.0, -0.08], [-0.01, -0.03], [0.0, 0.05]]),
    np.array([[0.0, 0.0]]),
)


def test_01_lossless_rounding():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    draws = 100_000
    worst = 0.0
    for _ in range(20):
        f = _random_instance(rng)
        profile = _random_profile(f.partition.sizes, rng)
        u = rng.random((f.partition.n_agents, draws)).T  # agent-major draw order
        vals = f.outcome_values[tuple((sample_choices(profile, u) + 1).T)]
        mean = float(vals.mean())
        stderr = float(vals.std(ddof=1)) / math.sqrt(draws)
        dev = abs(mean - exact_extension(f, profile)) / max(stderr, 1e-12)
        worst = max(worst, dev)
    elapsed = time.monotonic() - started
    ok = worst <= 4.0 and elapsed < 30.0
    _report(
        1,
        "lossless-rounding",
        ok,
        f"max |MC - exact| = {worst:.2f} stderr over 20 instances x {draws} draws "
        f"(bound 4); {elapsed:.1f} s (bound 30)",
    )


def test_02_gradient_formula():
    started = time.monotonic()
    rng = np.random.default_rng(202)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        f = _random_instance(rng)
        profile = _interior_profile(f.partition.sizes, rng)
        for i, k in enumerate(profile.sizes):
            for m in range(k):
                up = profile.row.copy()
                down = profile.row.copy()
                up[f.partition.offsets[i] + m] += h
                down[f.partition.offsets[i] + m] -= h
                fd = (
                    exact_extension(f, PolicyProfile(f.partition, up))
                    - exact_extension(f, PolicyProfile(f.partition, down))
                ) / (2 * h)
                g = exact_gradient_block(f, profile, i)[m]
                worst = max(worst, abs(fd - g) / max(abs(g), 1e-9))
    elapsed = time.monotonic() - started
    ok = worst < 1e-6 and elapsed < 10.0
    _report(
        2,
        "gradient-formula",
        ok,
        f"max relative FD error {worst:.2e} over 100 interior profiles "
        f"(bound 1e-6); {elapsed:.1f} s (bound 10)",
    )


def test_03_key_inequalities():
    rng = np.random.default_rng(303)
    instances = [
        synthetic_setfn("coverage-random", (2, 2, 2), rng),
        coverage_instance(3, 0.1, 1),
        SqrtModularFunction(Partition((2, 2)), np.array([2.25, 1.0, 4.0, 0.25])),
        NONSUB_TRACKING,
    ]
    min_slack = math.inf
    for f in instances:
        r = estimate_ratios(f)
        alpha, gamma, beta = r.dr_ratio, r.lower_ratio, r.upper_ratio
        sets = feasible_sets(f.partition)
        for _ in range(50):
            profile = _random_profile(f.partition.sizes, rng)
            value = exact_extension(f, profile)
            grad = exact_gradient(f, profile)
            # the outcome tensor holds f at every feasible set, in their order
            for s, fs in zip(sets, f.outcome_values.ravel()):
                picked = sum(
                    float(grad[f.partition.offsets[i] + slot])
                    for i, slot in enumerate(s.tolist())
                    if slot >= 0
                )
                slack_dr = picked - alpha * (fs - value)
                slack_ws = picked - (
                    gamma**2 * fs - (beta * (1.0 - gamma) + gamma**2) * value
                )
                min_slack = min(min_slack, slack_dr, slack_ws)
    ok = min_slack >= -1e-9
    _report(
        3,
        "key-inequalities",
        ok,
        f"min slack {min_slack:.3e} over 4 instances x 50 profiles x all feasible "
        "sets (bound -1e-9)",
    )


def test_04_stationary_point_floors():
    rng = np.random.default_rng(404)
    instances = [
        synthetic_setfn("coverage-random", (2, 2, 2), rng) for _ in range(3)
    ]
    instances.append(coverage_instance(3, 0.1, 1))
    instances.append(
        SqrtModularFunction(Partition((2, 2)), np.array([2.25, 1.0, 4.0, 0.25]))
    )
    plain_scheme = SurrogateScheme.weak_dr(1.0)  # same decay, no min-gain bonus
    margins = []
    residuals = []
    for f in instances:
        c = estimate_ratios(f).curvature
        prof_ext = projected_ascent(f, f.partition, "extension")
        prof_surr = projected_ascent(
            f, f.partition, "surrogate", scheme=plain_scheme, step=0.3, max_iters=400
        )
        prof_boost = projected_ascent(
            f, f.partition, "surrogate+min-gain", step=0.3, max_iters=400
        )
        residuals.append(
            check_stationarity(f, prof_ext, "extension").improvement
        )
        residuals.append(
            check_stationarity(f, prof_surr, "surrogate", scheme=plain_scheme).improvement
        )
        residuals.append(
            check_stationarity(f, prof_boost, "surrogate+min-gain").improvement
        )
        audit_ext = approx_ratio_audit(
            f, prof_ext, stationary_point_floor("extension", curvature=c), slack=1e-9
        )
        audit_boost = approx_ratio_audit(
            f,
            prof_boost,
            stationary_point_floor("surrogate+min-gain", curvature=c),
            slack=1e-6,
        )
        margins.append(audit_ext.ratio - audit_ext.floor)
        margins.append(audit_boost.ratio - audit_boost.floor)
    converged = max(residuals) <= 1e-3
    ok = converged and all(m >= -1e-9 for m in margins)
    _report(
        4,
        "stationary-point-floors",
        ok,
        f"worst stationarity residual {max(residuals):.2e} (certificate 1e-3); "
        f"min floor margin {min(margins):+.4f} over {len(instances)} instances "
        "(floors 1/(1+c) and 1-c/e-1e-6)",
    )


def test_05_tightness_instance_and_escape():
    started = time.monotonic()
    f = coverage_instance(3, 0.1, 1)
    trap = PolicyProfile(f.partition, f.partition.members(np.zeros((1, 3), dtype=np.int64))[0])
    plain = check_stationarity(f, trap, "extension", tol=1e-9)
    audit = approx_ratio_audit(
        f, trap, stationary_point_floor("extension", curvature=1.0)
    )
    boosted = check_stationarity(f, trap, "surrogate+min-gain", tol=1e-9)
    graph = CommGraph.complete(3)
    learner = PolicyConsensusLearner(
        f.partition,
        graph,
        metropolis_weights(graph),
        SurrogateScheme.submodular(),
        horizon=500,
        seed=0,
        exact_gradient=True,
    )
    learner.set_start(trap)
    opt = brute_force_opt(f, f.partition)[1]
    escaped_value, escaped_at = -math.inf, None
    for t in range(1, 501):
        learner.round(f, t)
        escaped_value = exact_extension(f, learner.played_profile())
        if escaped_value >= 0.95 * opt:
            escaped_at = t
            break
    elapsed = time.monotonic() - started
    ok = (
        plain.stationary
        and abs(audit.ratio - 0.55) < 1e-12
        and not boosted.stationary
        and escaped_value >= 0.95 * opt
        and elapsed < 60.0
    )
    _report(
        5,
        "tightness-instance-escape",
        ok,
        f"trap stationary for plain objective (improvement {plain.improvement:.2e} "
        f"<= 1e-9); audit ratio {audit.ratio:.4f} (expect 0.55); boosted "
        f"improvement {boosted.improvement:.3f} > 0; escape reached "
        f"{escaped_value:.3f} of OPT {opt:.3f} at round {escaped_at} (bound 500); "
        f"{elapsed:.1f} s (bound 60)",
    )


def test_06_inner_loop_lag_bound():
    f = coverage_instance(6, 0.1, 1)
    k_steps = 15
    learner = MetaConditionalGradientLearner(
        f.partition,
        CommGraph.path(6),
        horizon=100,
        seed=0,
        inner_steps=k_steps,
        sample_batch=1,
    )
    bound = 5.0 / k_steps  # graph diameter over inner steps
    lo, hi = math.inf, -math.inf
    for t in range(1, 101):
        learner.round(f, t, record_inner=True)
        for step_vals in learner.last_inner_disagreement:
            for v in step_vals:
                lo, hi = min(lo, v), max(hi, v)
    ok = lo >= 0.0 and hi <= bound
    _report(
        6,
        "inner-loop-lag-bound",
        ok,
        f"per-agent estimate gap range [{lo:.6f}, {hi:.6f}] within [0, {bound:.4f}] "
        "at every inner step of 100 rounds (exact, no tolerance)",
    )


def test_07_end_to_end_ordering(tmp_path):
    t0 = time.monotonic()
    facility = run_bench("facility-desk", tmp_path / "facility")["learners"]
    t_facility = time.monotonic() - t0
    t0 = time.monotonic()
    tracking = run_bench("tracking-desk", tmp_path / "tracking")["learners"]
    t_tracking = time.monotonic() - t0

    f_rand = facility["random"]["mean_utility"]
    f_spl = facility["ma-spl"]["mean_utility"]
    f_greedy = facility["greedy"]["mean_utility"]
    facility_ok = f_spl >= 1.2 * f_rand and f_greedy > f_rand

    e_rand = tracking["random"]["mean_utility"]
    e_ratios = {
        label: tracking[label]["mean_utility"] / e_rand
        for label in ("ma-spl-a0.1", "ma-spl-a1", "ma-mpl")
    }
    ekf_ok = all(r >= 1.1 for r in e_ratios.values())

    time_ok = t_facility < 600.0 and t_tracking < 600.0
    ok = facility_ok and ekf_ok and time_ok
    _report(
        7,
        "end-to-end-ordering",
        ok,
        f"facility: ma-spl/random {f_spl / f_rand:.2f}x (need 1.2x), "
        f"greedy/random {f_greedy / f_rand:.2f}x (need >1x) -> "
        f"{'ok' if facility_ok else 'FAIL'}; "
        "ekf: "
        + ", ".join(f"{k}/random {v:.4f}x" for k, v in e_ratios.items())
        + f" (need 1.1x) -> {'ok' if ekf_ok else 'FAIL'}; "
        f"runtimes {t_facility:.0f}s/{t_tracking:.0f}s (bound 600 each)",
    )


def test_08_sublinear_regret_trend():
    checkpoints = (500, 1000, 2000)
    per_seed = []
    for seed in range(5):
        doc = resolve_preset("orbit-regret")
        doc["seed"] = seed
        logs = run_experiment(RunConfig.from_dict(doc))
        per_seed.append([logs[t - 1].cum_regret / t for t in checkpoints])
    means = np.mean(per_seed, axis=0)
    ok = bool(means[0] > means[1] > means[2])
    _report(
        8,
        "sublinear-regret-trend",
        ok,
        "5-seed mean R(T)/T at T=500/1000/2000: "
        + " > ".join(f"{m:.6f}" for m in means)
        + (" (strictly decreasing)" if ok else " (NOT strictly decreasing)"),
    )


def test_09_ratio_estimator_sanity():
    modular = estimate_ratios(
        ModularFunction(Partition((2, 2)), np.array([0.5, 1.25, 0.75, 2.0]))
    )
    exact_modular = (
        modular.curvature == 0.0
        and modular.dr_ratio == 1.0
        and modular.lower_ratio == 1.0
        and modular.upper_ratio == 1.0
    )
    trap_c = estimate_ratios(coverage_instance(3, 0.1, 1)).curvature
    rng = np.random.default_rng(909)
    family = [
        estimate_ratios(synthetic_setfn("coverage-random", (2, 2, 2), rng)),
        estimate_ratios(
            SqrtModularFunction(Partition((2, 2)), np.array([2.25, 1.0, 4.0, 0.25]))
        ),
        estimate_ratios(NONSUB_TRACKING),
        modular,
    ]
    invariants = all(
        r.lower_ratio >= r.dr_ratio - 1e-9
        and r.upper_ratio <= 1.0 / r.dr_ratio + 1e-9
        for r in family
    )
    ok = exact_modular and trap_c == 1.0 and invariants
    _report(
        9,
        "ratio-estimator-sanity",
        ok,
        f"modular exactly (0,1,1,1): {exact_modular}; trap curvature {trap_c} "
        f"(expect exactly 1.0); gamma >= alpha and beta <= 1/alpha on "
        f"{len(family)} instances: {invariants}",
    )


def test_10_byte_identical_reruns(tmp_path):
    import json

    doc = {
        "environment": {
            "kind": "facility",
            "agents": 2,
            "targets": 2,
            "record_world": True,
        },
        "graph": {"kind": "complete"},
        "learner": {"kind": "ma-spl", "batch": 2},
        "horizon": 4,
        "seed": 3,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    identical = True
    checked = []
    for command in (["run-spl"], ["run-mpl"], ["run-baseline", "--baseline", "random"]):
        paths = []
        for rep in ("a", "b"):
            out = tmp_path / f"{command[0]}-{command[-1]}-{rep}"
            rc = main([*command, "--config", str(cfg_path), "--out", str(out)])
            assert rc == 0
            paths.append(out)
        for name in ("rounds.csv", "world.csv"):
            same = (paths[0] / name).read_bytes() == (paths[1] / name).read_bytes()
            identical &= same
            checked.append(f"{command[0]}/{name}: {'=' if same else '!='}")
    _report(
        10,
        "byte-identical-reruns",
        identical,
        "; ".join(checked),
    )
