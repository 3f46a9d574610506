"""Self-contained pass/fail battery behind the ``verify`` CLI subcommand.

Each check replays one of the package's checkable claims at desk scale with
independent reference computations (enumeration, finite differences,
quadrature, sampling bands) and reports a one-line verdict.  The whole
battery runs in well under a minute.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .envs import ModularFunction, coverage_instance, synthetic_setfn
from .extension import (
    PolicyProfile,
    SurrogateScheme,
    exact_extension,
    exact_gradient,
    exact_gradient_block,
    sample_choices,
    sample_z,
)
from .ground import Partition
from .harness import RunConfig, export_csv, run_experiment
from .learners import MetaConditionalGradientLearner, PolicyConsensusLearner
from .network import CommGraph, diameter, erdos_renyi, metropolis_weights, spectral_gap
from .oracle import (
    approx_ratio_audit,
    brute_force_opt,
    check_stationarity,
    estimate_ratios,
    feasible_sets,
    projected_ascent,
    stationary_point_floor,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __post_init__(self) -> None:
        # numpy comparison results sneak in as np.bool_; keep the report
        # JSON-serializable
        object.__setattr__(self, "passed", bool(self.passed))


def _random_profile(partition: Partition, rng, interior: bool = False) -> PolicyProfile:
    blocks = []
    for k in partition.sizes:
        x = rng.random(k)
        x /= x.sum() + rng.random() + (0.5 if interior else 0.0)
        blocks.append(np.clip(x, 1e-3 if interior else 0.0, None))
    return PolicyProfile(partition, np.concatenate(blocks))


def _check_lossless_rounding(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(5):
        f = synthetic_setfn("coverage-random", (2, 2, 2), rng)
        profile = _random_profile(f.partition, rng)
        exact = exact_extension(f, profile)
        u = rng.random((f.partition.n_agents, 40_000)).T  # agent-major draw order
        draws = f.outcome_values[tuple((sample_choices(profile, u) + 1).T)]
        stderr = draws.std(ddof=1) / math.sqrt(draws.size)
        dev = abs(draws.mean() - exact) / max(stderr, 1e-15)
        worst = max(worst, dev)
    return CheckResult(
        "lossless-rounding",
        worst < 4.0,
        f"max |mc - exact| = {worst:.2f} stderr (bound 4)",
    )


def _check_gradient_fd(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    f = synthetic_setfn("coverage-random", (2, 1, 2), rng)
    worst = 0.0
    for _ in range(10):
        profile = _random_profile(f.partition, rng, interior=True)
        agent, h = int(rng.integers(3)), 1e-5
        step = np.zeros(f.partition.total)
        step[f.partition.offsets[agent]] = h  # along the agent's slot 0
        up = PolicyProfile(f.partition, profile.row + step)
        dn = PolicyProfile(f.partition, profile.row - step)
        fd = (exact_extension(f, up) - exact_extension(f, dn)) / (2 * h)
        ex = exact_gradient_block(f, profile, agent)[0]
        worst = max(worst, abs(fd - ex) / max(abs(ex), 1e-12))
    return CheckResult(
        "gradient-finite-difference",
        worst < 1e-6,
        f"max relative error {worst:.2e} (bound 1e-6)",
    )


def _check_key_inequalities(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    f = synthetic_setfn("coverage-random", (2, 2, 2), rng)
    ratios = estimate_ratios(f)
    g, b = ratios.lower_ratio, ratios.upper_ratio
    # every feasible selection, in the C order of the outcome tensor
    members = f.partition.members(feasible_sets(f.partition))
    fs = f.outcome_values.ravel()
    worst = math.inf
    for _ in range(10):
        profile = _random_profile(f.partition, rng)
        value = exact_extension(f, profile)
        picked = members @ exact_gradient(f, profile)
        slack_dr = picked - ratios.dr_ratio * (fs - value)
        slack_ws = picked - (g**2 * fs - (b * (1 - g) + g**2) * value)
        worst = min(worst, float(slack_dr.min()), float(slack_ws.min()))
    return CheckResult(
        "gradient-value-inequalities",
        worst >= -1e-9,
        f"min slack {worst:.2e} (bound -1e-9)",
    )


def _check_stationary_floors(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    f = synthetic_setfn("coverage-random", (2, 2), rng)
    ratios = estimate_ratios(f)
    verdicts = []
    for objective, scheme in (
        ("extension", None),
        ("surrogate+min-gain", SurrogateScheme.submodular()),
    ):
        profile = projected_ascent(f, f.partition, objective, scheme)
        floor = stationary_point_floor(
            objective, curvature=ratios.curvature
        )
        audit = approx_ratio_audit(f, profile, floor, slack=1e-6)
        verdicts.append(audit.clears)
    return CheckResult(
        "stationary-point-floors",
        all(verdicts),
        f"floors cleared for extension and boosted surrogate: {verdicts}",
    )


def _check_tightness_instance(seed: int) -> CheckResult:
    f = coverage_instance(3, 0.1, 1)
    trap = PolicyProfile(f.partition, f.partition.members(np.zeros((1, 3), dtype=np.int64))[0])
    plain = check_stationarity(f, trap, "extension", tol=1e-9)
    boosted = check_stationarity(
        f, trap, "surrogate+min-gain", SurrogateScheme.submodular(), tol=1e-9
    )
    _, opt = brute_force_opt(f, f.partition)
    ratio = exact_extension(f, trap) / opt
    ok = plain.stationary and not boosted.stationary and abs(ratio - 0.55) < 1e-12
    return CheckResult(
        "escape-instance",
        ok,
        f"plain stationary={plain.stationary}, boosted stationary={boosted.stationary}, "
        f"ratio={ratio:.4f} (expect 0.55)",
    )


def _check_ratio_sanity(seed: int) -> CheckResult:
    f = ModularFunction(Partition((2, 2)), np.array([0.5, 1.25, 0.75, 2.0]))
    r = estimate_ratios(f)
    modular_ok = (
        r.curvature == 0.0
        and r.dr_ratio == 1.0
        and r.lower_ratio == 1.0
        and r.upper_ratio == 1.0
    )
    cov = estimate_ratios(coverage_instance(3, 0.1, 1))
    consistent = (
        cov.lower_ratio >= cov.dr_ratio - 1e-9
        and cov.upper_ratio <= 1.0 / cov.dr_ratio + 1e-9
    )
    return CheckResult(
        "ratio-estimators",
        modular_ok and cov.curvature == 1.0 and consistent,
        f"modular exact={modular_ok}, coverage curvature={cov.curvature}, "
        f"consistency={consistent}",
    )


def _check_consensus_weights(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    g = erdos_renyi(8, 4.0, rng)
    w = metropolis_weights(g)
    rows = np.allclose(w.sum(axis=1), 1.0) and np.allclose(w, w.T) and w.min() >= 0
    tau = spectral_gap(w)
    return CheckResult(
        "consensus-weights",
        bool(rows and tau < 1.0),
        f"doubly stochastic={bool(rows)}, mixing rate {tau:.3f} < 1",
    )


def _check_mpl_disagreement(seed: int) -> CheckResult:
    f = coverage_instance(4, 0.1, 1)
    g = CommGraph.path(4)
    learner = MetaConditionalGradientLearner(
        f.partition, g, horizon=5, seed=seed, inner_steps=8, sample_batch=2
    )
    bound = diameter(g) / 8
    worst = -math.inf
    ok = True
    for t in range(1, 6):
        learner.round(f, t, record_inner=True)
        for per_agent in learner.last_inner_disagreement:
            for q in per_agent:
                worst = max(worst, q)
                ok = ok and (0.0 <= q <= bound)
    return CheckResult(
        "mpl-estimate-lag",
        ok,
        f"max inner-step gap {worst:.4f} within [0, {bound:.4f}]",
    )


def _check_z_sampler(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    scheme = SurrogateScheme.weak_dr(0.7)
    draws = np.sort([sample_z(scheme, u) for u in rng.random(20_000).tolist()])
    cdf = np.expm1(scheme.rate * draws) / math.expm1(scheme.rate)
    dev = float(np.max(np.abs(cdf - (np.arange(1, draws.size + 1) - 0.5) / draws.size)))
    bound = 2.0 / math.sqrt(draws.size)  # ~4x the KS 1% critical value
    return CheckResult(
        "z-sampler-cdf",
        dev < bound,
        f"max CDF deviation {dev:.4f} (bound {bound:.4f})",
    )


def _check_determinism(seed: int) -> CheckResult:
    doc = {
        "environment": {"kind": "synthetic", "objective": "coverage-random", "sizes": [2, 2]},
        "graph": {"kind": "complete"},
        "learner": {"kind": "ma-spl", "batch": 2},
        "horizon": 10,
        "seed": seed,
    }
    rows = []
    for _ in range(2):
        logs = run_experiment(RunConfig.from_dict(json.loads(json.dumps(doc))))
        rows.append(tuple((l.t, l.utility, l.disagreement, l.queries) for l in logs))
    return CheckResult(
        "seeded-determinism",
        rows[0] == rows[1],
        "two runs with one seed produced identical logs",
    )


CHECKS: list[Callable[[int], CheckResult]] = [
    _check_lossless_rounding,
    _check_gradient_fd,
    _check_key_inequalities,
    _check_stationary_floors,
    _check_tightness_instance,
    _check_ratio_sanity,
    _check_consensus_weights,
    _check_mpl_disagreement,
    _check_z_sampler,
    _check_determinism,
]


def run_verification(seed: int = 0) -> list[CheckResult]:
    return [check(seed) for check in CHECKS]


def write_report(results: list[CheckResult], path: "Path | str") -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = [
        {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
    ]
    with path.open("w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path
