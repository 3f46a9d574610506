"""The package's checkable claims, one zero-argument check each.

Each check replays one claim with pinned seeds, instances and bounds against
an independent reference computation (enumeration, finite differences,
quadrature, sampling bands) and returns a one-line verdict.  ``macoord
verify`` runs them all in a second or two; the acceptance gate asserts the
first seven and the last as ACCEPTANCE 1-6, 9 and 10.
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .envs import (ModularFunction, SqrtModularFunction, TrackingGainObjective, coverage_instance,
                   synthetic_setfn)
from .errors import stream
from .extension import (PolicyProfile, SurrogateScheme, exact_extension, exact_gradient,
                        sample_rows, sample_z)
from .ground import Partition
from .harness import RunConfig, make_learner, run_experiment, write_json
from .network import CommGraph, diameter, erdos_renyi, metropolis_weights, spectral_gap
from .oracle import (approx_ratio, brute_force_opt, estimate_ratios, feasible_sets,
                     projected_ascent, stationarity_gap, stationary_point_floor)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __post_init__(self) -> None:
        # numpy comparison results sneak in as np.bool_; keep the report
        # JSON-serializable
        object.__setattr__(self, "passed", bool(self.passed))


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


# The fixed instances the checks share: a close-range tracking gain that is
# not submodular, the three-agent planted trap, and a concave-of-modular pair.
NONSUB_TRACKING = TrackingGainObjective(
    Partition((2, 1)),
    np.array([[0.0, -0.08], [-0.01, -0.03], [0.0, 0.05]]),
    np.array([[0.0, 0.0]]),
)
TRAP = coverage_instance(3, 0.1, 1)
SQRT_PAIR = SqrtModularFunction(Partition((2, 2)), np.array([2.25, 1.0, 4.0, 0.25]))


def lossless_rounding() -> CheckResult:
    """ACCEPTANCE 1: sampling a profile is an unbiased estimate of F(pi)."""
    started = time.monotonic()
    rng = stream(101)
    draws = 100_000
    worst = 0.0
    for _ in range(20):
        f = _random_instance(rng)
        profile = _random_profile(f.partition.sizes, rng)
        u = rng.random((f.partition.n_agents, draws)).T  # agent-major draw order
        vals = f.outcome_values[tuple((sample_rows(f.partition, profile.row, u) + 1).T)]
        mean = float(vals.mean())
        stderr = float(vals.std(ddof=1)) / math.sqrt(draws)
        dev = abs(mean - exact_extension(f, profile)) / max(stderr, 1e-12)
        worst = max(worst, dev)
    elapsed = time.monotonic() - started
    ok = worst <= 4.0 and elapsed < 30.0
    return CheckResult(
        "lossless-rounding",
        ok,
        f"max |MC - exact| = {worst:.2f} stderr over 20 instances x {draws} draws "
        f"(bound 4); {elapsed:.1f} s (bound 30)",
    )


def gradient_formula() -> CheckResult:
    """ACCEPTANCE 2: exact partial derivatives match central differences."""
    started = time.monotonic()
    rng = stream(202)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        f = _random_instance(rng)
        profile = _interior_profile(f.partition.sizes, rng)
        grad = exact_gradient(f, profile)
        for idx, g in enumerate(grad):
            up = profile.row.copy()
            down = profile.row.copy()
            up[idx] += h
            down[idx] -= h
            fd = (
                exact_extension(f, PolicyProfile(f.partition, up))
                - exact_extension(f, PolicyProfile(f.partition, down))
            ) / (2 * h)
            worst = max(worst, abs(fd - g) / max(abs(g), 1e-9))
    elapsed = time.monotonic() - started
    ok = worst < 1e-6 and elapsed < 10.0
    return CheckResult(
        "gradient-formula",
        ok,
        f"max relative FD error {worst:.2e} over 100 interior profiles "
        f"(bound 1e-6); {elapsed:.1f} s (bound 10)",
    )


def key_inequalities() -> CheckResult:
    """ACCEPTANCE 3: the gradient inequalities in alpha, gamma and beta."""
    rng = stream(303)
    instances = [
        synthetic_setfn("coverage-random", (2, 2, 2), rng),
        TRAP,
        SQRT_PAIR,
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
    return CheckResult(
        "key-inequalities",
        ok,
        f"min slack {min_slack:.3e} over 4 instances x 50 profiles x all feasible "
        "sets (bound -1e-9)",
    )


def stationary_point_floors() -> CheckResult:
    """ACCEPTANCE 4: stationary points clear 1/(1+c) and 1 - c/e."""
    rng = stream(404)
    instances = [synthetic_setfn("coverage-random", (2, 2, 2), rng) for _ in range(3)]
    instances += [TRAP, SQRT_PAIR]
    plain_scheme = SurrogateScheme.weak_dr(1.0)  # same decay, no min-gain bonus
    boost_scheme = SurrogateScheme.submodular()
    margins = []
    residuals = []
    for f in instances:
        c = estimate_ratios(f).curvature
        prof_ext = projected_ascent(f)
        prof_surr = projected_ascent(f, plain_scheme, step=0.3, max_iters=400)
        prof_boost = projected_ascent(f, boost_scheme, step=0.3, max_iters=400)
        ascents = ((prof_ext, None), (prof_surr, plain_scheme), (prof_boost, boost_scheme))
        residuals += [stationarity_gap(f, prof, scheme) for prof, scheme in ascents]
        for prof, scheme in ((prof_ext, None), (prof_boost, boost_scheme)):
            margins.append(approx_ratio(f, prof) - stationary_point_floor(scheme, curvature=c))
    converged = max(residuals) <= 1e-3
    ok = converged and all(m >= -1e-9 for m in margins)
    return CheckResult(
        "stationary-point-floors",
        ok,
        f"worst stationarity residual {max(residuals):.2e} (certificate 1e-3); "
        f"min floor margin {min(margins):+.4f} over {len(instances)} instances "
        "(floors 1/(1+c) and 1-c/e; bound -1e-9)",
    )


def tightness_instance_escape() -> CheckResult:
    """ACCEPTANCE 5: the planted trap holds the plain ascent, not the boosted one."""
    started = time.monotonic()
    f = TRAP
    trap = PolicyProfile(f.partition, f.partition.members(np.zeros((1, 3), dtype=np.int64))[0])
    scheme = SurrogateScheme.submodular()
    plain = stationarity_gap(f, trap)
    ratio = approx_ratio(f, trap)
    boosted = stationarity_gap(f, trap, scheme)
    spec = {"kind": "ma-spl", "scheme": {"kind": "submodular"}, "exact_gradient": True}
    learner = make_learner(spec, f.partition, CommGraph.complete(3), horizon=500, seed=0)
    learner.set_start(trap)
    opt = brute_force_opt(f)[1]
    escaped_value, escaped_at = -math.inf, None
    for t in range(1, 501):
        learner.round(f, t)
        escaped_value = exact_extension(f, learner.played_profile())
        if escaped_value >= 0.95 * opt:
            escaped_at = t
            break
    elapsed = time.monotonic() - started
    ok = (
        plain <= 1e-9
        and abs(ratio - 0.55) < 1e-12
        and boosted > 1e-9
        and escaped_value >= 0.95 * opt
        and elapsed < 60.0
    )
    return CheckResult(
        "tightness-instance-escape",
        ok,
        f"trap stationary for plain objective (improvement {plain:.2e} "
        f"<= 1e-9); audit ratio {ratio:.4f} (expect 0.55); boosted "
        f"improvement {boosted:.3f} > 1e-9; escape reached "
        f"{escaped_value:.3f} of OPT {opt:.3f} at round {escaped_at} (bound 500); "
        f"{elapsed:.1f} s (bound 60)",
    )


def inner_loop_lag_bound() -> CheckResult:
    """ACCEPTANCE 6: ma-mpl estimates lag by at most diameter / K."""
    f = coverage_instance(6, 0.1, 1)
    k_steps = 15
    graph = CommGraph.path(6)
    spec = {"kind": "ma-mpl", "K": k_steps, "L": 1}
    learner = make_learner(spec, f.partition, graph, horizon=100, seed=0)
    bound = diameter(graph) / k_steps
    lo, hi = math.inf, -math.inf
    for t in range(1, 101):
        learner.round(f, t)
        gaps = learner.inner_disagreement()
        lo, hi = min(lo, gaps.min()), max(hi, gaps.max())
    ok = lo >= 0.0 and hi <= bound
    return CheckResult(
        "inner-loop-lag-bound",
        ok,
        f"per-agent estimate gap range [{lo:.6f}, {hi:.6f}] within [0, {bound:.4f}] "
        "at every inner step of 100 rounds (exact, no tolerance)",
    )


def ratio_estimator_sanity() -> CheckResult:
    """ACCEPTANCE 9: exact ratios where known, and their invariants."""
    modular = estimate_ratios(
        ModularFunction(Partition((2, 2)), np.array([0.5, 1.25, 0.75, 2.0]))
    )
    exact_modular = (
        modular.curvature == 0.0
        and modular.dr_ratio == 1.0
        and modular.lower_ratio == 1.0
        and modular.upper_ratio == 1.0
    )
    trap_c = estimate_ratios(TRAP).curvature
    rng = stream(909)
    family = [
        estimate_ratios(synthetic_setfn("coverage-random", (2, 2, 2), rng)),
        estimate_ratios(SQRT_PAIR),
        estimate_ratios(NONSUB_TRACKING),
        modular,
    ]
    invariants = all(
        r.lower_ratio >= r.dr_ratio - 1e-9
        and r.upper_ratio <= 1.0 / r.dr_ratio + 1e-9
        for r in family
    )
    ok = exact_modular and trap_c == 1.0 and invariants
    return CheckResult(
        "ratio-estimator-sanity",
        ok,
        f"modular exactly (0,1,1,1): {exact_modular}; trap curvature {trap_c} "
        f"(expect exactly 1.0); gamma >= alpha and beta <= 1/alpha on "
        f"{len(family)} instances: {invariants}",
    )


def consensus_weights() -> CheckResult:
    """Metropolis weights are doubly stochastic and mix at a rate below one."""
    rng = stream(0)
    g = erdos_renyi(8, 4.0, rng)
    w = metropolis_weights(g)
    rows = np.allclose(w.sum(axis=1), 1.0) and np.allclose(w, w.T) and w.min() >= 0
    tau = spectral_gap(w)
    return CheckResult(
        "consensus-weights",
        bool(rows and tau < 1.0),
        f"doubly stochastic={bool(rows)}, mixing rate {tau:.3f} < 1",
    )


def z_sampler_cdf() -> CheckResult:
    """Surrogate z draws stay in [0, 1] and follow the CDF (e^{cz} - 1) / (e^c - 1)."""
    scheme = SurrogateScheme.weak_dr(0.7)
    n = 20_000
    draws = np.sort(sample_z(scheme, stream(5).random(n)))
    in_range = bool(0.0 <= draws[0] and draws[-1] <= 1.0)
    c = scheme.rate
    cdf = (np.exp(c * draws) - 1.0) / (math.exp(c) - 1.0)
    dev = float(np.max(np.abs(cdf - np.arange(1, n + 1) / n)))
    bound = 2.0 / math.sqrt(n)  # ~4x the KS 1% critical value
    return CheckResult(
        "z-sampler-cdf",
        in_range and dev < bound,
        f"draws in [0, 1]: {in_range}; max CDF deviation {dev:.4f} (bound {bound:.4f})",
    )


def byte_identical_reruns() -> CheckResult:
    """ACCEPTANCE 10: a rerun writes the same files, byte for byte, under each
    sampling learner, and another seed changes the rounds."""
    world = {"kind": "facility", "agents": 2, "targets": 2, "record_world": True}
    doc = {"environment": world, "graph": {"kind": "complete"}, "horizon": 4}
    files = ("rounds.csv", "rounds.json", "world.csv")
    checked = []  # (what was compared, with its verdict; whether it holds)
    with tempfile.TemporaryDirectory() as tmp:
        for learner in ({"kind": "ma-spl", "batch": 2}, {"kind": "ma-mpl"}, {"kind": "random"}):
            kind, runs = learner["kind"], []
            for seed in (3, 3, 4):
                out = Path(tmp) / f"{kind}-{len(runs)}"
                run_experiment(RunConfig.from_dict({**doc, "learner": learner, "seed": seed,
                                                    "out": str(out)}))
                runs.append([(out / name).read_bytes() for name in files])
            for name, first, rerun in zip(files, runs[0], runs[1]):
                checked.append((f"{kind}/{name} {'=' if first == rerun else '!='}", first == rerun))
            moved = runs[2][0] != runs[0][0]
            checked.append((f"{kind}/rounds.csv at seed 4 {'!=' if moved else '='}", moved))
    return CheckResult(
        "byte-identical-reruns",
        all(holds for _, holds in checked),
        "; ".join(what for what, _ in checked),
    )


CHECKS: list[Callable[[], CheckResult]] = [
    lossless_rounding,
    gradient_formula,
    key_inequalities,
    stationary_point_floors,
    tightness_instance_escape,
    inner_loop_lag_bound,
    ratio_estimator_sanity,
    consensus_weights,
    z_sampler_cdf,
    byte_identical_reruns,
]


def run_verification() -> list[CheckResult]:
    return [check() for check in CHECKS]


def write_report(results: list[CheckResult], path: "Path | str") -> Path:
    return write_json([asdict(r) for r in results], path)
