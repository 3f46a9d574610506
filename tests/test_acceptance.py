"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test prints exactly one ``ACCEPTANCE n <name>: PASS/FAIL`` line with the
measured quantities, then asserts.  Failures are left to fail loudly — the
printed detail carries the measured numbers for the report.  Criteria 1-6, 9
and 10 are checks of ``macoord.verification``, which ``macoord verify`` also
runs.
"""

import time

import numpy as np

from macoord.harness import RunConfig, resolve_preset, run_bench, run_experiment
from macoord.verification import (
    CheckResult,
    byte_identical_reruns,
    gradient_formula,
    inner_loop_lag_bound,
    key_inequalities,
    lossless_rounding,
    ratio_estimator_sanity,
    stationary_point_floors,
    tightness_instance_escape,
)


def _report(num: int, name, ok: bool = False, detail: str = "") -> None:
    """Print and assert one criterion: a check's result, or a name, verdict
    and detail measured here."""
    if isinstance(name, CheckResult):
        name, ok, detail = name.name, name.passed, name.detail
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} {name}: {status} — {detail}"
    print(line)
    assert ok, line


def test_01_lossless_rounding():
    _report(1, lossless_rounding())


def test_02_gradient_formula():
    _report(2, gradient_formula())


def test_03_key_inequalities():
    _report(3, key_inequalities())


def test_04_stationary_point_floors():
    _report(4, stationary_point_floors())


def test_05_tightness_instance_and_escape():
    _report(5, tightness_instance_escape())


def test_06_inner_loop_lag_bound():
    _report(6, inner_loop_lag_bound())


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
    _report(9, ratio_estimator_sanity())


def test_10_byte_identical_reruns():
    _report(10, byte_identical_reruns())
