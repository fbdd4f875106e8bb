"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them on
success; they also appear in captured output on failure).  Expected values
were computed with the brute-force oracles / closed-form hand derivations
before being frozen here.
"""

import dataclasses
import time

import numpy as np
import pytest

from twinvest.cli import main
from twinvest.contracts import displacement_deterrent_margin
from twinvest.dynamics import AgentKind, simulate_two_period
from twinvest.families import ParametricFamily as F
from twinvest.fixtures import f1, f2, f3, f4, f5
from twinvest.investment import displacement_threshold, optimal_investment
from twinvest.model import evaluate_grid
from twinvest.oracle import (
    certify_contract,
    certify_continuous,
    certify_regimes,
    certify_two_period,
)
from twinvest.continuous import contract_for_effort, foc_residual, principal_optimal_effort
from twinvest.sampling import random_continuous_models, random_models

SEED = 12345


def report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def sampled_models():
    return random_models(200, SEED)


def test_criterion_01_contract_certification():
    """Analytic wage matches exhaustive payment enumeration on F1-F4."""
    start = time.perf_counter()
    cases = [
        (name, model, v)
        for name, model in [("f1", f1()), ("f2", f2()), ("f3", f3()), ("f4", f4())]
        for v in (0.0, model.v_max / 2.0, model.v_max)
    ]
    cert = certify_contract(cases)
    elapsed = time.perf_counter() - start
    report(
        1,
        cert.passed and elapsed < 10.0,
        f"contract oracle agreement on 12 cases at 1e-3 resolution "
        f"(max err {cert.max_value_error:.2e}, {elapsed:.2f}s < 10s)",
    )


def test_criterion_02_proposition_soundness(sampled_models):
    """Definite regime labels match the unconstrained argmax on 200 models."""
    from twinvest.investment import RegimeLabel, classify_regime

    start = time.perf_counter()
    cases = [(f"random-{i}", m) for i, m in enumerate(sampled_models)]
    cert = certify_regimes(cases, step=1e-3)
    elapsed = time.perf_counter() - start
    definite = sum(
        classify_regime(m) is not RegimeLabel.INDETERMINATE for m in sampled_models
    )
    report(
        2,
        cert.passed and elapsed < 60.0 and definite >= 50,
        f"zero violations over {cert.checks} seeded models "
        f"({definite} definite labels) at step 1e-3 ({elapsed:.2f}s < 60s)",
    )


def test_criterion_03_fixture_regressions():
    """Frozen optima: F1 full training, F3 interior, F4 none, F2 threshold."""
    sol1 = optimal_investment(f1())
    ok1 = sol1.v_opt == pytest.approx(1.0, abs=1e-9) and sol1.u_at_opt == pytest.approx(
        1.0 / 6.0, abs=1e-6
    )
    sol3 = optimal_investment(f3())
    ok3 = sol3.v_opt == pytest.approx(0.122, abs=2e-3) and sol3.u_at_opt == pytest.approx(
        0.06745, abs=1e-4
    )
    sol4 = optimal_investment(f4())
    ok4 = sol4.v_opt == 0.0
    v_star = displacement_threshold(f2())
    ok2 = (
        v_star is not None
        and 0.90 < v_star < 0.91
        and abs(displacement_deterrent_margin(f2(), v_star)) < 1e-9
    )
    report(
        3,
        ok1 and ok2 and ok3 and ok4,
        f"f1 v=1 U=1/6; f3 v={sol3.v_opt:.4f} U={sol3.u_at_opt:.5f}; "
        f"f4 v=0; f2 v*={v_star:.6f} with residual < 1e-9",
    )


def test_criterion_04_social_surplus_monotone(sampled_models):
    """First-best total surplus is nondecreasing on a 1001-point grid."""
    violations = 0
    for model in [f1(), f2(), f3(), f4()] + sampled_models:
        g = evaluate_grid(model, model.grid(1001))
        total = g.pi1 * model.quality_importance + model.s_low - g.cost
        if np.any(np.diff(total) < -1e-12):
            violations += 1
    report(4, violations == 0, f"0 violations over {4 + len(sampled_models)} models")


def test_criterion_05_rising_wage_rate_condition(sampled_models):
    """Wherever the wage slope is positive, separability falls and the
    max-investment rate condition holds."""
    checked = 0
    violations = 0
    for model in [f1(), f2(), f3(), f4()] + sampled_models:
        g = evaluate_grid(model, model.grid(101))
        gap = g.pi1 - g.pi0
        t_slope = (g.dcost * gap - g.cost * (g.dpi1 - g.dpi0)) / (gap * gap)
        q = g.pi1 / g.pi0
        dq = (g.dpi1 * g.pi0 - g.pi1 * g.dpi0) / (g.pi0 * g.pi0)
        rising = t_slope > 1e-9
        checked += int(rising.sum())
        bad = rising & ~((dq < 0.0) & (np.abs(g.dcost / g.cost) < np.abs(dq / (q - 1.0))))
        violations += int(bad.sum())
    report(
        5,
        violations == 0 and checked > 0,
        f"0 violations at {checked} rising-wage sample points",
    )


def test_criterion_06_two_period_exhaustiveness():
    """Simulation matches backward-induction enumeration; displacement
    happens exactly when the threshold sits below full training."""
    models = [("f1", f1()), ("f2", f2())] + [
        (f"r{i}", m)
        for i, m in enumerate(random_models(50, SEED + 1, min_retention_margin=5e-3))
    ]
    cert = certify_two_period(models)
    linkage_ok = True
    for _, model in models:
        trace = simulate_two_period(model, AgentKind.MYOPIC)
        displaced = trace.displacement_period == 2
        v_star = displacement_threshold(model)
        if displaced != (v_star is not None and v_star < model.v_max):
            linkage_ok = False
    report(
        6,
        cert.passed and linkage_ok,
        f"{cert.checks} trace comparisons agree; displacement iff threshold "
        f"below v_max on all {len(models)} models",
    )


def test_criterion_07_degradation_and_cycles():
    """Degradation retains the agent at alpha=0.5; rehire cycle lengths
    match the hand-iterated geometric decay and shrink with severity."""
    from twinvest.dynamics import degradation_deterrent_check, rehire_cycle_length

    retained = degradation_deterrent_check(f2(), 0.5)
    lengths = [rehire_cycle_length(f2(), a) for a in (0.5, 0.7, 0.9, 0.99)]
    monotone = all(a <= b for a, b in zip(lengths, lengths[1:]))
    ok = retained and lengths[3] == 5 and lengths[2] == 1 and monotone
    report(7, ok, f"alpha=0.5 retains; cycle lengths {lengths} weakly increasing in alpha")


def test_criterion_08_continuous_effort():
    """Stationarity of induced contracts; boundary and interior optima."""
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for cmodel in random_continuous_models(100, SEED + 2):
        e = float(rng.uniform(cmodel.e_min, cmodel.e_max))
        worst = max(worst, abs(foc_residual(cmodel, e, contract_for_effort(cmodel, e))))
    sol = principal_optimal_effort(f5())
    boundary_ok = sol.e_opt == 1.0 and abs(sol.principal_surplus - 1.5) <= 1e-9
    low = principal_optimal_effort(dataclasses.replace(f5(), s_high=0.4))
    interior_ok = abs(low.e_opt - 0.16) <= 1e-4
    report(
        8,
        worst <= 1e-10 and boundary_ok and interior_ok,
        f"max |stationarity residual| {worst:.2e} over 100 instances; "
        f"f5 boundary e=1 surplus 1.5; low-stakes interior e={low.e_opt:.5f}",
    )


def test_criterion_09_deterministic_outputs(tmp_path, capsys):
    """Repeated sweep and verify runs with a fixed seed are byte-identical."""
    import json

    from twinvest.config import section_to_dict

    obj = section_to_dict(f3())
    obj["sweep"] = {
        "axes": [
            {"target": "cost", "coefficient": 1, "start": 0.5, "stop": 3.0, "count": 6},
            {"target": "pi0", "coefficient": 1, "start": 0.1, "stop": 0.4, "count": 6},
        ]
    }
    model_path = tmp_path / "sweep.json"
    model_path.write_text(json.dumps(obj), encoding="utf-8")

    sweeps = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        assert main(["sweep", "--model", str(model_path), "--out", str(out)]) == 0
        sweeps.append(out.read_bytes())
    verifies = []
    for name in ("v1.json", "v2.json"):
        out = tmp_path / name
        assert main(["verify", "--models", "5", "--seed", "7", "--out", str(out)]) == 0
        verifies.append(out.read_bytes())
    capsys.readouterr()
    ok = sweeps[0] == sweeps[1] and verifies[0] == verifies[1]
    report(9, ok, "sweep and verify outputs byte-identical across repeated runs")


def test_criterion_10_derivative_sanity():
    """Analytic derivatives match central differences at 100 random points
    per family within 1e-6 relative error."""
    rng = np.random.default_rng(SEED + 3)
    families = [
        F.affine(0.2, 0.3),
        F.exponential_decay(0.2, 1.8),
        F.power(0.1, 0.4, 2.5),
        F.power(0.0, 1.0, 0.5),
        F.constant(0.8),
    ]
    worst = 0.0
    for fam in families:
        vs = rng.uniform(0.01, 1.0, size=100)
        h = 1e-6
        exact = np.asarray(fam.derivative(vs), dtype=float)
        approx = (np.asarray(fam.value(vs + h)) - np.asarray(fam.value(vs - h))) / (2 * h)
        rel = np.abs(exact - approx) / np.maximum(1.0, np.abs(exact))
        worst = max(worst, float(rel.max()))
    report(10, worst < 1e-6, f"max relative derivative error {worst:.2e} < 1e-6")
