"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
All tolerances are fixed here, not calibrated elsewhere.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import random_prior
from oracles import coupling_onto_rows, enumerate_vertices_minimize, transport_lp
from robustmd.ambiguity import (
    LinearSet,
    MomentRow,
    QuantileSet,
    Singleton,
    SupportInterval,
    WassersteinBall,
)
from robustmd.guarantee import radius_sweep, worst_case, worst_case_ball
from robustmd.measures import (
    DiscretePrior,
    Grid,
    ValueFunction,
    expectation,
    lsc_envelope,
    wasserstein1,
)
from robustmd.mechanisms import (
    E_INV,
    bs_optimal_cdf,
    cdf_value,
    critical_radius,
    median_example_bundle,
    monopoly_grid,
    persuasion_ambiguity,
    persuasion_value,
    robustify,
    solve_alpha,
    verify_saddle,
)
from robustmd.optim import EQUAL, LESS, LinearProgram, LpRow, LpStatus, solve_lp
from robustmd.robustness import Verdict, auto_defect_indices, check_robust
from test_optim import _random_lp
from test_robustness import step_function


def gate(number, name, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {tag} {detail}")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_median_example():
    t0 = time.perf_counter()
    g = monopoly_grid(extra=[0.4])  # spacing 1/400
    ex = median_example_bundle(0.4, g)
    rep = worst_case(ex.value_fn, ex.ambiguity)
    cert = check_robust(ex.value_fn, ex.ambiguity)
    elapsed = time.perf_counter() - t0

    value_ok = abs(rep.value - 0.200) <= 1e-6
    w = rep.worst_prior
    prior_ok = (
        abs(w.weights[g.index_of(0.0)] - 0.5) <= 1e-6
        and abs(w.weights[g.index_of(0.4)] - 0.5) <= 1e-6
        and abs(w.weights.sum() - 1.0) <= 1e-9
    )
    verdict_ok = cert.verdict is Verdict.NON_ROBUST
    witness_ok = cert.witness_payoffs is not None and max(cert.witness_payoffs) <= 1e-9
    runtime_ok = elapsed < 1.0
    gate(
        1,
        "median example",
        value_ok and prior_ok and verdict_ok and witness_ok and runtime_ok,
        f"value={rep.value:.9f} verdict={cert.verdict.value} "
        f"witness_max={max(cert.witness_payoffs):.2e} elapsed={elapsed:.2f}s",
    )


def test_criterion_2_bergemann_schlag():
    t0 = time.perf_counter()
    ok, details = True, []
    for tb in (0.45, 0.5, 0.6, 0.7):
        g = monopoly_grid(theta_bar=tb)
        v = cdf_value(bs_optimal_cdf(tb, g), "neg_regret")
        rep = worst_case(v, SupportInterval(tb, 1.0))
        target = tb * math.log(tb)  # value of negative regret: -(-tb ln tb)
        ok &= abs(rep.value - target) <= 2.0 * g.max_spacing
        cert = check_robust(v, SupportInterval(tb, 1.0))
        ok &= cert.verdict is Verdict.NON_ROBUST  # all four exceed 1/e
        details.append(f"{tb}:{rep.value:.6f}")
    g2 = monopoly_grid(theta_bar=0.2)
    v2 = cdf_value(bs_optimal_cdf(0.2, g2), "neg_regret")
    robust_ok = check_robust(v2, SupportInterval(0.2, 1.0)).verdict is Verdict.ROBUST
    elapsed = time.perf_counter() - t0
    gate(
        2,
        "bergemann-schlag guarantees",
        ok and robust_ok and elapsed < 5.0,
        f"{' '.join(details)} robust@0.2={robust_ok} elapsed={elapsed:.2f}s",
    )


def test_criterion_3_critical_radius():
    r = critical_radius(0.5)
    kappa = math.sqrt(0.5 / math.e)
    integral, _ = quad(lambda t: (0.5 - t) / t**2, kappa, 0.5)
    quad_ok = abs(r - kappa * integral) <= 1e-8
    gate(
        3,
        "critical radius",
        0.0052 <= r <= 0.0054 and quad_ok,
        f"r_hat(0.5)={r:.7f} |closed-quad|={abs(r - kappa * integral):.2e}",
    )


def test_criterion_4_figure4_coefficients():
    a1 = solve_alpha(0.5, 0.001)
    a3 = solve_alpha(0.5, 0.003)
    k1 = 0.5 * (0.5 * math.e) ** (-1.0 / a1)
    k3 = 0.5 * (0.5 * math.e) ** (-1.0 / a3)
    k6 = math.sqrt(0.5 / math.e)
    p1 = 0.5 - a1 * (0.5 - k1)
    p3 = 0.5 - a3 * (0.5 - k3)
    p6 = 2.0 * k6 - 0.5
    ok = (
        abs(k1 - 0.468712) <= 1e-4
        and abs(k3 - 0.446237) <= 1e-4
        and abs(k6 - 0.428882) <= 1e-6
        and abs(p1 - 0.351426) <= 1e-4
        and abs(p3 - 0.354979) <= 1e-4
        and abs(p6 - 0.357764) <= 1e-4
    )
    gate(
        4,
        "figure-4 coefficients",
        ok,
        f"kappa=({k1:.6f},{k3:.6f},{k6:.6f}) plateau=({p1:.6f},{p3:.6f},{p6:.6f})",
    )


def test_criterion_5_robustified_guarantees():
    ok, details = True, []
    for tb, r in ((0.2, 0.01), (0.5, 0.001), (0.5, 0.003), (0.5, 0.006)):
        t0 = time.perf_counter()
        g = monopoly_grid(spacing=1.0 / 128.0, theta_bar=tb, r=r)
        assert g.n <= 200, f"coupling grid too large: {g.n}"
        sol = robustify(tb, r, g)
        v = cdf_value(sol.qhat, "neg_regret")
        ball = worst_case_ball(v, SupportInterval(tb, 1.0), r)
        tol = max(2.0 * g.max_spacing, 1e-3)
        ok &= abs(ball.value - (-sol.guarantee)) <= tol
        outside = (g.points < tb - 1e-12) | (g.points > 1.0 + 1e-12)
        brute = coupling_onto_rows(g.points, [LpRow(outside, EQUAL, 0.0)], v=v.values, radius=r)
        ok &= abs(ball.value - brute) <= 1e-8
        saddle = verify_saddle(sol)
        s2 = 2.0 * g.max_spacing
        ok &= (
            -1e-7 <= saddle.designer_slack <= s2
            and -1e-7 <= saddle.nature_slack <= s2
            and saddle.wasserstein_residual <= s2
        )
        elapsed = time.perf_counter() - t0
        ok &= elapsed < 60.0
        details.append(f"({tb},{r}):{-ball.value:.6f}~{sol.guarantee:.6f} {elapsed:.1f}s")
    gate(5, "robustified guarantees", ok, " ".join(details))


def test_criterion_6_persuasion():
    g = monopoly_grid(extra=[0.3, 0.4, 0.6])
    v = persuasion_value(0.3, g)
    amb = persuasion_ambiguity(0.3, 0.6, 0.4, g)
    rep = worst_case(v, amb)
    cert = check_robust(v, amb)
    value_ok = abs(rep.value - 0.657143) <= 1e-6
    gap_ok = cert.verdict is Verdict.NON_ROBUST and abs(cert.gap - 0.400) <= 1e-3
    gate(
        6,
        "persuasion example",
        value_ok and gap_ok,
        f"value={rep.value:.7f} gap={cert.gap:.5f}",
    )


def _min_defect_charge(v, amb_rows, guarantee, defects, n):
    """Least defect mass carried by any optimal prior (LP refinement)."""
    obj = np.zeros(n)
    obj[list(defects)] = 1.0
    rows = list(amb_rows) + [
        LpRow(np.ones(n), EQUAL, 1.0),
        LpRow(v.values, LESS, guarantee + 1e-9),
    ]
    sol = solve_lp(LinearProgram(obj, rows))
    assert sol.status is LpStatus.OPTIMAL
    return max(sol.value, 0.0)


def test_criterion_7_global_robustness_suite():
    from robustmd.ambiguity import base_rows

    rng = np.random.default_rng(2026)
    g = Grid.regular(0.0, 1.5, 1.0 / 40.0, extra=[0.4])
    anchor = DiscretePrior.point_mass(g, float(g.points[g.n // 2]))
    median = QuantileSet(((0.4, 0.5),))
    median_rows = base_rows(median, g)
    failures = []
    for trial in range(50):
        v = step_function(g, rng)
        ball_support = WassersteinBall(
            SupportInterval(float(rng.uniform(0.1, 0.6)), 1.0), float(rng.uniform(0.02, 0.1))
        )
        ball_point = WassersteinBall(Singleton(anchor), float(rng.uniform(0.02, 0.1)))
        mu = float(rng.uniform(0.3, 1.1))
        mean_set = LinearSet(
            (MomentRow(ValueFunction(g, g.points.copy()), mu, mu),),
            continuous_moments=True,
        )
        for amb in (ball_support, ball_point, mean_set):
            cert = check_robust(v, amb)
            if cert.verdict is not Verdict.ROBUST:
                failures.append((trial, type(amb).__name__, cert.verdict.value))
        # median set: non-robust exactly when every optimal prior charges a defect
        rep = worst_case(v, median)
        defects = auto_defect_indices(v)
        if defects.size:
            m_star = _min_defect_charge(v, median_rows, rep.value, defects, g.n)
        else:
            m_star = 0.0
        cert = check_robust(v, median)
        if m_star > 0.01 and cert.verdict is not Verdict.NON_ROBUST:
            failures.append((trial, "median-charged", cert.verdict.value))
        if m_star <= 1e-9 and cert.verdict is not Verdict.ROBUST:
            failures.append((trial, "median-clear", cert.verdict.value))
    gate(7, "global robustness suite", not failures, f"failures={failures[:5]} (50 trials)")


def test_criterion_8_radius_continuity():
    g = monopoly_grid(theta_bar=0.2, r=0.04)
    t = g.points
    v = ValueFunction(g, -(E_INV + np.maximum(t - 1.0, 0.0) - np.maximum(E_INV - t, 0.0)))
    radii = list(np.linspace(0.002, 0.04, 20))
    out = radius_sweep(v, SupportInterval(0.2, 1.0), radii)
    vals = [val for _, val in out]
    violations = 0
    for (r1, v1), (r2, v2) in zip(out, out[1:]):
        if abs(v2 - v1) > (2.0 * v.sup_norm / r1) * (r2 - r1) + 1e-9:
            violations += 1
        if v2 > v1 + 1e-9:
            violations += 1
    convex_ok = all(
        vals[i + 1] <= 0.5 * (vals[i] + vals[i + 2]) + 1e-6 for i in range(len(vals) - 2)
    )
    gate(
        8,
        "radius continuity",
        violations == 0 and convex_ok,
        f"violations={violations} convex={convex_ok} V(r) from {vals[0]:.6f} to {vals[-1]:.6f}",
    )


def test_criterion_9_oracle_equivalence():
    rng = np.random.default_rng(909)
    w1_fail = 0
    for _ in range(200):
        n = int(rng.integers(3, 21))
        pts = np.sort(rng.random(n) * 2.0) + np.arange(n) * 1e-7
        g = Grid(pts)
        p, q = random_prior(rng, g, 0.3), random_prior(rng, g, 0.3)
        if abs(wasserstein1(p, q) - transport_lp(p.weights, q.weights, g.points)) > 1e-9:
            w1_fail += 1

    lp_fail, solved = 0, 0
    for _ in range(200):
        lp, n = _random_lp(rng)
        status, best = enumerate_vertices_minimize(lp.objective, lp.rows, n)
        sol = solve_lp(lp)
        if status == "infeasible":
            if sol.status is not LpStatus.INFEASIBLE:
                lp_fail += 1
        else:
            solved += 1
            if sol.status is not LpStatus.OPTIMAL or abs(sol.value - best) > 1e-8:
                lp_fail += 1
    gate(
        9,
        "oracle equivalence",
        w1_fail == 0 and lp_fail == 0 and solved > 100,
        f"w1_mismatches={w1_fail} lp_mismatches={lp_fail} solved={solved}/200",
    )
