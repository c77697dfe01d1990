"""Monopoly mechanisms: price CDFs, the regret-minimizing solution, the
robustified construction, and the persuasion example."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import regret_integral_form, scan_root
from robustmd.ambiguity import HalfSpace, SupportInterval, WassersteinBall, contains
from robustmd.guarantee import worst_case, worst_case_ball
from robustmd.measures import DiscretePrior, Grid, ValueFunction, expectation
from robustmd.mechanisms import (
    E_INV,
    PriceCdf,
    PricingCase,
    _psi,
    bs_optimal_cdf,
    cdf_value,
    critical_radius,
    median_example_bundle,
    monopoly_grid,
    persuasion_ambiguity,
    persuasion_value,
    posted_price_value,
    robustify,
    solve_alpha,
    solve_beta,
    verify_saddle,
)
from robustmd.robustness import Verdict, check_robust


# --- posted prices

def test_posted_price_zero_is_free():
    g = monopoly_grid()
    v = posted_price_value(0.0, g, "revenue")
    assert np.all(v.values == 0.0)


def test_posted_price_step_at_price():
    g = monopoly_grid(extra=[0.4])
    v = posted_price_value(0.4, g, "revenue")
    i = g.index_of(0.4)
    assert v.values[i] == 0.4 and v.values[i - 1] == 0.0  # tie buys, just below does not


def test_posted_price_negative_regret_jump():
    g = monopoly_grid(extra=[0.4])
    v = posted_price_value(0.4, g, "neg_regret")
    i = g.index_of(0.4)
    assert v.values[i] == pytest.approx(0.0, abs=1e-15)
    assert v.values[i - 1] == pytest.approx(-g.points[i - 1], abs=1e-15)


# --- cdf values

def test_degenerate_cdf_matches_posted_price():
    g = monopoly_grid(extra=[0.4])
    q = PriceCdf(g, (g.points >= 0.4 - 1e-12).astype(float))
    for objective in ("revenue", "neg_regret"):
        a = cdf_value(q, objective)
        b = posted_price_value(0.4, g, objective)
        assert np.allclose(a.values, b.values, atol=1e-12)


def test_bs_cdf_mean_price():
    g = monopoly_grid(theta_bar=0.2)
    rev = cdf_value(bs_optimal_cdf(0.2, g), "revenue")
    assert rev.values[-1] == pytest.approx(1.0 - E_INV, abs=2.0 * g.max_spacing)


def test_bs_regret_plateau():
    g = monopoly_grid(theta_bar=0.5)
    regret = -cdf_value(bs_optimal_cdf(0.5, g), "neg_regret").values
    on = (g.points >= 0.5) & (g.points <= 1.0)
    assert np.max(np.abs(regret[on] - 0.346574)) <= 2.0 * g.max_spacing


def test_regret_formulas_agree_randomized():
    rng = np.random.default_rng(8)
    g = Grid.regular(0.0, 1.5, 0.01)
    for _ in range(20):
        raw = np.sort(rng.random(g.n))
        q = PriceCdf(g, raw / raw[-1])
        stieltjes = -cdf_value(q, "neg_regret").values
        integral = regret_integral_form(q)
        assert np.max(np.abs(stieltjes - integral)) <= 2.0 * g.max_spacing * max(
            1.0, float(np.max(np.abs(stieltjes)))
        )


# --- bs mechanism

def test_bs_cdf_low_cutoff_values():
    g = monopoly_grid(theta_bar=0.2)
    q = bs_optimal_cdf(0.2, g)
    assert q.q[g.index_of(E_INV)] == pytest.approx(0.0, abs=1e-12)
    assert q.q[g.index_of(1.0)] == 1.0
    mid = g.index_of(E_INV) + 10
    assert q.q[mid] == pytest.approx(1.0 + math.log(g.points[mid]), abs=1e-12)


def test_bs_cdf_high_cutoff_atom():
    g = monopoly_grid(theta_bar=0.5)
    q = bs_optimal_cdf(0.5, g)
    i = g.index_of(0.5)
    assert q.q[i] == pytest.approx(1.0 + math.log(0.5), abs=1e-12)  # atom 0.306853
    assert q.q[i - 1] == 0.0


def test_bs_guarantee_matches_closed_form():
    for tb in (0.45, 0.5, 0.6, 0.7):
        g = monopoly_grid(theta_bar=tb)
        v = cdf_value(bs_optimal_cdf(tb, g), "neg_regret")
        rep = worst_case(v, SupportInterval(tb, 1.0))
        assert rep.value == pytest.approx(tb * math.log(tb), abs=2.0 * g.max_spacing)


def _bs_cdf_reference(theta_bar, pts):
    # the regret-minimizing CDF written out on its own: 0 below
    # lo = max(theta_bar, 1/e), 1 + ln(max(theta, lo)) up to 1, then 1
    lo = max(theta_bar, E_INV)
    q = np.where(pts < lo - 1e-12, 0.0, 1.0 + np.log(np.maximum(pts, lo)))
    q[pts >= 1.0 - 1e-12] = 1.0
    return np.clip(q, 0.0, 1.0)


@pytest.mark.parametrize("seed", range(6))
def test_bs_cdf_matches_reference_formula(seed):
    rng = np.random.default_rng(seed)
    for theta_bar in (rng.uniform(0.0, E_INV), rng.uniform(E_INV, 0.99)):
        spacing = rng.uniform(0.003, 0.05)
        # the grid keeps the lower of two near-duplicates, so theta_bar sits a hair low
        g = Grid.regular(0.0, rng.uniform(1.0, 2.0), spacing, extra=[theta_bar - 5e-13, theta_bar, E_INV])
        assert np.array_equal(bs_optimal_cdf(theta_bar, g).q, _bs_cdf_reference(theta_bar, g.points))


def test_bs_rejects_bad_cutoff():
    g = monopoly_grid()
    with pytest.raises(ValueError):
        bs_optimal_cdf(1.0, g)


# --- critical radius

def test_critical_radius_value():
    r = critical_radius(0.5)
    assert 0.0052 <= r <= 0.0054  # approximately 0.0053


def test_critical_radius_matches_quadrature():
    for tb in (0.45, 0.5, 0.6, 0.75):
        kappa = math.sqrt(tb / math.e)
        integral, err = quad(lambda t: (tb - t) / t**2, kappa, tb)
        assert critical_radius(tb) == pytest.approx(kappa * integral, abs=1e-8)
        assert err < 1e-10


def test_critical_radius_boundary_and_monotonicity():
    assert critical_radius(E_INV + 1e-9) == pytest.approx(0.0, abs=1e-8)
    assert critical_radius(0.6) > 0.0
    with pytest.raises(ValueError):
        critical_radius(0.2)


# --- alpha and beta

def test_solve_alpha_known_points():
    a3 = solve_alpha(0.5, 0.003)
    assert 0.5 * (0.5 * math.e) ** (-1.0 / a3) == pytest.approx(0.446237, abs=1e-4)
    a1 = solve_alpha(0.5, 0.001)
    assert 0.5 * (0.5 * math.e) ** (-1.0 / a1) == pytest.approx(0.468712, abs=1e-4)
    assert a1 > a3 > 2.0


def test_solve_alpha_matches_scan():
    ref = scan_root(lambda a: _psi(0.5, a) - 0.003, 2.0, 10.0, 1e-4)
    assert solve_alpha(0.5, 0.003) == pytest.approx(ref, abs=1e-3)


def test_solve_alpha_residual_and_limit():
    rhat = critical_radius(0.5)
    for r in (0.001, 0.003, rhat * 0.999):
        a = solve_alpha(0.5, r)
        assert abs(_psi(0.5, a) - r) <= 1e-9
    assert solve_alpha(0.5, rhat * 0.99999) == pytest.approx(2.0, abs=1e-2)
    with pytest.raises(ValueError):
        solve_alpha(0.5, rhat * 1.01)


def test_solve_beta_at_critical_radius():
    assert solve_beta(0.5, critical_radius(0.5)) == 1.0


def test_solve_beta_transport_budget():
    # the above-1 mass of the worst prior (density kappa/theta^2 up to beta plus
    # the atom kappa/beta at beta) must cost exactly r - rhat to pull back to 1
    tb, r = 0.5, 0.006
    kappa = math.sqrt(tb / math.e)
    beta = solve_beta(tb, r)
    density_cost, _ = quad(lambda t: (t - 1.0) * kappa / t**2, 1.0, beta)
    atom_cost = (kappa / beta) * (beta - 1.0)
    assert density_cost + atom_cost == pytest.approx(r - critical_radius(tb), abs=1e-10)
    ref = scan_root(lambda b: kappa * math.log(b) - (r - critical_radius(tb)), 1.0, 2.0, 1e-6)
    assert beta == pytest.approx(ref, abs=1e-4)


@pytest.mark.parametrize("tb, r", [(0.5, 0.006), (0.5, 0.2), (0.7, 0.1), (0.9, 0.3)])
def test_solve_beta_closed_form(tb, r):
    beta = solve_beta(tb, r)
    assert abs(math.sqrt(tb / math.e) * math.log(beta) - (r - critical_radius(tb))) <= 1e-15


def test_solve_beta_increasing_in_radius():
    vals = [solve_beta(0.5, r) for r in (0.006, 0.008, 0.012)]
    assert vals[0] < vals[1] < vals[2]
    with pytest.raises(ValueError):
        solve_beta(0.5, 0.001)


# --- robustify

def test_robustify_low_cutoff():
    g = monopoly_grid(theta_bar=0.2, r=0.01)
    sol = robustify(0.2, 0.01, g)
    assert sol.case is PricingCase.LOW_THETA_BAR
    assert sol.guarantee == pytest.approx(E_INV + 0.01, abs=1e-12)
    assert np.array_equal(sol.qhat.q, bs_optimal_cdf(0.2, g).q)


def test_robustify_small_radius_coefficients():
    g = monopoly_grid(theta_bar=0.5, r=0.003)
    sol = robustify(0.5, 0.003, g)
    assert sol.case is PricingCase.SMALL_RADIUS
    assert sol.alpha == pytest.approx(2.6974, abs=1e-3)
    assert sol.kappa == pytest.approx(0.446237, abs=1e-4)
    r0 = sol.guarantee - (sol.alpha - 1.0) * 0.003
    assert r0 == pytest.approx(0.354979, abs=1e-4)


def test_robustify_large_radius_coefficients():
    g = monopoly_grid(theta_bar=0.5, r=0.006)
    sol = robustify(0.5, 0.006, g)
    assert sol.case is PricingCase.LARGE_RADIUS
    assert sol.alpha == 2.0
    assert sol.kappa == pytest.approx(0.428882, abs=1e-6)
    assert sol.kappa == pytest.approx(math.sqrt(0.5 / math.e), abs=1e-12)
    r0 = 2.0 * sol.kappa - 0.5
    assert r0 == pytest.approx(0.357764, abs=1e-4)
    assert sol.guarantee == pytest.approx(r0 + 0.006, abs=1e-12)
    assert sol.beta >= 1.0


def test_robustify_qhat_is_valid_cdf_randomized():
    rng = np.random.default_rng(12)
    for _ in range(200):
        tb = float(rng.uniform(0.05, 0.95))
        r = float(rng.uniform(1e-4, 0.05))
        g = monopoly_grid(spacing=1.0 / 100.0, theta_bar=tb, r=r)
        sol = robustify(tb, r, g)
        q = sol.qhat.q
        assert np.all(np.diff(q) >= -1e-12) and q[-1] == 1.0
        if sol.case is not PricingCase.LOW_THETA_BAR:
            # continuity at the cutoff: alpha ln(theta_bar/kappa) = 1 + ln theta_bar
            assert sol.alpha * math.log(tb / sol.kappa) == pytest.approx(
                1.0 + math.log(tb), abs=1e-9
            )
            assert q[g.index_of(sol.kappa)] == pytest.approx(0.0, abs=1e-12)


def test_robustify_regret_shape():
    g = monopoly_grid(theta_bar=0.5, r=0.003)
    sol = robustify(0.5, 0.003, g)
    regret = -cdf_value(sol.qhat, "neg_regret").values
    s = g.max_spacing
    on = (g.points >= 0.5) & (g.points <= 1.0)
    r0 = sol.guarantee - (sol.alpha - 1.0) * 0.003
    assert np.max(np.abs(regret[on] - r0)) <= 2.0 * s
    mid = (g.points > sol.kappa + s) & (g.points < 0.5 - s)
    slopes = np.diff(regret[mid]) / np.diff(g.points[mid])
    assert np.allclose(slopes, 1.0 - sol.alpha, atol=0.05)


def test_robustify_guarantee_continuous_nondecreasing_across_rhat():
    rhat = critical_radius(0.5)
    radii = [rhat * f for f in (0.6, 0.8, 0.95, 1.0, 1.05, 1.2, 1.4)]
    vals = []
    for r in radii:
        g = monopoly_grid(spacing=1.0 / 100.0, theta_bar=0.5, r=r)
        vals.append(robustify(0.5, r, g).guarantee)
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    jumps = np.abs(np.diff(vals)) / np.diff(radii)
    assert np.max(jumps) < 3.0  # Lipschitz-size steps, no discontinuity


def test_robustify_r_to_zero_recovers_bs():
    g = monopoly_grid(theta_bar=0.5, r=1e-6)
    sol = robustify(0.5, 1e-6, g)
    assert sol.kappa == pytest.approx(0.5, abs=2e-3)
    assert sol.guarantee == pytest.approx(-0.5 * math.log(0.5), abs=1e-3)
    # worst prior concentrates on [kappa, 1]
    support_pts = g.points[sol.worst_prior.support_indices(atol=1e-12)]
    assert support_pts.min() >= sol.kappa - 1e-9
    assert support_pts.max() <= 1.0 + 1e-9


def test_robustify_invalid_parameters():
    g = monopoly_grid(theta_bar=0.5, r=0.003)
    with pytest.raises(ValueError):
        robustify(1.2, 0.003, g)
    with pytest.raises(ValueError):
        robustify(0.5, 0.0, g)


@pytest.mark.parametrize("theta_bar, r", [(0.3, 0.01), (0.5, 0.003), (0.5, 0.2)],
                         ids=["low_theta_bar", "small_radius", "large_radius"])
def test_robustify_needs_the_worst_prior_atom_on_the_grid(theta_bar, r):
    # every case's worst prior has its atom at 1 or beta >= 1
    with pytest.raises(ValueError, match="grid top"):
        robustify(theta_bar, r, Grid.regular(0.0, 0.9, 0.01, extra=[theta_bar]))


# --- verify_saddle

def test_saddle_low_cutoff_flat_revenue():
    g = monopoly_grid(theta_bar=0.2, r=0.01)
    sol = robustify(0.2, 0.01, g)
    rep = verify_saddle(sol)
    s = 2.0 * g.max_spacing
    assert -1e-7 <= rep.designer_slack <= s
    assert -1e-7 <= rep.nature_slack <= s
    assert rep.wasserstein_residual <= s
    # expected revenue of every posted price in [1/e, 1] is 1/e under the worst prior
    tail = np.cumsum(sol.worst_prior.weights[::-1])[::-1]
    inside = (g.points >= E_INV) & (g.points <= 1.0)
    assert np.max(np.abs(g.points[inside] * tail[inside] - E_INV)) <= s


def test_saddle_residuals_small_radius():
    g = monopoly_grid(theta_bar=0.5, r=0.003)
    rep = verify_saddle(robustify(0.5, 0.003, g))
    s = 2.0 * g.max_spacing
    assert -1e-7 <= rep.designer_slack <= s
    assert -1e-7 <= rep.nature_slack <= s
    assert rep.wasserstein_residual <= s


def test_saddle_residuals_large_radius():
    g = monopoly_grid(theta_bar=0.5, r=0.006)
    rep = verify_saddle(robustify(0.5, 0.006, g))
    s = 2.0 * g.max_spacing
    assert -1e-7 <= rep.designer_slack <= s
    assert -1e-7 <= rep.nature_slack <= s
    assert rep.wasserstein_residual <= s


def test_robustified_guarantee_is_robust():
    for tb, r in ((0.5, 0.003), (0.5, 0.006), (0.6, 0.004), (0.2, 0.01)):
        g = monopoly_grid(spacing=1.0 / 100.0, theta_bar=tb, r=r)
        sol = robustify(tb, r, g)
        v = cdf_value(sol.qhat, "neg_regret")
        cert = check_robust(v, WassersteinBall(SupportInterval(tb, 1.0), r))
        assert cert.verdict is Verdict.ROBUST, (tb, r)


# --- persuasion

def test_persuasion_value_points():
    g = monopoly_grid(extra=[0.3])
    v = persuasion_value(0.3, g)
    assert v.values[g.index_of(0.3)] == pytest.approx(0.6, abs=1e-12)  # 2 alpha
    assert v.values[g.index_of(0.3) - 1] == 0.0
    assert v.values[g.index_of(1.0)] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        persuasion_value(0.6, g)


# --- median bundle

def test_median_bundle_guarantee_and_verdict():
    g = monopoly_grid(extra=[0.4])
    ex = median_example_bundle(0.4, g)
    rep = worst_case(ex.value_fn, ex.ambiguity)
    assert rep.value == pytest.approx(ex.guarantee, abs=1e-9)
    assert check_robust(ex.value_fn, ex.ambiguity).verdict is Verdict.NON_ROBUST


def test_median_bundle_halfspace_saddle():
    # the half-space of priors meeting the guarantee contains the saddle prior,
    # and the guarantee over that half-space is attained at it
    g = monopoly_grid(extra=[0.4])
    ex = median_example_bundle(0.4, g)
    pi0 = HalfSpace(ex.value_fn, ex.guarantee)
    assert contains(pi0, ex.saddle_prior, tol=1e-9)
    rep = worst_case(ex.value_fn, pi0)
    assert rep.value == pytest.approx(ex.guarantee, abs=1e-7)
    assert expectation(ex.value_fn, ex.saddle_prior) == pytest.approx(rep.value, abs=1e-9)


def test_median_bundle_rejects_off_grid_lambda():
    g = monopoly_grid()
    with pytest.raises(ValueError):
        median_example_bundle(0.40001, g)
