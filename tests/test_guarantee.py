"""Worst-case payoff LPs, radius sweeps, and the variational objective."""

import math

import numpy as np
import pytest

from conftest import random_prior
from oracles import coupling_onto_rows
from robustmd import guarantee
from robustmd.ambiguity import (
    HalfSpace,
    LinearSet,
    MomentRow,
    QuantileSet,
    Singleton,
    SupportInterval,
    WassersteinBall,
    _grid_interval_distances,
    base_rows,
    contains,
    coupling,
    distance_to,
)
from robustmd.guarantee import radius_sweep, variational_value, worst_case, worst_case_ball
from robustmd.measures import DiscretePrior, Grid, ValueFunction, expectation
from robustmd.mechanisms import (
    E_INV,
    bs_optimal_cdf,
    cdf_value,
    monopoly_grid,
    persuasion_ambiguity,
    persuasion_value,
    posted_price_value,
    robustify,
    solve_alpha,
)
from robustmd.optim import EQUAL, LESS, LinearProgram, LpRow, LpStatus, solve_lp
from robustmd.robustness import check_robust


def bs_closed_form_regret(grid):
    """Analytic negative regret of the low-cutoff mechanism (kinks at 1/e and 1)."""
    t = grid.points
    return ValueFunction(grid, -(E_INV + np.maximum(t - 1.0, 0.0) - np.maximum(E_INV - t, 0.0)))


def test_worst_case_median_example():
    g = monopoly_grid(extra=[0.4])
    v = posted_price_value(0.4, g, "revenue")
    rep = worst_case(v, QuantileSet(((0.4, 0.5),)))
    assert rep.status is LpStatus.OPTIMAL
    assert rep.value == pytest.approx(0.2, abs=1e-9)
    w = rep.worst_prior
    assert w.weights[g.index_of(0.0)] == pytest.approx(0.5, abs=1e-9)
    assert w.weights[g.index_of(0.4)] == pytest.approx(0.5, abs=1e-9)


def test_worst_case_bs_support():
    g = monopoly_grid(theta_bar=0.5)
    v = cdf_value(bs_optimal_cdf(0.5, g), "neg_regret")
    rep = worst_case(v, SupportInterval(0.5, 1.0))
    assert rep.value == pytest.approx(-0.346574, abs=2.0 * g.max_spacing)


def test_worst_case_constant():
    g = monopoly_grid()
    v = ValueFunction(g, np.full(g.n, 0.7))
    rep = worst_case(v, SupportInterval(0.2, 1.0))
    assert rep.value == pytest.approx(0.7, abs=1e-10)


def test_worst_case_persuasion_affine():
    g = monopoly_grid(extra=[0.3, 0.4, 0.6])
    v = persuasion_value(0.3, g)
    amb = persuasion_ambiguity(0.3, 0.6, 0.4, g)
    rep = worst_case(v, amb)
    # affine payoff on the support, so every feasible prior attains the value
    direct = 2.0 / 3.0 * v.values[g.index_of(0.3)] + 1.0 / 3.0 * v.values[g.index_of(0.6)]
    assert rep.value == pytest.approx(direct, abs=1e-9)
    assert rep.value == pytest.approx(0.657142857, abs=1e-6)


def test_worst_case_persuasion_prior_contract():
    # the payoff is affine on [0.3, 0.6], so every prior there with mean 0.4 is
    # a worst prior; the smallest-mean canonical LP cannot single one out
    g = monopoly_grid(extra=[0.3, 0.4, 0.6])
    v = persuasion_value(0.3, g)
    rep = worst_case(v, persuasion_ambiguity(0.3, 0.6, 0.4, g))
    w = rep.worst_prior
    support = g.points[w.weights > 0]
    assert float(g.points @ w.weights) == pytest.approx(0.4, abs=1e-9)
    assert support.min() >= 0.3 - 1e-12 and support.max() <= 0.6 + 1e-12
    assert expectation(v, w) == pytest.approx(rep.value, abs=1e-9)


def test_worst_case_infeasible_status():
    g = monopoly_grid()
    v = posted_price_value(0.4, g, "revenue")
    bad = LinearSet((MomentRow(ValueFunction(g, g.points.copy()), 2.0, 2.0),))  # mean beyond grid
    rep = worst_case(v, bad)
    assert rep.status is LpStatus.INFEASIBLE
    assert rep.worst_prior is None


def _two_atom_singleton(grid):
    w = np.zeros(grid.n)
    w[[grid.index_of(0.2), grid.index_of(0.7)]] = 0.5
    return Singleton(DiscretePrior(grid, w))


def test_singleton_worst_case_is_one_lp_with_a_row_per_atom(monkeypatch):
    g = Grid.regular(0.0, 1.5, 1.0 / 400.0)
    calls = []
    monkeypatch.setattr(guarantee, "solve_lp", lambda lp: calls.append(lp) or solve_lp(lp))
    rep = worst_case(posted_price_value(0.4, g, "revenue"), _two_atom_singleton(g))
    assert [len(lp.rows) for lp in calls] == [3]  # the unit-mass row and two atom pins
    assert rep.value == pytest.approx(0.2, abs=1e-12)
    assert rep.active_constraints == [0, 1]


@pytest.mark.parametrize("objective", ["revenue", "neg_regret"])
def test_singleton_matches_a_pin_per_grid_point(objective):
    # the lowering before a singleton pinned only its atoms: one unit pin per grid point
    g = Grid.regular(0.0, 1.5, 1.0 / 40.0)
    single = _two_atom_singleton(g)
    pins = LinearSet(
        [MomentRow(ValueFunction(g, np.arange(g.n) == i), w, w) for i, w in enumerate(single.prior.weights)]
    )
    v = posted_price_value(0.4, g, objective)
    got, want = worst_case(v, single), worst_case(v, pins)
    assert got.value == want.value
    assert np.array_equal(got.worst_prior.weights, want.worst_prior.weights)
    assert check_robust(v, single).envelope_values == check_robust(v, pins).envelope_values


def test_worst_case_lower_bounds_members_randomized():
    rng = np.random.default_rng(31)
    g = Grid.regular(0.0, 1.5, 0.05, extra=[0.4])
    amb = QuantileSet(((0.4, 0.5),))
    v = ValueFunction(g, rng.normal(size=g.n))
    rep = worst_case(v, amb)
    found = 0
    for _ in range(100):
        pi = random_prior(rng, g)
        if contains(amb, pi, tol=1e-9):
            found += 1
            assert expectation(v, pi) >= rep.value - 1e-9
    # also project random priors into the set by construction: half below, half above
    for _ in range(100):
        below = rng.integers(0, g.index_of(0.4) + 1)
        above = rng.integers(g.index_of(0.4), g.n)
        w = np.zeros(g.n)
        w[below] += 0.5
        w[above] += 0.5
        pi = DiscretePrior(g, w)
        assert expectation(v, pi) >= rep.value - 1e-9


def test_ball_zero_radius_reduces_to_base():
    g = monopoly_grid(theta_bar=0.5)
    cases = [(cdf_value(bs_optimal_cdf(0.5, g), "neg_regret"), SupportInterval(0.5, 1.0))]
    cases += [(posted_price_value(0.4, g, "revenue"), base) for _, g, base in _ball_bases()]
    for v, base in cases:
        a, b = worst_case_ball(v, base, 0.0), worst_case(v, base)
        assert a.value == b.value
        assert a.worst_prior.weights.tobytes() == b.worst_prior.weights.tobytes()
        assert a.active_constraints == b.active_constraints
        assert a.iterations == b.iterations
        assert a.defect_sensitivity == b.defect_sensitivity


def test_ball_rejects_negative_radius_and_ball_base():
    g = Grid.regular(0.0, 1.5, 0.05)
    v = posted_price_value(0.4, g, "revenue")
    with pytest.raises(ValueError):
        worst_case_ball(v, SupportInterval(0.5, 1.0), -0.01)
    with pytest.raises(ValueError):
        worst_case_ball(v, WassersteinBall(SupportInterval(0.5, 1.0), 0.01), 0.01)


def test_ball_low_cutoff_guarantee_exact():
    # analytic regret of the 1/e mechanism: ball guarantee is exactly 1/e + r
    for r in (0.003, 0.01):
        g = monopoly_grid(theta_bar=0.2, r=r)
        v = bs_closed_form_regret(g)
        rep = worst_case_ball(v, SupportInterval(0.2, 1.0), r)
        assert rep.value == pytest.approx(-(E_INV + r), abs=1e-9)


def test_ball_robustified_guarantee():
    g = monopoly_grid(theta_bar=0.5, r=0.003)
    sol = robustify(0.5, 0.003, g)
    v = cdf_value(sol.qhat, "neg_regret")
    rep = worst_case_ball(v, SupportInterval(0.5, 1.0), 0.003)
    alpha = solve_alpha(0.5, 0.003)
    kappa = 0.5 * (0.5 * math.e) ** (-1.0 / alpha)
    expected = -(0.5 - alpha * (0.5 - kappa) + (alpha - 1.0) * 0.003)
    assert rep.value == pytest.approx(expected, abs=max(2.0 * g.max_spacing, 1e-3))


def test_support_coupling_is_one_column_per_state():
    # each state moves to its nearest state in [0.5, 1], so the ball LP is the
    # simplex row plus the budget row over the distance to the interval
    g = Grid.regular(0.0, 1.5, 0.02, extra=[0.5])
    c = coupling(SupportInterval(0.5, 1.0), g, np.arange(g.n))
    assert np.array_equal(c.source, np.arange(g.n))
    assert c.rows == [] and c.kept == []
    assert c.cost.tobytes() == _grid_interval_distances(g, 0.5, 1.0).tobytes()


@pytest.mark.parametrize("base", ["support", "mean"])
def test_ball_reports_binding_budget(base):
    g = Grid.regular(0.0, 1.5, 0.02, extra=[0.5])
    mean = LinearSet((MomentRow(ValueFunction(g, g.points.copy()), 0.6, 0.6),))
    amb = SupportInterval(0.5, 1.0) if base == "support" else mean
    v = posted_price_value(0.5, g, "revenue")
    assert worst_case_ball(v, amb, 0.05).active_constraints == [0]
    # all mass at the grid's low end is inside [0, 1], so the budget stays slack
    assert worst_case_ball(v, SupportInterval(0.0, 1.0), 0.05).active_constraints == []


def test_ball_budget_binds_iff_the_worst_prior_is_on_the_boundary():
    # the budget of a ball binds exactly when its worst prior lies at distance
    # r from the base, wherever the returned coupling's cost falls; posted
    # prices put many worst priors on the boundary at a zero budget price
    rng = np.random.default_rng(7)
    for i in range(300):
        n = int(rng.integers(8, 31))
        g = Grid.regular(0.0, 1.5, 1.5 / (n - 1))
        mean = MomentRow(ValueFunction(g, g.points.copy()), 0.6, 0.6)
        base = [
            LinearSet((mean,)),
            LinearSet((mean, MomentRow(ValueFunction(g, g.points**2), 0.0, 0.5))),
            SupportInterval(0.5, 1.0),
            HalfSpace(ValueFunction(g, g.points.copy()), 0.7),
        ][i % 4]
        if i % 8 < 4:
            v = ValueFunction(g, rng.normal(size=n))
        else:
            v = posted_price_value(float(rng.uniform(0.1, 1.2)), g, "revenue")
        r = float(np.exp(rng.uniform(np.log(0.001), 0.0)))
        rep = worst_case_ball(v, base, r)
        on_boundary = distance_to(base, rep.worst_prior) >= r - 1e-8
        assert rep.active_constraints == ([0] if on_boundary else []), (i, n, r)


def test_ball_monotone_convex_in_radius():
    rng = np.random.default_rng(17)
    g = Grid.regular(0.0, 1.5, 0.025, extra=[0.4])
    for _ in range(5):
        v = ValueFunction(g, rng.normal(size=g.n).cumsum() * 0.1)
        vals = [worst_case_ball(v, SupportInterval(0.4, 1.0), r).value for r in (0.02, 0.05, 0.08)]
        assert vals[1] <= vals[0] + 1e-9 and vals[2] <= vals[1] + 1e-9
        assert vals[1] <= 0.5 * (vals[0] + vals[2]) + 1e-7  # midpoint convexity


def test_radius_sweep_constant_value():
    g = monopoly_grid()
    v = ValueFunction(g, np.full(g.n, 1.3))
    out = radius_sweep(v, SupportInterval(0.4, 1.0), [0.001, 0.002, 0.004])
    assert all(val == pytest.approx(1.3, abs=1e-10) for _, val in out)


def test_radius_sweep_bs_slope_minus_one():
    g = monopoly_grid(theta_bar=0.2, r=0.004)
    v = bs_closed_form_regret(g)
    out = radius_sweep(v, SupportInterval(0.2, 1.0), [0.001, 0.002, 0.004])
    for r, val in out:
        assert val == pytest.approx(-E_INV - r, abs=1e-9)


def test_radius_sweep_equicontinuity_randomized():
    rng = np.random.default_rng(19)
    g = Grid.regular(0.0, 1.5, 0.025, extra=[0.4])
    radii = list(np.linspace(0.005, 0.1, 8))
    for _ in range(3):
        v = ValueFunction(g, rng.normal(size=g.n))
        out = radius_sweep(v, SupportInterval(0.4, 1.0), radii)  # raises on violation
        assert len(out) == len(radii)


def test_radius_sweep_rejects_bad_radii():
    g = monopoly_grid()
    v = ValueFunction(g, g.points.copy())
    with pytest.raises(ValueError):
        radius_sweep(v, SupportInterval(0.4, 1.0), [0.0, 0.1])
    with pytest.raises(ValueError):
        radius_sweep(v, SupportInterval(0.4, 1.0), [0.2, 0.1])


def test_variational_lambda_zero_is_min():
    g = monopoly_grid()
    rng = np.random.default_rng(23)
    v = ValueFunction(g, rng.normal(size=g.n))
    assert variational_value(v, SupportInterval(0.4, 1.0), 0.0) == pytest.approx(
        float(v.values.min()), abs=1e-9
    )


def test_variational_large_lambda_is_worst_case():
    g = Grid.regular(0.0, 1.5, 0.05, extra=[0.4])
    v = posted_price_value(0.4, g, "revenue")
    target = worst_case(v, SupportInterval(0.4, 1.0)).value
    assert variational_value(v, SupportInterval(0.4, 1.0), 1e6) == pytest.approx(target, abs=1e-4)


def test_variational_saddle_identity():
    # at the multiplier alpha - 1 the variational value meets the ball value plus lambda r
    r = 0.003
    g = monopoly_grid(theta_bar=0.5, r=r)
    sol = robustify(0.5, r, g)
    v = cdf_value(sol.qhat, "neg_regret")
    lam = sol.alpha - 1.0
    var = variational_value(v, SupportInterval(0.5, 1.0), lam)
    ball = worst_case_ball(v, SupportInterval(0.5, 1.0), r).value
    assert var == pytest.approx(ball + lam * r, abs=2.0 * g.max_spacing)


def test_variational_weak_duality_randomized():
    rng = np.random.default_rng(29)
    g = Grid.regular(0.0, 1.5, 0.05, extra=[0.4])
    base = SupportInterval(0.4, 1.0)
    for _ in range(4):
        v = ValueFunction(g, rng.normal(size=g.n))
        for lam, r in ((0.5, 0.02), (2.0, 0.05), (5.0, 0.01)):
            var = variational_value(v, base, lam)
            ball = worst_case_ball(v, base, r).value
            assert var <= ball + lam * r + 1e-9


def test_variational_rejects_ball_argument():
    g = monopoly_grid()
    v = ValueFunction(g, g.points.copy())
    with pytest.raises(ValueError):
        variational_value(v, WassersteinBall(SupportInterval(0.4, 1.0), 0.01), 1.0)


def test_redundant_constraint_keeps_value():
    g = Grid.regular(0.0, 1.5, 0.05, extra=[0.4])
    v = posted_price_value(0.4, g, "revenue")
    lean = QuantileSet(((0.4, 0.5),))
    # adding the implied half-space <v, p> >= 0 never changes the value
    padded = LinearSet(
        (
            MomentRow(ValueFunction(g, (g.points <= 0.4 + 1e-12).astype(float)), 0.5, math.inf),
            MomentRow(ValueFunction(g, (g.points >= 0.4 - 1e-12).astype(float)), 0.5, math.inf),
            MomentRow(v, 0.0, math.inf),
        )
    )
    assert worst_case(v, lean).value == pytest.approx(worst_case(v, padded).value, abs=1e-7)


def _canonical_cases():
    g = monopoly_grid(extra=[0.4])
    yield pytest.param(posted_price_value(0.4, g, "revenue"), QuantileSet(((0.4, 0.5),)), id="median")
    g = monopoly_grid(theta_bar=0.5)
    yield pytest.param(cdf_value(bs_optimal_cdf(0.5, g), "neg_regret"), SupportInterval(0.5, 1.0), id="bs")
    g = monopoly_grid(extra=[0.3, 0.4, 0.6])
    yield pytest.param(persuasion_value(0.3, g), persuasion_ambiguity(0.3, 0.6, 0.4, g), id="persuasion")
    g = Grid.regular(0.0, 1.5, 1.0 / 40.0)
    mean = LinearSet((MomentRow(ValueFunction(g, g.points.copy()), 0.6, 0.6),), continuous_moments=True)
    yield pytest.param(cdf_value(bs_optimal_cdf(0.5, g), "neg_regret"), WassersteinBall(mean, 0.02), id="mean_ball")


def _full_ball_lp(v, base, r):
    """The whole coupling LP of the ball over every coupling() column, with the
    mean source state as its tiebreak: the LP that column generation must match."""
    g = v.grid
    c = coupling(base, g, np.arange(g.n))
    rows = [LpRow(np.ones(c.cost.size), EQUAL, 1.0)] + c.rows + [LpRow(c.cost, LESS, r)]
    return LinearProgram(v.values[c.source], rows, tiebreak=g.points[c.source])


def _smallest_mean(lp, value, slack):
    """Smallest tiebreak over the LP's points whose objective is within slack of value."""
    return solve_lp(LinearProgram(lp.tiebreak, lp.rows + [LpRow(lp.objective, LESS, value + slack)])).value


@pytest.mark.parametrize("v, amb", list(_canonical_cases()))
def test_worst_prior_attains_guarantee(monkeypatch, v, amb):
    lps = []

    def recording(lp):
        lps.append(lp)
        return solve_lp(lp)

    monkeypatch.setattr(guarantee, "solve_lp", recording)
    rep = worst_case(v, amb)
    if isinstance(amb, WassersteinBall):  # column generation solves several LPs: pin on the whole one
        lp = _full_ball_lp(v, amb.base, amb.radius)
    else:
        (lp,) = lps  # one LP per guarantee, with the mean state as its tiebreak
    assert abs(expectation(v, rep.worst_prior) - rep.value) <= 1e-12
    # the smallest mean on the optimal face, as a second LP pinned to the value
    assert float(v.grid.points @ rep.worst_prior.weights) == pytest.approx(_smallest_mean(lp, rep.value, 1e-9), abs=1e-8)


def _ball_bases():
    """One grid and base set per kind, grids of 31 to 61 points."""
    g = Grid.regular(0.0, 1.5, 0.025, extra=[0.4])
    pts = g.points
    yield "mean", g, LinearSet((MomentRow(ValueFunction(g, pts.copy()), 0.6, 0.6),), continuous_moments=True)
    yield "two_moment", g, LinearSet(
        (MomentRow(ValueFunction(g, pts.copy()), 0.6, 0.6), MomentRow(ValueFunction(g, pts**2), 0.0, 0.45)),
        continuous_moments=True,
    )
    g = Grid.regular(0.0, 1.5, 0.05, extra=[0.4])
    yield "quantile", g, QuantileSet(((0.4, 0.5),))
    yield "half_space", g, HalfSpace(ValueFunction(g, g.points.copy()), 0.7)
    yield "singleton", g, _two_atom_singleton(g)
    yield "support", g, SupportInterval(0.5, 1.0)


def _ball_cases():
    for kind, g, base in _ball_bases():
        steps = ValueFunction(g, np.floor(np.sin(3.0 * g.points) * 4.0) / 4.0)  # tied steps
        for payoff, v in (("price", posted_price_value(0.4, g, "revenue")), ("steps", steps)):
            for r in (0.05, 2.0):  # the budget binds; the budget is slack (lambda = 0)
                yield pytest.param(v, base, r, id=f"{kind}-{payoff}-r{r}")


@pytest.mark.parametrize("v, base, r", list(_ball_cases()))
def test_column_generation_matches_the_dense_coupling(v, base, r):
    rep = worst_case_ball(v, base, r)
    dense = coupling_onto_rows(v.grid.points, base_rows(base, v.grid), v=v.values, radius=r)
    assert rep.value == pytest.approx(dense, abs=1e-9)
    # the smallest-mean prior of the whole coupling() LP's optimal face
    mean = float(v.grid.points @ rep.worst_prior.weights)
    assert mean == pytest.approx(_smallest_mean(_full_ball_lp(v, base, r), rep.value, 1e-12), abs=1e-9)


def test_ball_lps_stay_small_at_the_default_spacing(monkeypatch):
    # 602 grid states: the whole coupling LP has 362,404 columns
    g = Grid.regular(0.0, 1.5, 1.0 / 400.0)
    mean = LinearSet((MomentRow(ValueFunction(g, g.points.copy()), 0.6, 0.6),), continuous_moments=True)
    widths = []
    monkeypatch.setattr(guarantee, "solve_lp", lambda lp: widths.append(lp.n_vars) or solve_lp(lp))
    rep = worst_case(cdf_value(bs_optimal_cdf(0.5, g), "neg_regret"), WassersteinBall(mean, 0.02))
    assert rep.status is LpStatus.OPTIMAL
    assert len(widths) > 1 and max(widths) <= 2000
