"""Ambiguity sets: base rows, membership, distances, rich projections."""


import math
import re

import numpy as np
import pytest

from conftest import random_prior
from oracles import coupling_onto_rows, tv_distance
from robustmd import ambiguity
from robustmd.ambiguity import (
    LinearSet,
    MomentRow,
    QuantileSet,
    Singleton,
    SupportInterval,
    WassersteinBall,
    base_rows,
    contains,
    distance_to,
    rich_project_ball,
    rich_project_moment,
    row_lipschitz,
)
from robustmd.guarantee import variational_value, worst_case_ball
from robustmd.measures import DiscretePrior, Grid, GridMismatchError, ValueFunction, push_mass, wasserstein1
from robustmd.optim import EQUAL, GREATER, LESS, LinearProgram, LpRow, LpStatus, solve_lp


def grid_with(points, spacing=0.01, hi=1.5):
    return Grid.regular(0.0, hi, spacing, extra=points)


def median_set(lam=0.4):
    return QuantileSet(((lam, 0.5),))


def mean_set(grid, mu, continuous=True):
    return LinearSet(
        (MomentRow(ValueFunction(grid, grid.points.copy()), mu, mu),),
        continuous_moments=continuous,
    )


def atoms(grid, table):
    w = np.zeros(grid.n)
    for x, m in table:
        w[grid.index_of(x)] += m
    return DiscretePrior(grid, w)


# --- base_rows

@pytest.mark.parametrize("lo, hi, bound", [(math.nan, 0.5, "lo"), (0.1, math.nan, "hi"), (math.nan, math.nan, "lo")])
def test_moment_row_rejects_a_nan_bound(lo, hi, bound):
    # a NaN bound would lower to no row, leaving the set without its restriction
    g = grid_with([])
    with pytest.raises(ValueError, match=f"moment row bound {bound} is NaN"):
        MomentRow(ValueFunction(g, g.points.copy()), lo, hi)


def _payoff():
    g = grid_with([])
    return ValueFunction(g, g.points.copy())


@pytest.mark.parametrize("build, field", [
    (lambda: QuantileSet(((0.4, math.nan),)), "quantile pair 0: level alpha is nan"),
    (lambda: QuantileSet(((0.2, 0.3), (math.inf, 0.6))), "quantile pair 1: position x is inf"),
    (lambda: QuantileSet(((math.nan, 0.5),)), "quantile pair 0: position x is nan"),
    (lambda: MomentRow(_payoff(), lo=math.nan), "moment row bound lo is NaN"),
    (lambda: MomentRow(_payoff(), lo=-math.inf), "moment row with no finite bound"),
    (lambda: WassersteinBall(median_set(), math.inf), "ball radius must be positive and finite, got inf"),
    (lambda: WassersteinBall(median_set(), math.nan), "ball radius must be positive and finite, got nan"),
], ids=["quantile_level_nan", "quantile_position_inf", "quantile_position_nan", "half_space_nan",
        "half_space_minus_inf", "ball_radius_inf", "ball_radius_nan"])
def test_sets_reject_non_finite_parameters_by_field(build, field):
    # caught at construction, not later as an LP row's unnamed "rhs must be finite"
    with pytest.raises(ValueError, match=re.escape(field)):
        build()


def test_singleton_rows_pin_weights(tiny_grid):
    pi = DiscretePrior(tiny_grid, np.array([0.2, 0.3, 0.5]))
    rows = base_rows(Singleton(pi), tiny_grid)
    assert len(rows) == 3
    assert all(row.relation == EQUAL for row in rows)
    assert [row.rhs for row in rows] == [0.2, 0.3, 0.5]


def test_quantile_rows_median():
    g = grid_with([0.4])
    below, above = base_rows(median_set(), g)
    assert below.relation == GREATER and below.rhs == 0.5
    assert above.relation == GREATER and above.rhs == 0.5
    i = g.index_of(0.4)
    assert below.coeffs[i] == 1.0 and below.coeffs[i + 1] == 0.0
    assert above.coeffs[i] == 1.0 and above.coeffs[i - 1] == 0.0


def test_support_row_zeroes_outside():
    g = grid_with([0.5])
    (row,) = base_rows(SupportInterval(0.5, 1.0), g)
    assert row.relation == EQUAL and row.rhs == 0.0
    outside = (g.points < 0.5 - 1e-12) | (g.points > 1.0 + 1e-12)
    assert np.array_equal(row.coeffs, outside.astype(float))


def test_ball_system_has_coupling_block(tiny_grid):
    # a ball around a support moves each state onto its nearest state in [0.4, 1]
    c = ambiguity.coupling(SupportInterval(0.4, 1.0), tiny_grid, np.arange(tiny_grid.n))
    assert list(c.source) == [0, 1, 2] and list(c.target) == [1, 1, 2]
    assert list(c.cost) == [0.4, 0.0, 0.0]
    # every base row is kept: the outside row, all zero on the inside targets
    (row,) = c.rows
    assert row.coeffs.tobytes() == base_rows(SupportInterval(0.4, 1.0), tiny_grid)[0].coeffs.tobytes()
    assert not row.coeffs[c.target].any()


def _feasible_with_pinned_prior(rows, pi):
    """Feasibility of the rows with every weight fixed to pi's."""
    eye = np.eye(pi.grid.n)
    pins = [LpRow(eye[i], EQUAL, float(w)) for i, w in enumerate(pi.weights)]
    sol = solve_lp(LinearProgram(np.zeros(pi.grid.n), pins + list(rows)))
    return sol.status is LpStatus.OPTIMAL


def test_contains_matches_constraint_feasibility_randomized():
    rng = np.random.default_rng(42)
    g = grid_with([0.4, 0.5], spacing=0.1)
    v = ValueFunction(g, g.points**2)
    sets = [
        median_set(),
        SupportInterval(0.5, 1.0),
        mean_set(g, 0.4),
        LinearSet((MomentRow(v, lo=0.2),)),
        Singleton(atoms(g, [(0.0, 0.5), (0.4, 0.5)])),
        WassersteinBall(SupportInterval(0.5, 1.0), 0.1),
        WassersteinBall(mean_set(g, 0.4), 0.05),
        WassersteinBall(Singleton(atoms(g, [(0.0, 0.5), (0.4, 0.5)])), 0.5),
        WassersteinBall(median_set(), 0.03),
    ]
    for amb in sets:
        for _ in range(12):
            pi = random_prior(rng, g, 0.4)
            if isinstance(amb, WassersteinBall):  # brute-force distance to the base within the radius
                want = coupling_onto_rows(g.points, base_rows(amb.base, g), prior=pi.weights) <= amb.radius + 1e-7
            else:
                want = _feasible_with_pinned_prior(base_rows(amb, g), pi)
            assert contains(amb, pi, tol=1e-7) == want, (
                f"membership mismatch for {type(amb).__name__}"
            )


# --- the transport LPs against a brute-force coupling onto hand-written rows

def _random_base(kind, g, rng):
    """A feasible base set of the given kind on g, and its rows written out by hand."""
    pts, n, idx = g.points, g.n, np.arange(g.n)
    i, j = sorted(rng.choice(n, 2, replace=False))
    outside = ((idx < i) | (idx > j)).astype(float)
    if kind == "support":
        return SupportInterval(pts[i], pts[j]), [LpRow(outside, EQUAL, 0.0)]
    if kind == "singleton":
        w = np.zeros(n)
        at = rng.choice(n, int(rng.integers(2, 4)), replace=False)
        w[at] = rng.uniform(0.2, 1.0, at.size)
        w /= w.sum()
        return Singleton(DiscretePrior(g, w)), [LpRow(np.eye(n)[k], EQUAL, w[k]) for k in range(n)]
    if kind == "quantile":
        k, alpha = int(rng.integers(1, n - 1)), float(rng.uniform(0.1, 0.9))
        below, above = (idx <= k).astype(float), (idx >= k).astype(float)
        return QuantileSet(((pts[k], alpha),)), [LpRow(below, GREATER, alpha), LpRow(above, GREATER, 1 - alpha)]
    if kind == "half_space":
        h = rng.uniform(-1.0, 1.0, n)
        level = float(rng.uniform(h.min(), h.max()))
        return LinearSet((MomentRow(ValueFunction(g, h), lo=level),)), [LpRow(h, GREATER, level)]
    mu = float(rng.uniform(pts[i], pts[j]))
    rows = (MomentRow(ValueFunction(g, pts.copy()), mu, mu), MomentRow(ValueFunction(g, outside), 0.0, 0.0))
    base = LinearSet(rows, continuous_moments=bool(rng.integers(2)))
    return base, [LpRow(pts, EQUAL, mu), LpRow(outside, EQUAL, 0.0)]


@pytest.mark.parametrize("kind", ["support", "singleton", "quantile", "half_space", "linear"])
def test_transport_lps_match_brute_force_coupling_randomized(kind):
    rng = np.random.default_rng(7)
    for _ in range(6):
        n = int(rng.integers(4, 13))
        g = Grid(np.sort(rng.choice(151, n, replace=False)) / 100.0)
        base, rows = _random_base(kind, g, rng)
        pi = random_prior(rng, g, 0.4)
        v = rng.uniform(-1.0, 1.0, n)
        r, lam = float(rng.uniform(0.01, 0.3)), float(rng.uniform(0.0, 3.0))
        pts = g.points
        assert distance_to(base, pi) == pytest.approx(coupling_onto_rows(pts, rows, prior=pi.weights), abs=1e-8)
        ball = worst_case_ball(ValueFunction(g, v), base, r)
        assert ball.value == pytest.approx(coupling_onto_rows(pts, rows, v=v, radius=r), abs=1e-8)
        var = variational_value(ValueFunction(g, v), base, lam)
        assert var == pytest.approx(coupling_onto_rows(pts, rows, v=v, lam=lam), abs=1e-8)


# --- contains examples

def test_median_contains_saddle_prior():
    g = grid_with([0.39, 0.4])
    assert contains(median_set(), atoms(g, [(0.0, 0.5), (0.4, 0.5)]))
    assert not contains(median_set(), atoms(g, [(0.0, 0.5), (0.39, 0.5)]))


def test_singleton_contains_its_member(tiny_grid):
    pi = DiscretePrior.uniform(tiny_grid)
    assert contains(Singleton(pi), pi)


def test_row_lipschitz_reads_each_base_row():
    g = Grid.regular(0.0, 1.5, 0.05)
    rows = (
        MomentRow(ValueFunction(g, g.points.copy()), 0.6, 0.6),
        MomentRow(ValueFunction(g, g.points**2), 0.3, 0.5),
        MomentRow(ValueFunction(g, np.sin(3.0 * g.points)), hi=0.4),
    )
    amb = LinearSet(rows, continuous_moments=True)
    # the rule before slopes were read off base_rows: each moment row's slope,
    # once per row it lowers to (an equality one, a two-sided interval two)
    dt = np.diff(g.points)
    want = []
    for mr in rows:
        lip = float(np.max(np.abs(np.diff(mr.g.values)) / dt))
        want += [lip] * (1 if mr.lo == mr.hi else int(math.isfinite(mr.lo)) + int(math.isfinite(mr.hi)))
    assert len(want) == len(base_rows(amb, g)) == 4
    assert row_lipschitz(amb, g) == want
    assert row_lipschitz(LinearSet(rows), g) == [0.0] * 4


# --- distance_to

def test_distance_zero_for_members():
    g = grid_with([0.4])
    pi = atoms(g, [(0.0, 0.5), (0.4, 0.5)])
    assert distance_to(median_set(), pi) == pytest.approx(0.0, abs=1e-9)


def test_distance_support_closed_form():
    g = grid_with([0.4, 0.5])
    assert distance_to(SupportInterval(0.5, 1.0), DiscretePrior.point_mass(g, 0.4)) == pytest.approx(
        0.1, abs=1e-12
    )


def test_distance_zero_iff_contains_randomized():
    rng = np.random.default_rng(9)
    g = grid_with([0.4], spacing=0.1)
    sets = [median_set(), SupportInterval(0.4, 1.0), mean_set(g, 0.5)]
    for amb in sets:
        for _ in range(10):
            pi = random_prior(rng, g, 0.3)
            d = distance_to(amb, pi)
            assert (d <= 1e-8) == contains(amb, pi, tol=1e-8)


def test_distance_worst_prior_cdf_equals_radius():
    # the small-radius worst prior sits exactly r away from the support set
    from robustmd.mechanisms import monopoly_grid, robustify

    g = monopoly_grid(theta_bar=0.5, r=0.003)
    sol = robustify(0.5, 0.003, g)
    assert distance_to(SupportInterval(0.5, 1.0), sol.worst_prior) == pytest.approx(0.003, abs=1e-9)


def test_distance_rejects_ball():
    g = grid_with([0.4])
    ball = WassersteinBall(SupportInterval(0.4, 1.0), 0.1)
    with pytest.raises(ValueError):
        distance_to(ball, DiscretePrior.point_mass(g, 0.0))


# --- ball membership by phase 1

_MEMBERSHIP_BASES = ["mean", "two_moments", "quantile", "half_space", "support", "singleton"]


def _membership_case(rng, kind):
    """A nonempty base set of the given kind on a random grid of 13-60 states,
    and a prior with 6-12 atoms on that grid."""
    n = int(rng.integers(13, 61))
    g = Grid(np.sort(rng.choice(151, n, replace=False)) / 100.0)
    pts = g.points
    member = random_prior(rng, g)  # its moments are achievable
    if kind in ("mean", "two_moments"):
        fs = [pts.copy(), pts**2][: 1 if kind == "mean" else 2]
        base = LinearSet(tuple(MomentRow(ValueFunction(g, f), float(f @ member.weights), float(f @ member.weights))
                               for f in fs), continuous_moments=True)
    elif kind == "quantile":
        base = QuantileSet(((pts[int(rng.integers(1, n - 1))], float(rng.uniform(0.1, 0.9))),))
    elif kind == "half_space":
        h = rng.uniform(-1.0, 1.0, n)
        base = LinearSet((MomentRow(ValueFunction(g, h), lo=float(rng.uniform(h.min(), h.max()))),))
    elif kind == "support":
        i, j = sorted(rng.choice(n, 2, replace=False))
        base = SupportInterval(pts[i], pts[j])
    else:
        base = Singleton(random_prior(rng, g, 0.7))
    w = np.zeros(n)
    at = rng.choice(n, int(rng.integers(6, 13)), replace=False)
    w[at] = rng.uniform(0.5, 1.5, at.size)
    return base, DiscretePrior(g, w / w.sum())


@pytest.mark.parametrize("kind", _MEMBERSHIP_BASES)
def test_ball_membership_agrees_with_the_distance(kind):
    # 60 cases per base kind; each radius sits 1e-6 to d/2 from the distance d,
    # on a random side (inside whenever d is too small to leave room outside)
    rng = np.random.default_rng(_MEMBERSHIP_BASES.index(kind))
    answers = []
    for _ in range(60):
        base, pi = _membership_case(rng, kind)
        d = distance_to(base, pi)
        gap = 10.0 ** rng.uniform(-6.0, math.log10(max(d / 2.0, 1e-6)))
        r = d - gap if rng.integers(2) and d - gap >= 1e-6 else d + gap
        tol = float(rng.choice([0.0, 1e-8, 1e-7]))
        want = d <= r + tol
        assert contains(WassersteinBall(base, r), pi, tol) == want, (kind, d, r, tol)
        answers.append(want)
    assert 10 <= sum(answers) <= 50  # both sides of the boundary


def test_ball_membership_is_phase_one_only(monkeypatch):
    # an inside prior takes one zero-objective LP, an outside prior a second
    # one without the budget row; neither runs a phase-2 pivot nor distance_to
    rng = np.random.default_rng(11)
    cases = [_membership_case(rng, kind) for kind in _MEMBERSHIP_BASES for _ in range(3)]
    cases = [(base, pi, distance_to(base, pi)) for base, pi in cases]
    solves = []
    solve = ambiguity.solve_lp

    def recording(lp):
        sol = solve(lp)
        solves.append((lp, sol))
        return sol

    def no_distance(*args):
        raise AssertionError("membership of this ball computed a distance")

    monkeypatch.setattr(ambiguity, "solve_lp", recording)
    monkeypatch.setattr(ambiguity, "distance_to", no_distance)
    outside = 0
    for base, pi, d in cases:
        for r, lps in ((1.5 * d + 1e-3, 1), (0.5 * d, 2)):
            if r <= 1e-6:
                continue  # pi is in the base: no ball leaves it outside
            solves.clear()
            assert contains(WassersteinBall(base, r), pi) == (lps == 1)
            assert len(solves) == lps
            outside += lps == 2
            for lp, sol in solves:
                assert not lp.objective.any() and lp.tiebreak is None
                assert sol.iterations == sol.phase1_pivots  # no phase-2 pivot
    assert outside >= 6


def test_ball_membership_around_an_empty_moment_set_raises():
    g = Grid.regular(0.0, 1.5, 0.05)
    uniform = DiscretePrior(g, np.full(g.n, 1.0 / g.n))
    with pytest.raises(ambiguity.InfeasibleSetError, match="base set infeasible"):
        contains(WassersteinBall(mean_set(g, 1.8), 0.1), uniform)


# --- rich projections

def test_ball_projection_examples():
    g = grid_with([0.5, 0.65, 0.7], spacing=0.05)
    base = Singleton(DiscretePrior.point_mass(g, 0.5))
    ball = WassersteinBall(base, 0.1)

    inside = DiscretePrior.point_mass(g, 0.55)
    assert np.allclose(rich_project_ball(ball, inside, base.prior).weights, inside.weights)

    far = DiscretePrior.point_mass(g, 0.7)  # distance 0.2 = 2r forces alpha = 1
    assert np.allclose(rich_project_ball(ball, far, base.prior).weights, base.prior.weights)

    mid = DiscretePrior.point_mass(g, 0.65)  # alpha = 1/2
    out = rich_project_ball(ball, mid, base.prior)
    assert out.weights[g.index_of(0.65)] == pytest.approx(0.5, abs=1e-12)
    assert out.weights[g.index_of(0.5)] == pytest.approx(0.5, abs=1e-12)
    assert wasserstein1(out, base.prior) == pytest.approx(0.075, abs=1e-12)


def test_ball_projection_membership_and_tv_randomized():
    rng = np.random.default_rng(21)
    g = grid_with([0.5], spacing=0.05)
    zeta = DiscretePrior.point_mass(g, 0.5)
    ball = WassersteinBall(Singleton(zeta), 0.08)
    for _ in range(20):
        pi = random_prior(rng, g, 0.3)
        out = rich_project_ball(ball, pi, zeta)
        assert contains(ball, out, tol=1e-7)
        alpha = min(max(wasserstein1(zeta, pi) - 0.08, 0.0) / 0.08, 1.0)
        assert tv_distance(out, pi) <= alpha + 1e-9


@pytest.mark.parametrize("kind", ["quantile", "support", "singleton", "ball"])
def test_moment_projection_rejects_sets_that_are_not_linear(kind):
    g = grid_with([0.4])
    pi = atoms(g, [(0.0, 0.5), (0.4, 0.5)])
    amb = {
        "quantile": median_set(),
        "support": SupportInterval(0.0, 1.0),
        "singleton": Singleton(pi),
        "ball": WassersteinBall(mean_set(g, 0.2), 0.1),
    }[kind]
    with pytest.raises(ValueError, match=f"rich projection needs a LinearSet, got {type(amb).__name__}"):
        rich_project_moment(amb, pi)


def test_moment_projection_noop_when_feasible():
    g = grid_with([0.4])
    amb = mean_set(g, 0.2)
    pi = atoms(g, [(0.0, 0.5), (0.4, 0.5)])
    proj = rich_project_moment(amb, pi)
    assert proj.alpha == 0.0
    assert np.allclose(proj.prior.weights, pi.weights)


def test_moment_projection_mean_shift_example():
    # perturbed median prior projected onto the mean set: exact mean, TV no
    # worse than the textbook witness that moves eps/2 of mass to state 1.4
    g = grid_with([0.39, 0.4, 1.4])
    amb = mean_set(g, 0.2)
    pi = atoms(g, [(0.0, 0.5), (0.39, 0.5)])
    eps = 0.01 / 1.01
    proj = rich_project_moment(amb, pi)
    assert proj.prior.mean() == pytest.approx(0.2, abs=1e-10)
    assert contains(amb, proj.prior, tol=1e-8)
    assert tv_distance(proj.prior, pi) <= eps / 2.0 + 1e-9
    assert proj.alpha <= proj.residual / (proj.residual + proj.margin) + 1e-9
    # the explicit witness from the mean-vs-median comparison is also a member
    witness = push_mass(pi, g.index_of(0.39), g.index_of(1.4), eps / 2.0)
    assert witness.mean() == pytest.approx(0.2, abs=1e-12)
    assert contains(amb, witness, tol=1e-9)
    assert tv_distance(witness, pi) == pytest.approx(eps / 2.0, abs=1e-12)


def test_moment_projection_refuses_discontinuous_rows():
    g = grid_with([0.4])
    indicator = ValueFunction(g, (g.points <= 0.4).astype(float))
    amb = LinearSet((MomentRow(indicator, 0.5, 0.5),), continuous_moments=False)
    with pytest.raises(ValueError):
        rich_project_moment(amb, DiscretePrior.point_mass(g, 0.4))


def test_moment_projection_boundary_failure():
    g = grid_with([0.4])
    amb = mean_set(g, 0.0)  # only delta_0 achieves mean zero
    with pytest.raises(ValueError, match="boundary"):
        rich_project_moment(amb, DiscretePrior.point_mass(g, 0.4))


@pytest.mark.parametrize("mean", [1.8, -0.1])
def test_moment_projection_of_an_unachievable_target_is_infeasible(mean):
    # no prior on [0, 1.5] has this mean: the set is empty, not on the boundary
    g = Grid.regular(0.0, 1.5, 0.05)
    uniform = DiscretePrior(g, np.full(g.n, 1.0 / g.n))
    with pytest.raises(ambiguity.InfeasibleSetError, match="unachievable"):
        rich_project_moment(mean_set(g, mean), uniform)
    with pytest.raises(ambiguity.InfeasibleSetError):
        distance_to(mean_set(g, mean), uniform)
    with pytest.raises(ValueError, match="boundary") as exc:  # the hull's edge is achievable
        rich_project_moment(mean_set(g, 1.5), uniform)
    assert type(exc.value) is ValueError


def test_richness_tv_vanishes_along_sequences():
    # shrinking perturbations of a member: projections approach in TV for the
    # ball and the equality-mean set
    g = Grid.regular(0.0, 1.5, 0.0125, extra=[0.4, 1.4])
    member = atoms(g, [(0.0, 0.5), (0.4, 0.5)])
    lam_idx = g.index_of(0.4)
    ball = WassersteinBall(Singleton(member), 0.05)
    amb = mean_set(g, 0.2)
    tv_ball, tv_mean = [], []
    for k in (8, 4, 2, 1):
        pi_n = push_mass(member, lam_idx, lam_idx - k, 0.5)
        out_ball = rich_project_ball(ball, pi_n, member)
        tv_ball.append(tv_distance(out_ball, pi_n))
        out_mean = rich_project_moment(amb, pi_n).prior
        assert contains(amb, out_mean, tol=1e-8)
        tv_mean.append(tv_distance(out_mean, pi_n))
    assert all(b >= a - 1e-12 for a, b in zip(tv_ball[1:], tv_ball))
    assert all(b >= a - 1e-12 for a, b in zip(tv_mean[1:], tv_mean))
    assert tv_ball[-1] <= 1e-9  # inside the ball already
    assert tv_mean[-1] <= 0.01


def test_median_set_is_not_rich():
    # every member stays TV-far from the perturbed sequence: TV-minimizing LP
    g = Grid.regular(0.0, 1.5, 0.0125, extra=[0.4])
    lam_idx = g.index_of(0.4)
    member = atoms(g, [(0.0, 0.5), (0.4, 0.5)])
    set_rows = base_rows(median_set(), g)
    for k in (4, 2, 1):
        pi_n = push_mass(member, lam_idx, lam_idx - k, 0.5)
        n = g.n
        rows = [LpRow(np.append(r.coeffs, np.zeros(n)), r.relation, r.rhs) for r in set_rows]
        rows.append(LpRow(np.append(np.ones(n), np.zeros(n)), EQUAL, 1.0))
        eye = np.eye(n)
        for i in range(n):
            rows.append(LpRow(np.append(eye[i], -eye[i]), LESS, float(pi_n.weights[i])))
        sol = solve_lp(LinearProgram(np.append(np.zeros(n), np.ones(n)), rows))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.value >= 0.5 - 1e-8  # TV to the median set never drops below 1/2


def _tv_per_grid_point(G, z, pi):
    """Least TV from pi to moments z: the LP with an s variable and a row per grid point."""
    n = pi.grid.n
    rows = [LpRow(np.append(g, np.zeros(n)), EQUAL, float(zk)) for g, zk in zip(G, z)]
    rows.append(LpRow(np.append(np.ones(n), np.zeros(n)), EQUAL, 1.0))
    eye = np.eye(n)
    rows += [LpRow(np.append(eye[i], -eye[i]), LESS, float(pi.weights[i])) for i in range(n)]
    sol = solve_lp(LinearProgram(np.append(np.zeros(n), np.ones(n)), rows))
    assert sol.status is LpStatus.OPTIMAL
    return sol.value


@pytest.mark.parametrize("moments", [1, 2])
def test_tv_closest_matches_the_per_grid_point_lp(monkeypatch, moments):
    # one row per atom of pi: off the atoms the TV term is rho_i itself
    g = Grid.regular(0.0, 1.5, 0.05)
    G = np.vstack([g.points, g.points**2][:moments])
    rng = np.random.default_rng(40 + moments)
    sizes = []
    monkeypatch.setattr(ambiguity, "solve_lp", lambda lp: sizes.append(len(lp.rows)) or solve_lp(lp))
    priors = [random_prior(rng, g, sparsity=0.85) for _ in range(8)] + [random_prior(rng, g)]
    assert min(p.support_indices(atol=0.0).size for p in priors) < 8 and priors[-1].weights.min() > 0.0
    for pi in priors:
        z = G @ random_prior(rng, g).weights  # an achievable moment vector
        rho = ambiguity._tv_closest(G, z, pi, alpha_max=1.0)
        assert tv_distance(rho, pi) == pytest.approx(_tv_per_grid_point(G, z, pi), abs=1e-9)
        assert np.abs(G @ rho.weights - z).max() <= 1e-9
        assert sizes[-1] == moments + 1 + pi.support_indices(atol=0.0).size


def _moment_set(g, moments, z):
    """Continuous equality set on the first `moments` powers of theta, at targets z."""
    rows = [MomentRow(ValueFunction(g, g.points ** (k + 1)), zk, zk) for k, zk in zip(range(moments), z)]
    return LinearSet(tuple(rows), continuous_moments=True)


def _two_step_projection(G, y, pi, margin, residual):
    """The earlier construction: the least-TV prior at the target when its alpha
    is within residual / (residual + margin), else pi mixed at that weight with
    the least-TV prior at the target pushed out by the margin."""
    bound = residual / (residual + margin)
    rho = ambiguity._tv_closest(G, y, pi, alpha_max=1.0)
    atoms_ = pi.weights > 1e-15
    if 1.0 - np.min(rho.weights[atoms_] / pi.weights[atoms_]) <= bound + 1e-12:
        return rho
    zeta = ambiguity._tv_closest(G, y + margin * (y - G @ pi.weights) / residual, pi, alpha_max=1.0)
    return DiscretePrior.mixture([(1.0 - bound, pi), (bound, zeta)])


@pytest.mark.parametrize("moments", [1, 2])
def test_one_lp_projection_matches_the_two_step_construction(moments):
    # the bound as a constraint: least TV among priors rho >= (1 - bound) pi,
    # as small as the earlier try-check-mix construction gets
    g = Grid.regular(0.0, 1.5, 0.05)
    G = np.vstack([g.points, g.points**2][:moments])
    rng = np.random.default_rng(50 + moments)
    for _ in range(25):
        pi = random_prior(rng, g, sparsity=0.8)
        y = G @ random_prior(rng, g).weights  # an interior moment vector
        proj = rich_project_moment(_moment_set(g, moments, y), pi)
        bound = proj.residual / (proj.residual + proj.margin)
        ref = _two_step_projection(G, y, pi, proj.margin, proj.residual)
        assert tv_distance(proj.prior, pi) == pytest.approx(tv_distance(ref, pi), abs=1e-9)
        assert proj.alpha <= bound + 1e-12
        assert np.all(proj.prior.weights >= (1.0 - proj.alpha) * pi.weights - 1e-12)
        assert np.abs(G @ proj.prior.weights - y).max() <= 1e-9


@pytest.mark.parametrize("moments", [1, 2])
def test_projection_solves_one_tv_lp(monkeypatch, moments):
    # one margin LP per distinct probe direction (with one moment, the residual
    # direction is an axis direction) and one TV LP, whether or not the
    # unconstrained least-TV prior would have met the bound
    g = Grid.regular(0.0, 1.5, 0.05)
    amb = _moment_set(g, moments, (0.6, 0.45))
    rng = np.random.default_rng(60 + moments)
    calls = []
    monkeypatch.setattr(ambiguity, "solve_lp", lambda lp: calls.append(lp) or solve_lp(lp))
    for _ in range(8):
        calls.clear()
        rich_project_moment(amb, random_prior(rng, g, sparsity=0.8))
        assert len(calls) == {1: 3, 2: 7}[moments]


@pytest.mark.parametrize("grid", [Grid(Grid.regular(0.0, 1.5, 0.05).points * 0.5), Grid.regular(0.0, 1.5, 0.1)],
                         ids=["same_size", "other_size"])
def test_moment_projection_rejects_a_prior_on_another_grid(grid):
    amb = mean_set(Grid.regular(0.0, 1.5, 0.05), 0.6)
    with pytest.raises(GridMismatchError):
        rich_project_moment(amb, DiscretePrior.uniform(grid))
