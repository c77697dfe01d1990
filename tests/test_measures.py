"""Grid measures: expectations, metrics, envelopes, mass moves."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_prior
from oracles import hausdorff_distance, lsc_envelope_reference, transport_lp, tv_distance
from robustmd.measures import (
    INDEX_TOL,
    DiscretePrior,
    Grid,
    GridMismatchError,
    ValueFunction,
    expectation,
    lipschitz_envelope,
    lsc_defect_indices,
    lsc_envelope,
    push_mass,
    wasserstein1,
)


def grid_unit(spacing=0.01, hi=1.5):
    return Grid.regular(0.0, hi, spacing)


# --- construction invariants

def test_grid_rejects_bad_points():
    with pytest.raises(ValueError):
        Grid(np.array([0.0]))
    with pytest.raises(ValueError):
        Grid(np.array([0.3, 0.3]))
    with pytest.raises(ValueError):
        Grid(np.array([-0.1, 0.5]))
    with pytest.raises(ValueError):
        Grid(np.array([0.0, np.inf]))


def test_regular_grid_ends_at_hi_when_the_spacing_does_not_divide_it():
    # arange's last point is 1.4 here; the states in (1.4, 1.5] must stay on the grid
    g = Grid.regular(0.0, 1.5, 0.2)
    assert g.points[-1] == 1.5 and g.points[-2] == pytest.approx(1.4)
    assert Grid.regular(0.0, 1.35, 0.2).points[-1] == 1.35  # arange overshoots hi to 1.4
    assert Grid.regular(0.0, 1.5, 1.5 / 47).points[-1] == 1.5  # arange's last point is 1.4999999999999998
    assert Grid.regular(0.0, 1.5, 0.25).points.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5]


def test_grid_cutoff_masks_take_points_within_grid_tol():
    x = 0.5
    g = Grid(np.array([0.0, x - 2e-12, x - 0.5e-12, x, x + 0.5e-12, x + 2e-12, 1.0]))
    assert g.at_most(x).tolist() == [True, True, True, True, True, False, False]
    assert g.at_least(x).tolist() == [False, False, True, True, True, True, True]


def test_index_of_takes_points_within_index_tol_and_rejects_nan(tiny_grid):
    assert tiny_grid.index_of(0.4 + 0.5 * INDEX_TOL) == 1
    for x in (0.4 + 2.0 * INDEX_TOL, math.nan):
        with pytest.raises(ValueError, match="is not a grid point"):
            tiny_grid.index_of(x)
    with pytest.raises(ValueError, match="nan is not a grid point"):
        DiscretePrior.point_mass(tiny_grid, math.nan)  # once put all its mass at theta = 0


def test_prior_clamps_rounding_noise(tiny_grid):
    p = DiscretePrior(tiny_grid, np.array([0.5, 0.5, -1e-13]))
    assert p.weights[2] == 0.0


def test_prior_rejects_genuine_negative(tiny_grid):
    with pytest.raises(ValueError):
        DiscretePrior(tiny_grid, np.array([0.5, 0.5001, -1e-4]))


def test_prior_rejects_bad_total(tiny_grid):
    with pytest.raises(ValueError):
        DiscretePrior(tiny_grid, np.array([0.5, 0.5, 0.1]))


def test_value_function_caches_sup_norm(tiny_grid):
    v = ValueFunction(tiny_grid, np.array([1.0, -3.0, 2.0]))
    assert v.sup_norm == 3.0


# --- expectation

def test_expectation_point_mass():
    g = Grid(np.array([0.0, 1.0]))
    v = ValueFunction(g, g.points.copy())
    assert expectation(v, DiscretePrior.point_mass(g, 1.0)) == 1.0


def test_expectation_posted_price_half_half():
    # price 0.4 against the half/half prior on {0, 0.4} earns 0.4/2
    g = Grid(np.array([0.0, 0.4]))
    v = ValueFunction(g, np.array([0.0, 0.4]))
    pi = DiscretePrior(g, np.array([0.5, 0.5]))
    assert expectation(v, pi) == pytest.approx(0.2, abs=1e-15)


def test_expectation_uniform_is_mean(tiny_grid):
    v = ValueFunction(tiny_grid, np.array([3.0, -1.0, 7.0]))
    pi = DiscretePrior.uniform(tiny_grid)
    assert expectation(v, pi) == pytest.approx(3.0, abs=1e-12)


def test_expectation_grid_mismatch(tiny_grid):
    other = Grid(np.array([0.0, 0.5, 1.0]))
    v = ValueFunction(tiny_grid, np.zeros(3))
    with pytest.raises(GridMismatchError):
        expectation(v, DiscretePrior.uniform(other))


# --- tv distance

def test_tv_point_masses(tiny_grid):
    d0 = DiscretePrior.point_mass(tiny_grid, 0.0)
    d1 = DiscretePrior.point_mass(tiny_grid, 1.0)
    assert tv_distance(d0, d1) == 1.0
    assert tv_distance(d0, d0) == 0.0


def test_tv_shifted_atom_is_half():
    # moving one of two atoms to a distinct state changes TV by 1/2
    g = Grid(np.array([0.0, 0.39, 0.4]))
    pi = DiscretePrior(g, np.array([0.5, 0.0, 0.5]))
    pi_eps = DiscretePrior(g, np.array([0.5, 0.5, 0.0]))
    assert tv_distance(pi, pi_eps) == 0.5


# --- wasserstein1

def test_w1_point_masses(tiny_grid):
    d0 = DiscretePrior.point_mass(tiny_grid, 0.0)
    d1 = DiscretePrior.point_mass(tiny_grid, 1.0)
    assert wasserstein1(d0, d1) == pytest.approx(1.0, abs=1e-15)
    assert wasserstein1(d1, d1) == 0.0


def test_w1_two_by_two_against_coupling():
    g = Grid(np.array([0.0, 0.3, 0.4]))
    pi = DiscretePrior(g, np.array([0.5, 0.0, 0.5]))
    pi2 = DiscretePrior(g, np.array([0.5, 0.5, 0.0]))
    w = wasserstein1(pi, pi2)
    assert w == pytest.approx(0.05, abs=1e-12)
    assert w == pytest.approx(transport_lp(pi.weights, pi2.weights, g.points), abs=1e-9)


def test_w1_matches_coupling_lp_randomized():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(3, 21))
        pts = np.sort(rng.random(n) * 2.0)
        pts += np.arange(n) * 1e-6  # keep strictly increasing
        g = Grid(pts)
        p, q = random_prior(rng, g, 0.3), random_prior(rng, g, 0.3)
        assert wasserstein1(p, q) == pytest.approx(
            transport_lp(p.weights, q.weights, g.points), abs=1e-9
        )


def test_metric_axioms_randomized():
    rng = np.random.default_rng(11)
    g = grid_unit(0.05)
    for _ in range(40):
        a, b, c = (random_prior(rng, g, 0.5) for _ in range(3))
        for dist in (tv_distance, wasserstein1):
            assert dist(a, b) == pytest.approx(dist(b, a), abs=1e-12)
            assert dist(a, a) <= 1e-12
            assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-12
        # mass moved at most TV, distance at most the diameter
        assert wasserstein1(a, b) <= g.diameter * tv_distance(a, b) + 1e-12


def test_expectation_tv_bound_randomized():
    rng = np.random.default_rng(13)
    g = grid_unit(0.05)
    for _ in range(40):
        v = ValueFunction(g, rng.normal(size=g.n))
        a, b = random_prior(rng, g), random_prior(rng, g)
        gap = abs(expectation(v, a) - expectation(v, b))
        assert gap <= 2.0 * v.sup_norm * tv_distance(a, b) + 1e-12


# --- lsc envelope

def test_envelope_windowed_min_at_jump():
    g = Grid.regular(0.0, 1.0, 0.01)
    v = ValueFunction(g, (g.points >= 0.4 - 1e-12).astype(float))
    env = lsc_envelope(v, 0.01)
    i = g.index_of(0.4)
    assert env.values[i] == 0.0
    assert env.values[i + 1] == 1.0
    assert np.all(env.values <= v.values + 1e-15)


def test_envelope_zero_window_is_identity():
    g = grid_unit(0.02)
    v = ValueFunction(g, np.sin(g.points))
    assert np.array_equal(lsc_envelope(v, 0.0).values, v.values)


def test_envelope_linear_shift_bounded_by_modulus():
    g = grid_unit(0.01)
    v = ValueFunction(g, 2.0 * g.points)  # Lipschitz 2
    env = lsc_envelope(v, 0.01)
    # modulus over the window plus one cell (step reading of the grid vector)
    assert np.all(v.values - env.values <= 2.0 * (0.01 + g.max_spacing) + 1e-12)
    sub = lsc_envelope(v, 0.004)  # sub-cell window sees one segment left
    assert np.all(v.values - sub.values <= 2.0 * g.max_spacing + 1e-12)


def test_envelope_drops_bs_plateau_to_left_limit():
    # the negative-regret plateau at theta_bar drops to the just-below value
    from robustmd.mechanisms import bs_optimal_cdf, cdf_value, monopoly_grid

    g = monopoly_grid(theta_bar=0.5)
    v = cdf_value(bs_optimal_cdf(0.5, g), "neg_regret")
    i = g.index_of(0.5)
    env = lsc_envelope(v, g.max_spacing)
    assert env.values[i] == pytest.approx(v.values[i - 1], abs=1e-12)
    assert v.values[i] - env.values[i] > 0.14  # jump of about theta_bar + theta ln theta


def test_envelope_monotone_and_idempotent():
    rng = np.random.default_rng(3)
    g = grid_unit(0.02)
    v = ValueFunction(g, rng.normal(size=g.n))
    e1, e2 = lsc_envelope(v, 0.02), lsc_envelope(v, 0.08)
    assert np.all(e2.values <= e1.values + 1e-15)
    again = lsc_envelope(ValueFunction(g, e1.values.copy()), 0.0)
    assert np.array_equal(again.values, e1.values)


def test_envelope_rejects_nan_window_and_inf_is_global_min():
    g = Grid(np.arange(11.0))
    v = ValueFunction(g, np.arange(11.0))
    with pytest.raises(ValueError):
        lsc_envelope(v, math.nan)
    with pytest.raises(ValueError):
        lsc_envelope(v, -0.5)
    assert np.array_equal(lsc_envelope(v, math.inf).values, np.zeros(11))


# window radius as a multiple of the grid's max spacing s; None marks the
# half of the smallest cell, sub-cell at every state
_WINDOWS = (0.0, None, 0.5, 1.0, 4.0, "wider", math.inf)


@st.composite
def _envelope_case(draw):
    """An irregular grid of 2-700 points (a regular one plus extra points),
    payoffs that are integers (many ties) or reals, and one window. No payoff
    is -0.0: which signed zero a min returns is not fixed (see lsc_envelope)."""
    extra = draw(st.integers(0, 8))
    cells = draw(st.integers(1, 700 - extra - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = Grid.regular(0.0, 1.0, 1.0 / cells, extra=rng.uniform(0.0, 1.0, extra))
    tied = draw(st.booleans())
    values = rng.integers(-3, 4, g.n).astype(float) if tied else rng.normal(size=g.n)
    window = draw(st.sampled_from(_WINDOWS))
    if window is None:
        h = float(np.diff(g.points).min()) / 2.0
    elif window == "wider":
        h = 2.0 * g.diameter
    else:
        h = window * g.max_spacing
    return ValueFunction(g, values), h


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_envelope_case())
def test_envelope_table_matches_the_slice_loop_bit_for_bit(case):
    v, h = case
    assert lsc_envelope(v, h).values.tobytes() == lsc_envelope_reference(v, h).values.tobytes()


def test_defect_indices():
    g = Grid.regular(0.0, 1.0, 0.01)
    smooth = ValueFunction(g, g.points * 0.5)
    assert lsc_defect_indices(smooth, lsc_envelope(smooth, 0.005), 0.02).size == 0
    step = ValueFunction(g, 0.4 * (g.points >= 0.4 - 1e-12))
    # a sub-cell window isolates the up-step: only the price point is flagged
    assert list(lsc_defect_indices(step, lsc_envelope(step, 0.005), 0.01)) == [g.index_of(0.4)]
    assert g.index_of(0.4) in lsc_defect_indices(step, lsc_envelope(step, 0.011), 0.01)
    assert lsc_defect_indices(step, lsc_envelope(step, 0.0), 0.01).size == 0  # the h = 0 envelope is v
    for eps in (0.0, math.nan):
        with pytest.raises(ValueError):
            lsc_defect_indices(step, lsc_envelope(step, 0.005), eps)
    other = Grid.regular(0.0, 1.0, 0.02)
    with pytest.raises(GridMismatchError):
        lsc_defect_indices(step, ValueFunction(other, np.zeros(other.n)), 0.01)


def test_defect_indices_persuasion():
    from robustmd.mechanisms import monopoly_grid, persuasion_value

    g = monopoly_grid(extra=[0.3])
    v = persuasion_value(0.3, g)
    idx = lsc_defect_indices(v, lsc_envelope(v, g.max_spacing / 2.0), 0.01)
    assert list(idx) == [g.index_of(0.3)]


def test_envelope_equals_v_off_defects():
    g = Grid.regular(0.0, 1.0, 0.01)
    v = ValueFunction(g, 0.4 * (g.points >= 0.4 - 1e-12))
    env = lsc_envelope(v, 0.0101)
    defect = set(lsc_defect_indices(v, env, 1e-9))
    for i in range(g.n):
        if i not in defect:
            assert env.values[i] == v.values[i]


def test_lipschitz_envelope_matches_brute_force():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        g = Grid(np.sort(rng.choice(301, n, replace=False)) / 200.0)
        v = ValueFunction(g, rng.normal(size=n))
        for lam in (0.0, float(rng.uniform(0.0, 5.0)), 50.0):
            dist = np.abs(g.points[:, None] - g.points[None, :])
            brute = (v.values[:, None] + lam * dist).min(axis=0)  # min over s of v_s + lam |theta_s - theta_t|
            assert lipschitz_envelope(v, lam).values == pytest.approx(brute, abs=1e-12)
    assert np.all(lipschitz_envelope(v, 0.0).values == v.values.min())
    with pytest.raises(ValueError):
        lipschitz_envelope(v, -0.1)


# --- push_mass

def test_push_mass_full_atom(tiny_grid):
    d0 = DiscretePrior.point_mass(tiny_grid, 0.0)
    moved = push_mass(d0, 0, 2, 1.0)
    assert moved.weights[2] == 1.0 and moved.weights[0] == 0.0


def test_push_mass_median_perturbation():
    g = Grid(np.array([0.0, 0.39, 0.4]))
    pi = DiscretePrior(g, np.array([0.5, 0.0, 0.5]))
    out = push_mass(pi, 2, 1, 0.5)
    assert np.allclose(out.weights, [0.5, 0.5, 0.0])


def test_push_mass_zero_is_identity(tiny_grid):
    pi = DiscretePrior.uniform(tiny_grid)
    out = push_mass(pi, 1, 2, 0.0)
    assert np.allclose(out.weights, pi.weights)


def test_push_mass_rejects_overdraw(tiny_grid):
    pi = DiscretePrior.uniform(tiny_grid)
    with pytest.raises(ValueError):
        push_mass(pi, 0, 1, 0.5)


# --- hausdorff

def test_hausdorff_examples(tiny_grid):
    d0 = DiscretePrior.point_mass(tiny_grid, 0.0)
    d1 = DiscretePrior.point_mass(tiny_grid, 1.0)
    assert hausdorff_distance([d0], [d0]) == 0.0
    assert hausdorff_distance([d0], [d1]) == pytest.approx(1.0, abs=1e-12)
    # brute force over the 2x1 distance matrix: sup-inf is the farther atom
    assert hausdorff_distance([d0, d1], [d0]) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        hausdorff_distance([], [d0])
