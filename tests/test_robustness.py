"""Robustness verdicts and their perturbation witnesses, checked against the
hand-built fragility witnesses in oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import hausdorff_distance, hausdorff_lsc_probe, quantile_counterexample, saddle_fragility
from robustmd import measures, robustness
from robustmd.ambiguity import (
    LinearSet,
    MomentRow,
    QuantileSet,
    Singleton,
    SupportInterval,
    WassersteinBall,
    contains,
    distance_to,
)
from robustmd.guarantee import worst_case
from robustmd.measures import (
    DiscretePrior,
    Grid,
    ValueFunction,
    expectation,
    lsc_defect_indices,
    lsc_envelope,
    push_mass,
)
from robustmd.mechanisms import (
    bs_optimal_cdf,
    cdf_value,
    median_example_bundle,
    monopoly_grid,
    persuasion_ambiguity,
    persuasion_value,
    posted_price_value,
)
from robustmd.optim import CERT_TOL
from robustmd.robustness import Verdict, auto_defect_indices, check_robust


def step_function(grid, rng, n_steps=4, min_width=6):
    """Random right-continuous step function with plateaus of several cells."""
    cuts = np.sort(rng.choice(np.arange(min_width, grid.n - min_width), size=n_steps, replace=False))
    cuts = [c for i, c in enumerate(cuts) if i == 0 or c - cuts[i - 1] >= min_width]
    levels = rng.uniform(-1.0, 1.0, size=len(cuts) + 1)
    v = np.full(grid.n, levels[0])
    for k, c in enumerate(cuts):
        v[c:] = levels[k + 1]
    return ValueFunction(grid, v)


# --- check_robust on the bundled examples

def test_median_example_non_robust():
    g = monopoly_grid(extra=[0.4])
    ex = median_example_bundle(0.4, g)
    cert = check_robust(ex.value_fn, ex.ambiguity)
    assert cert.verdict is Verdict.NON_ROBUST
    assert cert.gap == pytest.approx(0.2, abs=1e-6)
    assert cert.guarantee == pytest.approx(0.2, abs=1e-9)
    assert max(cert.witness_payoffs) <= 1e-9  # revenue collapses to zero


def test_bs_high_cutoff_non_robust():
    g = monopoly_grid(theta_bar=0.5)
    v = cdf_value(bs_optimal_cdf(0.5, g), "neg_regret")
    cert = check_robust(v, SupportInterval(0.5, 1.0))
    assert cert.verdict is Verdict.NON_ROBUST
    # regret jumps from R to theta just below the cutoff
    assert cert.gap == pytest.approx(0.5 - 0.346574, abs=0.01)


def test_bs_low_cutoff_robust():
    g = monopoly_grid(theta_bar=0.2)
    v = cdf_value(bs_optimal_cdf(0.2, g), "neg_regret")
    cert = check_robust(v, SupportInterval(0.2, 1.0))
    assert cert.verdict is Verdict.ROBUST


def test_persuasion_non_robust_gap():
    g = monopoly_grid(extra=[0.3, 0.4, 0.6])
    cert = check_robust(persuasion_value(0.3, g), persuasion_ambiguity(0.3, 0.6, 0.4, g))
    assert cert.verdict is Verdict.NON_ROBUST
    assert cert.gap == pytest.approx(0.4, abs=1e-3)  # 2 alpha p with p = 2/3


def test_check_robust_builds_one_envelope_per_window(monkeypatch):
    # the defect states come off the s/2 window's envelope, not a sixth one
    windows = []
    envelope = measures.lsc_envelope

    def recording(v, h):
        windows.append(h)
        return envelope(v, h)

    monkeypatch.setattr(measures, "lsc_envelope", recording)
    monkeypatch.setattr(robustness, "lsc_envelope", recording)
    ex = median_example_bundle(0.4, monopoly_grid(extra=[0.4]))
    cert = check_robust(ex.value_fn, ex.ambiguity)
    assert cert.verdict is Verdict.NON_ROBUST
    assert windows == cert.h_schedule


def test_check_robust_finds_defects_once_on_the_half_cell_envelope(monkeypatch):
    # the defect comparison is measures.lsc_defect_indices, called once per
    # check on the envelope the s/2 window already built
    envelopes, calls = {}, []
    envelope, defects = measures.lsc_envelope, measures.lsc_defect_indices

    def recording_envelope(v, h):
        env = envelope(v, h)
        envelopes[h] = env
        return env

    def recording_defects(v, env, eps):
        calls.append((v, env, eps))
        return defects(v, env, eps)

    monkeypatch.setattr(robustness, "lsc_envelope", recording_envelope)
    monkeypatch.setattr(robustness, "lsc_defect_indices", recording_defects)
    ex = median_example_bundle(0.4, monopoly_grid(extra=[0.4]))
    bs = cdf_value(bs_optimal_cdf(0.5, monopoly_grid(theta_bar=0.5)), "neg_regret")
    for v, amb in ((ex.value_fn, ex.ambiguity), (bs, SupportInterval(0.5, 1.0))):
        envelopes.clear()
        calls.clear()
        check_robust(v, amb)
        assert len(calls) == 1
        got_v, got_env, eps = calls[0]
        assert got_v is v and got_env is envelopes[v.grid.max_spacing / 2.0]
        assert eps == max(3.0 * float(np.median(np.abs(np.diff(v.values)))), robustness.DEFECT_EPS)


def test_auto_defects_are_the_defects_at_half_a_cell():
    rng = np.random.default_rng(3)
    g = Grid.regular(0.0, 1.5, 1.0 / 40.0)
    for _ in range(20):
        v = step_function(g, rng)
        eps = max(3.0 * float(np.median(np.abs(np.diff(v.values)))), robustness.DEFECT_EPS)
        want = lsc_defect_indices(v, lsc_envelope(v, g.max_spacing / 2.0), eps)
        assert want.size and np.array_equal(auto_defect_indices(v), want)


def test_verdict_stable_under_grid_refinement():
    cases = []
    for spacing in (1.0 / 200.0, 1.0 / 400.0):
        g1 = monopoly_grid(spacing=spacing, extra=[0.4])
        ex = median_example_bundle(0.4, g1)
        g2 = monopoly_grid(spacing=spacing, theta_bar=0.5)
        v2 = cdf_value(bs_optimal_cdf(0.5, g2), "neg_regret")
        g3 = monopoly_grid(spacing=spacing, theta_bar=0.2)
        v3 = cdf_value(bs_optimal_cdf(0.2, g3), "neg_regret")
        g4 = monopoly_grid(spacing=spacing, extra=[0.3, 0.4, 0.6])
        cases.append(
            [
                check_robust(ex.value_fn, ex.ambiguity),
                check_robust(v2, SupportInterval(0.5, 1.0)),
                check_robust(v3, SupportInterval(0.2, 1.0)),
                check_robust(persuasion_value(0.3, g4), persuasion_ambiguity(0.3, 0.6, 0.4, g4)),
            ]
        )
    for coarse, fine in zip(*cases):
        assert coarse.verdict == fine.verdict
        if coarse.verdict is Verdict.NON_ROBUST:
            assert abs(coarse.gap - fine.gap) <= 0.1 * max(abs(fine.gap), 1e-12)


def _paper_spec(name):
    """(value function, set) of a NON_ROBUST paper spec at the default spacing."""
    if name == "median":
        ex = median_example_bundle(0.4, monopoly_grid(extra=[0.4]))
        return ex.value_fn, ex.ambiguity
    if name == "bs":
        g = monopoly_grid(theta_bar=0.5)
        return cdf_value(bs_optimal_cdf(0.5, g), "neg_regret"), SupportInterval(0.5, 1.0)
    g = monopoly_grid(extra=[0.3, 0.4, 0.6])
    return persuasion_value(0.3, g), persuasion_ambiguity(0.3, 0.6, 0.4, g)


@pytest.mark.parametrize("spec", ["median", "bs", "persuasion"])
def test_witnesses_outside_set_and_approaching(spec):
    # distance_to / s at 1/400: median 4, 2, 1, 0.5; persuasion 5.33 ... 0.67;
    # bs 1, 1, 1, 1 (every window's least regret is one cell below the cutoff)
    v, amb = _paper_spec(spec)
    cert = check_robust(v, amb)
    assert len(cert.witness) == 4
    dists = []
    for w, payoff in zip(cert.witness, cert.witness_payoffs):
        assert not contains(amb, w, tol=1e-9)
        assert payoff <= cert.guarantee - cert.gap / 2.0 + 1e-9
        dists.append(distance_to(amb, w))
    assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))  # nonincreasing
    assert dists[-1] <= v.grid.max_spacing + 1e-12


# --- the certificate's perturbation witnesses

def test_perturbation_witness_median_shape():
    g = monopoly_grid(extra=[0.4])
    ex = median_example_bundle(0.4, g)
    witnesses = check_robust(ex.value_fn, ex.ambiguity).witness
    assert len(witnesses) == 4
    i0, ilam = g.index_of(0.0), g.index_of(0.4)
    s = g.max_spacing
    for j, w in enumerate(witnesses):
        assert w.weights[i0] == pytest.approx(0.5, abs=1e-12)  # zero atom pinned
        moved = w.support_indices()
        target = [i for i in moved if i not in (i0,)][0]
        assert g.points[ilam] - g.points[target] == pytest.approx(s * 2 ** (3 - j), abs=1e-9)
        assert expectation(ex.value_fn, w) == 0.0


def test_perturbation_witness_persuasion_keeps_top_atom():
    g = monopoly_grid(extra=[0.3, 0.4, 0.6])
    v = persuasion_value(0.3, g)
    amb = persuasion_ambiguity(0.3, 0.6, 0.4, g)
    witnesses = check_robust(v, amb).witness
    i_beta = g.index_of(0.6)
    for w in witnesses:
        # beta atom pinned up to the optimal-face pinning tolerance
        assert w.weights[i_beta] == pytest.approx(1.0 / 3.0, abs=1e-5)
        assert expectation(v, w) <= 0.26  # payoff collapses to the beta atom's share


def test_perturbation_witness_rejects_robust_input():
    g = monopoly_grid(theta_bar=0.2)
    v = cdf_value(bs_optimal_cdf(0.2, g), "neg_regret")
    cert = check_robust(v, SupportInterval(0.2, 1.0))
    assert cert.verdict is Verdict.ROBUST
    assert cert.witness is None and cert.witness_payoffs is None


# --- hand-built witnesses (oracles) against the verdict

def test_saddle_fragility_median():
    g = monopoly_grid(extra=[0.4])
    ex = median_example_bundle(0.4, g)
    rev = ex.value_fn  # transfers equal revenue for a posted price
    wit = saddle_fragility(rev, ex.saddle_prior, rev, ex.ambiguity)
    assert wit is not None
    assert wit.theta0 == pytest.approx(0.4, abs=1e-12)
    assert wit.drop == pytest.approx(0.2, abs=1e-9)
    assert wit.drop == pytest.approx(wit.atom_mass * rev.values[wit.theta0_index], abs=1e-9)
    base = expectation(rev, ex.saddle_prior)
    for w, payoff in zip(wit.witnesses, wit.payoffs):
        assert base - payoff >= wit.drop - 1e-9
    assert wit.drop == pytest.approx(check_robust(rev, ex.ambiguity).gap, abs=1e-9)


def test_saddle_fragility_bs_atomized_worst_prior():
    g = monopoly_grid(theta_bar=0.5)
    q = bs_optimal_cdf(0.5, g)
    neg_regret = cdf_value(q, "neg_regret")
    pi_hat = worst_case(neg_regret, SupportInterval(0.5, 1.0)).worst_prior
    revenue = cdf_value(q, "revenue")
    wit = saddle_fragility(revenue, pi_hat, revenue, SupportInterval(0.5, 1.0))
    assert wit is not None
    i0 = wit.theta0_index
    assert wit.drop >= pi_hat.weights[i0] * revenue.values[i0] - 1e-9
    assert wit.drop == pytest.approx(pi_hat.weights[i0] * revenue.values[i0], abs=1e-9)
    # the singleton's envelope gap is the atom's whole drop: 0.153426... at 1/400
    assert wit.drop == pytest.approx(check_robust(revenue, Singleton(pi_hat)).gap, abs=1e-9)


def test_saddle_fragility_rejects_zero_guarantee():
    g = monopoly_grid(extra=[0.4])
    zero = ValueFunction(g, np.zeros(g.n))
    pi = DiscretePrior.point_mass(g, 0.4)
    with pytest.raises(ValueError):
        saddle_fragility(zero, pi, zero, QuantileSet(((0.4, 0.5),)))


def test_saddle_fragility_not_applicable_for_smooth_value():
    g = monopoly_grid()
    v = ValueFunction(g, np.full(g.n, 0.3))  # positive everywhere, no weak states
    pi = DiscretePrior.point_mass(g, 1.0)
    assert saddle_fragility(v, pi, v, SupportInterval(0.0, 1.5)) is None


def test_quantile_counterexample_median():
    g = monopoly_grid(extra=[0.4])
    qc = quantile_counterexample(QuantileSet(((0.4, 0.5),)), g)
    assert qc.guarantee == 0.5
    assert qc.witness_payoff == 0.0
    ex = median_example_bundle(0.4, g)
    assert check_robust(ex.value_fn, ex.ambiguity).witness_payoffs == [qc.witness_payoff] * 4
    assert worst_case(qc.value_fn, QuantileSet(((0.4, 0.5),))).value == pytest.approx(0.5, abs=1e-9)
    assert contains(QuantileSet(((0.4, 0.5),)), qc.member, tol=1e-12)
    for w in qc.witnesses:
        assert expectation(qc.value_fn, w) == pytest.approx(0.0, abs=1e-12)


def test_quantile_counterexample_two_levels():
    g = monopoly_grid(extra=[0.3, 0.6])
    qs = QuantileSet(((0.3, 0.25), (0.6, 0.75)))
    qc = quantile_counterexample(qs, g)
    assert qc.guarantee == 0.75
    assert qc.witness_payoff == 0.25
    assert worst_case(qc.value_fn, qs).value == pytest.approx(0.75, abs=1e-9)
    assert contains(qs, qc.member, tol=1e-12)
    for w in qc.witnesses:
        assert expectation(qc.value_fn, w) == pytest.approx(0.25, abs=1e-12)


def test_quantile_counterexample_rejects_zero_level():
    g = monopoly_grid(extra=[0.4])
    with pytest.raises(ValueError):
        quantile_counterexample(QuantileSet(((0.4, 0.0),)), g)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="check_robust misses down-steps: lsc_envelope reads the grid as a right-continuous "
    "step function, so a sub-cell window sees only the left neighbour of 1{theta <= 0.4}'s drop",
)
def test_down_step_quantile_guarantee_is_non_robust():
    # The oracle's witnesses move the top atom one to four cells right of 0.4
    # and pay 0 against the guarantee 0.5, and D(k s) = V(0) - V_ball(k s)
    # plateaus at 0.5 from k = 1/2 on: fragile by the definition. The mirror
    # payoff 1{theta >= 0.4} over the same set is NON_ROBUST with gap 0.5.
    g = monopoly_grid(extra=[0.4])
    qset = QuantileSet(((0.4, 0.5),))
    qc = quantile_counterexample(qset, g)
    cert = check_robust(qc.value_fn, qset)
    assert cert.verdict is Verdict.NON_ROBUST
    assert cert.gap == pytest.approx(qc.guarantee - qc.witness_payoff, abs=1e-9)


def test_hausdorff_probe_continuous_no_jump():
    g = monopoly_grid()
    v = ValueFunction(g, g.points * 0.5)
    pi = DiscretePrior.point_mass(g, 0.5)
    probe = hausdorff_lsc_probe(v, [pi], g.max_spacing)
    assert probe.max_jump <= 0.5 * g.max_spacing + 1e-12


def test_hausdorff_probe_median_jump():
    g = monopoly_grid(extra=[0.4])
    ex = median_example_bundle(0.4, g)
    probe = hausdorff_lsc_probe(ex.value_fn, [ex.saddle_prior], g.max_spacing)
    assert probe.max_jump == pytest.approx(0.2, abs=1e-9)
    assert probe.max_jump == pytest.approx(check_robust(ex.value_fn, ex.ambiguity).gap, abs=1e-9)


def test_hausdorff_probe_zero_scale():
    g = monopoly_grid(extra=[0.4])
    ex = median_example_bundle(0.4, g)
    probe = hausdorff_lsc_probe(ex.value_fn, [ex.saddle_prior], 0.0)
    assert all(p == probe.base_value for p in probe.perturbed_values)


# --- global-robustness properties

def test_absolutely_continuous_proxy_gap_is_one_cell():
    # density-capped priors (the grid proxy for absolutely continuous priors)
    # cannot charge the posted-price defect with more than one cell's worth of
    # mass: the envelope gap is bounded by jump * cap and scales away with the
    # resolution, which is the grid rendering of robustness over sets of
    # absolutely continuous priors
    gaps = []
    for spacing in (1.0 / 50.0, 1.0 / 100.0):
        g = Grid.regular(0.0, 1.5, spacing, extra=[0.4])
        v = posted_price_value(0.4, g, "revenue")
        cap = 3.0 * g.max_spacing  # density at most 3 w.r.t. cell width
        eye = np.eye(g.n)
        rows = tuple(MomentRow(ValueFunction(g, eye[i]), 0.0, cap) for i in range(g.n))
        rows = rows + (MomentRow(ValueFunction(g, g.points.copy()), 0.5, 0.5),)
        capped = LinearSet(rows, continuous_moments=False)
        cert = check_robust(v, capped)
        assert cert.gap <= 0.4 * cap + 1e-9
        gaps.append(cert.gap)
    assert gaps[1] <= 0.6 * gaps[0]  # halving the cells halves the chargeable mass


def test_discretized_smooth_prior_gap_vanishes_with_spacing():
    # a uniform-density prior charges the posted-price defect with one cell of
    # mass; the singleton gap is that cell's worth and halves under refinement
    gaps = []
    for spacing in (1.0 / 50.0, 1.0 / 100.0):
        g = Grid.regular(0.0, 1.5, spacing, extra=[0.4])
        v = posted_price_value(0.4, g, "revenue")
        cert = check_robust(v, Singleton(DiscretePrior.uniform(g)))
        gaps.append(cert.gap)
    assert gaps[1] == pytest.approx(0.5 * gaps[0], rel=0.2)
    assert gaps[0] <= 0.4 / 50.0  # at most the jump times one cell's mass


def test_probe_perturbations_stay_hausdorff_close():
    # adjoining a perturbed member moves the finite set by at most the scale
    g = monopoly_grid(extra=[0.4])
    ex = median_example_bundle(0.4, g)
    scale = 2.0 * g.max_spacing
    perturbed = [
        push_mass(ex.saddle_prior, g.index_of(0.4), g.index_of(0.4) - 2, 0.5),
    ]
    base_list = [ex.saddle_prior]
    assert hausdorff_distance(base_list + perturbed, base_list) <= scale + 1e-12


def test_rich_sets_robust_for_random_steps():
    rng = np.random.default_rng(101)
    g = Grid.regular(0.0, 1.5, 1.0 / 40.0)
    anchor = DiscretePrior.point_mass(g, 0.75)
    for _ in range(8):
        v = step_function(g, rng)
        ball = WassersteinBall(Singleton(anchor), 0.1)
        assert check_robust(v, ball).verdict is Verdict.ROBUST
        mean_set = LinearSet(
            (MomentRow(ValueFunction(g, g.points.copy()), 0.6, 0.6),), continuous_moments=True
        )
        assert check_robust(v, mean_set).verdict is Verdict.ROBUST


def test_singleton_verdict_matches_defect_mass_test():
    # Bayesian robustness: the guarantee under a single prior is fragile exactly
    # when the prior charges a defect point. Prior mass within a couple of
    # cells of a jump is below grid resolution (the verdict may honestly be
    # inconclusive there), so the generator keeps atoms either exactly on
    # defects or at least five cells away from every jump.
    rng = np.random.default_rng(55)
    g = Grid.regular(0.0, 1.5, 1.0 / 40.0)
    for _ in range(20):
        v = step_function(g, rng)
        defects = set(int(i) for i in auto_defect_indices(v))
        clear = [
            i
            for i in range(g.n)
            if all(abs(i - d) >= 5 for d in defects)
        ]
        atoms = list(rng.choice(clear, size=3, replace=False))
        if rng.random() < 0.6 and defects:
            atoms.append(int(rng.choice(sorted(defects))))
        w = np.zeros(g.n)
        for i in atoms:
            w[i] += rng.random() + 0.05
        pi = DiscretePrior(g, w / w.sum())
        cert = check_robust(v, Singleton(pi))
        env = np.array(
            [
                min(v.values[max(i - 1, 0)], v.values[i], v.values[min(i + 1, g.n - 1)])
                for i in range(g.n)
            ]
        )
        charged = sum(pi.weights[i] * (v.values[i] - env[i]) for i in defects)
        if charged > cert.threshold:
            assert cert.verdict is Verdict.NON_ROBUST
        else:
            assert cert.verdict is not Verdict.NON_ROBUST


# --- warm-started envelope windows

@st.composite
def _step_case(draw, kind):
    """A step payoff on a grid of at most 60 states, and a set of the given kind on it."""
    g = Grid.regular(0.0, 1.5, draw(st.sampled_from([0.03, 0.05, 0.1])))
    cuts = draw(st.lists(st.integers(1, g.n - 1), min_size=1, max_size=5, unique=True))
    levels = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(cuts) + 1, max_size=len(cuts) + 1))
    v = np.full(g.n, levels[0])
    for cut, level in zip(sorted(cuts), levels[1:]):
        v[cut:] = level
    pts = g.points
    if kind == "quantile":
        k = draw(st.integers(1, g.n - 2))
        amb = QuantileSet(((pts[k], draw(st.floats(0.05, 0.95))),))
    elif kind == "support":
        i, j = sorted(draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True)))
        amb = SupportInterval(pts[i], pts[j])
    else:
        mu = draw(st.floats(0.2, 1.3))
        mean = MomentRow(ValueFunction(g, pts.copy()), mu, mu)
        if kind == "linear":  # mean pinned, second moment capped above its least value mu^2
            second = MomentRow(ValueFunction(g, pts**2), hi=mu**2 + draw(st.floats(0.01, 0.2)))
            amb = LinearSet((mean, second), continuous_moments=draw(st.booleans()))
        else:
            amb = WassersteinBall(LinearSet((mean,), continuous_moments=True), draw(st.floats(0.005, 0.1)))
    return ValueFunction(g, v), amb


def _windows(v, amb, warm):
    """check_robust's certificate and the reports of its six worst cases, with
    each window started from the LP before it (warm) or from scratch."""
    reports = []

    def recording(u, a, start=None):
        reports.append(worst_case(u, a, start=start if warm else None))
        return reports[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(robustness, "worst_case", recording)
        return check_robust(v, amb), reports


@pytest.mark.parametrize("kind", ["quantile", "support", "linear", "mean_ball"])
def test_warm_windows_equal_cold_ones(kind):
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_step_case(kind))
    def check(case):
        v, amb = case
        warm, warm_reports = _windows(v, amb, True)
        cold, cold_reports = _windows(v, amb, False)
        assert len(warm_reports) == len(cold_reports) == 1 + len(warm.h_schedule)
        assert all(r.final is not None for r in warm_reports)
        tol = CERT_TOL * max(1.0, v.sup_norm)
        for (h, got), (h_cold, want) in zip(warm.envelope_values, cold.envelope_values):
            assert h == h_cold and abs(got - want) <= tol
        pts = v.grid.points
        for w, c in zip(warm_reports, cold_reports):
            assert abs(pts @ w.worst_prior.weights - pts @ c.worst_prior.weights) <= 1e-12
        assert (warm.verdict, warm.guarantee, warm.threshold) == (cold.verdict, cold.guarantee, cold.threshold)

    check()
