"""LP solver and bisection kernels against brute-force oracles."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import stop_phase
from oracles import enumerate_vertices_minimize, scan_root
from robustmd import guarantee, optim
from robustmd.cli import build_ambiguity, build_grid, build_value, parse_spec
from robustmd.guarantee import worst_case
from robustmd.optim import (
    CERT_TOL,
    EQUAL,
    GREATER,
    LESS,
    PHASE_ONE,
    PHASE_TWO,
    PIVOT_TOL,
    TIEBREAK,
    LinearProgram,
    LpNumericalError,
    LpRow,
    LpStatus,
    solve_bracketed,
    solve_lp,
)
from robustmd.robustness import check_robust


def test_min_x_above_one():
    sol = solve_lp(LinearProgram([1.0], [LpRow([1.0], GREATER, 1.0)]))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.value == pytest.approx(1.0, abs=1e-12)


def test_median_toy_lp():
    # two-state median pin: mass 1/2 on each side, worst value 0.2
    lp = LinearProgram(
        [0.0, 0.4],
        [
            LpRow([1.0, 1.0], EQUAL, 1.0),
            LpRow([1.0, 0.0], GREATER, 0.5),
            LpRow([0.0, 1.0], GREATER, 0.5),
        ],
    )
    sol = solve_lp(lp)
    assert sol.value == pytest.approx(0.2, abs=1e-12)
    assert np.allclose(sol.x, [0.5, 0.5], atol=1e-10)


def test_infeasible_status():
    sol = solve_lp(LinearProgram([0.0], [LpRow([1.0], LESS, -1.0)]))
    assert sol.status is LpStatus.INFEASIBLE


def test_unbounded_status():
    sol = solve_lp(LinearProgram([-1.0], []))
    assert sol.status is LpStatus.UNBOUNDED
    assert sol.value == -math.inf


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        LinearProgram([1.0, 2.0], [LpRow([1.0], LESS, 1.0)])


def test_variables_are_nonnegative_only():
    # the bounds keyword is gone; the read-only pairs are what the trace hooks size an LP from
    with pytest.raises(TypeError):
        LinearProgram([1.0, 2.0], [], bounds=[(0.0, 1.0), (0.0, 1.0)])
    assert LinearProgram([1.0, 2.0], []).bounds == [(0.0, math.inf)] * 2


def test_primal_residual_matches_loop_reference():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        rows = [LpRow(rng.integers(-2, 3, size=n).astype(float), rel, float(rng.integers(-2, 3)))
                for rel in rng.choice([LESS, EQUAL, GREATER], size=int(rng.integers(0, 3)))]
        x = rng.normal(scale=2.0, size=n)
        ref = 0.0
        for row in rows:
            ax = float(row.coeffs @ x)
            ref = max(ref, {LESS: ax - row.rhs, GREATER: row.rhs - ax, EQUAL: abs(ax - row.rhs)}[row.relation])
        assert optim.row_violation(rows, x) == ref


def _random_lp(rng):
    n = int(rng.integers(2, 5))
    m = int(rng.integers(1, 5))
    rows = []
    for _ in range(m):
        coeffs = rng.integers(-3, 4, size=n).astype(float)
        rel = rng.choice([LESS, GREATER])
        rhs = float(rng.integers(-2, 5))
        rows.append(LpRow(coeffs, rel, rhs))
    if rng.random() < 0.3:
        coeffs = rng.integers(0, 3, size=n).astype(float)
        if np.any(coeffs != 0):
            rows.append(LpRow(coeffs, EQUAL, float(rng.integers(0, 4))))
    rows.append(LpRow(np.ones(n), LESS, float(rng.integers(2, 7))))  # bound the polytope
    c = rng.integers(-4, 5, size=n).astype(float)
    return LinearProgram(c, rows), n


def test_against_vertex_enumeration_randomized():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(200):
        lp, n = _random_lp(rng)
        status, best = enumerate_vertices_minimize(lp.objective, lp.rows, n)
        sol = solve_lp(lp)
        if status == "infeasible":
            assert sol.status is LpStatus.INFEASIBLE
        else:
            assert sol.status is LpStatus.OPTIMAL
            assert sol.value == pytest.approx(best, abs=1e-8)
            checked += 1
    assert checked > 100  # the generator must exercise plenty of solvable cases


def test_duality_and_complementary_slackness_randomized():
    rng = np.random.default_rng(77)
    seen = 0
    for _ in range(100):
        lp, _ = _random_lp(rng)
        sol = solve_lp(lp)
        if sol.status is not LpStatus.OPTIMAL:
            continue
        seen += 1
        b = np.array([row.rhs for row in lp.rows])
        assert float(sol.dual @ b) == pytest.approx(sol.value, abs=1e-7)
        assert sol.comp_slack_residual <= 1e-7
        assert sol.feasibility_residual <= 1e-8
        assert sol.dual_residual <= 1e-9 and sol.duality_gap <= 1e-9
    assert seen > 50


def test_determinism():
    rng = np.random.default_rng(5)
    lp, _ = _random_lp(rng)
    a, b = solve_lp(lp), solve_lp(lp)
    assert a.value == b.value
    assert np.array_equal(a.x, b.x)
    assert a.iterations == b.iterations


# --- tiebreak over the optimal face


def _coeffs(n):
    return st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(lambda c: np.array(c, float))


@st.composite
def _bounded_lp(draw):
    """A small LP bounded by sum(x) <= K and optional rows x_j <= upper.

    Right-hand sides are often 0 (degenerate vertices at the origin), and an
    equality row may come with a redundant copy (twice the row). Returns the
    LP and the same feasible set as rows over x >= 0 with the redundant row
    left out, for the vertex-enumeration oracle.
    """
    n = draw(st.integers(2, 4))
    rows = [
        LpRow(draw(_coeffs(n)), draw(st.sampled_from([LESS, GREATER])), float(draw(st.integers(-1, 3))))
        for _ in range(draw(st.integers(1, 3)))
    ]
    if draw(st.booleans()):
        coeffs = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), float)
        if np.any(coeffs != 0):
            rows.append(LpRow(coeffs, EQUAL, float(draw(st.integers(0, 3)))))
    rows.append(LpRow(np.ones(n), LESS, float(draw(st.integers(1, 5)))))
    uppers = draw(st.lists(st.sampled_from([math.inf, 1.0, 2.0]), min_size=n, max_size=n))
    upper_rows = [LpRow(np.eye(n)[j], LESS, hi) for j, hi in enumerate(uppers) if hi < math.inf]
    oracle_rows = rows + upper_rows
    if rows[-2].relation == EQUAL and draw(st.booleans()):
        rows.insert(0, LpRow(2.0 * rows[-2].coeffs, EQUAL, 2.0 * rows[-2].rhs))
    lp = LinearProgram(draw(_coeffs(n)), rows + upper_rows)
    return lp, oracle_rows


def _cold_then_tiebreak(case, data):
    """Plain solve against vertex enumeration, then a solve with a drawn
    tiebreak against the plain one and against vertex enumeration over the
    optimal face; returns the plain solution."""
    lp, oracle_rows = case
    n = lp.n_vars
    status, best = enumerate_vertices_minimize(lp.objective, oracle_rows, n)
    sol = solve_lp(lp)
    t = data.draw(_coeffs(n))
    tied = solve_lp(LinearProgram(lp.objective, lp.rows, tiebreak=t))
    for s in (sol, tied):
        assert s.iterations >= s.phase1_pivots >= s.fallback_pivots
        assert s.iterations >= s.phase1_pivots + s.tiebreak_pivots
    assert sol.tiebreak_pivots == 0 and tied.status is sol.status
    if status == "infeasible":
        assert sol.status is LpStatus.INFEASIBLE
        return sol
    assert sol.status is LpStatus.OPTIMAL
    assert sol.value == pytest.approx(best, abs=1e-8)
    assert tied.value == pytest.approx(sol.value, abs=1e-9)
    face_status, face_best = enumerate_vertices_minimize(t, oracle_rows + [LpRow(lp.objective, EQUAL, best)], n)
    if face_status == "infeasible":
        # the pinned row is then a combination of the equality rows (e.g. a zero
        # objective), which makes every oracle system singular; the objective is
        # constant on the feasible set, so the face is the whole set
        face_status, face_best = enumerate_vertices_minimize(t, oracle_rows, n)
    assert face_status == "optimal"
    assert float(t @ tied.x) == pytest.approx(face_best, abs=1e-8)
    return sol


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_bounded_lp(), st.data())
def test_against_vertex_enumeration_with_tiebreak(case, data):
    _cold_then_tiebreak(case, data)


@pytest.mark.parametrize("streak", [0, 1])
def test_bland_fallback_against_vertex_enumeration(monkeypatch, streak):
    # a streak limit of 0 prices all of phase 1 by Bland's rule; 1 falls back
    # after every degenerate pivot and returns to Dantzig after the next move
    monkeypatch.setattr(optim, "DEGENERATE_STREAK", streak)
    fallback = []

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_bounded_lp(), st.data())
    def check(case, data):
        fallback.append(_cold_then_tiebreak(case, data).fallback_pivots)

    check()
    assert max(fallback) > 0


@pytest.mark.parametrize("streak", [0, 1, 50])
def test_beale_cycling_example(monkeypatch, streak):
    # Beale (1955): Dantzig pricing alone can cycle on this degenerate LP
    monkeypatch.setattr(optim, "DEGENERATE_STREAK", streak)
    rows = [
        LpRow([0.25, -60.0, -1.0 / 25.0, 9.0], LESS, 0.0),
        LpRow([0.5, -90.0, -1.0 / 50.0, 3.0], LESS, 0.0),
        LpRow([0.0, 0.0, 1.0, 0.0], LESS, 1.0),
    ]
    sol = solve_lp(LinearProgram([-0.75, 150.0, -1.0 / 50.0, 6.0], rows))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.value == pytest.approx(-1.0 / 20.0, abs=1e-12)
    assert sol.x == pytest.approx([1.0 / 25.0, 0.0, 1.0, 0.0], abs=1e-12)


def test_pivot_counters_add_up(monkeypatch):
    rows = [LpRow([1.0, 1.0, 1.0], EQUAL, 1.0), LpRow([1.0, -1.0, 0.0], GREATER, 0.0)]
    sol = solve_lp(LinearProgram([0.0, 1.0, 2.0], rows))
    assert sol.phase1_pivots > 0 and sol.iterations >= sol.phase1_pivots
    assert sol.fallback_pivots == 0  # no streak of 50 degenerate pivots in a 2-row LP
    monkeypatch.setattr(optim, "DEGENERATE_STREAK", 0)
    bland = solve_lp(LinearProgram([0.0, 1.0, 2.0], rows))
    assert bland.fallback_pivots == bland.phase1_pivots > 0
    assert bland.value == sol.value


def test_certificate_rejects_a_nonoptimal_basis(monkeypatch):
    stop_phase(monkeypatch, PHASE_TWO)
    # phase 1 makes x0 basic, but min -x1 wants x1 in: a negative reduced cost
    with pytest.raises(LpNumericalError, match="reduced cost"):
        solve_lp(LinearProgram([0.0, -1.0], [LpRow([1.0, 1.0], LESS, 1.0)]))
    # the same stop is harmless when the phase-1 basis is already optimal
    sol = solve_lp(LinearProgram([-1.0, 0.0], [LpRow([1.0, 1.0], LESS, 1.0)]))
    assert sol.value == -1.0 and sol.dual_residual == 0.0 and sol.duality_gap == 0.0


def test_certificate_rejects_nan():
    # max(0, nan) is 0 and nan > tol is False, so a NaN must be caught before the comparisons
    cost = np.ones(2)
    with pytest.raises(LpNumericalError, match="not finite"):
        optim._certify(cost, np.array([math.nan, 0.0]), 1.0, 1.0, "")
    with pytest.raises(LpNumericalError, match="not finite"):
        optim._certify(cost, np.zeros(2), 1.0, math.nan, "")
    assert optim._certify(cost, np.zeros(2), 1.0, 1.0, "") == (0.0, 0.0)


def test_tiebreak_picks_the_least_vertex_of_the_optimal_face():
    # min -x0 - x1 over x0 + x1 + x2 <= 1: the face is the segment x0 + x1 = 1
    rows = [LpRow([1.0, 1.0, 1.0], LESS, 1.0)]
    for t, x in (([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]), ([0.0, 1.0, 0.0], [1.0, 0.0, 0.0])):
        sol = solve_lp(LinearProgram([-1.0, -1.0, 0.0], rows, tiebreak=t))
        assert sol.value == -1.0 and sol.x.tolist() == x
    # the tiebreak would pay -1 at x2 = 1, which is off the face
    sol = solve_lp(LinearProgram([-1.0, -1.0, 0.0], rows, tiebreak=[0.0, 0.0, -1.0]))
    assert sol.value == -1.0 and sol.x[2] == 0.0
    with pytest.raises(ValueError, match="tiebreak"):
        LinearProgram([1.0, 0.0], [], tiebreak=[1.0])
    # every point of the ray x0 = x1 >= 0 is optimal, and -x0 falls without bound on it
    with pytest.raises(ValueError, match="tiebreak is unbounded"):
        solve_lp(LinearProgram([0.0, 0.0], [LpRow([1.0, -1.0], EQUAL, 0.0)], tiebreak=[-1.0, 0.0]))


def test_certificate_rejects_an_unfinished_tiebreak(monkeypatch):
    # a zero objective makes the whole segment optimal; phase 1 makes x0 basic
    lp = LinearProgram([0.0, 0.0], [LpRow([1.0, 1.0], EQUAL, 1.0)], tiebreak=[1.0, 0.0])
    assert solve_lp(lp).x.tolist() == [0.0, 1.0]
    stop_phase(monkeypatch, TIEBREAK)
    with pytest.raises(LpNumericalError, match="^tiebreak reduced cost .* at the reported optimum$"):
        solve_lp(lp)
    # stopping the tiebreak pass does not touch a solve without a tiebreak
    assert solve_lp(LinearProgram(lp.objective, lp.rows)).x.tolist() == [1.0, 0.0]


# --- starting from a basis


@st.composite
def _enlarged_lp(draw):
    """A drawn LP, and the same LP with drawn columns inserted among its own.

    The new columns have drawn coefficients in every row, except a 1 in each
    all-ones <= row, which keeps the enlarged polytope bounded. Returns the
    LP with a drawn tiebreak, the enlarged LP and the sorted column ids of
    each (the LP's columns keep their order in the enlarged one).
    """
    lp, _ = draw(_bounded_lp())
    n, k = lp.n_vars, draw(st.integers(1, 3))
    ids = np.array(sorted(draw(st.lists(st.integers(0, 20), min_size=n + k, max_size=n + k, unique=True))))
    new = np.zeros(n + k, dtype=bool)
    new[draw(st.lists(st.integers(0, n + k - 1), min_size=k, max_size=k, unique=True))] = True
    old = np.flatnonzero(~new)

    def widened(v, added):
        out = np.zeros(n + k)
        out[old], out[new] = v, added
        return out

    t = draw(_coeffs(n + k))
    rows = []
    for row in lp.rows:
        added = np.ones(k) if row.relation == LESS and np.all(row.coeffs == 1.0) else draw(_coeffs(k))
        rows.append(LpRow(widened(row.coeffs, added), row.relation, row.rhs))
    small = LinearProgram(lp.objective, lp.rows, tiebreak=t[old])
    big = LinearProgram(widened(lp.objective, draw(_coeffs(k))), rows, tiebreak=t)
    return small, big, ids[old], ids


def _solutions_agree(warm, cold, lp):
    tol = CERT_TOL * max(1.0, float(np.abs(lp.objective).max()))
    assert warm.status is cold.status
    if cold.status is LpStatus.OPTIMAL:
        assert abs(warm.value - cold.value) <= tol
        assert abs(float(lp.tiebreak @ warm.x) - float(lp.tiebreak @ cold.x)) <= tol


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_enlarged_lp())
def test_warm_start_after_adding_columns_matches_a_cold_solve(case):
    small, big, small_ids, big_ids = case
    first = solve_lp(small)
    start = None if first.basis is None else guarantee._remapped(first.basis, small_ids, big_ids)
    warm = solve_lp(LinearProgram(big.objective, big.rows, tiebreak=big.tiebreak, start=start))
    cold = solve_lp(big)
    _solutions_agree(warm, cold, big)
    assert not cold.warm
    assert not warm.warm or warm.phase1_pivots == 0
    # an optimal basis with no dropped row stays feasible when columns are added;
    # one with a dropped row fits only while the kept rows imply it
    if first.status is LpStatus.OPTIMAL and first.basis.min() >= 0:
        assert warm.warm and warm.basis.min() >= 0


_FALLBACK_LP = LinearProgram(
    [1.0, 2.0, 0.0, 1.0],
    [LpRow([1.0, 2.0, 1.0, 0.0], EQUAL, 1.0), LpRow([1.0, 2.0, 0.0, 1.0], GREATER, 0.5)],
    tiebreak=[0.0, 1.0, 2.0, 3.0],
)


@pytest.mark.parametrize("start", [
    [0],  # wrong length
    [0, 1, 2],  # wrong length
    [2, -1],  # drops a row the kept rows do not imply
    [0, 7],  # past the last column (the slack of row 1 is column 4)
    [2, 2],  # a repeated column
    [0, 1],  # singular: column 1 is twice column 0
    [2, 4],  # infeasible: the slack of the >= row would be -0.5
    np.array([0.0, 3.0]),  # not column indices
])
def test_a_start_that_does_not_fit_gives_the_cold_solve(start):
    cold = solve_lp(_FALLBACK_LP)
    lp = _FALLBACK_LP
    sol = solve_lp(LinearProgram(lp.objective, lp.rows, tiebreak=lp.tiebreak, start=start))
    assert cold.status is LpStatus.OPTIMAL and cold.phase1_pivots > 0 and not sol.warm
    for f in dataclasses.fields(optim.LpSolution):
        a, b = getattr(sol, f.name), getattr(cold, f.name)
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name


def test_a_fitting_start_skips_phase_one():
    cold = solve_lp(_FALLBACK_LP)
    lp = _FALLBACK_LP
    for start in (cold.basis, [2, 3]):
        sol = solve_lp(LinearProgram(lp.objective, lp.rows, tiebreak=lp.tiebreak, start=start))
        assert sol.warm and sol.phase1_pivots == 0
        assert sol.value == cold.value and np.array_equal(sol.x, cold.x)
    assert solve_lp(LinearProgram(lp.objective, lp.rows, tiebreak=lp.tiebreak, start=cold.basis)).iterations == 0


def test_dropped_rows_are_reported_in_the_basis():
    # the second row repeats the first, so phase 1 drops one of them
    rows = [LpRow([1.0, 1.0], EQUAL, 1.0), LpRow([1.0, 1.0], EQUAL, 1.0)]
    sol = solve_lp(LinearProgram([1.0, 2.0], rows))
    assert sol.status is LpStatus.OPTIMAL and sorted(sol.basis.tolist()) == [-1, 0]
    assert solve_lp(LinearProgram([-1.0], [])).basis is None  # unbounded


def test_a_start_with_a_dropped_row_fits_while_the_kept_rows_imply_it():
    rows = [LpRow([1.0, 1.0], EQUAL, 1.0), LpRow([1.0, 1.0], EQUAL, 1.0)]
    cold = solve_lp(LinearProgram([1.0, 2.0], rows))
    assert cold.basis.tolist() == [0, -1]
    sol = solve_lp(LinearProgram([1.0, 2.0], rows, start=cold.basis))
    assert sol.warm and sol.iterations == 0 and np.array_equal(sol.x, cold.x)
    assert sol.basis.tolist() == [0, -1]
    # a third column tells the two rows apart, so keeping row 0 no longer implies row 1
    rows = [LpRow([1.0, 1.0, 1.0], EQUAL, 1.0), LpRow([1.0, 1.0, 2.0], EQUAL, 1.0)]
    cold = solve_lp(LinearProgram([1.0, 2.0, 0.5], rows))
    sol = solve_lp(LinearProgram([1.0, 2.0, 0.5], rows, start=[0, -1]))
    assert cold.status is LpStatus.OPTIMAL and not sol.warm
    for f in dataclasses.fields(optim.LpSolution):
        a, b = getattr(sol, f.name), getattr(cold, f.name)
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name


def test_a_cold_solve_holds_no_artificial_columns(monkeypatch):
    shapes = []
    run = optim._simplex

    def recording(T, obj, basis, max_iter, phase):
        shapes.append((phase, T.shape, obj.shape))
        return run(T, obj, basis, max_iter, phase)

    monkeypatch.setattr(optim, "_simplex", recording)
    solve_lp(_FALLBACK_LP)  # 2 rows; 4 columns and one slack, so N = 5
    assert shapes[0] == (PHASE_ONE, (2, 6), (6,))
    assert all(shape == (2, 6) for _, shape, _ in shapes)


# --- the pivot


def _simplex_reference(T, obj, basis, max_iter, phase):
    """optim._simplex written out with the textbook pivot: after dividing the
    pivot row, every other row loses its entering-column multiple of it."""
    dantzig = phase == PHASE_ONE
    it = degenerate = fallback = streak = 0
    while True:
        negative = obj[:-1] < -PIVOT_TOL
        if not negative.any():
            return optim._Pivots(it, degenerate, fallback, False)
        bland = not dantzig or streak >= optim.DEGENERATE_STREAK
        enter = int(np.argmax(negative)) if bland else int(np.argmin(obj[:-1]))
        col = T[:, enter]
        pos = col > PIVOT_TOL
        if not pos.any():
            return optim._Pivots(it, degenerate, fallback, True)
        ratios = np.where(pos, T[:, -1] / np.where(pos, col, 1.0), math.inf)
        best = ratios.min()
        ties = np.flatnonzero(ratios <= best + PIVOT_TOL)
        leave = int(ties[np.argmin(basis[ties])])
        T[leave] /= T[leave, enter]
        colv = T[:, enter].copy()
        colv[leave] = 0.0
        T -= np.outer(colv, T[leave])
        obj -= obj[enter] * T[leave]
        np.maximum(T[:, -1], 0.0, out=T[:, -1])
        basis[leave] = enter
        it += 1
        fallback += dantzig and bland
        if best <= PIVOT_TOL:
            degenerate += 1
            streak += 1
        else:
            streak = 0
        if it > max_iter:
            raise LpNumericalError(f"simplex exceeded {max_iter} iterations")


@st.composite
def _sparse_tableau(draw):
    """A slack-basis tableau [A | I | b] with mostly zero entries in A, b >= 0
    (often 0, so pivots degenerate), and two cost vectors over its columns."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.sampled_from([0.0, 0.0, 0.0, 0.0, 1.0, -1.0, 2.0, -3.0, 0.5])
    A = np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m)))
    b = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.0]), min_size=m, max_size=m)))
    costs = [np.append(draw(_coeffs(n)), np.zeros(m)) for _ in range(2)]
    return np.hstack([A, np.eye(m), b[:, None]]), n + m, costs


def _pivots_against_reference(case):
    """Phase 1, then phase 2 on the same tableau, by _simplex and by the
    reference; after each pass the bases, counters and tableaus must agree."""
    T0, N, costs = case
    ours, ref = T0.copy(), T0.copy()
    basis = np.arange(N - T0.shape[0], N)
    basis_ref = basis.copy()
    for cost, phase in zip(costs, (PHASE_ONE, PHASE_TWO)):
        obj, obj_ref = (optim._reduced_costs(T, b, cost) for T, b in ((ours, basis), (ref, basis_ref)))
        assert np.array_equal(obj, obj_ref)
        p = optim._simplex(ours, obj, basis, 1000, phase)
        p_ref = _simplex_reference(ref, obj_ref, basis_ref, 1000, phase)
        assert p == p_ref
        assert np.array_equal(basis, basis_ref)
        assert np.array_equal(ours, ref) and np.array_equal(obj, obj_ref)
        if p.unbounded:
            break


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_sparse_tableau())
def test_pivot_matches_the_dense_update(case):
    _pivots_against_reference(case)


@st.composite
def _tall_tableau(draw):
    """A slack-basis tableau [A | I | b] of up to 24 rows, with mostly zero rhs
    and a few distinct entries, so that many rows tie for the least ratio (at 0
    and above it) after earlier pivots have put the basis out of row order."""
    m, n = draw(st.integers(6, 24)), draw(st.integers(2, 8))
    entry = st.sampled_from([0.0, 0.0, 0.0, 1.0, 1.0, 2.0, -1.0, 0.5])
    A = np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m)))
    b = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.0]), min_size=m, max_size=m)))
    costs = [np.append(draw(_coeffs(n)), np.zeros(m)) for _ in range(2)]
    return np.hstack([A, np.eye(m), b[:, None]]), n + m, costs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_tall_tableau())
def test_ratio_test_ties_on_tall_tableaus_match_the_reference(case):
    # the leaving row on a tie is the one with the smallest basic index, which
    # after a few pivots is seldom the smallest row index
    _pivots_against_reference(case)


_BS = {
    "grid": {"lo": 0.0, "hi": 1.5, "spacing": 0.0025},
    "value_function": {"kind": "bergemann_schlag", "theta_bar": 0.5, "objective": "neg_regret"},
    "ambiguity": {"kind": "support", "a": 0.5, "b": 1.0},
}
_MEAN_BALL = dict(_BS, grid=dict(_BS["grid"], spacing=1.0 / 40.0), ambiguity={
    "kind": "wasserstein_ball", "radius": 0.02,
    "base": {"kind": "linear", "continuous_moments": True,
             "rows": [{"g": {"kind": "identity"}, "lo": 0.6, "hi": 0.6}]},
})
_PERSUASION = {
    "grid": {"lo": 0.0, "hi": 1.5, "spacing": 0.0025, "extra_points": [0.4]},
    "value_function": {"kind": "persuasion", "alpha": 0.3},
    "ambiguity": {"kind": "linear", "continuous_moments": False, "rows": [
        {"g": {"kind": "identity"}, "lo": 0.4, "hi": 0.4},
        {"g": {"kind": "indicator_outside", "a": 0.3, "b": 0.6}, "lo": 0.0, "hi": 0.0},
    ]},
}


@pytest.mark.parametrize("doc, pivots", [
    (_BS, 1),
    (dict(_BS, ambiguity={"kind": "wasserstein_ball", "base": _BS["ambiguity"], "radius": 0.003}), 4),
    (_MEAN_BALL, 24),
    (_PERSUASION, 123),
], ids=["bs", "bs_ball", "mean_ball_1_40", "persuasion"])
def test_whole_lp_pivot_counts_are_pinned(doc, pivots):
    # pivot counts follow from the pricing and ratio rules alone, not from how
    # a pivot updates the tableau; these are the reports' solver_iterations.
    # A plain support set has columns only into its inside states, so BS's LP
    # is the unit-mass row alone; persuasion's is a phase 2 of real length
    spec = parse_spec(doc)
    grid = build_grid(spec)
    assert worst_case(build_value(spec, grid), build_ambiguity(spec, grid)).iterations == pivots


_SINGLETON_BALL = dict(_BS, grid=dict(_BS["grid"], spacing=0.01), ambiguity={
    "kind": "wasserstein_ball", "radius": 0.02,
    "base": {"kind": "singleton", "theta": [0.2, 0.7], "weights": [0.5, 0.5]},
})


@pytest.mark.parametrize("doc", [_MEAN_BALL, _SINGLETON_BALL], ids=["mean_ball", "singleton_ball"])
def test_ball_rounds_after_the_first_skip_phase_one(monkeypatch, doc):
    # phase 1 drops a singleton ball's unit-mass row, which the atom pins imply
    # on every transport column, so its start carries a -1 and still fits
    sols = []

    def recording(lp):
        sols.append(solve_lp(lp))
        return sols[-1]

    monkeypatch.setattr(guarantee, "solve_lp", recording)
    spec = parse_spec(doc)
    grid = build_grid(spec)
    worst_case(build_value(spec, grid), build_ambiguity(spec, grid))
    assert len(sols) > 1 and sols[0].phase1_pivots > 0 and not sols[0].warm
    assert all(s.warm and s.phase1_pivots == 0 for s in sols[1:])


def test_envelope_windows_after_the_guarantee_skip_phase_one(monkeypatch):
    sols = []

    def recording(lp):
        sols.append(solve_lp(lp))
        return sols[-1]

    monkeypatch.setattr(guarantee, "solve_lp", recording)
    spec = parse_spec(dict(_BS, grid=dict(_BS["grid"], spacing=0.01)))
    grid = build_grid(spec)
    check_robust(build_value(spec, grid), build_ambiguity(spec, grid))
    # the guarantee's LP, then one per envelope window, each from the optimum before it
    assert len(sols) == 6 and sols[0].phase1_pivots > 0 and not sols[0].warm
    assert all(s.warm and s.phase1_pivots == 0 for s in sols[1:])


# --- bisection

def test_bisect_linear():
    assert solve_bracketed(lambda x: x - 2.0, 0.0, 4.0) == pytest.approx(2.0, abs=1e-10)


def test_bisect_rejects_same_sign():
    with pytest.raises(ValueError):
        solve_bracketed(lambda x: x + 1.0, 0.0, 4.0)


def test_bisect_alpha_equation_vs_scan():
    # the exponent equation psi(0.5, alpha) = 0.003 solved two independent ways
    from robustmd.mechanisms import _psi

    root = solve_bracketed(lambda a: _psi(0.5, a) - 0.003, 2.0, 64.0, tol=1e-10)
    ref = scan_root(lambda a: _psi(0.5, a) - 0.003, 2.0, 10.0, 1e-4)
    assert root == pytest.approx(ref, abs=1e-3)
    assert root == pytest.approx(2.6974, abs=5e-4)


def test_bisect_beta_equation_vs_scan():
    f = lambda b: math.log(b) + 1.0 / b - 1.0 - 0.0016205
    root = solve_bracketed(f, 1.0, 4.0, tol=1e-10)
    ref = scan_root(f, 1.0, 4.0, 1e-4)
    assert root == pytest.approx(ref, abs=1e-3)
    assert root == pytest.approx(1.0592, abs=5e-4)


def test_bisect_iteration_budget():
    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        return x - math.pi

    lo, hi, tol = 0.0, 4.0, 1e-10
    root = solve_bracketed(f, lo, hi, tol)
    assert abs(root - math.pi) <= tol
    # two endpoint evaluations plus one per halving
    assert calls <= math.ceil(math.log2((hi - lo) / tol)) + 2 + 2


def _budgeted(f, calls=200):
    """f, raising once called more than `calls` times, so a bisection that
    never ends fails its test instead of stalling the suite."""
    count = 0

    def g(x):
        nonlocal count
        count += 1
        if count > calls:
            raise RuntimeError("bisection does not terminate")
        return f(x)

    return g


def test_bisect_stops_at_adjacent_floats():
    # the exponent root at r = 5e-8 is about 686, where adjacent floats sit
    # 1.1e-13 apart, above tol: the bracket stops shrinking before hi - lo <= tol
    from robustmd.mechanisms import _psi

    f = _budgeted(lambda a: _psi(0.5, a) - 5e-8)
    root = solve_bracketed(f, 2.0, 1024.0, tol=1e-13)
    assert root > 512.0
    assert abs(_psi(0.5, root) - 5e-8) <= 1e-16


@pytest.mark.parametrize("lo, hi", [(1.0, math.inf), (-math.inf, 1.0), (0.0, math.nan)])
def test_bisect_rejects_infinite_bracket(lo, hi):
    with pytest.raises(ValueError, match="not finite"):
        solve_bracketed(_budgeted(lambda x: x - 2.0), lo, hi)


def test_bisect_accepts_near_zero_endpoint():
    assert solve_bracketed(lambda x: x, 0.0, 1.0, tol=1e-10) == 0.0
