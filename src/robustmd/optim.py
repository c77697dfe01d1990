"""Self-contained numerical kernels: a dense two-phase simplex and a bisection solver.

The simplex is deliberately a dense tableau: instances are desk-scale and
determinism matters more than speed. Feasibility tolerance 1e-8, pivot
tolerance 1e-10 (problem data is O(1) throughout).

Phase 1 prices by Dantzig's rule (the most negative reduced cost enters),
which reaches a feasible basis of a wide, degenerate coupling LP in a handful
of pivots where Bland's lowest-index rule takes thousands. After
DEGENERATE_STREAK consecutive degenerate pivots it falls back to Bland's rule
until the next nondegenerate pivot, so it cannot cycle. Phase 2 always uses
Bland's rule. On ties for the leaving row, the smallest basic index leaves.

An LP may carry a tiebreak objective, minimized over the optimal face: after
phase 2, one more Bland pass on the same tableau prices the tiebreak, with
every column whose phase-2 reduced cost is off zero by more than PIVOT_TOL
priced at +inf so it never enters, and the objective never moves. At a
phase-2 optimum those columns are the ones priced above zero, and by
complementary slackness the optimal face is exactly the feasible points with
zero weight on them.

Phase 1 runs on [A | b], with each row's artificial basic but in no column,
and drops the rows it proves redundant. An LP may instead carry a starting
basis (as LpSolution.basis reports it, -1 for a dropped row): the solve
refactorizes B^-1 [A | b] on its kept rows and skips phase 1. Either way,
phase 2 starts from an m_kept x (N+1) tableau. A start that does not fit
(see _warm_tableau) is ignored, and the solve runs both phases without it.

Every optimum is certified from the refactorized basis: no reduced cost
below -1e-9 (scaled by the largest cost) and a duality gap within the same
tolerance, else LpNumericalError; a tiebreak's reduced costs over the face
are certified the same way.

Each solve owns its tableau; there is no shared state, so distinct calls may
run concurrently.
"""

import logging
import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

log = logging.getLogger(__name__)

FEAS_TOL = 1e-8
PIVOT_TOL = 1e-10
CERT_TOL = 1e-9  # reduced-cost and duality-gap certificate, times max(1, |c|inf)
DEGENERATE_STREAK = 50  # phase-1 degenerate pivots before Bland's rule takes over

PHASE_ONE, PHASE_TWO, TIEBREAK = "phase1", "phase2", "tiebreak"  # the passes of a solve

LESS, EQUAL, GREATER = "<=", "=", ">="
_RELATIONS = (LESS, EQUAL, GREATER)


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class LpNumericalError(RuntimeError):
    """Numerical breakdown: a singular basis or a residual that survived a
    refactorization retry, or a solution breaking an invariant that holds
    exactly on the grid (unit prior mass, a monotone guarantee curve)."""


@dataclass
class LpRow:
    coeffs: np.ndarray
    relation: str
    rhs: float

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if self.coeffs.ndim != 1 or not np.all(np.isfinite(self.coeffs)):
            raise ValueError("row coefficients must be a finite 1-D vector")
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")
        if not np.isfinite(self.rhs):
            raise ValueError("row rhs must be finite")


@dataclass
class LinearProgram:
    """min c'x subject to rows (a'x <= / = / >= b) and x >= 0.

    tiebreak, if given, is a second objective minimized over the optimal face;
    it must be bounded below there. start, if given, is a basis to start
    phase 2 from: one standard-form column per row (the LP's own columns,
    then one slack per inequality row, in row order), as LpSolution.basis.
    """

    objective: np.ndarray
    rows: list
    tiebreak: np.ndarray | None = None
    start: np.ndarray | None = None

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=np.float64)
        if self.objective.ndim != 1 or not np.all(np.isfinite(self.objective)):
            raise ValueError("objective must be a finite 1-D vector")
        n = self.objective.size
        self.rows = list(self.rows)
        for k, row in enumerate(self.rows):
            if row.coeffs.size != n:
                raise ValueError(f"row {k} has {row.coeffs.size} coefficients, expected {n}")
        if self.tiebreak is not None:
            self.tiebreak = np.asarray(self.tiebreak, dtype=np.float64)
            if self.tiebreak.shape != (n,) or not np.all(np.isfinite(self.tiebreak)):
                raise ValueError("tiebreak must be a finite vector, one entry per variable")

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def bounds(self) -> list:
        """[(0, inf)] per variable. Read only by perfbench/tracing.py::_lp_attrs,
        which sizes each LP's standard form from it; solve_lp ignores it."""
        return [(0.0, math.inf)] * self.n_vars


@dataclass
class LpSolution:
    status: LpStatus
    x: np.ndarray | None
    value: float
    dual: np.ndarray | None
    iterations: int = 0  # all pivots: phase 1, phase 2 and the tiebreak pass
    feasibility_residual: float = 0.0
    comp_slack_residual: float = 0.0
    dual_residual: float = 0.0  # max(0, -min reduced cost) at the optimum
    duality_gap: float = 0.0  # |c'x - b'y| on standard form at the optimum
    phase1_pivots: int = 0
    degenerate_pivots: int = 0  # pivots whose minimum ratio is <= PIVOT_TOL
    fallback_pivots: int = 0  # phase-1 pivots priced by Bland's rule after a degenerate streak
    tiebreak_pivots: int = 0  # pivots of the tiebreak pass over the optimal face
    warm: bool = False  # phase 2 started from LinearProgram.start, and phase 1 was skipped
    basis: np.ndarray | None = None  # final standard-form column per row at an optimum, -1 for a dropped row


class _Pivots(NamedTuple):
    count: int
    degenerate: int
    fallback: int
    unbounded: bool


_NO_PIVOTS = _Pivots(0, 0, 0, False)


def _pivot(T, obj, leave, enter):
    """Pivot on T[leave, enter] in place, updating the reduced-cost row obj:
    the pivot row is divided by the pivot, and every other row loses its
    entering-column multiple of it."""
    T[leave] /= T[leave, enter]
    colv = T[:, enter].copy()
    colv[leave] = 0.0
    T -= np.outer(colv, T[leave])
    obj -= obj[enter] * T[leave]


def _simplex(T, obj, basis, max_iter, phase) -> _Pivots:
    """Run primal simplex pivots in place until no reduced cost is negative.

    T is m x (N+1) with nonnegative rhs column, obj is the reduced-cost row
    (length N+1, last slot = -objective value), basis the basic column per
    row. The entering column is the lowest-index negative one (Bland); in
    PHASE_ONE, it is the most negative one, except after DEGENERATE_STREAK
    consecutive degenerate pivots, which switch to Bland's rule until the
    next nondegenerate pivot.
    """
    dantzig = phase == PHASE_ONE
    it = degenerate = fallback = streak = 0
    while True:
        negative = obj[:-1] < -PIVOT_TOL
        if not negative.any():
            return _Pivots(it, degenerate, fallback, False)
        bland = not dantzig or streak >= DEGENERATE_STREAK
        enter = int(np.argmax(negative)) if bland else int(np.argmin(obj[:-1]))
        col = T[:, enter]
        pos = col > PIVOT_TOL
        if not pos.any():
            return _Pivots(it, degenerate, fallback, True)  # unbounded direction
        ratios = np.where(pos, T[:, -1] / np.where(pos, col, 1.0), math.inf)
        best = ratios.min()
        ties = np.flatnonzero(ratios <= best + PIVOT_TOL)
        leave = int(ties[np.argmin(basis[ties])])  # smallest basic index on ties
        _pivot(T, obj, leave, enter)
        np.maximum(T[:, -1], 0.0, out=T[:, -1])  # clip rounding noise on rhs
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


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Two-phase dense simplex; deterministic given identical input.

    Phase 1 prices by Dantzig's rule with a Bland fallback after
    DEGENERATE_STREAK degenerate pivots; phase 2 prices by Bland's rule. With
    lp.start, phase 1 is skipped: one linear solve refactorizes B^-1 [A | b]
    on the start's columns and phase 2 runs from there; a start that does not
    fit (see _warm_tableau) is ignored, so the solve runs both phases as
    without it. With lp.tiebreak, a third Bland pass on the same tableau
    minimizes it over the optimal face, and the reported optimum is that
    pass's vertex. An optimum is returned only with a certificate: reduced
    costs and duality gap within CERT_TOL, for the tiebreak over the face
    too, else LpNumericalError. It reports its final basis, which a later
    solve of the same rows may take as its start.
    """
    t0 = time.perf_counter()
    n = lp.n_vars

    # Standard form: the LP's own columns, then one slack per inequality row.
    m = len(lp.rows)
    n_slack = sum(1 for r in lp.rows if r.relation != EQUAL)
    N = n + n_slack
    A = np.zeros((m, N))
    b = np.zeros(m)
    row_sign = np.ones(m)
    s = 0
    for k, row in enumerate(lp.rows):
        A[k, :n] = row.coeffs
        b[k] = row.rhs
        if row.relation == LESS:
            A[k, n + s] = 1.0
            s += 1
        elif row.relation == GREATER:
            A[k, n + s] = -1.0
            s += 1
        if b[k] < 0:
            A[k] *= -1.0
            b[k] *= -1.0
            row_sign[k] = -1.0

    c_std = np.zeros(N)
    c_std[:n] = lp.objective
    max_iter = 50_000 + 50 * (m + N)

    start = _warm_tableau(A, b, lp.start)
    warm = start is not None
    if warm:
        T, basis, keep = start
        p1 = _NO_PIVOTS
    else:
        # Phase 1 on [A | b]: row r's artificial N + r is basic, held in no column.
        T = np.column_stack([A, b])
        basis = np.arange(N, N + m)
        obj1 = -T.sum(axis=0)
        obj1[-1] = -b.sum()
        p1 = _simplex(T, obj1, basis, max_iter, PHASE_ONE)
        if -obj1[-1] > FEAS_TOL * max(1.0, abs(b).max() if m else 1.0):
            return _logged(LpSolution(LpStatus.INFEASIBLE, None, math.nan, None, **_counts(p1)), m, N, t0)

        # Drive leftover artificials out, so every basic column is below N as
        # _reduced_costs needs; drop rows that prove redundant.
        keep = np.ones(m, dtype=bool)
        for r in range(m):
            if basis[r] >= N:
                piv_cols = np.flatnonzero(np.abs(T[r, :N]) > PIVOT_TOL)
                if piv_cols.size:
                    j = int(piv_cols[0])
                    _pivot(T, obj1, r, j)
                    basis[r] = j
                else:
                    keep[r] = False
        if not np.all(keep):
            T = T[keep]
            basis = basis[keep]

    obj2 = _reduced_costs(T, basis, c_std)
    p2 = _simplex(T, obj2, basis, max_iter, PHASE_TWO)
    if p2.unbounded:
        return _logged(LpSolution(LpStatus.UNBOUNDED, None, -math.inf, None, warm=warm, **_counts(p1, p2)),
                       m, N, t0)

    p3 = _NO_PIVOTS
    if lp.tiebreak is not None:
        # Tiebreak pass: the columns phase 2 prices off zero are off the optimal face.
        face = np.abs(obj2[:N]) <= PIVOT_TOL
        t_std = np.zeros(N)
        t_std[:n] = lp.tiebreak
        obj3 = _reduced_costs(T, basis, t_std)
        obj3[:N][~face] = math.inf
        p3 = _simplex(T, obj3, basis, max_iter, TIEBREAK)
        if p3.unbounded:
            raise ValueError("tiebreak is unbounded below on the optimal face")
    counts = _counts(p1, p2, p3)

    # Refactorize: recompute primal/dual from the original standard-form data.
    A_kept, b_kept = A[keep], b[keep]
    B = A_kept[:, basis]
    try:
        xb = np.linalg.solve(B, b_kept)
        y_kept = np.linalg.solve(B.T, c_std[basis])
    except np.linalg.LinAlgError:
        xb = y_kept = None
    if xb is None or not np.all(np.isfinite(xb)):
        xb = T[:, -1].copy()  # retry with tableau values
        try:
            y_kept = np.linalg.solve(B.T, c_std[basis])
        except np.linalg.LinAlgError as exc:
            raise LpNumericalError("singular basis after refactorization retry") from exc
    x_std = np.zeros(N)
    x_std[basis] = np.maximum(xb, 0.0)

    resid = float(np.abs(A_kept @ x_std - b_kept).max()) if m else 0.0
    if resid > 1e-6:
        raise LpNumericalError(f"basic solution residual {resid:.2e} after refactorization")

    x = x_std[:n]
    primal = float(c_std @ x_std)

    y = np.zeros(m)
    y[keep] = y_kept
    y *= row_sign

    z = c_std - A_kept.T @ y_kept  # reduced costs on standard form
    comp = float(np.abs(z * x_std).max()) if N else 0.0
    feas = row_violation(lp.rows, x)  # x >= 0 holds by construction (clipped basics)
    if feas > FEAS_TOL * 10:
        raise LpNumericalError(f"primal residual {feas:.2e} exceeds tolerance")
    # Optimality certificate: dual feasibility and a zero duality gap.
    dual_resid, gap = _certify(c_std, z, primal, float(b_kept @ y_kept), "")
    if lp.tiebreak is not None:  # the same certificate for the tiebreak, over the face
        y_t = np.linalg.solve(B.T, t_std[basis])
        z_t = np.where(face, t_std - A_kept.T @ y_t, 0.0)
        _certify(t_std, z_t, float(t_std @ x_std), float(b_kept @ y_t), "tiebreak ")
    final = np.full(m, -1)
    final[keep] = basis
    sol = LpSolution(LpStatus.OPTIMAL, x, primal, y, feasibility_residual=feas, comp_slack_residual=comp,
                     dual_residual=dual_resid, duality_gap=gap, warm=warm, basis=final, **counts)
    return _logged(sol, m, N, t0)


def _warm_tableau(A, b, start):
    """(B^-1 [A | b] on the kept rows, basis, keep) from the start, a -1 dropping
    its row; None without a start or when it does not fit: a length other than
    one entry per row, an entry outside the columns, a repeated column, a
    singular or non-finite basis, a basic value below -FEAS_TOL, or a dropped
    row the kept rows do not imply (off zero by PIVOT_TOL once reduced by them)."""
    m, N = A.shape
    if start is None or m == 0:
        return None
    start = np.asarray(start)
    if start.shape != (m,) or start.dtype.kind not in "iu" or start.min() < -1 or start.max() >= N:
        return None
    keep = start >= 0
    basis = start[keep].astype(np.intp)
    if np.unique(basis).size != basis.size:
        return None
    Ab = np.column_stack([A, b])
    try:
        T = np.linalg.solve(A[keep][:, basis], Ab[keep])
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(T)) or T[:, -1].min(initial=0.0) < -FEAS_TOL:
        return None
    if np.abs(Ab[~keep] - A[~keep][:, basis] @ T).max(initial=0.0) > PIVOT_TOL:
        return None
    T[:, basis] = np.eye(basis.size)  # exact unit columns, as pivoting leaves them
    np.maximum(T[:, -1], 0.0, out=T[:, -1])
    return T, basis, keep


def _reduced_costs(T, basis, cost):
    """Reduced-cost row of cost (one entry per column but the rhs) under the tableau's basis."""
    obj = np.append(cost, 0.0)
    for r, bj in enumerate(basis):
        if obj[bj] != 0.0:
            obj -= obj[bj] * T[r]
    return obj


def _certify(cost, z, primal, dual_value, what) -> tuple:
    """(dual residual, duality gap) of an optimum, or LpNumericalError when
    either exceeds CERT_TOL scaled by the largest cost."""
    cert_tol = CERT_TOL * max(1.0, float(np.abs(cost).max(initial=0.0)))
    gap = abs(primal - dual_value)
    if not (np.all(np.isfinite(z)) and math.isfinite(gap)):
        raise LpNumericalError(f"{what}certificate is not finite at the reported optimum")
    dual_resid = max(0.0, -float(z.min(initial=0.0)))
    if dual_resid > cert_tol:
        raise LpNumericalError(f"{what}reduced cost {-dual_resid:.2e} at the reported optimum")
    if gap > cert_tol:
        raise LpNumericalError(f"{what}duality gap {gap:.2e} at the reported optimum")
    return dual_resid, gap


def _counts(p1: _Pivots, p2: _Pivots = _NO_PIVOTS, p3: _Pivots = _NO_PIVOTS) -> dict:
    """LpSolution pivot counters from the phase-1, phase-2 and tiebreak runs."""
    return {
        "iterations": p1.count + p2.count + p3.count,
        "phase1_pivots": p1.count,
        "degenerate_pivots": p1.degenerate + p2.degenerate + p3.degenerate,
        "fallback_pivots": p1.fallback,
        "tiebreak_pivots": p3.count,
    }


def _logged(sol: LpSolution, m: int, n_cols: int, t0: float) -> LpSolution:
    log.debug(
        "solve_lp rows=%d cols=%d pivots=%d status=%s warm=%d phase1=%d degenerate=%d fallback=%d tiebreak=%d ms=%.3f",
        m, n_cols, sol.iterations, sol.status.value, sol.warm,
        sol.phase1_pivots, sol.degenerate_pivots, sol.fallback_pivots, sol.tiebreak_pivots,
        1e3 * (time.perf_counter() - t0),
    )
    return sol


def row_violation(rows, x: np.ndarray) -> float:
    """Largest violation of the rows at x, 0 when every row holds."""
    resid = 0.0
    for row in rows:
        ax = float(row.coeffs @ x)
        if row.relation == LESS:
            resid = max(resid, ax - row.rhs)
        elif row.relation == GREATER:
            resid = max(resid, row.rhs - ax)
        else:
            resid = max(resid, abs(ax - row.rhs))
    return resid


def solve_bracketed(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Bisection for a sign change of f on [lo, hi]; returns the bracket midpoint.

    Accepts a degenerate bracket where one endpoint already has |f| <= tol;
    stops early at adjacent floats, which may lie more than tol apart.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"bracket [{lo}, {hi}] is not finite")
    if not (lo < hi):
        raise ValueError("need lo < hi")
    flo, fhi = f(lo), f(hi)
    if abs(flo) <= tol:
        return lo
    if abs(fhi) <= tol:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ValueError(f"f({lo})={flo} and f({hi})={fhi} have the same sign")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)
