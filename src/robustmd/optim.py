"""Self-contained numerical kernels: a dense two-phase simplex and a bisection solver.

The simplex is deliberately a dense tableau with Bland's anti-cycling rule:
instances are desk-scale and determinism matters more than speed. Feasibility
tolerance 1e-8, pivot tolerance 1e-10 (problem data is O(1) throughout).

A solve can warm-start from the optimal basis of an earlier LP whose rows are
a prefix of its own: the basis is extended with the slack of each appended
inequality row, the tableau is refactorized in one linear solve, and phase 1
is skipped. A start that does not fit (wrong shape, an appended equality row,
a row the earlier solve dropped, a singular basis, or a basic solution that
violates an appended row) falls back to the cold two-phase solve.

Each solve owns its tableau; there is no shared state, so distinct calls may
run concurrently.
"""

import logging
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

log = logging.getLogger(__name__)

FEAS_TOL = 1e-8
PIVOT_TOL = 1e-10

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
    """min c'x subject to rows (a'x <= / = / >= b) and box bounds, lo >= 0 default."""

    objective: np.ndarray
    rows: list
    bounds: list | None = None  # per-variable (lo, hi); None -> (0, inf)

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=np.float64)
        if self.objective.ndim != 1 or not np.all(np.isfinite(self.objective)):
            raise ValueError("objective must be a finite 1-D vector")
        n = self.objective.size
        self.rows = [r if isinstance(r, LpRow) else LpRow(*r) for r in self.rows]
        for k, row in enumerate(self.rows):
            if row.coeffs.size != n:
                raise ValueError(f"row {k} has {row.coeffs.size} coefficients, expected {n}")
        if self.bounds is None:
            self.bounds = [(0.0, math.inf)] * n
        if len(self.bounds) != n:
            raise ValueError("bounds length must match variable count")
        for lo, hi in self.bounds:
            if lo > hi:
                raise ValueError(f"empty bound interval [{lo}, {hi}]")

    @property
    def n_vars(self) -> int:
        return self.objective.size


@dataclass
class LpSolution:
    status: LpStatus
    x: np.ndarray | None
    value: float
    dual: np.ndarray | None
    iterations: int = 0
    feasibility_residual: float = 0.0
    comp_slack_residual: float = 0.0
    # basic standard-form column per standard-form row (the LP's rows, then one
    # row per finite upper bound); -1 marks a row phase 1 dropped as redundant
    basis: np.ndarray | None = None


def _bland_simplex(T, obj, basis, n_allowed, max_iter):
    """Run Bland-rule pivots in place; returns iteration count (-1: unbounded).

    T is m x (N+1) with nonnegative rhs column, obj is the reduced-cost row
    (length N+1, last slot = -objective value), basis the basic column per
    row; only columns below n_allowed may enter.
    """
    it = 0
    while True:
        negative = obj[:n_allowed] < -PIVOT_TOL
        if not negative.any():
            return it
        enter = int(np.argmax(negative))  # lowest-index entering column (Bland)
        col = T[:, enter]
        pos = col > PIVOT_TOL
        if not pos.any():
            return -1  # unbounded direction
        ratios = np.where(pos, T[:, -1] / np.where(pos, col, 1.0), math.inf)
        best = ratios.min()
        ties = np.flatnonzero(ratios <= best + PIVOT_TOL)
        leave = int(ties[np.argmin(basis[ties])])  # smallest basic index on ties
        piv = T[leave, enter]
        T[leave] /= piv
        colv = T[:, enter].copy()
        colv[leave] = 0.0
        T -= np.outer(colv, T[leave])
        obj -= obj[enter] * T[leave]
        np.maximum(T[:, -1], 0.0, out=T[:, -1])  # clip rounding noise on rhs
        basis[leave] = enter
        it += 1
        if it > max_iter:
            raise LpNumericalError(f"simplex exceeded {max_iter} iterations")


def _warm_tableau(lp, A, b, start, n_struct, n_upper):
    """Tableau B^-1 [A | b] and basis from an earlier LP's optimal basis, or None.

    The earlier LP's rows are lp.rows[:p] followed by its n_upper bound rows,
    so its standard-form rows and slack columns past the prefix shift by the
    appended rows, and each appended row enters with its own slack basic.
    """
    start = np.asarray(start)
    p = start.size - n_upper
    appended = lp.rows[p:] if 0 <= p <= len(lp.rows) else None
    if appended is None or any(row.relation == EQUAL for row in appended) or np.any(start < 0):
        return None
    n_prefix_slack = n_struct + sum(1 for row in lp.rows[:p] if row.relation != EQUAL)
    shifted = np.where(start < n_prefix_slack, start, start + len(appended))
    new_slacks = n_prefix_slack + np.arange(len(appended))
    basis = np.concatenate([shifted[:p], new_slacks, shifted[p:]]).astype(np.intp)
    if np.any(basis >= A.shape[1]) or np.unique(basis).size != basis.size:
        return None
    try:
        T = np.linalg.solve(A[:, basis], np.column_stack([A, b]))
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(T)) or np.any(T[:, -1] < -FEAS_TOL):
        return None
    T[:, basis] = np.eye(basis.size)
    np.maximum(T[:, -1], 0.0, out=T[:, -1])
    return T, basis


def solve_lp(lp: LinearProgram, start=None) -> LpSolution:
    """Two-phase dense simplex with Bland's rule; deterministic given identical input.

    start is an earlier solution's basis (LpSolution.basis) for an LP whose
    rows are a prefix of lp.rows, with the same variables and bounds; when it
    fits, the solve goes straight to phase 2 from it.
    """
    n = lp.n_vars
    c = lp.objective

    # Standard form: shift/split bounded variables to y >= 0, finite uppers become rows.
    col_var, col_sign, col_shift = [], [], []  # original var, +-1, additive shift
    extra_rows = []
    for j, (lo, hi) in enumerate(lp.bounds):
        if math.isfinite(lo):
            col_var.append(j), col_sign.append(1.0), col_shift.append(lo)
            if math.isfinite(hi):
                e = np.zeros(n)
                e[j] = 1.0
                extra_rows.append(LpRow(e, LESS, hi))
        elif math.isfinite(hi):
            col_var.append(j), col_sign.append(-1.0), col_shift.append(hi)
        else:
            col_var.extend([j, j]), col_sign.extend([1.0, -1.0]), col_shift.extend([0.0, 0.0])
    col_var = np.array(col_var)
    col_sign = np.array(col_sign)
    col_shift = np.array(col_shift, dtype=np.float64)

    all_rows = list(lp.rows) + extra_rows
    m = len(all_rows)
    n_struct = col_var.size
    # x = sign * y + shift per original variable (split vars carry shift 0)
    x_shift = np.zeros(n)
    for k in range(n_struct):
        x_shift[col_var[k]] = col_shift[k]

    n_slack = sum(1 for r in all_rows if r.relation != EQUAL)
    N = n_struct + n_slack
    A = np.zeros((m, N))
    b = np.zeros(m)
    row_sign = np.ones(m)
    s = 0
    for k, row in enumerate(all_rows):
        A[k, :n_struct] = row.coeffs[col_var] * col_sign
        b[k] = row.rhs - float(row.coeffs @ x_shift)
        if row.relation == LESS:
            A[k, n_struct + s] = 1.0
            s += 1
        elif row.relation == GREATER:
            A[k, n_struct + s] = -1.0
            s += 1
        if b[k] < 0:
            A[k] *= -1.0
            b[k] *= -1.0
            row_sign[k] = -1.0

    c_std = np.zeros(N)
    c_std[:n_struct] = c[col_var] * col_sign
    value_shift = float(c @ x_shift)
    max_iter = 50_000 + 50 * (m + N)

    warm = None if start is None else _warm_tableau(lp, A, b, start, n_struct, len(extra_rows))
    if warm is not None:
        T, basis = warm
        row_kept = np.arange(m)
        iterations = 0
        how = "warm"
    else:
        how = "cold" if start is None else "fallback"
        # Phase 1: artificial basis on every row.
        T = np.zeros((m, N + m + 1))
        T[:, :N] = A
        T[:, N : N + m] = np.eye(m)
        T[:, -1] = b
        basis = np.arange(N, N + m)
        obj1 = np.zeros(N + m + 1)
        obj1[: N + m] = -T[:, : N + m].sum(axis=0)
        obj1[N : N + m] = 0.0
        obj1[-1] = -b.sum()
        it1 = _bland_simplex(T, obj1, basis, N, max_iter)
        iterations = max(it1, 0)
        if -obj1[-1] > FEAS_TOL * max(1.0, abs(b).max() if m else 1.0):
            return _logged(LpSolution(LpStatus.INFEASIBLE, None, math.nan, None, iterations), m, N, how)

        # Drive leftover artificials out; drop rows that prove redundant.
        keep = np.ones(m, dtype=bool)
        for r in range(m):
            if basis[r] >= N:
                piv_cols = np.flatnonzero(np.abs(T[r, :N]) > PIVOT_TOL)
                if piv_cols.size:
                    j = int(piv_cols[0])
                    piv = T[r, j]
                    T[r] /= piv
                    colv = T[:, j].copy()
                    colv[r] = 0.0
                    T -= np.outer(colv, T[r])
                    basis[r] = j
                else:
                    keep[r] = False
        if not np.all(keep):
            T = T[keep]
            basis = basis[keep]
        row_kept = np.flatnonzero(keep)

    # Phase 2 objective row: reduced costs of c_std under the current basis.
    obj2 = np.zeros(T.shape[1])
    obj2[:N] = c_std
    for r, bj in enumerate(basis):
        if obj2[bj] != 0.0:
            obj2 -= obj2[bj] * T[r]
    it2 = _bland_simplex(T, obj2, basis, N, max_iter)
    iterations += abs(it2)
    if it2 < 0:
        return _logged(LpSolution(LpStatus.UNBOUNDED, None, -math.inf, None, iterations), m, N, how)

    # Refactorize: recompute primal/dual from the original standard-form data.
    A_kept, b_kept = A[row_kept], b[row_kept]
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

    x = x_shift.copy()
    np.add.at(x, col_var, col_sign * x_std[:n_struct])
    value = float(c_std @ x_std) + value_shift

    y = np.zeros(m)
    y[row_kept] = y_kept
    y *= row_sign
    dual = y[: len(lp.rows)]

    z = c_std - A_kept.T @ y_kept  # reduced costs on standard form
    comp = float(np.abs(z * x_std).max()) if N else 0.0
    feas = _primal_residual(lp, x)
    if feas > FEAS_TOL * 10:
        raise LpNumericalError(f"primal residual {feas:.2e} exceeds tolerance")
    full_basis = np.full(m, -1, dtype=np.intp)
    full_basis[row_kept] = basis
    sol = LpSolution(LpStatus.OPTIMAL, x, value, dual, iterations, feas, comp, full_basis)
    return _logged(sol, m, N, how)


def _logged(sol: LpSolution, m: int, n_cols: int, how: str) -> LpSolution:
    log.debug(
        "solve_lp rows=%d cols=%d start=%s pivots=%d status=%s",
        m, n_cols, how, sol.iterations, sol.status.value,
    )
    return sol


def _primal_residual(lp: LinearProgram, x: np.ndarray) -> float:
    resid = 0.0
    for row in lp.rows:
        ax = float(row.coeffs @ x)
        if row.relation == LESS:
            resid = max(resid, ax - row.rhs)
        elif row.relation == GREATER:
            resid = max(resid, row.rhs - ax)
        else:
            resid = max(resid, abs(ax - row.rhs))
    for j, (lo, hi) in enumerate(lp.bounds):
        resid = max(resid, lo - x[j], x[j] - hi)
    return float(max(resid, 0.0))


def solve_bracketed(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Bisection for a sign change of f on [lo, hi]; returns the bracket midpoint.

    Accepts a degenerate bracket where one endpoint already has |f| <= tol.
    """
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
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)
