"""Independent oracles: brute-force couplings, vertex enumeration, scan roots,
and the reference distances and regret form that tests compare against.

These deliberately avoid the code paths they check. The transport oracles are
plain coupling LPs over the full gamma matrix; the LP oracle enumerates active
sets; the root oracle scans a fine grid and interpolates one sign change.
"""

import itertools

import numpy as np

from robustmd.measures import DiscretePrior, _require_same_grid, wasserstein1
from robustmd.mechanisms import PriceCdf
from robustmd.optim import EQUAL, GREATER, LESS, LinearProgram, LpRow, LpStatus, solve_lp


def tv_distance(pi: DiscretePrior, pi2: DiscretePrior) -> float:
    """Total variation distance 0.5 * sum |p_i - p'_i|, in [0, 1]."""
    _require_same_grid(pi, pi2)
    return 0.5 * float(np.abs(pi.weights - pi2.weights).sum())


def hausdorff_distance(a, b) -> float:
    """Hausdorff distance between finite prior lists under wasserstein1."""
    a, b = list(a), list(b)
    if not a or not b:
        raise ValueError("hausdorff_distance needs nonempty lists")
    d = np.array([[wasserstein1(p, q) for q in b] for p in a])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def regret_integral_form(q: PriceCdf) -> np.ndarray:
    """Regret as theta (1 - q(theta)) + integral_0^theta q, for cross-checking."""
    pts = q.grid.points
    integ = np.concatenate([[0.0], np.cumsum(q.q[:-1] * np.diff(pts))])
    return pts * (1.0 - q.q) + integ


def transport_lp(p, q, points) -> float:
    """Min-cost coupling between weight vectors p and q on shared points."""
    n = len(points)
    cost = np.abs(np.subtract.outer(points, points)).ravel()
    rows = []
    for i in range(n):
        c = np.zeros(n * n)
        c[i * n : (i + 1) * n] = 1.0
        rows.append(LpRow(c, EQUAL, float(p[i])))
    for j in range(n):
        c = np.zeros(n * n)
        c[j::n] = 1.0
        rows.append(LpRow(c, EQUAL, float(q[j])))
    sol = solve_lp(LinearProgram(cost, rows))
    assert sol.status is LpStatus.OPTIMAL
    return sol.value


def coupling_onto_rows(points, rows, *, prior=None, v=None, radius=None, lam=0.0) -> float:
    """Brute-force transport onto the set {q >= 0 : rows hold at q}.

    gamma[i, j] >= 0 moves mass from state i to state j over all n*n pairs,
    and the rows apply to the column sums q. With a prior, the row sums are
    pinned to it and the value is the least transport cost (the distance to
    the set). Otherwise the row sums are any prior p, and the value is
    min <v, p> + lam * cost, subject to cost <= radius when one is given.
    """
    n = len(points)
    cost = np.abs(np.subtract.outer(points, points)).ravel()
    lp_rows = [LpRow(np.tile(np.asarray(r.coeffs, float), n), r.relation, float(r.rhs)) for r in rows]
    if prior is None:
        objective = np.repeat(np.asarray(v, float), n) + lam * cost
        lp_rows.append(LpRow(np.ones(n * n), EQUAL, 1.0))
    else:
        objective = cost
        for i in range(n):
            c = np.zeros(n * n)
            c[i * n : (i + 1) * n] = 1.0
            lp_rows.append(LpRow(c, EQUAL, float(prior[i])))
    if radius is not None:
        lp_rows.append(LpRow(cost, LESS, radius))
    sol = solve_lp(LinearProgram(objective, lp_rows))
    assert sol.status is LpStatus.OPTIMAL
    return sol.value


def enumerate_vertices_minimize(c, rows, n):
    """Brute-force LP oracle: min c'x over {rows, x >= 0} by active-set enumeration.

    Returns (status, value): status "optimal" or "infeasible". The caller must
    supply rows that bound the feasible set.
    """
    c = np.asarray(c, dtype=float)
    systems = [(np.asarray(r.coeffs, float), r.relation, float(r.rhs)) for r in rows]
    eq_idx = [k for k, (_, rel, _) in enumerate(systems) if rel == EQUAL]
    ineq_idx = [k for k in range(len(systems)) if k not in eq_idx]
    bound_rows = [(np.eye(n)[j], "bound", 0.0) for j in range(n)]
    candidates = [systems[k] for k in ineq_idx] + bound_rows

    best = None
    need = n - len(eq_idx)
    if need < 0:
        return "infeasible", None
    for combo in itertools.combinations(range(len(candidates)), need):
        active = [systems[k] for k in eq_idx] + [candidates[k] for k in combo]
        A = np.array([a for a, _, _ in active])
        b = np.array([r for _, _, r in active])
        if A.shape[0] != n:
            continue
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if np.any(x < -1e-9):
            continue
        feasible = True
        for a, rel, r in systems:
            ax = float(a @ x)
            if rel == LESS and ax > r + 1e-9:
                feasible = False
            elif rel == GREATER and ax < r - 1e-9:
                feasible = False
            elif rel == EQUAL and abs(ax - r) > 1e-9:
                feasible = False
            if not feasible:
                break
        if not feasible:
            continue
        val = float(c @ x)
        if best is None or val < best:
            best = val
    if best is None:
        return "infeasible", None
    return "optimal", best


def scan_root(f, lo, hi, step) -> float:
    """First sign change of f on a fine scan grid, linearly interpolated."""
    xs = np.arange(lo, hi + step, step)
    vals = np.array([f(x) for x in xs])
    sign = np.sign(vals)
    idx = np.flatnonzero(sign[:-1] * sign[1:] <= 0)
    assert idx.size > 0, "scan found no sign change"
    i = int(idx[0])
    x0, x1, f0, f1 = xs[i], xs[i + 1], vals[i], vals[i + 1]
    if f0 == f1:
        return float(x0)
    return float(x0 - f0 * (x1 - x0) / (f1 - f0))
