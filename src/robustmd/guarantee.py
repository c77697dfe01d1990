"""Worst-case payoff computation: the inner infimum of the designer problem.

Minimizes <v, p> over an ambiguity set (or its Wasserstein neighborhood),
sweeps the neighborhood radius, and evaluates the variational objective
<v, p> + lambda * W(p, set).

Worst-case LPs routinely have flat optimal faces (posted-price payoffs are
piecewise constant), so after the value is found a second LP picks the
optimal prior with the smallest mean state. This canonicalization is what
makes reported worst priors deterministic and reproduces the atomic
worst-case priors of the bundled monopoly examples.
"""

from dataclasses import dataclass, field

import numpy as np

from .ambiguity import (
    InfeasibleSetError,
    Singleton,
    SupportInterval,
    WassersteinBall,
    _grid_interval_distances,
    base_rows,
    row_lipschitz,
)
from .measures import DiscretePrior, ValueFunction
from .optim import EQUAL, LESS, LinearProgram, LpRow, LpStatus, solve_lp

VALUE_PIN_TOL = 1e-9
ACTIVE_TOL = 1e-8


@dataclass
class GuaranteeReport:
    value: float
    worst_prior: DiscretePrior | None
    status: LpStatus
    active_constraints: list = field(default_factory=list)
    iterations: int = 0
    # shadow-price scale of nature's repairable (transport / continuous-moment)
    # constraints: a one-cell defect exploitation is worth at most
    # defect_sensitivity * spacing, which robustness verdicts treat as noise
    defect_sensitivity: float = 0.0


def _canonical_solve(objective, rows, grid, weight_cols):
    """Minimize the objective, then re-minimize the mean state on the optimal face.

    weight_cols maps LP columns to grid indices (possibly many-to-one for the
    coupling formulations); returns (value, weights, iterations) or raises on
    non-optimal status via the caller. Recovered weights are cleared of LP
    feasibility noise (clipped at zero, renormalized).
    """
    sol = solve_lp(LinearProgram(objective, rows))
    if sol.status is not LpStatus.OPTIMAL:
        return sol, None, sol.iterations
    mean_obj = grid.points[weight_cols]
    pin = rows + [LpRow(objective, LESS, sol.value + VALUE_PIN_TOL)]
    sol2 = solve_lp(LinearProgram(mean_obj, pin))
    iters = sol.iterations + sol2.iterations
    x = sol2.x if sol2.status is LpStatus.OPTIMAL else sol.x
    weights = np.zeros(grid.n)
    np.add.at(weights, weight_cols, x)
    np.maximum(weights, 0.0, out=weights)
    total = float(weights.sum())
    if abs(total - 1.0) > 1e-6:
        raise AssertionError(f"optimal prior mass {total} far from 1; numerical breakdown")
    weights /= total
    return sol, weights, iters


def _simplex_row(n):
    return LpRow(np.ones(n), EQUAL, 1.0)


def worst_case(v: ValueFunction, amb) -> GuaranteeReport:
    """Payoff guarantee inf <v, p> over the set, with the canonical minimizer."""
    if isinstance(amb, WassersteinBall):
        return worst_case_ball(v, amb.base, amb.radius)
    grid = v.grid
    rows = base_rows(amb, grid)
    lp_rows = [_simplex_row(grid.n)] + rows
    sol, weights, iters = _canonical_solve(v.values, lp_rows, grid, np.arange(grid.n))
    if weights is None:
        return GuaranteeReport(float("nan"), None, sol.status, [], iters)
    prior = DiscretePrior(grid, weights)
    active = _active_indices(rows, prior.weights)
    lips = row_lipschitz(amb, grid)
    sens = float(sum(l * abs(d) for l, d in zip(lips, sol.dual[1:])))
    return GuaranteeReport(sol.value, prior, LpStatus.OPTIMAL, active, iters, sens)


def _active_indices(rows, weights):
    act = []
    for k, row in enumerate(rows):
        ax = float(row.coeffs @ weights)
        if row.relation == EQUAL or abs(ax - row.rhs) <= ACTIVE_TOL:
            act.append(k)
    return act


def _coupling_columns(v: ValueFunction, base):
    """Column structure of the reduced coupling LP for a ball around base.

    Variables are transport weights gamma[i, j] from adversary state i to a
    base-measure state j; the adversary prior is recovered from row sums.
    Target columns that the base forces to zero mass are dropped outright
    (outside a support interval, off the support of a singleton).
    """
    grid = v.grid
    n = grid.n
    pts = grid.points
    pin_rows = []
    if isinstance(base, SupportInterval):
        dist = _grid_interval_distances(grid, base.a, base.b)
        targets = np.flatnonzero(dist == 0.0)
        extra_rows = []
    elif isinstance(base, Singleton):
        targets = base.prior.support_indices(atol=0.0)
        extra_rows = []
        for k, j in enumerate(targets):  # pin surviving column sums
            c = np.zeros(n * targets.size)
            c[k :: targets.size] = 1.0
            pin_rows.append(LpRow(c, EQUAL, float(base.prior.weights[j])))
    else:
        targets = np.arange(n)
        extra_rows = base_rows(base, grid)
    nt = targets.size
    cost = np.abs(pts[:, None] - pts[None, targets]).ravel()
    obj = np.repeat(v.values, nt)
    source = np.repeat(np.arange(n), nt)
    rows = [LpRow(np.ones(n * nt), EQUAL, 1.0)] + pin_rows
    for br in extra_rows:
        rows.append(LpRow(np.tile(br.coeffs[targets], n), br.relation, br.rhs))
    return obj, cost, source, rows


def worst_case_ball(v: ValueFunction, base, r: float, method: str = "auto") -> GuaranteeReport:
    """inf <v, p> over the Wasserstein r-neighborhood of the base set.

    method "auto" uses the closed-form linear transport-budget row for
    support-interval bases and the coupling LP otherwise; "coupling" forces
    the coupling LP (and cross-checks the closed form when both apply).
    """
    if isinstance(base, WassersteinBall):
        raise ValueError("ball base must not itself be a ball")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if r == 0.0:
        return worst_case(v, base)
    if method not in ("auto", "closed", "coupling"):
        raise ValueError(f"unknown method {method!r}")
    grid = v.grid
    closed_ok = isinstance(base, SupportInterval)
    if method == "closed" and not closed_ok:
        raise ValueError("closed form needs a support-interval base")

    if closed_ok and method in ("auto", "closed"):
        rep = _ball_closed(v, base, r)
    else:
        rep = _ball_coupling(v, base, r)
        if closed_ok:
            check = _ball_closed(v, base, r)
            if abs(check.value - rep.value) > 1e-6:
                raise AssertionError(
                    f"coupling LP {rep.value} disagrees with closed form {check.value}"
                )
    return rep


def _ball_closed(v: ValueFunction, base: SupportInterval, r: float) -> GuaranteeReport:
    grid = v.grid
    dist = _grid_interval_distances(grid, base.a, base.b)
    rows = [_simplex_row(grid.n), LpRow(dist, LESS, r)]
    sol, weights, iters = _canonical_solve(v.values, rows, grid, np.arange(grid.n))
    if weights is None:
        return GuaranteeReport(float("nan"), None, sol.status, [], iters)
    prior = DiscretePrior(grid, weights)
    sens = float(abs(sol.dual[1]))  # transport-budget coefficients have unit slope
    return GuaranteeReport(
        sol.value, prior, LpStatus.OPTIMAL, _active_indices(rows[1:], weights), iters, sens
    )


def _ball_coupling(v: ValueFunction, base, r: float) -> GuaranteeReport:
    grid = v.grid
    obj, cost, source, rows = _coupling_columns(v, base)
    rows = rows + [LpRow(cost, LESS, r)]
    sol, weights, iters = _canonical_solve(obj, rows, grid, source)
    if weights is None:
        return GuaranteeReport(float("nan"), None, sol.status, [], iters)
    prior = DiscretePrior(grid, weights)
    sens = float(abs(sol.dual[-1]))
    if not isinstance(base, (SupportInterval, Singleton)):
        lips = row_lipschitz(base, grid)
        sens += float(sum(l * abs(d) for l, d in zip(lips, sol.dual[1 : 1 + len(lips)])))
    return GuaranteeReport(sol.value, prior, LpStatus.OPTIMAL, [], iters, sens)


def radius_sweep(v: ValueFunction, base, radii) -> list:
    """Guarantee over the ball per radius, with the continuity checks applied.

    Verifies that the curve is nonincreasing and satisfies the equicontinuity
    bound |V(r') - V(r)| <= (2 sup|v| / r) |r' - r| on consecutive pairs; both
    hold exactly on the grid, so a violation beyond LP tolerance is an error.
    """
    radii = list(radii)
    if any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    out = []
    for r in radii:
        rep = worst_case_ball(v, base, r)
        if rep.status is not LpStatus.OPTIMAL:
            raise InfeasibleSetError(f"ball worst case failed at radius {r}: {rep.status.value}")
        out.append((r, rep.value))
    for (r1, v1), (r2, v2) in zip(out, out[1:]):
        if v2 > v1 + 1e-7:
            raise AssertionError(f"guarantee increased with the radius: V({r1})={v1}, V({r2})={v2}")
        bound = (2.0 * v.sup_norm / r1) * (r2 - r1) + 1e-7
        if abs(v2 - v1) > bound:
            raise AssertionError(f"equicontinuity bound violated on [{r1}, {r2}]")
    return out


def variational_value(v: ValueFunction, amb, lam: float) -> float:
    """inf over all priors of <v, p> + lam * W(p, set), as a single LP.

    The transport budget t is a free nonnegative variable priced at lam, so
    lam = 0 collapses to the unconstrained minimum of v.
    """
    if isinstance(amb, WassersteinBall):
        raise ValueError("variational value takes the base set, not a ball")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    obj, cost, source, rows = _coupling_columns(v, amb)
    obj_t = np.append(obj, lam)
    rows_t = [LpRow(np.append(row.coeffs, 0.0), row.relation, row.rhs) for row in rows]
    rows_t.append(LpRow(np.append(cost, -1.0), LESS, 0.0))
    sol = solve_lp(LinearProgram(obj_t, rows_t))
    if sol.status is not LpStatus.OPTIMAL:
        raise InfeasibleSetError(f"variational LP not optimal: {sol.status.value}")
    return sol.value
