"""Worst-case payoff computation: the inner infimum of the designer problem.

Minimizes <v, p> over an ambiguity set (or its Wasserstein neighborhood),
sweeps the neighborhood radius, and evaluates the variational objective
<v, p> + lambda * W(p, set) as a worst case of v's Lipschitz envelope.

Worst-case LPs routinely have flat optimal faces (posted-price payoffs are
piecewise constant), so each value LP carries the mean state as its
tiebreak: the solve picks the optimal prior with the smallest mean on the
optimal face of the same tableau. This canonicalization is what makes
reported worst priors deterministic and reproduces the atomic worst-case
priors of the bundled monopoly examples.
"""

from dataclasses import dataclass, field

import numpy as np

from .ambiguity import (
    InfeasibleSetError,
    WassersteinBall,
    base_rows,
    coupling,
    row_lipschitz,
)
from .measures import DiscretePrior, ValueFunction, lipschitz_envelope
from .optim import EQUAL, LESS, LinearProgram, LpNumericalError, LpRow, LpStatus, solve_lp

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
    """Minimize the objective, with the smallest mean state on the optimal face.

    weight_cols maps LP columns to grid indices: the identity for LPs over the
    prior, the coupling's per-column source state for ball LPs (many-to-one).
    One LP: the mean state of each column is its tiebreak. Returns (solution,
    weights), with weights None when the LP is not optimal. Recovered weights
    are cleared of LP feasibility noise (clipped at zero, renormalized).
    """
    sol = solve_lp(LinearProgram(objective, rows, tiebreak=grid.points[weight_cols]))
    if sol.status is not LpStatus.OPTIMAL:
        return sol, None
    weights = np.zeros(grid.n)
    np.add.at(weights, weight_cols, sol.x)
    np.maximum(weights, 0.0, out=weights)
    total = float(weights.sum())
    if abs(total - 1.0) > 1e-6:
        raise LpNumericalError(f"optimal prior mass {total} far from 1")
    weights /= total
    return sol, weights


def _simplex_row(n):
    return LpRow(np.ones(n), EQUAL, 1.0)


def worst_case(v: ValueFunction, amb) -> GuaranteeReport:
    """Payoff guarantee inf <v, p> over the set, with the canonical minimizer."""
    if isinstance(amb, WassersteinBall):
        return worst_case_ball(v, amb.base, amb.radius)
    grid = v.grid
    rows = base_rows(amb, grid)
    lp_rows = [_simplex_row(grid.n)] + rows
    sol, weights = _canonical_solve(v.values, lp_rows, grid, np.arange(grid.n))
    if weights is None:
        return GuaranteeReport(float("nan"), None, sol.status, [], sol.iterations)
    prior = DiscretePrior(grid, weights)
    active = _active_indices(rows, prior.weights)
    lips = row_lipschitz(amb, grid)
    sens = float(sum(l * abs(d) for l, d in zip(lips, sol.dual[1:])))
    return GuaranteeReport(sol.value, prior, LpStatus.OPTIMAL, active, sol.iterations, sens)


def _active_indices(rows, weights):
    act = []
    for k, row in enumerate(rows):
        ax = float(row.coeffs @ weights)
        if row.relation == EQUAL or abs(ax - row.rhs) <= ACTIVE_TOL:
            act.append(k)
    return act


def worst_case_ball(v: ValueFunction, base, r: float) -> GuaranteeReport:
    """inf <v, p> over the Wasserstein r-neighborhood of the base set.

    One coupling LP from every grid state onto the base set, under the
    transport budget cost <= r. active_constraints is [0] when the budget
    binds at the worst prior's coupling, [] otherwise.
    """
    if isinstance(base, WassersteinBall):
        raise ValueError("ball base must not itself be a ball")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if r == 0.0:
        return worst_case(v, base)
    grid = v.grid
    c = coupling(base, grid, np.arange(grid.n))
    budget = LpRow(c.cost, LESS, r)
    rows = [_simplex_row(c.cost.size)] + c.rows + [budget]
    sol, weights = _canonical_solve(v.values[c.source], rows, grid, c.source)
    if weights is None:
        return GuaranteeReport(float("nan"), None, sol.status, [], sol.iterations)
    prior = DiscretePrior(grid, weights)
    sens = float(abs(sol.dual[-1]))  # transport-budget coefficients have unit slope
    lips = row_lipschitz(base, grid)
    sens += float(sum(lips[k] * abs(d) for k, d in zip(c.kept, sol.dual[1:])))
    active = _active_indices([budget], sol.x)
    return GuaranteeReport(sol.value, prior, LpStatus.OPTIMAL, active, sol.iterations, sens)


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
            raise LpNumericalError(f"guarantee increased with the radius: V({r1})={v1}, V({r2})={v2}")
        bound = (2.0 * v.sup_norm / r1) * (r2 - r1) + 1e-7
        if abs(v2 - v1) > bound:
            raise LpNumericalError(f"equicontinuity bound violated on [{r1}, {r2}]")
    return out


def variational_value(v: ValueFunction, amb, lam: float) -> float:
    """inf over all priors of <v, p> + lam * W(p, set).

    By Kantorovich duality this is the worst case over the set of the
    lam-Lipschitz lower envelope of v, so lam = 0 collapses to the
    unconstrained minimum of v.
    """
    if isinstance(amb, WassersteinBall):
        raise ValueError("variational value takes the base set, not a ball")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    rep = worst_case(lipschitz_envelope(v, lam), amb)
    if rep.status is not LpStatus.OPTIMAL:
        raise InfeasibleSetError(f"variational worst case not optimal: {rep.status.value}")
    return rep.value
