"""Ambiguity sets as linear constraint systems over prior weights.

Every bundled set form (moment rows, support intervals, quantile pins,
half-spaces, singletons, Wasserstein neighborhoods of these) is linear in the
weight vector, so membership, transport distance, and worst-case expectations
all reduce to LPs. Sets are closed by construction: "closure of the set" in
robustness definitions is the set itself.

Richness checks performed here are witnesses or refutations at grid
resolution, not proofs about the continuum sets.
"""

import math
from dataclasses import dataclass

import numpy as np

from .measures import DiscretePrior, Grid, GridMismatchError, ValueFunction, wasserstein1
from .optim import EQUAL, GREATER, LESS, LinearProgram, LpNumericalError, LpRow, LpStatus, row_violation, solve_lp

MEMBERSHIP_TOL = 1e-8


class InfeasibleSetError(ValueError):
    """The constraint system admits no prior on the grid."""


@dataclass(frozen=True)
class MomentRow:
    """Restriction lo <= <g, pi> <= hi on one moment of the prior."""

    g: ValueFunction
    lo: float = -math.inf
    hi: float = math.inf

    def __post_init__(self):
        for name in ("lo", "hi"):
            if math.isnan(getattr(self, name)):
                raise ValueError(f"moment row bound {name} is NaN")
        if self.lo > self.hi:
            raise ValueError(f"empty moment interval [{self.lo}, {self.hi}]")
        if math.isinf(self.lo) and math.isinf(self.hi):
            raise ValueError("moment row with no finite bound")


@dataclass(frozen=True)
class LinearSet:
    rows: tuple
    continuous_moments: bool = False

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if not self.rows:
            raise ValueError("LinearSet needs at least one moment row")


@dataclass(frozen=True)
class SupportInterval:
    """Priors concentrating on [a, b] intersected with the grid."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a <= self.b):
            raise ValueError(f"need a <= b, got [{self.a}, {self.b}]")


@dataclass(frozen=True)
class QuantileSet:
    """Priors pinning x_j as an alpha_j-quantile, x and alpha strictly increasing."""

    pairs: tuple

    def __post_init__(self):
        pairs = tuple((float(x), float(a)) for x, a in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        if not pairs:
            raise ValueError("QuantileSet needs at least one (x, alpha) pair")
        for k, (x, a) in enumerate(pairs):
            for name, val in (("position x", x), ("level alpha", a)):
                if not math.isfinite(val):
                    raise ValueError(f"quantile pair {k}: {name} is {val}, not finite")
        xs = [x for x, _ in pairs]
        als = [a for _, a in pairs]
        if any(x2 <= x1 for x1, x2 in zip(xs, xs[1:])):
            raise ValueError("quantile positions must be strictly increasing")
        if any(a2 <= a1 for a1, a2 in zip(als, als[1:])):
            raise ValueError("quantile levels must be strictly increasing")
        if als[0] < 0.0 or als[-1] > 1.0:
            raise ValueError("quantile levels must lie in [0, 1]")


@dataclass(frozen=True)
class HalfSpace:
    """Priors with <v, pi> >= level."""

    v: ValueFunction
    level: float

    def __post_init__(self):
        if not math.isfinite(self.level):
            raise ValueError(f"half-space level {self.level} is not finite")


@dataclass(frozen=True)
class Singleton:
    prior: DiscretePrior


@dataclass(frozen=True)
class WassersteinBall:
    """Transport-distance neighborhood of a non-ball base set."""

    base: object
    radius: float

    def __post_init__(self):
        if isinstance(self.base, WassersteinBall):
            raise ValueError("ball base must not itself be a ball")
        if not (0.0 < self.radius < math.inf):
            raise ValueError(f"ball radius must be positive and finite, got {self.radius}")


def _check_quantiles_against_grid(qset: QuantileSet, grid: Grid):
    lo, hi = grid.points[0], grid.points[-1]
    for x, _ in qset.pairs:
        if not (lo < x < hi):
            raise ValueError(f"quantile position {x} not interior to the grid [{lo}, {hi}]")


def base_rows(amb, grid: Grid) -> list:
    """The one lowering of a (non-ball) set to linear rows over the weight vector.

    A prior lies in the set iff it satisfies the rows. Every consumer holds the
    prior's unit mass, so a singleton pins only its atoms: zero mass off them
    follows.
    """
    rows = []
    if isinstance(amb, LinearSet):
        for mr in amb.rows:
            if not mr.g.grid.matches(grid):
                raise GridMismatchError("moment row lives on a different grid")
            if mr.lo == mr.hi:
                rows.append(LpRow(mr.g.values, EQUAL, mr.lo))
            else:
                if math.isfinite(mr.lo):
                    rows.append(LpRow(mr.g.values, GREATER, mr.lo))
                if math.isfinite(mr.hi):
                    rows.append(LpRow(mr.g.values, LESS, mr.hi))
    elif isinstance(amb, SupportInterval):
        outside = _grid_interval_distances(grid, amb.a, amb.b) > 0.0
        rows.append(LpRow(outside.astype(float), EQUAL, 0.0))
    elif isinstance(amb, QuantileSet):
        _check_quantiles_against_grid(amb, grid)
        for x, alpha in amb.pairs:
            rows.append(LpRow(grid.at_most(x).astype(float), GREATER, alpha))
            rows.append(LpRow(grid.at_least(x).astype(float), GREATER, 1.0 - alpha))
    elif isinstance(amb, HalfSpace):
        if not amb.v.grid.matches(grid):
            raise GridMismatchError("half-space payoff lives on a different grid")
        rows.append(LpRow(amb.v.values, GREATER, amb.level))
    elif isinstance(amb, Singleton):
        if not amb.prior.grid.matches(grid):
            raise GridMismatchError("singleton prior lives on a different grid")
        for i in amb.prior.support_indices(atol=0.0):
            rows.append(LpRow(np.arange(grid.n) == i, EQUAL, amb.prior.weights[i]))
    else:
        raise TypeError(f"unsupported ambiguity set {type(amb).__name__}")
    return rows


def row_lipschitz(amb, grid: Grid) -> list:
    """Per-row coefficient slopes max |d coeffs| / d theta of base_rows' rows.

    Nonzero only for moment rows declared analytically continuous: these are
    the constraints nature can repair at cost proportional to the repair
    distance, which is what separates discretization noise from genuine
    fragility in the robustness threshold. Pins, supports, quantiles, and
    undeclared rows report 0.
    """
    rows = base_rows(amb, grid)
    if not isinstance(amb, LinearSet) or not amb.continuous_moments:
        return [0.0] * len(rows)
    dt = np.diff(grid.points)
    return [float(np.max(np.abs(np.diff(row.coeffs)) / dt)) for row in rows]


def _grid_interval_distances(grid: Grid, a: float, b: float) -> np.ndarray:
    """Distance from each grid point to the grid-restricted interval [a, b]."""
    pts = grid.points
    inside = np.flatnonzero(grid.at_least(a) & grid.at_most(b))
    if inside.size == 0:
        raise InfeasibleSetError(f"no grid points inside support [{a}, {b}]")
    lo, hi = pts[inside[0]], pts[inside[-1]]
    return np.maximum(lo - pts, 0.0) + np.maximum(pts - hi, 0.0)


def _columns(amb, grid: Grid, sources) -> tuple:
    """(source, target) grid indices of the transport columns onto a (non-ball)
    set. A support interval takes one column per source, into its nearest
    inside state: W1 transport onto [a, b] moves nothing farther. A singleton
    takes every source into each state of its support, any other set every
    source into every state."""
    if isinstance(amb, SupportInterval):
        inside = np.flatnonzero(_grid_interval_distances(grid, amb.a, amb.b) == 0.0)
        return sources, np.clip(sources, inside[0], inside[-1])
    targets = amb.prior.support_indices(atol=0.0) if isinstance(amb, Singleton) else np.arange(grid.n)
    return np.repeat(sources, targets.size), np.tile(targets, len(sources))


@dataclass
class Coupling:
    """Transport columns onto a base set, each moving mass from one source state
    to one target state; a column's entries in the base rows are their
    coefficients at its target. kept[j] is the base_rows index of rows[j]."""

    source: np.ndarray  # grid index of each column's source state
    target: np.ndarray  # grid index of each column's target state
    cost: np.ndarray  # |theta_source - theta_target| of each column
    rows: list  # kept base rows, each once, on the grid: read them at the targets
    kept: list


def coupling(base, grid: Grid, sources) -> Coupling:
    """The transport LP behind balls and distances to sets.

    Mass moves from the source states onto a measure in the base set, whose
    rows apply to the column sums. Columns into states the base cannot charge
    are left out, and so is each base row that is all zero on the targets with
    a zero right-hand side (a support's outside row).
    """
    source, target = _columns(base, grid, sources)
    charged = np.zeros(grid.n, dtype=bool)
    charged[target] = True
    rows = base_rows(base, grid)
    kept = [k for k, br in enumerate(rows) if br.coeffs[charged].any() or br.rhs != 0.0]
    pts = grid.points
    return Coupling(source, target, np.abs(pts[source] - pts[target]), [rows[k] for k in kept], kept)


def contains(amb, pi: DiscretePrior, tol: float = MEMBERSHIP_TOL) -> bool:
    """Constraint residuals at pi within tol (balls via a transport feasibility LP)."""
    if isinstance(amb, WassersteinBall):
        return distance_to(amb.base, pi) <= amb.radius + tol
    return row_violation(base_rows(amb, pi.grid), pi.weights) <= tol


def distance_to(amb, pi: DiscretePrior) -> float:
    """Wasserstein distance from pi to the set, inf_{pi' in set} W(pi, pi').

    Closed form for support intervals and singletons; otherwise a coupling LP
    transporting pi onto a measure constrained to the set.
    """
    if isinstance(amb, WassersteinBall):
        raise ValueError("distance_to is defined for non-ball sets")
    grid = pi.grid
    if isinstance(amb, SupportInterval):
        return float(_grid_interval_distances(grid, amb.a, amb.b) @ pi.weights)
    if isinstance(amb, Singleton):
        return wasserstein1(pi, amb.prior)
    src = pi.support_indices(atol=0.0)  # zero-mass sources transport nothing
    c = coupling(amb, grid, src)
    rows = [LpRow(c.source == i, EQUAL, float(pi.weights[i])) for i in src]  # each source's mass
    rows += [LpRow(row.coeffs[c.target], row.relation, row.rhs) for row in c.rows]
    sol = solve_lp(LinearProgram(c.cost, rows))
    if sol.status is not LpStatus.OPTIMAL:
        raise InfeasibleSetError(f"base set infeasible on the grid ({sol.status.value})")
    return max(sol.value, 0.0)


def rich_project_ball(ball: WassersteinBall, pi: DiscretePrior, zeta: DiscretePrior) -> DiscretePrior:
    """Mix pi toward a base-set anchor zeta just enough to enter the ball.

    Uses the mixing weight alpha = min(max(D - r, 0) / r, 1) with
    D = wasserstein1(zeta, pi); the output is verified to lie in the ball.
    """
    if not contains(ball.base, zeta, tol=1e-7):
        raise ValueError("zeta must belong to the ball's base set")
    r = ball.radius
    d = wasserstein1(zeta, pi)
    alpha = min(max(d - r, 0.0) / r, 1.0)
    out = DiscretePrior.mixture([(1.0 - alpha, pi), (alpha, zeta)])
    if not contains(ball, out, tol=1e-7):
        raise LpNumericalError("ball projection left the ball")
    return out


@dataclass
class MomentProjection:
    prior: DiscretePrior
    alpha: float
    margin: float
    residual: float


def _moment_matrix(amb: LinearSet, grid: Grid):
    rows = base_rows(amb, grid)
    if any(row.relation != EQUAL for row in rows):
        raise ValueError("rich projection needs equality moment rows")
    return np.array([row.coeffs for row in rows]), np.array([row.rhs for row in rows])


def _max_step(G, y, d) -> float:
    """Largest t with y + t*d an achievable moment vector (LP over the simplex)."""
    m, n = G.shape
    rows = [LpRow(np.append(G[k], -d[k]), EQUAL, y[k]) for k in range(m)]
    rows.append(LpRow(np.append(np.ones(n), 0.0), EQUAL, 1.0))
    c = np.zeros(n + 1)
    c[-1] = -1.0  # maximize t
    sol = solve_lp(LinearProgram(c, rows))
    if sol.status is not LpStatus.OPTIMAL:  # t = 0 is feasible iff y is achievable
        raise InfeasibleSetError(f"equality moments unachievable on the grid ({sol.status.value})")
    return max(-sol.value, 0.0)


def _tv_closest(G, z, pi: DiscretePrior, alpha_max: float) -> DiscretePrior:
    """TV-minimizing grid prior rho with moments exactly z and rho >= (1 - alpha_max) pi.

    The mixing bound is a constraint: rho = (1 - alpha_max) pi + r with r >= 0,
    so the rows read G r = z - (1 - alpha_max) G pi and sum r = alpha_max.
    Masses are equal, so TV is the positive part of rho - pi: r_i itself off
    pi's atoms, and on each atom a variable s_i >= r_i - alpha_max pi_i. The LP
    has one row per moment, the mass row and one row per atom; at alpha_max = 1
    it is the plain least-TV LP. When the least TV is attained on a flat face,
    which of its vertices comes back is not specified: it follows the LP's
    pivots, not a rule on rho.
    """
    n = pi.grid.n
    atoms = pi.support_indices(atol=0.0)
    k = atoms.size
    keep = 1.0 - alpha_max
    # variables (r, s): minimize sum s + sum of r off the atoms
    rows = [LpRow(np.append(g, np.zeros(k)), EQUAL, float(zk - keep * (g @ pi.weights))) for g, zk in zip(G, z)]
    rows.append(LpRow(np.append(np.ones(n), np.zeros(k)), EQUAL, alpha_max))
    for j, i in enumerate(atoms):
        coeffs = np.zeros(n + k)
        coeffs[i], coeffs[n + j] = 1.0, -1.0
        rows.append(LpRow(coeffs, LESS, float(alpha_max * pi.weights[i])))
    c = np.ones(n + k)
    c[atoms] = 0.0
    sol = solve_lp(LinearProgram(c, rows))
    if sol.status is not LpStatus.OPTIMAL:
        raise InfeasibleSetError(f"equality moments unachievable on the grid ({sol.status.value})")
    rho = keep * pi.weights + np.maximum(sol.x[:n], 0.0)
    return DiscretePrior(pi.grid, rho / max(np.sum(rho), 1e-300))


def rich_project_moment(amb: LinearSet, pi: DiscretePrior) -> MomentProjection:
    """Small-probability modification of pi meeting the equality moments exactly.

    Follows the constructive replacement argument for continuous moment sets:
    the interiority margin of the target in the achievable polytope bounds the
    mixing weight by residual / (residual + margin), since mixing pi with a
    prior at the target pushed out by the margin meets it. That bound is a
    constraint of the one TV LP, so the result is the least-TV prior
    rho >= (1 - bound) pi, and alpha = 1 - min(rho / pi) over pi's atoms.
    Boundary targets are an explicit failure with margin 0, and a target no
    grid prior attains raises InfeasibleSetError. Where several priors attain
    the least TV, which one is returned is not specified.
    """
    if not amb.continuous_moments:
        raise ValueError("rich projection requires analytically continuous moment rows")
    G, y = _moment_matrix(amb, pi.grid)
    x = G @ pi.weights
    residual = float(np.linalg.norm(y - x))

    # interiority margin along +- the residual direction and +- each axis, each
    # distinct direction probed once (with one moment they coincide)
    dirs = ([(y - x) / residual] if residual > 1e-14 else []) + list(np.eye(G.shape[0]))
    probes = dict.fromkeys(tuple(s * d) for d in dirs for s in (1.0, -1.0))
    margin = min(_max_step(G, y, np.array(d)) for d in probes)
    if margin <= 1e-9:
        raise ValueError(f"target moments on the boundary of the achievable polytope (margin {margin:.2e})")
    if residual <= 1e-12:
        return MomentProjection(pi, 0.0, margin, residual)

    rho = _tv_closest(G, y, pi, residual / (residual + margin))
    atoms = pi.weights > 1e-15
    alpha = max(0.0, 1.0 - float(np.min(rho.weights[atoms] / pi.weights[atoms])))
    return MomentProjection(rho, alpha, margin, residual)
