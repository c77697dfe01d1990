"""Independent oracles: brute-force couplings, vertex enumeration, scan roots,
the reference distances, regret form and window envelope, and the paper's
hand-built fragility witnesses, which tests compare against.

These deliberately avoid the code paths they check. The transport oracles are
plain coupling LPs over the full gamma matrix; the LP oracle enumerates active
sets; the root oracle scans a fine grid and interpolates one sign change. The
witness constructions (a finite-support saddle's atom pushed to weaker states,
the quantile-set counterexample, the Hausdorff probe of a finite family) build
each fragility by hand, without the lsc envelope, and tests check
`check_robust`'s gap and witness payoffs against them.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from robustmd.ambiguity import QuantileSet, contains
from robustmd.measures import (
    DiscretePrior,
    Grid,
    ValueFunction,
    _require_same_grid,
    expectation,
    push_mass,
    wasserstein1,
)
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


def lsc_envelope_reference(v: ValueFunction, h: float) -> ValueFunction:
    """The window envelope by one slice min per state: the loop the sparse
    table in measures.lsc_envelope replaced, kept verbatim as its reference."""
    if h < 0:
        raise ValueError("window radius must be >= 0")
    if h == 0.0:
        return ValueFunction(v.grid, v.values.copy())
    pts = v.grid.points
    lo = np.searchsorted(pts, pts - h, side="right") - 1  # segment holding the left end
    np.clip(lo, 0, None, out=lo)
    hi = np.searchsorted(pts, pts + h, side="right") - 1  # segment holding the right end
    out = np.array([v.values[a : b + 1].min() for a, b in zip(lo, hi)])
    return ValueFunction(v.grid, out)


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


@dataclass
class SaddleFragilityWitness:
    theta0_index: int
    theta0: float
    atom_mass: float
    drop: float
    witnesses: list
    payoffs: list


def saddle_fragility(
    v: ValueFunction,
    pi_hat: DiscretePrior,
    transfers: ValueFunction,
    amb,
) -> SaddleFragilityWitness | None:
    """Fragility of a finite-support saddle: perturb an atom toward weaker states.

    Locates a support atom with strictly positive payoff whose nearby weaker
    states (grid points up to four cells below) yield payoff and transfer
    <= 0, and moves the full atom there. The payoff drop is exactly atom mass
    times the atom payoff when the weaker-state payoff vanishes. Returns None
    when no atom qualifies at grid resolution.
    """
    for other in (pi_hat, transfers):
        if not other.grid.matches(v.grid):
            raise ValueError("saddle fragility inputs must share a grid")
    if expectation(v, pi_hat) <= 0.0:
        raise ValueError("saddle payoff must be strictly positive")
    if not contains(amb, pi_hat, tol=1e-7):
        raise ValueError("the saddle prior must belong to the ambiguity set")
    grid = v.grid
    pts = grid.points
    lookback = 4.0 * grid.max_spacing

    best = None
    for i in pi_hat.support_indices(atol=1e-9):
        i = int(i)
        if v.values[i] <= 1e-9:
            continue
        below = [
            j
            for j in range(i - 1, -1, -1)
            if pts[i] - pts[j] <= lookback + 1e-12
            and v.values[j] <= 1e-9
            and transfers.values[j] <= 1e-9
        ]
        if not below:
            continue
        drop = float(pi_hat.weights[i] * (v.values[i] - v.values[max(below)]))
        if best is None or drop > best[0] + 1e-15:
            best = (drop, i, sorted(below))
    if best is None:
        return None
    drop, i0, below = best
    seq = [push_mass(pi_hat, i0, j, float(pi_hat.weights[i0])) for j in below]
    payoffs = [expectation(v, w) for w in seq]
    return SaddleFragilityWitness(
        theta0_index=i0,
        theta0=float(pts[i0]),
        atom_mass=float(pi_hat.weights[i0]),
        drop=drop,
        witnesses=seq,
        payoffs=payoffs,
    )


@dataclass
class QuantileCounterexample:
    value_fn: ValueFunction
    member: DiscretePrior
    witnesses: list
    guarantee: float
    witness_payoff: float


def quantile_counterexample(qset: QuantileSet, grid: Grid, k: int = 4) -> QuantileCounterexample:
    """Non-robustness witness for a quantile set with top level alpha_m > 0.

    Builds the indicator of [min, x_m], the member prior stacking the level
    increments on the pin states, and witnesses that shift the top atom just
    above x_m, dropping the payoff from alpha_m to alpha_{m-1}.
    """
    xs = [x for x, _ in qset.pairs]
    als = [a for _, a in qset.pairs]
    if als[-1] <= 0.0:
        raise ValueError("top quantile level must be positive (support-set case out of scope)")
    idx = [grid.index_of(x) for x in xs]
    v = ValueFunction(grid, grid.at_most(xs[-1]).astype(float))

    weights = np.zeros(grid.n)
    prev = 0.0
    for j in range(len(xs) - 1):
        weights[idx[j]] += als[j] - prev
        prev = als[j]
    weights[idx[-1]] += 1.0 - prev
    member = DiscretePrior(grid, weights)

    above = [j for j in range(idx[-1] + 1, grid.n)]
    if not above:
        raise ValueError("grid has no state above the top quantile position")
    above = above[: max(k, 1)]
    top_mass = float(weights[idx[-1]])
    witnesses = [push_mass(member, idx[-1], j, top_mass) for j in reversed(above)]
    return QuantileCounterexample(
        value_fn=v,
        member=member,
        witnesses=witnesses,
        guarantee=float(als[-1]),
        witness_payoff=float(als[-2]) if len(als) > 1 else 0.0,
    )


@dataclass
class HausdorffProbe:
    base_value: float
    perturbed_values: list
    max_jump: float


def hausdorff_lsc_probe(v: ValueFunction, priors, scale: float) -> HausdorffProbe:
    """Downward jumps of the finite worst case when one member atom slides by scale.

    The worst case over a finite prior list is the min payoff; each probe
    adjoins one perturbed member (every atom moved to the nearest grid point
    at the given distance, in both directions) and records the new minimum.
    A vanishing jump as the scale shrinks is the Hausdorff lower
    semicontinuity of the guarantee.
    """
    priors = list(priors)
    if not priors:
        raise ValueError("need a nonempty prior list")
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    base = min(expectation(v, p) for p in priors)
    pts = v.grid.points
    perturbed = []
    for p in priors:
        for direction in (-1.0, +1.0):
            w = p
            for i in p.support_indices():
                i = int(i)
                target = pts[i] + direction * scale
                j = int(np.argmin(np.abs(pts - target)))
                if j != i and abs(pts[j] - pts[i]) <= scale + 1e-12:
                    w = push_mass(w, i, j, float(w.weights[i]))
            perturbed.append(min(base, expectation(v, w)))
    return HausdorffProbe(base, perturbed, max(base - min(perturbed), 0.0))
