"""Robustness verdicts for payoff guarantees, with constructive fragility witnesses.

The computable criterion: for a closed constraint set, the guarantee is robust
exactly when the worst case of the lsc envelope of the value function matches
the worst case of the value function itself. The envelope is evaluated along a
shrinking window schedule whose sub-cell windows carry exactly the left-limit
defects of the step extension; the verdict compares those finest gaps against
a noise threshold of one grid cell of slope plus one cell of shadow price on
nature's repairable constraints. Gaps a cell of slope can explain are
discretization, gaps a transport budget or a continuous moment row can repair
at cell cost are discretization, anything persistently larger is fragility.

Witness sequences realize the gap: each defect atom of the envelope worst
prior slides to the in-window state minimizing the payoff, with the window
shrinking to one grid cell. A witness's payoff sits below the guarantee,
which certifies it lies outside the set while its transport distance to the
set vanishes (at grid resolution).
"""

import logging
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .ambiguity import InfeasibleSetError, QuantileSet, contains
from .guarantee import worst_case
from .measures import (
    DiscretePrior,
    Grid,
    ValueFunction,
    expectation,
    lsc_defect_indices,
    lsc_envelope,
    push_mass,
)
from .optim import LpStatus

log = logging.getLogger(__name__)

GAP_FLOOR = 1e-4
DEFECT_EPS = 1e-9


class Verdict(Enum):
    ROBUST = "robust"
    NON_ROBUST = "non_robust"
    INCONCLUSIVE = "inconclusive"


@dataclass
class RobustnessCertificate:
    verdict: Verdict
    gap: float
    guarantee: float
    h_schedule: list
    envelope_values: list  # (h, worst-case of the h-envelope)
    threshold: float
    witness: list | None = None
    witness_payoffs: list | None = None
    envelope_worst_prior: DiscretePrior | None = None
    iterations: int = 0  # simplex pivots across all envelope LPs


def _window_schedule(grid: Grid) -> list:
    """Shrinking windows 4s / 2^k, k = 0..4, with s the grid's max spacing.

    The smallest windows drop below one grid cell, where the step-function
    envelope reduces to the left-limit minimum min(v_{i-1}, v_i): the sharp
    grid proxy for the lower semicontinuous envelope.
    """
    s = grid.max_spacing
    return [4.0 * s / 2**k for k in range(5)]


def _slope_proxy(v: ValueFunction, defects) -> float:
    """Max |dv/dtheta| over adjacent pairs not touching a defect index."""
    bad = np.zeros(v.grid.n, dtype=bool)
    bad[defects] = True
    dv = np.abs(np.diff(v.values))
    dt = np.diff(v.grid.points)
    ok = ~(bad[:-1] | bad[1:])
    if not np.any(ok):
        return 0.0
    return float(np.max(dv[ok] / dt[ok]))


def auto_defect_indices(v: ValueFunction) -> np.ndarray:
    """Defect indices at a sub-cell window, thresholded above slope noise.

    Below one grid cell the envelope is the left-limit min, so a defect is an
    up-step v_i - v_{i-1} exceeding the slope scale; the median adjacent
    increment estimates that scale robustly against the (few) genuine jumps.
    """
    dv = np.abs(np.diff(v.values))
    med = float(np.median(dv)) if dv.size else 0.0
    eps = max(3.0 * med, DEFECT_EPS)
    return lsc_defect_indices(v, v.grid.max_spacing / 2.0, eps)


def check_robust(v: ValueFunction, amb) -> RobustnessCertificate:
    """Decide whether the guarantee from v over the set survives weak perturbations.

    For the closed sets here, the guarantee is robust exactly when the worst
    case of the lsc envelope matches the worst case of v. Both are computed
    along the shrinking window schedule; the verdict reads the two smallest
    (sub-cell) windows, where the envelope carries only the left-limit
    defects. The noise threshold charges one grid cell of slope plus one
    cell of repairable-constraint shadow price (transport budgets and
    continuous moment rows let nature buy a defect one cell cheaper, which is
    discretization noise, not fragility).
    """
    grid = v.grid
    base = worst_case(v, amb)
    if base.status is not LpStatus.OPTIMAL:
        raise InfeasibleSetError(f"worst case not optimal: {base.status.value}")
    guarantee = base.value

    s = grid.max_spacing
    schedule = _window_schedule(grid)
    env_values = []
    env_reports = []
    for h in schedule:
        rep = worst_case(lsc_envelope(v, h), amb)
        if rep.status is not LpStatus.OPTIMAL:
            raise InfeasibleSetError(f"envelope worst case failed at window {h}")
        log.debug("check_robust window h=%.9g envelope=%.17g pivots=%d", h, rep.value, rep.iterations)
        env_values.append((h, rep.value))
        env_reports.append(rep)

    defects = auto_defect_indices(v)
    slope = _slope_proxy(v, defects)
    threshold = max(2.0 * s * (slope + base.defect_sensitivity), GAP_FLOOR)

    gaps = [max(guarantee - ev, 0.0) for _, ev in env_values]
    gap = gaps[-1]
    small = gaps[-2:]
    if min(small) > threshold:
        verdict = Verdict.NON_ROBUST
    elif max(small) <= threshold:
        verdict = Verdict.ROBUST
    else:
        verdict = Verdict.INCONCLUSIVE

    cert = RobustnessCertificate(
        verdict=verdict,
        gap=gap,
        guarantee=guarantee,
        h_schedule=schedule,
        envelope_values=env_values,
        threshold=threshold,
        envelope_worst_prior=env_reports[-1].worst_prior,
        iterations=base.iterations + sum(r.iterations for r in env_reports),
    )
    if verdict is Verdict.NON_ROBUST:
        cert.witness = _witness_sequence(v, env_reports[-1].worst_prior, defects, 4)
        cert.witness_payoffs = [expectation(v, w) for w in cert.witness]
    return cert


def _windowed_target(v: ValueFunction, i: int, h: float) -> int:
    """In-window index minimizing v, farthest from i among minimizers.

    The farthest minimizer makes the witness distances strictly shrink with
    the window; self is returned when no in-window state is strictly lower.
    """
    pts = v.grid.points
    lo = int(np.searchsorted(pts, pts[i] - h, side="left"))
    hi = int(np.searchsorted(pts, pts[i] + h, side="right"))
    window = v.values[lo:hi]
    vmin = window.min()
    if vmin >= v.values[i] - 1e-12:
        return i
    cand = lo + np.flatnonzero(window <= vmin + 1e-15)
    far = np.abs(pts[cand] - pts[i])
    return int(cand[int(np.argmax(far))])


def _witness_sequence(v: ValueFunction, rho: DiscretePrior, defects, k: int) -> list:
    """Slide each defect atom (auto_defect_indices) of the envelope worst prior
    to the in-window minimizer of v, for geometrically shrinking windows.

    Atoms on merely sloped stretches stay put: moving them changes the payoff
    only by the window-sized modulus, and the fragility lives at the defects.
    """
    s = v.grid.max_spacing
    defects = set(int(i) for i in defects)
    radii = [s * 2 ** (k - j) for j in range(1, k + 1)]
    out = []
    for h in radii:
        w = rho
        for i in rho.support_indices():
            if int(i) not in defects:
                continue
            j = _windowed_target(v, int(i), h)
            if j != i:
                w = push_mass(w, int(i), j, w.weights[int(i)])
        out.append(w)
    return out


def perturbation_witness(v: ValueFunction, amb, k: int = 4) -> list:
    """k perturbed priors realizing the envelope gap; requires a NonRobust verdict."""
    if k < 1:
        raise ValueError("need at least one witness")
    cert = check_robust(v, amb)
    if cert.verdict is not Verdict.NON_ROBUST:
        raise ValueError(f"witnesses exist only for NonRobust guarantees (got {cert.verdict.value})")
    return _witness_sequence(v, cert.envelope_worst_prior, auto_defect_indices(v), k)


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
    if not perturbed:
        perturbed = [base]
    return HausdorffProbe(base, perturbed, max(base - min(perturbed), 0.0))
