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

The certificate's witness sequence, the library's only fragility witness,
realizes the gap: each defect atom of the envelope worst prior slides to the
in-window state minimizing the payoff, with the window shrinking to one grid
cell. A witness's payoff sits below the guarantee, which certifies it lies
outside the set while its transport distance to the set vanishes (at grid
resolution). The paper's hand-built witnesses (finite-support saddles,
quantile sets, the Hausdorff probe) live in the tests, as oracles that the
certificate is checked against.
"""

import logging
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .ambiguity import InfeasibleSetError
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
    iterations: int = 0  # simplex pivots of the guarantee LP and all envelope LPs


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
    return lsc_defect_indices(v, lsc_envelope(v, v.grid.max_spacing / 2.0), _defect_eps(v))


def _defect_eps(v: ValueFunction) -> float:
    """Three median adjacent increments of v, at least DEFECT_EPS."""
    dv = np.abs(np.diff(v.values))
    med = float(np.median(dv)) if dv.size else 0.0
    return max(3.0 * med, DEFECT_EPS)


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

    v's grid vector is read as a right-continuous step function, as in
    lsc_envelope: a left-continuous jump such as 1{theta <= x} reads one cell
    to the right, where its fragility at x does not show.

    The six LPs share their rows and differ only in costs, so each window's
    worst case starts from the previous LP's optimum (worst_case's start):
    its optimal basis and basic columns, over the set's transport columns
    built once. The values do not depend on it; iterations counts the pivots
    actually taken: on the bundled examples, far fewer than six cold solves.
    The defect states (auto_defect_indices) are read off the s/2 window's
    envelope, so a check builds five envelopes, one per window.
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
    rep = base
    for h in schedule:
        t0 = time.perf_counter()
        env = lsc_envelope(v, h)
        envelope_ms = 1e3 * (time.perf_counter() - t0)
        if h == s / 2.0:  # the fourth window, 4s / 2^3, is auto_defect_indices' envelope
            defects = lsc_defect_indices(v, env, _defect_eps(v))
        rep = worst_case(env, amb, start=rep)
        if rep.status is not LpStatus.OPTIMAL:
            raise InfeasibleSetError(f"envelope worst case failed at window {h}")
        log.debug("check_robust window h=%.9g envelope=%.17g pivots=%d envelope_ms=%.3f",
                  h, rep.value, rep.iterations, envelope_ms)
        env_values.append((h, rep.value))
        env_reports.append(rep)

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
        iterations=base.iterations + sum(r.iterations for r in env_reports),
    )
    if verdict is Verdict.NON_ROBUST:
        cert.witness = _witness_sequence(v, env_reports[-1].worst_prior, defects)
        cert.witness_payoffs = [expectation(v, w) for w in cert.witness]
    return cert


def _windowed_target(v: ValueFunction, i: int, h: float) -> int:
    """In-window index minimizing v, farthest from i among minimizers.

    The farthest minimizer keeps the witnesses' distances to the set
    nonincreasing as the window shrinks, the last within one cell. They need
    not strictly shrink: when every window's minimizer is the same state (the
    BS regret, least one cell below the cutoff), the witnesses coincide.
    Self is returned when no in-window state is strictly lower.
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


def _witness_sequence(v: ValueFunction, rho: DiscretePrior, defects) -> list:
    """Slide each defect atom (auto_defect_indices) of the envelope worst prior
    to the in-window minimizer of v, for the four windows 8s, 4s, 2s and s.

    Atoms on merely sloped stretches stay put: moving them changes the payoff
    only by the window-sized modulus, and the fragility lives at the defects.
    """
    s = v.grid.max_spacing
    defects = set(int(i) for i in defects)
    out = []
    for h in (8 * s, 4 * s, 2 * s, s):
        w = rho
        for i in rho.support_indices():
            if int(i) not in defects:
                continue
            j = _windowed_target(v, int(i), h)
            if j != i:
                w = push_mass(w, int(i), j, w.weights[int(i)])
        out.append(w)
    return out
