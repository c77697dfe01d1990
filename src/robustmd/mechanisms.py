"""Monopoly selling mechanisms: posted prices, random price CDFs, the
Bergemann-Schlag regret-minimizing solution, its robustified counterpart over
a Wasserstein neighborhood of the support set, and the persuasion example.

Conventions. Ties at a posted price break in the designer's favor (the buyer
purchases at theta = p). Price CDFs are right-continuous step functions whose
atoms sit exactly on grid points, so the structural atoms (the BS mass at
theta_bar, the worst-prior atoms at 1 or beta) are represented without
smoothing. Value functions use negative regret as the designer's utility in
regret problems.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .ambiguity import LinearSet, MomentRow, QuantileSet, SupportInterval, distance_to
from .guarantee import worst_case_ball
from .measures import DiscretePrior, Grid, ValueFunction, expectation
from .optim import solve_bracketed

E_INV = 1.0 / math.e

REVENUE = "revenue"
NEG_REGRET = "neg_regret"
_OBJECTIVES = (REVENUE, NEG_REGRET)


def monopoly_grid(
    spacing: float = 1.0 / 400.0,
    theta_bar: float | None = None,
    r: float = 0.0,
    extra=(),
    shape: tuple | None = None,
) -> Grid:
    """Default grid for the monopoly problems.

    Uniform spacing on [0, theta_max] with theta_max = max(1 + 10 r, 1.5), plus
    exact insertion of the structural points (1/e, 1, theta_bar, and the
    robustified coefficients kappa and beta when they exist) so that atoms and
    kinks of the bundled mechanisms and worst-case priors sit on the grid.
    shape, if given, is saddle_shape(theta_bar, r), computed once by a caller
    that also hands it to robustify.
    """
    theta_max = max(1.0 + 10.0 * r, 1.5)
    pts = [E_INV, 1.0]
    if theta_bar is not None:
        pts.append(theta_bar)
        if r > 0.0:
            _, _, kappa, beta, _, _ = shape if shape is not None else saddle_shape(theta_bar, r)
            pts.extend(x for x in (kappa, beta) if x is not None)
    pts.extend(extra)
    return Grid.regular(0.0, theta_max, spacing, extra=pts)


@dataclass(eq=False)
class PriceCdf:
    """Right-continuous CDF of a random posted price, sampled on the grid."""

    grid: Grid
    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=np.float64).copy()
        if q.shape != (self.grid.n,):
            raise ValueError("q must match the grid length")
        if np.any(np.diff(q) < -1e-12):
            raise ValueError("price CDF must be nondecreasing")
        if np.any(q < -1e-12) or np.any(q > 1.0 + 1e-12):
            raise ValueError("price CDF values must lie in [0, 1]")
        if abs(q[-1] - 1.0) > 1e-9:
            raise ValueError(f"price CDF must end at 1, got {q[-1]}")
        np.clip(q, 0.0, 1.0, out=q)
        q.setflags(write=False)
        self.q = q

    def increments(self) -> np.ndarray:
        return np.diff(self.q, prepend=0.0)


def posted_price_value(p: float, grid: Grid, objective: str = REVENUE) -> ValueFunction:
    """Payoff of a deterministic posted price: p 1{theta >= p}, minus theta for regret."""
    if p < 0:
        raise ValueError("price must be nonnegative")
    if objective not in _OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    v = p * grid.at_least(p).astype(float)
    if objective == NEG_REGRET:
        v = v - grid.points
    return ValueFunction(grid, v)


def cdf_value(q: PriceCdf, objective: str = REVENUE) -> ValueFunction:
    """Payoff of a random posted price via the Stieltjes sum over CDF increments.

    revenue(theta_i) = sum_{theta_j <= theta_i} theta_j dq_j; negative regret
    subtracts theta. Agrees with the integrated regret form (theta (1 - q) +
    integral of q) exactly for step CDFs on the grid.
    """
    if objective not in _OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    revenue = np.cumsum(q.grid.points * q.increments())
    v = revenue if objective == REVENUE else revenue - q.grid.points
    return ValueFunction(q.grid, v)


def regret_integral_form(q: PriceCdf) -> np.ndarray:
    """Regret as theta (1 - q(theta)) + integral_0^theta q, for cross-checking."""
    pts = q.grid.points
    integ = np.concatenate([[0.0], np.cumsum(q.q[:-1] * np.diff(pts))])
    return pts * (1.0 - q.q) + integ


def _log_cdf(grid: Grid, kappa: float, alpha: float, split: float) -> PriceCdf:
    """Price CDF 0 below kappa, alpha ln(theta/kappa) on [kappa, split), 1 + ln(theta)
    on [split, 1) and 1 from 1 on; each breakpoint is a cutoff of grid.at_least."""
    pts = grid.points
    q = np.where(grid.at_least(split), 1.0 + np.log(np.maximum(pts, split)),
                 alpha * np.log(np.maximum(pts, kappa) / kappa))
    q[~grid.at_least(kappa)] = 0.0
    q[grid.at_least(1.0)] = 1.0
    return PriceCdf(grid, q)


def bs_optimal_cdf(theta_bar: float, grid: Grid) -> PriceCdf:
    """The regret-minimizing price distribution over the support set [theta_bar, 1].

    Density 1/theta on [max(theta_bar, 1/e), 1); for theta_bar > 1/e an atom of
    mass 1 + ln(theta_bar) sits at theta_bar: _log_cdf with kappa = split.
    """
    if not (0.0 <= theta_bar < 1.0):
        raise ValueError("theta_bar must lie in [0, 1)")
    lo = max(theta_bar, E_INV)
    return _log_cdf(grid, lo, 1.0, lo)


def critical_radius(theta_bar: float) -> float:
    """Radius at which the robustified exponent reaches 2 and stops moving.

    Closed form theta_bar - (1/2) sqrt(theta_bar/e) (3 + ln theta_bar); equals
    the transport cost of the kappa/theta^2-density worst prior at alpha = 2.
    """
    if not (E_INV < theta_bar < 1.0):
        raise ValueError("critical radius needs theta_bar in (1/e, 1)")
    return theta_bar - 0.5 * math.sqrt(theta_bar / math.e) * (3.0 + math.log(theta_bar))


def _psi(theta_bar: float, alpha: float) -> float:
    """Transport cost of the alpha-exponent worst prior below theta_bar."""
    kappa = theta_bar * (theta_bar * math.e) ** (-1.0 / alpha)
    return theta_bar - (kappa / alpha) * (alpha + 1.0 + math.log(theta_bar))


def solve_alpha(theta_bar: float, r: float) -> float:
    """Exponent alpha in (2, inf) with psi(theta_bar, alpha) = r (psi is decreasing)."""
    if not (E_INV < theta_bar < 1.0):
        raise ValueError("alpha is defined for theta_bar in (1/e, 1)")
    rhat = critical_radius(theta_bar)
    if not (0.0 < r < rhat):
        raise ValueError(f"need 0 < r < critical radius {rhat}; use the alpha = 2 branch")
    hi = 4.0
    while _psi(theta_bar, hi) > r:
        hi *= 2.0
    alpha = solve_bracketed(lambda a: _psi(theta_bar, a) - r, 2.0, hi, tol=1e-13)
    if abs(_psi(theta_bar, alpha) - r) > 1e-9:
        raise ArithmeticError(f"alpha residual {abs(_psi(theta_bar, alpha) - r):.2e} too large")
    return alpha


def solve_beta(theta_bar: float, r: float) -> float:
    """Upper support endpoint beta >= 1 of the large-radius worst prior.

    The prior's mass above 1 (the kappa/theta^2 density on (1, beta) plus the
    atom kappa/beta at beta) must transport to 1 at total cost r - critical
    radius; the two contributions telescope to kappa ln(beta), so in closed form
    beta = exp((r - critical radius) / sqrt(theta_bar/e)). Equals 1 exactly at
    the critical radius; ValueError when beta exceeds the float range.
    """
    rhat = critical_radius(theta_bar)
    if r < rhat - 1e-15:
        raise ValueError(f"beta branch needs r >= critical radius {rhat}")
    return _beta(max(r - rhat, 0.0) / math.sqrt(theta_bar / math.e), r)


def _beta(log_beta: float, r: float) -> float:
    try:
        return math.exp(log_beta)
    except OverflowError:
        raise ValueError(f"beta = exp({log_beta:.6g}) exceeds the float range at radius r = {r:g}") from None


class PricingCase(Enum):
    LOW_THETA_BAR = "low_theta_bar"
    SMALL_RADIUS = "small_radius"
    LARGE_RADIUS = "large_radius"


def saddle_shape(theta_bar: float, r: float) -> tuple:
    """(case, alpha, kappa, beta, r_hat, guarantee) of the robustified saddle at
    radius r > 0; the one place where the three cases differ.

    Low theta_bar (<= 1/e) keeps the 1/theta price density (alpha = 1) from
    kappa = 1/e; the worst prior leaks past 1 up to beta = exp(e r). Above 1/e,
    below the critical radius r_hat, alpha solves the transport-cost equation
    and beta does not exist; from r_hat on, alpha = 2, kappa = sqrt(theta_bar/e)
    and the worst prior leaks past 1 up to beta = solve_beta.
    """
    if theta_bar <= E_INV:
        return PricingCase.LOW_THETA_BAR, 1.0, E_INV, _beta(math.e * r, r), None, E_INV + r
    rhat = critical_radius(theta_bar)
    if r < rhat:
        alpha = solve_alpha(theta_bar, r)
        kappa = theta_bar * (theta_bar * math.e) ** (-1.0 / alpha)
        guarantee = theta_bar - alpha * (theta_bar - kappa) + (alpha - 1.0) * r
        return PricingCase.SMALL_RADIUS, alpha, kappa, None, rhat, guarantee
    kappa = math.sqrt(theta_bar / math.e)
    return PricingCase.LARGE_RADIUS, 2.0, kappa, solve_beta(theta_bar, r), rhat, 2.0 * kappa - theta_bar + r


@dataclass
class RobustifiedPricing:
    theta_bar: float
    r: float
    case: PricingCase
    alpha: float
    kappa: float
    beta: float | None
    r_hat: float | None
    qhat: PriceCdf
    guarantee: float  # worst-case expected regret over the r-neighborhood
    worst_prior: DiscretePrior


@dataclass
class SaddleReport:
    designer_slack: float
    nature_slack: float
    wasserstein_residual: float


def _density_prior(grid: Grid, kappa: float, top: float) -> DiscretePrior:
    """Discretize the density kappa/theta^2 on [kappa, top) plus the atom
    kappa/top at top, which completes its mass to 1.

    Each grid cell's mass is split between its endpoints preserving the cell
    mean, so integrals of functions that are piecewise linear between grid
    points (transport distances, the regret kinks) are reproduced exactly.
    """
    pts = grid.points
    w = np.zeros(grid.n)
    i_lo, i_hi = grid.index_of(kappa), grid.index_of(top)
    for i in range(i_lo, i_hi):
        u, t = pts[i], pts[i + 1]
        mass = kappa * (1.0 / u - 1.0 / t)
        if mass <= 0.0:
            continue
        mean = kappa * math.log(t / u) / mass
        w[i] += mass * (t - mean) / (t - u)
        w[i + 1] += mass * (mean - u) / (t - u)
    w[i_hi] += kappa / top
    return DiscretePrior(grid, w)


def robustify(theta_bar: float, r: float, grid: Grid, shape: tuple | None = None) -> RobustifiedPricing:
    """Regret-minimizing mechanism over the Wasserstein r-neighborhood of
    the support set [theta_bar, 1], with its saddle worst-case prior.

    With the coefficients of saddle_shape, the BS point mass at theta_bar
    spreads over [kappa, theta_bar] with density alpha/theta (at low theta_bar
    the 1/theta density from 1/e is unchanged). The worst prior, density
    kappa/theta^2 from kappa plus an atom at 1 or beta, keeps revenue flat at kappa.
    shape, if given, is saddle_shape(theta_bar, r), as monopoly_grid takes it.
    """
    if not (0.0 <= theta_bar < 1.0):
        raise ValueError("theta_bar must lie in [0, 1)")
    if r <= 0.0:
        raise ValueError("radius must be positive")
    case, alpha, kappa, beta, rhat, guarantee = shape if shape is not None else saddle_shape(theta_bar, r)
    top = 1.0 if beta is None else beta  # the worst prior's atom
    if float(grid.points[-1]) < top:
        raise ValueError(f"grid top {grid.points[-1]} below the worst-prior atom {top}")
    worst = _density_prior(grid, kappa, top)
    qhat = _log_cdf(grid, kappa, alpha, max(theta_bar, kappa))
    return RobustifiedPricing(theta_bar, r, case, alpha, kappa, beta, rhat, qhat, guarantee, worst)


def verify_saddle(sol: RobustifiedPricing) -> SaddleReport:
    """Best-response residuals of the robustified saddle on the grid.

    designer_slack: best posted-price revenue against the worst prior minus
    the mechanism's revenue (every support price should be optimal).
    nature_slack: worst-case expected regret over the neighborhood minus the
    worst prior's expected regret (the prior should attain the sup).
    wasserstein_residual: |W(worst prior, support set) - r|.
    """
    grid = sol.qhat.grid
    pi = sol.worst_prior
    revenue = cdf_value(sol.qhat, REVENUE)
    mech_rev = expectation(revenue, pi)
    tail = np.cumsum(pi.weights[::-1])[::-1]  # P(theta >= theta_i)
    designer_slack = float(np.max(grid.points * tail)) - mech_rev

    base = SupportInterval(sol.theta_bar, 1.0)
    ball = worst_case_ball(cdf_value(sol.qhat, NEG_REGRET), base, sol.r)
    exp_regret = -expectation(cdf_value(sol.qhat, NEG_REGRET), pi)
    nature_slack = -ball.value - exp_regret

    residual = abs(distance_to(base, pi) - sol.r)
    return SaddleReport(designer_slack, nature_slack, residual)


def persuasion_value(alpha: float, grid: Grid) -> ValueFunction:
    """Sender payoff of the belief-split experiment: high-signal probability
    above the cutoff, zero below.

    v(theta) = (theta + (1 - theta) alpha / (1 - alpha)) 1{theta >= alpha}.
    """
    if not (0.0 < alpha < 0.5):
        raise ValueError("persuasion cutoff must lie in (0, 1/2)")
    pts = grid.points
    v = (pts + (1.0 - pts) * alpha / (1.0 - alpha)) * grid.at_least(alpha)
    return ValueFunction(grid, v)


def persuasion_ambiguity(alpha: float, beta: float, mu: float, grid: Grid) -> LinearSet:
    """Priors with mean mu concentrating on [alpha, beta], as moment rows."""
    if not (0.0 < alpha < mu < beta <= 1.0):
        raise ValueError("need 0 < alpha < mu < beta <= 1")
    pts = grid.points
    outside = (~(grid.at_least(alpha) & grid.at_most(beta))).astype(float)
    return LinearSet(
        rows=(
            MomentRow(ValueFunction(grid, pts.copy()), mu, mu),
            MomentRow(ValueFunction(grid, outside), 0.0, 0.0),
        ),
        continuous_moments=False,  # the support indicator is discontinuous
    )


@dataclass
class MedianExample:
    value_fn: ValueFunction
    ambiguity: QuantileSet
    saddle_prior: DiscretePrior
    guarantee: float


def median_example_bundle(lam: float, grid: Grid) -> MedianExample:
    """Posted price at the median pin: value function, quantile set, saddle prior.

    The optimal revenue guarantee over the median-lam set is lam/2, attained
    at the prior delta_0/2 + delta_lam/2.
    """
    i_lam = grid.index_of(lam)  # lam must be a grid point
    v = posted_price_value(lam, grid, REVENUE)
    amb = QuantileSet(((lam, 0.5),))
    w = np.zeros(grid.n)
    w[grid.index_of(0.0)] = 0.5
    w[i_lam] = 0.5
    return MedianExample(v, amb, DiscretePrior(grid, w), lam / 2.0)
