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
from .guarantee import worst_case, worst_case_ball
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
) -> Grid:
    """Default grid for the monopoly problems.

    Uniform spacing on [0, theta_max] with theta_max = max(1 + 10 r, 1.5), plus
    exact insertion of the structural points (1/e, 1, theta_bar, and the
    robustified coefficients kappa and beta when they exist) so that atoms and
    kinks of the bundled mechanisms and worst-case priors sit on the grid.
    """
    theta_max = max(1.0 + 10.0 * r, 1.5)
    pts = [E_INV, 1.0]
    if theta_bar is not None:
        pts.append(theta_bar)
        if r > 0.0:
            if theta_bar <= E_INV:
                pts.append(math.exp(math.e * r))  # worst-prior atom past 1
            elif r < critical_radius(theta_bar):
                alpha = solve_alpha(theta_bar, r)
                pts.append(theta_bar * (theta_bar * math.e) ** (-1.0 / alpha))
            else:
                pts.append(math.sqrt(theta_bar / math.e))
                pts.append(solve_beta(theta_bar, r))
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
    buy = grid.points >= p - 1e-12
    v = p * buy.astype(float)
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


def bs_optimal_cdf(theta_bar: float, grid: Grid) -> PriceCdf:
    """The regret-minimizing price distribution over the support set [theta_bar, 1].

    Density 1/theta on [max(theta_bar, 1/e), 1); for theta_bar > 1/e an atom of
    mass 1 + ln(theta_bar) sits at theta_bar.
    """
    if not (0.0 <= theta_bar < 1.0):
        raise ValueError("theta_bar must lie in [0, 1)")
    lo = max(theta_bar, E_INV)
    pts = grid.points
    q = np.where(pts < lo - 1e-12, 0.0, 1.0 + np.log(np.maximum(pts, lo)))
    q[pts >= 1.0 - 1e-12] = 1.0
    return PriceCdf(grid, q)


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
    radius; the two contributions telescope to kappa ln(beta), so beta solves
    sqrt(theta_bar/e) ln(beta) = r - critical radius. Equals 1 exactly at the
    critical radius.
    """
    rhat = critical_radius(theta_bar)
    if r < rhat - 1e-15:
        raise ValueError(f"beta branch needs r >= critical radius {rhat}")
    target = (r - rhat) / math.sqrt(theta_bar / math.e)
    if target <= 0.0:
        return 1.0
    hi = 2.0
    while math.log(hi) < target:
        hi *= 2.0
    return solve_bracketed(lambda b: math.log(b) - target, 1.0, hi, tol=1e-13)


class PricingCase(Enum):
    LOW_THETA_BAR = "low_theta_bar"
    SMALL_RADIUS = "small_radius"
    LARGE_RADIUS = "large_radius"


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


def _density_prior(grid: Grid, scale: float, lo: float, hi: float, atom_at: float, atom_mass: float) -> DiscretePrior:
    """Discretize the density scale/theta^2 on [lo, hi) plus one atom.

    Each grid cell's mass is split between its endpoints preserving the cell
    mean, so integrals of functions that are piecewise linear between grid
    points (transport distances, the regret kinks) are reproduced exactly.
    """
    pts = grid.points
    w = np.zeros(grid.n)
    i_lo, i_hi = grid.index_of(lo), grid.index_of(hi)
    for i in range(i_lo, i_hi):
        u, t = pts[i], pts[i + 1]
        mass = scale * (1.0 / u - 1.0 / t)
        if mass <= 0.0:
            continue
        mean = scale * math.log(t / u) / mass
        w[i] += mass * (t - mean) / (t - u)
        w[i + 1] += mass * (mean - u) / (t - u)
    w[grid.index_of(atom_at)] += atom_mass
    return DiscretePrior(grid, w)


def robustify(theta_bar: float, r: float, grid: Grid) -> RobustifiedPricing:
    """Regret-minimizing mechanism over the Wasserstein r-neighborhood of
    the support set [theta_bar, 1], with its saddle worst-case prior.

    Low theta_bar (<= 1/e): the original 1/theta price density, guarantee
    1/e + r. Otherwise the point mass at theta_bar spreads over
    [kappa, theta_bar] with density alpha/theta: below the critical radius
    alpha solves the transport-cost equation; beyond it alpha = 2,
    kappa = sqrt(theta_bar/e), and the worst prior leaks past 1 up to beta.
    """
    if not (0.0 <= theta_bar < 1.0):
        raise ValueError("theta_bar must lie in [0, 1)")
    if r <= 0.0:
        raise ValueError("radius must be positive")
    pts = grid.points

    if theta_bar <= E_INV:
        # The 1/theta price density is unchanged by the neighborhood; the
        # worst prior keeps revenue flat at 1/e (density (1/e)/theta^2) and
        # leaks past 1 up to beta = exp(e r), spending exactly r on transport.
        qhat = bs_optimal_cdf(theta_bar, grid)
        beta = math.exp(math.e * r)
        if float(pts[-1]) < beta:
            raise ValueError(f"grid top {pts[-1]} below the worst-prior atom {beta}")
        worst = _density_prior(grid, E_INV, E_INV, beta, atom_at=beta, atom_mass=E_INV / beta)
        return RobustifiedPricing(
            theta_bar, r, PricingCase.LOW_THETA_BAR,
            alpha=1.0, kappa=E_INV, beta=beta, r_hat=None,
            qhat=qhat, guarantee=E_INV + r, worst_prior=worst,
        )

    rhat = critical_radius(theta_bar)
    if r < rhat:
        alpha = solve_alpha(theta_bar, r)
        kappa = theta_bar * (theta_bar * math.e) ** (-1.0 / alpha)
        r0 = theta_bar - alpha * (theta_bar - kappa)
        guarantee = r0 + (alpha - 1.0) * r
        worst = _density_prior(grid, kappa, kappa, 1.0, atom_at=1.0, atom_mass=kappa)
        case, beta = PricingCase.SMALL_RADIUS, None
    else:
        alpha = 2.0
        kappa = math.sqrt(theta_bar / math.e)
        beta = solve_beta(theta_bar, r)
        r0 = 2.0 * kappa - theta_bar
        guarantee = r0 + r
        worst = _density_prior(grid, kappa, kappa, beta, atom_at=beta, atom_mass=kappa / beta)
        case = PricingCase.LARGE_RADIUS

    q = np.zeros(grid.n)
    mid = (pts >= kappa - 1e-12) & (pts < theta_bar - 1e-12)
    q[mid] = alpha * np.log(pts[mid] / kappa)
    upper = (pts >= theta_bar - 1e-12) & (pts < 1.0 - 1e-12)
    q[upper] = 1.0 + np.log(pts[upper])
    q[pts >= 1.0 - 1e-12] = 1.0
    qhat = PriceCdf(grid, q)
    return RobustifiedPricing(theta_bar, r, case, alpha, kappa, beta, rhat, qhat, guarantee, worst)


def verify_saddle(sol: RobustifiedPricing, method: str = "auto") -> SaddleReport:
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
    ball = worst_case_ball(cdf_value(sol.qhat, NEG_REGRET), base, sol.r, method=method)
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
    v = (pts + (1.0 - pts) * alpha / (1.0 - alpha)) * (pts >= alpha - 1e-12)
    return ValueFunction(grid, v)


def persuasion_ambiguity(alpha: float, beta: float, mu: float, grid: Grid) -> LinearSet:
    """Priors with mean mu concentrating on [alpha, beta], as moment rows."""
    if not (0.0 < alpha < mu < beta <= 1.0):
        raise ValueError("need 0 < alpha < mu < beta <= 1")
    pts = grid.points
    outside = ((pts < alpha - 1e-12) | (pts > beta + 1e-12)).astype(float)
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
