"""Discrete measures on a state grid: metrics, expectations, and envelope machinery.

Everything downstream (ambiguity sets, worst-case LPs, robustness certificates)
works with probability weights on a fixed finite grid of nonnegative states.
The grid stands in for a truncated interval of the continuous state space, so
all verdicts that depend on limits (semicontinuity defects, shrinking
perturbations) are taken at grid resolution: a defect narrower than one grid
cell is invisible and no attempt is made to guess below that resolution.

All objects are immutable after construction and every operation is a pure
function of its inputs; concurrent use is safe.
"""

from dataclasses import dataclass, field

import numpy as np

# Construction-time tolerances: rounding noise is clamped, anything larger is a bug.
WEIGHT_CLAMP_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-10
GRID_TOL = 1e-12  # a grid point this close to a cutoff sits on it (Grid.at_most/at_least)


class GridMismatchError(ValueError):
    """Raised when two objects that must share a grid do not."""


def _as_float_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(eq=False)
class Grid:
    """Strictly increasing nonnegative states theta_1 < ... < theta_n, n >= 2."""

    points: np.ndarray

    def __post_init__(self):
        pts = _as_float_vector(self.points, "grid points")
        if pts.size < 2:
            raise ValueError("grid needs at least 2 points")
        if pts[0] < 0.0:
            raise ValueError(f"grid points must be >= 0, got min {pts[0]}")
        if not np.all(np.diff(pts) > 0.0):
            raise ValueError("grid points must be strictly increasing")
        pts.setflags(write=False)
        self.points = pts

    @property
    def n(self) -> int:
        return self.points.size

    @property
    def diameter(self) -> float:
        return float(self.points[-1] - self.points[0])

    @property
    def max_spacing(self) -> float:
        return float(np.max(np.diff(self.points)))

    def matches(self, other: "Grid") -> bool:
        return self is other or np.array_equal(self.points, other.points)

    def at_most(self, x: float) -> np.ndarray:
        """Mask of the grid points at or below x."""
        return self.points <= x + GRID_TOL

    def at_least(self, x: float) -> np.ndarray:
        """Mask of the grid points at or above x."""
        return self.points >= x - GRID_TOL

    def index_of(self, x: float, tol: float = 1e-9) -> int:
        """Index of the grid point equal to x (within tol); raises if absent."""
        i = int(np.argmin(np.abs(self.points - x)))
        if abs(self.points[i] - x) > tol:
            raise ValueError(f"{x} is not a grid point (nearest: {self.points[i]})")
        return i

    @staticmethod
    def regular(lo: float, hi: float, spacing: float, extra=()) -> "Grid":
        """Uniform grid on [lo, hi] with the given spacing plus exact extra points."""
        if spacing <= 0:
            raise ValueError("spacing must be positive")
        base = np.arange(lo, hi + 0.5 * spacing, spacing)
        pts = np.concatenate([base, np.asarray(list(extra), dtype=np.float64)])
        pts = np.unique(pts)
        # unique() keeps near-duplicates from float noise; merge anything closer than spacing*1e-9
        keep = np.concatenate([[True], np.diff(pts) > spacing * 1e-9])
        return Grid(pts[keep])


def _require_same_grid(a, b):
    if not a.grid.matches(b.grid):
        raise GridMismatchError("operands live on different grids")


@dataclass(eq=False)
class DiscretePrior:
    """Nonnegative weights on a grid summing to one (the stand-in for a prior)."""

    grid: Grid
    weights: np.ndarray

    def __post_init__(self):
        w = _as_float_vector(self.weights, "weights").copy()
        if w.size != self.grid.n:
            raise ValueError(f"weights length {w.size} != grid size {self.grid.n}")
        neg = w < 0.0
        if np.any(w < -WEIGHT_CLAMP_TOL):
            raise ValueError(f"negative weight {w.min()} below clamp tolerance")
        w[neg] = 0.0
        total = float(w.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total}, not 1")
        w.setflags(write=False)
        self.weights = w

    def cdf(self) -> np.ndarray:
        """Right-continuous CDF sampled at the grid points."""
        return np.cumsum(self.weights)

    def mean(self) -> float:
        return float(self.weights @ self.grid.points)

    def support_indices(self, atol: float = 1e-12) -> np.ndarray:
        return np.flatnonzero(self.weights > atol)

    @staticmethod
    def point_mass(grid: Grid, x: float) -> "DiscretePrior":
        w = np.zeros(grid.n)
        w[grid.index_of(x)] = 1.0
        return DiscretePrior(grid, w)

    @staticmethod
    def mixture(terms) -> "DiscretePrior":
        """Convex combination [(weight, prior), ...] on a shared grid."""
        terms = list(terms)
        grid = terms[0][1].grid
        w = np.zeros(grid.n)
        for lam, prior in terms:
            if not prior.grid.matches(grid):
                raise GridMismatchError("mixture components on different grids")
            w += lam * prior.weights
        return DiscretePrior(grid, w)

    @staticmethod
    def uniform(grid: Grid) -> "DiscretePrior":
        return DiscretePrior(grid, np.full(grid.n, 1.0 / grid.n))


@dataclass(eq=False)
class ValueFunction:
    """Real payoff vector over a grid (the stand-in for an induced value function)."""

    grid: Grid
    values: np.ndarray
    sup_norm: float = field(init=False)

    def __post_init__(self):
        v = _as_float_vector(self.values, "values").copy()
        if v.size != self.grid.n:
            raise ValueError(f"values length {v.size} != grid size {self.grid.n}")
        v.setflags(write=False)
        self.values = v
        self.sup_norm = float(np.max(np.abs(v))) if v.size else 0.0


def expectation(v: ValueFunction, pi: DiscretePrior) -> float:
    """Inner product <v, pi> on a shared grid."""
    _require_same_grid(v, pi)
    return float(v.values @ pi.weights)


def tv_distance(pi: DiscretePrior, pi2: DiscretePrior) -> float:
    """Total variation distance 0.5 * sum |p_i - p'_i|, in [0, 1]."""
    _require_same_grid(pi, pi2)
    return 0.5 * float(np.abs(pi.weights - pi2.weights).sum())


def wasserstein1(pi: DiscretePrior, pi2: DiscretePrior) -> float:
    """Optimal-transport distance with |theta - theta'| ground cost.

    Computed exactly on the line as the area between the step CDFs; agrees
    with the coupling LP (kept as a test oracle, tests/oracles.transport_lp).
    """
    _require_same_grid(pi, pi2)
    gaps = np.diff(pi.grid.points)
    cdf_gap = np.abs(np.cumsum(pi.weights - pi2.weights))[:-1]
    return float(cdf_gap @ gaps)


def lsc_envelope(v: ValueFunction, h: float) -> ValueFunction:
    """Minimum of v over the window [theta_i - h, theta_i + h].

    The grid vector is read as a right-continuous step function (the same
    convention as CDFs), so the window min runs over every segment the window
    touches. In particular a window narrower than one grid cell still sees
    the left-adjacent segment: the h -> 0+ envelope is min(v_{i-1}, v_i),
    exactly the lower semicontinuous envelope of the step extension. h = 0
    returns v itself; larger windows erode further (monotone in h).
    """
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


def lipschitz_envelope(v: ValueFunction, lam: float) -> ValueFunction:
    """Largest lam-Lipschitz function below v: w_t = min_s v_s + lam |theta_s - theta_t|.

    By Kantorovich duality for W1, inf_p <v, p> + lam W(p, q) = <w, q>, which
    turns the variational objective into a worst case of w. One forward and
    one backward running minimum, O(n); lam = 0 gives the constant min v.
    """
    if lam < 0:
        raise ValueError("Lipschitz constant must be >= 0")
    slope = lam * v.grid.points
    forward = slope + np.minimum.accumulate(v.values - slope)
    backward = np.minimum.accumulate((v.values + slope)[::-1])[::-1] - slope
    return ValueFunction(v.grid, np.minimum(forward, backward))


def lsc_defect_indices(v: ValueFunction, h: float, eps: float) -> np.ndarray:
    """Indices where v sits more than eps above its windowed envelope.

    Numerical proxy for the set of points where v fails lower semicontinuity;
    cannot see defects narrower than one grid cell.
    """
    if h <= 0 or eps <= 0:
        raise ValueError("h and eps must be positive")
    env = lsc_envelope(v, h)
    return np.flatnonzero(v.values - env.values > eps)


def push_mass(pi: DiscretePrior, src: int, dst: int, m: float) -> DiscretePrior:
    """Move mass m from grid index src to grid index dst."""
    if m < 0 or m > pi.weights[src] + WEIGHT_CLAMP_TOL:
        raise ValueError(f"cannot move {m} from index {src} holding {pi.weights[src]}")
    w = pi.weights.copy()
    w[src] -= m
    w[dst] += m
    return DiscretePrior(pi.grid, w)


def hausdorff_distance(a, b) -> float:
    """Hausdorff distance between finite prior lists under wasserstein1."""
    a, b = list(a), list(b)
    if not a or not b:
        raise ValueError("hausdorff_distance needs nonempty lists")
    d = np.array([[wasserstein1(p, q) for q in b] for p in a])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))
