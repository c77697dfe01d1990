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

import math
from dataclasses import dataclass, field

import numpy as np

# Construction-time tolerances: rounding noise is clamped, anything larger is a bug.
WEIGHT_CLAMP_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-10
GRID_TOL = 1e-12  # a grid point this close to a cutoff sits on it (Grid.at_most/at_least)
INDEX_TOL = 1e-9  # a grid point this close to x is x (Grid.index_of)


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

    def index_of(self, x: float) -> int:
        """Index of the grid point within INDEX_TOL of x; raises if there is none (or x is NaN)."""
        i = int(np.argmin(np.abs(self.points - x)))
        if not abs(self.points[i] - x) <= INDEX_TOL:
            raise ValueError(f"{x} is not a grid point (nearest: {self.points[i]})")
        return i

    @staticmethod
    def regular(lo: float, hi: float, spacing: float, extra=()) -> "Grid":
        """Grid on [lo, hi]: lo + k * spacing below hi, hi itself, and exact extra points.

        A spacing too fine for the grid to fit in memory raises ValueError.
        """
        if not 0 < spacing < math.inf:
            raise ValueError("spacing must be finite and positive")
        try:
            base = np.arange(lo, hi + 0.5 * spacing, spacing)
        except MemoryError:
            count = (hi - lo) / spacing + 1
            raise ValueError(f"grid spacing {spacing!r} on [{lo!r}, {hi!r}] needs {count:.3g} points, "
                             "more than memory can hold") from None
        merge = spacing * 1e-9  # unique() keeps near-duplicates from float noise; merge anything closer
        pts = np.concatenate([base[base < hi - merge], [hi], np.asarray(list(extra), dtype=np.float64)])
        pts = np.unique(pts)
        keep = np.concatenate([[True], np.diff(pts) > merge])
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
    returns v itself, h = inf the global min; larger windows erode further
    (monotone in h). A NaN h raises.

    The window mins come from a sparse table (Bender & Farach-Colton, "The
    LCA problem revisited", LATIN 2000): row k holds min(v[i : i + 2^k]),
    built from row k - 1 by one np.minimum, and window [lo, hi] is the min
    of two overlapping row-k entries with 2^k <= hi - lo + 1 < 2^(k+1).
    That is O(n log n) for any h, against O(n) per state for a slice min per
    window. It is exact: min does not round, so every entry is the same
    float the slice min returns (the sign of a zero min may differ where v
    holds both 0.0 and -0.0, as it does between numpy's own reductions).
    """
    if not h >= 0:
        raise ValueError(f"window radius must be >= 0, got {h}")
    if h == 0.0:
        return ValueFunction(v.grid, v.values.copy())
    pts = v.grid.points
    lo = np.searchsorted(pts, pts - h, side="right") - 1  # segment holding the left end
    np.clip(lo, 0, None, out=lo)
    hi = np.searchsorted(pts, pts + h, side="right") - 1  # segment holding the right end
    level = np.frexp(hi - lo + 1)[1] - 1  # floor(log2(window length)), exact for integers
    n = pts.size
    table = np.empty((int(level.max()) + 1, n))
    table[0] = v.values
    for k in range(1, table.shape[0]):
        half, valid = 1 << (k - 1), n - (1 << k) + 1
        np.minimum(table[k - 1, :valid], table[k - 1, half : half + valid], out=table[k, :valid])
    out = np.minimum(table[level, lo], table[level, hi - (1 << level) + 1])
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
    if not (h > 0 and eps > 0):
        raise ValueError(f"h and eps must be positive, got h={h}, eps={eps}")
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

