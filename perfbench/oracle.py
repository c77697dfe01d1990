"""Independent references for the correctness checks.

Each LP here is built by the benchmark from the grid points and solved by
HiGHS through ``scipy.optimize.linprog``, never by robustmd's own simplex.
Payoff vectors and envelopes are recomputed from their definitions. scipy is
imported on first use, so importing this module costs nothing in set-up.
"""

import io
import math

import numpy as np

E_INV = 1.0 / math.e


def _linprog(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None):
    from scipy.optimize import linprog

    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    return res


def _solve_value(c, **rows) -> float:
    res = _linprog(c, **rows)
    if res.status != 0:
        raise ArithmeticError(f"oracle LP failed: {res.message}")
    return float(res.fun)


def bs_neg_regret(points: np.ndarray, theta_bar: float) -> np.ndarray:
    """Negative regret of the Bergemann-Schlag price CDF as a Stieltjes sum on
    the grid: q = 1 + ln(theta) on [max(theta_bar, 1/e), 1), 1 from 1 on."""
    lo = max(theta_bar, E_INV)
    q = np.zeros_like(points)
    mid = (points >= lo - 1e-12) & (points < 1.0 - 1e-12)
    q[mid] = 1.0 + np.log(points[mid])
    q[points >= 1.0 - 1e-12] = 1.0
    dq = np.concatenate([[q[0]], np.diff(q)])
    return np.cumsum(points * dq) - points


def interval_distance(points: np.ndarray, a: float, b: float) -> np.ndarray:
    """Distance from each grid point to the grid points inside [a, b]."""
    inside = points[(points >= a - 1e-12) & (points <= b + 1e-12)]
    return np.array([float(np.min(np.abs(inside - t))) for t in points])


def lsc_envelope(points: np.ndarray, values: np.ndarray, h: float) -> np.ndarray:
    """Window minimum of the right-continuous step function through the grid
    values: segment j = [t_j, t_{j+1}) counts when it meets [t_i - h, t_i + h]."""
    nxt = np.append(points[1:], np.inf)
    out = np.empty_like(values)
    for i, t in enumerate(points):
        touched = (points <= t + h) & (nxt > t - h)
        out[i] = values[touched].min()
    return out


def budget_lp(values: np.ndarray, dist: np.ndarray, radius: float) -> float:
    """min <v, p> over priors within transport budget r of a support set."""
    n = values.size
    return _solve_value(values, A_ub=dist[None, :], b_ub=[radius], A_eq=np.ones((1, n)), b_eq=[1.0])


def mean_ball_coupling_lp(values: np.ndarray, points: np.ndarray, mean: float, radius: float) -> float:
    """min <v, p> over p within W1 radius of a prior with the given mean, as a
    coupling gamma[i, j] from the adversary state i to the base state j."""
    n = points.size
    c = np.repeat(values, n)
    cost = np.abs(points[:, None] - points[None, :]).ravel()
    A_eq = np.vstack([np.ones(n * n), np.tile(points, n)])
    return _solve_value(c, A_ub=cost[None, :], b_ub=[radius], A_eq=A_eq, b_eq=[1.0, mean])


def moment_distance_lp(weights: np.ndarray, points: np.ndarray, G: np.ndarray, y: np.ndarray) -> float:
    """W1 distance from a prior to {q : G q = y}: transport the prior's atoms
    onto a grid measure whose moments are y."""
    from scipy.sparse import csr_matrix, kron, identity, vstack

    src = np.flatnonzero(weights > 0.0)
    ns, n = src.size, points.size
    cost = np.abs(points[src, None] - points[None, :]).ravel()
    marg = kron(identity(ns), csr_matrix(np.ones((1, n))))
    mom = csr_matrix(np.tile(G, ns))
    A_eq = vstack([marg, mom]).tocsr()
    b_eq = np.concatenate([weights[src], y])
    return max(_solve_value(cost, A_eq=A_eq, b_eq=b_eq), 0.0)


def _max_step(G: np.ndarray, y: np.ndarray, d: np.ndarray) -> float:
    """Largest t >= 0 with y + t d = G w for some prior w (0 when none)."""
    m, n = G.shape
    A_eq = np.vstack([np.hstack([G, -d[:, None]]), np.append(np.ones(n), 0.0)])
    c = np.zeros(n + 1)
    c[-1] = -1.0
    res = _linprog(c, A_eq=A_eq, b_eq=np.append(y, 1.0))
    return max(-float(res.fun), 0.0) if res.status == 0 else 0.0


def _tv_to_moments(G: np.ndarray, y: np.ndarray, pi: np.ndarray) -> float:
    """Least total variation from pi to a prior with moments y."""
    m, n = G.shape
    A_eq = np.vstack([np.hstack([G, np.zeros((m, n))]), np.append(np.ones(n), np.zeros(n))])
    A_ub = np.hstack([np.eye(n), -np.eye(n)])
    c = np.append(np.zeros(n), np.ones(n))
    return _solve_value(c, A_ub=A_ub, b_ub=pi, A_eq=A_eq, b_eq=np.append(y, 1.0))


def check_projection(result: tuple, pi: np.ndarray, G: np.ndarray, y: np.ndarray) -> list:
    """Check a rich_project_moment result (weights, alpha, margin, residual)."""
    weights, alpha, margin, residual = result
    rho = np.asarray(weights)
    errs = []
    x = G @ pi
    res_want = float(np.linalg.norm(y - x))
    if abs(residual - res_want) > 1e-10:
        errs.append(f"residual {residual} != |y - G pi| = {res_want}")
    if abs(rho.sum() - 1.0) > 1e-9 or rho.min() < 0.0:
        errs.append("projection is not a probability vector")
    if np.max(np.abs(G @ rho - y)) > 1e-7:
        errs.append(f"projected moments {G @ rho} miss the target {y}")
    if not 0.0 <= alpha <= 1.0 or np.any(rho < (1.0 - alpha) * pi - 1e-9):
        errs.append(f"projection is not a (1 - alpha) = {1 - alpha} mixture of pi")
    probes = []
    if res_want > 1e-14:
        d0 = (y - x) / res_want
        probes += [d0, -d0]
    eye = np.eye(y.size)
    probes += [s * eye[k] for k in range(y.size) for s in (1.0, -1.0)]
    margin_want = min(_max_step(G, y, d) for d in probes)
    if abs(margin - margin_want) > 1e-6:
        errs.append(f"margin {margin} != oracle {margin_want}")
    tv = 0.5 * float(np.abs(rho - pi).sum())
    tv_min = _tv_to_moments(G, y, pi)
    if tv < tv_min - 1e-7:
        errs.append(f"TV {tv} below the least possible {tv_min}")
    if tv > tv_min + 1e-6 and alpha < residual / (residual + margin) - 1e-12:
        errs.append(f"TV {tv} above the least {tv_min} although alpha {alpha} is within the bound")
    return errs


def read_csv(data: bytes):
    """First two columns of a rendered CSV series as float arrays."""
    rows = np.loadtxt(io.StringIO(data.decode()), delimiter=",", skiprows=1, ndmin=2)
    return rows[:, 0], rows[:, 1]
